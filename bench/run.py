#!/usr/bin/env python3
"""robinsphere benchmark: closed-loop workloads, checked outputs, outside-in trace.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 15 --trace 0

Workloads are ``corpus-verify``, ``ball-sweep`` and ``fem-refine`` (see
``bench/workloads.py``). One process runs one item at a time (a closed loop
with one client) with BLAS and OpenMP pinned to one thread, and stops at the
first cycle boundary after ``--seconds`` of item time (at the reference host
speed, see below) once it holds at least 50 items, so that the 80th
percentile has ten items above it. Every item has a deadline;
an item that raises, exits non-zero, fails a report check, deviates from the
reference or passes its deadline counts as failed, and any failure makes the
result incorrect. Latencies are those of the verified items.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median over fresh processes of import plus input generation
    items_per_s  items verified per second of item run and check time
    item_p50_s   median item latency
    item_p80_s   80th-percentile item latency
    peak_rss_mb  peak resident memory of the workload process

Times are given at a fixed reference host speed. A short pure-Python probe
runs between items, and each item's time is scaled by the ratio of the
probe's reference time to its median time just before and after the item
(see ``host_scale``). On a shared host this removes most of the slowdown that
other tenants cause, which reaches 50 % over minutes; the probe runs no
program code, so a change to the program shows in full. The record holds the
times as measured too, under ``wall``.

With ``--trace 1`` it runs each item of the first cycle once untraced and once
under the tracer of ``bench/tracer.py``. It reports per-layer calls and self
times (input generation, which is traced too, included), each layer's share
of the items' self time, the call ratios computed in ``traced`` and the
tracing overhead. The traced slice is fixed, so call counts repeat exactly
for a seed.

The last line of standard output is the result as one JSON object; the line
before it is the full record (environment, item counts, largest deviation
from the reference per quantity, tolerances), which is also written with the
spans to ``.bench_out/``.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before anything imports numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import TARGETS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("corpus-verify", "ball-sweep", "fem-refine")

MIN_ITEMS = 50  # p80 is then the highest percentile with >= 10 items beyond it
MAX_TIMED_S = 100.0  # stop even mid-round, so a run ends within 180 s
DEADLINE_S = 20.0  # per item; the slowest takes about 2 s on a 2-core Xeon VM
SETUP_SAMPLES = 3
PROBE_LOOPS = 50_000
PROBES_PER_GAP = 3
# Time of probe() on an uncontended 2-core "Intel(R) Xeon(R) Processor" VM
# with CPython 3.11.7. Times are reported at this host speed, see host_scale().
PROBE_REF_S = 0.0035


class ItemDeadline(BaseException):
    """Raised in the main thread by SIGALRM when an item passes its deadline.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it and keep a hanging loop alive.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise ItemDeadline(f"item passed its {seconds:g} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def probe() -> float:
    """Time a fixed pure-Python loop, which gauges the host's current speed.

    The loop touches no program code, so a change to the program cannot move
    it. On a shared host its time follows the slowdowns that other tenants
    cause in the items, which it samples between them.
    """
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


def host_scale(probes: list[float]) -> float:
    """Factor that takes times measured next to ``probes`` to the reference host speed.

    Shared hosts change speed by 10-50 % over minutes, far more than the
    bounds a change is judged by. Scaling each item by the probes run just
    before and after it halves the spread of one body's latency across
    repeats on such a host.
    """
    return PROBE_REF_S / statistics.median(probes)


def import_program():
    """Import robinsphere from this checkout's ``src`` and nowhere else."""
    if not (SRC / "robinsphere" / "__init__.py").is_file():
        raise SystemExit(f"error: no robinsphere sources under {SRC}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import robinsphere

    if Path(robinsphere.__file__).resolve().parent != SRC / "robinsphere":
        raise SystemExit(f"error: imported robinsphere from {robinsphere.__file__}, not {SRC}")
    import workloads

    return workloads


def load_reference(name: str, workloads):
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref[name], workloads.Deviations(ref["tolerances"])


def setup(name: str, seed: int, workdir: str):
    """Import the program and build the workload's inputs from the seed."""
    workloads = import_program()
    reference, devs = load_reference(name, workloads)
    return workloads.WORKLOADS[name](seed, workdir, reference, devs)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, from spawn to the first item being ready.

    Returns the times at the reference host speed and as measured.
    """
    samples, wall = [], []
    for _ in range(SETUP_SAMPLES):
        probes = [probe() for _ in range(9)]
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=20, check=True,
        )
        wall.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        probes += [probe() for _ in range(9)]
        samples.append(wall[-1] * host_scale(probes))
    return samples, wall


class Tally:
    """Outcome counts of the items run, and the latencies of the verified ones.

    ``latencies`` are at the reference host speed, ``wall_latencies`` as
    measured. Any failure, of an item or of a check across a round, makes
    the run incorrect.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.host_scales: list[float] = []
        self.attempted = 0
        self.verified = 0
        self.failures: list[str] = []

    def fail(self, item, reason: str) -> None:
        self.failures.append(f"{item!r}: {reason}")

    @property
    def failed(self) -> int:
        return self.attempted - self.verified


def run_round(wl, items, tally: Tally, stop_at: float) -> float:
    """Run and check items in order, skipping those due after ``stop_at``.

    Host probes run before each item and after the last one; an item's times
    are scaled by the probes on both sides of it. Returns the time the items
    took to run and check, at the reference host speed; 0 if none ran.
    """
    ok_results = []
    runs = []  # (run and check time, latency if verified else None) per item
    gaps = []  # probe times before each item, then after the last
    for item in items:
        if time.perf_counter() >= stop_at:
            break
        gaps.append([probe() for _ in range(PROBES_PER_GAP)])
        tally.attempted += 1
        start = time.perf_counter()
        latency = None
        try:
            with deadline(DEADLINE_S):
                result = wl.run(item)
        except ItemDeadline as exc:
            reason = str(exc)
        except Exception as exc:  # an item must not stop the run; it counts as failed
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - start
            try:
                reason = wl.check(item, result)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        runs.append((time.perf_counter() - start, latency if reason is None else None))
        if reason is None:
            ok_results.append((item, result))
        else:
            tally.fail(item, reason)
    for violation in wl.check_round(ok_results):
        tally.fail(items, violation)
    if not runs:
        return 0.0
    gaps.append([probe() for _ in range(PROBES_PER_GAP)])
    busy = 0.0
    for i, (item_s, latency) in enumerate(runs):
        scale = host_scale(gaps[i] + gaps[i + 1])
        busy += item_s * scale
        tally.host_scales.append(scale)
        if latency is not None:
            tally.verified += 1
            tally.latencies.append(latency * scale)
            tally.wall_latencies.append(latency)
    return busy


def timed_phase(wl, seconds: float, tally: Tally) -> tuple[float, float]:
    """Run whole cycles of rounds for ``seconds`` of item time at the reference host speed.

    Counting time at the reference speed makes the item mix of a run the same
    however fast the host is at the moment. Returns the wall time of the
    phase and the item run and check time at the reference speed.
    """
    rounds = wl.rounds()
    ref_s = 0.0
    start = time.perf_counter()
    for n in itertools.count(1):
        ref_s += run_round(wl, next(rounds), tally, start + MAX_TIMED_S)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_TIMED_S or (
            n % wl.cycle == 0 and ref_s >= seconds and tally.attempted >= MIN_ITEMS
        ):
            return elapsed, ref_s


def end_to_end(name: str, seed: int, seconds: float, workdir: str, record: dict):
    setup_samples, setup_wall = measure_setup(name, seed)
    wl = setup(name, seed, workdir)
    tally = Tally()
    elapsed, ref_s = timed_phase(wl, seconds, tally)
    latencies, wall = tally.latencies, tally.wall_latencies
    if len(latencies) < 2:
        raise SystemExit(f"error: {len(latencies)} items verified; failures: {tally.failures[:5]}")
    record["metrics"] = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "items_per_s": {"value": tally.verified / ref_s, "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "item_p80_s": {"value": statistics.quantiles(latencies, n=5)[3], "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    record["setup_samples_s"] = setup_samples
    record["setup_wall_samples_s"] = setup_wall
    record["timed_s"] = elapsed
    record["timed_ref_s"] = ref_s
    record["host_scales"] = tally.host_scales
    record["wall"] = {
        "verified_per_s": tally.verified / elapsed,
        "item_p50_s": statistics.median(wall),
        "item_p80_s": statistics.quantiles(wall, n=5)[3],
        "setup_s": statistics.median(setup_wall),
    }
    if hasattr(wl, "known_failure"):
        try:
            with deadline(DEADLINE_S):
                known = wl.known_failure()
        except ItemDeadline as exc:
            known = {"reason": str(exc), "wrong": True}
        record["known_failure"] = known
        if known["wrong"]:
            tally.fail(known["argv"], known["reason"])
    return wl, tally


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(name: str, seed: int, workdir: str, record: dict):
    tracer = Tracer()
    tracer.install()  # input generation is traced too: fem-refine builds bodies there
    try:
        wl = setup(name, seed, workdir)
    finally:
        tracer.uninstall()
    rounds = wl.rounds()
    items = [item for _ in range(wl.cycle) for item in next(rounds)]
    tally = Tally()
    # Warm up lazy imports and first-call set-up, then run each item untraced
    # and traced in alternating order, so warm caches and drift favour neither.
    stop_at = time.perf_counter() + MAX_TIMED_S
    run_round(wl, items[:1], tally, stop_at)
    untraced_s = traced_s = 0.0
    for i, item in enumerate(items):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            tracer.item = i
            if with_trace:
                tracer.install()
            verified = tally.verified
            try:
                run_round(wl, [item], tally, stop_at)
            finally:
                if with_trace:
                    tracer.uninstall()
            # the item's own time at the reference host speed, without the
            # host probe and the output check
            elapsed = tally.latencies[-1] if tally.verified > verified else 0.0
            if with_trace:
                traced_s += elapsed
            else:
                untraced_s += elapsed

    summary = tracer.summary()
    metrics = {}
    for span, rec in summary.items():
        metrics[f"{span}.calls"] = {"value": rec["calls"], "unit": "count"}
        metrics[f"{span}.self_s"] = {"value": rec["self_s"], "unit": "s"}
    # layer shares are of the items' time; input generation is left out
    item_summary = tracer.summary(items_only=True)
    total_self = sum(rec["self_s"] for rec in item_summary.values())
    for layer, fns in TARGETS.items():
        layer_self = sum(item_summary[f"{layer}.{fn}"]["self_s"] for fn in fns)
        metrics[f"{layer}.share"] = {"value": ratio(layer_self, total_self), "unit": "fraction"}

    def calls(span):
        return summary[span]["calls"]

    n_items = len(items)
    metrics.update({
        "trace.items": {"value": n_items, "unit": "count"},
        "capbody.incenter_and_inradius.per_item": {
            "value": ratio(item_summary["capbody.incenter_and_inradius"]["calls"], n_items),
            "unit": "calls/item"},
        "capbody.random_body.attempts_per_body": {
            "value": ratio(tracer.child_calls("capbody.random_body", "capbody.boundary_structure"),
                           calls("capbody.random_body")),
            "unit": "calls/body"},
        "radial.shoot.per_solve": {
            "value": ratio(calls("radial.shoot"), calls("radial.first_eigenvalue")),
            "unit": "calls/solve"},
        "fem.splu.per_solve": {
            "value": ratio(calls("fem.splu"), calls("fem.assemble_and_solve")),
            "unit": "calls/solve"},
        "fem.mesh_body.vertices": {
            "value": ratio(tracer.mesh_vertices, calls("fem.mesh_body")),
            "unit": "count"},
        "trace_overhead": {"value": traced_s / untraced_s - 1.0, "unit": "fraction"},
    })
    record["metrics"] = metrics
    record["untraced_slice_s"] = untraced_s
    record["traced_slice_s"] = traced_s
    record["spans"] = len(tracer.spans)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "item"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return wl, tally


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_pins": THREAD_PINS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload, print the monotonic clock and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_only:
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="probe-") as workdir:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic())
        return 0

    import_program()  # fail before any output when the checkout holds no program
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "deadline_s": DEADLINE_S}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        if args.trace:
            wl, tally = traced(args.workload, args.seed, workdir, record)
        else:
            wl, tally = end_to_end(args.workload, args.seed, args.seconds, workdir, record)

    devs = wl.devs
    record["environment"] = environment()
    record["items"] = {"attempted": tally.attempted, "verified": tally.verified,
                       "failed": tally.failed,
                       "reference_comparisons": devs.compared}
    record["fail_frac"] = tally.failed / tally.attempted
    record["failures"] = tally.failures[:20]
    record["max_rel_dev"] = devs.max_rel_dev
    record["tolerances"] = {q: devs.tolerances[q] for q in devs.max_rel_dev}
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for metric, m in record["metrics"].items():
        print(f"{metric} = {m['value']!r} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
