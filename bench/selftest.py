"""Tests of the benchmark itself: tracer bindings, exact counts, deadline, checks.

Run from the root of a checkout (a few seconds):

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the library's default test run.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import pytest

import run
from tracer import SPAN_NAMES, Tracer

workloads = run.import_program()

from robinsphere.fem import DiscreteEigResult  # noqa: E402

K = 4096  # profile panels of verify-thm2, as the corpus-verify items run it
BETAS = 1  # corpus-verify runs --betas=-1


def robinsphere_modules():
    return [m for name, m in sys.modules.items() if name.startswith("robinsphere")]


def test_tracer_replaces_every_binding_and_restores_them():
    tracer = Tracer()
    originals = {}
    for name in SPAN_NAMES:
        layer, fn = name.split(".")
        originals[name] = getattr(sys.modules[f"robinsphere.{layer}"], fn)
    before = {(m.__name__, a): v for m in robinsphere_modules() for a, v in vars(m).items()}
    tracer.install()
    try:
        leftover = [
            (m.__name__, attr)
            for m in robinsphere_modules()
            for attr, value in vars(m).items()
            if any(value is f for f in originals.values())
        ]
        assert leftover == []
        # second references made by ``from x import f`` are wrapped too
        import robinsphere.cli as cli
        import robinsphere.parallel as parallel

        assert parallel.perimeter is not originals["capbody.perimeter"]
        assert cli.perimeter_profile is not originals["parallel.perimeter_profile"]
        assert parallel.first_eigenvalue is not originals["radial.first_eigenvalue"]
        assert cli.reports_to_json is not originals["report.reports_to_json"]
    finally:
        tracer.uninstall()
    after = {(m.__name__, a): v for m in robinsphere_modules() for a, v in vars(m).items()}
    assert after == before


@pytest.fixture(scope="module")
def corpus_trace(tmp_path_factory):
    """Two corpus-verify items (bodies 1 and 2) run under the tracer."""
    devs = workloads.Deviations({})
    wl = workloads.CorpusVerify(1, str(tmp_path_factory.mktemp("work")), {}, devs)
    tracer = Tracer()
    tracer.install()
    try:
        for item, body_seed in enumerate((1, 2)):
            tracer.item = item
            rc, _, err = wl.run(body_seed)
            assert rc == 0, err
    finally:
        tracer.uninstall()
    return tracer


def per_item_calls(tracer, name):
    return Counter(item for span, _, _, _, item in tracer.spans if span == name)


def test_exact_counts_per_corpus_body(corpus_trace):
    attempts = Counter(
        corpus_trace.spans[parent][4]
        for name, _, _, parent, _ in corpus_trace.spans
        if name == "capbody.boundary_structure"
        and parent >= 0
        and corpus_trace.spans[parent][0] == "capbody.random_body"
    )
    assert attempts == {0: 1, 1: 1}  # bodies 1 and 2 are accepted at the first draw
    assert per_item_calls(corpus_trace, "capbody.inner_parallel") == {0: K + 1, 1: K + 1}
    assert per_item_calls(corpus_trace, "capbody.perimeter") == {
        i: K + 1 + BETAS + attempts[i] for i in (0, 1)
    }
    assert per_item_calls(corpus_trace, "capbody.boundary_structure") == {0: 5, 1: 5}
    assert per_item_calls(corpus_trace, "capbody.incenter_and_inradius") == {0: 3, 1: 3}
    for name in ("cli.main", "parallel.perimeter_profile", "radial.first_eigenvalue",
                 "fem.solve_body", "report.reports_to_json", "report.rows_to_csv"):
        assert per_item_calls(corpus_trace, name) == {0: 1, 1: 1}, name


def test_spans_nest_and_self_times_add_up(corpus_trace):
    spans = corpus_trace.spans
    for name, start, end, parent, item in spans:
        assert start <= end
        if parent >= 0:
            p_name, p_start, p_end, _, p_item = spans[parent]
            assert p_start <= start and end <= p_end and p_item == item
    summary = corpus_trace.summary()
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    assert sum(rec["self_s"] for rec in summary.values()) == pytest.approx(roots)
    layer_self = Counter()
    for name, rec in summary.items():
        layer_self[name.split(".")[0]] += rec["self_s"]
    assert layer_self["capbody"] > layer_self["radial"] > layer_self["fem"]


def test_item_past_its_deadline_counts_as_failed(monkeypatch, tmp_path):
    """``ball-eig --beta nan`` never brackets a root and would hang."""

    class NanBeta(workloads.BallSweep):
        def run(self, item):
            return workloads.call_cli(["ball-eig", "--r", "1.0", "--beta", "nan"])

    monkeypatch.setattr(run, "DEADLINE_S", 0.5)
    wl = NanBeta(0, str(tmp_path), {}, workloads.Deviations({}))
    tally = run.Tally()
    run.run_round(wl, [(1.0, "nan", False)], tally, math.inf)
    assert (tally.attempted, tally.verified, tally.failed, tally.latencies) == (1, 0, 1, [])
    assert "deadline" in tally.failures[0]


def test_deviation_from_reference_is_a_failure(tmp_path):
    reference, devs = run.load_reference("fem-refine", workloads)
    wl = workloads.FemRefine(0, str(tmp_path), reference, devs)
    ref = reference["octant"]["4"]
    tol = devs.tolerances["lambda_h_L4"]["rel"]
    ok = DiscreteEigResult(lambda_h=ref * (1 + 0.5 * tol), refinement_level=4, residual=0.0)
    off = DiscreteEigResult(lambda_h=ref * (1 + 2.0 * tol), refinement_level=4, residual=0.0)
    assert wl.check(("octant", 4), ok) is None
    assert "reference" in wl.check(("octant", 4), off)
    assert devs.max_rel_dev["lambda_h_L4"] == pytest.approx(2.0 * tol)


def test_item_that_exits_2_is_a_failure(tmp_path):
    """The known failing ball input exits 2; as a counted item it must fail the run."""
    wl = workloads.BallSweep(0, str(tmp_path), {}, workloads.Deviations({}))
    tally = run.Tally()
    run.run_round(wl, [(*wl.KNOWN_FAILURE, False)], tally, math.inf)
    assert (tally.attempted, tally.verified, tally.failed, tally.latencies) == (1, 0, 1, [])
    assert "exit 2" in tally.failures[0]
    assert wl.known_failure()["wrong"] is False


def test_missing_reference_is_a_failure(tmp_path):
    wl = workloads.FemRefine(0, str(tmp_path), {}, workloads.Deviations({}))
    result = DiscreteEigResult(lambda_h=-1.0, refinement_level=4, residual=0.0)
    assert "no reference" in wl.check(("octant", 4), result)


def test_corpus_bodies_stay_within_the_reference():
    reference, _ = run.load_reference("corpus-verify", workloads)
    rounds = workloads.CorpusVerify(10**6 + 3, "", reference, None).rounds()
    for _ in range(workloads.REFERENCE_BODIES):
        bodies = next(rounds)
        assert all(str(b) in reference for b in bodies)
        assert sorted(workloads.corpus_k(b) for b in bodies) == [3, 4, 5, 6, 7, 8]


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch, tmp_path):
    """A host running the probe at half speed halves the reported latency."""
    monkeypatch.setattr(run, "probe", lambda: 2.0 * run.PROBE_REF_S)
    reference, devs = run.load_reference("ball-sweep", workloads)
    wl = workloads.BallSweep(0, str(tmp_path), reference, devs)
    tally = run.Tally()
    busy = run.run_round(wl, [(1.0, "0", True)], tally, math.inf)
    assert tally.failures == []
    assert tally.host_scales == [0.5]
    assert tally.latencies == [0.5 * tally.wall_latencies[0]]
    assert busy >= tally.latencies[0]
