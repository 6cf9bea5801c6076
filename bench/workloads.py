"""The three benchmark workloads: inputs from a seed, the timed call, output checks.

Each workload splits the robinsphere chain differently, so a change to one
layer shows on the workload that exercises it and not on the others:

* ``corpus-verify`` -- one ``verify-thm2`` CLI run per random corpus body
  (``--betas=-1 --fem-level 3``, profile K = 4096). capbody's inner-parallel
  perimeters do most of the work, then radial shooting, then the FEM oracle.
* ``ball-sweep`` -- ``ball-eig`` CLI runs over a grid of ball radii and
  boundary parameters. Almost all the work is radial shooting, whose cost
  grows with beta^2; capbody and fem are not called.
* ``fem-refine`` -- ``fem.solve_body`` at refinement levels 3, 4 and 5 over the
  octant, the cap of radius 1 and six corpus bodies per round. Mostly fem
  meshing, assembly and sparse LU, plus one boundary structure and incenter
  per mesh; the corpus bodies are built in set-up.

Every workload yields its items in rounds of a fixed mix, and the benchmark
stops only after whole cycles of rounds, so each run holds the same mix of
items whatever its length.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from robinsphere import capbody, cli, fem
from robinsphere.spaceform import HALF_PI

BETA = -1.0
# Corpus bodies are drawn from seeds 0..REFERENCE_BODIES-1, the bodies
# bench/reference.json holds, so every item is compared with the reference
# however many items a run holds. The count is a multiple of the cap-count
# cycle 6, so wrapping keeps rounds aligned with it. A corpus-verify run
# holds at least 54 of these bodies, so runs of any two seeds share most of
# them. With 150 bodies, item_p80_s spread 9 % between the quartiles of ten
# seeds, mostly from which bodies each seed drew.
REFERENCE_BODIES = 60


def body_seed(seed: int) -> int:
    return seed % REFERENCE_BODIES


def corpus_k(seed: int) -> int:
    """Cap count of corpus body ``seed``, the rule of ``capbody.corpus_bodies``."""
    return 3 + (seed - 1) % 6


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli.main`` as the shell would, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Deviations:
    """Compares outputs with reference values under stated tolerances.

    A tolerance is ``{"rel": x}`` or ``{"abs": x}``. ``max_rel_dev`` keeps the
    largest deviation seen per quantity: relative to the reference, or
    absolute where the reference is 0.
    """

    def __init__(self, tolerances: dict[str, dict]):
        self.tolerances = tolerances
        self.max_rel_dev: dict[str, float] = {}
        self.compared = 0

    def within(self, quantity: str, value: float, ref: float) -> bool:
        diff = abs(value - ref)
        rel = diff / abs(ref) if ref != 0.0 else diff
        self.max_rel_dev[quantity] = max(self.max_rel_dev.get(quantity, 0.0), rel)
        self.compared += 1
        tol = self.tolerances[quantity]
        return diff <= tol["abs"] if "abs" in tol else rel <= tol["rel"]


class Workload:
    """Interface of a workload; ``check`` returns the failure reason, or None if the output is right."""

    name = ""
    cycle = 1  # the run stops only after a whole number of cycles of rounds

    def __init__(self, seed: int, workdir: str, reference: dict, devs: Deviations):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.devs = devs

    def rounds(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> str | None:
        raise NotImplementedError

    def check_round(self, results: list) -> list[str]:
        """Checks across the successful items of one round; returns violations."""
        return []


class CorpusVerify(Workload):
    name = "corpus-verify"
    # a round is one cycle of the corpus cap counts k = 3..8
    round_size = 6
    quantities = ("perimeter", "area", "inradius", "lambda_ball", "rq", "lambda_fem")

    def rounds(self):
        s = self.seed
        while True:
            yield [body_seed(i) for i in range(s, s + self.round_size)]
            s += self.round_size

    def _paths(self):
        return os.path.join(self.workdir, "report.json"), os.path.join(self.workdir, "report.csv")

    def run(self, body):
        js, cs = self._paths()
        return call_cli(
            ["verify-thm2", "--random", str(body), "1", "--betas=-1",
             "--fem-level", "3", "--json", js, "--csv", cs]
        )

    def outputs(self) -> tuple[dict, list[dict]]:
        """Read and remove the JSON report and CSV rows the last item wrote."""
        js, cs = self._paths()
        try:
            with open(js, encoding="utf-8") as fh:
                payload = json.load(fh)
            with open(cs, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        finally:
            for path in (js, cs):
                if os.path.exists(path):
                    os.remove(path)
        return payload, rows

    def check(self, body, result):
        rc, _, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        payload, rows = self.outputs()
        failed = [
            c["description"]
            for r in payload["reports"]
            for c in r["checks"]
            if not c["pass"]
        ]
        if not payload["overall"] or failed:
            return f"report check failed: {failed}"
        if len(rows) != 1 or rows[0]["pass_thm1"] != "True" or rows[0]["pass_thm2"] != "True":
            return f"csv rows do not pass: {rows}"
        values = {q: float(rows[0][q]) for q in self.quantities}
        if not all(math.isfinite(v) for v in values.values()):
            return f"non-finite output {values}"
        ref = self.reference.get(str(body))
        if ref is None:
            return f"no reference for corpus body {body}"
        off = [q for q in self.quantities if not self.devs.within(q, values[q], ref[q])]
        if off:
            return f"deviates from reference in {off}"
        return None


class BallSweep(Workload):
    name = "ball-sweep"
    R_GRID = (0.5, 1.0, HALF_PI)
    B_GRID = ("-20", "-10", "-5", "-1", "-0.5", "0", "0.5", "2", "tan")
    # R = pi/2 with beta = tan(R) ~ 1.6e16 is effectively Dirichlet; ball-eig
    # exits 2 there ("computed eigenfunction changes sign"). It is run once per
    # run outside the timed items, see ``known_failure``.
    KNOWN_FAILURE = (HALF_PI, "tan")
    # extra radius per cycle, drawn away from pi/2 for the same reason
    DRAW_R = (0.2, 1.5)
    # a round is every beta at one radius; a cycle is the grid radii, then a drawn one
    cycle = len(R_GRID) + 1

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed)

    @staticmethod
    def beta_text(R: float, b: str) -> str:
        return f"tan({R!r})" if b == "tan" else b

    def rounds(self):
        while True:
            radii = [(R, True) for R in self.R_GRID]
            radii.append((float(self.rng.uniform(*self.DRAW_R)), False))
            for R, on_grid in radii:
                items = [(R, b, on_grid) for b in self.B_GRID if (R, b) != self.KNOWN_FAILURE]
                yield [items[i] for i in self.rng.permutation(len(items))]

    def run(self, item):
        R, b, _ = item
        return call_cli(["ball-eig", "--r", repr(R), "--beta", self.beta_text(R, b)])

    @staticmethod
    def parse_lambda(stdout: str) -> float:
        line = stdout.strip().splitlines()[-1]
        if not line.startswith("lambda = "):
            raise ValueError(f"unexpected ball-eig output {line!r}")
        return float(line[len("lambda = "):])

    def check(self, item, result):
        R, b, on_grid = item
        rc, out, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        lam = self.parse_lambda(out)
        if not math.isfinite(lam):
            return f"non-finite lambda {lam}"
        # acceptance criteria 1 and 2: Neumann gives 0, beta = tan R gives n = 2
        if b == "0" and not self.devs.within("lambda_neumann", lam, 0.0):
            return f"Neumann lambda {lam} != 0"
        if b == "tan" and not self.devs.within("lambda_tan", lam, 2.0):
            return f"tan-family lambda {lam} != 2"
        if b not in ("0", "tan") and math.copysign(1.0, lam) != math.copysign(1.0, float(b)):
            return f"lambda {lam} has the wrong sign for beta {b}"
        if on_grid:
            ref = self.reference[f"{R!r}|{b}"]
            if not self.devs.within("lambda", lam, ref):
                return f"lambda {lam} deviates from reference {ref}"
        return None

    def check_round(self, results):
        """Acceptance criterion 3: lambda strictly increases with beta at fixed R."""
        by_r: dict[float, list[tuple[float, float]]] = {}
        for (R, b, _), (_, out, _) in results:
            beta = math.tan(R) if b == "tan" else float(b)
            by_r.setdefault(R, []).append((beta, self.parse_lambda(out)))
        bad = []
        for R, pairs in by_r.items():
            lams = [lam for _, lam in sorted(pairs)]
            if not all(hi - lo > 1e-8 for lo, hi in zip(lams, lams[1:])):
                bad.append(f"lambda not increasing in beta at R={R!r}: {lams}")
        return bad

    def known_failure(self) -> dict:
        """Run the known failing input.

        At the seed it exits 2 (a SolverError). Any other outcome is wrong,
        except that a fix may exit 0 with the tan-family answer 2.
        """
        R, b = self.KNOWN_FAILURE
        result = self.run((R, b, False))
        reason = self.check((R, b, False), result)
        return {"argv": ["ball-eig", "--r", repr(R), "--beta", self.beta_text(R, b)],
                "exit": result[0], "reason": reason,
                "wrong": result[0] != 2 and reason is not None}


class FemRefine(Workload):
    name = "fem-refine"
    # Level 3 is the corpus-verify level; with it the median item is a level-4
    # solve, not the jump between the level-4 and level-5 costs.
    LEVELS = (3, 4, 5)
    FIXTURES = ("octant", "cap-1.0")
    CORPUS_BODIES = 6  # per round: one cycle of the corpus cap counts k = 3..8

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed)
        self.bodies = {"octant": capbody.octant_fixture(), "cap-1.0": capbody.cap_fixture(1.0)}
        # All reference bodies are built, so that runs of every seed draw on
        # one pool. With only the six bodies after the seed, which ones a
        # seed drew moved item_p50_s by 16 % between the quartiles of ten seeds.
        for s in range(REFERENCE_BODIES):
            self.bodies[str(s)] = capbody.random_body(s, corpus_k(s))

    def rounds(self):
        s = self.seed
        while True:
            names = [*self.FIXTURES, *(str(body_seed(i)) for i in range(s, s + self.CORPUS_BODIES))]
            items = [(name, level) for name in names for level in self.LEVELS]
            yield [items[i] for i in self.rng.permutation(len(items))]
            s += self.CORPUS_BODIES

    def run(self, item):
        name, level = item
        return fem.solve_body(self.bodies[name], BETA, level)

    def check(self, item, result):
        name, level = item
        lam = result.lambda_h
        if not math.isfinite(lam) or lam >= 0.0:
            # a constant test function bounds lambda by beta P / |body| < 0
            return f"lambda_h {lam} is not negative and finite"
        if not result.residual <= 1e-10:
            return f"inverse iteration residual {result.residual} above its 1e-10 tolerance"
        ref = self.reference.get(name)
        if ref is None:
            return f"no reference for body {name}"
        if not self.devs.within(f"lambda_h_L{level}", lam, ref[str(level)]):
            return f"lambda_h deviates from reference {ref[str(level)]}"
        return None


WORKLOADS = {w.name: w for w in (CorpusVerify, BallSweep, FemRefine)}
