#!/usr/bin/env python3
"""Record ``bench/reference.json``: the outputs the benchmark compares against.

Run from the root of a checkout, at the commit whose numbers become the
reference (a few minutes on one core):

    python3 bench/record_reference.py

It records, through the same calls the workloads time:

* corpus-verify: perimeter, area, inradius, lambda_ball, rq and lambda_fem of
  corpus bodies 0..REFERENCE_BODIES-1 (see ``workloads.REFERENCE_BODIES``);
* ball-sweep: lambda on the fixed (R, beta) grid;
* fem-refine: lambda_h at levels 3, 4 and 5 for the octant, the cap of radius 1
  and the same corpus bodies;

and the tolerance of each quantity together with where it comes from.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile

import run


def tolerances(fem) -> dict:
    fem_err = {level: fem.calibrated_ball_error(level, -1.0) for level in (3, 4, 5)}
    geometry = "pipeline geometry slack: thm1 passes |body| <= |ball| + 1e-9 and inradius <= R + 1e-9"
    pipeline = "pipeline tolerance tol = 1e-6 of thm1_verify/thm2_verify (rq <= lambda_ball + 1e-6)"

    def calibrated(level):
        return {"rel": fem_err[level],
                "source": f"fem.calibrated_ball_error({level}, -1.0): FEM error on the ball at level {level}"}

    return {
        "perimeter": {"rel": 1e-9, "source": geometry},
        "area": {"rel": 1e-9, "source": geometry},
        "inradius": {"rel": 1e-9, "source": geometry},
        "lambda_ball": {"abs": 1e-6, "source": pipeline},
        "rq": {"abs": 1e-6, "source": pipeline},
        "lambda_fem": calibrated(3),
        "lambda_h_L3": calibrated(3),
        "lambda_h_L4": calibrated(4),
        "lambda_h_L5": calibrated(5),
        "lambda": {"rel": 1e-8,
                   "source": "acceptance criteria 2-3 resolve ball eigenvalues to 1e-8"},
        "lambda_neumann": {"abs": 1e-10, "source": "acceptance criterion 1: |lambda| <= 1e-10 at beta = 0"},
        "lambda_tan": {"abs": 1e-8, "source": "acceptance criterion 2: |lambda - 2| <= 1e-8 at beta = tan R"},
    }


def main() -> int:
    workloads = run.import_program()
    from robinsphere import fem

    tol = tolerances(fem)
    devs = workloads.Deviations(tol)
    ref = {"tolerances": tol}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="work-") as workdir:
        corpus = workloads.CorpusVerify(0, workdir, {}, devs)
        ref["corpus-verify"] = {}
        for s in range(workloads.REFERENCE_BODIES):
            rc, _, err = corpus.run(s)
            if rc != 0:
                raise SystemExit(f"corpus body {s}: exit {rc}: {err}")
            _, rows = corpus.outputs()
            ref["corpus-verify"][str(s)] = {q: float(rows[0][q]) for q in corpus.quantities}
            print(f"corpus {s}", ref["corpus-verify"][str(s)], flush=True)

    ball = workloads.BallSweep(0, "", {}, devs)
    ref["ball-sweep"] = {}
    for R in ball.R_GRID:
        for b in ball.B_GRID:
            if (R, b) == ball.KNOWN_FAILURE:
                continue
            rc, out, err = ball.run((R, b, True))
            if rc != 0:
                raise SystemExit(f"ball R={R!r} beta={b}: exit {rc}: {err}")
            ref["ball-sweep"][f"{R!r}|{b}"] = ball.parse_lambda(out)

    from robinsphere import capbody

    bodies = {"octant": capbody.octant_fixture(), "cap-1.0": capbody.cap_fixture(1.0)}
    for s in range(workloads.REFERENCE_BODIES):
        bodies[str(s)] = capbody.random_body(s, workloads.corpus_k(s))
    ref["fem-refine"] = {}
    for name, body in bodies.items():
        lams = {}
        for level in workloads.FemRefine.LEVELS:
            lam = fem.solve_body(body, workloads.BETA, level).lambda_h
            if not math.isfinite(lam):
                raise SystemExit(f"fem {name} level {level}: lambda_h = {lam}")
            lams[str(level)] = lam
        ref["fem-refine"][name] = lams
        print(f"fem {name}", lams, flush=True)

    with open(run.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
