"""Batch front-end: solvers, pipelines and verification suites from the shell.

Commands map one-to-one onto the library pipelines:

    ball-eig       first Robin eigenvalue of a geodesic ball (+ CSV profile)
    verify-thm1    eigenvalue comparison pipeline on a body / corpus
    verify-thm2    quantitative stability pipeline
    profile        perimeter profile + the differential inequality check
    steiner-check  Steiner closure (finite differences) for a body
    af-check       curvature-measure gap, nonnegativity and ball equality
    hyp-witness    hyperbolic non-convexity witness report

A JSON config with a "command" field may supply any parameter; explicit
flags override the config. Exit codes: 0 all checks pass, 1 a verification
failed, 2 invalid input or geometry.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from robinsphere import capbody, fem
from robinsphere.capbody import CapBody
from robinsphere.curvature import (
    alexandrov_fenchel_gap,
    compute_measures,
    steiner_boundary,
    steiner_volume,
)
from robinsphere.errors import GeometryError, SolverError
from robinsphere.halfspace import nonconvexity_witness
from robinsphere.parallel import (
    csv_row,
    ode_inequality_check,
    perimeter_profile,
    thm1_verify,
    thm2_verify,
    transplant_rayleigh,
)
from robinsphere.radial import RobinBallProblem, first_eigenvalue
from robinsphere.report import VerificationReport, reports_to_json, rows_to_csv

EXIT_PASS = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
# equally spaced distances from the boundary in ``ball-eig --out``
_PROFILE_POINTS = 4097


def parse_beta(text: str) -> float:
    """Accept finite plain floats and the closed-form family syntax tan(x)."""
    m = re.fullmatch(r"\s*tan\(([^)]+)\)\s*", text)
    beta = math.tan(float(m.group(1))) if m else float(text)
    if not math.isfinite(beta):
        raise GeometryError(f"beta must be finite, got {text!r}")
    return beta


def _parse_betas(text: str) -> list[float]:
    betas = [parse_beta(tok) for tok in text.split(",") if tok.strip()]
    if not betas:
        raise GeometryError(f"no beta given in {text!r}")
    return betas


def _load_bodies(args) -> list[tuple[str, CapBody]]:
    if getattr(args, "body_file", None):
        return [(args.body_file, capbody.load_body(args.body_file))]
    if getattr(args, "fixture", None):
        name = args.fixture
        if name == "octant":
            return [("octant", capbody.octant_fixture())]
        m = re.fullmatch(r"cap:([0-9.eE+-]+)", name)
        if m:
            return [(name, capbody.cap_fixture(float(m.group(1))))]
        raise GeometryError(f"unknown fixture {name!r}; use 'octant' or 'cap:R'")
    if getattr(args, "random", None):
        seed, count = int(args.random[0]), int(args.random[1])
        if count < 1:
            raise GeometryError(f"--random needs COUNT >= 1, got {count}")
        return [capbody.corpus_body(s) for s in range(seed, seed + count)]
    raise GeometryError("no body source given: use --body-file, --fixture or --random")


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_reports(args, reports: list[VerificationReport], rows: list[dict]) -> int:
    payload = reports_to_json(reports)
    _write(getattr(args, "json", None), payload)
    if rows:
        _write(getattr(args, "csv", None), rows_to_csv(rows))
    overall = all(r.overall for r in reports)
    for r in reports:
        status = "PASS" if r.overall else "FAIL"
        print(f"[{status}] {r.name}")
        if not r.overall:
            for c in r.checks:
                if not c.passed:
                    print(f"    failed: {c.description} (lhs={c.lhs!r}, rhs={c.rhs!r})")
    return EXIT_PASS if overall else EXIT_VERIFICATION_FAILED


def cmd_ball_eig(args) -> int:
    problem = RobinBallProblem(args.n, args.r, parse_beta(args.beta))
    pair = first_eigenvalue(problem)
    print(f"lambda = {pair.lam!r}")
    if args.out:
        rho = np.linspace(0.0, problem.radius, _PROFILE_POINTS)
        phi = pair.psi(problem.radius - rho)
        lines = ["rho,phi", *(f"{x!r},{y!r}" for x, y in zip(rho.tolist(), phi.tolist()))]
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS


def _thm_for_body(item, betas, K, fem_level):
    name, body = item
    body.witness  # a body without a hemisphere witness is an input error
    out = []
    profile = perimeter_profile(body, K)
    for beta in betas:
        res = transplant_rayleigh(body, beta, profile)
        fem_res = fem.solve_body(body, beta, fem_level) if fem_level is not None else None
        r1 = thm1_verify(res)
        r1.name = f"thm1[{name}, beta={beta}]"
        r2 = thm2_verify(res, fem=fem_res)
        r2.name = f"thm2[{name}, beta={beta}]"
        out.append((r1, r2, csv_row(name, res, r1, r2, fem_res)))
    return out


def _run_thm(args, which: str) -> int:
    bodies = _load_bodies(args)
    betas = _parse_betas(args.betas)
    for beta in betas:
        if beta >= 0:
            raise GeometryError(f"theorem pipelines need beta < 0, got {beta}")
    fem_level = args.fem_level if args.fem_level >= 0 else None

    # the pool forks all its workers at the first task, so never ask for more
    # than there are bodies or CPUs
    workers = min(args.jobs, len(bodies), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _thm_for_body,
                    bodies,
                    [betas] * len(bodies),
                    [args.k] * len(bodies),
                    [fem_level] * len(bodies),
                )
            )
    else:
        results = [_thm_for_body(item, betas, args.k, fem_level) for item in bodies]

    reports, rows = [], []
    for per_body in results:
        for r1, r2, row in per_body:
            reports.append(r1 if which == "thm1" else r2)
            rows.append(row)
    return _emit_reports(args, reports, rows)


def cmd_verify_thm1(args) -> int:
    return _run_thm(args, "thm1")


def cmd_verify_thm2(args) -> int:
    return _run_thm(args, "thm2")


def cmd_profile(args) -> int:
    bodies = _load_bodies(args)
    reports = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["body_id", "t", "perimeter"])
    for name, body in bodies:
        prof = perimeter_profile(body, args.k)
        rep = ode_inequality_check(prof)
        rep.name = f"perimeter-ode[{name}]"
        reports.append(rep)
        writer.writerows((name, repr(float(t)), repr(float(p))) for t, p in zip(prof.ts, prof.ps))
    _write(args.out, buf.getvalue())
    return _emit_reports(args, reports, [])


def cmd_steiner_check(args) -> int:
    bodies = _load_bodies(args)
    reports = []
    for name, body in bodies:
        m = compute_measures(body)
        rep = VerificationReport(name=f"steiner[{name}]")
        h = 1e-6
        worst = 0.0
        for s in (0.05, 0.1, 0.2, 0.4):
            dv = (steiner_volume(m, s + h) - steiner_volume(m, s - h)) / (2 * h)
            bd = steiner_boundary(m, s)
            worst = max(worst, abs(dv - bd) / max(1.0, abs(bd)))
        rep.add(
            description="d/ds volume(outer s) matches boundary(outer s) by finite differences",
            lhs=worst,
            rhs=1e-6,
            residual=1e-6 - worst,
            passed=worst <= 1e-6,
        )
        rep.add(
            description="steiner at s=0 returns (area, perimeter)",
            lhs=abs(steiner_volume(m, 0.0) - m.phi2) + abs(steiner_boundary(m, 0.0) - m.phi1),
            rhs=0.0,
            residual=0.0,
            passed=steiner_volume(m, 0.0) == m.phi2 and steiner_boundary(m, 0.0) == m.phi1,
        )
        rep.extras.update({"phi0": m.phi0, "phi1": m.phi1, "phi2": m.phi2})
        reports.append(rep)
    return _emit_reports(args, reports, [])


def cmd_af_check(args) -> int:
    bodies = _load_bodies(args)
    reports = []
    for name, body in bodies:
        m = compute_measures(body)
        gap = alexandrov_fenchel_gap(m)
        rep = VerificationReport(name=f"alexandrov-fenchel[{name}]")
        rep.add(
            description="curvature gap is nonnegative",
            lhs=gap,
            rhs=-1e-9,
            residual=gap + 1e-9,
            passed=gap >= -1e-9,
        )
        rep.extras["gap"] = gap
        reports.append(rep)
    return _emit_reports(args, reports, [])


def cmd_hyp_witness(args) -> int:
    rep = VerificationReport(name=f"hyperbolic-witness[delta={args.delta}]")
    witness = nonconvexity_witness(args.delta)
    rep.add(
        description="geodesic between cone boundary points leaves the cone",
        lhs=witness.margin,
        rhs=0.0,
        residual=witness.margin,
        passed=witness.margin > 0.0,
    )
    rep.extras["witness"] = witness.to_dict()
    _write(args.json, witness.to_json())
    print(f"margin = {witness.margin!r} at s* = {witness.s_star!r}")
    return EXIT_PASS if rep.overall else EXIT_VERIFICATION_FAILED


def _add_body_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--body-file", help="body file: lines 'pole_x pole_y pole_z rho'")
    p.add_argument("--fixture", help="'octant' or 'cap:R'")
    p.add_argument(
        "--random",
        nargs=2,
        metavar=("SEED", "COUNT"),
        help="corpus of COUNT random bodies starting at SEED",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared by later ones."""
    ap = argparse.ArgumentParser(prog="robinsphere", description=__doc__)
    ap.add_argument("--config", help="JSON config; explicit flags override it")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("ball-eig", help="first Robin eigenvalue of a geodesic ball")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--beta", type=str, required=True, help="float or tan(x)")
    p.add_argument("--out", help="CSV of the boundary-distance profile phi")
    p.set_defaults(func=cmd_ball_eig)

    for cmd, func in (("verify-thm1", cmd_verify_thm1), ("verify-thm2", cmd_verify_thm2)):
        p = sub.add_parser(cmd, help=f"{cmd.replace('-', ' ')} pipeline")
        _add_body_source(p)
        p.add_argument("--betas", default="-1", help="comma list; floats or tan(x)")
        p.add_argument("--k", type=int, default=4096, help="profile grid panels")
        p.add_argument(
            "--fem-level", type=int, default=-1, help="run the FEM oracle at this level"
        )
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--json", help="write the JSON report here")
        p.add_argument("--csv", help="write the CSV tabulation here")
        p.set_defaults(func=func)

    p = sub.add_parser("profile", help="perimeter profile and differential inequality")
    _add_body_source(p)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--out", help="CSV of the profiles: body_id,t,perimeter")
    p.add_argument("--json", help="write the JSON report here")
    p.add_argument("--csv", help="accepted for config compatibility; profile has no CSV rows")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("steiner-check", help="Steiner closure on a body")
    _add_body_source(p)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_steiner_check)

    p = sub.add_parser("af-check", help="curvature-measure gap check")
    _add_body_source(p)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_af_check)

    p = sub.add_parser("hyp-witness", help="hyperbolic non-convexity witness")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--json", help="write the witness JSON here")
    p.set_defaults(func=cmd_hyp_witness)

    return ap


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    return pre


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Expand --config into flags placed before the explicit ones.

    argparse keeps the last occurrence of a repeated flag, so anything typed
    on the command line overrides the config document.
    """
    known, rest = _config_parser().parse_known_args(argv)
    if not known.config:
        return ap.parse_args(argv)
    with open(known.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or not isinstance(cfg.get("command", ""), str):
        raise GeometryError("config must be a JSON object whose 'command', if given, is a string")
    command = cfg.pop("command", None)
    if rest and not rest[0].startswith("-"):
        command = rest[0]
        rest = rest[1:]
    if not command:
        raise GeometryError("config must carry a 'command' field")
    new_argv = [command]
    for key, val in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(val, bool):
            if val:
                new_argv.append(flag)
        elif isinstance(val, (list, tuple)):
            new_argv.append(flag)
            new_argv.extend(str(v) for v in val)
        else:
            new_argv.extend([flag, str(val)])
    new_argv.extend(rest)
    return ap.parse_args(new_argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _apply_config(ap, argv)
        if not getattr(args, "command", None):
            ap.print_help()
            return EXIT_INPUT_ERROR
        return args.func(args)
    except (GeometryError, SolverError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        # an input too large to process, such as a body with hundreds of caps
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
