"""Acceptance suite: every criterion at its stated tolerance.

Runs the full 50-body corpus; expensive artifacts (profiles, transplants,
finite element solves) are shared through module-scoped fixtures. Each
criterion prints one PASS/FAIL line (visible with pytest -s).
"""

import math

import numpy as np
import pytest

from robinsphere.capbody import (
    cap_fixture,
    corpus_bodies,
    distance_to_body_many,
    hemisphere_witness,
    octant_fixture,
    perimeter,
)
from robinsphere.curvature import alexandrov_fenchel_gap, compute_measures, steiner_volume
from robinsphere.fem import calibrated_ball_error, solve_body
from robinsphere.halfspace import (
    cone_contains,
    cylinder_contains,
    geodesic_point,
    hyp_distance,
    nonconvexity_witness,
    point,
)
from robinsphere.parallel import (
    comparison_solve,
    grid_tolerance,
    perimeter_profile,
    profile_ode_rhs,
    thm1_verify,
    thm2_verify,
    transplant_rayleigh,
)
from robinsphere.radial import RobinBallProblem, first_eigenvalue
from robinsphere.spaceform import radius_from_perimeter

BETAS = (-0.5, -1.0, -5.0)
PROFILE_K = 4096
FEM_LEVEL = 3
BALL_GAP_TOL = 1e-9  # curvature-gap threshold certifying "this body is a ball"


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def corpus():
    bodies = [("octant", octant_fixture())]
    bodies += corpus_bodies(50)
    return bodies


@pytest.fixture(scope="module")
def transplants(corpus):
    """TransplantResult per (body, beta), sharing one profile per body."""
    out = {}
    for name, body in corpus:
        hemisphere_witness(body)
        profile = perimeter_profile(body, PROFILE_K)
        for beta in BETAS:
            out[(name, beta)] = transplant_rayleigh(body, beta, profile=profile)
    return out


@pytest.fixture(scope="module")
def fem_lambdas(corpus):
    return {
        name: solve_body(body, -1.0, FEM_LEVEL).lambda_h for name, body in corpus
    }


def test_criterion_1_neumann_zero():
    ok = True
    for n in (2, 3):
        for r in (0.3, 0.7, 1.2, math.pi / 2):
            lam = first_eigenvalue(RobinBallProblem(n, r, 0.0)).lam
            ok = ok and abs(lam) <= 1e-10
    _verdict(1, "Neumann eigenvalue 0 within 1e-10 on the (n, R) grid", ok)


def test_criterion_2_cosine_family():
    ok = True
    for n, r in ((2, 0.4), (2, 0.8), (3, 0.5)):
        lam = first_eigenvalue(RobinBallProblem(n, r, math.tan(r))).lam
        ok = ok and abs(lam - n) <= 1e-8
    _verdict(2, "beta = tan R gives lambda = n within 1e-8", ok)


def test_criterion_3_monotonicities():
    betas = [-2.0, -1.0, 0.0, 1.0, 2.0]
    lams_beta = [first_eigenvalue(RobinBallProblem(2, 0.8, b)).lam for b in betas]
    ok = all(b - a > 1e-8 for a, b in zip(lams_beta, lams_beta[1:]))
    radii = [0.3, 0.6, 0.9, 1.2, math.pi / 2]
    lams_r = [first_eigenvalue(RobinBallProblem(2, r, -1.0)).lam for r in radii]
    ok = ok and all(b - a > 1e-8 for a, b in zip(lams_r, lams_r[1:]))
    _verdict(3, "lambda strictly increasing in beta and in ball inclusion", ok)


def test_criterion_4_ode_equality_on_balls():
    ok = True
    for R in (0.4, 0.9, 1.4):
        prof = perimeter_profile(cap_fixture(R), K=512)
        dt = float(prof.ts[1] - prof.ts[0])
        lhs = -(prof.ps[1:] - prof.ps[:-1]) / dt
        rhs = np.array([profile_ode_rhs(2, p) for p in 0.5 * (prof.ps[1:] + prof.ps[:-1])])
        ok = ok and float(np.max(np.abs(lhs - rhs))) <= grid_tolerance(dt)
    _verdict(4, "ball profiles satisfy the perimeter ODE with equality (tol_grid)", ok)


def test_criterion_5_thm1_pipeline(corpus, transplants):
    ok = True
    for name, body in corpus:
        is_ball = alexandrov_fenchel_gap(compute_measures(body)) <= BALL_GAP_TOL
        for beta in BETAS:
            res = transplants[(name, beta)]
            report = thm1_verify(res)
            ok = ok and report.overall
            ok = ok and (res.rq <= res.lambda_ball + 1e-6)
            # rigidity: equality flags fire exactly for ball-shaped bodies
            ok = ok and (report.extras["equality_case"] == is_ball)
    _verdict(5, "four-check comparison pipeline on octant + 50 bodies x 3 betas", ok)


def test_criterion_6_profile_domination(corpus, transplants):
    ok = True
    for name, body in corpus:
        res = transplants[(name, BETAS[0])]
        prof = res.profile
        dt = float(prof.ts[1] - prof.ts[0])
        ball_ps = 2 * math.pi * np.sin(res.ball_radius - prof.ts)
        ok = ok and bool(np.all(prof.ps <= ball_ps + grid_tolerance(dt)))
    _verdict(6, "P(body_t) <= P(ball_t) + tol_grid at every node, whole corpus", ok)


def test_criterion_7_steiner_monte_carlo(corpus):
    bodies = [("ball-0.8", cap_fixture(0.8)), corpus[0]] + corpus[1:6]
    ok = True
    for i, (name, body) in enumerate(bodies):
        m = compute_measures(body)
        rng = np.random.default_rng(987_000 + i)
        pts = rng.standard_normal((1_000_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        d = distance_to_body_many(body, pts)
        for s in (0.05, 0.1, 0.2):
            p_hat = float(np.mean(d <= s))
            est = 4 * math.pi * p_hat
            se = 4 * math.pi * math.sqrt(p_hat * (1 - p_hat) / len(pts))
            ok = ok and abs(est - steiner_volume(m, s)) <= 3 * se
    _verdict(7, "Steiner outer-parallel volumes match Monte Carlo within 3 SE", ok)


def test_criterion_8_alexandrov_fenchel(corpus):
    ok = True
    for name, body in corpus:
        gap = alexandrov_fenchel_gap(compute_measures(body))
        ok = ok and gap >= -1e-9
    for R in (0.3, 0.8, 1.2, math.pi / 2):
        gap = alexandrov_fenchel_gap(compute_measures(cap_fixture(R)))
        ok = ok and abs(gap) <= 1e-9
    octant_gap = alexandrov_fenchel_gap(compute_measures(octant_fixture()))
    ok = ok and abs(octant_gap - 0.125) <= 1e-9
    _verdict(8, "curvature gap >= 0 on corpus, 0 for balls, 1/8 for the octant", ok)


def test_criterion_9_fem_oracle(corpus, transplants, fem_lambdas):
    pair = first_eigenvalue(RobinBallProblem(2, 1.0, -1.0))
    errs = [
        abs(solve_body(cap_fixture(1.0), -1.0, lev).lambda_h - pair.lam) / abs(pair.lam)
        for lev in (2, 3, 4)
    ]
    ok = errs[0] > errs[1] > errs[2] and errs[2] <= 0.02
    ok = ok and abs(solve_body(cap_fixture(1.0), 0.0, 2).lambda_h) <= 1e-10
    e_level = calibrated_ball_error(FEM_LEVEL)
    for name, body in corpus:
        lam_h = fem_lambdas[name]
        rq = transplants[(name, -1.0)].rq
        ok = ok and (lam_h - 2.0 * e_level * abs(lam_h) <= rq)
    _verdict(9, "FEM: 2% ball accuracy, exact Neumann zero, corpus sandwich", ok)


def test_criterion_10_thm2_quantitative(corpus, transplants):
    ok = True
    for name, body in corpus:
        for beta in BETAS:
            res = transplants[(name, beta)]
            report = thm2_verify(res)
            ok = ok and report.overall
            cdv = report.extras["c_dV"]
            ok = ok and -1e-12 <= cdv < 1.0  # exact balls carry roundoff-scale dV
            ok = ok and res.rq <= res.lambda_ball / (1.0 - cdv) + 1e-6
    # octant stability ratio against the finer FEM estimate
    octant = corpus[0][1]
    fem = solve_body(octant, -1.0, 4)
    e4 = calibrated_ball_error(4)
    res = transplants[("octant", -1.0)]
    report = thm2_verify(res, fem=fem)
    ratio = report.extras["fem_ratio"]
    ok = ok and ratio >= report.extras["c_dV"] - 2 * e4
    _verdict(10, "quantitative stability bound on corpus + octant FEM ratio", ok)


def test_criterion_11_hyperbolic_witness():
    ok = True
    for delta in (0.05, 0.1, 0.5):
        w = nonconvexity_witness(delta)
        ok = ok and w.margin > 0.0
        ok = ok and cone_contains(delta, w.p) and cone_contains(delta, w.q)
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(1000):
        p = point(rng.uniform(-1, 1), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        q = point(rng.uniform(-1, 1), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        if hyp_distance(p, q) < 1e-9:
            continue
        for s in np.linspace(0.0, 1.0, 11):
            if not cylinder_contains(geodesic_point(p, q, float(s))):
                violations += 1
    ok = ok and violations == 0
    _verdict(11, "non-convexity witness margins > 0; cylinder convexity sampled clean", ok)


def test_criterion_12_comparison_lemma():
    ok = True
    # identical samples
    ts = np.linspace(0.0, 1.0, 129)
    fs = np.exp(-ts)
    gs, rep = comparison_solve(ts, fs, lambda x: -x, 1.0)
    ok = ok and rep.overall and float(np.max(np.abs(fs - gs))) <= 1e-8
    # strict subsolution against the closed form
    fs2 = np.exp(-ts) - 0.1
    gs2, rep2 = comparison_solve(ts, fs2, lambda x: -x, 1.0)
    ok = ok and rep2.overall and float(np.max(np.abs(gs2 - np.exp(-ts)))) <= 1e-8
    # octant profile against the equal-perimeter ball profile
    octant = octant_fixture()
    prof = perimeter_profile(octant, K=512)
    P = perimeter(octant)
    R = radius_from_perimeter(2, P)
    gs3, rep3 = comparison_solve(prof.ts, prof.ps, lambda x: -profile_ode_rhs(2, x), P)
    ok = ok and rep3.overall
    ok = ok and float(np.max(np.abs(gs3 - 2 * math.pi * np.sin(R - prof.ts)))) <= 1e-8
    _verdict(12, "comparison integrator: identity, exponential, octant-vs-ball", ok)
