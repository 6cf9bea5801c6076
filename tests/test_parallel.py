import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from robinsphere import capbody
from robinsphere.capbody import (
    cap_fixture,
    corpus_bodies,
    corpus_body,
    inner_parallel,
    perimeter,
)
from robinsphere.errors import GeometryError
from robinsphere.parallel import (
    _simpson,
    comparison_solve,
    grid_tolerance,
    ode_inequality_check,
    perimeter_profile,
    profile_ode_rhs,
    thm1_verify,
    thm2_verify,
    transplant_rayleigh,
)
from robinsphere.spaceform import radius_from_perimeter


# --- profiles ---------------------------------------------------------------


def test_profile_rejects_small_K(octant):
    with pytest.raises(GeometryError):
        perimeter_profile(octant, K=16)


def test_profile_ball_exact():
    R = 0.9
    prof = perimeter_profile(cap_fixture(R), K=128)
    exact = 2 * math.pi * np.sin(R - prof.ts)
    assert np.max(np.abs(prof.ps - exact)) <= 1e-12
    assert prof.inradius == pytest.approx(R, abs=1e-12)


def test_profile_octant(octant):
    prof = perimeter_profile(octant, K=256)
    assert prof.ps[0] == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert all(b < a for a, b in zip(prof.ps, prof.ps[1:]))
    assert prof.ps[-1] < 0.05 * prof.ps[0]


# corpus bodies whose K = 512 profiles have more than one piece: an arc of
# their boundary vanishes before the inradius
MULTI_PIECE_SEEDS = (17, 18, 27, 30, 35, 36, 39, 40, 45, 46)


def test_profile_matches_per_t_oracle_at_every_node(octant):
    """The tracked profile against the untracked batched kernel at every node of
    52 bodies, and against one perimeter(inner_parallel(body, t)) per node where
    the profile has several pieces, or is a fixture."""
    bodies = [("octant", octant), ("cap-0.9", cap_fixture(0.9)), *corpus_bodies(50)]
    multi = {corpus_body(seed)[0] for seed in MULTI_PIECE_SEEDS}
    for name, body in bodies:
        prof = perimeter_profile(body, K=512)
        assert (len(prof.piece_starts) > 1) == (name in multi), name
        radii = body.radii[None, :] - prof.ts[:, None]
        batched = capbody._arc_block(body.tables, radii).perimeters
        assert np.max(np.abs(prof.ps - batched)) <= 1e-13, name
        if name in multi or name in ("octant", "cap-0.9"):
            oracle = [perimeter(inner_parallel(body, float(t))) for t in prof.ts]
            assert np.max(np.abs(prof.ps - oracle)) <= 1e-13, name


# --- differential inequality ------------------------------------------------


@pytest.mark.parametrize("R", [0.4, 0.9, 1.4])
def test_ode_equality_on_balls(R):
    prof = perimeter_profile(cap_fixture(R), K=512)
    report = ode_inequality_check(prof)
    assert report.overall
    # equality case: the residual stays within the grid tolerance on BOTH sides
    dt = float(prof.ts[1] - prof.ts[0])
    tol = grid_tolerance(dt)
    lhs = -(prof.ps[1:] - prof.ps[:-1]) / dt
    rhs = np.array([profile_ode_rhs(2, p) for p in 0.5 * (prof.ps[1:] + prof.ps[:-1])])
    assert float(np.max(np.abs(lhs - rhs))) <= tol


def test_ode_check_octant(octant):
    report = ode_inequality_check(perimeter_profile(octant, K=512))
    assert report.overall
    assert report.extras["flagged_cells"] == []


def test_ode_check_equals_per_cell_rhs_loop(octant):
    """The array right-hand side is profile_ode_rhs(2, .) cell by cell, bit for bit."""
    for body in (octant, cap_fixture(1.4), *(b for _, b in corpus_bodies(6))):
        prof = perimeter_profile(body, K=512)
        dt = float(prof.ts[1] - prof.ts[0])
        lhs = -(prof.ps[1:] - prof.ps[:-1]) / dt
        rhs = np.array([profile_ode_rhs(2, float(p)) for p in 0.5 * (prof.ps[1:] + prof.ps[:-1])])
        report = ode_inequality_check(prof)
        assert report.checks[0].lhs == float(np.min(lhs - rhs))
        assert report.extras["max_violation"] == float(-np.min(lhs - rhs))


def test_ode_check_flags_constant_profile():
    # a constant perimeter cannot satisfy the decay inequality
    prof = perimeter_profile(cap_fixture(0.9), K=128)
    prof.ps = np.full_like(prof.ps, 3 * math.pi / 2)
    report = ode_inequality_check(prof)
    assert not report.overall
    assert len(report.extras["flagged_cells"]) > 2


# --- comparison lemma -------------------------------------------------------


def test_comparison_identical_samples():
    ts = np.linspace(0.0, 1.0, 129)
    fs = np.cos(ts)
    gs, report = comparison_solve(ts, fs, lambda x: -math.sin(math.acos(max(-1, min(1, x)))), fs[0])
    assert report.overall


def test_comparison_exponential_closed_form():
    ts = np.linspace(0.0, 1.0, 257)
    fs = np.exp(-ts) - 0.1
    gs, report = comparison_solve(ts, fs, lambda x: -x, 1.0)
    assert report.overall
    assert np.max(np.abs(gs - np.exp(-ts))) <= 1e-8
    assert report.checks[0].lhs <= 1e-8  # max of f - g


def test_comparison_octant_profile_reproduces_ball(octant):
    prof = perimeter_profile(octant, K=512)
    P = perimeter(octant)
    R = radius_from_perimeter(2, P)

    def field(x):
        return -profile_ode_rhs(2, x)

    gs, report = comparison_solve(prof.ts, prof.ps, field, P)
    assert report.overall  # P(body_t) <= P(ball_t): the level-set comparison
    exact = 2 * math.pi * np.sin(R - prof.ts)
    assert np.max(np.abs(gs - exact)) <= 1e-8


def test_comparison_rejects_bad_initial_value():
    ts = np.linspace(0.0, 1.0, 65)
    fs = np.ones_like(ts)
    with pytest.raises(GeometryError):
        comparison_solve(ts, fs, lambda x: -x, 0.5)


# --- transplanted quotient ---------------------------------------------------


def test_transplant_ball_equality():
    body = cap_fixture(0.85)
    res = transplant_rayleigh(body, -1.0, perimeter_profile(body, 4096))
    assert res.rq == pytest.approx(res.lambda_ball, abs=1e-6)
    assert res.boundary_term_body == pytest.approx(res.boundary_term_ball, abs=1e-9)


def test_transplant_octant_upper_bound(octant):
    res = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 2048))
    assert res.rq <= res.lambda_ball + 1e-6
    assert res.rq < res.lambda_ball - 0.1  # strict gap for a genuinely non-ball body


def test_transplant_quotient_dominates_fem_estimate(octant):
    # rq is an admissible Rayleigh quotient, so it sits above the body's
    # eigenvalue; the FEM value approximates that eigenvalue from nearby
    from robinsphere.fem import calibrated_ball_error, solve_body

    res = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 2048))
    fem = solve_body(octant, -1.0, 3)
    tol = 2 * calibrated_ball_error(3) * abs(fem.lambda_h)
    assert res.rq >= fem.lambda_h - tol


def test_transplant_grid_refinement_stability(octant):
    r1 = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 2048))
    r2 = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 4096))
    assert abs(r2.rq - r1.rq) / abs(r1.rq) < 1e-6


@pytest.mark.parametrize("K", [64, 65, 512, 4095, 4096])
def test_simpson_equals_scipy_bit_for_bit(K):
    """K panels: odd K gives an even node count, which scipy closes with
    Cartwright's last-panel correction."""
    rng = np.random.default_rng(K)
    grids = [
        np.linspace(0.0, 1.3, K + 1),
        np.cumsum(rng.uniform(0.01, 1.0, K + 1)),
        perimeter_profile(corpus_body(30)[1], K).ts,
    ]
    for x in grids:
        for y in (rng.standard_normal(K + 1), np.cos(x) ** 2 * x, 1e3 * np.exp(-5.0 * x)):
            assert _simpson(y, x) == float(simpson(y, x=x))


# --- theorem pipelines -------------------------------------------------------


def test_thm1_requires_negative_beta(octant):
    # the pipeline starts at the transplant, where beta enters
    with pytest.raises(GeometryError):
        transplant_rayleigh(octant, 0.5, perimeter_profile(octant, 64))


def test_thm1_ball_equalities():
    body = cap_fixture(0.85)
    report = thm1_verify(transplant_rayleigh(body, -1.0, perimeter_profile(body, 4096)))
    assert report.overall
    assert report.extras["equality_case"]
    assert all(c.equality for c in report.checks)


def test_thm1_ball_equality_rigidity_tight():
    # finer profile grid drives every residual below 1e-8
    body = cap_fixture(0.8)
    res = transplant_rayleigh(body, -1.0, perimeter_profile(body, 32768))
    report = thm1_verify(res)
    assert report.overall
    for check in report.checks:
        assert abs(check.lhs - check.rhs) <= 1e-8


@pytest.mark.parametrize("beta", [-0.5, -1.0, -5.0])
def test_thm1_octant(octant, beta):
    report = thm1_verify(transplant_rayleigh(octant, beta, perimeter_profile(octant, 2048)))
    assert report.overall
    assert not report.extras["equality_case"]
    # how lambda_ball was found: the number of series terms (the largest
    # term sits near |lambda|^(1/2) tan(R/2) < 3 on the octant's ball), and
    # the rounding bound of the sums plus the last Newton step
    extras = report.extras
    assert 16 <= extras["lambda_ball_terms"] <= 40
    assert extras["lambda_ball_error_estimate"] <= 1e-13 * (1.0 + abs(extras["lambda_ball"]))
    removed = {"lambda_ball_shoots", "lambda_ball_spectral", "lambda_ball_discretization_gap",
               "lambda_ball_basis_size"}
    assert not removed & set(extras)
    again = thm1_verify(transplant_rayleigh(octant, beta, perimeter_profile(octant, 2048)))
    assert again.to_json() == report.to_json()


def test_thm1_records_profile_piece_starts(octant):
    """The first t of each profile piece: 0 alone for the octant, where no arc
    vanishes before the inradius; one more start per arc event on body 30."""
    octant_res = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 512))
    assert thm1_verify(octant_res).extras["profile_piece_starts"] == [0.0]
    body = corpus_body(30)[1]
    prof = perimeter_profile(body, K=512)
    res = transplant_rayleigh(body, -1.0, perimeter_profile(body, 512))
    starts = thm1_verify(res).extras["profile_piece_starts"]
    assert starts == prof.piece_starts and len(starts) == 3 and starts[0] == 0.0
    assert set(starts) <= set(prof.ts.tolist())


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_gradient_check_strictness_is_scale_free(octant, scale):
    # the gradient terms scale with the square of psi's normalisation; a body
    # term 1e-9 above the ball's must fail at every scale
    beta = -5.0
    res = transplant_rayleigh(octant, beta, perimeter_profile(octant, 512))

    def gradient_check(excess):
        moved = dataclasses.replace(
            res,
            gradient_ball=scale * res.gradient_ball,
            gradient_body=scale * res.gradient_ball * (1.0 + excess),
        )
        return thm1_verify(moved).checks[3]

    equal = gradient_check(0.0)
    assert equal.passed and equal.equality
    assert not gradient_check(1e-9).passed


def test_thm2_ball_reduces_to_thm1():
    body = cap_fixture(0.85)
    res = transplant_rayleigh(body, -1.0, perimeter_profile(body, 4096))
    report = thm2_verify(res)
    assert report.overall
    assert report.extras["c_dV"] == pytest.approx(0.0, abs=1e-9)


def test_thm2_octant_margin(octant):
    res = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 2048))
    report = thm2_verify(res)
    assert report.overall
    assert report.extras["c_dV"] > 0.1
    assert 0.0 <= report.extras["c_dV"] < 1.0


def test_thm2_fem_cross_check(octant):
    from robinsphere.fem import solve_body

    res = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 2048))
    fem = solve_body(octant, -1.0, 3)
    report = thm2_verify(res, fem=fem)
    assert report.overall
    assert report.extras["fem_ratio"] >= report.extras["c_dV"] - 2 * 0.02


def test_thm2_records_fem_work(octant):
    from robinsphere.fem import solve_body

    res = transplant_rayleigh(octant, -1.0, perimeter_profile(octant, 1024))
    fem = solve_body(octant, -1.0, 4)
    extras = thm2_verify(res, fem=fem).extras
    # levels 2 and 4 are factored at least once each; no wall-clock time
    assert extras["fem_factorisations"] == fem.factorisations >= 2
    assert extras["fem_iterations"] == fem.iterations >= 2
    assert extras["fem_shift"] == fem.shift
    assert not any("time" in key or key.endswith("_s") for key in extras)


def test_profile_domination_on_corpus(small_corpus):
    for name, body in small_corpus:
        res = transplant_rayleigh(body, -1.0, perimeter_profile(body, 1024))
        report = thm1_verify(res)
        assert report.overall, f"{name}: {[c.description for c in report.checks if not c.passed]}"
