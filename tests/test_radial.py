import math

import numpy as np
import pytest

from robinsphere import radial
from robinsphere.errors import GeometryError, SolverError
from robinsphere.radial import RobinBallProblem, first_eigenvalue, shoot, u_min_and_l2
from robinsphere.spaceform import ball_volume

# frozen by the dense lambda-scan oracle below (step 1e-3, bisection refine)
LAMBDA_R1_BETA_MINUS1 = -2.3710449187


def test_problem_validation():
    with pytest.raises(GeometryError):
        RobinBallProblem(1, 0.5, 0.0)
    with pytest.raises(GeometryError):
        RobinBallProblem(2, 2.0, 0.0)
    for radius, beta in ((1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (math.nan, -1.0)):
        with pytest.raises(GeometryError):
            RobinBallProblem(2, radius, beta)


def test_shoot_constant_solution_at_zero():
    assert shoot(RobinBallProblem(2, 0.8, 0.0), 0.0) == 0.0


def test_shoot_cosine_family():
    # psi = cos r solves the ODE at lambda = n with beta = tan R
    assert abs(shoot(RobinBallProblem(2, 0.8, math.tan(0.8)), 2.0)) <= 1e-10
    assert abs(shoot(RobinBallProblem(3, 0.5, math.tan(0.5)), 3.0)) <= 1e-10


def test_shoot_negative_beta_at_zero():
    assert shoot(RobinBallProblem(2, 1.0, -1.0), 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_neumann_eigenvalue_zero():
    for n in (2, 3):
        for r in (0.3, 0.7, 1.2, math.pi / 2):
            pair = first_eigenvalue(RobinBallProblem(n, r, 0.0))
            assert pair.lam == 0.0
            assert pair.shoots == 0
            assert np.allclose(pair.psi, 1.0, atol=1e-12)


# r = pi/2 has beta = tan(pi/2) ~ 1.6e16, an effectively Dirichlet hemisphere
# where psi(R) is at the rounding level
@pytest.mark.parametrize(
    "n,r", [(2, 0.4), (2, 0.8), (3, 0.5), (2, math.pi / 2), (3, math.pi / 2)]
)
def test_cosine_family_eigenvalue(n, r):
    pair = first_eigenvalue(RobinBallProblem(n, r, math.tan(r)))
    assert pair.lam == pytest.approx(n, abs=1e-8)
    assert pair.lambda_spectral == pytest.approx(n, abs=1e-9)
    # the eigenfunction is cos r up to the psi(0) = 1 normalization
    assert np.max(np.abs(pair.psi - np.cos(pair.grid))) <= 1e-9


def dense_scan_oracle(problem, lo=-10.0, step=1e-3):
    """Independent root location: scan F for sign changes, refine by bisection."""
    cells = []
    prev_lam, prev_f = lo, shoot(problem, lo, steps=1024)
    lam = lo
    while lam < 0.0:
        lam = min(lam + step, 0.0)
        f = shoot(problem, lam, steps=1024)
        if prev_f * f < 0.0:
            cells.append((prev_lam, lam))
        prev_lam, prev_f = lam, f
    assert cells, "oracle found no sign change"
    a, b = cells[0]
    fa = shoot(problem, a)
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        fm = shoot(problem, mid)
        if fm * fa < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b), len(cells)


def scan_bisect_oracle(problem, steps=4096, tol=1e-10):
    """The former production search: unit steps from lambda = 0 toward the sign
    of beta until the residual changes sign strictly, then bisection to tol."""
    f0 = shoot(problem, 0.0, steps)
    if f0 == 0.0:
        return 0.0
    direction = -1.0 if problem.beta < 0 else 1.0
    lo, flo = 0.0, f0
    k = 0
    while True:
        k += 1
        cand = direction * k
        fc = shoot(problem, cand, steps)
        if fc == 0.0:
            return cand
        if fc * flo < 0.0:
            hi = cand
            break
        lo, flo = cand, fc
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        fm = shoot(problem, mid, steps)
        if fm == 0.0:
            return mid
        if fm * flo < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


ORACLE_GRID = [
    (n, r, beta)
    for n in (2, 3)
    for r in (0.3, 1.0, math.pi / 2)
    for beta in (-5.0, -1.0, -0.5, 0.5, 2.0)
] + [(2, 1.0, -20.0)]


@pytest.mark.parametrize("n,r,beta", ORACLE_GRID)
def test_against_scan_bisect_oracle(n, r, beta):
    problem = RobinBallProblem(n, r, beta)
    pair = first_eigenvalue(problem)
    assert abs(pair.lam - scan_bisect_oracle(problem)) <= 1e-10
    assert pair.shoots <= 10


def test_large_negative_beta_is_cheap():
    # the unit-step scan needed about 1e4 shoots here
    pair = first_eigenvalue(RobinBallProblem(2, 1.0, -100.0))
    assert pair.shoots <= 20
    assert np.min(pair.psi) > 0.0
    # psi(R) is about e^100 here, so the residual is measured against beta psi(R)
    assert abs(pair.boundary_residual) <= 1e-12 * abs(100.0 * pair.psi[-1])


@pytest.mark.parametrize("beta", [-50.0, -100.0])
def test_bracket_grows_where_the_estimate_is_coarse(beta):
    # 32 collocation points under-resolve the boundary layer of width ~1/|beta|
    pair = first_eigenvalue(RobinBallProblem(2, math.pi / 2, beta))
    assert pair.bracket_halfwidth > 1e-9 * (1.0 + abs(pair.lam))
    assert abs(pair.lam - pair.lambda_spectral) <= pair.bracket_halfwidth
    assert np.min(pair.psi) > 0.0
    # -beta^2 is the leading term as beta -> -inf; the next one is
    # proportional to the boundary's mean curvature, 0 on the hemisphere
    assert pair.lam == pytest.approx(-beta * beta, rel=1e-3)


@pytest.mark.parametrize("r", [1.0, 1.5])
def test_saturated_shooting_is_solver_error(r):
    # For |beta| R above about 340 the RK4 solution overflows before the
    # eigenvalue. At R = 1 Brent's method used to converge on the jump of the
    # saturated residual and return -117856 in place of about -160000; at
    # R = 1.5 the estimate lies past that jump and no sign change is found.
    with pytest.raises(SolverError):
        first_eigenvalue(RobinBallProblem(2, r, -400.0))


def test_no_sign_change_is_solver_error(monkeypatch):
    monkeypatch.setattr(radial, "shoot", lambda problem, lam, steps=4096: 1.0)
    with pytest.raises(SolverError):
        first_eigenvalue(RobinBallProblem(2, 1.0, -1.0))


def test_negative_beta_against_dense_scan_oracle():
    problem = RobinBallProblem(2, 1.0, -1.0)
    oracle, n_cells = dense_scan_oracle(problem)
    assert n_cells == 1  # single negative eigenvalue
    pair = first_eigenvalue(problem)
    assert pair.lam == pytest.approx(oracle, abs=1e-8)
    assert pair.lam == pytest.approx(LAMBDA_R1_BETA_MINUS1, abs=1e-8)
    assert pair.lam < 0.0


def test_boundary_residual_invariant():
    for beta in (-5.0, -1.0, -0.5, 0.7, math.tan(0.8)):
        pair = first_eigenvalue(RobinBallProblem(2, 0.8, beta))
        assert abs(pair.boundary_residual) <= 1e-8 * (1.0 + abs(beta))


def test_eigenfunction_positive():
    for beta in (-5.0, -1.0, 2.0):
        pair = first_eigenvalue(RobinBallProblem(2, 1.1, beta))
        assert np.min(pair.psi) > 0.0


def test_monotone_in_beta():
    betas = [-2.0, -1.0, 0.0, 1.0, 2.0]
    lams = [first_eigenvalue(RobinBallProblem(2, 0.8, b)).lam for b in betas]
    for a, b in zip(lams, lams[1:]):
        assert b - a > 1e-8


def test_monotone_in_radius_for_negative_beta():
    radii = [0.3, 0.6, 0.9, 1.2, math.pi / 2]
    lams = [first_eigenvalue(RobinBallProblem(2, r, -1.0)).lam for r in radii]
    for a, b in zip(lams, lams[1:]):
        assert b >= a - 1e-8


def test_grid_convergence_under_step_halving():
    problem = RobinBallProblem(2, 0.9, -1.5)
    lam_coarse = first_eigenvalue(problem, steps=4096).lam
    lam_fine = first_eigenvalue(problem, steps=8192).lam
    assert abs(lam_fine - lam_coarse) < 1e-8


def test_u_min_and_l2_neumann():
    problem = RobinBallProblem(2, 0.8, 0.0)
    pair = first_eigenvalue(problem)
    u_m, l2sq = u_min_and_l2(pair, problem)
    assert u_m == 1.0
    assert l2sq == pytest.approx(ball_volume(0.8), abs=1e-6)


def test_u_min_cosine_family():
    problem = RobinBallProblem(2, 0.8, math.tan(0.8))
    pair = first_eigenvalue(problem)
    u_m, l2sq = u_min_and_l2(pair, problem)
    assert u_m == pytest.approx(math.cos(0.8), abs=1e-9)
    # int cos^2 r 2 pi sin r dr on [0, R] = 2 pi (1 - cos^3 R)/3
    assert l2sq == pytest.approx(2 * math.pi * (1 - math.cos(0.8) ** 3) / 3, abs=1e-6)


def test_u_min_bounds_eigenfunction():
    problem = RobinBallProblem(2, 1.0, -2.0)
    pair = first_eigenvalue(problem)
    u_m, _ = u_min_and_l2(pair, problem)
    assert 0.0 < u_m <= np.min(pair.psi) + 1e-15


def test_phi_is_reversed_psi():
    pair = first_eigenvalue(RobinBallProblem(2, 0.7, -1.0))
    assert np.array_equal(pair.phi, pair.psi[::-1])
    assert pair.rho_grid[0] == 0.0
    assert pair.rho_grid[-1] == pytest.approx(0.7, abs=1e-15)
