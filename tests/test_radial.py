import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import jv

from robinsphere import radial
from robinsphere.cli import main
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


def radii(pair, count=1001):
    """Evaluation points over the whole ball radius, ends included."""
    return np.linspace(0.0, pair.radius, count)


def layer_radii(pair, beta, count=1001):
    """Radii of the boundary layer R - 10 / |beta| <= r <= R of a negative beta.

    There psi ~ e^(beta (R - r)) psi(R) is at least about e^-10 = 4.5e-5 of
    psi(R), far above the noise of the Galerkin eigenvector (up to 6e-10 of
    psi(R) at R = 1, beta = -100). Further in, the exact psi falls below that
    noise, and only the solver's own sign check applies.
    """
    return np.linspace(max(pair.radius - 10.0 / abs(beta), 0.0), pair.radius, count)


def riccati_residual(problem, lam, steps=4096):
    """w(R) + beta for w = psi'/psi, by RK4 on w' = -lambda - w^2 - (n-1) cot(r) w.

    Below the Dirichlet eigenvalue psi has no zero on [0, R], so w stays
    bounded where psi itself overflows: w approaches sqrt(-lambda) in the
    boundary layer of a large negative beta.
    """
    n, R = problem.dim, problem.radius
    r0 = 1e-6
    h = (R - r0) / steps
    rs = r0 + h * np.arange(steps + 1)
    c_full = ((n - 1) / np.tan(rs)).tolist()
    c_half = ((n - 1) / np.tan(rs[:-1] + 0.5 * h)).tolist()
    w = -lam * r0 / n
    for i in range(steps):
        c0, ch, c1 = c_full[i], c_half[i], c_full[i + 1]
        k1 = -lam - w * (w + c0)
        w2 = w + 0.5 * h * k1
        k2 = -lam - w2 * (w2 + ch)
        w3 = w + 0.5 * h * k2
        k3 = -lam - w3 * (w3 + ch)
        w4 = w + h * k3
        k4 = -lam - w4 * (w4 + c1)
        w += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return w + problem.beta


def test_neumann_eigenvalue_zero():
    for n in (2, 3):
        for r in (0.3, 0.7, 1.2, math.pi / 2):
            pair = first_eigenvalue(RobinBallProblem(n, r, 0.0))
            assert pair.lam == 0.0
            assert pair.basis_size == 1
            assert pair.error_estimate == 0.0
            assert np.all(pair.psi(radii(pair)) == 1.0)
            assert np.all(pair.dpsi(radii(pair)) == 0.0)


# r = pi/2 has beta = tan(pi/2) ~ 1.6e16, an effectively Dirichlet hemisphere
# where psi(R) is at the rounding level
@pytest.mark.parametrize(
    "n,r", [(2, 0.4), (2, 0.8), (3, 0.5), (2, math.pi / 2), (3, math.pi / 2)]
)
def test_cosine_family_eigenvalue(n, r):
    pair = first_eigenvalue(RobinBallProblem(n, r, math.tan(r)))
    assert pair.lam == pytest.approx(n, abs=1e-12)
    assert pair.error_estimate <= 1e-12 * (1.0 + n)
    # the eigenfunction is cos r: beta > 0, so psi(0) = 1 is its larger end
    rs = radii(pair)
    assert np.max(np.abs(pair.psi(rs) - np.cos(rs))) <= 1e-12
    assert np.max(np.abs(pair.dpsi(rs) + np.sin(rs))) <= 1e-10


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
    assert pair.basis_size <= 32
    assert pair.error_estimate <= 1e-11 * (1.0 + abs(pair.lam))


def test_large_negative_beta_is_cheap():
    # the unit-step scan needed about 1e4 shoots here
    problem = RobinBallProblem(2, 1.0, -100.0)
    pair = first_eigenvalue(problem)
    assert pair.basis_size <= 64
    assert pair.error_estimate <= 1e-11 * abs(pair.lam)
    assert pair.psi(1.0) == pytest.approx(1.0, abs=1e-14)
    # psi(0) is about e^-100, so the Robin condition at lambda is checked by
    # the Riccati form, relative to beta
    assert abs(riccati_residual(problem, pair.lam)) <= 1e-12 * 100.0
    assert np.min(pair.psi(layer_radii(pair, -100.0))) > 0.0


@pytest.mark.parametrize("beta", [-50.0, -100.0])
def test_basis_grows_with_boundary_layer(beta):
    # the boundary layer of width 1/|beta| needs more Legendre modes
    pair = first_eigenvalue(RobinBallProblem(2, math.pi / 2, beta))
    assert pair.basis_size > first_eigenvalue(RobinBallProblem(2, math.pi / 2, -1.0)).basis_size
    assert pair.error_estimate <= 1e-11 * abs(pair.lam)
    assert np.min(pair.psi(layer_radii(pair, beta))) > 0.0
    # -beta^2 is the leading term as beta -> -inf; the next one is
    # proportional to the boundary's mean curvature, 0 on the hemisphere
    assert pair.lam == pytest.approx(-beta * beta, rel=1e-3)


@pytest.mark.parametrize(
    "r,beta,expected",
    [
        # psi overflows RK4 shooting before these eigenvalues (|beta| R above about 340)
        (1.0, -400.0, -160257.5437565),
        (math.pi / 2, -300.0, -90000.500001),
    ],
)
def test_large_negative_beta_against_riccati_oracle(r, beta, expected):
    problem = RobinBallProblem(2, r, beta)
    pair = first_eigenvalue(problem)
    assert pair.lam == pytest.approx(expected, rel=1e-11)
    d = 1e-6 * abs(pair.lam)
    root = brentq(lambda lam: riccati_residual(problem, lam), pair.lam - d, pair.lam + d,
                  xtol=1e-14 * abs(pair.lam))
    assert abs(root - pair.lam) <= 1e-10 * abs(pair.lam)
    assert abs(root - pair.lam) <= 10.0 * pair.error_estimate


def test_sign_check_admits_the_noise_of_a_steep_layer():
    # for n = 3 psi(0) ~ e^-400 lies below the eigenvector's accuracy and
    # comes out about -6e-7 of psi(R); the solver's sign check admits it
    # through the change of psi's coefficients between the last two sizes.
    # Near the root the residual is about beta dlambda / (2 lambda).
    problem = RobinBallProblem(3, 1.0, -400.0)
    pair = first_eigenvalue(problem)
    assert abs(riccati_residual(problem, pair.lam)) <= 400.0 * pair.error_estimate / abs(pair.lam)
    assert np.min(pair.psi(layer_radii(pair, -400.0))) > 0.0


def test_past_basis_cap_is_solver_error():
    start = time.perf_counter()
    with pytest.raises(SolverError, match="basis functions"):
        first_eigenvalue(RobinBallProblem(2, 1.0, -1e6))
    assert time.perf_counter() - start < 1.0


def test_sign_changing_eigenfunction_is_solver_error(monkeypatch):
    galerkin = radial._galerkin

    def lowered(problem, size):
        # psi - 0.8 psi(R) changes sign: psi(0) is 0.58 psi(R) here
        lam, rounding, coef = galerkin(problem, size)
        coef = coef.copy()
        coef[0] -= 0.8 * coef.sum()
        return lam, rounding, coef

    monkeypatch.setattr(radial, "_galerkin", lowered)
    with pytest.raises(SolverError, match="changes sign"):
        first_eigenvalue(RobinBallProblem(2, 1.0, -1.0))


def test_unresolved_rounding_is_solver_error(monkeypatch):
    # an ill-conditioned pencil inflates the rounding level, and with it the
    # agreement test's allowance: a quotient at that level is not accepted
    galerkin = radial._galerkin

    def inflated(problem, size):
        lam, rounding, coef = galerkin(problem, size)
        return lam, 2e-8 * abs(lam), coef

    monkeypatch.setattr(radial, "_galerkin", inflated)
    with pytest.raises(SolverError, match="not resolved"):
        first_eigenvalue(RobinBallProblem(2, 1.0, -5.0))


def scipy_extreme_vector(definite, other, lowest):
    """The former production solve: scipy's subset eigh of the pencil."""
    k = 0 if lowest else len(definite) - 1
    return eigh(other, definite, subset_by_index=[k, k])[1][:, 0]


@pytest.mark.parametrize("n", [2, 3])
def test_pencil_solve_matches_scipy_oracle(n, monkeypatch):
    betas = [-600.0, -300.0, -100.0, -30.0, -10.0, -3.0, -1.0, -0.3, -0.1, 0.1, 0.3, 1.0, 3.0,
             10.0, 100.0, 1e3, 1e4, 1e6, 1e8]
    for r in np.linspace(0.1, math.pi / 2, 9):
        for beta in betas + [math.tan(r)]:
            problem = RobinBallProblem(n, float(r), beta)
            pair = first_eigenvalue(problem)
            with monkeypatch.context() as m:
                m.setattr(radial, "_extreme_vector", scipy_extreme_vector)
                oracle = first_eigenvalue(problem)
            assert pair.basis_size == oracle.basis_size
            assert abs(pair.lam - oracle.lam) <= 1e-12 * (1.0 + abs(oracle.lam))


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("r", [1e-6, 1e-3])
@pytest.mark.parametrize("beta", [1e12, 1.6e16])
def test_near_dirichlet_small_ball_is_right_or_solver_error(n, r, beta):
    # the Robin eigenvalue approaches the Dirichlet one, j_(n/2-1,1)^2 / R^2
    # up to O(R^2) and O(1 / (beta R)); scipy's subset solve returned values
    # far above it with exit 0
    nu = n / 2 - 1
    j = brentq(lambda x: jv(nu, x), nu + 1.0, nu + 4.0)
    try:
        lam = first_eigenvalue(RobinBallProblem(n, r, beta)).lam
    except SolverError as exc:
        assert f"n = {n}, R = {r!r}, beta = {beta!r}" in str(exc)
        return
    assert lam == pytest.approx((j / r) ** 2, rel=1e-4)


def test_error_estimate_bounds_larger_bases():
    for n, r, beta in ((2, 1.0, -1.0), (3, 0.5, -5.0), (2, math.pi / 2, -20.0), (2, 0.7, 2.0)):
        problem = RobinBallProblem(n, r, beta)
        pair = first_eigenvalue(problem)
        for extra in (8, 32):
            lam, _, _ = radial._galerkin(problem, pair.basis_size + extra)
            assert abs(lam - pair.lam) <= pair.error_estimate + 1e-13 * (1.0 + abs(lam))


def test_negative_beta_against_dense_scan_oracle():
    problem = RobinBallProblem(2, 1.0, -1.0)
    oracle, n_cells = dense_scan_oracle(problem, step=1e-2)
    assert n_cells == 1  # single negative eigenvalue
    pair = first_eigenvalue(problem)
    assert pair.lam == pytest.approx(oracle, abs=1e-8)
    assert pair.lam == pytest.approx(LAMBDA_R1_BETA_MINUS1, abs=1e-8)
    assert pair.lam < 0.0


def test_boundary_residual_invariant():
    # the Robin condition is natural in the weak form: it holds to truncation
    for beta in (-5.0, -1.0, -0.5, 0.7, math.tan(0.8)):
        pair = first_eigenvalue(RobinBallProblem(2, 0.8, beta))
        assert abs(pair.dpsi(0.8) + beta * pair.psi(0.8)) <= 1e-8 * (1.0 + abs(beta))


def test_eigenfunction_positive():
    for beta in (-5.0, -1.0, 2.0):
        pair = first_eigenvalue(RobinBallProblem(2, 1.1, beta))
        assert np.min(pair.psi(radii(pair))) > 0.0


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
    # the shooting oracle converges to the Galerkin eigenvalue as its step halves
    problem = RobinBallProblem(2, 0.9, -1.5)
    lam = first_eigenvalue(problem).lam
    coarse = scan_bisect_oracle(problem, steps=2048, tol=1e-12)
    fine = scan_bisect_oracle(problem, steps=4096, tol=1e-12)
    assert abs(fine - lam) <= abs(coarse - lam) + 1e-12
    assert abs(fine - lam) <= 1e-10


def test_u_min_and_l2_neumann():
    problem = RobinBallProblem(2, 0.8, 0.0)
    pair = first_eigenvalue(problem)
    u_m, l2sq = u_min_and_l2(pair, problem)
    assert u_m == 1.0
    assert l2sq == pytest.approx(ball_volume(0.8), rel=1e-14)


def test_u_min_cosine_family():
    problem = RobinBallProblem(2, 0.8, math.tan(0.8))
    pair = first_eigenvalue(problem)
    u_m, l2sq = u_min_and_l2(pair, problem)
    assert u_m == pytest.approx(math.cos(0.8), abs=1e-12)
    # int cos^2 r 2 pi sin r dr on [0, R] = 2 pi (1 - cos^3 R)/3
    assert l2sq == pytest.approx(2 * math.pi * (1 - math.cos(0.8) ** 3) / 3, rel=1e-12)


def test_u_min_bounds_eigenfunction():
    problem = RobinBallProblem(2, 1.0, -2.0)
    pair = first_eigenvalue(problem)
    u_m, _ = u_min_and_l2(pair, problem)
    # beta < 0: psi increases to psi(R) = 1, so its minimum is psi(0)
    assert u_m == pytest.approx(pair.psi(0.0), rel=1e-14)
    assert 0.0 < u_m <= np.min(pair.psi(radii(pair))) + 1e-15


def test_phi_is_reversed_psi(tmp_path):
    # ball-eig --out writes phi(rho) = psi(R - rho) on 4097 equal steps of rho
    out = tmp_path / "phi.csv"
    assert main(["ball-eig", "--r", "0.7", "--beta", "-1", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    pair = first_eigenvalue(RobinBallProblem(2, 0.7, -1.0))
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 0.7, 4097))
    assert np.array_equal(rows[:, 1], pair.psi(0.7 - rows[:, 0]))
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-14)
