import math
import time

import galerkin_oracle
import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from robinsphere import radial
from robinsphere.cli import main
from robinsphere.errors import GeometryError, SolverError
from robinsphere.radial import RobinBallProblem, first_eigenvalue, shoot, u_min_and_l2
from robinsphere.spaceform import ball_volume

# frozen by the dense lambda-scan oracle below (step 1e-3, bisection refine)
LAMBDA_R1_BETA_MINUS1 = -2.3710449187


def mp_psi_and_dpsi(n, r, lam):
    """psi = 2F1(a, b; n/2; sin^2(r/2)) and psi' at the current mpmath precision,
    with a + b = n - 1 and ab = -lambda; d/dz 2F1 = (ab / c) 2F1(a + 1, b + 1; c + 1)."""
    disc = mp.sqrt(mp.mpc((n - 1) ** 2 + 4 * lam))
    a, b, c = ((n - 1) + disc) / 2, ((n - 1) - disc) / 2, mp.mpf(n) / 2
    r = mp.mpf(r)
    z = mp.sin(r / 2) ** 2
    value = mp.hyp2f1(a, b, c, z)
    slope = mp.sin(r) / 2 * a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
    return mp.re(value), mp.re(slope)


def mpmath_root(n, R, beta, guess):
    """30-digit lambda: the root of psi'/psi (R) + beta (beta <= 0) or of
    psi(R) + psi'(R) / beta (beta > 0), found by secant from the float guess."""
    with mp.workdps(30):
        beta_mp = mp.mpf(beta)

        def residual(lam):
            value, slope = mp_psi_and_dpsi(n, R, lam)
            return value + slope / beta_mp if beta > 0 else slope / value + beta_mp

        g = mp.mpf(guess)
        d = abs(g) * mp.mpf("1e-9") + mp.mpf("1e-12")
        return mp.findroot(residual, (g - d, g + d), solver="secant")


def mpmath_u_min(n, R, lam):
    """min(psi(0), psi(R)) / max(|psi(0)|, |psi(R)|) at the 30-digit root lambda."""
    with mp.workdps(30):
        end = mp_psi_and_dpsi(n, R, lam)[0]
        return float(min(end, 1) / max(abs(end), 1))


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
            # at lambda = 0 every term past t_0 vanishes
            assert pair.coef[0] == 1.0 and not np.any(pair.coef[1:])
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
    # the largest term sits near |lambda|^(1/2) tan(R/2); the tail adds a few dozen
    assert pair.terms <= 70
    assert pair.error_estimate <= 1e-11 * (1.0 + abs(pair.lam))


def test_large_negative_beta_is_cheap():
    # the unit-step scan needed about 1e4 shoots here
    problem = RobinBallProblem(2, 1.0, -100.0)
    pair = first_eigenvalue(problem)
    assert pair.terms <= 3 * 100.0 * math.tan(0.5)
    assert pair.error_estimate <= 1e-11 * abs(pair.lam)
    assert pair.psi(1.0) == pytest.approx(1.0, abs=1e-14)
    # psi(0) is about e^-100, so the Robin condition at lambda is checked by
    # the Riccati form, relative to beta
    assert abs(riccati_residual(problem, pair.lam)) <= 1e-12 * 100.0
    assert np.min(pair.psi(radii(pair))) > 0.0


@pytest.mark.parametrize("beta", [-50.0, -100.0])
def test_basis_grows_with_boundary_layer(beta):
    # the boundary layer of width 1/|beta| needs more series terms: the
    # largest one sits near |beta| tan(R/2) = |beta| on the hemisphere
    pair = first_eigenvalue(RobinBallProblem(2, math.pi / 2, beta))
    assert pair.terms > first_eigenvalue(RobinBallProblem(2, math.pi / 2, -1.0)).terms
    assert abs(beta) < pair.terms < 3 * abs(beta)
    assert pair.error_estimate <= 1e-11 * abs(pair.lam)
    assert np.min(pair.psi(radii(pair))) > 0.0
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
    # for n = 3, psi(0) ~ e^-400 psi(R) lies below the accuracy of the
    # Legendre-Galerkin eigenvector, which gives about -6e-7 of psi(R); the
    # oracle's sign check admits that noise through the change of psi's
    # coefficients between its last two sizes. The series for beta < 0 has
    # only positive terms, so its psi(0) is positive and exact. Near the
    # root the residual is about beta dlambda / (2 lambda).
    problem = RobinBallProblem(3, 1.0, -400.0)
    oracle = galerkin_oracle.first_eigenvalue(problem)
    assert galerkin_oracle.u_min_and_l2(oracle, problem)[0] < 0.0
    pair = first_eigenvalue(problem)
    assert abs(riccati_residual(problem, pair.lam)) <= 400.0 * pair.error_estimate / abs(pair.lam)
    assert np.min(pair.psi(radii(pair))) > 0.0
    # n = 3: psi = sinh(mu r) / sin r with lambda = -1 - mu^2, so
    # psi(0) / psi(R) = mu sin R / sinh(mu R)
    mu = math.sqrt(-1.0 - pair.lam)
    u_min, _ = u_min_and_l2(pair, problem)
    assert u_min == pytest.approx(mu * math.sin(1.0) / math.sinh(mu), rel=1e-10)


def test_past_basis_cap_is_solver_error():
    # the largest term sits near |beta| tan(R/2) = 5.5e5, past the term limit
    start = time.perf_counter()
    with pytest.raises(SolverError, match="needs more than 100000 terms"):
        first_eigenvalue(RobinBallProblem(2, 1.0, -1e6))
    assert time.perf_counter() - start < 1.0


def test_series_has_no_negative_term_for_nonpositive_beta():
    # lambda < 0 makes every ratio c_k positive: psi is positive and
    # increasing, with no cancellation to check for
    for n, r, beta in ((2, 1.0, -1.0), (3, 0.5, -400.0), (5, math.pi / 2, -600.0)):
        pair = first_eigenvalue(RobinBallProblem(n, r, beta))
        assert np.all(pair.coef >= 0.0)
        assert pair.coef.sum() == pytest.approx(1.0, rel=1e-14)


def test_unresolved_rounding_is_solver_error():
    # a near-Dirichlet ball in high dimension: the alternating terms cancel
    # to a rounding bound of a fifth of lambda, so no value is returned
    with pytest.raises(SolverError, match="not resolved"):
        first_eigenvalue(RobinBallProblem(200, 0.5, 1e16))


def test_noisy_root_function_is_solver_error(monkeypatch):
    # noise above the stated rounding level keeps Newton from stopping
    series = radial._series
    rng = np.random.default_rng(1)

    def noisy(problem, z, lam):
        s0, s1, d0, d1, terms = series(problem, z, lam)
        return s0, s1 * (1.0 + 1e-6 * rng.standard_normal()), d0, d1, terms

    monkeypatch.setattr(radial, "_series", noisy)
    with pytest.raises(SolverError, match="does not settle"):
        first_eigenvalue(RobinBallProblem(2, 1.0, -5.0))


# 16 betas from -600 to 1e8, and the four of the former pencil-solve grid
# that they lack (-300, -0.1, 0.1, 1e3)
GRID_BETAS = [-600.0, -400.0, -300.0, -100.0, -30.0, -10.0, -3.0, -1.0, -0.3, -0.1, 0.1, 0.3,
              1.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e6, 1e8]
GRID_RADII = [float(r) for r in np.linspace(0.1, math.pi / 2, 9)]
# the Legendre-Galerkin loop rejects these six inputs: a pencil that is not
# definite at beta = -600 and at (pi/2, -400), a computed psi that changes
# sign at (0.5, -400) and (1.2, -400)
GALERKIN_REJECTS = [(5, 1.2, -600.0), (5, 1.4, -600.0), (5, math.pi / 2, -600.0),
                    (5, 0.5, -400.0), (5, 1.2, -400.0), (5, math.pi / 2, -400.0)]


def grid(n):
    return [(r, beta) for r in GRID_RADII for beta in GRID_BETAS + [math.tan(r)]]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pencil_solve_matches_scipy_oracle(n):
    # the Legendre-Galerkin oracle agrees with the series to its own accuracy
    # (up to 9.4e-12 (1 + |lambda|) at beta = -600, where its estimate
    # understates its error), and its numpy pencil solve with scipy's subset
    # eigh; it rejects eight n = 5 inputs of the grid, all at beta <= -30,
    # which test_matches_mpmath_root covers
    rejected = set()
    for r, beta in grid(n):
        problem = RobinBallProblem(n, r, beta)
        pair = first_eigenvalue(problem)
        try:
            oracle = galerkin_oracle.first_eigenvalue(problem)
        except SolverError:
            rejected.add((n, r, beta))
            continue
        assert abs(pair.lam - oracle.lam) <= 1e-11 * (1.0 + abs(oracle.lam)), (r, beta)
        scipy_lam, _, _ = galerkin_oracle.galerkin(
            problem, oracle.size, galerkin_oracle.scipy_extreme_vector)
        assert abs(scipy_lam - oracle.lam) <= 1e-12 * (1.0 + abs(oracle.lam)), (r, beta)
    assert all(c[0] == 5 and c[2] <= -30.0 for c in rejected)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_matches_mpmath_root(n):
    for r, beta in grid(n):
        pair = first_eigenvalue(RobinBallProblem(n, r, beta))
        root = float(mpmath_root(n, r, beta, pair.lam))
        assert abs(pair.lam - root) <= 1e-12 * (1.0 + abs(root)), (r, beta)
        assert abs(pair.lam - root) <= pair.error_estimate, (r, beta)


@pytest.mark.parametrize("n,r,beta", GALERKIN_REJECTS)
def test_galerkin_rejects_are_solved(n, r, beta):
    problem = RobinBallProblem(n, r, beta)
    with pytest.raises(SolverError):
        galerkin_oracle.first_eigenvalue(problem)
    pair = first_eigenvalue(problem)
    root = float(mpmath_root(n, r, beta, pair.lam))
    assert abs(pair.lam - root) <= 1e-12 * (1.0 + abs(root))
    assert np.all(pair.coef >= 0.0)


@pytest.mark.parametrize("r", [0.3, 1.0, math.pi / 2])
@pytest.mark.parametrize("beta", [-600.0, -20.0, -5.0, -1.0])
def test_n3_closed_form(r, beta):
    # on S^3, psi = sinh(mu r) / sin r and lambda = -1 - mu^2, with the Robin
    # condition mu coth(mu R) = cot R - beta
    rhs = 1.0 / math.tan(r) - beta
    mu = brentq(lambda m: m / math.tanh(m * r) - rhs, 1e-9, rhs + 1.0, xtol=1e-15, rtol=1e-15)
    lam = -1.0 - mu * mu
    problem = RobinBallProblem(3, r, beta)
    pair = first_eigenvalue(problem)
    assert abs(pair.lam - lam) <= 1e-12 * (1.0 + abs(lam))
    # psi(r) / psi(R), written without overflow: sinh(mu r) / sinh(mu R) =
    # e^(mu (r - R)) (1 - e^(-2 mu r)) / (1 - e^(-2 mu R))
    rs = radii(pair, 101)[1:]
    ratio = np.exp(mu * (rs - r)) * (-np.expm1(-2.0 * mu * rs)) / -math.expm1(-2.0 * mu * r)
    assert np.max(np.abs(pair.psi(rs) - ratio * math.sin(r) / np.sin(rs))) <= 1e-13


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("r", [1e-6, 1e-3])
@pytest.mark.parametrize("beta", [1e12, 1.6e16])
def test_near_dirichlet_small_ball_is_right_or_solver_error(n, r, beta):
    # the Robin eigenvalue lies just below the Dirichlet one, j_(n/2-1,1)^2 / R^2,
    # up to O(R^2) and O(1 / (beta R)); scipy's subset solve returned values
    # far above it with exit 0, and the Legendre-Galerkin pencil had no
    # Cholesky factor at (10, 1e-3 and 1e-6, 1.6e16) and (5, 1e-6, 1.6e16)
    nu = n / 2 - 1
    j = brentq(lambda x: jv(nu, x), nu + 1.0, nu + 4.0)
    lam = first_eigenvalue(RobinBallProblem(n, r, beta)).lam
    assert lam < (j / r) ** 2
    assert lam == pytest.approx((j / r) ** 2, rel=1e-4)


def test_error_estimate_bounds_larger_bases():
    # the estimate bounds the distance to the 30-digit root, and to Galerkin
    # solves on 8 and 32 more basis functions than the oracle's own stop
    for n, r, beta in ((2, 1.0, -1.0), (3, 0.5, -5.0), (2, math.pi / 2, -20.0), (2, 0.7, 2.0)):
        problem = RobinBallProblem(n, r, beta)
        pair = first_eigenvalue(problem)
        assert abs(pair.lam - float(mpmath_root(n, r, beta, pair.lam))) <= pair.error_estimate
        size = galerkin_oracle.first_eigenvalue(problem).size
        for extra in (8, 32):
            lam, _, _ = galerkin_oracle.galerkin(problem, size + extra)
            assert abs(lam - pair.lam) <= pair.error_estimate + 1e-13 * (1.0 + abs(lam))


@pytest.mark.parametrize("beta", [-20.0, -50.0, -100.0])
def test_u_min_of_steep_layer_is_positive_and_exact(beta):
    # at beta = -50 the Legendre-Galerkin loop returned u_min = -5.8e-11, for
    # a true value of 1.2e-25
    problem = RobinBallProblem(2, 1.2, beta)
    pair = first_eigenvalue(problem)
    u_min, _ = u_min_and_l2(pair, problem)
    assert u_min > 0.0
    expected = mpmath_u_min(2, 1.2, mpmath_root(2, 1.2, beta, pair.lam))
    assert u_min == pytest.approx(expected, rel=1e-10)


def test_norm_matches_galerkin_gauss_rule():
    # the Lagrange identity against the Gauss rule of the Legendre-Galerkin basis
    for n in (2, 3):
        for r in (0.3, 0.7, 1.0, 1.3, math.pi / 2):
            for beta in (-20.0, -5.0, -1.0, -0.5, 0.5, 2.0, 10.0, math.tan(r)):
                problem = RobinBallProblem(n, r, beta)
                oracle = galerkin_oracle.first_eigenvalue(problem)
                _, oracle_norm = galerkin_oracle.u_min_and_l2(oracle, problem)
                norm = first_eigenvalue(problem).norm_sq
                assert norm == pytest.approx(oracle_norm, rel=1e-12), (n, r, beta)


@pytest.mark.parametrize("n,r,beta", [(2, 1.3, -5.0), (3, math.pi / 2, -20.0), (5, 1.0, -20.0),
                                      (5, 1.3, 0.5), (2, 0.5, math.tan(0.5)),
                                      (10, 1e-3, 1.6e16)])
def test_psi_matches_mpmath(n, r, beta):
    problem = RobinBallProblem(n, r, beta)
    pair = first_eigenvalue(problem)
    lam = mpmath_root(n, r, beta, pair.lam)
    rs = radii(pair, 21)
    with mp.workdps(30):
        end = mp_psi_and_dpsi(n, r, lam)[0]
        scale = max(abs(end), 1)
        exact = [mp_psi_and_dpsi(n, x, lam) for x in rs.tolist()]
        values = np.array([float(v / scale) for v, _ in exact])
        slopes = np.array([float(s / scale) for _, s in exact])
    assert np.max(np.abs(pair.psi(rs) - values)) <= 1e-14
    assert np.max(np.abs(pair.dpsi(rs) - slopes)) <= 1e-14 * np.max(np.abs(slopes))


@pytest.mark.parametrize("r", [0.5, 1.0, 1.3])
@pytest.mark.parametrize("beta", [-5.0, -1.0, -0.5])
def test_psi_matches_galerkin_on_profile_nodes(r, beta):
    # the 4097 nodes of a K = 4096 profile, at the betas of the theorem pipelines
    problem = RobinBallProblem(2, r, beta)
    pair = first_eigenvalue(problem)
    oracle = galerkin_oracle.first_eigenvalue(problem)
    rs = np.linspace(0.0, r, 4097)
    assert np.max(np.abs(pair.psi(rs) - galerkin_oracle.psi(oracle, r, rs))) <= 2e-12
    slopes = pair.dpsi(rs)
    gap = np.max(np.abs(slopes - galerkin_oracle.dpsi(oracle, r, rs)))
    assert gap <= 1e-11 * np.max(np.abs(slopes))


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
