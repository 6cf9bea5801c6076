"""Perimeter profiles of inner parallels and the comparison pipelines.

Collects the machinery that turns the exact cap-body geometry into the two
eigenvalue comparisons:

  * the sampled profile t -> P(body_t) on [0, inradius);
  * the one-sided differential inequality satisfied by the profile,
        -dP/dt >= (n-1) (sigma_n^(2/(n-1)) P^(2(n-2)/(n-1)) - P^2)^(1/2),
    which for n = 2 reads -dP/dt >= sqrt(4 pi^2 - P^2);
  * a Gronwall-style comparison integrator for f' <= F(f) against g' = F(g);
  * the transplanted Rayleigh quotient built from the radial eigenfunction
    of the equal-perimeter ball, and the full verification reports for the
    eigenvalue bound and its quantitative volume-stability refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robinsphere import capbody
from robinsphere.capbody import CapBody, perimeter
from robinsphere.errors import GeometryError
from robinsphere.fem import DiscreteEigResult, calibrated_ball_error
from robinsphere.radial import RadialEigenpair, RobinBallProblem, first_eigenvalue, u_min_and_l2
from robinsphere.report import VerificationReport
from robinsphere.spaceform import ball_perimeter, ball_volume, radius_from_perimeter, sigma

_EDGE_TRIM = 1e-6  # profiles stop at inradius * (1 - trim)
# isolated grid cells the perimeter inequality may miss: profile corners
_MAX_FLAGGED = 2
# slack of f <= g in the comparison lemma
_COMPARISON_TOL = 1e-8
# slack of the thm1 and thm2 eigenvalue comparisons
_PIPELINE_TOL = 1e-6
# Relative slack of the thm1 gradient-term comparison and its equality flag.
# The terms scale with the square of psi's normalisation, so only a slack
# relative to the ball's term has a fixed strictness. P(body_t) <= P(ball_t)
# at every node and Simpson's weights are positive, so the body's term can
# exceed the ball's only by the rounding of the two sums, about K eps (1e-12
# at K = 4096). Over the octant, cap fixtures of radius 0.5 to 1.5 and corpus
# bodies 1-60 at beta in {-0.5, -1, -5} and K = 4096, the relative gap is
# either at most 1.7e-15 (caps and bodies with a ball's profile) or at least
# 4.3e-6. The absolute slack 1e-6 at psi(0) = 1 that this replaces was 2.2e-11
# to 1.2e-5 relative on those bodies.
_GRADIENT_TOL = 1e-11


@dataclass
class PerimeterProfile:
    """Sampled map t -> P(body_t) together with the inradius.

    ``piece_starts`` holds the first t of each piece of nodes over which the
    boundary keeps the same arcs (see ``capbody._perimeter_pieces``); a new
    piece starts just after an arc of the boundary vanishes.
    """

    inradius: float
    ts: np.ndarray
    ps: np.ndarray
    piece_starts: list[float]


def perimeter_profile(body: CapBody, K: int) -> PerimeterProfile:
    """Exact perimeters of the inner parallel sets on a uniform grid.

    K is the number of grid panels (K + 1 nodes); at least 64 are required
    for the discrete differential inequality to be meaningful. The cap-body
    arc kernel runs at the first node of each piece, and closed-form arc
    widths give the nodes in between.
    """
    if K < 64:
        raise GeometryError(f"profile needs K >= 64 grid panels, got {K}")
    rin = body.incircle[1]
    ts = np.linspace(0.0, rin * (1.0 - _EDGE_TRIM), K + 1)
    ps, starts = capbody._perimeter_pieces(body, ts)
    return PerimeterProfile(inradius=rin, ts=ts, ps=ps, piece_starts=ts[starts].tolist())


def profile_ode_rhs(n: int, p):
    """Right-hand side of the perimeter inequality at p (float or array); radicand clamped at 0."""
    radicand = sigma(n) ** (2.0 / (n - 1)) * p ** (2.0 * (n - 2) / (n - 1)) - p * p
    return (n - 1) * np.sqrt(np.maximum(radicand, 0.0))


def grid_tolerance(dt: float) -> float:
    """Slack of the discrete perimeter inequality: 10 * max(dt^2, 1e-10).

    On a geodesic ball the inequality holds with equality. Its discrete form
    compares the forward difference over a cell with the right-hand side at
    the mean of the two end values, and on P = 2 pi sin(R - t) the two differ
    by C dt^2. C grows like 1 / cos(R - t) toward the equator. Measured at
    K = 512 and 4096, C is 0.37 for R = 0.4, 0.94 for R = 0.9 and 4.5 for
    R = 1.4, so the factor 10 lets balls up to R = 1.4 pass with equality in
    both directions. The floor keeps the slack above the rounding of the
    differences on very fine grids.
    """
    return 10.0 * max(dt * dt, 1e-10)


def ode_inequality_check(profile: PerimeterProfile) -> VerificationReport:
    """Discrete check of -dP/dt >= rhs(P) on S^2 at every interior grid cell.

    Isolated flagged cells (up to _MAX_FLAGGED, mutually non-adjacent) are
    reported distinctly but tolerated: the inequality only holds for almost
    every t and profile corners fall between grid points.
    """
    ts, ps = profile.ts, profile.ps
    dt = float(ts[1] - ts[0])
    tol = grid_tolerance(dt)
    lhs = -(ps[1:] - ps[:-1]) / dt
    mid = 0.5 * (ps[1:] + ps[:-1])
    rhs = profile_ode_rhs(2, mid)
    residual = lhs - rhs

    flagged = np.nonzero(residual < -tol)[0]
    isolated = all(b - a > 1 for a, b in zip(flagged, flagged[1:]))
    ok = len(flagged) <= _MAX_FLAGGED and isolated

    report = VerificationReport(name="perimeter-ode-n2")
    report.add(
        description="min over cells of [-dP/dt - rhs(P)] >= -tol_grid "
        f"(tol_grid={tol:.3e}, {len(flagged)} flagged cells allowed up to {_MAX_FLAGGED}, isolated)",
        lhs=float(np.min(residual)),
        rhs=-tol,
        residual=float(np.min(residual) + tol),
        passed=ok,
    )
    report.extras["flagged_cells"] = [int(i) for i in flagged]
    report.extras["flagged_ts"] = [float(ts[i]) for i in flagged]
    report.extras["tol_grid"] = tol
    report.extras["max_violation"] = float(-np.min(residual)) if len(residual) else 0.0
    return report


def comparison_solve(ts, fs, F, g0: float) -> tuple[np.ndarray, VerificationReport]:
    """Integrate g' = F(g) on the sample grid of f and verify f <= g + _COMPARISON_TOL.

    F must be one-sided Lipschitz on the range swept by g; classical RK4 is
    used on each grid interval.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if fs[0] > g0 + _COMPARISON_TOL:
        raise GeometryError(f"comparison needs f(a) <= g(a): {fs[0]} > {g0}")
    gs = np.empty_like(fs)
    gs[0] = g0
    g = g0
    for k in range(len(ts) - 1):
        h = float(ts[k + 1] - ts[k])
        k1 = F(g)
        k2 = F(g + 0.5 * h * k1)
        k3 = F(g + 0.5 * h * k2)
        k4 = F(g + h * k3)
        g = g + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        gs[k + 1] = g

    worst = float(np.max(fs - gs))
    report = VerificationReport(name="comparison-lemma")
    report.add(
        description="max over nodes of f - g <= tol",
        lhs=worst,
        rhs=_COMPARISON_TOL,
        residual=_COMPARISON_TOL - worst,
        passed=worst <= _COMPARISON_TOL,
    )
    return gs, report


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at strictly increasing nodes x.

    Equals ``scipy.integrate.simpson(y, x=x)`` bit for bit on 1-D grids of at
    least three nodes, by the same operations in the same order. Each pair of
    panels gets the parabola through its three nodes. With an even number of
    nodes the last panel is closed by Cartwright's correction, a parabola
    through the last three nodes integrated over the last panel alone.
    scipy's guards against zero spacings are left out: the profile grids are
    ``linspace(0, rin (1 - _EDGE_TRIM), K + 1)`` with rin > 0 and K >= 64.
    Importing scipy.integrate would load scipy.optimize and its dependencies
    into every process for these few array operations.
    """
    n = len(y)
    m = n if n % 2 else n - 1  # nodes covered by pairs of panels
    h = np.diff(x)
    h0, h1 = h[0:m - 2:2], h[1:m - 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    result = np.sum(
        hsum / 6.0 * (
            y[0:m - 2:2] * (2.0 - 1.0 / h0divh1)
            + y[1:m - 1:2] * (hsum * (hsum / hprod))
            + y[2:m:2] * (2.0 - h0divh1)
        )
    )
    if n % 2 == 0:
        # 0-d arrays, as in scipy: numpy rounds h**2 and h**3 of a float64
        # scalar differently in some last bits
        h0, h1 = h[-2, ...], h[-1, ...]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


@dataclass
class TransplantResult:
    """What the two theorem checks read of the transplant for one (body, beta) pair."""

    beta: float
    rq: float
    lambda_ball: float
    ball_radius: float
    ball_volume: float
    body_perimeter: float
    body_area: float
    profile: PerimeterProfile
    eigenpair: RadialEigenpair
    gradient_body: float  # int phi'^2 P(body_t) dt
    gradient_ball: float  # int phi'^2 P(ball_t) dt
    boundary_term_body: float
    boundary_term_ball: float
    u_min: float
    u_l2sq: float


def transplant_rayleigh(body: CapBody, beta: float, profile: PerimeterProfile) -> TransplantResult:
    """Rayleigh quotient of the test function phi(d(., boundary)) on the body.

    phi is the radial eigenfunction of the equal-perimeter geodesic ball,
    written as a function of the distance from the boundary, phi(t) =
    psi(R - t); phi and phi' are evaluated at the nodes of the body's
    ``profile`` straight from its series coefficients. The profile
    integrals use composite Simpson on the shared grid: the derivative
    integrand carries a boundary layer of amplitude ~ beta^2 for strongly
    negative beta, and the first-order endpoint error of the trapezoid rule
    would swamp the comparison tolerance on near-ball bodies. The two
    theorems compare the body with the ball for beta < 0 only, so beta is
    checked here, where it enters the pipeline.
    """
    if beta >= 0.0:
        raise GeometryError(f"the comparison pipeline needs beta < 0, got {beta}")
    P, A = perimeter(body), capbody.area(body)
    R = radius_from_perimeter(2, P)
    problem = RobinBallProblem(2, R, beta)
    pair = first_eigenvalue(problem)
    ts, ps = profile.ts, profile.ps

    phi = pair.psi(R - ts)
    dphi = -pair.dpsi(R - ts)

    phi0 = float(pair.psi(R))
    boundary_term_body = phi0 * phi0 * P
    boundary_term_ball = phi0 * phi0 * ball_perimeter(2, R)

    grad_body = _simpson(dphi**2 * ps, ts)
    den_body = _simpson(phi**2 * ps, ts)
    ball_ps = sigma(2) * np.sin(R - ts)
    grad_ball = _simpson(dphi**2 * ball_ps, ts)

    u_m, l2sq = u_min_and_l2(pair, problem)

    return TransplantResult(
        beta=beta,
        rq=float((grad_body + beta * boundary_term_body) / den_body),
        lambda_ball=pair.lam,
        ball_radius=R,
        ball_volume=ball_volume(R),
        body_perimeter=float(P),
        body_area=float(A),
        profile=profile,
        eigenpair=pair,
        gradient_body=grad_body,
        gradient_ball=grad_ball,
        boundary_term_body=boundary_term_body,
        boundary_term_ball=boundary_term_ball,
        u_min=u_m,
        u_l2sq=l2sq,
    )


def thm1_verify(res: TransplantResult) -> VerificationReport:
    """Four-check pipeline for the eigenvalue comparison with the equal-perimeter ball.

    Checks, in order: volume and inradius domination, profile domination at
    every grid node, domination of the gradient-term integral, and the
    Rayleigh quotient against the ball eigenvalue. Equality flags light up
    (within a discretization-aware tolerance) only when the body is a ball.

    The equality tolerance is grid_tolerance(dt) * (1 + |lambda_ball|). On
    cap fixtures every compared pair agrees: area and ball volume, inradius
    and ball radius, the two profiles, and rq and lambda_ball. Measured at
    K = 4096 for R in {0.5, 0.9, 1.3, 1.5} and beta in {-0.5, -1, -5}, the
    largest gap is 4.2e-5 (1 + |lambda_ball|) dt^2, between rq and
    lambda_ball. The grid factor 10 keeps a wide margin over that. The two
    gradient terms, which scale with psi's normalisation, are flagged
    against _GRADIENT_TOL relative instead.
    """
    beta = res.beta
    report = VerificationReport(name="thm1")
    tol_grid = grid_tolerance(float(res.profile.ts[1] - res.profile.ts[0]))
    eq_tol = tol_grid * (1.0 + abs(res.lambda_ball))

    report.add(
        description="|body| <= |ball| (isoperimetric, equal perimeter)",
        lhs=res.body_area,
        rhs=res.ball_volume,
        residual=res.ball_volume - res.body_area,
        passed=res.body_area <= res.ball_volume + 1e-9,
        equality=abs(res.ball_volume - res.body_area) <= eq_tol,
    )
    report.add(
        description="inradius(body) <= ball radius",
        lhs=res.profile.inradius,
        rhs=res.ball_radius,
        residual=res.ball_radius - res.profile.inradius,
        passed=res.profile.inradius <= res.ball_radius + 1e-9,
        equality=abs(res.ball_radius - res.profile.inradius) <= eq_tol,
    )

    ball_ps = sigma(2) * np.sin(res.ball_radius - res.profile.ts)
    prof_gap = ball_ps - res.profile.ps
    report.add(
        description="P(body_t) <= P(ball_t) + tol_grid at every node",
        lhs=float(np.max(res.profile.ps - ball_ps)),
        rhs=tol_grid,
        residual=float(np.min(prof_gap) + tol_grid),
        passed=bool(np.all(prof_gap >= -tol_grid)),
        equality=float(np.max(np.abs(prof_gap))) <= eq_tol,
    )

    report.add(
        description="gradient term: int phi'^2 P(body_t) <= int phi'^2 P(ball_t)",
        lhs=res.gradient_body,
        rhs=res.gradient_ball,
        residual=res.gradient_ball - res.gradient_body,
        passed=res.gradient_body <= res.gradient_ball * (1.0 + _GRADIENT_TOL),
        equality=abs(res.gradient_ball - res.gradient_body) <= _GRADIENT_TOL * res.gradient_ball,
    )
    report.add(
        description="transplanted quotient <= ball eigenvalue + tol",
        lhs=res.rq,
        rhs=res.lambda_ball,
        residual=res.lambda_ball + _PIPELINE_TOL - res.rq,
        passed=res.rq <= res.lambda_ball + _PIPELINE_TOL,
        equality=abs(res.lambda_ball - res.rq) <= eq_tol,
    )

    report.extras.update(
        {
            "beta": beta,
            "rq": res.rq,
            "lambda_ball": res.lambda_ball,
            # how lambda_ball was found: the number of series terms, and the
            # rounding bound of the sums plus the last Newton step
            "lambda_ball_terms": res.eigenpair.terms,
            "lambda_ball_error_estimate": res.eigenpair.error_estimate,
            "ball_radius": res.ball_radius,
            "body_perimeter": res.body_perimeter,
            "body_area": res.body_area,
            "inradius": res.profile.inradius,
            "profile_piece_starts": res.profile.piece_starts,
            "equality_case": all(c.equality for c in report.checks),
            "boundary_term_identity": abs(res.boundary_term_body - res.boundary_term_ball),
            "equality_tol": eq_tol,
        }
    )
    return report


def thm2_verify(res: TransplantResult, fem: DiscreteEigResult | None = None) -> VerificationReport:
    """Quantitative stability pipeline: quotient against the volume-corrected bound.

    With c = u_min^2 / |u|_L2^2 and dV = |ball| - |body| it checks
    0 <= c dV < 1 and rq <= lambda_ball / (1 - c dV) + tol, and reports the
    implied stability lower bound c dV for (lambda_ball - lambda)/|lambda|.
    When a finite element estimate of the body eigenvalue is supplied, the
    estimated ratio is compared against c dV minus twice the FEM error on the
    ball at the same level and beta (``calibrated_ball_error``), which the
    report records as ``fem_rel_tol``, beside the solve's inverse-iteration
    steps, factorisations and accepted shift.
    """
    beta = res.beta
    report = VerificationReport(name="thm2")

    c = res.u_min**2 / res.u_l2sq
    dV = res.ball_volume - res.body_area
    cdv = c * dV
    report.add(
        description="guard: 0 <= c dV < 1",
        lhs=cdv,
        rhs=1.0,
        residual=1.0 - cdv,
        passed=-1e-12 <= cdv < 1.0,
    )
    if not report.checks[-1].passed:
        report.extras.update({"c": c, "dV": dV})
        return report

    bound = res.lambda_ball / (1.0 - cdv)
    report.add(
        description="rq <= lambda_ball * (1 - c dV)^(-1) + tol",
        lhs=res.rq,
        rhs=bound,
        residual=bound + _PIPELINE_TOL - res.rq,
        passed=res.rq <= bound + _PIPELINE_TOL,
    )

    report.extras.update(
        {
            "beta": beta,
            "c": c,
            "dV": dV,
            "c_dV": cdv,
            "rq": res.rq,
            "lambda_ball": res.lambda_ball,
            "stability_lower_bound": cdv,
            "quantitative_bound": bound,
        }
    )

    if fem is not None:
        rel_tol = calibrated_ball_error(fem.refinement_level, beta)
        ratio = (res.lambda_ball - fem.lambda_h) / abs(fem.lambda_h)
        slack = 2.0 * rel_tol
        report.add(
            description="FEM stability ratio (lambda_ball - lambda_h)/|lambda_h| "
            ">= c dV - 2 * calibrated tolerance",
            lhs=ratio,
            rhs=cdv - slack,
            residual=ratio - (cdv - slack),
            passed=ratio >= cdv - slack,
        )
        report.extras["fem_lambda"] = fem.lambda_h
        report.extras["fem_ratio"] = ratio
        report.extras["fem_rel_tol"] = rel_tol
        report.extras["fem_iterations"] = fem.iterations
        report.extras["fem_factorisations"] = fem.factorisations
        report.extras["fem_shift"] = fem.shift
    return report


def csv_row(
    body_id: str,
    res: TransplantResult,
    thm1: VerificationReport,
    thm2: VerificationReport,
    fem: DiscreteEigResult | None,
) -> dict:
    """One row of the corpus CSV (``report.CSV_COLUMNS``) for a (body, beta) pair.

    The residual columns follow the order in which ``thm1_verify`` and
    ``thm2_verify`` add their checks. thm2's quotient check comes after its
    guard and is missing when the guard fails; its column is then NaN.
    """
    volume, inradius, profile, numerator, quotient = thm1.checks
    return {
        "body_id": body_id,
        "beta": res.beta,
        "perimeter": res.body_perimeter,
        "area": res.body_area,
        "inradius": res.profile.inradius,
        "lambda_ball": res.lambda_ball,
        "rq": res.rq,
        "lambda_fem": fem.lambda_h if fem is not None else None,
        "res_volume": volume.residual,
        "res_inradius": inradius.residual,
        "res_profile": profile.residual,
        "res_numerator": numerator.residual,
        "res_quotient": quotient.residual,
        "res_thm2": thm2.checks[1].residual if len(thm2.checks) > 1 else float("nan"),
        "pass_thm1": thm1.overall,
        "pass_thm2": thm2.overall,
    }
