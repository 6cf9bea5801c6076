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

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from robinsphere import capbody
from robinsphere.capbody import CapBody, perimeter
from robinsphere.errors import GeometryError
from robinsphere.radial import RadialEigenpair, RobinBallProblem, first_eigenvalue, u_min_and_l2
from robinsphere.report import VerificationReport
from robinsphere.spaceform import ball_perimeter, ball_volume, radius_from_perimeter, sigma

_EDGE_TRIM = 1e-6  # profiles stop at inradius * (1 - trim)


@dataclass
class PerimeterProfile:
    """Sampled map t -> P(body_t) together with the inradius."""

    inradius: float
    ts: np.ndarray
    ps: np.ndarray


def perimeter_profile(body: CapBody, K: int = 512) -> PerimeterProfile:
    """Exact perimeters of the inner parallel sets on a uniform grid.

    K is the number of grid panels (K + 1 nodes); at least 64 are required
    for the discrete differential inequality to be meaningful. All nodes go
    through one batched pass of the cap-body arc kernel.
    """
    if K < 64:
        raise GeometryError(f"profile needs K >= 64 grid panels, got {K}")
    _, rin = capbody.incenter_and_inradius(body)
    ts = np.linspace(0.0, rin * (1.0 - _EDGE_TRIM), K + 1)
    return PerimeterProfile(inradius=rin, ts=ts, ps=capbody.inner_parallel_perimeters(body, ts))


def profile_ode_rhs(n: int, p: float) -> float:
    """Right-hand side of the perimeter inequality; radicand clamped at 0."""
    sn = sigma(n)
    radicand = sn ** (2.0 / (n - 1)) * p ** (2.0 * (n - 2) / (n - 1)) - p * p
    return (n - 1) * math.sqrt(max(radicand, 0.0))


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


def ode_inequality_check(
    profile: PerimeterProfile, n: int = 2, max_flagged: int = 2
) -> VerificationReport:
    """Discrete check of -dP/dt >= rhs(P) at every interior grid cell.

    Isolated flagged cells (up to ``max_flagged``, mutually non-adjacent) are
    reported distinctly but tolerated: the inequality only holds for almost
    every t and profile corners fall between grid points.
    """
    ts, ps = profile.ts, profile.ps
    dt = float(ts[1] - ts[0])
    tol = grid_tolerance(dt)
    lhs = -(ps[1:] - ps[:-1]) / dt
    mid = 0.5 * (ps[1:] + ps[:-1])
    rhs = np.array([profile_ode_rhs(n, float(p)) for p in mid])
    residual = lhs - rhs

    flagged = np.nonzero(residual < -tol)[0]
    isolated = all(b - a > 1 for a, b in zip(flagged, flagged[1:]))
    ok = len(flagged) <= max_flagged and isolated

    report = VerificationReport(name=f"perimeter-ode-n{n}")
    report.add(
        description="min over cells of [-dP/dt - rhs(P)] >= -tol_grid "
        f"(tol_grid={tol:.3e}, {len(flagged)} flagged cells allowed up to {max_flagged}, isolated)",
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


def comparison_solve(
    ts, fs, F, g0: float, tol: float = 1e-8
) -> tuple[np.ndarray, VerificationReport]:
    """Integrate g' = F(g) on the sample grid of f and verify f <= g + tol.

    F must be one-sided Lipschitz on the range swept by g; classical RK4 is
    used on each grid interval.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if fs[0] > g0 + tol:
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
        rhs=tol,
        residual=tol - worst,
        passed=worst <= tol,
    )
    return gs, report


@dataclass
class TransplantResult:
    """Everything the transplantation produces for one (body, beta) pair."""

    rq: float
    lambda_ball: float
    ball_radius: float
    ball_perimeter: float
    ball_volume: float
    body_perimeter: float
    body_area: float
    profile: PerimeterProfile
    eigenpair: RadialEigenpair
    numerator_body: float
    numerator_ball: float
    denominator_body: float
    denominator_ball: float
    boundary_term_body: float
    boundary_term_ball: float
    u_min: float
    u_l2sq: float


def transplant_rayleigh(
    body: CapBody,
    beta: float,
    K: int = 4096,
    profile: PerimeterProfile | None = None,
    steps: int = 4096,
) -> TransplantResult:
    """Rayleigh quotient of the test function phi(d(., boundary)) on the body.

    phi is the radial eigenfunction of the equal-perimeter geodesic ball,
    written as a function of the distance from the boundary and interpolated
    cubically from the solver grid. The profile integrals use composite
    Simpson on the shared grid: the derivative integrand carries a boundary
    layer of amplitude ~ beta^2 for strongly negative beta, and the
    first-order endpoint error of the trapezoid rule would swamp the
    comparison tolerance on near-ball bodies.
    """
    structure = capbody.boundary_structure(body)
    P = perimeter(body, structure)
    A = capbody.area(body, structure)
    R = radius_from_perimeter(2, P)
    problem = RobinBallProblem(2, R, beta)
    pair = first_eigenvalue(problem, steps=steps)

    if profile is None:
        profile = perimeter_profile(body, K)
    ts, ps = profile.ts, profile.ps

    phi_spline = CubicSpline(pair.rho_grid, pair.phi)
    dphi_spline = phi_spline.derivative()
    phi = phi_spline(ts)
    dphi = dphi_spline(ts)

    phi0 = float(pair.psi[-1])  # phi(0) = psi(R)
    boundary_term_body = phi0 * phi0 * P
    boundary_term_ball = phi0 * phi0 * ball_perimeter(2, R)

    num_body = float(simpson(dphi**2 * ps, x=ts)) + beta * boundary_term_body
    den_body = float(simpson(phi**2 * ps, x=ts))
    ball_ps = sigma(2) * np.sin(R - ts)
    num_ball = float(simpson(dphi**2 * ball_ps, x=ts)) + beta * boundary_term_ball
    den_ball = float(simpson(phi**2 * ball_ps, x=ts))

    u_m, l2sq = u_min_and_l2(pair, problem)

    return TransplantResult(
        rq=float(num_body / den_body),
        lambda_ball=pair.lam,
        ball_radius=R,
        ball_perimeter=ball_perimeter(2, R),
        ball_volume=ball_volume(2, R),
        body_perimeter=float(P),
        body_area=float(A),
        profile=profile,
        eigenpair=pair,
        numerator_body=num_body,
        numerator_ball=num_ball,
        denominator_body=den_body,
        denominator_ball=den_ball,
        boundary_term_body=boundary_term_body,
        boundary_term_ball=boundary_term_ball,
        u_min=u_m,
        u_l2sq=l2sq,
    )


def _equality_tol(result: TransplantResult) -> float:
    """Equality-flag tolerance of thm1: grid_tolerance(dt) * (1 + |lambda_ball|).

    On cap fixtures every compared pair agrees: area and ball volume,
    inradius and ball radius, the two profiles, the two gradient terms, and
    rq and lambda_ball. Measured at K = 4096 for R in {0.5, 0.9, 1.3, 1.5}
    and beta in {-0.5, -1, -5}, the largest gap is 0.02 (1 + |lambda_ball|)
    dt^2, in the gradient term at beta = -5. The grid factor 10 keeps a wide
    margin over that.
    """
    dt = float(result.profile.ts[1] - result.profile.ts[0])
    return grid_tolerance(dt) * (1.0 + abs(result.lambda_ball))


def thm1_verify(
    body: CapBody,
    beta: float,
    K: int = 4096,
    transplant: TransplantResult | None = None,
    tol: float = 1e-6,
) -> VerificationReport:
    """Four-check pipeline for the eigenvalue comparison with the equal-perimeter ball.

    Checks, in order: volume and inradius domination, profile domination at
    every grid node, domination of the gradient-term integral, and the
    Rayleigh quotient against the ball eigenvalue. Equality flags light up
    (within a discretization-aware tolerance) only when the body is a ball.
    """
    if beta >= 0.0:
        raise GeometryError(f"the comparison pipeline needs beta < 0, got {beta}")
    res = transplant if transplant is not None else transplant_rayleigh(body, beta, K=K)
    report = VerificationReport(name="thm1")
    eq_tol = _equality_tol(res)

    dt = float(res.profile.ts[1] - res.profile.ts[0])
    tol_grid = grid_tolerance(dt)

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

    grad_body = res.numerator_body - beta * res.boundary_term_body
    grad_ball = res.numerator_ball - beta * res.boundary_term_ball
    report.add(
        description="gradient term: int phi'^2 P(body_t) <= int phi'^2 P(ball_t)",
        lhs=grad_body,
        rhs=grad_ball,
        residual=grad_ball - grad_body,
        passed=grad_body <= grad_ball + tol,
        equality=abs(grad_ball - grad_body) <= eq_tol,
    )
    report.add(
        description="transplanted quotient <= ball eigenvalue + tol",
        lhs=res.rq,
        rhs=res.lambda_ball,
        residual=res.lambda_ball + tol - res.rq,
        passed=res.rq <= res.lambda_ball + tol,
        equality=abs(res.lambda_ball - res.rq) <= eq_tol,
    )

    report.extras.update(
        {
            "beta": beta,
            "rq": res.rq,
            "lambda_ball": res.lambda_ball,
            "ball_radius": res.ball_radius,
            "body_perimeter": res.body_perimeter,
            "body_area": res.body_area,
            "inradius": res.profile.inradius,
            "equality_case": all(c.equality for c in report.checks),
            "boundary_term_identity": abs(res.boundary_term_body - res.boundary_term_ball),
            "equality_tol": eq_tol,
        }
    )
    return report


def thm2_verify(
    body: CapBody,
    beta: float,
    K: int = 4096,
    transplant: TransplantResult | None = None,
    fem_lambda: float | None = None,
    fem_rel_tol: float | None = None,
    tol: float = 1e-6,
) -> VerificationReport:
    """Quantitative stability pipeline: quotient against the volume-corrected bound.

    With c = u_min^2 / |u|_L2^2 and dV = |ball| - |body| it checks
    0 <= c dV < 1 and rq <= lambda_ball / (1 - c dV) + tol, and reports the
    implied stability lower bound c dV for (lambda_ball - lambda)/|lambda|.
    When a finite element estimate of the body eigenvalue is supplied, the
    estimated ratio is compared against c dV minus twice the calibrated
    tolerance of the estimate.
    """
    if beta >= 0.0:
        raise GeometryError(f"the comparison pipeline needs beta < 0, got {beta}")
    res = transplant if transplant is not None else transplant_rayleigh(body, beta, K=K)
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
        residual=bound + tol - res.rq,
        passed=res.rq <= bound + tol,
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

    if fem_lambda is not None:
        ratio = (res.lambda_ball - fem_lambda) / abs(fem_lambda)
        slack = 2.0 * (fem_rel_tol if fem_rel_tol is not None else 0.02)
        report.add(
            description="FEM stability ratio (lambda_ball - lambda_h)/|lambda_h| "
            ">= c dV - 2 * calibrated tolerance",
            lhs=ratio,
            rhs=cdv - slack,
            residual=ratio - (cdv - slack),
            passed=ratio >= cdv - slack,
        )
        report.extras["fem_lambda"] = fem_lambda
        report.extras["fem_ratio"] = ratio
    return report
