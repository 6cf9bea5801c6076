"""First Robin eigenvalue of a geodesic ball in S^n.

The radial reduction is the initial value problem

    psi'' + (n-1) cot(r) psi' + lambda psi = 0,   psi(0) = 1, psi'(0) = 0,

with boundary residual F(lambda) = psi'(R) + beta psi(R), evaluated by RK4
shooting on a fixed grid. Eigenvalues are the roots of F. The first one is
located in two stages: a Chebyshev collocation of the same problem gives an
estimate and the spectral gap, and a bracket grown around the estimate, never
wider than the gap, is polished to the root of F by Brent's method. lambda = 0
solves the Neumann case exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid
from scipy.linalg import eigvals
from scipy.optimize import brentq

from robinsphere.errors import GeometryError, SolverError
from robinsphere.spaceform import HALF_PI, sigma

# Taylor start offset past the cot(r) singularity; series error is O(eps^4).
_SERIES_EPS = 1e-6

_SATURATION = 1e150
# boundary residual reported for a saturated solution, with its sign
_SATURATED_RESIDUAL = 1e300

# Chebyshev collocation size of the estimate. For |beta| <= 20 (n = 2, 3 and
# R from 0.1 to pi/2) it is within 7e-10 (1 + |lambda|) of the RK4 root, so
# the first bracket below holds the root.
# It under-resolves the boundary layer of width ~1/|beta|: at beta = -100 it
# is 3.7e-5 (R = 1) to 1.6e-3 (R = pi/2) relative off, while the RK4 root moves
# by at most 4e-12 relative from 4096 to 16384 steps. The bracket growth
# covers that distance in a few shoots.
_CHEB_N = 32
# The bracket starts at lambda_0 +- _BRACKET_START (1 + |lambda_0|) and grows
# by _BRACKET_GROWTH on the side where the root lies.
_BRACKET_START = 1e-9
_BRACKET_GROWTH = 8.0

# cot tables keyed by (R, steps); the integration grid is lambda-independent.
# A corpus body or a ball-sweep round uses one radius, and each entry holds
# about 0.5 MB of Python floats, so only the latest few are kept.
_COT_CACHE: dict = {}
_COT_CACHE_SIZE = 4


@dataclass(frozen=True)
class RobinBallProblem:
    """Geodesic ball Robin problem: dimension, radius in (0, pi/2], boundary parameter."""

    dim: int
    radius: float
    beta: float

    def __post_init__(self):
        if self.dim < 2:
            raise GeometryError(f"dim must be >= 2, got {self.dim}")
        # a non-finite beta gives no finite boundary residual to find a root of
        if not math.isfinite(self.beta):
            raise GeometryError(f"beta must be finite, got {self.beta}")
        if not 0.0 < self.radius <= HALF_PI:
            raise GeometryError(
                f"radius {self.radius} outside (0, pi/2]: strong-convexity violation"
            )


@dataclass
class RadialEigenpair:
    """First eigenvalue with the radial eigenfunction sampled on the solver grid.

    ``psi`` is normalized to psi(0) = 1 and stays positive; ``dpsi`` carries
    the derivative samples from the same integration. ``shoots`` counts the
    boundary-residual evaluations of the bracket and the polish,
    ``lambda_spectral`` is the collocation estimate the bracket started from
    and ``bracket_halfwidth`` the final half-width around it; all three are 0
    in the Neumann case, which needs no search.
    """

    lam: float
    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    boundary_residual: float
    shoots: int
    lambda_spectral: float
    bracket_halfwidth: float
    steps: int = 4096

    @property
    def phi(self) -> np.ndarray:
        """Profile as a function of distance from the boundary: phi(rho) = psi(R - rho)."""
        return self.psi[::-1].copy()

    @property
    def rho_grid(self) -> np.ndarray:
        """Grid of distances from the boundary matching ``phi``."""
        return self.grid[-1] - self.grid[::-1]


def _grid_tables(radius: float, steps: int):
    key = (radius, steps)
    tab = _COT_CACHE.get(key)
    if tab is None:
        h = (radius - _SERIES_EPS) / steps
        rs = [_SERIES_EPS + i * h for i in range(steps + 1)]
        cot_full = [math.cos(r) / math.sin(r) for r in rs]
        cot_half = [
            math.cos(r + 0.5 * h) / math.sin(r + 0.5 * h) for r in rs[:-1]
        ]
        tab = (h, rs, cot_full, cot_half)
        if len(_COT_CACHE) >= _COT_CACHE_SIZE:
            del _COT_CACHE[next(iter(_COT_CACHE))]
        _COT_CACHE[key] = tab
    return tab


def _integrate(problem: RobinBallProblem, lam: float, steps: int, keep: bool):
    """March the IVP with classical RK4 on a fixed grid.

    Returns (psi_R, dpsi_R, samples) where samples is None unless ``keep``.
    On overflow the state is saturated and returned as-is.
    """
    n = problem.dim
    nm1 = float(n - 1)
    h, rs, cot_full, cot_half = _grid_tables(problem.radius, steps)

    y = 1.0 - lam * _SERIES_EPS * _SERIES_EPS / (2.0 * n)
    p = -lam * _SERIES_EPS / n
    ys = [y] if keep else None
    ps = [p] if keep else None

    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(steps):
        c0 = nm1 * cot_full[i]
        ch = nm1 * cot_half[i]
        c1 = nm1 * cot_full[i + 1]

        k1y = p
        k1p = -c0 * p - lam * y
        y2 = y + h2 * k1y
        p2 = p + h2 * k1p
        k2y = p2
        k2p = -ch * p2 - lam * y2
        y3 = y + h2 * k2y
        p3 = p + h2 * k2p
        k3y = p3
        k3p = -ch * p3 - lam * y3
        y4 = y + h * k3y
        p4 = p + h * k3p
        k4y = p4
        k4p = -c1 * p4 - lam * y4

        y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        p = p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        if abs(y) > _SATURATION or abs(p) > _SATURATION:
            if keep:
                ys.extend([y] * (steps - i))
                ps.extend([p] * (steps - i))
            break
        if keep:
            ys.append(y)
            ps.append(p)

    return y, p, (rs, ys, ps) if keep else None


def shoot(problem: RobinBallProblem, lam: float, steps: int = 4096) -> float:
    """Boundary residual F(lambda) = psi'(R) + beta psi(R).

    Overflowing solutions are reported as a saturated residual carrying the
    sign of the blown-up branch.
    """
    y, p, _ = _integrate(problem, lam, steps, keep=False)
    if abs(y) >= _SATURATION or abs(p) >= _SATURATION:
        return math.copysign(_SATURATED_RESIDUAL, p if abs(p) >= abs(y) else y)
    return p + problem.beta * y


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points x_j = cos(j pi / n) and the differentiation matrix on them.

    Trefethen, Spectral Methods in MATLAB (2000), program cheb.m.
    """
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return d - np.diag(d.sum(axis=1)), x


def _spectral_estimate(problem: RobinBallProblem) -> tuple[float, float]:
    """The two smallest eigenvalues of a Chebyshev collocation of the radial problem.

    Collocates sin r psi'' + (n-1) cos r psi' = -lambda sin r psi at _CHEB_N + 1
    Chebyshev points of [0, R]. The row at r = 0 is the equation itself,
    which there reads psi'(0) = 0. The row at r = R is the Robin condition
    psi'(R) + beta psi(R) = 0 with a zero right-hand side, scaled by
    1 + |beta| so that beta = tan(pi/2) ~ 1.6e16 does not swamp the QZ step.
    The two zero rows of the right-hand side give infinite eigenvalues;
    the finite real ones are kept.
    """
    d, x = _chebyshev(_CHEB_N)
    R = problem.radius
    r = 0.5 * R * (1.0 + x)  # r[0] = R, r[-1] = 0
    dr = (2.0 / R) * d
    sin_r = np.sin(r)
    a = -(sin_r[:, None] * (dr @ dr) + (problem.dim - 1) * np.cos(r)[:, None] * dr)
    b = np.diag(sin_r)
    a[0] = dr[0]
    a[0, 0] += problem.beta
    a[0] /= 1.0 + abs(problem.beta)
    b[0, 0] = 0.0
    ev = eigvals(a, b)
    # LAPACK returns a real eigenvalue of a real pencil with imaginary part exactly 0
    ev = np.sort(ev[np.isfinite(ev) & (ev.imag == 0.0)].real)
    if len(ev) < 2:
        raise SolverError(f"spectral estimate found {len(ev)} real eigenvalues, need 2")
    return float(ev[0]), float(ev[1])


def first_eigenvalue(problem: RobinBallProblem, steps: int = 4096) -> RadialEigenpair:
    """Smallest root of the boundary residual, with the eigenfunction samples.

    lambda = 0 solves the Neumann case exactly and needs no shoot. Otherwise
    ``_spectral_estimate`` gives lambda_0 and the next eigenvalue lambda_1. The
    bracket lambda_0 +- d starts at d = _BRACKET_START (1 + |lambda_0|) and
    grows by _BRACKET_GROWTH until the residual changes sign, but d never
    exceeds (lambda_1 - lambda_0) / 2, so the bracket holds one root only.
    Brent's method then finds the root of the same discrete residual that
    ``shoot`` evaluates, to 1e-13, and the root is taken from below. A
    saturated residual at either side of it means RK4 overflowed there, and
    is rejected. A final pass keeps the samples, and a sign change of psi
    rejects a misidentified root.
    """
    values: dict[float, float] = {}

    def f(lam: float) -> float:
        if lam not in values:
            values[lam] = shoot(problem, lam, steps)
        return values[lam]

    if problem.beta == 0.0:
        lam = lam0 = half = 0.0
    else:
        lam0, lam1 = _spectral_estimate(problem)
        cap = 0.5 * (lam1 - lam0)
        half = min(_BRACKET_START * (1.0 + abs(lam0)), cap)
        lo, hi = lam0 - half, lam0 + half
        while f(lo) * f(hi) > 0.0:
            if half >= cap:
                raise SolverError(
                    f"no sign change of the boundary residual within half the "
                    f"spectral gap {cap!r} of the estimate {lam0!r}"
                )
            half = min(_BRACKET_GROWTH * half, cap)
            # F > 0 below the first root and F < 0 between it and the next one,
            # so the common sign tells on which side of the bracket the root is
            if f(hi) > 0.0:
                lo, hi = hi, lam0 + half
            else:
                lo, hi = lam0 - half, lo
        brentq(f, lo, hi, xtol=1e-13)
        # brentq stops with two evaluated points at most 1e-13 + 4 eps |lambda|
        # apart around the root. Take the one below it, where F >= 0: with
        # psi' < 0 at R for beta > 0, psi(R) = (F - psi'(R)) / beta is then
        # positive even when it is at the rounding level (beta = tan(pi/2)).
        lam = max(x for x, v in values.items() if v >= 0.0)
        above = min(x for x in values if x > lam)
        # For |beta| R above about 340 the solution saturates below the root,
        # and F changes sign where it first reaches _SATURATION: Brent's
        # method then converges on that jump, not on the eigenvalue.
        if _SATURATED_RESIDUAL in (abs(values[lam]), abs(values[above])):
            raise SolverError(
                f"boundary residual saturated next to the root {lam!r}: "
                f"RK4 with {steps} steps cannot resolve beta = {problem.beta!r}"
            )

    y, p, samples = _integrate(problem, lam, steps, keep=True)
    rs, ys, ps = samples
    grid = np.concatenate(([0.0], np.asarray(rs)))
    psi = np.concatenate(([1.0], np.asarray(ys)))
    dpsi = np.concatenate(([0.0], np.asarray(ps)))
    residual = p + problem.beta * y
    if np.min(psi) <= 0.0:
        raise SolverError(
            "computed eigenfunction changes sign; smallest root misidentified"
        )
    return RadialEigenpair(
        lam=lam,
        grid=grid,
        psi=psi,
        dpsi=dpsi,
        boundary_residual=residual,
        shoots=len(values),
        lambda_spectral=lam0,
        bracket_halfwidth=half,
        steps=steps,
    )


def u_min_and_l2(pair: RadialEigenpair, problem: RobinBallProblem) -> tuple[float, float]:
    """Minimum of the eigenfunction and its squared L2 norm on the ball.

    The norm integrates psi^2 against the sphere's radial weight by the
    trapezoid rule on the solver grid.
    """
    u_m = float(np.min(pair.psi))
    n = problem.dim
    weight = sigma(n) * np.sin(pair.grid) ** (n - 1)
    l2sq = float(trapezoid(pair.psi**2 * weight, x=pair.grid))
    return u_m, l2sq
