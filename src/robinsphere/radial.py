"""First Robin eigenvalue of a geodesic ball in S^n by shooting.

The radial reduction is the initial value problem

    psi'' + (n-1) cot(r) psi' + lambda psi = 0,   psi(0) = 1, psi'(0) = 0,

with boundary residual F(lambda) = psi'(R) + beta psi(R). Eigenvalues are
the roots of F; the first one is the smallest root, bracketed by a unit-step
scan from lambda = 0 and refined by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robinsphere.errors import GeometryError, SolverError
from robinsphere.spaceform import HALF_PI, sigma

# Taylor start offset past the cot(r) singularity; series error is O(eps^4).
_SERIES_EPS = 1e-6

_LAMBDA_LIMIT = 1.0e6
_SATURATION = 1e150

# cot tables keyed by (R, steps); the integration grid is lambda-independent.
_COT_CACHE: dict = {}


@dataclass(frozen=True)
class RobinBallProblem:
    """Geodesic ball Robin problem: dimension, radius in (0, pi/2], boundary parameter."""

    dim: int
    radius: float
    beta: float

    def __post_init__(self):
        if self.dim < 2:
            raise GeometryError(f"dim must be >= 2, got {self.dim}")
        # a non-finite beta never changes the sign of the boundary residual,
        # so the bracket scan would run to its limit
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
    the derivative samples from the same integration.
    """

    lam: float
    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    boundary_residual: float
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
        if len(_COT_CACHE) > 64:
            _COT_CACHE.clear()
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
        return math.copysign(1e300, p if abs(p) >= abs(y) else y)
    return p + problem.beta * y


def first_eigenvalue(
    problem: RobinBallProblem, steps: int = 4096, tol: float = 1e-10
) -> RadialEigenpair:
    """Smallest root of the boundary residual, with the eigenfunction samples.

    lambda = 0 solves the Neumann case exactly. For beta < 0 the bracket is
    expanded downward from 0 in unit steps, for beta > 0 upward; a strict
    sign change is required before bisection.
    """

    def f(lam: float) -> float:
        return shoot(problem, lam, steps)

    f0 = f(0.0)
    if f0 == 0.0:
        lam = 0.0
    else:
        direction = -1.0 if problem.beta < 0 else 1.0
        lo, flo = 0.0, f0
        lam = None
        k = 0
        while True:
            k += 1
            cand = direction * k
            if abs(cand) > _LAMBDA_LIMIT:
                raise SolverError(
                    f"no eigenvalue bracket within |lambda| <= {_LAMBDA_LIMIT}"
                )
            fc = f(cand)
            if fc == 0.0:
                lam = cand
                break
            if fc * flo < 0.0:
                hi, fhi = cand, fc
                break
            lo, flo = cand, fc
        if lam is None:
            while abs(hi - lo) > tol:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if fm * flo < 0.0:
                    hi, fhi = mid, fm
                else:
                    lo, flo = mid, fm
            lam = 0.5 * (lo + hi)

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
        lam=lam, grid=grid, psi=psi, dpsi=dpsi, boundary_residual=residual, steps=steps
    )


def u_min_and_l2(pair: RadialEigenpair, problem: RobinBallProblem) -> tuple[float, float]:
    """Minimum of the eigenfunction and its squared L2 norm on the ball.

    The norm integrates psi^2 against the sphere's radial weight by the
    trapezoid rule on the solver grid.
    """
    u_m = float(np.min(pair.psi))
    n = problem.dim
    weight = sigma(n) * np.sin(pair.grid) ** (n - 1)
    l2sq = float(np.trapezoid(pair.psi**2 * weight, pair.grid))
    return u_m, l2sq
