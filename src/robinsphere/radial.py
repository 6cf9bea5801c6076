"""First Robin eigenvalue of a geodesic ball in S^n.

The radial eigenfunction psi of the ball of radius R solves

    -(sin^(n-1)(r) psi')' = lambda sin^(n-1)(r) psi  on (0, R),
    psi'(R) + beta psi(R) = 0,

and the solution regular at r = 0 is the zonal hypergeometric series
psi = 2F1(a, b; n/2; z), z = sin^2(r/2), a + b = n - 1, ab = -lambda (DLMF
15.2). With z_R = sin^2(R/2) its terms at r = R are t_0 = 1,
t_(k+1) = t_k c_k, c_k = z_R (k (k + n - 1) - lambda) / ((k + 1)(k + n/2)),
and psi(R) = S0 = sum t_k, tan(R/2) psi'(R) = S1 = sum k t_k. One pass also
carries the lambda-derivatives d_k of the terms, d_(k+1) = c_k d_k - t_k
z_R / ((k + 1)(k + n/2)), which never divides by k (k + n - 1) - lambda (0 at
lambda = 2, the cos r eigenfunction of beta = tan R).

``first_eigenvalue`` finds lambda by Newton's method on

* g = psi'/psi (R) + beta for beta <= 0. Below the first Dirichlet
  eigenvalue g is concave and decreasing in lambda (psi'/psi is a
  Mittag-Leffler sum over the Dirichlet spectrum), so Newton from a point
  right of the root falls to it monotonically. The start is
  -(|beta| + (n - 1) cot(R)/2)^2, the boundary-layer value of psi'/psi, and
  every iterate is clipped to -beta^2, an upper bound of lambda (psi'/psi
  < sqrt(-lambda) there). Here every term is positive: the sums have no
  cancellation.
* h = psi(R) + psi'(R) / beta for beta > 0, which has no pole at the
  Dirichlet eigenvalue. h is an entire function of order 1/2 in lambda
  whose zeros are the positive Robin eigenvalues, so Newton from lambda = 0
  rises to the smallest zero monotonically.

Newton stops at the first iterate whose root function lies within its own
rounding level, (number of terms) eps times the magnitude of its parts,
and takes that iterate's step; ``error_estimate`` is the step plus the
rounding level over the slope. The series stops past its largest term
(|c_k| < 1) at the first term that changes S1 and D1 by less than eps/4
of them: from there on the ratios settle toward z_R <= 1/2, so the tail
adds a few times the last term, below the rounding level of the sums.
For lambda < 0 the sums grow like e^(|beta| R); they are rescaled past
1e250 (_RESCALE), and a series longer than _MAX_TERMS is refused.

``shoot`` is the RK4 shooting residual of the same problem, kept as an
independent test oracle; the solver never calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robinsphere.errors import GeometryError, SolverError
from robinsphere.spaceform import HALF_PI, sigma

# Taylor start offset of ``shoot`` past the cot(r) singularity; series error O(eps^4).
_SERIES_EPS = 1e-6

_EPS = float(np.finfo(float).eps)
# For lambda < 0 the sums grow like e^(|beta| R) and would overflow a double
# once |beta| R passes about 700. Past 1e250 every running sum is divided
# by 1e250. One term multiplies the last by at most |lambda| z_R, well
# below the 1e58 of headroom left for any lambda the term limit admits.
_RESCALE = 1e250
# The largest term sits near k = sqrt(-lambda) tan(R/2), about |beta|
# tan(R/2), and for |beta| >= 1e4 the series stops at 1.03 to 1.16 times
# that. The limit admits |beta| tan(R/2) up to about 9e4, where a solve
# takes 0.1 s and the rounding bound, terms times eps, is 2e-11 relative;
# `ball-eig --r 1 --beta=-1e6` would need about 5.5e5 terms.
_MAX_TERMS = 100_000
# Newton converges monotonically, in at most 9 evaluations over n = 2, 3, 5,
# R from 0.1 to pi/2 and beta from -600 to 1e8 and tan R, and n = 5, 10 at
# R = 1e-6, 1e-3 and beta = 1e12, 1.6e16. More only happen when the root
# function's noise exceeds its stated rounding level.
_MAX_NEWTON = 30
# For beta > 0 the terms alternate in sign up to k ~ sqrt(lambda), and for a
# near-Dirichlet ball in high dimension they cancel: at n = 200, R = 0.5,
# beta = 1e16 the rounding bound is a fifth of lambda. A root whose bound
# exceeds sqrt(eps) (1 + |lambda|) has lost half its digits and is not
# returned; over the grid above the largest bound is 1.2e-12 (1 + |lambda|).
_HALF_DIGITS = math.sqrt(_EPS)


@dataclass(frozen=True)
class RobinBallProblem:
    """Geodesic ball Robin problem: dimension, radius in (0, pi/2], boundary parameter."""

    dim: int
    radius: float
    beta: float

    def __post_init__(self):
        if self.dim < 2:
            raise GeometryError(f"dim must be >= 2, got {self.dim}")
        # a non-finite beta gives no finite boundary form to solve with
        if not math.isfinite(self.beta):
            raise GeometryError(f"beta must be finite, got {self.beta}")
        if not 0.0 < self.radius <= HALF_PI:
            raise GeometryError(
                f"radius {self.radius} outside (0, pi/2]: strong-convexity violation"
            )


@dataclass(frozen=True)
class RadialEigenpair:
    """First eigenvalue and radial eigenfunction from the hypergeometric series.

    psi(r) = sum coef[k] u^k in u = sin^2(r/2) / sin^2(R/2), normalized so
    that the larger of psi(0) = coef[0] and psi(R) = sum coef is 1; psi is
    monotone. ``norm_sq`` is int_0^R psi^2 sin^(n-1) r dr, from the Lagrange
    identity int_0^R psi^2 w dr = -w(R) (psi d_lambda psi' - psi' d_lambda psi)(R),
    w = sin^(n-1) r. The Neumann case beta = 0 is lambda = 0 exactly with
    psi = 1 and estimate 0.
    """

    lam: float
    radius: float
    coef: np.ndarray
    error_estimate: float
    norm_sq: float

    @property
    def terms(self) -> int:
        """Number of series terms summed."""
        return len(self.coef)

    def _u(self, r) -> np.ndarray:
        return np.sin(0.5 * np.asarray(r, dtype=float)) ** 2 / math.sin(0.5 * self.radius) ** 2

    def psi(self, r) -> np.ndarray:
        """psi at the radii r in [0, R]."""
        return _horner(self.coef, self._u(r))

    def dpsi(self, r) -> np.ndarray:
        """psi' at the radii r in [0, R]: du/dr = sin(r) / (2 sin^2(R/2))."""
        slopes = self.coef[1:] * np.arange(1, self.terms)
        du = np.sin(np.asarray(r, dtype=float)) / (2.0 * math.sin(0.5 * self.radius) ** 2)
        return _horner(slopes, self._u(r)) * du


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum coef[k] u^k; 0 for no coefficients."""
    acc = np.zeros(np.shape(u))
    for c in coef[::-1].tolist():
        acc *= u
        acc += c
    return acc


def shoot(problem: RobinBallProblem, lam: float, steps: int = 4096) -> float:
    """Boundary residual F(lambda) = psi'(R) + beta psi(R) of RK4 shooting.

    Marches psi'' + (n-1) cot(r) psi' + lambda psi = 0 with classical RK4 on
    a fixed grid from a two-term Taylor start at r = 1e-6; the eigenvalues
    are the roots of F. The test oracle of ``first_eigenvalue``: for
    |beta| R above about 340 psi overflows before the first root.
    """
    n = problem.dim
    R = problem.radius
    h = (R - _SERIES_EPS) / steps
    rs = _SERIES_EPS + h * np.arange(steps + 1)
    c_full = ((n - 1) / np.tan(rs)).tolist()
    c_half = ((n - 1) / np.tan(rs[:-1] + 0.5 * h)).tolist()

    y = 1.0 - lam * _SERIES_EPS * _SERIES_EPS / (2.0 * n)
    p = -lam * _SERIES_EPS / n
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(steps):
        c0, ch, c1 = c_full[i], c_half[i], c_full[i + 1]
        k1y, k1p = p, -c0 * p - lam * y
        y2, p2 = y + h2 * k1y, p + h2 * k1p
        k2y, k2p = p2, -ch * p2 - lam * y2
        y3, p3 = y + h2 * k2y, p + h2 * k2p
        k3y, k3p = p3, -ch * p3 - lam * y3
        y4, p4 = y + h * k3y, p + h * k3p
        k4y, k4p = p4, -c1 * p4 - lam * y4
        y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        p = p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
    return p + problem.beta * y


def _series(problem: RobinBallProblem, z: float, lam: float):
    """Sums of the series at r = R and their lambda-derivatives.

    Returns S0, S1, D0 = dS0/dlambda, D1 = dS1/dlambda and the terms t_k, all
    scaled alike by a power of 1 / _RESCALE; terms recorded before a
    rescale are scaled here to the final level.
    """
    m, half, tiny = problem.dim - 1, 0.5 * problem.dim, 0.25 * _EPS
    t, d = 1.0, 0.0
    s0, s1, d0, d1 = 1.0, 0.0, 0.0, 0.0
    terms = [1.0]
    cuts = []
    for k in range(1, _MAX_TERMS):
        e = z / (k * (k - 1 + half))
        c = e * ((k - 1) * (k - 1 + m) - lam)
        d = c * d - e * t
        t *= c
        terms.append(t)
        kt, kd = k * t, k * d
        s0 += t
        s1 += kt
        d0 += d
        d1 += kd
        if abs(kt) <= tiny * abs(s1) and abs(kd) <= tiny * abs(d1) and abs(c) < 1.0:
            break
        if s0 > _RESCALE:
            t, d, s0, s1, d0, d1 = (x / _RESCALE for x in (t, d, s0, s1, d0, d1))
            cuts.append(len(terms))
    else:
        raise SolverError(
            f"the series at n = {problem.dim}, R = {problem.radius!r}, beta = {problem.beta!r} "
            f"needs more than {_MAX_TERMS} terms"
        )
    terms = np.array(terms)
    for cut in cuts:
        terms[:cut] /= _RESCALE
    return s0, s1, d0, d1, terms


def first_eigenvalue(problem: RobinBallProblem) -> RadialEigenpair:
    """Smallest Robin eigenvalue of the ball, with its radial eigenfunction.

    Newton on g (beta <= 0) or h (beta > 0), see the module docstring. A
    series past _MAX_TERMS terms (|beta| tan(R/2) above about 9e4), a
    non-finite Newton step, more than _MAX_NEWTON evaluations and a
    rounding bound above _HALF_DIGITS (1 + |lambda|) are a ``SolverError``,
    and so is a radius whose sin^2(R/2) underflows.
    """
    n, R, beta = problem.dim, problem.radius, problem.beta
    z = math.sin(0.5 * R) ** 2
    if z == 0.0:
        raise SolverError(f"radius {R!r} is too small: sin^2(R/2) underflows")
    cot = 1.0 / math.tan(0.5 * R)
    if beta > 0.0:
        lam, top = 0.0, math.inf
    else:
        top = -beta * beta
        layer = 0.5 * (n - 1) / math.tan(R) - beta
        lam = min(-layer * layer, top)
    for _ in range(_MAX_NEWTON):
        s0, s1, d0, d1, terms = _series(problem, z, lam)
        if beta > 0.0:
            f = s0 + cot * s1 / beta
            slope = d0 + cot * d1 / beta
            size = np.abs(terms)
            parts = size.sum() + cot * (size @ np.arange(len(size))) / beta
            level = len(terms) * _EPS * float(parts)
        else:
            # every term is positive: the sums are their own magnitudes
            ratio = s1 / s0
            f = cot * ratio + beta
            slope = cot * (d1 - ratio * d0) / s0
            level = len(terms) * _EPS * (cot * ratio - beta)
        step = -f / slope
        if not math.isfinite(step):
            raise SolverError(
                f"lambda at n = {n}, R = {R!r}, beta = {beta!r}: the series gives the "
                f"non-finite Newton step {step!r} at lambda = {lam!r}"
            )
        if abs(f) <= level:
            break
        lam = min(lam + step, top)
    else:
        raise SolverError(
            f"lambda at n = {n}, R = {R!r}, beta = {beta!r} does not settle within "
            f"{_MAX_NEWTON} Newton steps"
        )

    rounding = level / abs(slope)
    if rounding > _HALF_DIGITS * (1.0 + abs(lam)):
        raise SolverError(
            f"lambda at n = {n}, R = {R!r}, beta = {beta!r} is not resolved: the series "
            f"cancels to a rounding bound of {rounding!r}"
        )
    # psi(0) = 1 is the larger end for beta > 0, psi(R) = S0 for beta <= 0
    scale = 1.0 if beta > 0.0 else s0
    wronskian = cot * ((s0 / scale) * (d1 / scale) - (s1 / scale) * (d0 / scale))
    return RadialEigenpair(
        lam=lam + step,
        radius=R,
        coef=terms / scale,
        error_estimate=abs(step) + rounding,
        norm_sq=-math.sin(R) ** (n - 1) * wronskian,
    )


def u_min_and_l2(pair: RadialEigenpair, problem: RobinBallProblem) -> tuple[float, float]:
    """Minimum of the eigenfunction and its squared L2 norm on the ball.

    psi is monotone, so its minimum is at r = 0 or r = R; the norm is
    sigma_n times the radial integral ``norm_sq``.
    """
    return min(float(pair.coef[0]), float(pair.coef.sum())), sigma(problem.dim) * pair.norm_sq
