"""First Robin eigenvalue of a geodesic ball in S^n.

The radial eigenfunction psi of the ball of radius R solves the self-adjoint
problem

    -(sin^(n-1)(r) psi')' = lambda sin^(n-1)(r) psi  on (0, R),
    psi'(R) + beta psi(R) = 0,

with the symmetric weak form

    a(u, v) = int_0^R sin^(n-1)(r) u' v' dr + beta sin^(n-1)(R) u(R) v(R),
    m(u, v) = int_0^R sin^(n-1)(r) u v dr.

The weight vanishes at r = 0, so psi'(0) = 0 is natural and needs no basis
constraint. ``first_eigenvalue`` solves the pencil (a, m) once per basis size
on a Legendre-Galerkin basis in s = 2 r / R - 1 with Gauss-Legendre
quadrature, grows the basis until two sizes agree, and polishes the
eigenvalue with the Rayleigh quotient of its eigenvector. ``shoot`` is the
RK4 shooting residual of the same problem, kept as the independent test
oracle; the solver never calls it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre

from robinsphere.errors import GeometryError, SolverError
from robinsphere.spaceform import HALF_PI, sigma

# Taylor start offset of ``shoot`` past the cot(r) singularity; series error O(eps^4).
_SERIES_EPS = 1e-6

# Gauss-Legendre nodes beyond the basis size. The weight sin^(n-1) is entire
# and R <= pi/2, so 24 more nodes integrate its products with the basis to
# rounding.
_EXTRA_NODES = 24
# The basis starts at the smallest multiple of _STEP_SIZE that is at least
# _LAYER_SIZE sqrt(|beta| R) (for beta < 0 psi has a boundary layer of width
# 1 / |beta|), and grows by _STEP_SIZE until two consecutive sizes agree to
# _TOL (1 + |lambda|) plus _SCATTER times the rounding level of the Rayleigh
# quotient. Over n = 2, 3, R from 0.1 to pi/2 and beta from -600 to 1e16, that
# start was at most one step short of the smallest size that passes, and at
# most two steps over it. Over sizes 96 to 256, R from 0.3 to pi/2 and beta
# from -400 to -1, the quotients scattered by 34 to 65 times their rounding
# level.
_STEP_SIZE = 8
_LAYER_SIZE = 4.0
_TOL = 1e-12
_SCATTER = 100.0
# An accepted quotient whose rounding level exceeds this fraction of
# max(1, |lambda|) comes from a pencil too ill-conditioned for the agreement
# test to mean anything. Over n = 2, 3, R from 0.1 to pi/2 and beta from -600
# to 1.6e16 and tan R the largest fraction was 1.6e-12.
_MAX_ROUNDING = 1e-8
# Past this size a solve takes about 10 ms; the inputs that need it have
# |beta| R of several thousand.
_MAX_SIZE = 256
_EPS = float(np.finfo(float).eps)


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
    """First eigenvalue and radial eigenfunction from the Legendre-Galerkin solve.

    ``lam`` is the Rayleigh quotient of the lowest Galerkin eigenvector on
    ``basis_size`` basis functions, and ``error_estimate`` its distance from
    the same quotient on _STEP_SIZE fewer functions. psi is the Legendre
    series ``coef`` in s = 2 r / R - 1. It is monotone, and it is normalized
    so that the larger of psi(0) and psi(R) is 1. The Neumann case beta = 0
    is lambda = 0 exactly with psi = 1, one basis function and estimate 0.
    """

    lam: float
    radius: float
    coef: np.ndarray
    basis_size: int
    error_estimate: float

    def psi(self, r) -> np.ndarray:
        """psi at the radii r in [0, R]."""
        return legendre.legval(2.0 * np.asarray(r) / self.radius - 1.0, self.coef)

    def dpsi(self, r) -> np.ndarray:
        """psi' at the radii r in [0, R]."""
        s = 2.0 * np.asarray(r) / self.radius - 1.0
        return legendre.legval(s, legendre.legder(self.coef)) * (2.0 / self.radius)


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


class _Basis(NamedTuple):
    nodes: np.ndarray  # Gauss-Legendre nodes in s
    weights: np.ndarray
    vander: np.ndarray  # Legendre polynomials at the nodes
    values: np.ndarray  # basis functions at the nodes
    slopes: np.ndarray  # their s-derivatives at the nodes
    to_legendre: np.ndarray  # column k: Legendre coefficients of b_k


# sizes are 1 (beta = 0) and multiples of _STEP_SIZE up to _MAX_SIZE
@functools.lru_cache(maxsize=None)
def _basis(size: int) -> _Basis:
    """Gauss-Legendre rule and the first ``size`` basis functions on it, read-only.

    b_0 = 1 and b_k(s) = sqrt(k - 1/2) int_s^1 P_(k-1)(t) dt for k >= 1, so
    b_0 is the only function that is nonzero at s = 1 (r = R), and the
    derivatives -sqrt(k - 1/2) P_(k-1) are orthonormal on [-1, 1], the
    well-conditioned choice of Shen (SIAM J. Sci. Comput. 15, 1994).
    """
    s, wq = legendre.leggauss(size + _EXTRA_NODES)
    to_legendre = np.zeros((size, size))
    to_legendre[0, 0] = 1.0
    # int_s^1 P_j = (P_(j-1) - P_(j+1)) / (2j + 1), with P_(-1) read as P_0
    j = np.arange(size - 1)
    scale = np.sqrt(j + 0.5)
    to_legendre[np.maximum(j - 1, 0), j + 1] += scale / (2 * j + 1)
    to_legendre[j + 1, j + 1] -= scale / (2 * j + 1)
    vander = legendre.legvander(s, size - 1)
    slopes = np.zeros((len(s), size))
    slopes[:, 1:] = -vander[:, :-1] * scale
    basis = _Basis(s, wq, vander, vander @ to_legendre, slopes, to_legendre)
    for array in basis:
        array.setflags(write=False)
    return basis


def _radial_weights(basis: _Basis, R: float, n: int) -> np.ndarray:
    """Gauss weights of the basis times sin^(n-1) r at its nodes, r = R (1 + s) / 2."""
    return basis.weights * np.sin(0.5 * R * (1.0 + basis.nodes)) ** (n - 1)


def _extreme_vector(definite: np.ndarray, other: np.ndarray, lowest: bool) -> np.ndarray:
    """Eigenvector of the lowest or highest eigenvalue of the pencil (other, definite).

    The reduction of LAPACK's sygv: with definite = L L^T, the eigenvectors
    are L^(-T) y for the eigenvectors y of the symmetric L^(-1) other L^(-T).
    A ``definite`` that is not numerically positive definite raises
    ``LinAlgError``.
    """
    inv = np.linalg.inv(np.linalg.cholesky(definite))
    _, y = np.linalg.eigh(inv @ other @ inv.T)
    return inv.T @ y[:, 0 if lowest else -1]


def _galerkin(problem: RobinBallProblem, size: int) -> tuple[float, float, np.ndarray]:
    """Lowest eigenvalue of the pencil (a, m) on ``size`` basis functions.

    Returns the Rayleigh quotient of the eigenvector, its rounding level and
    the Legendre coefficients of psi. The quotient is accurate to rounding,
    while the eigenvalue from the solver carries errors of order eps times
    the largest eigenvalue. Its rounding level is eps (|x| |a| |x| + |lambda|
    |x| |m| |x|) / (x m x), with |.| taken entrywise: the coefficients of a
    steep boundary layer cancel, and it grows with |beta| R.
    """
    n, R, beta = problem.dim, problem.radius, problem.beta
    basis = _basis(size)
    w = _radial_weights(basis, R, n)
    m = (0.5 * R) * (basis.values.T * w) @ basis.values
    a = (2.0 / R) * (basis.slopes.T * w) @ basis.slopes
    # b_0 = 1 has no slope, so the boundary term is all of a's first row
    boundary = beta * math.sin(R) ** (n - 1)
    scale = 1.0
    if boundary <= 1.0:
        a[0, 0] = boundary
        definite, other, lowest = m, a, True
    else:
        # a is positive definite: take 1 / (largest eigenvalue of (m, a)). The
        # boundary unknown is scaled by boundary^(-1/2), so that its entry of
        # a is 1 and beta = tan(pi/2) ~ 1.6e16 does not swamp the factorisation.
        scale = 1.0 / math.sqrt(boundary)
        m[0, :] *= scale
        m[:, 0] *= scale
        a[0, 0] = 1.0
        definite, other, lowest = a, m, False
    try:
        x = _extreme_vector(definite, other, lowest)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"ball pencil at n = {n}, R = {R!r}, beta = {beta!r} on {size} basis "
            f"functions is not definite: {exc}"
        ) from None
    norm = x @ m @ x
    lam = (x @ a @ x) / norm
    ax = np.abs(x)
    rounding = _EPS * (ax @ np.abs(a) @ ax + abs(lam) * (ax @ np.abs(m) @ ax)) / norm
    x[0] *= scale
    return float(lam), float(rounding), basis.to_legendre @ x


def first_eigenvalue(problem: RobinBallProblem) -> RadialEigenpair:
    """Smallest Robin eigenvalue of the ball, with its radial eigenfunction.

    The basis grows by _STEP_SIZE from a start set by |beta| R until the
    Rayleigh quotients of two consecutive sizes agree to _TOL (1 + |lambda|)
    plus _SCATTER times the rounding level of the larger solve, which is
    then returned with that difference as its error estimate. A size past
    _MAX_SIZE is a ``SolverError``, and so are a pencil whose definite
    matrix has no Cholesky factor and an accepted quotient whose rounding
    level exceeds _MAX_ROUNDING max(1, |lambda|). So is a sign change of psi
    beyond its own error: the sum of the magnitudes of the changes of its Legendre
    coefficients between the two sizes, plus sqrt(eps), the accuracy to
    which a quotient at rounding level fixes an eigenvector. At R = pi/2,
    beta = tan R, psi(R) is at rounding level. The coefficient term is needed
    where psi(0) ~ e^(-|beta| R) lies below the eigenvector's accuracy: at
    n = 3, R = 1, beta = -400 psi(0) comes out as -6.2e-7, with a coefficient
    change of 1.4e-5.
    """
    R, beta = problem.radius, problem.beta
    if beta == 0.0:
        return RadialEigenpair(
            lam=0.0, radius=R, coef=np.ones(1), basis_size=1, error_estimate=0.0
        )

    layer = _LAYER_SIZE * math.sqrt(max(-beta, 0.0) * R)
    size = _STEP_SIZE * max(1, math.ceil(layer / _STEP_SIZE))
    previous = None
    while size <= _MAX_SIZE:
        lam, rounding, coef = _galerkin(problem, size)
        if previous is not None:
            estimate = abs(lam - previous)
            if estimate <= _TOL * (1.0 + abs(lam)) + _SCATTER * rounding:
                break
        previous, previous_coef = lam, coef
        size += _STEP_SIZE
    else:
        raise SolverError(
            f"lambda at n = {problem.dim}, R = {R!r}, beta = {beta!r} does not settle within "
            f"{_MAX_SIZE} basis functions"
        )

    if rounding > _MAX_ROUNDING * max(1.0, abs(lam)):
        raise SolverError(
            f"lambda at n = {problem.dim}, R = {R!r}, beta = {beta!r} on {size} basis "
            f"functions is not resolved: rounding level {rounding!r}"
        )
    coef = _unit_max(coef)
    change = coef.copy()
    change[: size - _STEP_SIZE] -= _unit_max(previous_coef)
    slack = np.abs(change).sum()
    lowest = min(np.min(_basis(size).vander @ coef), *_ends(coef))
    if lowest < -(slack + math.sqrt(_EPS)):
        raise SolverError(f"computed eigenfunction changes sign: psi = {lowest!r}")
    return RadialEigenpair(lam=lam, radius=R, coef=coef, basis_size=size, error_estimate=estimate)


def _ends(coef: np.ndarray) -> tuple[float, float]:
    """Values of a Legendre series at s = -1 and s = 1 (r = 0 and r = R)."""
    return float(coef[::2].sum() - coef[1::2].sum()), float(coef.sum())


def _unit_max(coef: np.ndarray) -> np.ndarray:
    """Legendre series scaled so that its end value of larger magnitude is 1."""
    left, right = _ends(coef)
    return coef / (left if abs(left) >= abs(right) else right)


def u_min_and_l2(pair: RadialEigenpair, problem: RobinBallProblem) -> tuple[float, float]:
    """Minimum of the eigenfunction and its squared L2 norm on the ball.

    psi is monotone, so its minimum is at r = 0 or r = R. The norm
    integrates psi^2 against the sphere's radial weight with the Gauss rule
    of the basis.
    """
    R = problem.radius
    basis = _basis(pair.basis_size)
    weight = _radial_weights(basis, R, problem.dim)
    l2sq = sigma(problem.dim) * 0.5 * R * float(weight @ (basis.vander @ pair.coef) ** 2)
    return min(_ends(pair.coef)), l2sq
