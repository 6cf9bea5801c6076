"""Legendre-Galerkin oracle for the radial Robin eigenvalue of a geodesic ball.

An independent method for ``robinsphere.radial.first_eigenvalue``: the
pencil of the symmetric weak form

    a(u, v) = int_0^R sin^(n-1)(r) u' v' dr + beta sin^(n-1)(R) u(R) v(R),
    m(u, v) = int_0^R sin^(n-1)(r) u v dr

on Shen's integrated-Legendre basis in s = 2 r / R - 1 (b_0 = 1, b_k =
sqrt(k - 1/2) int_s^1 P_(k-1), so only b_0 is nonzero at r = R) with
Gauss-Legendre quadrature. The basis grows by STEP until the Rayleigh
quotients of two consecutive sizes agree. Each pencil is solved by the
reduction of LAPACK's sygv in numpy, or by scipy's subset ``eigh``. A
pencil that is not definite, a quotient at too high a rounding level and a
sign change of psi are a ``SolverError``. Steep boundary layers need large
bases, and for |beta| R above about 40 psi(0) is rounding noise.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigh

from robinsphere.errors import SolverError

# 24 quadrature nodes beyond the basis size integrate the entire weight
# sin^(n-1) times products of basis functions to rounding for R <= pi/2.
EXTRA_NODES = 24
# The basis starts at the smallest multiple of STEP that is at least
# LAYER sqrt(|beta| R), grows by STEP, and stops when two consecutive
# quotients agree to TOL (1 + |lambda|) plus SCATTER times the rounding
# level of the quotient.
STEP = 8
LAYER = 4.0
TOL = 1e-12
SCATTER = 100.0
MAX_SIZE = 256
MAX_ROUNDING = 1e-8
_EPS = float(np.finfo(float).eps)


class Basis(NamedTuple):
    nodes: np.ndarray  # Gauss-Legendre nodes in s
    weights: np.ndarray
    vander: np.ndarray  # Legendre polynomials at the nodes
    values: np.ndarray  # basis functions at the nodes
    slopes: np.ndarray  # their s-derivatives at the nodes
    to_legendre: np.ndarray  # column k: Legendre coefficients of b_k


class GalerkinPair(NamedTuple):
    lam: float
    estimate: float  # change of lambda from the next smaller basis
    size: int
    coef: np.ndarray  # Legendre series of psi in s, larger end value 1


@functools.lru_cache(maxsize=None)
def basis(size: int) -> Basis:
    s, wq = legendre.leggauss(size + EXTRA_NODES)
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
    return Basis(s, wq, vander, vander @ to_legendre, slopes, to_legendre)


def radial_weights(b: Basis, R: float, n: int) -> np.ndarray:
    """Gauss weights times sin^(n-1) r at the nodes, r = R (1 + s) / 2."""
    return b.weights * np.sin(0.5 * R * (1.0 + b.nodes)) ** (n - 1)


def extreme_vector(definite: np.ndarray, other: np.ndarray, lowest: bool) -> np.ndarray:
    """Eigenvector of the lowest or highest eigenvalue of the pencil (other, definite).

    The reduction of LAPACK's sygv: with definite = L L^T, the eigenvectors
    are L^(-T) y for the eigenvectors y of the symmetric L^(-1) other L^(-T).
    A ``definite`` that is not numerically positive definite raises
    ``LinAlgError``.
    """
    inv = np.linalg.inv(np.linalg.cholesky(definite))
    _, y = np.linalg.eigh(inv @ other @ inv.T)
    return inv.T @ y[:, 0 if lowest else -1]


def scipy_extreme_vector(definite: np.ndarray, other: np.ndarray, lowest: bool) -> np.ndarray:
    """The same eigenvector by scipy's subset eigh."""
    k = 0 if lowest else len(definite) - 1
    return eigh(other, definite, subset_by_index=[k, k])[1][:, 0]


def galerkin(problem, size: int, solve=extreme_vector) -> tuple[float, float, np.ndarray]:
    """Rayleigh quotient of the lowest eigenvector on ``size`` basis functions,
    its rounding level, and the Legendre coefficients of psi.

    The rounding level is eps (|x| |a| |x| + |lambda| |x| |m| |x|) / (x m x),
    with |.| taken entrywise.
    """
    n, R, beta = problem.dim, problem.radius, problem.beta
    b = basis(size)
    w = radial_weights(b, R, n)
    m = (0.5 * R) * (b.values.T * w) @ b.values
    a = (2.0 / R) * (b.slopes.T * w) @ b.slopes
    # b_0 = 1 has no slope, so the boundary term is all of a's first row
    boundary = beta * math.sin(R) ** (n - 1)
    scale = 1.0
    if boundary <= 1.0:
        a[0, 0] = boundary
        definite, other, lowest = m, a, True
    else:
        # 1 / (largest eigenvalue of (m, a)), with the boundary unknown scaled
        # so that beta = tan(pi/2) does not swamp the factorisation
        scale = 1.0 / math.sqrt(boundary)
        m[0, :] *= scale
        m[:, 0] *= scale
        a[0, 0] = 1.0
        definite, other, lowest = a, m, False
    try:
        x = solve(definite, other, lowest)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pencil on {size} basis functions is not definite: {exc}") from None
    norm = x @ m @ x
    lam = (x @ a @ x) / norm
    ax = np.abs(x)
    rounding = _EPS * (ax @ np.abs(a) @ ax + abs(lam) * (ax @ np.abs(m) @ ax)) / norm
    x[0] *= scale
    return float(lam), float(rounding), b.to_legendre @ x


def ends(coef: np.ndarray) -> tuple[float, float]:
    """Values of a Legendre series at s = -1 and s = 1 (r = 0 and r = R)."""
    return float(coef[::2].sum() - coef[1::2].sum()), float(coef.sum())


def unit_max(coef: np.ndarray) -> np.ndarray:
    """Legendre series scaled so that its end value of larger magnitude is 1."""
    left, right = ends(coef)
    return coef / (left if abs(left) >= abs(right) else right)


def first_eigenvalue(problem) -> GalerkinPair:
    """Grow the basis until two sizes agree.

    A size past MAX_SIZE, a pencil that is not definite, a quotient whose
    rounding level exceeds MAX_ROUNDING max(1, |lambda|) and a sign change
    of psi beyond the change of its coefficients between the last two sizes
    (plus sqrt(eps)) are a ``SolverError``.
    """
    R, beta = problem.radius, problem.beta
    layer = LAYER * math.sqrt(max(-beta, 0.0) * R)
    size = STEP * max(1, math.ceil(layer / STEP))
    previous = None
    while True:
        if size > MAX_SIZE:
            raise SolverError(f"does not settle within {MAX_SIZE} basis functions")
        lam, rounding, coef = galerkin(problem, size)
        if previous is not None:
            estimate = abs(lam - previous)
            if estimate <= TOL * (1.0 + abs(lam)) + SCATTER * rounding:
                break
        previous, previous_coef = lam, coef
        size += STEP
    if rounding > MAX_ROUNDING * max(1.0, abs(lam)):
        raise SolverError(f"not resolved on {size} basis functions: rounding level {rounding!r}")
    coef = unit_max(coef)
    change = coef.copy()
    change[: size - STEP] -= unit_max(previous_coef)
    lowest = min(np.min(basis(size).vander @ coef), *ends(coef))
    if lowest < -(np.abs(change).sum() + math.sqrt(_EPS)):
        raise SolverError(f"computed eigenfunction changes sign: psi = {lowest!r}")
    return GalerkinPair(lam, estimate, size, coef)


def u_min_and_l2(pair: GalerkinPair, problem) -> tuple[float, float]:
    """min(psi(0), psi(R)) and int_0^R psi^2 sin^(n-1) r dr by the basis's Gauss rule."""
    b = basis(pair.size)
    weight = radial_weights(b, problem.radius, problem.dim)
    radial = 0.5 * problem.radius * float(weight @ (b.vander @ pair.coef) ** 2)
    return min(ends(pair.coef)), radial


def psi(pair: GalerkinPair, radius: float, r) -> np.ndarray:
    return legendre.legval(2.0 * np.asarray(r) / radius - 1.0, pair.coef)


def dpsi(pair: GalerkinPair, radius: float, r) -> np.ndarray:
    s = 2.0 * np.asarray(r) / radius - 1.0
    return legendre.legval(s, legendre.legder(pair.coef)) * (2.0 / radius)
