"""Piecewise-linear Rayleigh-Ritz oracle for the Robin eigenvalue on a cap body.

Triangulates the body by a fan from the incenter to a boundary polyline and
refines by edge-midpoint subdivision (interior midpoints projected to the
sphere, boundary midpoints to their cap circle). Facets are flat embedded
triangles, so the metric is approximated to O(h^2) -- adequate for an oracle
whose tolerance is self-calibrated against geodesic balls.

The discrete problem is (K + beta B) x = lambda M x with the consistent mass
M, the cotangent-free flat stiffness K, and the 1-D consistent boundary mass
B built from exact arc lengths. The smallest eigenvalue is extracted by
shifted inverse iteration with the shift placed safely below the spectrum.
scipy.sparse is imported at the first assembly, so a process that solves no
FEM problem never loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from robinsphere import capbody
from robinsphere.capbody import CapBody
from robinsphere.errors import GeometryError, SolverError
from robinsphere.radial import RobinBallProblem, first_eigenvalue

_BASE_SPACING = 0.2
_MIN_FULL_CIRCLE_POINTS = 16

# inverse iteration from the constant vector: relative residual target and
# iteration limit
_RESIDUAL_TOL = 1e-10
_MAX_ITER = 500

_CALIBRATION_RADIUS = 1.0


@dataclass
class GeodesicMesh:
    """Fan-plus-subdivision triangulation of a cap body at one refinement level.

    vertices lie on the sphere; triangles are positively oriented index
    triples; boundary_edges run along the boundary, and boundary_lengths are
    their exact arc lengths. level counts the midpoint subdivisions of the
    fan. corner_sine is sin(theta/2) at the sharpest boundary corner of
    interior angle theta (1 without corners), at least 0.05.
    """

    vertices: np.ndarray  # (N, 3)
    triangles: np.ndarray  # (M, 3) int
    boundary_edges: np.ndarray  # (B, 2) int
    boundary_lengths: np.ndarray  # (B,)
    level: int
    corner_sine: float


@dataclass
class DiscreteEigResult:
    lambda_h: float
    refinement_level: int
    residual: float


def _edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """One integer per undirected edge: lo * n + hi."""
    lo, hi = np.sort(pairs, axis=1).T
    return lo * n + hi


def mesh_body(body: CapBody, level: int) -> GeodesicMesh:
    """Triangulate with boundary spacing ~ 2^(-level) * 0.2.

    The level-0 fan samples every boundary arc endpoint-inclusive (corners
    are preserved exactly through refinement); ``level`` rounds of midpoint
    subdivision follow. Triangles are positively oriented by construction:
    the fan follows the counterclockwise boundary arcs (body on their left),
    and subdivision keeps the orientation of each parent.
    """
    if not 0 <= level <= 6:
        raise GeometryError(f"refinement level must lie in [0, 6], got {level}")
    bs = body.structure
    center, _ = body.incircle

    # boundary edge i lies on circle caps[i] between angles t0[i] and t1[i]; arc
    # endpoints are shared with the next arc (polygon) or wrap (full circle)
    min_pts = 3 if bs.vertices else _MIN_FULL_CIRCLE_POINTS
    caps, t0, t1 = [], [], []
    for arc in bs.arcs:
        segs = max(min_pts, int(math.ceil(arc.length / _BASE_SPACING)))
        thetas = np.linspace(arc.theta_start, arc.theta_end, segs + 1)
        caps.append(np.full(segs, arc.cap))
        t0.append(thetas[:-1])
        t1.append(thetas[1:])
    caps, t0, t1 = np.concatenate(caps), np.concatenate(t0), np.concatenate(t1)
    vertices = np.vstack([center, bs.circle_points(caps, t0)])
    ring = np.arange(1, len(vertices))
    bedges = np.stack([ring, np.roll(ring, -1)], axis=1)
    triangles = np.stack([np.zeros_like(ring), ring, np.roll(ring, -1)], axis=1)

    for _ in range(level):
        n = len(vertices)
        # one midpoint per undirected edge (ab, bc, ca of every triangle)
        keys, inverse = np.unique(
            _edge_keys(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), n),
            return_inverse=True,
        )
        a, b = np.divmod(keys, n)
        mids = vertices[a] + vertices[b]
        # a dot product per row rounds like np.linalg.norm of one vector
        mids /= np.sqrt(mids[:, None, :] @ mids[:, :, None])[:, 0]
        # boundary midpoints sit on their cap circle instead
        slot = np.searchsorted(keys, _edge_keys(bedges, n))
        tm = 0.5 * (t0 + t1)
        mids[slot] = bs.circle_points(caps, tm)
        vertices = np.vstack([vertices, mids])

        ab, bc, ca = (n + inverse.reshape(-1, 3)).T
        A, B, C = triangles.T
        triangles = np.stack([A, ab, ca, ab, B, bc, ca, bc, C, ab, bc, ca], axis=1).reshape(-1, 3)
        m = n + slot
        bedges = np.stack([bedges[:, 0], m, m, bedges[:, 1]], axis=1).reshape(-1, 2)
        caps = np.repeat(caps, 2)
        t0, t1 = np.stack([t0, tm], axis=1).ravel(), np.stack([tm, t1], axis=1).ravel()

    # a corner of exterior angle ext has interior angle theta = pi - ext
    corner = min((math.cos(0.5 * v.exterior_angle) for v in bs.vertices), default=1.0)
    return GeodesicMesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=bedges,
        boundary_lengths=np.sin(bs.radii[caps]) * (t1 - t0),
        level=level,
        corner_sine=max(0.05, corner),
    )


def splu(a):
    """SuperLU factorisation of the sparse matrix a."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(a)


def _assemble(mesh: GeodesicMesh):
    """Flat-facet stiffness and consistent mass, plus the boundary mass."""
    from scipy.sparse import coo_matrix

    v = mesh.vertices
    t = mesh.triangles
    n = len(v)

    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    e0 = p2 - p1  # opposite vertex 0
    e1 = p0 - p2
    e2 = p1 - p0
    normal = np.cross(e2, -e1)
    double_area = np.linalg.norm(normal, axis=1)
    area = 0.5 * double_area

    # K_ij = <e_i, e_j> / (4 A) with e_i the edge opposite vertex i
    es = [e0, e1, e2]
    rows, cols, kvals, mvals = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            kvals.append(np.einsum("ij,ij->i", es[i], es[j]) / (4.0 * area))
            mvals.append(area / (6.0 if i == j else 12.0))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    K = coo_matrix((np.concatenate(kvals), (rows, cols)), shape=(n, n)).tocsc()
    M = coo_matrix((np.concatenate(mvals), (rows, cols)), shape=(n, n)).tocsc()

    a, b = mesh.boundary_edges.T
    ell = mesh.boundary_lengths
    bvals = np.concatenate([ell / 3.0, ell / 3.0, ell / 6.0, ell / 6.0])
    bidx = (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))
    B = coo_matrix((bvals, bidx), shape=(n, n)).tocsc()
    return K, M, B


def assemble_and_solve(mesh: GeodesicMesh, beta: float) -> DiscreteEigResult:
    """Smallest eigenvalue of (K + beta B) x = lambda M x.

    Shifted inverse iteration with the shift below the spectrum; the crude
    variational bound lambda <= beta P/|body| (constant test function) pinned
    down by -beta^2 keeps the shifted operator positive definite for the
    negative-beta range used here.
    """
    K, M, B = _assemble(mesh)
    A = K + beta * B
    total_area = float(M.sum())
    total_perim = float(mesh.boundary_lengths.sum())

    norm_a = float(np.max(np.abs(A).sum(axis=1)))
    norm_m = float(np.max(np.abs(M).sum(axis=1)))

    def iterate(sigma_shift: float):
        lu = splu(A - sigma_shift * M)
        x = np.ones(A.shape[0])
        my = M @ (x / math.sqrt(float(x @ (M @ x))))
        for _ in range(_MAX_ITER):
            # M y of this step is the right-hand side of the next
            y = lu.solve(my)
            y = y / math.sqrt(float(y @ (M @ y)))
            ay, my = A @ y, M @ y
            lam = float(y @ ay)
            r = ay - lam * my
            scale = (norm_a + abs(lam) * norm_m) * float(np.linalg.norm(y)) + 1e-300
            resid = float(np.linalg.norm(r)) / scale
            if resid <= _RESIDUAL_TOL:
                return lam, resid
        raise SolverError("inverse iteration did not converge")

    # Start below the crude variational bound beta P / |body|, additionally
    # pinned down by the sharpest boundary corner: a corner of interior angle
    # theta carries modes near -beta^2 / sin^2(theta/2).
    sigma_shift = (
        min(0.0, beta * total_perim / total_area)
        - 1.2 * beta * beta / (mesh.corner_sine * mesh.corner_sine)
        - 10.0
    )
    lam, resid = iterate(sigma_shift)
    for _ in range(8):
        if lam >= sigma_shift:
            break
        # shift landed inside the spectrum; descend below the found value
        sigma_shift = lam - max(1.0, abs(lam))
        lam, resid = iterate(sigma_shift)
    return DiscreteEigResult(lambda_h=lam, refinement_level=mesh.level, residual=resid)


def solve_body(body: CapBody, beta: float, level: int) -> DiscreteEigResult:
    """Mesh the body at the given level and solve."""
    return assemble_and_solve(mesh_body(body, level), beta)


@functools.lru_cache(maxsize=None)
def calibrated_ball_error(level: int, beta: float = -1.0) -> float:
    """Relative FEM error on the geodesic ball of radius _CALIBRATION_RADIUS.

    This is the self-calibrated oracle tolerance: the only reference with a
    trusted independent value (the hypergeometric radial series) is the ball.
    """
    pair = first_eigenvalue(RobinBallProblem(2, _CALIBRATION_RADIUS, beta))
    res = solve_body(capbody.cap_fixture(_CALIBRATION_RADIUS), beta, level)
    return abs(res.lambda_h - pair.lam) / abs(pair.lam)
