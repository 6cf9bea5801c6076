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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from robinsphere import capbody
from robinsphere.capbody import CapBody
from robinsphere.errors import GeometryError, SolverError

_BASE_SPACING = 0.2
_MIN_FULL_CIRCLE_POINTS = 16

# inverse iteration: relative residual target, iterations per start vector,
# and start vectors (the constant, then random ones)
_RESIDUAL_TOL = 1e-10
_MAX_ITER = 500
_RESTARTS = 3

_CALIBRATION_RADIUS = 1.0


@dataclass
class GeodesicMesh:
    """Fan-plus-subdivision triangulation of a cap body.

    vertices lie on the sphere; triangles are positively oriented index
    triples; boundary_edges carry exact arc lengths of the boundary pieces.
    """

    vertices: np.ndarray  # (N, 3)
    triangles: np.ndarray  # (M, 3) int
    boundary_edges: list[tuple[int, int, float]]
    h: float

    def dump(self) -> str:
        """Text format: 'v x y z', 'f i j k', 'b i j' with 1-based indices."""
        lines = []
        for v in self.vertices:
            lines.append(f"v {v[0]!r} {v[1]!r} {v[2]!r}")
        for t in self.triangles:
            lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
        for i, j, _ in self.boundary_edges:
            lines.append(f"b {i + 1} {j + 1}")
        return "\n".join(lines) + "\n"


@dataclass
class DiscreteEigResult:
    lambda_h: float
    refinement_level: int
    residual: float


def mesh_body(body: CapBody, level: int) -> GeodesicMesh:
    """Triangulate with boundary spacing ~ 2^(-level) * 0.2.

    The level-0 fan samples every boundary arc endpoint-inclusive (corners
    are preserved exactly through refinement); ``level`` rounds of midpoint
    subdivision follow.
    """
    if not 0 <= level <= 6:
        raise GeometryError(f"refinement level must lie in [0, 6], got {level}")
    bs = capbody.boundary_structure(body)
    center, _ = capbody.incenter_and_inradius(body)

    # sample each arc at thetas[:-1]; the dropped endpoint is the first point
    # of the next arc (polygon) or the wrap-around start (full circle)
    full_circle = not bs.vertices
    arc_segs = []
    arc_thetas = []
    for arc in bs.arcs:
        min_pts = _MIN_FULL_CIRCLE_POINTS if full_circle else 3
        segs = max(min_pts, int(math.ceil(arc.length / _BASE_SPACING)))
        arc_segs.append(segs)
        arc_thetas.append(np.linspace(arc.theta_start, arc.theta_end, segs + 1))

    vertices_list: list[np.ndarray] = [center]
    arc_offsets = []
    for arc, thetas in zip(bs.arcs, arc_thetas):
        arc_offsets.append(len(vertices_list))
        for th in thetas[:-1]:
            vertices_list.append(bs.arc_point(arc, float(th)))
    ring = list(range(1, len(vertices_list)))

    boundary: dict[tuple[int, int], tuple[int, float, float]] = {}
    for a_idx, (arc, thetas, segs) in enumerate(zip(bs.arcs, arc_thetas, arc_segs)):
        off = arc_offsets[a_idx]
        nxt_off = arc_offsets[(a_idx + 1) % len(bs.arcs)]
        for kk in range(segs):
            i = off + kk
            j = off + kk + 1 if kk + 1 < segs else nxt_off
            boundary[(i, j)] = (arc.cap, float(thetas[kk]), float(thetas[kk + 1]))

    tris = [(0, ring[kk], ring[(kk + 1) % len(ring)]) for kk in range(len(ring))]

    sin_rho = {i: math.sin(float(body.radii[i])) for i in range(len(body.radii))}

    def arclen(rec) -> float:
        cap_i, t0, t1 = rec
        return sin_rho[cap_i] * (t1 - t0)

    for _ in range(level):
        midpoint_of: dict[tuple[int, int], int] = {}
        new_boundary: dict[tuple[int, int], tuple[int, float, float]] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            idx = midpoint_of.get(key)
            if idx is not None:
                return idx
            rec = boundary.get((a, b)) or boundary.get((b, a))
            if rec is not None:
                cap_i, t0, t1 = rec
                tm = 0.5 * (t0 + t1)
                rho = float(body.radii[cap_i])
                u, v, n = capbody._tables(body).frames[cap_i]
                p = math.cos(rho) * n + math.sin(rho) * (
                    math.cos(tm) * u + math.sin(tm) * v
                )
            else:
                p = vertices_list[a] + vertices_list[b]
                p = p / np.linalg.norm(p)
            vertices_list.append(p)
            idx = len(vertices_list) - 1
            midpoint_of[key] = idx
            return idx

        new_tris = []
        for (a, b, c) in tris:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        for (a, b), rec in boundary.items():
            cap_i, t0, t1 = rec
            m = midpoint(a, b)
            tm = 0.5 * (t0 + t1)
            new_boundary[(a, m)] = (cap_i, t0, tm)
            new_boundary[(m, b)] = (cap_i, tm, t1)
        tris = new_tris
        boundary = new_boundary

    vertices = np.array(vertices_list)
    triangles = np.array(tris, dtype=int)

    # enforce positive orientation: det[p0, p1, p2] > 0
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    dets = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
    flip = dets < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    h = float(np.max(np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)))

    boundary_edges = [(a, b, arclen(rec)) for (a, b), rec in boundary.items()]
    return GeodesicMesh(
        vertices=vertices, triangles=triangles, boundary_edges=boundary_edges, h=h
    )


def _sharpest_corner_sine(mesh: GeodesicMesh) -> float:
    """sin(theta_min/2) over boundary corners, from the boundary edge chords."""
    nbrs: dict[int, list[int]] = {}
    for a, b, _ in mesh.boundary_edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    s_min = 1.0
    for v, adj in nbrs.items():
        if len(adj) != 2:
            continue
        e1 = mesh.vertices[adj[0]] - mesh.vertices[v]
        e2 = mesh.vertices[adj[1]] - mesh.vertices[v]
        c = float(e1 @ e2) / (float(np.linalg.norm(e1)) * float(np.linalg.norm(e2)))
        theta = math.acos(min(1.0, max(-1.0, c)))
        s_min = min(s_min, max(math.sin(0.5 * theta), 0.05))
    return s_min


def _assemble(mesh: GeodesicMesh):
    """Flat-facet stiffness and consistent mass, plus the boundary mass."""
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

    brows, bcols, bvals = [], [], []
    for a, b, ell in mesh.boundary_edges:
        for (i, j, w) in ((a, a, ell / 3.0), (b, b, ell / 3.0), (a, b, ell / 6.0), (b, a, ell / 6.0)):
            brows.append(i)
            bcols.append(j)
            bvals.append(w)
    B = coo_matrix((bvals, (brows, bcols)), shape=(n, n)).tocsc()
    return K, M, B


def assemble_and_solve(mesh: GeodesicMesh, beta: float, level: int = -1) -> DiscreteEigResult:
    """Smallest eigenvalue of (K + beta B) x = lambda M x.

    Shifted inverse iteration with the shift below the spectrum; the crude
    variational bound lambda <= beta P/|body| (constant test function) pinned
    down by -beta^2 keeps the shifted operator positive definite for the
    negative-beta range used here.
    """
    K, M, B = _assemble(mesh)
    A = (K + beta * B).tocsc()
    total_area = float(M.sum())
    total_perim = float(sum(ell for _, _, ell in mesh.boundary_edges))

    norm_a = float(np.max(np.abs(A).sum(axis=1)))
    norm_m = float(np.max(np.abs(M).sum(axis=1)))
    rng = np.random.default_rng(12345)

    def iterate(sigma_shift: float):
        lu = splu(csc_matrix(A - sigma_shift * M))
        n = A.shape[0]
        x = np.ones(n)
        for attempt in range(_RESTARTS):
            if attempt > 0:
                x = rng.standard_normal(n)
            x = x / math.sqrt(float(x @ (M @ x)))
            for _ in range(_MAX_ITER):
                y = lu.solve(M @ x)
                y = y / math.sqrt(float(y @ (M @ y)))
                lam = float(y @ (A @ y))
                r = A @ y - lam * (M @ y)
                scale = (norm_a + abs(lam) * norm_m) * float(np.linalg.norm(y)) + 1e-300
                resid = float(np.linalg.norm(r)) / scale
                x = y
                if resid <= _RESIDUAL_TOL:
                    return lam, resid
        raise SolverError("inverse iteration did not converge")

    # Start below the crude variational bound beta P / |body|, additionally
    # pinned down by the sharpest boundary corner: a corner of interior angle
    # theta carries modes near -beta^2 / sin^2(theta/2).
    corner = _sharpest_corner_sine(mesh)
    sigma_shift = (
        min(0.0, beta * total_perim / total_area)
        - 1.2 * beta * beta / (corner * corner)
        - 10.0
    )
    lam, resid = iterate(sigma_shift)
    for _ in range(8):
        if lam >= sigma_shift:
            break
        # shift landed inside the spectrum; descend below the found value
        sigma_shift = lam - max(1.0, abs(lam))
        lam, resid = iterate(sigma_shift)
    return DiscreteEigResult(lambda_h=lam, refinement_level=level, residual=resid)


def solve_body(body: CapBody, beta: float, level: int) -> DiscreteEigResult:
    """Mesh the body at the given level and solve."""
    mesh = mesh_body(body, level)
    return assemble_and_solve(mesh, beta, level=level)


def calibrated_ball_error(level: int, beta: float = -1.0) -> float:
    """Relative FEM error on the geodesic ball of radius _CALIBRATION_RADIUS.

    This is the self-calibrated oracle tolerance: the only reference with a
    trusted independent value (shooting) is the ball.
    """
    from robinsphere.radial import RobinBallProblem, first_eigenvalue

    pair = first_eigenvalue(RobinBallProblem(2, _CALIBRATION_RADIUS, beta))
    res = solve_body(capbody.cap_fixture(_CALIBRATION_RADIUS), beta, level)
    return abs(res.lambda_h - pair.lam) / abs(pair.lam)
