"""Piecewise-linear Rayleigh-Ritz oracle for the Robin eigenvalue on a cap body.

Triangulates the body by a fan from the incenter to a boundary polyline and
refines by edge-midpoint subdivision (interior midpoints projected to the
sphere, boundary midpoints to their cap circle). Each level numbers its
edges from its parent's without sorting, and a mesh keeps its coarser
levels. Facets are flat embedded triangles, so the metric is approximated to
O(h^2) -- adequate for an oracle whose tolerance is self-calibrated against
geodesic balls.

The discrete problem is (K + beta B) x = lambda M x with the consistent mass
M, the cotangent-free flat stiffness K, and the 1-D consistent boundary mass
B built from exact arc lengths. K, M and B share one CSC sparsity pattern
per mesh, the diagonal and both directions of every edge, so K + beta B and
A - sigma M are sums of value arrays.

The smallest eigenvalue comes from nested iteration. Levels 0 and 1 are
solved dense. Every second level after them up to the requested one runs
shifted inverse iteration (one LU solve and 2 sparse products per step) with
the shift just below the next coarser level's value; after the first such
level the iteration starts from the coarser eigenvector, interpolated
linearly. The inertia of the LU
factor certifies the shift (Sylvester's law): with symmetric pivoting, the
negative pivots count the eigenvalues below it. No negative pivot, or one
together with a converged value below the shift, proves that the value found
is the smallest; any other shift is lowered and refactored.
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

# The shift sits below the coarser level's value by the larger of a share of
# the coarse spectral gap and a multiple of the last change between levels;
# each refused shift multiplies that drop by _DROP_GROWTH, at most
# _MAX_FACTORISATIONS times per level.
_GAP_SHARE = 0.05
_CHANGE_MULTIPLE = 2.0
_DROP_GROWTH = 4.0
_MAX_FACTORISATIONS = 8

_CALIBRATION_RADIUS = 1.0


@dataclass
class GeodesicMesh:
    """Fan-plus-subdivision triangulation of a cap body at one refinement level.

    vertices lie on the sphere; triangles are positively oriented index
    triples; boundary_edges run along the boundary, and boundary_lengths are
    their exact arc lengths. level counts the midpoint subdivisions of the
    fan. edges lists every undirected edge once; triangle_edges holds the
    edge ids of each triangle's sides ab, bc and ca, and boundary_edges is
    edges[boundary_edge_ids]. coarser is the mesh one level down (None at
    level 0): its vertices are the first vertices of this one.
    """

    vertices: np.ndarray  # (N, 3)
    triangles: np.ndarray  # (M, 3) int
    boundary_edges: np.ndarray  # (B, 2) int
    boundary_lengths: np.ndarray  # (B,)
    level: int
    edges: np.ndarray  # (E, 2) int
    triangle_edges: np.ndarray  # (M, 3) int
    boundary_edge_ids: np.ndarray  # (B,) int
    coarser: GeodesicMesh | None


@dataclass
class DiscreteEigResult:
    """Smallest discrete eigenvalue and how it was found.

    iterations and factorisations are summed over the levels of the nested
    iteration (both 0 when the level is solved dense); shift is the accepted
    shift at the finest level (None when dense). certified is True when the
    inertia count, or the whole dense spectrum, proves lambda_h is the
    smallest eigenvalue of the pencil.
    """

    lambda_h: float
    refinement_level: int
    residual: float
    iterations: int = 0
    factorisations: int = 0
    shift: float | None = None
    certified: bool = False


def mesh_body(body: CapBody, level: int) -> GeodesicMesh:
    """Triangulate with boundary spacing ~ 2^(-level) * 0.2.

    The level-0 fan samples every boundary arc endpoint-inclusive (corners
    are preserved exactly through refinement); ``level`` rounds of midpoint
    subdivision follow. Triangles are positively oriented by construction:
    the fan follows the counterclockwise boundary arcs (body on their left),
    and subdivision keeps the orientation of each parent.

    The midpoint of edge e = (a, b) becomes vertex N + e. Edge e splits into
    the child edges 2e = (a, mid) and 2e + 1 = (mid, b), and triangle k adds
    the interior edges 2E + 3k + {0, 1, 2}, so no level sorts its edges.
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
    # edge k < r is the spoke from the center to ring[k], edge r + k the
    # boundary edge from ring[k] to the next ring vertex
    r = len(caps)
    k = np.arange(r)
    ring, hub = k + 1, np.zeros(r, dtype=k.dtype)
    following = np.roll(ring, -1)
    triangles = np.stack([hub, ring, following], axis=1)
    edges = np.concatenate([np.stack([hub, ring], axis=1), np.stack([ring, following], axis=1)])
    tedges = np.stack([k, r + k, np.roll(k, -1)], axis=1)
    bids = r + k

    def level_mesh(lev, coarser):
        return GeodesicMesh(
            vertices=vertices,
            triangles=triangles,
            boundary_edges=edges[bids],
            boundary_lengths=np.sin(bs.radii[caps]) * (t1 - t0),
            level=lev,
            edges=edges,
            triangle_edges=tedges,
            boundary_edge_ids=bids,
            coarser=coarser,
        )

    mesh = level_mesh(0, None)
    for lev in range(1, level + 1):
        n, ne = len(vertices), len(edges)
        a, b = edges.T
        mids = vertices[a] + vertices[b]
        # a dot product per row rounds like np.linalg.norm of one vector
        mids /= np.sqrt(mids[:, None, :] @ mids[:, :, None])[:, 0]
        # boundary midpoints sit on their cap circle instead
        tm = 0.5 * (t0 + t1)
        mids[bids] = bs.circle_points(caps, tm)
        vertices = np.vstack([vertices, mids])

        # side s of a triangle runs from its vertex s to the next; head[:, s]
        # is the half of that side's edge at its start, tail[:, s] the half at
        # its end
        reversed_side = edges[tedges, 0] != triangles
        head = 2 * tedges + reversed_side
        tail = 4 * tedges + 1 - head
        ab, bc, ca = (n + tedges).T
        A, B, C = triangles.T
        triangles = np.stack([A, ab, ca, ab, B, bc, ca, bc, C, ab, bc, ca], axis=1).reshape(-1, 3)
        # interior edge 3k + 0, 1, 2 of triangle k joins mids ab-bc, bc-ca, ca-ab
        inner = 2 * ne + 3 * np.arange(len(tedges))
        i0, i1, i2 = inner, inner + 1, inner + 2
        tedges = np.stack(
            [
                head[:, 0], i2, tail[:, 2],
                tail[:, 0], head[:, 1], i0,
                i1, tail[:, 1], head[:, 2],
                i0, i1, i2,
            ],
            axis=1,
        ).reshape(-1, 3)
        m = n + np.arange(ne)
        edges = np.concatenate(
            [
                np.stack([a, m, m, b], axis=1).reshape(-1, 2),
                np.stack([ab, bc, bc, ca, ca, ab], axis=1).reshape(-1, 2),
            ]
        )
        bids = np.stack([2 * bids, 2 * bids + 1], axis=1).ravel()
        caps = np.repeat(caps, 2)
        t0, t1 = np.stack([t0, tm], axis=1).ravel(), np.stack([tm, t1], axis=1).ravel()
        mesh = level_mesh(lev, mesh)
    return mesh


def splu(a):
    """SuperLU factor of the symmetric CSC matrix a with symmetric pivoting.

    The columns are ordered by minimum degree on A^T + A, the ordering for a
    symmetric pattern; SymmetricMode applies it to the rows too, and
    diag_pivot_thresh=0 takes every pivot on the diagonal unless it is zero.
    Then perm_r equals perm_c and the signs of U's diagonal give the inertia
    of a. On P1 pencils this ordering fills about a fifth less than COLAMD
    and factors about a third faster.
    """
    from scipy.sparse.linalg import splu as superlu

    return superlu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


def _assemble(mesh: GeodesicMesh):
    """Flat-facet stiffness and consistent mass, plus the boundary mass.

    The three CSC matrices share one index pattern: the diagonal and both
    directions of every mesh edge. Each value is a bincount over triangle
    corners or edge ids.
    """
    from scipy.sparse import coo_matrix, csc_matrix

    v = mesh.vertices
    t = mesh.triangles
    te = mesh.triangle_edges
    n, ne = len(v), len(mesh.edges)

    # pattern slot s < n is the diagonal entry (s, s); n + e and n + E + e are
    # the entries (a, b) and (b, a) of edge e = (a, b). One conversion sorts
    # the slots, and slot[p] is the slot at CSC position p.
    a, b = mesh.edges.T
    diag = np.arange(n)
    labels = coo_matrix(
        (
            np.arange(1.0, n + 2 * ne + 1.0),
            (np.concatenate([diag, a, b]), np.concatenate([diag, b, a])),
        ),
        shape=(n, n),
    ).tocsc()
    slot = labels.data.astype(np.intp) - 1

    def on_pattern(diag_values, edge_values):
        values = np.concatenate([diag_values, edge_values, edge_values])[slot]
        return csc_matrix((values, labels.indices, labels.indptr), shape=(n, n))

    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    e0 = p2 - p1  # opposite vertex 0
    e1 = p0 - p2
    e2 = p1 - p0
    normal = np.cross(e2, -e1)
    double_area = np.linalg.norm(normal, axis=1)
    area = 0.5 * double_area

    # K_ij = <e_i, e_j> / (4 A) with e_i the edge opposite vertex i; sides
    # ab, bc and ca join the vertex pairs (0, 1), (1, 2) and (2, 0)
    es = np.stack([e0, e1, e2], axis=1)
    gram = np.einsum("mik,mjk->mij", es, es) / (4.0 * area)[:, None, None]
    k_diag = gram[:, [0, 1, 2], [0, 1, 2]]
    k_side = gram[:, [0, 1, 2], [1, 2, 0]]
    corners, sides = t.ravel(), te.ravel()
    K = on_pattern(
        np.bincount(corners, weights=k_diag.ravel(), minlength=n),
        np.bincount(sides, weights=k_side.ravel(), minlength=ne),
    )
    M = on_pattern(
        np.bincount(corners, weights=np.repeat(area / 6.0, 3), minlength=n),
        np.bincount(sides, weights=np.repeat(area / 12.0, 3), minlength=ne),
    )

    ell = mesh.boundary_lengths
    B = on_pattern(
        np.bincount(mesh.boundary_edges.ravel(), weights=np.repeat(ell / 3.0, 2), minlength=n),
        np.bincount(mesh.boundary_edge_ids, weights=ell / 6.0, minlength=ne),
    )
    return K, M, B


def _pencil(mesh: GeodesicMesh, beta: float):
    """(A, M) with A = K + beta B, both on the mesh's pattern."""
    K, M, B = _assemble(mesh)
    K.data += beta * B.data
    return K, M


def _max_row_sum(a) -> float:
    """Infinity norm of the symmetric CSC matrix a (its column sums)."""
    return float(np.max(np.add.reduceat(np.abs(a.data), a.indptr[:-1])))


def _residual(ay, my, y, lam, norm_a, norm_m) -> float:
    """Relative residual of (lam, y) for an M-normalised y, from A y and M y."""
    scale = (norm_a + abs(lam) * norm_m) * float(np.linalg.norm(y)) + 1e-300
    return float(np.linalg.norm(ay - lam * my)) / scale


def _shifted_iteration(a, m, sigma, norm_a, norm_m, x):
    """Factor A - sigma M, count its negative pivots and iterate if that allows.

    Returns (nu, lam, resid, steps, y). nu is the number of eigenvalues below
    sigma, or None when the pivoting was not symmetric and the factor counts
    nothing. Inverse iteration from x runs when nu is 0 or 1 and stops at the
    residual tolerance or at the step limit, with y the last M-normalised
    iterate; otherwise no step runs, lam and resid are NaN and y is x.
    """
    from scipy.sparse import csc_matrix

    lu = splu(csc_matrix((a.data - sigma * m.data, a.indices, a.indptr), shape=a.shape))
    nu = None
    if np.array_equal(lu.perm_r, lu.perm_c):
        nu = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    if nu not in (0, 1):
        return nu, math.nan, math.nan, 0, x

    mx = m @ x
    rhs = mx / math.sqrt(float(x @ mx))
    for step in range(1, _MAX_ITER + 1):
        # M y is computed once and rescaled with y; it is the next right-hand side
        y = lu.solve(rhs)
        my = m @ y
        s = math.sqrt(float(y @ my))
        y /= s
        my /= s
        ay = a @ y
        lam = float(y @ ay)
        resid = _residual(ay, my, y, lam, norm_a, norm_m)
        if resid <= _RESIDUAL_TOL:
            break
        rhs = my
    return nu, lam, resid, step, y


def _solve_level(mesh: GeodesicMesh, beta: float, guess: float, drop: float, start):
    """Certified smallest eigenvalue at one level, shifted below ``guess``.

    Returns (lam, resid, steps, factorisations, sigma, y); every attempt
    iterates from ``start``. The shift guess - drop is accepted when the
    factor proves that no eigenvalue (nu = 0), or exactly one (nu = 1) that
    the iteration converged to, lies below it; otherwise the drop grows and
    the pencil is refactored.
    """
    a, m = _pencil(mesh, beta)
    norm_a, norm_m = _max_row_sum(a), _max_row_sum(m)
    steps = 0
    for factorisations in range(1, _MAX_FACTORISATIONS + 1):
        sigma = guess - drop
        nu, lam, resid, n_steps, y = _shifted_iteration(a, m, sigma, norm_a, norm_m, start)
        steps += n_steps
        converged = resid <= _RESIDUAL_TOL
        if nu == 0 and not converged:
            raise SolverError(
                f"inverse iteration did not converge at level {mesh.level}, beta {beta}: "
                f"shift {sigma}, nu {nu}, residual {resid} after {n_steps} steps"
            )
        if nu == 0 or (nu == 1 and converged and lam < sigma):
            return lam, resid, steps, factorisations, sigma, y
        drop *= _DROP_GROWTH
    raise SolverError(
        f"no certified shift in {_MAX_FACTORISATIONS} factorisations at level {mesh.level}, "
        f"beta {beta}: last shift {sigma}, nu {nu}, residual {resid}"
    )


def assemble_and_solve(mesh: GeodesicMesh, beta: float) -> DiscreteEigResult:
    """Smallest eigenvalue of (K + beta B) x = lambda M x, by nested iteration.

    Levels 0 and 1 are solved dense and give lambda_1, lambda_2 and a first
    change between levels. Every second level from there up to mesh.level
    (3, 5, ... or 2, 4, ...) is shifted by
    lambda_prev - max(0.05 (lambda_2 - lambda_1), 2 |last change|) and
    certified by the inertia of its factor. The first of these levels
    iterates from the constant vector, each later one from the coarser
    eigenvector interpolated at the edge midpoints. Each coarse factor is
    released before the next level is factored.
    """
    # LAPACK's sygv: Cholesky of M, then the symmetric eigensolve
    from scipy.linalg import eigh

    if mesh.level <= 1:
        a, m = _pencil(mesh, beta)
        w, x = eigh(a.toarray(), m.toarray(), subset_by_index=[0, 0])
        lam, x = float(w[0]), x[:, 0]
        resid = _residual(a @ x, m @ x, x, lam, _max_row_sum(a), _max_row_sum(m))
        return DiscreteEigResult(
            lambda_h=lam, refinement_level=mesh.level, residual=resid, certified=True
        )

    chain = [mesh]
    while chain[-1].coarser is not None:
        chain.append(chain[-1].coarser)
    chain.reverse()
    w0, w1 = (
        eigh(*(x.toarray() for x in _pencil(coarse, beta)), eigvals_only=True)
        for coarse in chain[:2]
    )
    gap = float(w1[1] - w1[0])
    lam, change = float(w1[0]), float(w1[0] - w0[0])
    steps = factorisations = 0
    first = 2 + mesh.level % 2
    y = np.ones(len(chain[first].vertices))
    for level in range(first, mesh.level + 1, 2):
        if level > first:
            # the coarser eigenvector, interpolated linearly at the edge
            # midpoints, starts the iteration
            for coarse in chain[level - 2 : level]:
                a, b = coarse.edges.T
                y = np.concatenate([y, 0.5 * (y[a] + y[b])])
        drop = max(_GAP_SHARE * gap, _CHANGE_MULTIPLE * abs(change))
        lam_level, resid, n_steps, n_fact, sigma, y = _solve_level(
            chain[level], beta, lam, drop, y
        )
        steps += n_steps
        factorisations += n_fact
        lam, change = lam_level, lam_level - lam
    return DiscreteEigResult(
        lambda_h=lam,
        refinement_level=mesh.level,
        residual=resid,
        iterations=steps,
        factorisations=factorisations,
        shift=sigma,
        certified=True,
    )


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
