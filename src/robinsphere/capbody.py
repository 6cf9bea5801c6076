"""Strongly convex bodies on S^2 as finite intersections of geodesic caps.

A cap is {p : <p, pole> >= cos(rho)} with rho in (0, pi/2]. Intersections of
caps are closed under inner parallels (every radius shrinks by t), which
makes perimeter profiles exact rather than approximate. Boundary structure,
perimeter (sum of circle arcs) and area (Gauss-Bonnet) are all closed form.

Conventions:
  * bodies are closed sets, membership uses non-strict inequalities;
  * each cap circle is parameterized as
        c_i(theta) = cos(rho_i) n_i + sin(rho_i) (cos(theta) u_i + sin(theta) v_i)
    with (u_i, v_i, n_i) right-handed, so increasing theta walks the circle
    counterclockwise with the cap on the left;
  * tangential (measure-zero) configurations are rejected, never perturbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import optimize

from robinsphere.errors import (
    DegenerateGeometryError,
    EmptyInteriorError,
    GeometryError,
)
from robinsphere.spaceform import HALF_PI

TWO_PI = 2.0 * math.pi

_TANGENCY_TOL = 1e-10
_FEAS_TOL = 1e-11


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / n


def _clamp(x: float) -> float:
    return min(1.0, max(-1.0, x))


@dataclass(frozen=True)
class CapConstraint:
    """One geodesic cap: unit pole and geodesic radius rho in (0, pi/2]."""

    pole: tuple[float, float, float]
    rho: float

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.pole))
        if abs(norm - 1.0) > 1e-12:
            raise GeometryError(f"cap pole must be unit to 1e-12, |pole| = {norm}")
        if not 0.0 < self.rho <= HALF_PI:
            raise GeometryError(f"cap radius {self.rho} outside (0, pi/2]")

    @property
    def pole_array(self) -> np.ndarray:
        return np.asarray(self.pole, dtype=float)


@dataclass(frozen=True)
class CapBody:
    """Intersection of finitely many geodesic caps."""

    constraints: tuple[CapConstraint, ...]

    def __post_init__(self):
        if len(self.constraints) == 0:
            raise GeometryError("a body needs at least one cap constraint")

    @property
    def poles(self) -> np.ndarray:
        return np.array([c.pole for c in self.constraints], dtype=float)

    @property
    def radii(self) -> np.ndarray:
        return np.array([c.rho for c in self.constraints], dtype=float)


def make_body(poles, radii) -> CapBody:
    caps = tuple(
        CapConstraint(tuple(float(x) for x in _unit(p)), float(r))
        for p, r in zip(poles, radii)
    )
    return CapBody(caps)


def cap_fixture(radius: float, pole=(0.0, 0.0, 1.0)) -> CapBody:
    """A single geodesic cap (the ball fixture)."""
    return make_body([pole], [radius])


def octant_fixture() -> CapBody:
    """The positive octant: three hemisphere constraints about the axes."""
    return make_body(np.eye(3), [HALF_PI] * 3)


# ---------------------------------------------------------------------------
# cached per-pole-set trigonometry
#
# Inner parallels reuse the poles of the parent body, so the circle frames
# and all pairwise scalar products are cached keyed by the pole matrix.
#
# Cap j restricts circle i to A_ij cos(theta - t0_ij) >= c_ij with
#     A_ij = sin(rho_i) |(U_ij, V_ij)|,  t0_ij = atan2(V_ij, U_ij),
#     c_ij = cos(rho_j) - cos(rho_i) G_ij,
# so only A and c depend on the radii. Pair tables are stored as (k, k-1)
# arrays whose row i lists the other caps j != i in increasing order.

_TABLE_CACHE: dict = {}


class _PoleTables:
    __slots__ = ("frames", "k", "others", "sources", "G", "U", "V", "H", "t0")

    def __init__(self, poles: np.ndarray):
        k = len(poles)
        us = np.empty((k, 3))
        vs = np.empty((k, 3))
        ref_z = np.array([0.0, 0.0, 1.0])
        ref_x = np.array([1.0, 0.0, 0.0])
        for i in range(k):
            ref = ref_x if abs(poles[i] @ ref_z) > 0.9 else ref_z
            us[i] = _unit(np.cross(poles[i], ref))
            vs[i] = np.cross(poles[i], us[i])
        self.k = k
        self.frames = [(us[i], vs[i], poles[i]) for i in range(k)]
        self.others = np.array(
            [[j for j in range(k) if j != i] for i in range(k)], dtype=np.intp
        ).reshape(k, k - 1)
        rows = np.arange(k)[:, None]
        self.G = (poles @ poles.T)[rows, self.others]
        self.U = (us @ poles.T)[rows, self.others]
        self.V = (vs @ poles.T)[rows, self.others]
        self.H = np.hypot(self.U, self.V)
        self.t0 = np.arctan2(self.V, self.U)
        # source cap of each crossing slot: the t0 - delta crossings, then t0 + delta
        self.sources = np.concatenate([self.others, self.others], axis=1)


def _tables(body: CapBody) -> _PoleTables:
    key = body.poles.tobytes()
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _PoleTables(body.poles)
        if len(_TABLE_CACHE) > 256:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[key] = tab
    return tab


# ---------------------------------------------------------------------------
# membership and distances


def contains(body: CapBody, p, tol: float = 1e-12) -> bool:
    """Closed membership: <p, pole_i> >= cos(rho_i) for every cap."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(body.poles @ p >= np.cos(body.radii) - tol))


def _margin(body: CapBody, p) -> float:
    dots = np.clip(body.poles @ p, -1.0, 1.0)
    return float(np.min(body.radii - np.arccos(dots)))


def distance_to_boundary(body: CapBody, p) -> float:
    """Distance from an interior/boundary point to the boundary.

    Equals the smallest slack min_i (rho_i - d(p, pole_i)): every cap contains
    the geodesic ball of that radius around p, and the touching point of the
    tightest cap lies on the body boundary.
    """
    p = _unit(p)
    if not contains(body, p, tol=1e-9):
        raise GeometryError("point lies outside the body")
    return _margin(body, p)


def inner_parallel(body: CapBody, t: float, inradius_hint: float | None = None) -> CapBody:
    """Inner parallel set: the same poles with every radius reduced by t."""
    if t < 0.0:
        raise GeometryError(f"parallel distance must be nonnegative, got {t}")
    if t == 0.0:
        return body
    rin = inradius(body) if inradius_hint is None else inradius_hint
    if t >= rin:
        raise EmptyInteriorError(
            f"inner parallel at t = {t} >= inradius {rin} has empty interior"
        )
    return make_body(body.poles, body.radii - t)


# ---------------------------------------------------------------------------
# boundary structure


@dataclass
class BoundaryArc:
    """Feasible sub-arc of one cap circle, traversed counterclockwise."""

    cap: int
    theta_start: float
    theta_end: float  # > theta_start; may exceed 2*pi for wrapping arcs
    start_source: int | None  # constraint active at the start vertex
    end_source: int | None
    length: float = 0.0
    geodesic_curvature: float = 0.0

    @property
    def width(self) -> float:
        return self.theta_end - self.theta_start


@dataclass
class BoundaryVertex:
    point: np.ndarray
    exterior_angle: float
    caps: tuple[int, int]  # (incoming arc cap, outgoing arc cap)


@dataclass
class BoundaryStructure:
    """Arcs in traversal order; vertices[j] closes arcs[j] and opens arcs[j+1]."""

    arcs: list[BoundaryArc]
    vertices: list[BoundaryVertex]
    frames: list = field(default_factory=list)
    radii: np.ndarray | None = None

    def arc_point(self, arc: BoundaryArc, theta: float) -> np.ndarray:
        u, v, n = self.frames[arc.cap]
        rho = float(self.radii[arc.cap])
        return (
            math.cos(rho) * n
            + math.sin(rho) * (math.cos(theta) * u + math.sin(theta) * v)
        )


class _ArcBlock(NamedTuple):
    """Feasible boundary arcs of every cap circle for a block of T radius rows.

    Circle i of a row has ``counts`` crossings, sorted in ``events``; the
    slots after them hold inf. Segment s runs from crossing s to the next
    one, wrapping past 2 pi after the last.
    """

    events: np.ndarray  # (T, k, S) crossing angles in [0, 2 pi), S = 2 (k - 1)
    sources: np.ndarray  # (T, k, S) cap whose boundary makes each crossing
    counts: np.ndarray  # (T, k)
    seg_ok: np.ndarray  # (T, k, S) segment s is feasible
    full: np.ndarray  # (T, k) circle lies wholly on the boundary
    perimeters: np.ndarray  # (T,) sum over circles of sin(rho_i) * feasible width


# Elements of one (T, k, S) kernel temporary (128 kB of float64); a block
# holds about eight of them at once.
_BLOCK_ELEMS = 1 << 14


def _block_rows(k: int) -> int:
    """Rows of a kernel block for k caps."""
    return max(1, _BLOCK_ELEMS // (2 * k * k))


def _arc_block(tab: _PoleTables, radii: np.ndarray) -> _ArcBlock:
    """Feasible arcs of every circle for each row of a (T, k) block of radii.

    Row r is the body with the poles of ``tab`` and the radii ``radii[r]``.
    Each cap j that binds on circle i cuts it at t0_ij -/+ delta_ij; the
    crossings are sorted, and a segment between consecutive crossings is
    feasible when its midpoint satisfies every binding cap to _FEAS_TOL.

    The first invalid or measure-zero row raises. Its error comes from the
    first failing check: the radius range, then circle by circle (coincident
    or tangent circles, crossings closer than 1e-12, a circle touched
    tangentially), then an empty body or a full circle next to other arcs.
    """
    k = radii.shape[1]
    S = 2 * (k - 1)
    slot = np.arange(S)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sin_r, cos_r = np.sin(radii), np.cos(radii)
        A = sin_r[:, :, None] * tab.H  # (T, k, k-1)
        c = cos_r[:, tab.others] - cos_r[:, :, None] * tab.G
        small = A <= 1e-13
        ratio = c / A
        coincident = small & (np.abs(c) <= _TANGENCY_TOL)
        tangent = ~small & (np.abs(np.abs(ratio) - 1.0) <= _TANGENCY_TOL)
        bind = ~small & (np.abs(ratio) <= 1.0)
        # The first cap, in index order, that rejects the geometry or keeps
        # the whole circle out of the body decides the circle's fate.
        terminal = coincident | tangent | np.where(small, c > 0.0, ratio > 1.0)
        lead = terminal & (np.cumsum(terminal, axis=-1) == 1)
        rejected = (lead & (coincident | tangent)).any(axis=-1)
        live = ~terminal.any(axis=-1)

        delta = np.arccos(np.clip(ratio, -1.0, 1.0))
        events = np.concatenate([tab.t0 - delta, tab.t0 + delta], axis=-1) % TWO_PI
        events[~np.concatenate([bind, bind], axis=-1)] = np.inf
        order = np.argsort(events, axis=-1)
        events.sort(axis=-1)
        sources = tab.sources[np.arange(k)[:, None], order]
        counts = 2 * np.count_nonzero(bind, axis=-1)

        nxt = np.concatenate([events[..., 1:], events[..., :1]], axis=-1)
        nxt[slot >= counts[..., None] - 1] = np.inf
        nxt = np.where(slot == counts[..., None] - 1, events[..., :1] + TWO_PI, nxt)
        widths = nxt - events  # inf - inf = nan past the last crossing
        close = widths < 1e-12
        close_any = live & close.any(axis=-1)
        live &= ~close_any

        mid = 0.5 * (events + nxt)
        cos_m, sin_m = np.cos(mid), np.sin(mid)
        # A cos(theta - t0) = sin(rho_i) (U cos(theta) + V sin(theta))
        a = sin_r[:, :, None] * tab.U
        b = sin_r[:, :, None] * tab.V
        floor = np.where(bind, c - _FEAS_TOL, -np.inf)
        short = np.zeros(mid.shape, dtype=bool)
        for j in range(k - 1):
            short |= a[..., j, None] * cos_m + b[..., j, None] * sin_m < floor[..., j, None]
        seg_ok = ~short & (slot < counts[..., None]) & live[..., None]

        n_ok = np.count_nonzero(seg_ok, axis=-1)
        full = live & (counts == 0)
        touch = live & (counts > 0) & (n_ok == counts)
        n_present = np.count_nonzero(full | (n_ok > 0), axis=-1)
        bad_radius = ~((radii > 0.0) & (radii <= HALF_PI)).all(axis=-1)
        circle_error = rejected | close_any | touch
        flagged = (
            bad_radius
            | circle_error.any(axis=-1)
            | (n_present == 0)
            | (full.any(axis=-1) & (n_present > 1))
        )
        if flagged.any():
            r = int(np.argmax(flagged))
            if bad_radius[r]:
                rho = radii[r][(radii[r] <= 0.0) | (radii[r] > HALF_PI)][0]
                raise GeometryError(f"cap radius {rho} outside (0, pi/2]")
            failing = np.nonzero(circle_error[r])[0]
            if len(failing):
                i = int(failing[0])
                if rejected[r, i]:
                    pos = int(np.argmax(lead[r, i]))
                    j = int(tab.others[i, pos])
                    if coincident[r, i, pos]:
                        raise DegenerateGeometryError(
                            f"caps {i} and {j} have coincident boundary circles"
                        )
                    raise DegenerateGeometryError(
                        f"circle of cap {i} is tangent to the boundary of cap {j}"
                    )
                if close_any[r, i]:
                    s = int(np.argmax(close[r, i]))
                    ja = sources[r, i, s]
                    jb = sources[r, i, (s + 1) % counts[r, i]]
                    raise DegenerateGeometryError(
                        f"caps {ja} and {jb} cross the circle of cap {i} at the same point"
                    )
                raise DegenerateGeometryError(
                    f"circle of cap {i} touches another cap boundary tangentially"
                )
            if n_present[r] == 0:
                raise EmptyInteriorError("no boundary arcs: the cap intersection is empty")
            raise DegenerateGeometryError(
                "a full boundary circle coexists with other boundary arcs"
            )

        arc_width = np.where(full, TWO_PI, np.where(seg_ok, widths, 0.0).sum(axis=-1))
    return _ArcBlock(events, sources, counts, seg_ok, full, (sin_r * arc_width).sum(axis=-1))


def _raw_arcs(body: CapBody):
    """All feasible boundary arcs plus the full-circle flag.

    Each circle's arcs are the maximal circular runs of feasible segments,
    listed from the first infeasible segment on.
    """
    tab = _tables(body)
    radii = body.radii.tolist()
    blk = _arc_block(tab, body.radii[None, :])
    raw: list[BoundaryArc] = []
    for i in range(tab.k):
        srho = math.sin(radii[i])
        kg = math.cos(radii[i]) / srho
        if blk.full[0, i]:
            raw.append(BoundaryArc(i, 0.0, TWO_PI, None, None, srho * TWO_PI, kg))
            continue
        m = int(blk.counts[0, i])
        ok = blk.seg_ok[0, i, :m].tolist()
        if not any(ok):
            continue
        events = blk.events[0, i, :m].tolist()
        sources = blk.sources[0, i, :m].tolist()
        k0 = ok.index(False)
        run_start = None
        for step in range(m):
            s = (k0 + step) % m
            if ok[s] and run_start is None:
                run_start = s
            if run_start is not None and not ok[(s + 1) % m]:
                end = (s + 1) % m
                ts, te = events[run_start], events[end]
                if te <= ts:
                    te += TWO_PI
                raw.append(
                    BoundaryArc(i, ts, te, sources[run_start], sources[end], srho * (te - ts), kg)
                )
                run_start = None
    return raw, tab, bool(blk.full.any())


def inner_parallel_perimeters(body: CapBody, ts) -> np.ndarray:
    """Perimeters of the inner parallel sets body_t for every t in ``ts``.

    Equals perimeter(inner_parallel(body, t)) for each t, to rounding, from one
    batched pass of the arc kernel over blocks of t. Raises the error of the
    first t at which that call would fail.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts >= 0.0):
        raise GeometryError("parallel distances must be nonnegative")
    radii = body.radii[None, :] - ts[:, None]
    tab = _tables(body)
    step = _block_rows(tab.k)
    out = np.empty(len(ts))
    for lo in range(0, len(ts), step):
        out[lo:lo + step] = _arc_block(tab, radii[lo:lo + step]).perimeters
    return out


def boundary_structure(body: CapBody) -> BoundaryStructure:
    """Arcs and vertices of the boundary, chained into one closed curve."""
    raw, tab, has_full = _raw_arcs(body)
    radii = body.radii
    structure = BoundaryStructure(arcs=[], vertices=[], frames=tab.frames, radii=radii)

    if has_full:
        structure.arcs = list(raw)
        return structure

    def endpoint(arc: BoundaryArc, which: str) -> np.ndarray:
        theta = arc.theta_start if which == "start" else arc.theta_end
        return structure.arc_point(arc, theta)

    # chain arcs: the end of an arc on cap i limited by cap j continues on an
    # arc of cap j whose start is limited by cap i at the same point
    unused = list(range(len(raw)))
    order = [unused.pop(0)]
    while True:
        cur = raw[order[-1]]
        p_end = endpoint(cur, "end")
        j = cur.end_source
        best, best_d = None, math.inf
        for idx in unused + [order[0]]:
            cand = raw[idx]
            if cand.cap != j or cand.start_source != cur.cap:
                continue
            d = float(np.linalg.norm(endpoint(cand, "start") - p_end))
            if d < best_d:
                best, best_d = idx, d
        if best is None or best_d > 1e-7:
            raise DegenerateGeometryError("boundary arcs do not chain into a closed curve")
        if best == order[0]:
            break
        unused.remove(best)
        order.append(best)
    if unused:
        raise DegenerateGeometryError("boundary has more than one component")

    poles = body.poles
    arcs = [raw[idx] for idx in order]
    vertices = []
    for pos, arc in enumerate(arcs):
        nxt = arcs[(pos + 1) % len(arcs)]
        p = endpoint(arc, "end")
        t_in = _unit(np.cross(poles[arc.cap], p))
        t_out = _unit(np.cross(poles[nxt.cap], p))
        ext = math.atan2(float(p @ np.cross(t_in, t_out)), float(t_in @ t_out))
        if not 1e-12 < ext < math.pi - 1e-12:
            raise DegenerateGeometryError(
                f"exterior angle {ext} at a vertex outside (0, pi)"
            )
        vertices.append(
            BoundaryVertex(point=p, exterior_angle=ext, caps=(arc.cap, nxt.cap))
        )
    structure.arcs = arcs
    structure.vertices = vertices
    return structure


def perimeter(body: CapBody, structure: BoundaryStructure | None = None) -> float:
    """Boundary length: sum over arcs of sin(rho_i) * width."""
    if structure is not None:
        return sum(arc.length for arc in structure.arcs)
    return float(_arc_block(_tables(body), body.radii[None, :]).perimeters[0])


def area(body: CapBody, structure: BoundaryStructure | None = None) -> float:
    """Enclosed area by Gauss-Bonnet: 2 pi - sum cos(rho_i) dtheta_i - sum exterior angles."""
    bs = structure if structure is not None else boundary_structure(body)
    radii = body.radii
    turning = sum(math.cos(radii[arc.cap]) * arc.width for arc in bs.arcs)
    corners = sum(v.exterior_angle for v in bs.vertices)
    return TWO_PI - turning - corners


# ---------------------------------------------------------------------------
# incenter and inradius


def _slerp(a: np.ndarray, b: np.ndarray, frac: float) -> np.ndarray:
    gamma = math.acos(_clamp(float(a @ b)))
    if gamma < 1e-14:
        return a.copy()
    return (math.sin((1.0 - frac) * gamma) * a + math.sin(frac * gamma) * b) / math.sin(gamma)


def _triple_incenter(poles, radii, idx):
    """Newton solve of the 3-active-constraint equal-margin system."""
    na, nb, nc = (poles[k] for k in idx)
    ra, rb, rc = (radii[k] for k in idx)
    x = na + nb + nc
    nx = float(np.linalg.norm(x))
    if nx < 1e-9:
        return None
    x = x / nx
    t = min(ra - math.acos(_clamp(float(x @ na))),
            rb - math.acos(_clamp(float(x @ nb))),
            rc - math.acos(_clamp(float(x @ nc))))
    z = np.array([x[0], x[1], x[2], t])
    for _ in range(60):
        x = z[:3]
        t = z[3]
        F = np.array(
            [
                float(x @ na) - math.cos(ra - t),
                float(x @ nb) - math.cos(rb - t),
                float(x @ nc) - math.cos(rc - t),
                0.5 * (float(x @ x) - 1.0),
            ]
        )
        if float(np.linalg.norm(F)) < 1e-14:
            break
        J = np.zeros((4, 4))
        J[0, :3], J[0, 3] = na, -math.sin(ra - t)
        J[1, :3], J[1, 3] = nb, -math.sin(rb - t)
        J[2, :3], J[2, 3] = nc, -math.sin(rc - t)
        J[3, :3] = x
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        z = z - step
    x = z[:3]
    if abs(float(x @ x) - 1.0) > 1e-10:
        return None
    return _unit(x)


# Bodies are frozen and hashable; the pipelines ask for the incenter of the
# same body several times (generation, profile, FEM mesh).
_INCENTER_CACHE: dict = {}


def incenter_and_inradius(body: CapBody) -> tuple[np.ndarray, float]:
    """Deepest interior point and its boundary distance.

    The slack function f(p) = min_i (rho_i - d(p, pole_i)) is concave on the
    body, so its maximum is attained with one, two, or three active caps;
    all candidate configurations are enumerated in closed form (pairs) or by
    Newton (triples), with a Nelder-Mead polish as a safety net. Results are
    cached per body; each call returns its own copy of the point.
    """
    hit = _INCENTER_CACHE.get(body)
    if hit is None:
        hit = _solve_incenter(body)
        if len(_INCENTER_CACHE) > 256:
            _INCENTER_CACHE.clear()
        _INCENTER_CACHE[body] = hit
    point, rin = hit
    return point.copy(), rin


def _solve_incenter(body: CapBody) -> tuple[np.ndarray, float]:
    poles = body.poles
    radii = body.radii
    k = len(radii)

    candidates = [poles[i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            gamma = math.acos(_clamp(float(poles[i] @ poles[j])))
            if gamma < 1e-12:
                continue
            alpha = 0.5 * (radii[i] - radii[j] + gamma)
            if 0.0 < alpha < gamma:
                candidates.append(_slerp(poles[i], poles[j], alpha / gamma))
    if k >= 3:
        for i in range(k):
            for j in range(i + 1, k):
                for l in range(j + 1, k):
                    x = _triple_incenter(poles, radii, (i, j, l))
                    if x is not None:
                        candidates.append(x)

    best_p, best_f = None, -math.inf
    for p in candidates:
        f = _margin(body, p)
        if f > best_f:
            best_p, best_f = p, f

    if best_p is None:
        raise EmptyInteriorError("cap intersection has empty interior")

    # local polish on a tangent chart around the best candidate
    ref = [0.0, 0.0, 1.0] if abs(best_p[2]) < 0.9 else [1.0, 0.0, 0.0]
    e1 = _unit(np.cross(best_p, ref))
    e2 = np.cross(best_p, e1)

    def neg_margin(xy):
        q = _unit(best_p + xy[0] * e1 + xy[1] * e2)
        return -_margin(body, q)

    res = optimize.minimize(
        neg_margin,
        np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 400},
    )
    if -res.fun > best_f:
        best_f = -res.fun
        best_p = _unit(best_p + res.x[0] * e1 + res.x[1] * e2)

    if best_f <= 0.0:
        raise EmptyInteriorError("cap intersection has empty interior")
    return best_p, best_f


def inradius(body: CapBody) -> float:
    """Largest t for which the inner parallel set is nonempty."""
    return incenter_and_inradius(body)[1]


# ---------------------------------------------------------------------------
# hemisphere certification


def _arc_min_dot(structure: BoundaryStructure, arc: BoundaryArc, w) -> float:
    """Exact minimum of <. , w> over one boundary arc."""
    u, v, n = structure.frames[arc.cap]
    rho = float(structure.radii[arc.cap])
    K = math.cos(rho) * float(n @ w)
    a = math.sin(rho) * float(u @ w)
    b = math.sin(rho) * float(v @ w)
    A = math.hypot(a, b)
    t0 = math.atan2(b, a)
    vals = [
        K + A * math.cos(arc.theta_start - t0),
        K + A * math.cos(arc.theta_end - t0),
    ]
    # interior minimum of the cosine at t0 + pi
    tmin = t0 + math.pi
    for shift in (-TWO_PI, 0.0, TWO_PI):
        th = tmin + shift
        if arc.theta_start <= th <= arc.theta_end:
            vals.append(K - A)
            break
    return min(vals)


def hemisphere_witness(body: CapBody, margin_tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """A direction w with <p, w> >= margin > 0 for the whole body.

    The default candidate is the normalized sum of the poles, verified by an
    exact sweep over boundary arcs plus a check that -w is not in the body;
    a grid search over directions runs if the default fails.
    """
    structure = boundary_structure(body)

    def body_margin(w) -> float:
        if contains(body, -w):
            return -1.0
        return min(_arc_min_dot(structure, arc, w) for arc in structure.arcs)

    w = _unit(np.sum(body.poles, axis=0))
    m = body_margin(w)
    if m > margin_tol:
        return w, m

    # Fibonacci sphere fallback
    count = 4000
    golden = math.pi * (3.0 - math.sqrt(5.0))
    best_w, best_m = w, m
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * i
        cand = np.array([r * math.cos(th), r * math.sin(th), z])
        mc = body_margin(cand)
        if mc > best_m:
            best_w, best_m = cand, mc
    if best_m > margin_tol:
        return best_w, best_m
    raise GeometryError(
        "no hemisphere witness found: body is not certifiably strongly convex"
    )


# ---------------------------------------------------------------------------
# sampling utilities


def sample_boundary(
    body: CapBody, count: int, structure: BoundaryStructure | None = None
) -> np.ndarray:
    """Points spread along the boundary, proportionally to arc length."""
    bs = structure if structure is not None else boundary_structure(body)
    total = sum(arc.length for arc in bs.arcs)
    pts = []
    for arc in bs.arcs:
        m = max(2, int(round(count * arc.length / total)))
        for theta in np.linspace(arc.theta_start, arc.theta_end, m):
            pts.append(bs.arc_point(arc, theta))
    return np.array(pts)


def distance_to_body_many(body: CapBody, points: np.ndarray) -> np.ndarray:
    """Geodesic distance from each point to the body (0 inside).

    Outside distances are the minimum over boundary arcs (meridian foot when
    it falls inside the feasible theta-range) and vertices.
    """
    bs = boundary_structure(body)
    pts = np.asarray(points, dtype=float)
    dots = np.clip(pts @ body.poles.T, -1.0, 1.0)
    inside = np.all(np.arccos(dots) <= body.radii[None, :] + 1e-12, axis=1)

    dist = np.full(len(pts), np.inf)
    for arc in bs.arcs:
        u, v, n = bs.frames[arc.cap]
        rho = float(body.radii[arc.cap])
        theta = np.arctan2(pts @ v, pts @ u)
        d_pole = np.arccos(np.clip(pts @ n, -1.0, 1.0))
        circ = np.abs(d_pole - rho)
        lo = arc.theta_start % TWO_PI
        rel = (theta - lo) % TWO_PI
        on_arc = rel <= arc.width
        dist = np.where(on_arc, np.minimum(dist, circ), dist)
    for vtx in bs.vertices:
        dv = np.arccos(np.clip(pts @ vtx.point, -1.0, 1.0))
        dist = np.minimum(dist, dv)
    dist[inside] = 0.0
    return dist


def random_body(seed: int, k: int, spread: float = 0.4, max_attempts: int = 256) -> CapBody:
    """Deterministic random strongly convex body.

    Poles are sampled within angular distance ``spread`` of the north pole,
    radii uniformly in [0.6, pi/2]; draws repeat until the body has nonempty
    interior, a hemisphere witness, clean boundary structure, and perimeter
    strictly below the equator length.
    """
    if not 3 <= k <= 12:
        raise GeometryError(f"k must lie in [3, 12], got {k}")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        poles = []
        for _ in range(k):
            ang = rng.uniform(0.0, spread)
            azi = rng.uniform(0.0, TWO_PI)
            poles.append(
                [
                    math.sin(ang) * math.cos(azi),
                    math.sin(ang) * math.sin(azi),
                    math.cos(ang),
                ]
            )
        radii = rng.uniform(0.6, HALF_PI, size=k)
        try:
            body = make_body(poles, radii)
            bs = boundary_structure(body)
            _, rin = incenter_and_inradius(body)
            if rin < 1e-3:
                continue
            if perimeter(body, bs) > TWO_PI - 1e-3:
                continue
            _, margin = hemisphere_witness(body)
            if margin < 1e-3:
                continue
            return body
        except GeometryError:
            continue
    raise GeometryError(f"random_body(seed={seed}, k={k}) found no valid body")


def corpus_bodies(count: int, spread: float = 0.4) -> list[tuple[str, CapBody]]:
    """The reference corpus: seeds 1..count with cap counts cycling over 3..8."""
    out = []
    for seed in range(1, count + 1):
        k = 3 + (seed - 1) % 6
        out.append((f"random-{seed:03d}-k{k}", random_body(seed, k, spread)))
    return out


# ---------------------------------------------------------------------------
# serialization


def dumps_body(body: CapBody) -> str:
    """One line per cap: pole_x pole_y pole_z rho."""
    lines = [
        f"{c.pole[0]!r} {c.pole[1]!r} {c.pole[2]!r} {c.rho!r}" for c in body.constraints
    ]
    return "\n".join(lines) + "\n"


def loads_body(text: str) -> CapBody:
    poles, radii = [], []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise GeometryError(f"body record needs 4 fields per line, got: {line!r}")
        poles.append([float(parts[0]), float(parts[1]), float(parts[2])])
        radii.append(float(parts[3]))
    if not poles:
        raise GeometryError("empty body file")
    return make_body(poles, radii)


def save_body(body: CapBody, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_body(body))


def load_body(path) -> CapBody:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_body(fh.read())
