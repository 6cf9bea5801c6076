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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from robinsphere.errors import (
    DegenerateGeometryError,
    EmptyInteriorError,
    GeometryError,
)
from robinsphere.spaceform import HALF_PI

TWO_PI = 2.0 * math.pi

_TANGENCY_TOL = 1e-10
_FEAS_TOL = 1e-11
# Smallest sine of the angle at which two binding cap circles may cross. The
# crossing angles of a shallower pair carry errors of about eps / sin(psi),
# so the midpoint tests would decide its arcs arbitrarily from row to row.
# Over corpus bodies 0-299 the smallest sine is 8.4e-3 on 257 nodes up to
# 0.99 rin. At the last node of the production grid, (1 - 1e-6) rin, it is
# 2.8e-3: two caps that end the body cross ever more shallowly toward rin.
# On the octant it is 0.87.
_MIN_CROSSING_SINE = 1e-6


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_r, b_r> for each row r; a 1-by-3 times 3-by-1 product rounds like a @ b of one row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v divided by its norm, which rounds like np.linalg.norm of that row."""
    n = np.sqrt(_row_dots(v, v))
    if not n.all():
        raise GeometryError("cannot normalize the zero vector")
    return v / n[:, None]


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of matching rows, rounded alike, without its axis handling."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _unit(v) -> np.ndarray:
    return _unit_rows(np.asarray(v, dtype=float)[None, :])[0]


@dataclass(frozen=True)
class CapConstraint:
    """One geodesic cap: unit pole and geodesic radius rho in (0, pi/2]."""

    pole: tuple[float, float, float]
    rho: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.pole):
            raise GeometryError(f"cap pole must be finite, got {self.pole}")
        norm = math.sqrt(sum(c * c for c in self.pole))
        if abs(norm - 1.0) > 1e-12:
            raise GeometryError(f"cap pole must be unit to 1e-12, |pole| = {norm}")
        if not 0.0 < self.rho <= HALF_PI:
            raise GeometryError(f"cap radius {self.rho} outside (0, pi/2]")


@dataclass(frozen=True)
class CapBody:
    """Intersection of finitely many geodesic caps, with its derived geometry.

    Equality and hashing come from the caps alone. Each derived quantity is
    built at its first read by the module function that computes it, then
    kept in the instance ``__dict__``, which pickling carries along; one that
    raises is not kept. ``incircle`` is (incenter, inradius) and ``witness``
    is (direction, margin), as ``hemisphere_witness`` returns them.
    """

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

    @cached_property
    def tables(self) -> _PoleTables:
        return _PoleTables(self.poles)

    @cached_property
    def structure(self) -> BoundaryStructure:
        return boundary_structure(self)

    @cached_property
    def incircle(self) -> tuple[np.ndarray, float]:
        return incenter_and_inradius(self)

    @cached_property
    def perimeter(self) -> float:
        return perimeter(self)

    @cached_property
    def area(self) -> float:
        return area(self)

    @cached_property
    def witness(self) -> tuple[np.ndarray, float]:
        return hemisphere_witness(self)


def make_body(poles, radii) -> CapBody:
    poles = np.asarray(poles, dtype=float).reshape(-1, 3)
    finite = np.isfinite(poles).all(axis=1)
    if not finite.all():  # before normalising, which would warn on inf / inf
        raise GeometryError(f"cap pole must be finite, got {poles[~finite][0].tolist()}")
    units = _unit_rows(poles).tolist()
    return CapBody(tuple(CapConstraint(tuple(p), float(r)) for p, r in zip(units, radii)))


def cap_fixture(radius: float, pole=(0.0, 0.0, 1.0)) -> CapBody:
    """A single geodesic cap (the ball fixture)."""
    return make_body([pole], [radius])


def octant_fixture() -> CapBody:
    """The positive octant: three hemisphere constraints about the axes."""
    return make_body(np.eye(3), [HALF_PI] * 3)


# ---------------------------------------------------------------------------
# per-pole-set trigonometry
#
# The circle frames and all pairwise scalar products depend on the poles
# alone, so the tables of a body (``CapBody.tables``) serve the kernel rows
# of all its inner parallels in ``_perimeter_pieces``.
#
# Cap j restricts circle i to A_ij cos(theta - t0_ij) >= c_ij with
#     A_ij = sin(rho_i) |(U_ij, V_ij)|,  t0_ij = atan2(V_ij, U_ij),
#     c_ij = cos(rho_j) - cos(rho_i) G_ij,
# so only A and c depend on the radii. Pair tables are stored as (k, k-1)
# arrays whose row i lists the other caps j != i in increasing order.

class _PoleTables:
    __slots__ = ("frames", "k", "others", "sources", "G", "U", "V", "H", "t0")

    def __init__(self, poles: np.ndarray):
        k = len(poles)
        # u = n x e_z, or n x e_x for poles within acos(0.9) of the z axis
        ref = np.where(np.abs(poles[:, 2:]) > 0.9, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        us = _unit_rows(_cross_rows(poles, ref))
        vs = _cross_rows(poles, us)
        self.k = k
        self.frames = np.stack([us, vs, poles], axis=1)  # (k, 3, 3): rows u, v, n
        self.others = np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])
        rows = np.arange(k)[:, None]
        self.G = (poles @ poles.T)[rows, self.others]
        self.U = (us @ poles.T)[rows, self.others]
        self.V = (vs @ poles.T)[rows, self.others]
        self.H = np.hypot(self.U, self.V)
        self.t0 = np.arctan2(self.V, self.U)
        # source cap of each crossing slot: the t0 - delta crossings, then t0 + delta
        self.sources = np.concatenate([self.others, self.others], axis=1)


# ---------------------------------------------------------------------------
# membership and inner parallels


def contains(body: CapBody, p, tol: float = 1e-12) -> bool:
    """Closed membership: <p, pole_i> >= cos(rho_i) for every cap."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(body.poles @ p >= np.cos(body.radii) - tol))


def inner_parallel(body: CapBody, t: float) -> CapBody:
    """Inner parallel set: the same poles with every radius reduced by t."""
    if t < 0.0:
        raise GeometryError(f"parallel distance must be nonnegative, got {t}")
    if t == 0.0:
        return body
    rin = inradius(body)
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
    frames: np.ndarray | None = None  # (k, 3, 3): rows u, v, n of each cap circle
    radii: np.ndarray | None = None

    def circle_points(self, caps, thetas) -> np.ndarray:
        """c_cap(theta) for matching (broadcast) arrays of caps and angles, shape (..., 3)."""
        caps = np.asarray(caps)
        thetas = np.asarray(thetas, dtype=float)[..., None]
        rho = self.radii[caps][..., None]
        u, v, n = (self.frames[caps, row] for row in range(3))
        return np.cos(rho) * n + np.sin(rho) * (np.cos(thetas) * u + np.sin(thetas) * v)


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


def _arc_block(tab: _PoleTables, radii: np.ndarray) -> _ArcBlock:
    """Feasible arcs of every circle for each row of a (T, k) block of radii.

    Row r is the body with the poles of ``tab`` and the radii ``radii[r]``.
    Each cap j that binds on circle i cuts it at t0_ij -/+ delta_ij; the
    crossings are sorted, and a segment between consecutive crossings is
    feasible when its midpoint satisfies every binding cap to _FEAS_TOL.

    The first invalid or measure-zero row raises. Its error comes from the
    first failing check: the radius range, then circle by circle (coincident
    or tangent circles, circles crossing at an angle whose sine is below
    _MIN_CROSSING_SINE, crossings closer than 1e-12, a circle touched
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
        # cosine of the crossing angle, by the spherical law of cosines at a
        # crossing: G_ij = cos rho_i cos rho_j + sin rho_i sin rho_j cos psi_ij
        cos_psi = (tab.G - cos_r[:, :, None] * cos_r[:, tab.others]) / (
            sin_r[:, :, None] * sin_r[:, tab.others]
        )
        shallow = bind & (1.0 - cos_psi * cos_psi < _MIN_CROSSING_SINE**2)
        # The first cap, in index order, that rejects the geometry or keeps
        # the whole circle out of the body decides the circle's fate.
        bad_pair = coincident | tangent | shallow
        terminal = bad_pair | np.where(small, c > 0.0, ratio > 1.0)
        lead = terminal & (np.cumsum(terminal, axis=-1) == 1)
        rejected = (lead & bad_pair).any(axis=-1)
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
                    if not tangent[r, i, pos]:
                        raise DegenerateGeometryError(
                            f"boundary circles of caps {i} and {j} cross at an angle "
                            f"whose sine is below {_MIN_CROSSING_SINE}"
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


def _raw_arcs(tab: _PoleTables, radii: np.ndarray):
    """All feasible boundary arcs for the poles of ``tab`` and ``radii``, and the kernel row.

    Each circle's arcs are the maximal circular runs of feasible segments,
    listed from the first infeasible segment on.
    """
    blk = _arc_block(tab, radii[None, :])
    radii = radii.tolist()
    raw: list[BoundaryArc] = []
    for i in range(tab.k):
        srho = math.sin(radii[i])
        if blk.full[0, i]:
            raw.append(BoundaryArc(i, 0.0, TWO_PI, None, None, srho * TWO_PI))
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
                    BoundaryArc(i, ts, te, sources[run_start], sources[end], srho * (te - ts))
                )
                run_start = None
    return raw, blk


_MIN_TRACKED_WIDTH = 1e-9  # a narrower tracked arc ends its profile piece
_ARC_KEY = attrgetter("cap", "start_source", "end_source")


def _perimeter_pieces(body: CapBody, ts) -> tuple[np.ndarray, list[int]]:
    """inner_parallel_perimeters, plus the index of the first node of each piece.

    A piece starts with a kernel row (``_raw_arcs``): each arc of cap i, its
    width, and the caps j_s and j_e whose crossings t0 - delta_i,j_s and
    t0 + delta_i,j_e open and close it. Only
        delta_ij(t) = arccos((cos(rho_j - t) - cos(rho_i - t) G_ij) / (sin(rho_i - t) H_ij))
    moves with t, so a later node's width is the kernel's plus the change of
    the two deltas (a full circle keeps 2 pi), and P = sum sin(rho_i - t) width.

    As t grows arcs only vanish: a redundant cap stays redundant (the inner
    parallel of an intersection of caps is the intersection of the shrunk
    caps), and circles i and j cross only while |rho_i - rho_j| < gamma_ij <
    rho_i + rho_j - 2t. A piece ends before a node where a tracked width is
    below _MIN_TRACKED_WIDTH or not finite, or t is below the piece's start or
    reaches the smallest radius, so a kernel row decides every node at which
    an arc vanishes or the body empties; the row at a piece's last node must
    show the arcs of its first, else GeometryError. Between kernel rows only a
    degeneracy off the boundary goes unseen: three circles concurrent outside
    the body, which the kernel can reject within about 1e-12 of the event.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts >= 0.0):
        raise GeometryError("parallel distances must be nonnegative")
    tab, rho = body.tables, body.radii
    out, starts, lo = np.empty(len(ts)), [], 0
    while lo < len(ts):
        starts.append(lo)
        raw, blk = _raw_arcs(tab, rho - ts[lo])
        arcs = set(map(_ARC_KEY, raw))
        t = ts[lo:]
        cos_r, sin_r = np.cos(rho - t[:, None]), np.sin(rho - t[:, None])
        caps = np.array([arc.cap for arc in raw])
        widths = np.tile([arc.width for arc in raw], (len(t), 1))
        if not blk.full.any():
            srcs = np.array([(arc.start_source, arc.end_source) for arc in raw])
            i, pos = caps[:, None], srcs - (srcs > caps[:, None])  # column of j in row i
            with np.errstate(divide="ignore", invalid="ignore"):
                c = cos_r[:, srcs] - cos_r[:, i] * tab.G[i, pos]
                delta = np.arccos(c / (sin_r[:, i] * tab.H[i, pos]))
            widths += (delta - delta[0]).sum(axis=-1)
        ok = (widths >= _MIN_TRACKED_WIDTH).all(axis=1) & (t >= t[0]) & (t < rho.min())
        hi = len(ts) if ok[1:].all() else lo + 1 + int(np.argmin(ok[1:]))
        out[lo] = blk.perimeters[0]
        out[lo + 1:hi] = (sin_r[1:hi - lo, caps] * widths[1:hi - lo]).sum(axis=1)
        if hi - 1 > lo and set(map(_ARC_KEY, _raw_arcs(tab, rho - ts[hi - 1])[0])) != arcs:
            raise GeometryError(
                f"boundary arcs changed between t = {ts[lo]!r} and {ts[hi - 1]!r} "
                "without one vanishing"
            )
        lo = hi
    return out, starts


def inner_parallel_perimeters(body: CapBody, ts) -> np.ndarray:
    """Perimeters of the inner parallel sets body_t for every t in ``ts``.

    Equals perimeter(inner_parallel(body, t)) for each t, to rounding, from a
    kernel row at the start of each piece of the profile and closed-form arc
    widths in between (``_perimeter_pieces``). Raises the error of the first
    t at which that call would fail.
    """
    return _perimeter_pieces(body, ts)[0]


def boundary_structure(body: CapBody) -> BoundaryStructure:
    """Arcs and vertices of the boundary, chained into one closed curve."""
    tab, radii = body.tables, body.radii
    raw, blk = _raw_arcs(tab, radii)
    structure = BoundaryStructure(arcs=[], vertices=[], frames=tab.frames, radii=radii)

    if blk.full.any():
        structure.arcs = list(raw)
        return structure

    caps = [arc.cap for arc in raw]
    starts = structure.circle_points(caps, [arc.theta_start for arc in raw])
    ends = structure.circle_points(caps, [arc.theta_end for arc in raw])

    # chain arcs: the end of an arc on cap i limited by cap j continues on the
    # nearest arc of cap j whose start is limited by cap i, at the same point
    linked = [[(a.end_source, a.cap) == (b.cap, b.start_source) for b in raw] for a in raw]
    gaps = np.where(linked, np.linalg.norm(ends[:, None] - starts[None, :], axis=-1), np.inf)
    succ = gaps.argmin(axis=1).tolist()
    order = [0]
    while True:
        nxt = succ[order[-1]]
        if gaps[order[-1], nxt] > 1e-7 or nxt in order[1:]:
            raise DegenerateGeometryError("boundary arcs do not chain into a closed curve")
        if nxt == 0:
            break
        order.append(nxt)
    if len(order) < len(raw):
        raise DegenerateGeometryError("boundary has more than one component")

    arcs = [raw[idx] for idx in order]
    points = ends[order]
    cap_in = [arc.cap for arc in arcs]
    cap_out = cap_in[1:] + cap_in[:1]
    t_in = _unit_rows(_cross_rows(body.poles[cap_in], points))
    t_out = _unit_rows(_cross_rows(body.poles[cap_out], points))
    sines = _row_dots(points, _cross_rows(t_in, t_out)).tolist()
    cosines = _row_dots(t_in, t_out).tolist()
    vertices = []
    for point, sine, cosine, i, j in zip(points, sines, cosines, cap_in, cap_out):
        ext = math.atan2(sine, cosine)
        if not 1e-12 < ext < math.pi - 1e-12:
            raise DegenerateGeometryError(f"exterior angle {ext} at a vertex outside (0, pi)")
        vertices.append(BoundaryVertex(point=point, exterior_angle=ext, caps=(i, j)))
    structure.arcs = arcs
    structure.vertices = vertices
    return structure


def perimeter(body: CapBody) -> float:
    """Boundary length: sum over the boundary arcs of sin(rho_i) * width."""
    return sum(arc.length for arc in body.structure.arcs)


def area(body: CapBody) -> float:
    """Enclosed area by Gauss-Bonnet: 2 pi - sum cos(rho_i) dtheta_i - sum exterior angles."""
    bs, radii = body.structure, body.radii
    turning = sum(math.cos(radii[arc.cap]) * arc.width for arc in bs.arcs)
    corners = sum(v.exterior_angle for v in bs.vertices)
    return TWO_PI - turning - corners


# ---------------------------------------------------------------------------
# incenter and inradius


# A cap counts as active at the chosen point when its slack is within _KKT_TOL
# of the inradius, and the largest angular gap between the active directions
# may exceed pi by as much; see incenter_and_inradius for the calibration.
_KKT_TOL = 1e-10


def _slacks(poles: np.ndarray, radii: np.ndarray, points: np.ndarray) -> np.ndarray:
    """rho_i - d(p, pole_i) for each point p (rows) and cap i (columns).

    The distance is atan2(|p x n|, <p, n>): arccos(<p, n>) loses about 1e-8
    near d = 0.
    """
    sines = np.linalg.norm(np.cross(points[:, None, :], poles[None, :, :]), axis=-1)
    return radii - np.arctan2(sines, points @ poles.T)


def _pair_candidates(poles: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per pair (i, j): the point with equal slacks on the geodesic from n_i to n_j.

    It lies at distance alpha = (rho_i - rho_j + gamma) / 2 from n_i, with
    gamma = d(n_i, n_j). Pairs of (anti)parallel poles have no such geodesic.
    """
    i, j = np.triu_indices(len(radii), 1)
    cross = np.cross(poles[i], poles[j])
    sin_g = np.linalg.norm(cross, axis=-1)
    keep = sin_g > 1e-12
    i, j, cross, sin_g = i[keep], j[keep], cross[keep], sin_g[keep]
    gamma = np.arctan2(sin_g, np.einsum("md,md->m", poles[i], poles[j]))
    alpha = 0.5 * (radii[i] - radii[j] + gamma)
    toward = np.cross(cross, poles[i]) / sin_g[:, None]  # unit tangent at n_i toward n_j
    return np.cos(alpha)[:, None] * poles[i] + np.sin(alpha)[:, None] * toward


def _triple_candidates(poles: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per triple: the points x with <x, n_i> = cos(rho_i - t) on its three caps.

    With N the matrix of the triple's poles, u = N^-1 cos(rho) and
    v = N^-1 sin(rho), x(t) = u cos t + v sin t, and |x| = 1 reads
    A cos 2t + B sin 2t + C = 0 with A = (|u|^2 - |v|^2) / 2, B = <u, v> and
    C = (|u|^2 + |v|^2) / 2 - 1. Both roots t in [0, pi) are returned; a
    triple without a root, or with |det N| <= 1e-12, gives none.
    """
    idx = np.array(list(itertools.combinations(range(len(radii)), 3)), dtype=np.intp)
    idx = idx.reshape(-1, 3)  # (0, 3) below three caps
    N = poles[idx]
    ok = np.abs(np.einsum("md,md->m", np.cross(N[:, 0], N[:, 1]), N[:, 2])) > 1e-12  # det N
    rho = radii[idx[ok]]
    uv = np.linalg.solve(N[ok], np.stack([np.cos(rho), np.sin(rho)], axis=-1))
    u, v = uv[..., 0], uv[..., 1]
    uu, vv = np.einsum("md,md->m", u, u), np.einsum("md,md->m", v, v)
    A, B, C = 0.5 * (uu - vv), np.einsum("md,md->m", u, v), 0.5 * (uu + vv) - 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        spread = np.arccos(-C / np.hypot(A, B))  # nan where there is no root
    phase = np.arctan2(B, A)
    t = (0.5 * np.concatenate([phase - spread, phase + spread])) % math.pi
    x = np.concatenate([u, u]) * np.cos(t)[:, None] + np.concatenate([v, v]) * np.sin(t)[:, None]
    x = x[np.isfinite(t)]
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _kkt_certified(poles, radii, slacks, x, rin) -> bool:
    """Whether x maximises the slack: the KKT test of incenter_and_inradius."""
    if float(radii.min()) <= rin + _KKT_TOL:
        return True  # x is, to _KKT_TOL, the pole of the smallest cap
    active = poles[slacks <= rin + _KKT_TOL]
    toward = active - np.outer(active @ x, x)
    e1 = _unit(np.cross(x, [0.0, 0.0, 1.0] if abs(x[2]) < 0.9 else [1.0, 0.0, 0.0]))
    angles = np.sort(np.arctan2(toward @ np.cross(x, e1), toward @ e1))
    gaps = np.diff(np.append(angles, angles[0] + TWO_PI))
    return float(gaps.max()) <= math.pi + _KKT_TOL


def incenter_and_inradius(body: CapBody) -> tuple[np.ndarray, float]:
    """Deepest interior point and its boundary distance, in closed form.

    The slack f(p) = min_i (rho_i - d(p, pole_i)) is concave on the body, so
    its maximum has one, two or three active caps. One vectorised pass
    evaluates f on every candidate: the poles, the equal-slack point of each
    pair, and both roots of each triple (``_triple_candidates``).

    The best candidate x is then certified. The caps whose slack is within
    _KKT_TOL of f(x) are active. Either x is, to _KKT_TOL, the pole of the
    smallest cap, or the tangent directions at x toward the active poles
    leave no angular gap wider than pi + _KKT_TOL, so that 0 lies within
    _KKT_TOL of their convex hull. Each slack is concave on the body with
    that direction as supergradient, hence f(y) <= f(x) + 3 _KKT_TOL for
    every y in it. The argument needs x in the body, f(x) >= 0, which is
    where the certificate runs; a failure raises GeometryError, and a best
    value <= 0 raises EmptyInteriorError.

    Calibration of _KKT_TOL = 1e-10: on the octant, caps of radius 0.5, 1,
    1.4 and pi/2 and corpus bodies 0-299, the active slacks at x agree to
    9.2e-14 and the widest gap exceeds pi by at most 5.7e-14 (2.3e-14 and
    1.9e-14 on 1476 random bodies of 1 to 8 caps, poles within 1.5 rad
    of the north pole, 30 % of caps hemispheres). The tolerance
    leaves 1000x headroom over both.
    """
    poles, radii = body.poles, body.radii
    candidates = np.vstack(
        [poles, _pair_candidates(poles, radii), _triple_candidates(poles, radii)]
    )
    slacks = _slacks(poles, radii, candidates)
    best = int(np.argmax(slacks.min(axis=1)))
    x, rin = candidates[best], float(slacks[best].min())
    if rin >= 0.0 and not _kkt_certified(poles, radii, slacks[best], x, rin):
        raise GeometryError("incenter candidate fails the KKT certificate")
    if not rin > 0.0:  # so that a nan slack counts as empty
        raise EmptyInteriorError("cap intersection has empty interior")
    return x, rin


def inradius(body: CapBody) -> float:
    """Largest t for which the inner parallel set is nonempty."""
    return body.incircle[1]


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


_WITNESS_MARGIN = 1e-12


def hemisphere_witness(body: CapBody) -> tuple[np.ndarray, float]:
    """A direction w with <p, w> >= margin > _WITNESS_MARGIN for the whole body.

    The candidate is w = s / |s| with s the sum of the poles, verified by an
    exact sweep over the boundary arcs plus a check that -w is not in the
    body. No search over other directions is needed:
      * for p in the body, <p, s> = sum_i <p, n_i> >= sum_i cos(rho_i), so
        the margin is at least sum_i cos(rho_i) / |s| > 0 whenever some cap
        is smaller than a hemisphere;
      * when every cap is a hemisphere, the body is the dual of the cone K
        that the poles generate, and the witnesses are the interior of K.
        s lies in that interior whenever the poles span R^3; if they do
        not, the interior is empty and no witness exists.
    """
    structure = body.structure
    w = _unit(np.sum(body.poles, axis=0))
    if not contains(body, -w):
        margin = min(_arc_min_dot(structure, arc, w) for arc in structure.arcs)
        if margin > _WITNESS_MARGIN:
            return w, margin
    raise GeometryError(
        "no hemisphere witness found: body is not certifiably strongly convex"
    )


# ---------------------------------------------------------------------------
# distances and random bodies


def distance_to_body_many(body: CapBody, points: np.ndarray) -> np.ndarray:
    """Geodesic distance from each point to the body (0 inside).

    Outside distances are the minimum over boundary arcs (meridian foot when
    it falls inside the feasible theta-range) and vertices.
    """
    bs = body.structure
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


_POLE_SPREAD = 0.4
_MAX_ATTEMPTS = 256


def random_body(seed: int, k: int) -> CapBody:
    """Deterministic random strongly convex body.

    Poles are sampled within angular distance _POLE_SPREAD of the north pole,
    radii uniformly in [0.6, pi/2]; draws repeat until the body has nonempty
    interior, a hemisphere witness, clean boundary structure, and perimeter
    strictly below the equator length. The body returned holds its boundary
    structure, incircle, perimeter and witness.
    """
    if not 3 <= k <= 12:
        raise GeometryError(f"k must lie in [3, 12], got {k}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        poles = []
        for _ in range(k):
            ang, azi = rng.uniform(0.0, _POLE_SPREAD), rng.uniform(0.0, TWO_PI)
            sin_ang = math.sin(ang)
            poles.append([sin_ang * math.cos(azi), sin_ang * math.sin(azi), math.cos(ang)])
        radii = rng.uniform(0.6, HALF_PI, size=k)
        try:
            body = make_body(poles, radii)
            body.structure  # a degenerate boundary raises here, before the incircle
            _, rin = body.incircle
            if rin < 1e-3:
                continue
            if body.perimeter > TWO_PI - 1e-3:
                continue
            _, margin = body.witness
            if margin < 1e-3:
                continue
            return body
        except GeometryError:
            continue
    raise GeometryError(f"random_body(seed={seed}, k={k}) found no valid body")


def corpus_body(seed: int) -> tuple[str, CapBody]:
    """Corpus body ``seed`` and its name; cap counts cycle over 3..8 from seed 1."""
    k = 3 + (seed - 1) % 6
    return f"random-{seed:03d}-k{k}", random_body(seed, k)


def corpus_bodies(count: int) -> list[tuple[str, CapBody]]:
    """The reference corpus: corpus bodies 1..count."""
    return [corpus_body(seed) for seed in range(1, count + 1)]


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


def load_body(path) -> CapBody:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_body(fh.read())
