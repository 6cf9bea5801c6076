import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from robinsphere import capbody
from robinsphere.capbody import (
    CapBody,
    CapConstraint,
    area,
    boundary_structure,
    cap_fixture,
    contains,
    distance_to_boundary,
    distance_to_body_many,
    dumps_body,
    hemisphere_witness,
    incenter_and_inradius,
    inner_parallel,
    inner_parallel_perimeters,
    inradius,
    loads_body,
    make_body,
    perimeter,
    random_body,
    sample_boundary,
)
from robinsphere.errors import (
    DegenerateGeometryError,
    EmptyInteriorError,
    GeometryError,
)
from robinsphere.spaceform import radius_from_perimeter

SQ3 = math.sqrt(3.0)


def uniform_sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def lens_fixture(gamma=0.8, rho=0.7):
    p1 = [0.0, math.sin(gamma / 2), math.cos(gamma / 2)]
    p2 = [0.0, -math.sin(gamma / 2), math.cos(gamma / 2)]
    return make_body([p1, p2], [rho, rho])


# --- construction and membership ------------------------------------------


def test_constraint_validation():
    with pytest.raises(GeometryError):
        CapConstraint((1.0, 0.1, 0.0), 0.5)
    with pytest.raises(GeometryError):
        CapConstraint((1.0, 0.0, 0.0), 0.0)
    with pytest.raises(GeometryError):
        CapConstraint((1.0, 0.0, 0.0), math.pi / 2 + 1e-6)
    with pytest.raises(GeometryError):
        CapBody(())


def test_contains_octant(octant):
    assert contains(octant, np.ones(3) / SQ3)
    assert not contains(octant, [-1.0, 0.0, 0.0])
    assert contains(octant, [1.0, 0.0, 0.0])  # boundary vertex, closed body


def test_distance_to_boundary_octant(octant):
    d = distance_to_boundary(octant, np.ones(3) / SQ3)
    assert d == pytest.approx(math.asin(1.0 / SQ3), abs=1e-12)


def test_distance_to_boundary_cap_center():
    body = cap_fixture(0.8)
    assert distance_to_boundary(body, [0.0, 0.0, 1.0]) == pytest.approx(0.8, abs=1e-15)


def test_distance_to_boundary_on_boundary(octant):
    p = np.array([0.0, math.sin(0.3), math.cos(0.3)])  # on the x = 0 great circle
    assert distance_to_boundary(octant, p) == pytest.approx(0.0, abs=1e-12)


def test_distance_rejects_outside(octant):
    with pytest.raises(GeometryError):
        distance_to_boundary(octant, [-1.0, 0.0, 0.0])


def test_distance_against_dense_boundary_sampling(small_corpus):
    name, body = small_corpus[2]
    bs = boundary_structure(body)
    boundary = sample_boundary(body, 10_000, bs)
    rng = np.random.default_rng(3)
    center, rin = incenter_and_inradius(body)
    checked = 0
    while checked < 100:
        p = uniform_sphere(rng, 1)[0]
        if not contains(body, p):
            continue
        d_closed = distance_to_boundary(body, p)
        if d_closed < 0.05:
            continue  # chord sampling error grows like spacing^2 / depth
        d_sampled = float(np.min(np.arccos(np.clip(boundary @ p, -1, 1))))
        assert abs(d_closed - d_sampled) <= 1e-6
        checked += 1


# --- inner parallels --------------------------------------------------------


def test_inner_parallel_single_cap():
    body = cap_fixture(0.9)
    shrunk = inner_parallel(body, 0.25)
    assert shrunk.radii[0] == pytest.approx(0.65, abs=1e-15)


def test_inner_parallel_octant(octant):
    shrunk = inner_parallel(octant, 0.1)
    assert np.allclose(shrunk.radii, math.pi / 2 - 0.1)
    # matches the distance formula: points at depth >= 0.1 stay members
    p = np.ones(3) / SQ3
    assert contains(shrunk, p)


def test_inner_parallel_beyond_inradius(octant):
    with pytest.raises(EmptyInteriorError):
        inner_parallel(octant, inradius(octant) + 0.01)


# --- boundary structure -----------------------------------------------------


def test_boundary_structure_hemisphere():
    bs = boundary_structure(cap_fixture(math.pi / 2))
    assert len(bs.arcs) == 1
    assert not bs.vertices
    assert bs.arcs[0].width == pytest.approx(2 * math.pi, abs=1e-14)


def test_boundary_structure_octant(octant):
    bs = boundary_structure(octant)
    assert len(bs.arcs) == 3
    assert len(bs.vertices) == 3
    for arc in bs.arcs:
        assert arc.width == pytest.approx(math.pi / 2, abs=1e-12)
        assert arc.geodesic_curvature == pytest.approx(0.0, abs=1e-12)
    for v in bs.vertices:
        assert v.exterior_angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_boundary_structure_lens():
    bs = boundary_structure(lens_fixture())
    assert len(bs.arcs) == 2
    assert len(bs.vertices) == 2
    # symmetric lens: equal widths, equal corner angles
    assert bs.arcs[0].width == pytest.approx(bs.arcs[1].width, abs=1e-12)
    assert bs.vertices[0].exterior_angle == pytest.approx(
        bs.vertices[1].exterior_angle, abs=1e-12
    )


def test_boundary_structure_alternation(small_corpus):
    for name, body in small_corpus:
        bs = boundary_structure(body)
        if not bs.vertices:
            continue
        assert len(bs.vertices) == len(bs.arcs)
        for k, vtx in enumerate(bs.vertices):
            nxt = bs.arcs[(k + 1) % len(bs.arcs)]
            start = bs.arc_point(nxt, nxt.theta_start)
            assert np.linalg.norm(start - vtx.point) <= 1e-9
            assert 0.0 < vtx.exterior_angle < math.pi


def test_tangent_caps_rejected():
    # two caps whose circles touch in exactly one point: gamma = rho1 + rho2
    rho1, rho2 = 0.5, 0.6
    gamma = rho1 + rho2
    p1 = [0.0, 0.0, 1.0]
    p2 = [0.0, math.sin(gamma), math.cos(gamma)]
    body = make_body([p1, p2], [rho1, rho2])
    with pytest.raises(DegenerateGeometryError):
        boundary_structure(body)


def test_empty_intersection_detected():
    p1 = [0.0, 0.0, 1.0]
    p2 = [0.0, math.sin(2.0), math.cos(2.0)]
    body = make_body([p1, p2], [0.5, 0.5])  # far apart, no overlap
    with pytest.raises(EmptyInteriorError):
        boundary_structure(body)


def test_redundant_constraint_contributes_nothing(octant):
    # a huge cap containing the whole octant
    redundant = make_body(
        np.vstack([octant.poles, np.ones(3) / SQ3]),
        np.concatenate([octant.radii, [math.pi / 2]]),
    )
    assert perimeter(redundant) == pytest.approx(perimeter(octant), abs=1e-12)
    assert area(redundant) == pytest.approx(area(octant), abs=1e-12)


# --- perimeter and area -----------------------------------------------------


def test_perimeter_area_hemisphere():
    body = cap_fixture(math.pi / 2)
    assert perimeter(body) == pytest.approx(2 * math.pi, abs=1e-12)
    assert area(body) == pytest.approx(2 * math.pi, abs=1e-12)


def test_perimeter_area_octant(octant):
    assert perimeter(octant) == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert area(octant) == pytest.approx(math.pi / 2, abs=1e-12)


def test_perimeter_area_cap_closed_form():
    body = cap_fixture(0.5)
    assert perimeter(body) == pytest.approx(2 * math.pi * math.sin(0.5), abs=1e-12)
    assert area(body) == pytest.approx(2 * math.pi * (1 - math.cos(0.5)), abs=1e-12)


def test_cap_area_against_monte_carlo_membership():
    body = cap_fixture(0.5)
    rng = np.random.default_rng(42)
    pts = uniform_sphere(rng, 1_000_000)
    hit = np.arccos(np.clip(pts @ np.array([0.0, 0.0, 1.0]), -1, 1)) <= 0.5
    p_hat = float(np.mean(hit))
    est = 4 * math.pi * p_hat
    se = 4 * math.pi * math.sqrt(p_hat * (1 - p_hat) / len(pts))
    assert abs(est - area(body)) <= 3 * se


def test_perimeter_minkowski_content(octant):
    # (vol(outer s) - vol)/s -> perimeter, Richardson-extrapolated MC
    rng = np.random.default_rng(7)
    pts = uniform_sphere(rng, 1_000_000)
    d = distance_to_body_many(octant, pts)
    total = 4 * math.pi

    def shell_rate(s):
        p_hat = float(np.mean((d > 0) & (d <= s)))
        se = total * math.sqrt(p_hat * (1 - p_hat) / len(pts)) / s
        return total * p_hat / s, se

    r1, se1 = shell_rate(1e-2)
    r2, se2 = shell_rate(5e-3)
    extrap = 2 * r2 - r1
    se = math.sqrt(4 * se2**2 + se1**2)
    assert abs(extrap - perimeter(octant)) <= 3 * se


def test_isoperimetric_inequality(octant, small_corpus):
    for body in [octant] + [b for _, b in small_corpus]:
        ball_p = 2 * math.pi * math.sin(
            radius_from_perimeter(2, perimeter(body))
        )
        a = area(body)
        # perimeter of the ball with the same area
        r_equal_area = math.acos(1 - a / (2 * math.pi))
        p_ball = 2 * math.pi * math.sin(r_equal_area)
        assert perimeter(body) >= p_ball - 1e-12
    # strict gap for the octant
    a = area(octant)
    r_equal_area = math.acos(1 - a / (2 * math.pi))
    assert perimeter(octant) - 2 * math.pi * math.sin(r_equal_area) > 0.5


def test_perimeter_monotone_under_inner_parallels(small_corpus):
    for name, body in small_corpus[:3]:
        rin = inradius(body)
        ts = np.linspace(0.0, rin * 0.95, 12)
        ps = [perimeter(inner_parallel(body, float(t), inradius_hint=rin)) for t in ts]
        for a, b in zip(ps, ps[1:]):
            assert b <= a + 1e-12


# --- inradius and incenter --------------------------------------------------


def test_inradius_cap():
    assert inradius(cap_fixture(0.5)) == pytest.approx(0.5, abs=1e-12)
    assert inradius(cap_fixture(math.pi / 2)) == pytest.approx(math.pi / 2, abs=1e-12)


def test_inradius_octant(octant):
    assert inradius(octant) == pytest.approx(math.asin(1.0 / SQ3), abs=1e-10)
    center, _ = incenter_and_inradius(octant)
    assert np.allclose(center, np.ones(3) / SQ3, atol=1e-9)


def test_inradius_against_sampled_maximization(small_corpus):
    rng = np.random.default_rng(11)
    for name, body in small_corpus[:3]:
        center, rin = incenter_and_inradius(body)
        # no sampled point may beat the reported incenter
        pts = uniform_sphere(rng, 20_000)
        dots = np.clip(pts @ body.poles.T, -1, 1)
        margins = np.min(body.radii[None, :] - np.arccos(dots), axis=1)
        assert float(np.max(margins)) <= rin + 1e-9
        assert contains(body, center)


# --- hemisphere witness -----------------------------------------------------


def test_witness_octant(octant):
    w, margin = hemisphere_witness(octant)
    assert np.allclose(w, np.ones(3) / SQ3, atol=1e-12)
    assert margin == pytest.approx(1.0 / SQ3, abs=1e-9)


def test_witness_single_cap():
    w, margin = hemisphere_witness(cap_fixture(0.7))
    assert np.allclose(w, [0.0, 0.0, 1.0], atol=1e-12)
    assert margin == pytest.approx(math.cos(0.7), abs=1e-12)


def test_witness_fails_on_hemisphere():
    # a closed hemisphere contains antipodal boundary points
    with pytest.raises(GeometryError):
        hemisphere_witness(cap_fixture(math.pi / 2))


# --- random bodies ----------------------------------------------------------


def test_random_body_deterministic():
    b1 = random_body(5, 4)
    b2 = random_body(5, 4)
    assert dumps_body(b1) == dumps_body(b2)


def test_random_body_contract():
    body = random_body(1, 3, spread=0.4)
    center, rin = incenter_and_inradius(body)
    assert rin > 0
    assert contains(body, center)
    assert perimeter(body) < 2 * math.pi
    assert np.all(body.radii >= 0.6) and np.all(body.radii <= math.pi / 2)


def test_random_body_rejects_bad_k():
    with pytest.raises(GeometryError):
        random_body(1, 2)
    with pytest.raises(GeometryError):
        random_body(1, 13)


def test_random_body_midpoint_convexity(small_corpus):
    name, body = small_corpus[3]
    rng = np.random.default_rng(23)
    pts = uniform_sphere(rng, 60_000)
    members = pts[[contains(body, p) for p in pts]]
    assert len(members) >= 2_000
    idx = rng.integers(0, len(members), size=(1_000, 2))
    a = members[idx[:, 0]]
    b = members[idx[:, 1]]
    mids = a + b
    norms = np.linalg.norm(mids, axis=1)
    ok = norms > 1e-12
    mids = mids[ok] / norms[ok, None]
    assert all(contains(body, m, tol=1e-10) for m in mids)


# --- serialization ----------------------------------------------------------


def test_serialization_roundtrip(small_corpus):
    name, body = small_corpus[0]
    text = dumps_body(body)
    back = loads_body(text)
    assert np.array_equal(back.poles, body.poles)
    assert np.array_equal(back.radii, body.radii)


def test_loads_rejects_malformed():
    with pytest.raises(GeometryError):
        loads_body("0 0 1\n")
    with pytest.raises(GeometryError):
        loads_body("")


def test_incenter_cache_returns_copies(small_corpus):
    body = small_corpus[3][1]
    p1, r1 = incenter_and_inradius(body)
    p1[:] = 0.0
    p2, r2 = incenter_and_inradius(body)
    assert r1 == r2
    assert np.linalg.norm(p2) == pytest.approx(1.0, abs=1e-12)
    assert contains(body, p2)


# --- batched arc kernel -----------------------------------------------------


def scalar_perimeter(body):
    """The arc kernel written as plain loops over circles and caps.

    Same crossings, midpoint tests and rejections as the batched kernel, one
    circle and one cap at a time; used as its reference.
    """
    poles, radii = body.poles, body.radii.tolist()
    frames = capbody._tables(body).frames
    total, arcs, full = 0.0, 0, False
    for i, (u, v, n) in enumerate(frames):
        si, ci = math.sin(radii[i]), math.cos(radii[i])
        coeffs, outside = [], False
        for j in range(len(radii)):
            if j == i:
                continue
            a, b = si * float(u @ poles[j]), si * float(v @ poles[j])
            c = math.cos(radii[j]) - ci * float(n @ poles[j])
            A = math.hypot(a, b)
            if A <= 1e-13:
                if abs(c) <= capbody._TANGENCY_TOL:
                    raise DegenerateGeometryError("coincident boundary circles")
                if c > 0.0:
                    outside = True
                    break
                continue
            r = c / A
            if abs(abs(r) - 1.0) <= capbody._TANGENCY_TOL:
                raise DegenerateGeometryError("tangent circles")
            if r > 1.0:
                outside = True
                break
            if r >= -1.0:
                coeffs.append((A, math.atan2(b, a), c))
        if outside:
            continue
        if not coeffs:
            total, arcs, full = total + 2 * math.pi * si, arcs + 1, True
            continue
        events = sorted(
            (t0 + sign * math.acos(c / A)) % (2 * math.pi)
            for A, t0, c in coeffs
            for sign in (-1.0, 1.0)
        )
        ends = events[1:] + [events[0] + 2 * math.pi]
        if any(tb - ta < 1e-12 for ta, tb in zip(events, ends)):
            raise DegenerateGeometryError("crossings at the same point")
        ok = [
            all(A * math.cos(0.5 * (ta + tb) - t0) >= c - capbody._FEAS_TOL for A, t0, c in coeffs)
            for ta, tb in zip(events, ends)
        ]
        if all(ok):
            raise DegenerateGeometryError("circle touched tangentially")
        total += si * sum(tb - ta for ta, tb, good in zip(events, ends, ok) if good)
        arcs += sum(1 for s in range(len(ok)) if ok[s] and not ok[s - 1])
    if arcs == 0:
        raise EmptyInteriorError("empty body")
    if full and arcs > 1:
        raise DegenerateGeometryError("full circle next to other arcs")
    return total


def outcome(fn, *args):
    """The value fn returns, or the type of the GeometryError it raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc)


def near_north(draw, spread):
    ang = draw(st.floats(0.0, spread))
    azi = draw(st.floats(0.0, 2 * math.pi))
    return [math.sin(ang) * math.cos(azi), math.sin(ang) * math.sin(azi), math.cos(ang)]


@st.composite
def cap_sets(draw):
    k = draw(st.integers(1, 8))
    poles = [near_north(draw, 0.8) for _ in range(k)]
    radii = [draw(st.floats(0.2, math.pi / 2)) for _ in range(k)]
    return make_body(poles, radii)


@settings(max_examples=150, deadline=None)
@given(cap_sets())
def test_kernel_matches_scalar_reference(body):
    """Arbitrary cap sets, accepted or rejected, including empty and redundant caps."""
    ref = outcome(scalar_perimeter, body)
    got = outcome(perimeter, body)
    if isinstance(ref, float):
        assert got == pytest.approx(ref, abs=1e-12)
    else:
        assert got is ref


def test_kernel_matches_scalar_reference_on_corpus_profiles(octant, small_corpus):
    for _, body in [("octant", octant), ("cap", cap_fixture(0.9)), *small_corpus]:
        ts = np.linspace(0.0, 0.99 * inradius(body), 33)
        got = inner_parallel_perimeters(body, ts)
        ref = [scalar_perimeter(inner_parallel(body, float(t))) for t in ts]
        assert np.max(np.abs(got - ref)) <= 1e-13


def at(azimuth_deg, dist):
    a = math.radians(azimuth_deg)
    return [math.sin(dist) * math.cos(a), math.sin(dist) * math.sin(a), math.cos(dist)]


T_VANISH = 0.2


def vanishing_edge_body():
    """Caps 0, 1, 2 all pass through the north pole at t = T_VANISH.

    The edge on cap 2 lies between those on caps 0 and 1 and shrinks to that
    point; cap 3 closes the body.
    """
    return make_body(
        [at(0, 0.6), at(100, 0.6), at(50, 0.6), at(230, 0.6)],
        [0.6 + T_VANISH] * 3 + [0.9 + T_VANISH],
    )


def test_kernel_rejects_like_per_t_oracle_where_an_edge_vanishes():
    body = vanishing_edge_body()
    assert len(boundary_structure(inner_parallel(body, 0.199)).arcs) == 4
    assert len(boundary_structure(inner_parallel(body, 0.21)).arcs) == 3
    expected = outcome(perimeter, inner_parallel(body, T_VANISH))
    assert expected is DegenerateGeometryError
    assert outcome(scalar_perimeter, inner_parallel(body, T_VANISH)) is expected
    # the flagged distance is the last one, three kernel blocks in
    ts = np.linspace(0.0, T_VANISH, 2 * capbody._block_rows(4) + 2)
    assert outcome(inner_parallel_perimeters, body, ts) is expected
    assert outcome(inner_parallel_perimeters, body, [0.0, T_VANISH, 0.21]) is expected
    ps = inner_parallel_perimeters(body, ts[:-1])
    oracle = [perimeter(inner_parallel(body, float(t))) for t in ts[:-1:50]]
    assert np.max(np.abs(ps[::50] - oracle)) <= 1e-13


def test_kernel_rejects_like_per_t_oracle_for_internally_tangent_circles():
    # cap 1 lies inside cap 0 and touches its boundary circle; inner parallels
    # shrink both radii equally, so the tangency persists for every t
    body = make_body([at(0, 0.0), at(0, 0.3)], [0.8, 0.5])
    for t in (0.0, 0.2):
        expected = outcome(perimeter, inner_parallel(body, t))
        assert expected is DegenerateGeometryError
        assert outcome(scalar_perimeter, inner_parallel(body, t)) is expected
        assert outcome(inner_parallel_perimeters, body, [t]) is expected


def test_inner_parallel_perimeters_validates_distances(octant):
    with pytest.raises(GeometryError):
        inner_parallel_perimeters(octant, [0.0, -0.1])
    with pytest.raises(EmptyInteriorError):
        inner_parallel_perimeters(octant, [0.0, inradius(octant) + 0.05])


# --- invariances of the batched profile ---------------------------------------

INVARIANCE_SEEDS = st.integers(1, 30)


def corpus_body(seed):
    return random_body(seed, 3 + (seed - 1) % 6)


def shared_grid(body):
    return np.linspace(0.0, 0.99 * inradius(body), 129)


@settings(max_examples=20, deadline=None)
@given(INVARIANCE_SEEDS, st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
def test_profile_invariant_under_rotation(seed, rotvec):
    body = corpus_body(seed)
    rot = Rotation.from_rotvec(rotvec).as_matrix()
    turned = make_body(body.poles @ rot.T, body.radii)
    ts = shared_grid(body)
    diff = inner_parallel_perimeters(turned, ts) - inner_parallel_perimeters(body, ts)
    assert np.max(np.abs(diff)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(INVARIANCE_SEEDS, st.data())
def test_profile_invariant_under_cap_permutation(seed, data):
    body = corpus_body(seed)
    perm = data.draw(st.permutations(range(len(body.constraints))))
    shuffled = CapBody(tuple(body.constraints[i] for i in perm))
    ts = shared_grid(body)
    diff = inner_parallel_perimeters(shuffled, ts) - inner_parallel_perimeters(body, ts)
    assert np.max(np.abs(diff)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(INVARIANCE_SEEDS, st.data())
def test_profile_invariant_under_redundant_cap(seed, data):
    body = corpus_body(seed)
    center, _ = incenter_and_inradius(body)
    reach = float(np.max(np.arccos(np.clip(sample_boundary(body, 2000) @ center, -1.0, 1.0))))
    margin = data.draw(st.floats(0.05, 0.3))
    assume(reach + margin <= math.pi / 2)
    # the cap about the incenter holds the body with that margin, and every
    # inner parallel of the body inside the same inner parallel of the cap
    spot = data.draw(st.integers(0, len(body.constraints)))
    extra = CapConstraint(tuple(float(x) for x in center), reach + margin)
    caps = list(body.constraints)
    caps.insert(spot, extra)
    ts = shared_grid(body)
    diff = inner_parallel_perimeters(CapBody(tuple(caps)), ts) - inner_parallel_perimeters(body, ts)
    assert np.max(np.abs(diff)) <= 1e-12
