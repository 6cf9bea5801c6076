import math

import numpy as np
import pytest

from robinsphere.errors import GeometryError
from robinsphere.halfspace import (
    cone_contains,
    cylinder_contains,
    geodesic_point,
    hyp_distance,
    nonconvexity_witness,
    point,
)


def random_point(rng, spread=2.0):
    return point(rng.uniform(-spread, spread), rng.uniform(0.1, 3.0))


def test_point_validation():
    with pytest.raises(GeometryError):
        point(0.0, 0.0)
    with pytest.raises(GeometryError):
        point(0.0, -1.0)


def test_distance_vertical_unit():
    # (e - 1)/(2 sqrt(e)) = sinh(1/2), so the distance is exactly 1
    assert hyp_distance(point(0.0, 1.0), point(0.0, math.e)) == pytest.approx(1.0, abs=1e-12)


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x, y = random_point(rng), random_point(rng)
        assert hyp_distance(x, y) == pytest.approx(hyp_distance(y, x), abs=1e-13)
        assert hyp_distance(x, x) == 0.0


def test_geodesic_endpoints():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p, q = random_point(rng), random_point(rng)
        if hyp_distance(p, q) < 1e-6:
            continue
        assert hyp_distance(geodesic_point(p, q, 0.0), p) <= 1e-10
        assert hyp_distance(geodesic_point(p, q, 1.0), q) <= 1e-10


def test_geodesic_vertical_midpoint():
    mid = geodesic_point(point(0.0, 1.0), point(0.0, math.e), 0.5)
    assert mid.xn == pytest.approx(math.sqrt(math.e), abs=1e-12)
    assert mid.xhat[0] == 0.0


def test_geodesic_midpoint_equidistant():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p, q = random_point(rng), random_point(rng)
        if hyp_distance(p, q) < 1e-6:
            continue
        mid = geodesic_point(p, q, 0.5)
        assert abs(hyp_distance(p, mid) - hyp_distance(mid, q)) <= 1e-10


def test_geodesic_rejects_identical_points():
    with pytest.raises(GeometryError):
        geodesic_point(point(0.3, 1.0), point(0.3, 1.0), 0.5)


def test_cone_membership():
    delta = 0.3
    sh = math.sinh(delta)
    assert cone_contains(delta, point(0.0, 0.5 / sh))
    assert cone_contains(delta, point(0.0, 1.0 / sh))  # apex-height boundary point
    assert not cone_contains(delta, point(1.0, 0.5))
    with pytest.raises(GeometryError):
        cone_contains(0.0, point(0.0, 1.0))


def test_cylinder_convexity_sampling():
    # Step 1: geodesics between cylinder points stay inside (1000 pairs)
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(1000):
        p = point(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        q = point(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        if hyp_distance(p, q) < 1e-9:
            continue
        for s in np.linspace(0.0, 1.0, 21):
            if not cylinder_contains(geodesic_point(p, q, float(s))):
                violations += 1
    assert violations == 0


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.5])
def test_nonconvexity_witness(delta):
    w = nonconvexity_witness(delta)
    assert w.margin > 0.0
    assert 0.0 < w.s_star < 1.0
    assert cone_contains(delta, w.p)
    assert cone_contains(delta, w.q)
    assert not cone_contains(delta, w.violator)


def test_witness_margin_positive_on_log_grid():
    for delta in np.logspace(-3, 0, 7):
        assert nonconvexity_witness(float(delta), scan=501).margin > 0.0


def test_witness_dimension_three():
    w = nonconvexity_witness(0.1, n=3)
    assert w.margin > 0.0
    assert len(w.p.xhat) == 2


def test_witness_serialization():
    w = nonconvexity_witness(0.1)
    d = w.to_dict()
    assert set(d) == {"delta", "p", "q", "s_star", "violating_point", "margin"}
    assert d["margin"] == w.margin
    assert "xn" in d["violating_point"]
    assert w.to_json().endswith("\n")


def test_witness_rejects_bad_delta():
    with pytest.raises(GeometryError):
        nonconvexity_witness(-0.1)
