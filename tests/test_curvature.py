import math

import numpy as np
import pytest

from robinsphere.capbody import (
    cap_fixture,
    distance_to_body_many,
    inner_parallel,
    inradius,
)
from robinsphere.curvature import (
    alexandrov_fenchel_gap,
    compute_measures,
    steiner_boundary,
    steiner_volume,
)
from robinsphere.errors import GeometryError


def uniform_sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("R", [0.3, 0.8, 1.2])
def test_measures_ball(R):
    m = compute_measures(cap_fixture(R))
    assert m.phi0 == pytest.approx(2 * math.pi * math.cos(R), abs=1e-12)
    assert m.phi1 == pytest.approx(2 * math.pi * math.sin(R), abs=1e-12)
    assert m.phi2 == pytest.approx(2 * math.pi * (1 - math.cos(R)), abs=1e-12)


def test_measures_octant(octant):
    m = compute_measures(octant)
    # great-circle edges carry no geodesic curvature; three right corners
    assert m.phi0 == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert m.phi1 == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert m.phi2 == pytest.approx(math.pi / 2, abs=1e-12)


def test_measures_hemisphere():
    m = compute_measures(cap_fixture(math.pi / 2))
    assert m.phi0 == pytest.approx(0.0, abs=1e-12)


def test_steiner_at_zero(octant):
    m = compute_measures(octant)
    assert steiner_volume(m, 0.0) == m.phi2
    assert steiner_boundary(m, 0.0) == m.phi1


def test_steiner_ball_closes_exactly():
    R = 0.7
    body = cap_fixture(R)
    m = compute_measures(body)
    for s in (0.1, 0.35, 0.6):
        assert steiner_volume(m, s) == pytest.approx(
            2 * math.pi * (1 - math.cos(R + s)), abs=1e-12
        )
        assert steiner_boundary(m, s) == pytest.approx(
            2 * math.pi * math.sin(R + s), abs=1e-12
        )


def test_steiner_reach_guard(octant):
    with pytest.raises(GeometryError):
        steiner_volume(compute_measures(octant), math.pi / 2)
    with pytest.raises(GeometryError):
        steiner_boundary(compute_measures(octant), -0.1)


def test_steiner_octant_against_monte_carlo(octant):
    m = compute_measures(octant)
    rng = np.random.default_rng(123)
    pts = uniform_sphere(rng, 1_000_000)
    d = distance_to_body_many(octant, pts)
    s = 0.1
    p_hat = float(np.mean(d <= s))
    est = 4 * math.pi * p_hat
    se = 4 * math.pi * math.sqrt(p_hat * (1 - p_hat) / len(pts))
    assert abs(est - steiner_volume(m, s)) <= 3 * se


def test_steiner_closure_finite_differences(octant, small_corpus):
    bodies = [octant, cap_fixture(0.6)] + [b for _, b in small_corpus[:2]]
    h = 1e-6
    for body in bodies:
        m = compute_measures(body)
        for s in (0.05, 0.3, 1.0):
            dv = (steiner_volume(m, s + h) - steiner_volume(m, s - h)) / (2 * h)
            bd = steiner_boundary(m, s)
            assert dv == pytest.approx(bd, rel=1e-6)


def test_boundary_derivative_at_zero_is_phi0(octant):
    m = compute_measures(octant)
    h = 1e-7
    d0 = (steiner_boundary(m, h) - steiner_boundary(m, 0.0)) / h
    assert d0 == pytest.approx(m.phi0, rel=1e-6)


def test_af_gap_ball_is_zero():
    for R in (0.2, 0.9, math.pi / 2):
        gap = alexandrov_fenchel_gap(compute_measures(cap_fixture(R)))
        assert abs(gap) <= 1e-12


def test_af_gap_octant_closed_form(octant):
    gap = alexandrov_fenchel_gap(compute_measures(octant))
    assert gap == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_af_gap_nonnegative_on_corpus(small_corpus):
    for name, body in small_corpus:
        gap = alexandrov_fenchel_gap(compute_measures(body))
        assert gap >= -1e-9


def test_af_gap_decreases_under_shrinking(small_corpus):
    # inner parallels of a convex body lose isoperimetric deficit
    name, body = small_corpus[1]
    rin = inradius(body)
    ts = np.linspace(0.0, rin * 0.999, 24)
    gaps = [
        alexandrov_fenchel_gap(compute_measures(inner_parallel(body, float(t))))
        for t in ts
    ]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-9
    assert gaps[-1] < 1e-3
    assert all(g >= -1e-12 for g in gaps)
