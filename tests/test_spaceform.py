import math

import numpy as np
import pytest
from scipy.integrate import quad

from robinsphere.errors import GeometryError
from robinsphere.spaceform import (
    ball_perimeter,
    ball_volume,
    radius_from_perimeter,
    sigma,
)


def test_sigma_low_dimensions():
    assert sigma(2) == pytest.approx(2.0 * math.pi, abs=1e-14)
    assert sigma(3) == pytest.approx(4.0 * math.pi, abs=1e-13)
    assert sigma(4) == pytest.approx(2.0 * math.pi**2, abs=1e-12)
    with pytest.raises(GeometryError):
        sigma(1)


def test_sigma_recursive_quadrature_oracle():
    # A_{n-1} = A_{n-2} * int_0^pi sin^(n-2)
    acc = 2.0 * math.pi
    for n in range(3, 7):
        acc = acc * quad(lambda t: math.sin(t) ** (n - 2), 0.0, math.pi, epsabs=1e-13)[0]
        assert sigma(n) == pytest.approx(acc, rel=1e-11)


def test_ball_geometry_hemispheres():
    assert ball_perimeter(2, math.pi / 2) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert ball_volume(math.pi / 2) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert ball_perimeter(3, math.pi / 2) == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_ball_geometry_small_cap_quadrature_oracle():
    # boundary circle length and area by quadrature in polar coordinates
    length = quad(lambda theta: math.sin(0.5), 0.0, 2.0 * math.pi)[0]
    assert ball_perimeter(2, 0.5) == pytest.approx(length, abs=1e-12)
    area = quad(lambda r: 2.0 * math.pi * math.sin(r), 0.0, 0.5, epsabs=1e-14)[0]
    assert ball_volume(0.5) == pytest.approx(area, abs=1e-12)


def test_ball_volume_monotone_in_radius():
    vols = [ball_volume(r) for r in np.linspace(0.05, math.pi / 2, 12)]
    assert all(b > a for a, b in zip(vols, vols[1:]))


def test_radius_from_perimeter_examples():
    assert radius_from_perimeter(2, 2.0 * math.pi) == pytest.approx(math.pi / 2, abs=1e-11)
    assert radius_from_perimeter(2, math.pi) == pytest.approx(math.pi / 6, abs=1e-11)
    with pytest.raises(GeometryError):
        radius_from_perimeter(2, 7.0)
    with pytest.raises(GeometryError):
        radius_from_perimeter(2, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radius_perimeter_roundtrip(n):
    # the hemisphere is the exact end of the range, where sin is flat
    assert radius_from_perimeter(n, sigma(n)) == math.pi / 2
    for r in np.linspace(0.01, math.pi / 2, 20):
        back = radius_from_perimeter(n, ball_perimeter(n, float(r)))
        assert back == pytest.approx(float(r), abs=1e-13)
