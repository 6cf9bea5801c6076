"""Closed-form geodesic balls of the round sphere.

Provides the hemisphere-boundary constant sigma_n, the perimeter of a
geodesic ball on S^n and its inverse, and the area of a geodesic ball on S^2.
"""

from __future__ import annotations

import math

from robinsphere.errors import GeometryError

HALF_PI = math.pi / 2.0


def sigma(n: int) -> float:
    """Boundary measure of the n-dimensional hemisphere, i.e. the area of S^(n-1)."""
    if n < 2:
        raise GeometryError(f"n must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_perimeter(n: int, radius: float) -> float:
    """Boundary measure of the geodesic ball of the given radius on S^n."""
    return sigma(n) * math.sin(radius) ** (n - 1)


def ball_volume(radius: float) -> float:
    """Area of the geodesic ball of the given radius on S^2."""
    return sigma(2) * (1.0 - math.cos(radius))


def radius_from_perimeter(n: int, perimeter: float) -> float:
    """Radius in (0, pi/2] of the geodesic ball with the given boundary measure.

    Inverts sigma_n sin^(n-1)(R) = P in closed form. Perimeters above sigma_n
    have no strongly convex ball and are rejected.
    """
    s = sigma(n)
    if perimeter <= 0.0:
        raise GeometryError(f"perimeter must be positive, got {perimeter}")
    if perimeter > s:
        raise GeometryError(
            f"perimeter {perimeter} exceeds sigma_{n} = {s}: no strongly convex ball"
        )
    return math.asin((perimeter / s) ** (1.0 / (n - 1)))
