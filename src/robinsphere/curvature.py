"""Total curvature measures of a cap body and Steiner formulas on S^2.

For a convex body with circular-arc boundary the three totals are

    phi2 = area,
    phi1 = boundary length,
    phi0 = integral of geodesic curvature over the arcs plus the exterior
           angles at corners, which is 2 pi - area by Gauss-Bonnet,

and outer parallel volumes/boundaries close exactly:

    |body^s|  = phi2 + sin(s) phi1 + (1 - cos(s)) phi0,
    P(body^s) = cos(s) phi1 + sin(s) phi0.

Corner contributions enter phi0 as exterior angles; the corner wedges of the
outer parallel are geodesic disc sectors, which is what makes the polytopal
Steiner formula close without remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from robinsphere.capbody import TWO_PI, CapBody
from robinsphere.errors import GeometryError
from robinsphere.spaceform import HALF_PI, sigma


@dataclass(frozen=True)
class CurvatureMeasures:
    phi0: float
    phi1: float
    phi2: float


def compute_measures(body: CapBody) -> CurvatureMeasures:
    """phi0 by Gauss-Bonnet from the area, which sums the same arcs and corners."""
    return CurvatureMeasures(phi0=TWO_PI - body.area, phi1=body.perimeter, phi2=body.area)


def _check_reach_guard(s: float) -> None:
    # strongly convex sets on the unit sphere have reach >= pi/2
    if s < 0.0 or s >= HALF_PI:
        raise GeometryError(
            f"outer parallel distance {s} outside [0, pi/2): beyond the guaranteed reach"
        )


def steiner_volume(m: CurvatureMeasures, s: float) -> float:
    """Volume of the outer parallel set at distance s of the body with measures m."""
    _check_reach_guard(s)
    return m.phi2 + math.sin(s) * m.phi1 + (1.0 - math.cos(s)) * m.phi0


def steiner_boundary(m: CurvatureMeasures, s: float) -> float:
    """Boundary measure of the outer parallel set at distance s of the body with measures m."""
    _check_reach_guard(s)
    return math.cos(s) * m.phi1 + math.sin(s) * m.phi0


def alexandrov_fenchel_gap(m: CurvatureMeasures) -> float:
    """Nonnegative deficit (phi0/sigma_2)^2 - 1 + (phi1/sigma_2)^2 on S^2.

    Vanishes exactly for geodesic balls; positivity for everything else is
    the n = 2 mean-curvature comparison.
    """
    s2 = sigma(2)
    return (m.phi0 / s2) ** 2 - (1.0 - (m.phi1 / s2) ** 2)
