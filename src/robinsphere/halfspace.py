"""Poincare half-space primitives and the non-convex inner parallel witness.

Works in the upper half-space {(xhat, xn) : xn > 0} with the hyperbolic
metric. The construction: the solid cylinder {|xhat| <= 1} is convex, the
distance tubes around vertical lines are Euclidean cones, so the inner
parallel sets of the cylinder are the cones

    {(xhat, xn) : xn > 0, |xhat| <= 1 - sinh(delta) xn},

and a geodesic arc between two boundary points of the cone bulges outside:
a certified witness of non-convexity for every delta > 0.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from robinsphere.errors import GeometryError


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point of the half-space model: horizontal part and height xn > 0."""

    xhat: tuple[float, ...]
    xn: float

    def __post_init__(self):
        if not self.xn > 0.0:
            raise GeometryError(f"half-space height must be positive, got {self.xn}")

    @property
    def xhat_array(self) -> np.ndarray:
        return np.asarray(self.xhat, dtype=float)


def point(xhat, xn: float) -> HalfSpacePoint:
    if np.isscalar(xhat):
        xhat = (float(xhat),)
    return HalfSpacePoint(tuple(float(c) for c in np.atleast_1d(xhat)), float(xn))


def hyp_distance(x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """2 arcsinh(|x - y| / (2 sqrt(xn yn))) with the Euclidean norm upstairs."""
    dx = x.xhat_array - y.xhat_array
    eucl = math.sqrt(float(dx @ dx) + (x.xn - y.xn) ** 2)
    return 2.0 * math.asinh(eucl / (2.0 * math.sqrt(x.xn * y.xn)))


def geodesic_point(p: HalfSpacePoint, q: HalfSpacePoint, s: float) -> HalfSpacePoint:
    """Constant-speed point along the geodesic from p (s=0) to q (s=1).

    Vertical pairs interpolate heights geometrically. Otherwise the geodesic
    is the circular arc orthogonal to the ideal boundary, parameterized as
    center + R (t w, sqrt(1 - t^2)) with t = tanh of the arc length variable.
    """
    ph, qh = p.xhat_array, q.xhat_array
    sep = float(np.linalg.norm(ph - qh))
    if sep < 1e-15 and abs(p.xn - q.xn) < 1e-15:
        raise GeometryError("geodesic through two identical points is undefined")
    if sep < 1e-15:
        xn = p.xn ** (1.0 - s) * q.xn**s
        return HalfSpacePoint(tuple(ph), xn)

    w = (ph - qh) / sep
    # center (c, 0) on the line through the horizontal projections:
    # |p - x0| = |q - x0| with x0 = qh + c w
    ap = float((ph - qh) @ w)  # = sep
    c = 0.5 * (ap * ap + p.xn * p.xn - q.xn * q.xn) / ap
    x0 = qh + c * w
    radius = math.sqrt(float((ph - x0) @ (ph - x0)) + p.xn * p.xn)
    t_p = float((ph - x0) @ w) / radius
    t_q = float((qh - x0) @ w) / radius
    tau_p = math.atanh(min(1.0 - 1e-16, max(-1.0 + 1e-16, t_p)))
    tau_q = math.atanh(min(1.0 - 1e-16, max(-1.0 + 1e-16, t_q)))
    tau = tau_p + s * (tau_q - tau_p)
    t = math.tanh(tau)
    xhat = x0 + radius * t * w
    xn = radius / math.cosh(tau)
    return HalfSpacePoint(tuple(xhat), xn)


def cone_contains(delta: float, x: HalfSpacePoint) -> bool:
    """Membership in the inner parallel set of the unit cylinder at depth delta."""
    if delta <= 0.0:
        raise GeometryError(f"delta must be positive, got {delta}")
    return x.xn > 0.0 and float(np.linalg.norm(x.xhat_array)) <= 1.0 - math.sinh(delta) * x.xn


def cylinder_contains(x: HalfSpacePoint) -> bool:
    return float(np.linalg.norm(x.xhat_array)) <= 1.0


@dataclass
class NonconvexityWitness:
    delta: float
    p: HalfSpacePoint
    q: HalfSpacePoint
    s_star: float
    violator: HalfSpacePoint
    margin: float

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "p": {"xhat": list(self.p.xhat), "xn": self.p.xn},
            "q": {"xhat": list(self.q.xhat), "xn": self.q.xn},
            "s_star": self.s_star,
            "violating_point": {"xhat": list(self.violator.xhat), "xn": self.violator.xn},
            "margin": self.margin,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# Relative slack of d(p, v) + d(v, q) = d(p, q) for the violator v: about 4 eps
# of rounding in each of the three distances. Over 600 delta in [5.5e-7, 354.19]
# the excess is at most 5.1e-16; at delta = 1e-8 it is 0.32.
_GEODESIC_TOL = 16.0 * sys.float_info.epsilon
# hyp_distance multiplies two heights; the square of the lower one,
# 0.5 / sinh(delta), must stay a normal float
_MAX_DELTA = math.asinh(0.5 / math.sqrt(sys.float_info.min))


def nonconvexity_witness(delta: float, n: int = 2, scan: int = 2001) -> NonconvexityWitness:
    """Certified failure of convexity for the cone at depth delta.

    p is the apex-height boundary point on the axis, q the boundary point at
    half the apex height (recorded for reproducibility); the geodesic between
    them is scanned for the largest violation of the cone inequality. Both
    endpoints are certified inside.

    The violator v is certified on the geodesic: d(p, v) + d(v, q) exceeds
    L = d(p, q) by at most e = _GEODESIC_TOL L. Then v lies within
    r = sqrt(e (2 L + e)) / 2 of the segment (the Euclidean ellipse bound;
    hyperbolic triangles are thinner), so within v_n expm1(r) in the
    Euclidean metric, and the cosh(delta)-Lipschitz violation must exceed
    cosh(delta) v_n expm1(r). Rounding moves the points of near-vertical
    geodesics sideways by about eps times the circle's radius, so delta
    below about 5e-7 fails this certificate.
    """
    if not 0.0 < delta <= _MAX_DELTA:
        raise GeometryError(
            f"delta must lie in (0, {_MAX_DELTA:.6g}], where the witness heights "
            f"1/sinh(delta) stay in the float range; got {delta}"
        )
    if n < 2:
        raise GeometryError(f"dimension must be >= 2, got {n}")
    sh = math.sinh(delta)
    p = HalfSpacePoint((0.0,) * (n - 1), 1.0 / sh)
    q = HalfSpacePoint((0.5,) + (0.0,) * (n - 2), 0.5 / sh)
    if not (cone_contains(delta, p) and cone_contains(delta, q)):
        raise GeometryError("witness endpoints fell outside the cone")

    best_s, best_v, best_pt = 0.0, -math.inf, p
    for s in np.linspace(0.0, 1.0, scan):
        g = geodesic_point(p, q, float(s))
        v = float(np.linalg.norm(g.xhat_array)) - (1.0 - sh * g.xn)
        if v > best_v:
            best_s, best_v, best_pt = float(s), v, g
    length = hyp_distance(p, q)
    excess = hyp_distance(p, best_pt) + hyp_distance(best_pt, q) - length
    allowed = _GEODESIC_TOL * length
    reach = 0.5 * math.sqrt(allowed * (2.0 * length + allowed))
    uncertainty = math.cosh(delta) * best_pt.xn * math.expm1(reach)
    if not (excess <= allowed and best_v > uncertainty):
        raise GeometryError(
            f"no certified violation at delta = {delta}: margin {best_v:.3e} against a "
            f"position uncertainty of {uncertainty:.3e}, relative excess "
            f"{excess / length:.3e} off the geodesic (allowed {_GEODESIC_TOL:.3e})"
        )
    return NonconvexityWitness(
        delta=delta, p=p, q=q, s_star=best_s, violator=best_pt, margin=best_v
    )
