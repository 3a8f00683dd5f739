"""Fractional Laplacian and Riesz potential via radial singular integrals.

Both operators are reduced to one-dimensional integrals of sphere means.
Writing S(s) for the mean of f over the sphere of radius s about x,

* (-Lap)^s f(x) = C * omega * int_0^inf (f(x) - S(s)) s^{-1-2s} ds,
  which is the symmetric-difference form, and
* I_{2s} f(x)   = r * omega * int_0^inf s^{2s-1} S(s) ds,

with omega the area of the unit sphere.  The composite panel rules carry
an embedded lower-order estimate, so every value ships with an error bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants, geometry
from .fields import QuadratureSpec, ScalarField
from .params import Params

Array = np.ndarray


@dataclass(frozen=True)
class OpResult:
    """A quadrature value with its internal error estimate."""

    value: float
    error: float


def _sphere_means(field: ScalarField, x: Array, radii: Array,
                  angular_points: int) -> Array:
    """Sphere means of the field about x at each radius, vectorized."""
    n = field.n
    if field.is_radial:
        d = float(np.linalg.norm(x))
        if n == 1:
            lo = np.abs(d - radii)
            hi = d + radii
            vals = field.radial_profile(np.concatenate([lo, hi]))
            return 0.5 * (vals[: radii.size] + vals[radii.size:])
        t, w = geometry.radial_sphere_rule(n, angular_points)
        rr = np.sqrt(np.maximum(
            d * d + radii[:, None] ** 2 + 2.0 * d * radii[:, None] * t[None, :], 0.0))
        return field.radial_profile(rr.ravel()).reshape(rr.shape) @ w
    pts, wts = geometry.sphere_rule(n, angular_points)
    pts_all = x[None, None, :] + radii[:, None, None] * pts[None, :, :]
    vals = field(pts_all.reshape(-1, n)).reshape(radii.size, -1)
    return vals @ wts


def _panel_breaks(field: ScalarField, d: float, outer: float,
                  per_decade: int) -> Array:
    """Geometric panels plus graded breaks where sphere means lose smoothness.

    A kink of the profile at radius k shows up in the sphere mean about x
    (|x| = d) at s = |k - d| and s = k + d.
    """
    edges = [e for k in field.kink_radii for e in (abs(k - d), k + d)
             if e > 1e-11]
    return geometry.graded_breaks(1e-12, outer, per_decade, edges,
                                  (0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1))


def frac_lap_at(field: ScalarField, x: Array, params: Params,
                spec: QuadratureSpec = QuadratureSpec()) -> OpResult:
    """(-Lap)^sigma of the field at the point x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != field.n:
        raise ValueError("point dimension does not match field")
    cset = constants.constant_set(params)
    s2 = 2.0 * params.sigma
    fx = field.at(x)
    d = float(np.linalg.norm(x))

    outer = spec.outer_radius
    if field.decay == "compact_support":
        outer = max(outer, d + field.support_radius * 1.001)

    # Below s_lo the difference f(x) - S(s) = a (s/s_lo)^2 + b (s/s_lo)^4 + ...
    # drowns in float cancellation, so that stretch is integrated from a
    # two-term even Taylor fit instead of raw quadrature.
    s_lo = spec.inner_radius * max(1.0, d)
    d_lo = fx - _sphere_means(field, x, np.array([s_lo, 0.5 * s_lo]),
                              spec.angular_points)
    a = (16.0 * d_lo[1] - d_lo[0]) / 3.0
    b = d_lo[0] - a
    inner = s_lo ** (-s2) * (a / (2.0 - s2) + b / (4.0 - s2))
    inner_err = abs(b) * s_lo ** (-s2) / (4.0 - s2) * 0.5

    breaks = _panel_breaks(field, d, outer, spec.panels_per_decade)
    breaks = np.concatenate([[s_lo], breaks[breaks > s_lo]])
    body, err = geometry.panel_quad(
        lambda s: (fx - _sphere_means(field, x, s, spec.angular_points))
        * s ** (-1.0 - s2), breaks, estimate=True)
    fine = inner + body
    err += inner_err

    # tail beyond the last panel
    tail = fx * outer ** (-s2) / s2
    s_tail = _sphere_means(field, x, np.array([outer]), spec.angular_points)[0]
    if field.decay == "compact_support":
        tail_err = 0.0
    elif field.decay == "power_decay":
        alpha = field.decay_rate
        amp = s_tail * outer ** alpha
        tail -= amp * outer ** (-(alpha + s2)) / (alpha + s2)
        tail_err = abs(amp) * outer ** (-(alpha + s2)) / (alpha + s2) * 0.1
    else:
        tail_err = 2.0 * max(abs(fx), abs(s_tail)) * outer ** (-s2) / s2
    fine += tail
    err += tail_err

    front = cset.c_frac * cset.sphere_area
    return OpResult(front * fine, front * err)


def frac_lap_radial(field: ScalarField, d: float, params: Params,
                    spec: QuadratureSpec = QuadratureSpec()) -> OpResult:
    """Fractional Laplacian of a radial field at distance d from the origin."""
    if not field.is_radial:
        raise ValueError("frac_lap_radial needs a radial field")
    x = np.zeros(field.n)
    x[0] = d
    return frac_lap_at(field, x, params, spec)


def riesz_potential(field: ScalarField, x: Array, params: Params,
                    spec: QuadratureSpec = QuadratureSpec()) -> OpResult:
    """Riesz potential I_{2 sigma} of the field at the point x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    cset = constants.constant_set(params)
    s2 = 2.0 * params.sigma
    n = field.n
    d = float(np.linalg.norm(x))

    outer = spec.outer_radius
    if field.decay == "compact_support":
        outer = d + field.support_radius * 1.001
    fine, err = geometry.panel_quad(
        lambda s: _sphere_means(field, x, s, spec.angular_points) * s ** (s2 - 1.0),
        _panel_breaks(field, d, outer, spec.panels_per_decade), estimate=True)

    if field.decay != "compact_support":
        s_tail = _sphere_means(field, x, np.array([outer]), spec.angular_points)[0]
    if field.decay == "power_decay":
        # S(s) ~ amp * s^{-alpha}; the tail converges because alpha > 2 sigma
        alpha = field.decay_rate
        if alpha <= s2:
            raise ValueError("Riesz potential diverges: decay rate <= 2 sigma")
        amp = s_tail * outer ** alpha
        tail = amp * outer ** (s2 - alpha) / (alpha - s2)
        fine += tail
        err += abs(tail) * 0.1
    elif field.decay == "integrable_against_kernel":
        err += abs(s_tail) * outer ** s2  # crude: undecayed tail is unbounded-ish

    front = cset.riesz_constant * cset.sphere_area
    return OpResult(front * fine, front * err)


def riesz_ball_indicator(d: float, radius: float, params: Params,
                         per_decade: int = 8) -> float:
    """Riesz potential of the indicator of the ball B_radius, at distance d.

    Works in scaled variables tau = s / radius so that tiny radii (down to
    the underflow floor) lose no accuracy: the result is
    r * omega * radius^{2s} * J(d / radius).
    """
    cset = constants.constant_set(params)
    s2 = 2.0 * params.sigma
    n = params.n
    delta = d / radius
    front = cset.riesz_constant * cset.sphere_area

    if delta > 1e3:
        # point-mass far field: I(x) ~ r * |B_radius| * d^{2s - n},
        # grouped as radius^{2s} * delta^{2s - n} to dodge underflow
        return front / n * radius ** s2 * delta ** (s2 - n)

    # refine around the cap-transition radius |delta - 1|
    edge = abs(delta - 1.0)
    breaks = geometry.graded_breaks(
        1e-12, delta + 1.0, per_decade,
        [edge] if delta > 0.0 and edge > 1e-10 else [],
        (0.9, 0.99, 1.0, 1.01, 1.1))
    val = geometry.panel_quad(
        lambda t: geometry.cap_fraction(delta, t, 1.0, n) * t ** (s2 - 1.0), breaks)
    if delta < 1.0 - breaks[0]:
        # analytic head below the first panel, where the cap fraction is 1
        val += breaks[0] ** s2 / s2
    return front * radius ** s2 * val
