"""Degenerate-elliptic extension of fields to the upper half space.

The extension of u is

    U(y, t) = gamma * int_{R^n} t^{2s} (|y - z|^2 + t^2)^{-(n+2s)/2} u(z) dz,

which after the substitution z = y + t r theta collapses to a radial
integral of sphere means:

    U(y, t) = gamma * omega * int_0^inf r^{n-1} (1+r^2)^{-(n+2s)/2} S_u(y, t r) dr.

U solves div(t^{1-2s} grad U) = 0 for t > 0 with trace u, and its conormal
derivative -lim t^{1-2s} dU/dt recovers d_sigma * (-Lap)^s u.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

from . import constants, geometry
from .fields import QuadratureSpec, ScalarField
from .fracops import _sphere_means
from .params import Params

Array = np.ndarray


#: Panels out to OUTER at the default resolution, made once for every call.
SPEC, OUTER = QuadratureSpec(), 1e4
BREAKS = geometry.panel_breaks(1e-8, OUTER, SPEC.panels_per_decade)


def extend(field: ScalarField, y: Array, t: float, params: Params) -> float:
    """Value of the extension U(y, t) for t > 0."""
    if t <= 0.0:
        raise ValueError("the extension is evaluated at t > 0")
    y = np.asarray(y, dtype=float).reshape(-1)
    cset = constants.constant_set(params)
    n, s2 = params.n, 2.0 * params.sigma

    val = geometry.panel_quad(
        lambda r: _sphere_means(field, y, t * r, SPEC.angular_points)
        * (r ** (n - 1) * (1.0 + r ** 2) ** (-(n + s2) / 2.0)), BREAKS)

    # tail: the kernel decays like r^{-1-2s}; treat u as frozen past OUTER
    s_tail = _sphere_means(field, y, np.array([t * OUTER]), SPEC.angular_points)[0]
    val += s_tail * OUTER ** (-s2) / s2
    return cset.gamma_poisson * cset.sphere_area * val


def conormal_limit(U: Callable[[List[float]], Sequence[float]], t_top: float,
                   ks: Iterable[int], sigma: float) -> float:
    """-lim_{t->0} t^{1-2s} dU/dt, by Richardson extrapolation along t_k = t_top 2^{-k}.

    ``U`` takes the heights t_k (1 + 0.05), then t_k (1 - 0.05), as one list
    and returns their values.  As t^{1-2s} dU/dt = -conormal + O(t^{2-2s}),
    the centred differences at successive halvings are combined with that
    exponent; the two extrapolants that agree best (of three levels or more) win.
    """
    q = 0.05
    rho = 2.0 ** (-(2.0 - 2.0 * sigma))
    ts = [t_top * 2.0 ** (-k) for k in ks]
    if len(ts) < 3:
        raise ValueError(f"conormal_limit needs at least three levels, got {len(ts)}")
    vals = U([t * (1 + q) for t in ts] + [t * (1 - q) for t in ts])
    ladder = [-t ** (1.0 - 2.0 * sigma) * ((up - um) / (2 * q * t))
              for t, up, um in zip(ts, vals[:len(ts)], vals[len(ts):])]
    extrap = [(ladder[i + 1] - rho * ladder[i]) / (1.0 - rho)
              for i in range(len(ladder) - 1)]
    diffs = [abs(extrap[i + 1] - extrap[i]) for i in range(len(extrap) - 1)]
    best = int(np.argmin(diffs))
    return extrap[best + 1]


def conormal_derivative(field: ScalarField, y: Array, params: Params) -> float:
    """-lim_{t->0} t^{1-2s} dU/dt of the extension, from t = 1/8 down."""
    return conormal_limit(lambda ts: [extend(field, y, t, params) for t in ts],
                          1.0, range(3, 13), params.sigma)


def model_bubble_extension_halforder(y: Array, t: float, params: Params) -> float:
    """Closed-form extension of (1+|y|^2)^{-(n-1)/2} at sigma = 1/2.

    For sigma = 1/2 the extension operator is the classical harmonic
    Poisson kernel of the half space, and the model bubble extends to
    ((1+t)^2 + |y|^2)^{-(n-1)/2}.
    """
    if abs(params.sigma - 0.5) > 1e-12:
        raise ValueError("closed form only at sigma = 1/2")
    y = np.asarray(y, dtype=float).reshape(-1)
    r2 = float(np.dot(y, y))
    return ((1.0 + t) ** 2 + r2) ** (-params.half_exp)
