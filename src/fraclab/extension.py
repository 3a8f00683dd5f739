"""Degenerate-elliptic extension of fields to the upper half space.

The extension of u is

    U(y, t) = gamma * int_{R^n} t^{2s} (|y - z|^2 + t^2)^{-(n+2s)/2} u(z) dz,

which after the substitution z = y + t r theta collapses to a radial
integral of sphere means:

    U(y, t) = gamma * omega * int_0^inf r^{n-1} (1+r^2)^{-(n+2s)/2} S_u(y, t r) dr.

U solves div(t^{1-2s} grad U) = 0 for t > 0 with trace u, and its conormal
derivative -lim t^{1-2s} dU/dt recovers d_sigma * (-Lap)^s u.

:func:`extend` takes one point (y, t) or rows of them in one call, and
sums each row by the radial core of :mod:`fraclab.fracops`, with the
kernel r^{n-1} (1+r^2)^{-(n+2s)/2} and the scale t: GL8 on panels from a
head radius r_lo, graded about the field's kink edges over t.  Below r_lo
the sphere mean is a smooth even function of t r, and the head is
integrated against the kernel's moments on [0, r_lo], made per row by
Gauss-Legendre quadrature.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

from . import constants, fracops, geometry
from .fields import ScalarField
from .params import Params

Array = np.ndarray


#: Panels run out to OUTER, with a frozen-field tail beyond.
OUTER = 1e4

#: Gauss-Legendre nodes of the head moments on [0, r_lo].  Their integrand
#: is analytic but for the branch points +-i of (1+r^2)^{-c}, so on
#: r_lo <= 1 the error falls like 4.6^{-2 HEAD_NODES}, far below rounding.
HEAD_NODES = 32


def extend(field: ScalarField, y: Array, t, params: Params):
    """Value of the extension U(y, t) for t > 0.

    ``y`` (n,) with a float t gives a float; ``y`` (m, n) with t (m,)
    gives an (m,) array.  A single point is a batch of one, and the
    sphere-mean nodes of ``fracops.BLOCK`` rows go to the field in one call.

    Row j takes GL8 on panels from r_lo to ``OUTER``, graded about each
    kink edge over t; t r_lo is the least of t, half the nearest kink edge
    and ``fracops.INNER_RADIUS`` max(1, |y|).  Below r_lo the head fit of
    the sphere mean meets the moments of :func:`_head_moments`.
    """
    single = np.ndim(y) == 1
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    ts = np.asarray(t, dtype=float).reshape(-1)
    if ys.ndim != 2 or ys.shape[1] != field.n or ts.size != len(ys):
        raise ValueError("points must be y (n,) with one t or y (m, n) "
                         "with t (m,)")
    if (ts <= 0.0).any():
        raise ValueError("the extension is evaluated at t > 0")
    n, s2 = params.n, 2.0 * params.sigma
    dist = np.linalg.norm(ys, axis=1)
    edges = geometry.kink_edges(field.kink_radii, dist) / ts[:, None]
    smooth = np.minimum(fracops.INNER_RADIUS * np.maximum(1.0, dist) / ts,
                        0.5 * np.min(edges, axis=1, initial=np.inf))
    r_lo = np.minimum(1.0, smooth)
    centres, g0 = ((dist, field.radial_profile(dist)) if field.is_radial
                   else (ys, field(ys)))

    def kernel(r):
        # exp and log1p, which numpy vectorises, cost a third of a power
        return r ** (n - 1) * np.exp(-0.5 * (n + s2) * np.log1p(r * r))

    rows = geometry.panel_rows(1e-8, r_lo, np.full(ts.size, OUTER),
                               fracops.PANELS_PER_DECADE, edges)
    moments = _head_moments(n, params.sigma, r_lo)
    value, s_tail = np.empty((2, ts.size))
    for lo in range(0, ts.size, fracops.BLOCK):
        blk = slice(lo, lo + fracops.BLOCK)
        value[blk], _, s_tail[blk] = fracops._radial_sum(
            field, centres[blk], g0[blk], False, rows[blk], ts[blk], kernel,
            moments[blk], (8,), np.full(len(ts[blk]), OUTER))
    # tail: the kernel decays like r^{-1-2s}; treat u as frozen past OUTER
    value += s_tail * OUTER ** (-s2) / s2
    cset = constants.constant_set(params)
    value *= cset.gamma_poisson * cset.sphere_area
    return float(value[0]) if single else value


def _head_moments(n: int, sigma: float, r_lo: Array) -> Array:
    """int_0^{r_lo} (r / r_lo)^{2k} r^{n-1} (1+r^2)^{-c} dr, c = (n+2s)/2,
    k = 0, 1, 2 (columns), at each r_lo <= 1 of an array r_lo (rows).

    A moment is r_lo^n int_0^1 x^{n-1+2k} (1 + r_lo^2 x^2)^{-c} dx, summed on
    ``HEAD_NODES`` Gauss-Legendre nodes x in (0, 1).
    """
    c = (n + 2.0 * sigma) / 2.0
    x, w = geometry.gauss_nodes(np.zeros(1), np.ones(1), HEAD_NODES)
    weights = w * x ** (n - 1) * (1.0 + (r_lo[:, None] * x) ** 2) ** (-c)
    # row by row, so a row gets the same moments in any batch
    return r_lo[:, None] ** n * np.einsum("ij,jk->ik", weights,
                                          x[:, None] ** (2 * np.arange(3)))


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
    """-lim_{t->0} t^{1-2s} dU/dt of the extension, from t = 1/8 down; the
    20 heights of the ladder are one :func:`extend` call."""
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(conormal_limit(
        lambda ts: extend(field, np.tile(y, (len(ts), 1)), ts, params),
        1.0, range(3, 13), params.sigma))


def model_bubble_extension_halforder(y: Array, t, params: Params):
    """Closed-form extension of (1+|y|^2)^{-(n-1)/2} at sigma = 1/2.

    For sigma = 1/2 the extension operator is the classical harmonic
    Poisson kernel of the half space, and the model bubble extends to
    ((1+t)^2 + |y|^2)^{-(n-1)/2}.  Takes y (n,) with a float t, giving a
    float, or y (m, n) with t (m,), giving an (m,) array.
    """
    if abs(params.sigma - 0.5) > 1e-12:
        raise ValueError("closed form only at sigma = 1/2")
    y = np.asarray(y, dtype=float)
    # one point is a batch of one, so both take numpy's vector power
    rows = y.reshape(-1, y.shape[-1])
    val = ((1.0 + np.reshape(t, -1)) ** 2
           + np.sum(rows * rows, axis=1)) ** (-params.half_exp)
    return float(val[0]) if y.ndim == 1 else val
