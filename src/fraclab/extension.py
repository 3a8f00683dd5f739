"""Degenerate-elliptic extension of fields to the upper half space.

The extension of u is

    U(y, t) = gamma * int_{R^n} t^{2s} (|y - z|^2 + t^2)^{-(n+2s)/2} u(z) dz,

which after the substitution z = y + t r theta collapses to a radial
integral of sphere means:

    U(y, t) = gamma * omega * int_0^inf r^{n-1} (1+r^2)^{-(n+2s)/2} S_u(y, t r) dr.

U solves div(t^{1-2s} grad U) = 0 for t > 0 with trace u, and its conormal
derivative -lim t^{1-2s} dU/dt recovers d_sigma * (-Lap)^s u.

:func:`extend` takes one point (y, t) or rows of them in one call, and
sums them by the sphere-mean driver of :mod:`fraclab.fracops`, with the
kernel r^{n-1} (1+r^2)^{-(n+2s)/2} and the scale t, on the operators' own
rules: GL8 on panels graded about the field's kink edges over t, the head
fit against the moments of r^{n-1} below r_lo, and the driver's outer
radius and far-field law for the kernel's far power r^{-1-2s}.

The model bubble w = (1+|z|^2)^{-b}, b = (n-2s)/2, has an extension in one
variable at every sigma.  With a = (n+2s)/2, write the Poisson kernel and w
as A^{-a} and B^{-b}, A = t^2 + |y - z|^2 and B = 1 + |z|^2.  Feynman's
parametrisation, a + b = n,

    A^{-a} B^{-b} = Gamma(n) / (Gamma(a) Gamma(b))
                    int_0^1 u^{a-1} (1-u)^{b-1} (u A + (1-u) B)^{-n} du,

and u A + (1-u) B = |z - u y|^2 + C(u) turn the z-integral into
int (|z|^2 + C)^{-n} dz = pi^{n/2} Gamma(n/2) / Gamma(n) C^{-n/2}, so

    U(y, t) = t^{2s} Gamma(n/2) / (Gamma(s) Gamma(b))
              int_0^1 u^{a-1} (1-u)^{b-1} C(u)^{-n/2} du,
    C(u) = u (1-u) |y|^2 + u t^2 + (1 - u).

Each term of C is non-negative, so it sums with no cancellation; C(0) = 1,
C(1) = t^2, and its roots lie outside [0, 1].  At sigma = 1/2 this is
((1+t)^2 + |y|^2)^{-(n-1)/2}.  :func:`model_bubble_extension` sums it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence

import numpy as np

from . import constants, fracops, geometry
from .fields import ScalarField
from .params import Params

Array = np.ndarray


def extend(field: ScalarField, y: Array, t, params: Params):
    """Value of the extension U(y, t) for t > 0.

    ``y`` (n,) with a float t gives a float; ``y`` (m, n) with t (m,)
    gives an (m,) array.  A single point is a batch of one.

    One :func:`fracops._sphere_mean_sum` call sums every row with the scale
    t, a radial field at the distance |y - centre|; its outer rule and
    far-field law see the kernel's far power r^{-1-2s}.  The kernel is
    taken as r^{-1-2s} (1 + r^-2)^{-(n+2s)/2} past r = 1, so that no power
    of a far node overflows.
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
    e_far = -1.0 - s2

    def kernel(r):
        far = r > 1.0
        u = np.where(far, 1.0 / r, r)
        return r ** np.where(far, e_far, n - 1.0) * np.exp(
            -0.5 * (n + s2) * np.log1p(u * u))

    value, _ = fracops._sphere_mean_sum(
        field, ys, geometry.radius(ys - field.centre), kernel, n - 1.0, (8,),
        ts, e_far)
    cset = constants.constant_set(params)
    value *= cset.gamma_poisson * cset.sphere_area
    return float(value[0]) if single else value


def conormal_limit(U: Callable[[List[float]], Sequence[float]], t_top: float,
                   ks: Iterable[int], sigma: float) -> float:
    """-lim_{t->0} t^{1-2s} dU/dt, by Richardson extrapolation along t_k = t_top 2^{-k}.

    ``U`` takes the heights t_k (1 + 0.05), then t_k (1 - 0.05), as one list
    and returns their values.  As t^{1-2s} dU/dt = -conormal + O(t^{2-2s}),
    the centred differences at successive halvings are combined with that
    exponent; the two extrapolants that agree best (of three levels or more) win.
    With U ~ U_0 - c t^{2s}, each difference is divided by its t-free bias
    F = [(1 + q)^{2s} - (1 - q)^{2s}] / (4 q s) = sum_j C(2s, 2j + 1) q^{2j} / 2s,
    whose terms after the first carry 2s - 1, so F is 1 at s = 1/2 exactly.
    """
    q = 0.05
    factor = sum(math.prod((2.0 * sigma - k) / (k + 1.0) for k in range(1, j))
                 * q ** (j - 1) for j in range(1, 16, 2))
    rho = 2.0 ** (-(2.0 - 2.0 * sigma))
    ts = [t_top * 2.0 ** (-k) for k in ks]
    if len(ts) < 3:
        raise ValueError(f"conormal_limit needs at least three levels, got {len(ts)}")
    vals = U([t * (1 + q) for t in ts] + [t * (1 - q) for t in ts])
    ladder = [-t ** (1.0 - 2.0 * sigma) * ((up - um) / (2 * q * t) / factor)
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


#: Rows of :func:`model_bubble_extension` summed together, so that no
#: temporary grows with the batch.
BUBBLE_BLOCK = 128


def model_bubble_extension(y: Array, t, params: Params):
    """Extension U(y, t) of the model bubble (1+|y|^2)^{-(n-2s)/2} at any
    sigma, by the Feynman-parameter integral of the module notes, for t > 0
    down to t^2 = 1e-290 (1 + |y|^2 + t^2), where the panels reach the
    bottom of the float range.

    Takes y (n,) with a float t, giving a float, or y (m, n) with t (m,),
    giving an (m,) array.  The u-integral is always summed, at sigma = 1/2
    too, where the closed form checks it.  Each row is its own sum (see
    :func:`_feynman_integral`), so a row's value does not depend on its batch.
    """
    n, s = params.n, params.sigma
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    ts = np.asarray(t, dtype=float).reshape(-1)
    if y.ndim not in (1, 2) or rows.shape[1] != n or ts.size != len(rows):
        raise ValueError("points must be y (n,) with one t or y (m, n) "
                         "with t (m,)")
    rr, tt = np.sum(rows * rows, axis=1), ts * ts
    # the panels at u = 1 run down to a quarter of tt / (1 + rr + tt)
    if not ((ts > 0.0) & (tt >= 1e-290 * (1.0 + rr + tt))).all():
        raise ValueError("the extension is evaluated at t > 0, with t^2 at "
                         "least 1e-290 (1 + |y|^2 + t^2)")
    value = np.empty(ts.size)
    for lo in range(0, ts.size, BUBBLE_BLOCK):
        blk = slice(lo, lo + BUBBLE_BLOCK)
        value[blk] = _feynman_integral(rr[blk], tt[blk], n, s)
    value *= constants.gamma_fn(n / 2.0) / (
        constants.gamma_fn(s) * constants.gamma_fn(params.half_exp))
    return float(value[0]) if y.ndim == 1 else value


#: Gauss-Legendre nodes a dyadic panel of :func:`_feynman_integral`.  The
#: nearest singularity of a panel [h, 2h] is the endpoint power at 0, so the
#: error falls like (3 + 8^{1/2})^{-2 FEYNMAN_ORDER}: about 8e-13 of the
#: value at 8 nodes, rounding at 10.
FEYNMAN_ORDER = 10


def _feynman_integral(rr: Array, tt: Array, n: int, s: float) -> Array:
    """t^{2s} int_0^1 u^{a-1} (1-u)^{b-1} C(u)^{-n/2} du per row, C(u) =
    u (1-u) rr + u tt + (1 - u), a = n/2 + s and b = n/2 - s.

    [0, 1] splits at 1/2.  Toward each end the panels are dyadic,
    [2^{-k-1}, 2^{-k}] in the distance x from it for k = 1, 2, ..., down to
    the first 2^{-K} at or below a quarter of the scale on which C changes
    there: 1 / (1 + rr + tt) at u = 0 and tt / (1 + rr + tt) at u = 1.  The
    last panel [0, 2^{-K}] takes the 8-node Gauss-Jacobi rule of the end's
    power x^{a-1} or x^{b-1}, and every other panel ``FEYNMAN_ORDER``
    Gauss-Legendre nodes.  The terms of a row are summed in a fixed order
    by ``bincount``, with no BLAS.
    """
    a, b = n / 2.0 + s, n / 2.0 - s
    spread = np.log2(1.0 + rr + tt)
    terms, owners = [], []
    for power, other, levels, at_one in (
            (a - 1.0, b - 1.0, np.ceil(2.0 + spread), False),
            (b - 1.0, a - 1.0, np.ceil(2.0 + spread - np.log2(tt)), True)):
        k = np.arange(1.0, levels.max())
        row, col = np.nonzero(k[None, :] < levels[:, None])
        x, w = geometry.gauss_nodes(0.5 ** (k + 1.0), 0.5 ** k, FEYNMAN_ORDER)
        x, w = x.reshape(-1, FEYNMAN_ORDER), w.reshape(-1, FEYNMAN_ORDER)
        xj, wj = geometry.power_rule(power, 8)
        h = 0.5 ** levels
        # the end's power, at the node on a GL panel and h^(power + 1) on the
        # Gauss-Jacobi one, joins C^(-n/2) and the front t^(2s) in one
        # exponent: near the floor on t each of them alone leaves the range
        lw = np.concatenate([(power * np.log(x))[col].ravel(),
                             np.repeat((power + 1.0) * np.log(h), 8)])
        x = np.concatenate([x[col].ravel(), (h[:, None] * xj).ravel()])
        w = np.concatenate([w[col].ravel(), np.tile(wj, rr.size)])
        owner = np.concatenate([row.repeat(FEYNMAN_ORDER),
                                np.arange(rr.size).repeat(8)])
        # x is the distance from this end, so u and v = 1 - u keep full
        # relative precision at both ends
        u, v = (1.0 - x, x) if at_one else (x, 1.0 - x)
        c = u * v * rr[owner] + u * tt[owner] + v
        terms.append(w * np.exp(lw + other * np.log1p(-x) + s * np.log(tt[owner])
                                - 0.5 * n * np.log(c)))
        owners.append(owner)
    return np.bincount(np.concatenate(owners), np.concatenate(terms),
                       minlength=rr.size)
