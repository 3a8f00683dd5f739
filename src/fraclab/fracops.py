"""Fractional Laplacian and Riesz potential via radial singular integrals.

Writing S(s) for the mean of f over the sphere of radius s about x,

* (-Lap)^s f(x) = C * omega * int_0^inf (f(x) - S(s)) s^{-1-2s} ds,
  which is the symmetric-difference form, and
* I_{2s} f(x)   = r * omega * int_0^inf s^{2s-1} S(s) ds,

with omega the area of the unit sphere: int_0^inf s^e g(s) ds with
e = -1 - 2 sigma, g = f(x) - S(s) and e = 2 sigma - 1, g = S(s) (Kwaśnicki,
FCAA 20(1), 2017).  One radial core, :func:`_radial_sum`, sums the
Laplacian, the potential of a field that is not radial, and the extension
of :mod:`fraclab.extension`, on rows of panels graded at the field's
kinks, GL8 with an embedded GL4, so every value has an error bar.  A
radial field's sphere means are split at the kinks of its profile
(:func:`geometry.radial_mean_rule`); other fields take a product rule.

Near s = 0 the sphere mean is a smooth even function of s, so the core
integrates the stretch below a small radius s_lo from a two-term even
Taylor fit, g(s) = g(0) + a (s/s_lo)^2 + b (s/s_lo)^4, against the
kernel's moments on [0, s_lo] (s_lo^{e+1} / (e + 1 + 2k) for s^e), and
charges half the quartic term to the error bar.

The potential of a radial field needs no sphere means.  The mean of
|x - y|^{-q}, q = n - 2 sigma, over the sphere |y| = rho is
K(d, rho) = max(d, rho)^{-q} 2F1(q/2, 1 - sigma; n/2; z),
z = (min / max)^2 and d = |x| (Landkof, *Foundations of Modern Potential
Theory*, 1972, §I.1), so I_{2s} f(x) = r omega int_0^inf f(rho)
rho^{n-1} K(d, rho) d rho, one integral in rho (:func:`_kernel_integral`).
The kernel is summed with numpy alone (:func:`_kernel_factor`), its
singularity at rho = d by a Gauss rule for its log weight
(:func:`geometry.log_rule`), the stretch below 0.4 d as a series in the
field's moments, and outside twice the support of a compact field the
potential is the like series in (a/d)^2 (:func:`_exterior_series`); the
moments are made once per field.

:func:`frac_lap_at` and :func:`riesz_potential` each take one point (n,)
or a batch (m, n).  A radial field is evaluated at each point's distance
from the origin.

:func:`riesz_field` tabulates the potential of such a field once: one
batched call at Chebyshev nodes inside twice the support, the exterior
series beyond it, and an interpolation bound read from the trailing
Chebyshev coefficients.  A nested operator such as (-Lap)^s I_{2s} f then
costs one table, not one potential per outer quadrature node.

:func:`riesz_ball_indicator` is Dyda's closed form, a 2F1 with
c - a - b = 2 sigma, summed by :func:`_hyp2f1`: the Maclaurin series near
z = 0 and the connection formula of Abramowitz & Stegun 15.3.6 near
z = 1, whose log limit at sigma = 1/2 (A&S 15.3.11) needs no case of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from . import constants, geometry
from .fields import ScalarField, radial_field
from .params import Params

Array = np.ndarray


@dataclass(frozen=True)
class OpResult:
    """A quadrature value with its internal error estimate.

    Floats for one point; arrays of shape (m,) for a batch of m points.
    """

    value: float
    error: float


#: Distances (for a radial field) or points whose sphere-mean nodes go to
#: the field in one call: about 300 radii each, times 24 polar nodes a
#: piece or ``PRODUCT_POINTS``, so a batch needs no more memory than one.
BLOCK = 16

#: Radial panels a decade, and points of the product rule for other fields.
PANELS_PER_DECADE = 4
PRODUCT_POINTS = 32

#: Terms of the exterior series of :func:`riesz_potential`; beyond 2a each
#: term is under a quarter of the one before, so the rest is below 4^-40.
SERIES_TERMS = 40

#: Gauss-Legendre panels per stretch between kinks for the moments of the
#: exterior series.
MOMENT_PANELS = 16

#: Chebyshev nodes on each of the two pieces of :func:`riesz_field`, and
#: the trailing coefficients its interpolation bound is read from.
TABLE_NODES = 48
TRAILING = 4

#: Panels start at INNER_RADIUS * max(1, d) or below; a field without
#: compact support is summed out to OUTER_RADIUS, with a tail model beyond.
INNER_RADIUS = 1e-3
OUTER_RADIUS = 1e3


def _sphere_means(field: ScalarField, centres: Array, radii: Array) -> Array:
    """Sphere means of the field, one per radius, each about its own centre:
    a distance for a radial field, split at its kinks by
    :func:`geometry.radial_mean_rule`, and a point (n,) otherwise."""
    if field.is_radial:
        r, w, row = geometry.radial_mean_rule(field.n, centres, radii,
                                              field.kink_radii)
        vals = field.radial_profile(np.abs(r, out=r).ravel())
        return np.bincount(row, np.einsum("ij,ij->i", vals.reshape(r.shape),
                                          w), minlength=radii.size)
    n = field.n
    pts, wts = geometry.sphere_rule(n, PRODUCT_POINTS)
    pts_all = centres[:, None, :] + radii[:, None, None] * pts[None, :, :]
    vals = field(pts_all.reshape(-1, n)).reshape(radii.size, -1)
    # row by row (a BLAS product may sum a row differently by its place in
    # the block), so a point gets the same means in any batch
    return np.einsum("ij,j->i", vals, wts)


def frac_lap_at(field: ScalarField, x: Array, params: Params) -> OpResult:
    """(-Lap)^sigma at one point (n,) or a batch (m, n), by
    :func:`_radial_integral`."""
    cset = constants.constant_set(params)
    return _radial_integral(field, x, -1.0 - 2.0 * params.sigma,
                            cset.c_frac * cset.sphere_area)


def frac_lap_radial(field: ScalarField, d, params: Params) -> OpResult:
    """Fractional Laplacian of a radial field at one distance d from the
    origin (float fields) or at a 1-D array of them (arrays)."""
    if not field.is_radial:
        raise ValueError("frac_lap_radial needs a radial field")
    return frac_lap_at(field, np.asarray(d, dtype=float)[..., None]
                       * np.eye(field.n)[0], params)


def riesz_potential(field: ScalarField, x: Array, params: Params) -> OpResult:
    """Riesz potential I_{2 sigma} at one point (n,) or a batch (m, n) of a
    field with compact support or power decay faster than r^{-2 sigma}:
    one integral in rho against the sphere-mean kernel for a radial field,
    sphere means otherwise (:func:`_radial_integral`)."""
    front = _riesz_front(params)
    s2 = 2.0 * params.sigma
    if field.decay == "integrable_against_kernel":
        raise ValueError("Riesz potential needs compact support or power "
                         f"decay, got decay {field.decay!r}")
    if field.decay == "power_decay" and field.decay_rate <= s2:
        raise ValueError("Riesz potential diverges: decay rate <= 2 sigma")
    return _radial_integral(field, x, s2 - 1.0, front)


def _riesz_front(params: Params) -> float:
    """r omega, the front of every Riesz potential; n <= 2 sigma raises."""
    if params.n <= 2.0 * params.sigma:
        raise ValueError(f"Riesz potential diverges: n = {params.n} <= "
                         f"2 sigma = {2.0 * params.sigma:g}")
    cset = constants.constant_set(params)
    return cset.riesz_constant * cset.sphere_area


def _radial_integral(field: ScalarField, x: Array, e: float,
                     front: float) -> OpResult:
    """front * int_0^inf s^e g(s) ds and its error bar, where g = f(x) - S(s)
    for e < -1, the fractional Laplacian, and g = S(s) for e > -1, the
    Riesz potential.

    ``x`` is one point (n,), giving floats, or a batch (m, n), giving
    arrays (m,); a single point is a batch of one.  A radial field is
    evaluated at each point's distance from the origin, and its potential
    is the one integral in rho of :func:`_radial_potential`.  Every other
    case is summed on sphere means by :func:`_sphere_mean_integral`.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != field.n:
        raise ValueError("points must have shape (n,) or (m, n)")
    batch = pts.reshape(-1, field.n)
    dist = np.linalg.norm(batch, axis=1)
    if e > -1.0 and field.is_radial:
        value, error = _radial_potential(field, dist, 0.5 * (e + 1.0))
    else:
        value, error = _sphere_mean_integral(field, batch, dist, e)
    value, error = front * value, front * error
    if pts.ndim == 1:
        return OpResult(float(value[0]), float(error[0]))
    return OpResult(value, error)


def _sphere_mean_integral(field: ScalarField, batch: Array, d: Array,
                          e: float) -> Tuple[Array, Array]:
    """int_0^inf s^e g(s) ds and its bar at the points of ``batch``, on the
    sphere means S(s) about each point (about its distance d for a radial
    field).

    :func:`_radial_sum` takes GL8 and GL4 on the panels above
    s_lo = min(INNER_RADIUS * max(1, d), nearest kink edge / 2), where
    f(x) - S(s) would drown in float cancellation, and the head below; the
    bar adds the tail charge.  A compact field is summed out to
    d + 1.001 a (the Laplacian: at least ``OUTER_RADIUS``).
    """
    lap = e < -1.0
    centres, f0 = ((d, field.radial_profile(d)) if field.is_radial
                   else (batch, field(batch)))
    compact = field.decay == "compact_support"
    outer = (d + field.support_radius * 1.001 if compact
             else np.full(d.size, OUTER_RADIUS))
    if compact and lap:
        outer = np.maximum(outer, OUTER_RADIUS)
    edges = geometry.kink_edges(field.kink_radii, d)
    s_lo = np.minimum(INNER_RADIUS * np.maximum(1.0, d),
                      0.5 * np.min(edges, axis=1, initial=np.inf))
    rows = geometry.panel_rows(1e-12, s_lo, outer, PANELS_PER_DECADE, edges)
    moments = s_lo[:, None] ** (e + 1.0) / (e + 1.0 + 2.0 * np.arange(3))
    tail = outer[:0] if compact else outer  # S(outer) is not read if compact
    fine, err, s_tail = np.empty(d.size), np.empty(d.size), np.empty(tail.size)
    for lo in range(0, d.size, BLOCK):
        blk = slice(lo, lo + BLOCK)
        fine[blk], err[blk], s_tail[blk] = _radial_sum(
            field, centres[blk], f0[blk], lap, rows[blk],
            np.ones(len(f0[blk])), lambda s: s ** e, moments[blk], (8, 4),
            tail[blk])

    # tail beyond outer: c in closed form (c = 0 where e > -1), S modelled
    c, sign = (f0, -1.0) if lap else (np.zeros(d.size), 1.0)
    far = outer ** (e + 1.0)
    fine -= c * far / (e + 1.0)
    if field.decay == "power_decay":
        # S(s) ~ S(outer) (outer / s)^alpha, integrable as alpha > e + 1
        tail = s_tail * far / (field.decay_rate - e - 1.0)
        fine += sign * tail
        err += 0.1 * np.abs(tail)
    elif not compact:
        # S is only known to stay bounded: charge twice its size so far
        err += 2.0 * np.maximum(np.abs(c), np.abs(s_tail)) * far / abs(e + 1.0)
    return fine, err


def _radial_potential(field: ScalarField, d: Array, sigma: float
                      ) -> Tuple[Array, Array]:
    """int_0^inf s^{2 sigma - 1} S(s) ds and its bar at the distances d of a
    radial field: the exterior series of :func:`_exterior_series` beyond
    twice the support of a compact field, and :func:`_kernel_integral`
    everywhere else."""
    far = (d > 2.0 * field.support_radius
           if field.decay == "compact_support" else np.zeros(d.size, bool))
    if not far.any():
        return _kernel_integral(field, d, sigma)
    if far.all():
        return _exterior(field, 2.0 * sigma)(d)
    value, error = np.empty((2, d.size))
    value[far], error[far] = _exterior(field, 2.0 * sigma)(d[far])
    value[~far], error[~far] = _kernel_integral(field, d[~far], sigma)
    return value, error


#: Breaks about a distance d > 0, as multiples of d: the kernel is singular
#: at rho = d.  The two panels that touch it take the split rule of
#: :func:`_kernel_integral`, whose smooth parts are singular only at
#: rho = 0 (so each is under a third of its distance from 0 wide); every
#: other panel is at most as wide as its distance from d.  The geometric
#: grid gives way to these breaks between the first and the last.
NEAR_GRADING = (0.4, 0.7, 1.0, 1.4, 1.8, 2.6)

#: Distances at or below this are the origin: the potential of a field
#: smooth there moves by O(d^2), under rounding at d <= 1e-8 INNER_RADIUS.
CENTRE_RADIUS = 1e-8 * INNER_RADIUS


def _kernel_integral(field: ScalarField, d: Array, sigma: float
                     ) -> Tuple[Array, Array]:
    """int_0^inf f(rho) rho^{n-1} K(d, rho) d rho and its bar at distances d
    (a 1-D array) of a radial field with compact support or power decay.

    K(d, rho) = hi^{-q} F(z), q = n - 2 sigma, is the mean of |x - y|^{-q}
    over the sphere |y| = rho about the origin, |x| = d, with lo and hi
    the smaller and the larger of d and rho, F = 2F1(q/2, 1 - sigma; n/2; z)
    and z = (lo / hi)^2 (Landkof, *Foundations of Modern Potential
    Theory*, 1972, §I.1).  F is summed as in :func:`_hyp2f1` with m = 0,
    in w = 1 - z = (hi - lo)(hi + lo) / hi^2, which keeps its digits at
    rho = d.  The panels are those of :func:`_kernel_breaks`; each takes
    GL8 for the value and GL4 for the bar, except:

    * the two panels [d - h, d] and [d, d + h] next to the singularity.
      There F = E(ln w) p(w) - q(w) with E(y) = expm1(eps y) / eps,
      eps = 2 sigma - 1, and w = x v, x = |rho - d|; since
      E(ln x + ln v) = E(ln x) v^eps + E(ln v), the integrand is
      E(ln x) g1 + g2 with g1 and g2 smooth, and
      int_0^h = h int_0^1 [p E(ln h v) - q] phi dt
      - h^{1 + eps} int_0^1 (1 - t^eps) / eps p v^eps phi dt,
      the first by Gauss-Legendre and the second by the Gauss rule of
      that weight, :func:`geometry.log_rule`; at sigma = 1/2 it is -ln t.
    * at d = 0, the panel [0, INNER_RADIUS], where K = rho^{-q}: the
      Gauss-Jacobi rule of :func:`geometry.power_rule` for
      rho^{2 sigma - 1}.
    * beyond the last break R of a power-decay field, f ~ rho^{-alpha}:
      in t = 1 / rho the integrand is t^{alpha - 2 sigma - 1} times a
      smooth function on (0, 1 / R), taken by its Gauss-Jacobi rule.

    Below grid[cut], the largest break of the field's grid at or below
    0.4 d, rho / d <= 0.4 and K = d^{-q} sum_j c_j (rho / d)^{2j} (c_j the
    Maclaurin coefficients of F), so that stretch is
    d^{-q} sum_j c_j m_j d^{-2j} with the field's moments m_j of
    :func:`_interior`, made once per field.

    The bar is |GL8 - GL4| (the same for the other rules and the moments),
    plus the rounding bound k eps sum |terms| of each k-term sum, plus the
    kernel's truncation bound from :func:`_kernel_rule` times the sum of
    |terms|, as F >= 1.
    """
    n, s2 = field.n, 2.0 * sigma
    q = n - s2
    d = np.where(d > CENTRE_RADIUS, d, 0.0)
    power_decay = field.decay == "power_decay"
    end = (np.maximum(OUTER_RADIUS, 4.0 * d) if power_decay
           else np.full(d.size, float(field.support_radius)))
    graded = [k * g for k in field.kink_radii for g in geometry.GRADING]
    grid, moments = _interior(field)
    cut = np.searchsorted(grid, NEAR_GRADING[0] * d, side="right") - 1
    # one entry per panel, and one more for each split panel's log rule:
    # start, signed width, rule (0 Gauss-Legendre, 1 the head at d = 0,
    # 2 the log rule from d), row, and scale (0; the width for a split
    # panel's GL nodes; -1 for its log-rule nodes)
    panels = []
    for j, (dj, start, ej) in enumerate(zip(d.tolist(), grid[cut].tolist(),
                                            end.tolist())):
        breaks = _kernel_breaks(dj, graded, start, ej)
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if dj > 0.0 and dj in (lo, hi):
                panels += [(lo, hi - lo, 0, j, hi - lo),
                           (dj, lo - hi if hi == dj else hi - lo, 2, j, -1.0)]
            else:
                panels.append((lo, hi - lo, int(dj == 0.0 and lo == 0.0),
                               j, 0.0))
    start, width, kind, row, scale = np.array(panels).T
    kind, row = kind.astype(int), row.astype(int)
    nodes, w8, w4, power = _kernel_template(sigma)
    # the log rule's weights go as h^{1 + eps}, the others' as h
    size = np.abs(width) ** power[kind]
    rho = (start[:, None] + width[:, None] * nodes[kind]).ravel()
    fine_w = (size[:, None] * w8[kind]).ravel()
    coarse_w = (size[:, None] * w4[kind]).ravel()
    owner = row.repeat(nodes.shape[1])
    scale = scale.repeat(nodes.shape[1])
    if power_decay:
        u, u8, u4 = _tail_template(field.decay_rate, sigma)
        beta = field.decay_rate - s2 - 1.0
        big = end[:, None] / u
        jac = end[:, None] ** (-beta - 1.0) * big ** (2.0 + beta)
        rho, fine_w, coarse_w, owner, scale = (np.concatenate(x) for x in (
            (rho, big.ravel()), (fine_w, (jac * u8).ravel()),
            (coarse_w, (jac * u4).ravel()),
            (owner, np.arange(d.size).repeat(u.size)),
            (scale, np.zeros(big.size))))

    at = d[owner]
    lo_, hi_ = np.minimum(rho, at), np.maximum(rho, at)
    v = (hi_ + lo_) / (hi_ * hi_)
    w = (hi_ - lo_) * v
    # ln w; on a split panel ln (h v) at its GL nodes and ln v at its
    # log-rule nodes (scale -1), where the kernel is p v^eps
    kernel = _kernel_factor(n, sigma, (lo_ / hi_) ** 2, w, scale != 0.0,
                            np.log(np.where(scale == 0.0, w,
                                            np.abs(scale) * v)), scale < 0.0)
    terms = field.radial_profile(rho) * rho ** (n - 1) * hi_ ** -q * kernel
    m = d.size
    fine = np.bincount(owner, terms * fine_w, minlength=m)
    coarse = np.bincount(owner, terms * coarse_w, minlength=m)
    absolute = np.bincount(owner, np.abs(terms * fine_w), minlength=m)
    count = np.bincount(owner, fine_w != 0.0, minlength=m)
    trunc = _kernel_rule(n, sigma)[-1]
    err = (np.abs(fine - coarse)
           + (count * np.finfo(float).eps + trunc) * absolute)

    # [0, grid[cut]]: d^{-q} sum_j c_j m_j d^{-2j}, m_j the field's moments
    # (0 where cut = 0); past INTERIOR_TERMS the terms fall below 0.16^24
    # of the first, far under the rounding bound
    far = np.where(cut > 0, d, 1.0)
    value, quad, absolute = far ** -q * np.einsum(
        "mkj,mj->km", moments[cut] * _kernel_rule(n, sigma)[-2],
        far[:, None] ** INTERIOR_POWERS)
    fine += value
    err += quad + INTERIOR_TERMS * np.finfo(float).eps * absolute
    return fine, err


#: Terms of the series in the field's moments of :func:`_kernel_integral`:
#: below 0.4 d each term is under 0.16 of the one before, so the rest is
#: below 1e-19.
INTERIOR_TERMS = 24
INTERIOR_POWERS = -2.0 * np.arange(INTERIOR_TERMS)


def _interior(field: ScalarField) -> Tuple[Array, Array]:
    """The grid of :func:`_kernel_breaks` below the field's top (its support
    radius, or ``OUTER_RADIUS``), from 0, and at each grid radius g the
    moments int_0^g f(r) r^{n-1+2j} dr, j < ``INTERIOR_TERMS``, by GL8 on
    the grid's panels, with their |GL8 - GL4| and their sums of |terms|
    (grid.size, 3, INTERIOR_TERMS).  Made once per field."""
    key = "interior_moments"
    if key not in field.memo:
        top = (field.support_radius if field.decay == "compact_support"
               else OUTER_RADIUS)
        graded = [k * g for k in field.kink_radii for g in geometry.GRADING]
        grid = np.array([0.0] + sorted(
            {r for r in _geometric(0.0, top) + graded if 0.0 < r < top})
            + [top])
        sums = []
        for order in (8, 4):
            r, w = geometry.gauss_panels(grid, order)
            terms = ((field.radial_profile(r) * r ** (field.n - 1) * w)[:, None]
                     * (r * r)[:, None] ** np.arange(INTERIOR_TERMS))
            panels = terms.reshape(grid.size - 1, order, -1)
            sums.append((panels.sum(axis=1), np.abs(panels).sum(axis=1)))
        (m8, abs8), (m4, _) = sums
        moments = np.zeros((grid.size, 3, INTERIOR_TERMS))
        moments[1:] = np.cumsum(np.stack([m8, np.abs(m8 - m4), abs8], axis=1),
                                axis=0)
        field.memo[key] = _frozen(grid, moments)
    return field.memo[key]


def _geometric(lo: float, hi: float) -> list:
    """The radii INNER_RADIUS 10^{i / PANELS_PER_DECADE} in [lo, hi]
    (from INNER_RADIUS when lo is 0), the geometric grid of every row."""
    first = (0 if lo <= 0.0 else
             math.floor(math.log10(lo / INNER_RADIUS) * PANELS_PER_DECADE))
    last = math.ceil(math.log10(hi / INNER_RADIUS) * PANELS_PER_DECADE)
    return [r for r in map(_geometric_radius, range(first, last + 1))
            if lo <= r <= hi]


@lru_cache(maxsize=None)
def _geometric_radius(i: int) -> float:
    return INNER_RADIUS * 10.0 ** (i / PANELS_PER_DECADE)


def _frozen(*arrays: Array) -> Tuple[Array, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _paired(rules) -> Tuple[Array, Array, Array]:
    """Nodes of a value rule and a check rule side by side, with the weights
    of each (zero on the other's nodes)."""
    (t8, w8), (t4, w4) = rules
    zero8, zero4 = np.zeros(t8.size), np.zeros(t4.size)
    return (np.concatenate([t8, t4]), np.concatenate([w8, zero4]),
            np.concatenate([zero8, w4]))


@lru_cache(maxsize=None)
def _kernel_template(sigma: float) -> Tuple[Array, Array, Array, Array]:
    """Nodes t in (0, 1) of a panel of :func:`_kernel_integral` and the
    weights of its value rule (order 8) and check rule (order 4), one row
    per rule: 0 Gauss-Legendre; 1 Gauss-Jacobi for t^{2 sigma - 1} with
    that factor divided out of the weights (the head at d = 0); 2 the log
    rule of weight (1 - t^eps) / eps, eps = 2 sigma - 1, weights negated.
    Then the power of the panel's width that scales each row's weights."""
    eps = 2.0 * sigma - 1.0
    rules = ([(0.5 * (x + 1.0), 0.5 * w)
              for x, w in (geometry._legendre(k) for k in (8, 4))],
             [(t, w * t ** -eps)
              for t, w in (geometry.power_rule(eps, k) for k in (8, 4))],
             [(t, -w) for t, w in (geometry.log_rule(eps, k) for k in (8, 4))])
    return _frozen(*(np.stack(x) for x in zip(*map(_paired, rules))),
                   np.array([1.0, 1.0, 1.0 + eps]))


@lru_cache(maxsize=None)
def _tail_template(alpha: float, sigma: float) -> Tuple[Array, Array, Array]:
    """Gauss-Jacobi nodes u in (0, 1) for u^{alpha - 2 sigma - 1}, with the
    weights of orders 8 and 4 as in :func:`_kernel_template`."""
    return _frozen(*_paired([geometry.power_rule(alpha - 2.0 * sigma - 1.0,
                                                 k) for k in (8, 4)]))


def _kernel_breaks(d: float, graded: list, start: float, end: float
                   ) -> list:
    """Panel breaks in rho from ``start`` to ``end`` for the distance d of
    :func:`_kernel_integral`: the geometric grid of :func:`_geometric`
    (from INNER_RADIUS, or from 2.6 d if lower), the kink breaks
    ``graded``, and d * ``NEAR_GRADING`` in place of the grid between
    0.4 d and 2.6 d.  The offset 0.3 d of the inner split panel is halved
    down to half the gap between d and the nearest kink break or end, on
    both sides, so no panel sees the singularity at d closer than its own
    width."""
    low, high = NEAR_GRADING[0] * d, NEAR_GRADING[-1] * d
    breaks = _geometric(min(high, INNER_RADIUS) if d > 0.0 else 0.0, end)
    if d > 0.0:
        breaks = [r for r in breaks if not low < r < high]
        breaks += [d * g for g in NEAR_GRADING]
        gap = min([abs(r - d) for r in graded + [end] if r != d])
        first = (1.0 - NEAR_GRADING[1]) * d
        for j in range(1, 61):
            step = first * 0.5 ** j
            if step < 0.5 * gap:
                break
            breaks += [d - step, d + step]
    breaks = sorted({r for r in breaks + graded if start < r < end})
    return [start] + breaks + [end]


def _radial_sum(field: ScalarField, centres: Array, f0: Array, lap: bool,
                rows: Array, scale: Array, kernel: Callable[[Array], Array],
                moments: Array, orders: Tuple[int, ...], tail: Array
                ) -> Tuple[Array, Optional[Array], Array]:
    """The one radial core: per row j, int K(r) g_j(scale_j r) dr up to the
    last break of rows[j], its error bar, and S_j(scale_j tail_j).

    g_j is f0_j - S_j for ``lap`` and S_j otherwise, S_j the sphere mean
    about centres[j] and f0_j the field there.  Row j holds panel breaks in
    r from the head radius r_lo, each panel summed in the Gauss-Legendre
    ``orders`` (the first gives the value).  Below r_lo the head fit of
    the module notes meets ``moments`` (m, 3), the integrals of
    (r / r_lo)^{2k} K(r) on [0, r_lo], k = 0, 1, 2.  With two orders the
    bar is |first - second|, plus the rounding bound k eps sum |terms| of
    the k-node sum, plus half the quartic term's share; with one it is
    None.  ``tail`` holds one radius per row, or none when the caller
    reads no S beyond the panels.
    """
    m = len(rows)
    live = np.isfinite(rows[:, 1:])
    owner = np.nonzero(live)[0]
    rules = [geometry.gauss_nodes(rows[:, :-1][live], rows[:, 1:][live], k)
             for k in orders]
    r_lo = rows[:, 0]
    radii = np.concatenate([x for x, _ in rules] + [r_lo, 0.5 * r_lo, tail])
    owners = [owner.repeat(k) for k in orders]
    who = np.concatenate(owners + [np.arange(m)] * 2 + [np.arange(tail.size)])
    means = _sphere_means(field, centres[who], scale[who] * radii)
    g, g0 = (f0[who] - means, np.zeros(m)) if lap else (means, f0)
    *parts, g_one, g_half, _ = np.split(
        g, np.cumsum([x.size for x, _ in rules] + [m, m]))
    terms = [gk * kernel(x) * w for gk, (x, w) in zip(parts, rules)]
    sums = [np.bincount(o, t, minlength=m) for o, t in zip(owners, terms)]

    # head: g(r) = g0 + a (r/r_lo)^2 + b (r/r_lo)^4 on [0, r_lo]
    a = (16.0 * (g_half - g0) - (g_one - g0)) / 3.0
    b = g_one - g0 - a
    value = sums[0] + (moments[:, 0] * g0 + moments[:, 1] * a
                       + moments[:, 2] * b)
    s_tail = means[means.size - tail.size:]
    if len(sums) == 1:
        return value, None, s_tail
    # |GL8 - GL4|, plus the rounding bound k eps sum |terms| of a k-term sum
    err = np.abs(sums[0] - sums[1]) + (
        np.bincount(owners[0], minlength=m) * np.finfo(float).eps
        * np.bincount(owners[0], np.abs(terms[0]), minlength=m))
    err += 0.5 * np.abs(b) * moments[:, 2]
    return value, err, s_tail


def _exterior(field: ScalarField, s2: float
              ) -> Callable[[Array], Tuple[Array, Array]]:
    """:func:`_exterior_series` of the field, made once per field and s2."""
    key = ("exterior_series", s2)
    if key not in field.memo:
        field.memo[key] = _exterior_series(field, s2)
    return field.memo[key]


def _exterior_series(field: ScalarField, s2: float
                     ) -> Callable[[Array], Tuple[Array, Array]]:
    """The potential of a radial field supported in B_a, for d > 2a.

    The mean of |x - y|^{-q} over the sphere |y| = r < d = |x| is
    d^{-q} 2F1(q/2, q/2 - n/2 + 1; n/2; r^2/d^2), q = n - 2 sigma, so
    int_0^inf s^{2 sigma - 1} S(s) ds = sum_j c_j m_j d^{-q-2j} with c_j the
    2F1 coefficients and m_j = int_0^a f(r) r^{n-1+2j} dr.  Each c_j lies in
    (0, 1] and falls with j, and (a/d)^2 < 1/4, so ``SERIES_TERMS`` terms
    leave at most c_J (a/d)^{2J} / (1 - (a/d)^2) times int |f| r^{n-1} dr.

    Returns a function of an array of distances d > 2a giving that sum
    (without the Riesz front factor) and its bar: the truncation bound, plus
    sum_j c_j |GL8 - GL4| of the moments, plus the rounding bound
    k eps sum |terms| over the k GL8 nodes and ``SERIES_TERMS`` terms.
    """
    n = field.n
    a = field.support_radius
    q = n - s2
    knots = np.unique([0.0, a] + [k for k in field.kink_radii if 0.0 < k < a])
    breaks = np.unique(np.concatenate(
        [np.linspace(lo, hi, MOMENT_PANELS + 1)
         for lo, hi in zip(knots[:-1], knots[1:])]))
    j = np.arange(SERIES_TERMS)
    ratio = (q / 2 + j) * (q / 2 - n / 2 + 1 + j) / ((n / 2 + j) * (j + 1))
    c = np.cumprod(np.concatenate([[1.0], ratio]))
    c, c_next = c[:-1], c[-1]

    def moment_terms(order):
        # (k, J) terms of m_j / a^{2j}, so that tiny supports do not underflow
        r, w = geometry.gauss_panels(breaks, order)
        return (np.vander((r / a) ** 2, SERIES_TERMS, increasing=True)
                * (field.radial_profile(r) * r ** (n - 1) * w)[:, None])

    terms = moment_terms(8)
    m8, abs8 = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    m4 = moment_terms(4).sum(axis=0)
    rounding = (terms.shape[0] + SERIES_TERMS) * np.finfo(float).eps
    # columns: the coefficients of the value, |GL8 - GL4| and rounding series
    coeffs = c[:, None] * np.stack([m8, np.abs(m8 - m4), rounding * abs8],
                                   axis=1)

    def evaluate(d: Array) -> Tuple[Array, Array]:
        x = (a / d) ** 2
        value, quad, rounded = np.empty((3, x.size))
        for lo in range(0, x.size, POLY_BLOCK):
            blk = slice(lo, lo + POLY_BLOCK)
            powers = _powers(x[blk], SERIES_TERMS)
            # row by row, so a point gets the same value in any batch
            value[blk], quad[blk], rounded[blk] = (
                np.einsum("ij,j->i", powers, col) for col in coeffs.T)
        tail = c_next * x ** SERIES_TERMS * abs8[0] / (1.0 - x)
        lead = d ** -q
        return lead * value, lead * (quad + rounded + tail)
    return evaluate


def riesz_field(field: ScalarField, params: Params) -> ScalarField:
    """The Riesz potential of a radial compact field, tabulated once.

    The potential I(d) is even in d and smooth on each of [0, a] and
    [a, 2a], a = ``support_radius``.  One batched :func:`riesz_potential`
    call, one integral in rho at each node, samples it at ``TABLE_NODES``
    Chebyshev first-kind nodes in (d/a)^2 on [0, a] and in d on [a, 2a]
    for interpolation; beyond 2a the profile is the exterior series of
    :func:`_exterior_series`, the same one the direct potential sums.  The result is a radial field
    decaying like d^{2 sigma - n}, with kinks where the pieces join.  Its
    ``error_bound`` is the interpolation bound 2 sum_{k >= N} |c_k|
    (Trefethen, *Approximation Theory and Approximation Practice*,
    ch. 7-8), the last ``TRAILING`` computed |c_k| standing in for that
    tail; the sampled values carry the bars of :func:`riesz_potential`.
    """
    if not field.is_radial or field.decay != "compact_support":
        raise ValueError("riesz_field needs a radial, compactly supported "
                         "field")
    n = field.n
    a = field.support_radius
    theta = np.pi * (np.arange(TABLE_NODES) + 0.5) / TABLE_NODES
    t = np.cos(theta)
    d = np.concatenate([a * np.sqrt(0.5 * (t + 1.0)), a * (0.5 * t + 1.5)])
    sampled = riesz_potential(field, d[:, None] * np.eye(n)[0], params)
    # values at first-kind nodes -> Chebyshev coefficients (a DCT-II)
    to_coeffs = (2.0 / TABLE_NODES) * np.cos(
        np.outer(np.arange(TABLE_NODES), theta))
    to_coeffs[0] *= 0.5
    inner, mid = (to_coeffs @ v for v in np.split(sampled.value, 2))
    bound = 2.0 * float(max(np.abs(inner[-TRAILING:]).sum(),
                            np.abs(mid[-TRAILING:]).sum()))
    front = _riesz_front(params)
    exterior = _exterior(field, 2.0 * params.sigma)

    def profile(r):
        chebval = np.polynomial.chebyshev.chebval
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        lo, hi = r <= a, r > 2.0 * a
        between = ~(lo | hi)
        out[lo] = chebval(2.0 * (r[lo] / a) ** 2 - 1.0, inner)
        out[between] = chebval(2.0 * r[between] / a - 3.0, mid)
        out[hi] = front * exterior(r[hi])[0]
        return out
    return radial_field(profile, n, decay="power_decay",
                        decay_rate=n - 2.0 * params.sigma,
                        kink_radii=(a, 2.0 * a), error_bound=bound)


def riesz_ball_indicator(d, radius, params: Params):
    """Riesz potential of the indicator of the ball B_radius, at distance d.

    In closed form (Dyda, FCAA 15(4), 2012), with delta = d / radius,
    F = 2F1 and r omega the front of :func:`riesz_potential`:

    * delta <= 1: r omega radius^{2s} / (2s) F(n/2 - s, -s; n/2; delta^2),
    * delta > 1:  r omega radius^{2s} delta^{2s-n} / n
      F(n/2 - s, 1 - s; n/2 + 1; (radius / d)^2),

    the point mass r |B_radius| d^{2s-n} times a series in (radius / d)^2.
    Both F have c - a - b = 2s and are summed by :func:`_hyp2f1`, which
    takes w = 1 - z.  With g = (hi - lo) / hi, lo and hi the smaller and
    the larger of d and radius, w = g (2 - g) keeps its relative accuracy
    at the ball edge, where 1 - delta^2 would lose it.  The powers of
    radius and delta stay apart, so tiny radii do not underflow, and
    delta^-2, which overflows, is not formed.  Floats give a float; arrays
    of distances or radii, broadcast against each other, give an array.
    """
    d, radius = np.broadcast_arrays(np.asarray(d, dtype=float),
                                    np.asarray(radius, dtype=float))
    if (radius <= 0.0).any():
        raise ValueError("ball radius must be positive, got "
                         f"{float(radius.min()):g}")
    n, s = params.n, params.sigma
    front = _riesz_front(params)
    lo, hi = np.minimum(d, radius), np.maximum(d, radius)
    # 1 - lo / hi, exact at the ball edge, and 1 at d = inf
    gap = np.divide(hi - lo, hi, out=np.ones(d.shape), where=hi < np.inf)
    w = gap * (2.0 - gap)
    out = np.empty(d.shape)
    near = d / radius <= 1.0
    rn = radius[near]
    out[near] = (front * rn ** (2.0 * s) / (2.0 * s)
                 * _hyp2f1(n / 2 - s, -s, 2.0 * s - 1.0, w[near]))
    far = ~near
    df, rf = d[far], radius[far]
    out[far] = (front * rf ** (2.0 * s) / n * (df / rf) ** (2.0 * s - n)
                * _hyp2f1(n / 2 - s, 1.0 - s, 2.0 * s - 1.0, w[far]))
    return float(out) if out.ndim == 0 else out


#: Terms of each series of :func:`_hyp2f1`, and the w = 1 - z from which
#: on it sums the Maclaurin series.  Each series then runs in a variable
#: below 0.7, and 0.7^90 ~ 1e-14 outweighs the growth of the coefficients
#: (against 40-digit mpmath up to n = 9, the worst error is 4e-14).
HYP_TERMS = 90
HYP_SWITCH = 0.3

#: B_2k / (2k (2k - 1)), the Stirling series of lgamma.
STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)


def _hyp2f1(a: float, b: float, eps: float, w: Array) -> Array:
    """2F1(a, b; c; 1 - w) with c = a + b + 1 + eps, for |eps| < 1 and an
    array w in [0, 1], from the coefficients of :func:`_hyp2f1_rule`.

    For w >= ``HYP_SWITCH`` it is the Maclaurin series in z = 1 - w.
    Below, A&S 15.3.6 gives
    F = lead + sum_j C pi / sin(pi eps) w^{j+1} [P_j w^eps - Q_j], term
    j + 1 of its first series paired with term j of its second.  With
    p_j = C P_j pi eps / sin(pi eps) and L_j = ln(P_j / Q_j), that is
    lead + w [E(ln w) p(w) - q(w)], where E(y) = expm1(eps y) / eps,
    p and q are polynomials in w and q_j = p_j E(-L_j / eps).  Every
    quotient by eps has its limit at eps = 0, so sigma = 1/2, the log case
    of A&S 15.3.11, takes the same path.
    """
    mac, lead, p, q = _hyp2f1_rule(a, b, eps, 1)
    out = np.empty(w.shape)
    series = w >= HYP_SWITCH
    if series.any():
        out[series] = _series(1.0 - w[series], mac)[0]
    if not series.all():
        w = w[~series]
        # the w = 0 rows carry lead alone; ln 1 stands in for ln 0 there
        log_w = np.log(np.where(w > 0.0, w, 1.0))
        p_w, q_w = _series(w, p, q)
        out[~series] = lead + w * (_over(np.expm1, eps, log_w) * p_w - q_w)
    return out


#: Points whose table of powers :func:`_series`, :func:`_kernel_factor`
#: and the exterior series form at once, so that a large batch costs at
#: most HYP_TERMS times this in memory.
POLY_BLOCK = 2048


def _series(x: Array, *coeffs: Array) -> Array:
    """Each polynomial sum_k c_k x^k of ``coeffs`` at the array x, summed
    row by row (as in :func:`_sphere_means`), so a point gets the same
    value in any batch.  Returns (len(coeffs), x.size)."""
    out = np.empty((len(coeffs), x.size))
    for lo in range(0, x.size, POLY_BLOCK):
        blk = slice(lo, lo + POLY_BLOCK)
        powers = np.vander(x[blk], HYP_TERMS, increasing=True)
        for res, c in zip(out, coeffs):
            res[blk] = np.einsum("ij,j->i", powers, c)
    return out


#: The w = 1 - z from which on :func:`_kernel_factor` sums the Maclaurin
#: series in z, and below which the connection series in w.
KERNEL_SWITCH = 0.4

#: Buckets of z (upper edge, centre) for the Maclaurin series of
#: :func:`_kernel_factor`, and of w for its connection series, each
#: re-expanded about its centre; the last runs to the switch (z) or to
#: ``KERNEL_SPLIT_W`` (w).  Up to n = 9 no bucket takes more than 25 terms.
KERNEL_Z_BUCKETS = ((1.0 / 16.0, 0.0), (0.25, 5.0 / 32.0), (0.45, 0.35),
                    (np.inf, 0.525))
KERNEL_W_BUCKETS = ((1.0 / 16.0, 0.0), (0.2, 0.13), (0.4, 0.3),
                    (np.inf, 0.46))

#: The largest w on a split panel of :func:`_kernel_integral` (1 - 0.7^2),
#: where the connection series must still hold.
KERNEL_SPLIT_W = 0.52

#: The share of the largest term below which :func:`_kernel_rule` drops
#: the terms of a series in a bucket, and the terms of each series it
#: re-expands.
KERNEL_TOL = 2.0 ** -60
SHIFT_TERMS = 400


def _kernel_factor(n: int, sigma: float, z: Array, w: Array,
                   split: Optional[Array] = None,
                   log_y: Optional[Array] = None,
                   log_node: Optional[Array] = None) -> Array:
    """F = 2F1(q/2, 1 - sigma; n/2; z), q = n - 2 sigma, at arrays z and
    w = 1 - z (each given, so each keeps its digits where it is small).

    F has c - a - b = eps = 2 sigma - 1, so near z = 1 it is the m = 0
    pairing of A&S 15.3.6 (:func:`_hyp2f1_rule`), E(y) p(w) - q(w) with
    y = ln w and E(y) = expm1(eps y) / eps; at sigma = 1/2 that is the log
    case A&S 15.3.10.  For w >= ``KERNEL_SWITCH`` it is the Maclaurin
    series in z.  Every node sums the row of :func:`_kernel_rule` for its
    bucket, in one table for both series (q = 0 on the Maclaurin rows).
    :func:`_kernel_integral` marks the nodes of its split panels
    (``split``), which take the connection series up to
    w = ``KERNEL_SPLIT_W``; it passes ``log_y`` in place of ln w, and
    ``log_node`` where it wants p(w) e^{eps y} alone.
    """
    edges, centre, p_rows, q_rows, _, _ = _kernel_rule(n, sigma)
    eps = 2.0 * sigma - 1.0
    series = w >= KERNEL_SWITCH
    if split is not None:
        series &= ~split
    # the z buckets, then the w buckets (w shifted past z's range)
    bucket = np.searchsorted(edges, np.where(series, z, w + 2.0),
                             side="right")
    x = np.where(series, z, w) - centre[bucket]
    p_w, q_w = np.empty((2, x.size))
    for lo in range(0, x.size, POLY_BLOCK):
        blk = slice(lo, lo + POLY_BLOCK)
        powers = _powers(x[blk], p_rows.shape[1])
        # row by row, so a point gets the same value in any batch
        p_w[blk] = np.einsum("ij,ij->i", powers, p_rows[bucket[blk]])
        q_w[blk] = np.einsum("ij,ij->i", powers, q_rows[bucket[blk]])
    e_p = _over(np.expm1, eps, np.log(w) if log_y is None else log_y) * p_w
    if log_node is None:
        return np.where(series, p_w, e_p - q_w)
    return np.where(series, p_w,
                    np.where(log_node, p_w + eps * e_p, e_p - q_w))


def _powers(x: Array, count: int) -> Array:
    """x^k at the array x (rows) for k < count (columns), by doubling:
    powers [k, 2k) are powers [0, k) times x^k.  Built power by power,
    where a step is one vector product, then laid out row by row."""
    out = np.empty((count, x.size))
    out[0] = 1.0
    out[1:2] = x
    k, x_k = 2, x * x
    while k < count:
        step = min(k, count - k)
        np.multiply(out[:step], x_k, out=out[k:k + step])
        x_k = x_k * x_k
        k += step
    return np.ascontiguousarray(out.T)


@lru_cache(maxsize=None)
def _kernel_rule(n: int, sigma: float) -> tuple:
    """The buckets of :func:`_kernel_factor`: the inner edges in z, then 2,
    then those in 2 + w; each bucket's centre and its rows of
    coefficients (the Maclaurin or p series, and 0 or the q series,
    zero-padded); the Maclaurin coefficients of the series in the field's
    moments; and the truncation bound.

    The coefficients are those of :func:`_hyp2f1_rule` with m = 0,
    ``SHIFT_TERMS`` of each series, re-expanded about each bucket's centre
    c0 as b_k = sum_j coef_j C(j, k) c0^{j - k}.  A bucket keeps every
    term above ``KERNEL_TOL`` of the largest at its radius r about the
    centre (|b_k| r^k, or (|b_k(p)| |E(ln w_lo)| + |b_k(q)|) r^k with w_lo
    its least w, or r at w = 0); the bound is the largest share of the
    dropped terms, with the tail past them as a geometric series.  As
    F >= 1 (its Maclaurin coefficients are positive), it bounds the
    relative truncation error.
    """
    a, b, eps = n / 2.0 - sigma, 1.0 - sigma, 2.0 * sigma - 1.0
    mac, _, p, q = _hyp2f1_rule(a, b, eps, 0, SHIFT_TERMS)
    j = np.arange(SHIFT_TERMS)
    worst, kept, centres = 0.0, [], []
    for buckets, top, series in ((KERNEL_Z_BUCKETS, 1.0 - KERNEL_SWITCH,
                                  (mac, np.zeros(SHIFT_TERMS))),
                                 (KERNEL_W_BUCKETS, KERNEL_SPLIT_W, (p, q))):
        lower = 0.0
        for edge, centre in buckets:
            upper = min(edge, top)
            r = max(upper - centre, centre - lower)
            shift = np.eye(HYP_TERMS, SHIFT_TERMS)
            if centre:
                # row k: C(j, k) centre^{j - k}, by the ratio
                # (j - k + 1) / (k centre) from row k - 1
                shift[0] = centre ** j
                for k in range(1, HYP_TERMS):
                    shift[k] = shift[k - 1] * (j - k + 1) / (k * centre)
            coef = shift @ np.stack(series, axis=1)
            size = np.abs(coef[:, 0]) * (abs(_over(
                math.expm1, eps, math.log(lower or r))) if series[0] is p
                else 1.0) + np.abs(coef[:, 1])
            mag = size * r ** np.arange(HYP_TERMS)
            count = int(np.nonzero(mag > KERNEL_TOL * mag.max())[0][-1]) + 1
            worst = max(worst, (mag[count:].sum() + mag[-1] * r / (1.0 - r))
                        / mag.max())
            kept.append(coef[:count])
            centres.append(centre)
            lower = edge
    # (bucket, terms) tables, zero-padded to the longest bucket
    table = np.zeros((2, len(kept), max(c.shape[0] for c in kept)))
    for i, c in enumerate(kept):
        table[:, i, :c.shape[0]] = c.T
    edges = ([e for e, _ in KERNEL_Z_BUCKETS[:-1]] + [2.0]
             + [2.0 + e for e, _ in KERNEL_W_BUCKETS[:-1]])
    return _frozen(np.array(edges), np.array(centres), table[0], table[1],
                   mac[:INTERIOR_TERMS].copy()) + (worst,)


def _over(fn: Callable, eps: float, y):
    """fn(eps y) / eps, with its limit y at eps = 0, for fn = expm1 or log1p."""
    return fn(eps * y) / eps if eps else y


@lru_cache(maxsize=None)
def _hyp2f1_rule(a: float, b: float, eps: float, m: int = 1,
                 terms: int = HYP_TERMS) -> Tuple[Array, float, Array, Array]:
    """The coefficients of :func:`_hyp2f1`, made once per (a, b, eps, m),
    that is per (n, sigma, branch) of :func:`riesz_ball_indicator` (m = 1)
    and per (n, sigma) of the sphere-mean kernel (m = 0, with ``terms``
    of each series).

    Returns the Maclaurin coefficients (a)_k (b)_k / ((c)_k k!), the lead
    Gamma(c) Gamma(1 + eps) / (Gamma(a + 1 + eps) Gamma(b + 1 + eps))
    (0 when m = 0), and p_j and q_j.  Here p_j follows from
    p_0 = -(-1)^m Gamma(c) / (Gamma(a) Gamma(b) Gamma(1 + m + eps) sinc(eps))
    by the ratio (a + m + eps + j) (b + m + eps + j) / ((j + 1 + m + eps)
    (j + 1)), and L_j / eps = D(b + m + j, eps) + D(a + m + j, eps)
    - D(j + 1 + m, eps) - D(j + 1, -eps), with D the lgamma quotients of
    :func:`_lgamma_quotients`; where a + m + eps < 0, q_0 comes from
    P_0 / Q_0 directly.
    """
    c = a + b + m + eps
    j = np.arange(terms - 1)
    mac = np.cumprod(np.concatenate(
        [[1.0], (a + j) * (b + j) / ((c + j) * (j + 1.0))]))
    lead = math.gamma(c) * math.gamma(1.0 + eps) / (
        math.gamma(a + 1.0 + eps) * math.gamma(b + 1.0 + eps)) if m else 0.0
    p = (math.gamma(c) / (math.gamma(a) * math.gamma(b)
                          * math.gamma(1.0 + m + eps) * np.sinc(eps))
         * np.cumprod(np.concatenate([[1.0], (a + m + eps + j)
                                      * (b + m + eps + j)
                                      / ((j + (1.0 + m) + eps) * (j + 1.0))])))
    if not m:
        p = -p
    with np.errstate(invalid="ignore"):  # at a + eps < 0, handled below
        log_ratio = (_lgamma_quotients(b + m, eps, terms)
                     + _lgamma_quotients(a + m, eps, terms)
                     - _lgamma_quotients(1.0 + m, eps, terms)
                     - _lgamma_quotients(1.0, -eps, terms))
    q = p * _over(np.expm1, eps, -log_ratio)
    if a + m + eps < 0.0:
        # only m = 0, j = 0 (n = 1, sigma < 1/2): Q_0 / P_0 is negative, so
        # its log is not real, but Q_0 / P_0 - 1 has no cancellation
        ratio = math.gamma(a) * math.gamma(b) * math.gamma(1.0 + eps) / (
            math.gamma(a + eps) * math.gamma(b + eps) * math.gamma(1.0 - eps))
        q[0] = p[0] * (ratio - 1.0) / eps
    for arr in (mac, p, q):
        arr.setflags(write=False)
    return mac, lead, p, q


def _lgamma_quotients(x0: float, eps: float, terms: int = HYP_TERMS
                      ) -> Array:
    """D(x, eps) = (lgamma(x + eps) - lgamma(x)) / eps at x = x0 + j,
    j < ``terms``, accurate for any small eps (D -> digamma at 0).

    Stirling's series gives D at x0 + ``terms`` >= 90, where
    ``STIRLING`` is exact to rounding: with u = log1p(eps / x) / eps,
    D = (x - 1/2) u + ln x + eps u - 1
      + sum_k B_2k / (2k (2k-1)) x^{1-2k} expm1((1 - 2k) eps u) / eps.
    The recurrence D(x, eps) = D(x + 1, eps) - log1p(eps / x) / eps then
    steps down, so no lgamma difference is ever formed.
    """
    x = x0 + terms
    u = _over(math.log1p, eps, 1.0 / x)
    top = (x - 0.5) * u + math.log(x) + eps * u - 1.0
    for k, coef in enumerate(STIRLING, 1):
        top += coef * x ** (1 - 2 * k) * _over(math.expm1, eps, (1 - 2 * k) * u)
    steps = _over(np.log1p, eps, 1.0 / (x0 + np.arange(terms)))
    return top - np.cumsum(steps[::-1])[::-1]
