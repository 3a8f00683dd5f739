"""Fractional Laplacian and Riesz potential via radial singular integrals.

Both operators are reduced to one-dimensional integrals of sphere means.
Writing S(s) for the mean of f over the sphere of radius s about x,

* (-Lap)^s f(x) = C * omega * int_0^inf (f(x) - S(s)) s^{-1-2s} ds,
  which is the symmetric-difference form, and
* I_{2s} f(x)   = r * omega * int_0^inf s^{2s-1} S(s) ds,

with omega the area of the unit sphere: int_0^inf s^e g(s) ds with
e = -1 - 2 sigma, g = f(x) - S(s) and e = 2 sigma - 1, g = S(s) (Kwaśnicki,
FCAA 20(1), 2017).  One radial core, :func:`_radial_sum`, sums both (and
the extension of :mod:`fraclab.extension`) on rows of panels graded at
the field's kinks, GL8 with an embedded GL4, so every value has an error
bar.  A radial field's sphere means are split at the kinks of its profile
(:func:`geometry.radial_mean_rule`); other fields take a product rule.

Near s = 0 the sphere mean is a smooth even function of s, so the core
integrates the stretch below a small radius s_lo from a two-term even
Taylor fit, g(s) = g(0) + a (s/s_lo)^2 + b (s/s_lo)^4, against the
kernel's moments on [0, s_lo] (s_lo^{e+1} / (e + 1 + 2k) for s^e), and
charges half the quartic term to the error bar.

:func:`frac_lap_at` and :func:`riesz_potential` each take one point (n,)
or a batch (m, n) through that core.  For a radial field it evaluates
each point at its own distance from the origin, and it hands the
sphere-mean nodes of ``BLOCK`` distances to the field's profile in one
call.  Outside twice the support of a radial compact field the potential
is a convergent series in (a/d)^2 whose coefficients are moments of the
profile (Landkof, *Foundations of Modern Potential Theory*, 1972, §I.1),
summed exactly with a truncation bound.

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
    """Riesz potential I_{2 sigma} at one point (n,) or a batch (m, n), by
    :func:`_radial_integral`, of a field with compact support or power
    decay faster than r^{-2 sigma}."""
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
    evaluated at each point's distance from the origin.

    :func:`_radial_sum` takes GL8 and GL4 on the panels above
    s_lo = min(INNER_RADIUS * max(1, d), nearest kink edge / 2), where
    f(x) - S(s) would drown in float cancellation, and the head below; the
    bar adds the tail charge.  A compact field is summed out to
    d + 1.001 a (the Laplacian: at least ``OUTER_RADIUS``).  Beyond 2a the
    potential of a radial field supported in B_a is the exterior series
    of :func:`_exterior_series`: every sphere that meets the support lies
    in the shell |d - s| < a, which the radial panels resolve to only
    1e-4 to 1e-3 far out, while the series is exact to rounding.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != field.n:
        raise ValueError("points must have shape (n,) or (m, n)")
    batch = pts.reshape(-1, field.n)
    dist = np.linalg.norm(batch, axis=1)
    centres, at_centre = ((dist, field.radial_profile(dist)) if field.is_radial
                          else (batch, field(batch)))
    value = np.empty(dist.size)
    error = np.empty(dist.size)
    near = np.arange(dist.size)
    compact = field.decay == "compact_support"
    if e > -1.0 and field.is_radial and compact:
        far = dist > 2.0 * field.support_radius
        if far.any():
            value[far], error[far] = _exterior_series(field, e + 1.0)(
                dist[far])
            near = near[~far]
    d, f0, lap = dist[near], at_centre[near], e < -1.0
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
            field, centres[near[blk]], f0[blk], lap, rows[blk],
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
    value[near], error[near] = fine, err

    value, error = front * value, front * error
    if pts.ndim == 1:
        return OpResult(float(value[0]), float(error[0]))
    return OpResult(value, error)


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
        # Horner, as a Vandermonde matrix would be SERIES_TERMS times larger
        value, quad, rounded = np.polynomial.polynomial.polyval(x, coeffs)
        tail = c_next * x ** SERIES_TERMS * abs8[0] / (1.0 - x)
        lead = d ** -q
        return lead * value, lead * (quad + rounded + tail)
    return evaluate


def riesz_field(field: ScalarField, params: Params) -> ScalarField:
    """The Riesz potential of a radial compact field, tabulated once.

    The potential I(d) is even in d and smooth on each of [0, a] and
    [a, 2a], a = ``support_radius``.  One batched :func:`riesz_potential`
    call, its sphere means split at the support, samples it at
    ``TABLE_NODES`` Chebyshev first-kind nodes in (d/a)^2 on [0, a] and in
    d on [a, 2a] for interpolation; beyond 2a the profile is the exterior
    series of :func:`_exterior_series`.  The result is a radial field
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
    exterior = _exterior_series(field, 2.0 * params.sigma)

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
    mac, lead, p, q = _hyp2f1_rule(a, b, eps)
    out = np.empty(w.shape)
    series = w >= HYP_SWITCH
    # sums row by row, as in _sphere_means, so a point gets the same value
    # in any batch
    if series.any():
        out[series] = np.einsum("ij,j->i", np.vander(
            1.0 - w[series], HYP_TERMS, increasing=True), mac)
    if not series.all():
        w = w[~series]
        # the w = 0 rows carry lead alone; ln 1 stands in for ln 0 there
        log_w = np.log(np.where(w > 0.0, w, 1.0))
        powers = np.vander(w, HYP_TERMS, increasing=True)
        p_w, q_w = (np.einsum("ij,j->i", powers, c) for c in (p, q))
        out[~series] = lead + w * (_over(np.expm1, eps, log_w) * p_w - q_w)
    return out


def _over(fn: Callable, eps: float, y):
    """fn(eps y) / eps, with its limit y at eps = 0, for fn = expm1 or log1p."""
    return fn(eps * y) / eps if eps else y


@lru_cache(maxsize=None)
def _hyp2f1_rule(a: float, b: float, eps: float
                 ) -> Tuple[Array, float, Array, Array]:
    """The coefficients of :func:`_hyp2f1`, made once per (a, b, eps), that
    is per (n, sigma, branch) of :func:`riesz_ball_indicator`.

    Returns the Maclaurin coefficients (a)_k (b)_k / ((c)_k k!), the lead
    Gamma(c) Gamma(1 + eps) / (Gamma(a + 1 + eps) Gamma(b + 1 + eps)), and
    p_j and q_j.  Here p_j follows from p_0 = Gamma(c) /
    (Gamma(a) Gamma(b) Gamma(2 + eps) sinc(eps)) by the ratio
    (a + 1 + eps + j) (b + 1 + eps + j) / ((j + 2 + eps) (j + 1)), and
    L_j / eps = D(b + 1 + j, eps) + D(a + 1 + j, eps) - D(j + 2, eps)
    - D(j + 1, -eps), with D the lgamma quotients of :func:`_lgamma_quotients`.
    """
    c = a + b + 1.0 + eps
    j = np.arange(HYP_TERMS - 1)
    mac = np.cumprod(np.concatenate(
        [[1.0], (a + j) * (b + j) / ((c + j) * (j + 1.0))]))
    lead = math.gamma(c) * math.gamma(1.0 + eps) / (
        math.gamma(a + 1.0 + eps) * math.gamma(b + 1.0 + eps))
    p = (math.gamma(c) / (math.gamma(a) * math.gamma(b)
                          * math.gamma(2.0 + eps) * np.sinc(eps))
         * np.cumprod(np.concatenate([[1.0], (a + 1.0 + eps + j)
                                      * (b + 1.0 + eps + j)
                                      / ((j + 2.0 + eps) * (j + 1.0))])))
    log_ratio = (_lgamma_quotients(b + 1.0, eps)
                 + _lgamma_quotients(a + 1.0, eps)
                 - _lgamma_quotients(2.0, eps) - _lgamma_quotients(1.0, -eps))
    q = p * _over(np.expm1, eps, -log_ratio)
    for arr in (mac, p, q):
        arr.setflags(write=False)
    return mac, lead, p, q


def _lgamma_quotients(x0: float, eps: float) -> Array:
    """D(x, eps) = (lgamma(x + eps) - lgamma(x)) / eps at x = x0 + j,
    j < ``HYP_TERMS``, accurate for any small eps (D -> digamma at 0).

    Stirling's series gives D at x0 + ``HYP_TERMS`` >= 90, where
    ``STIRLING`` is exact to rounding: with u = log1p(eps / x) / eps,
    D = (x - 1/2) u + ln x + eps u - 1
      + sum_k B_2k / (2k (2k-1)) x^{1-2k} expm1((1 - 2k) eps u) / eps.
    The recurrence D(x, eps) = D(x + 1, eps) - log1p(eps / x) / eps then
    steps down, so no lgamma difference is ever formed.
    """
    x = x0 + HYP_TERMS
    u = _over(math.log1p, eps, 1.0 / x)
    top = (x - 0.5) * u + math.log(x) + eps * u - 1.0
    for k, coef in enumerate(STIRLING, 1):
        top += coef * x ** (1 - 2 * k) * _over(math.expm1, eps, (1 - 2 * k) * u)
    steps = _over(np.log1p, eps, 1.0 / (x0 + np.arange(HYP_TERMS)))
    return top - np.cumsum(steps[::-1])[::-1]
