"""Fractional Laplacian and Riesz potential via radial singular integrals.

Writing S(s) for the mean of f over the sphere of radius s about x,

* (-Lap)^s f(x) = C * omega * int_0^inf (f(x) - S(s)) s^{-1-2s} ds,
  which is the symmetric-difference form, and
* I_{2s} f(x)   = r * omega * int_0^inf s^{2s-1} S(s) ds,

with omega the area of the unit sphere: int_0^inf s^e g(s) ds with
e = -1 - 2 sigma, g = f(x) - S(s) and e = 2 sigma - 1, g = S(s) (Kwaśnicki,
FCAA 20(1), 2017).  One sphere-mean driver, :func:`_sphere_mean_sum`,
sums the Laplacian, the potential of a field that is not radial, and the
extension of :mod:`fraclab.extension`: it builds the rows of panels graded
at the field's kink edges and the head radius, and sums each row in GL8
with an embedded GL4, so every value has an error bar.  A radial field's
sphere means are split at the kinks of its profile
(:func:`geometry.radial_mean_rule`); other fields take a product rule.

The driver owns the far field: it ends each row past a compact support,
or where the decay law holds, and beyond takes the kernel as r^e_far
(1 + c (outer / r)^2), e_far its far power, and S as S(outer) (outer /
r)^alpha, alpha the decay rate (0 for a bounded field).

Lengths are in units of the field's own length L, the support radius
of a compact field and 1 for any other, with one factor at the end:
L^{2 sigma} for the integral in rho below, L^{e+1} for a sphere-mean
integral of kernel power e.  A support of 1e-150 sees a unit one's panels.

Near s = 0 the sphere mean is a smooth even function of s, so the driver
integrates the stretch below a small radius s_lo from a two-term even
Taylor fit, g(s) = g(0) + a (s/s_lo)^2 + b (s/s_lo)^4, against the
moments s_lo^{e0+1} / (e0 + 1 + 2k) of the kernel's power s^e0 at 0 (e0 =
e for s^e, n - 1 for the extension), charging half the quartic to the bar.

The potential of a radial field needs no sphere means.  The mean of
|x - y|^{-q}, q = n - 2 sigma, over the sphere |y| = rho is
K(d, rho) = max(d, rho)^{-q} 2F1(q/2, 1 - sigma; n/2; z),
z = (min / max)^2 and d = |x| (Landkof, *Foundations of Modern Potential
Theory*, 1972, §I.1), so I_{2s} f(x) = r omega int_0^inf f(rho)
rho^{n-1} K(d, rho) d rho, one integral in rho (:func:`_kernel_integral`).
The kernel's 2F1 is summed with numpy alone (:func:`_hypergeometric`),
its singularity at rho = d by a Gauss rule for its log weight
(:func:`geometry.log_rule`), and the tail of a power-decay field by
Gauss-Jacobi in 1 / rho.  The stretch below 0.4 d, and everything outside
twice the support of a compact field, is one series in the field's
moments (:func:`_moment_series`), read from one table made once per field
and sigma (:func:`_moments`).

:func:`frac_lap_at` and :func:`riesz_potential` each take one point (n,)
or a batch (m, n).  A radial field is evaluated at each point's distance
from the origin.

:func:`riesz_field` tabulates the potential of such a field once: one
batched call at Chebyshev nodes inside twice the support, the exterior
series beyond it, and an interpolation bound read from the trailing
Chebyshev coefficients.  A nested operator such as (-Lap)^s I_{2s} f then
costs one table, not one potential per outer quadrature node.

One evaluator, :func:`_hypergeometric`, sums the kernel's 2F1 and the two
of :func:`riesz_ball_indicator` (Dyda's closed form): the Maclaurin series
near z = 0 and the connection formula of Abramowitz & Stegun 15.3.6 near
z = 1, each re-expanded about the centres of a few buckets.
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

#: Terms of the series in a radial field's moments, :func:`_moment_series`:
#: below 0.4 d, and beyond twice a compact support, each term is under a
#: quarter of the one before, so the rest is below 4^-40.
SERIES_TERMS = 40

#: Uniform Gauss-Legendre panels per stretch between the kinks of a compact
#: support, joined to the grid of the moments of :func:`_moments`.
MOMENT_PANELS = 16

#: Chebyshev nodes on each of the two pieces of :func:`riesz_field`, and
#: the trailing coefficients its interpolation bound is read from.
TABLE_NODES = 48
TRAILING = 4

#: Panels start at INNER_RADIUS * max(1, d / L) or below, and a field
#: without compact support ends at OUTER_RADIUS * max(1, d / L).
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
    is the one integral in rho of :func:`_kernel_integral`.  Every other
    case is one :func:`_sphere_mean_sum` call with the kernel s^e, in
    units of the field's length L (:func:`_length`), times L^{e + 1}.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != field.n:
        raise ValueError("points must have shape (n,) or (m, n)")
    batch = pts.reshape(-1, field.n)
    dist = geometry.radius(batch)
    if e > -1.0 and field.is_radial:
        value, error = _kernel_integral(field, dist, 0.5 * (e + 1.0))
    else:
        length = _length(field)
        value, error = (length ** (e + 1.0) * v for v in _sphere_mean_sum(
            field, batch, dist, lambda s: s ** e, e, (8, 4),
            np.full(dist.size, length), e))
    value, error = front * value, front * error
    if pts.ndim == 1:
        return OpResult(float(value[0]), float(error[0]))
    return OpResult(value, error)


def _length(field: ScalarField) -> float:
    """The field's own length: its support radius if compact, else 1."""
    return field.support_radius if field.decay == "compact_support" else 1.0


#: Breaks about a distance d, as multiples of d: the kernel is singular
#: at rho = d.  The two panels that touch it take the split rule of
#: :func:`_kernel_integral`, whose smooth parts are singular only at
#: rho = 0 (so each is under a third of its distance from 0 wide); every
#: other panel is at most as wide as its distance from d.  The geometric
#: grid gives way to these breaks between the first and the last.
NEAR_GRADING = (0.4, 0.7, 1.0, 1.4, 1.8, 2.6)

#: Distances below this, in units of the field's length, are raised to it,
#: so the centre takes the panels of any small distance: the potential of
#: a field smooth there moves by O(d^2), under rounding at 1e-8 INNER_RADIUS.
CENTRE_RADIUS = 1e-8 * INNER_RADIUS


def _kernel_integral(field: ScalarField, d: Array, sigma: float
                     ) -> Tuple[Array, Array]:
    """int_0^inf f(rho) rho^{n-1} K(d, rho) d rho and its bar at distances d
    (a 1-D array) of a radial field with compact support or power decay.

    Lengths are in units of the field's length L (:func:`_length`): d / L,
    at least ``CENTRE_RADIUS``, kinks k / L and the profile at L rho, with
    value and bar times L^{2 sigma}.  K(d, rho) = hi^{-q} F(z) is the
    sphere-mean kernel of the module notes, lo and hi the smaller and the
    larger of d and rho and z = (lo / hi)^2.  F is summed by
    :func:`_hypergeometric` with w = 1 - z = (hi - lo)(1 + lo / hi) / hi,
    which keeps its digits at rho = d, and rho^{n-1} hi^{-q} is taken as
    (rho / hi)^{n-1} hi^{2 sigma - 1}, so no power overflows far out.  The
    panels are those of
    :func:`_kernel_breaks`; each takes GL8 for the value and GL4 for the
    bar (rule 0 of :func:`_kernel_template`), except:

    * rule 1 on the two panels [d - h, d] and [d, d + h] next to the
      singularity.  There F = E(ln w) p(w) - q(w) with
      E(y) = expm1(eps y) / eps, eps = 2 sigma - 1, and w = x v,
      x = |rho - d|; since E(ln x + ln v) = E(ln x) v^eps + E(ln v), the
      integrand is E(ln x) g1 + g2 with g1 and g2 smooth, and
      int_0^h = h int_0^1 [p E(ln h v) - q] phi dt
      - h int_0^1 (1 - t^eps) / eps p (h v)^eps phi dt,
      the first by rule 0 and the second by the Gauss rule of that weight,
      :func:`geometry.log_rule`; at sigma = 1/2 it is -ln t.  Both take
      h v, near 1, in place of v: the second integrand is p (h v)^eps, so
      its weights go as h and it cancels in no float.
    * rule 2 beyond the end R = max(``OUTER_RADIUS``, 4 d) of a
      power-decay field, f ~ rho^{-alpha}: in rho = R / u the integrand is
      u^{alpha - 2 sigma - 1} times a smooth function, by Gauss-Jacobi.
      A distance whose least node u puts L R / u past ``MAX_RADIUS`` is refused.

    The stretch below grid[cut], the largest radius of the field's moment
    grid at or below 0.4 d, is the series of :func:`_moment_series`; beyond
    2a it is the top row's, and the whole integral.

    The bar is |GL8 - GL4| (the same for the other rules), plus the
    rounding bound k eps sum |terms| of each k-term sum and, as F >= 1,
    the truncation bound of :func:`_kernel_rule` times sum |terms|.  There
    a profile value f is known to eps max(|f|, tiny), tiny the least normal
    float, so the bar shows where the profile has underflowed.
    """
    n, s2 = field.n, 2.0 * sigma
    power_decay, length = field.decay == "power_decay", _length(field)
    if not power_decay and (d / length > 2.0).all():
        value, bar = _moment_series(field, sigma, d / length, -1)
        return value * length ** s2, bar * length ** s2
    d = np.maximum(d / length, CENTRE_RADIUS)
    end = np.maximum(OUTER_RADIUS, 4.0 * d) if power_decay else np.ones(d.size)
    nodes, w8, w4 = _kernel_template(
        sigma, field.decay_rate - s2 - 1.0 if power_decay else 0.0)
    reach = length * end.max(initial=0.0) / nodes[2].min()
    if power_decay and reach > geometry.MAX_RADIUS:
        raise ValueError(f"|x| = {length * d.max():g} is too large: the tail of "
                         f"the rho integral passes {geometry.MAX_RADIUS:g}")
    grid = _moments(field, sigma)[0]
    cut = np.searchsorted(grid, NEAR_GRADING[0] * d, side="right") - 1
    cut[(d > 2.0) & (not power_decay)] = grid.size - 1
    # [0, grid[cut]]: the series in the field's moments (0 where cut = 0)
    value, bar = _moment_series(field, sigma, d, cut)
    graded = [k / length * g for k in field.kink_radii for g in geometry.GRADING]
    # one entry per panel, and one more for each split panel's log rule:
    # start, signed width, rule, row, and scale (the width on a split
    # panel, 0 elsewhere); a row beyond 2a starts at its end, with none
    panels = []
    for j, (dj, start, ej) in enumerate(zip(d.tolist(), grid[cut].tolist(),
                                            end.tolist())):
        breaks = _kernel_breaks(dj, graded, start, ej) if start < ej else []
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if dj in (lo, hi):
                panels += [(lo, hi - lo, 0, j, hi - lo),
                           (dj, lo - hi if hi == dj else hi - lo, 1, j, hi - lo)]
            else:
                panels.append((lo, hi - lo, 0, j, 0.0))
        if power_decay:
            panels.append((ej, ej, 2, j, 0.0))
    start, width, kind, row, scale = np.array(panels).T
    kind, row = kind.astype(int), row.astype(int)
    size, t = np.abs(width), nodes[kind]
    rho = start[:, None] + width[:, None] * t
    if power_decay:  # rule 2: rho = R / t beyond the end R
        rho[kind == 2] = start[kind == 2, None] / t[kind == 2]
    rho = rho.ravel()
    fine_w = (size[:, None] * w8[kind]).ravel()
    coarse_w = (size[:, None] * w4[kind]).ravel()
    owner, scale, log_node = (x.repeat(nodes.shape[1])
                              for x in (row, scale, kind == 1))
    at = d[owner]
    lo_, hi_ = np.minimum(rho, at), np.maximum(rho, at)
    ratio = lo_ / hi_
    v = (1.0 + ratio) / hi_
    w = (hi_ - lo_) * v
    # ln w, or ln (h v) on a split panel; p (h v)^eps at log-rule nodes
    kernel = _hypergeometric(*_kernel_args(n, sigma), ratio * ratio, w,
                             scale != 0.0,
                             np.log(np.where(scale == 0.0, w, scale * v)),
                             log_node)
    f, tiny = field.radial_profile(length * rho), np.finfo(float).tiny
    rho_power, hi_power = (rho / hi_) ** (n - 1), hi_ ** (s2 - 1.0)
    terms, floored = (g * rho_power * hi_power * kernel
                      for g in (f, np.where(np.abs(f) < tiny, tiny, f)))
    fine = np.bincount(owner, terms * fine_w, minlength=d.size)
    coarse = np.bincount(owner, terms * coarse_w, minlength=d.size)
    absolute = np.bincount(owner, np.abs(floored * fine_w), minlength=d.size)
    count = np.bincount(owner, fine_w != 0.0, minlength=d.size)
    trunc = _kernel_rule(*_kernel_args(n, sigma))[-1]
    value += fine
    bar += np.abs(fine - coarse) + (count * np.finfo(float).eps + trunc) * absolute
    return value * length ** s2, bar * length ** s2


def _moments(field: ScalarField, sigma: float) -> Tuple[Array, Array]:
    """The moment grid of a radial field and the coefficient tables of
    :func:`_moment_series`, made once per field and sigma.  Lengths are in
    units of the field's length L (:func:`_length`), the profile taken at
    L r: the grid runs from 0 to the field's top (1 if compact, else
    ``OUTER_RADIUS``), the geometric grid, the kink breaks and, if compact,
    ``MOMENT_PANELS`` uniform panels between kinks.  At each grid radius g
    the moments m_j(g) = int_0^g f(L r) r^{n-1} (r / g)^{2j} dr,
    j < J = ``SERIES_TERMS``, are summed by GL8 on the grid's panels, a
    row carried to the next by (g_k / g_{k+1})^{2j} <= 1.  The tables
    (2, grid.size, J + 1) hold c_j m_j(g) and the bar: c_j times the sums
    of |GL8 - GL4| and the rounding bound k eps sum |terms| (k the GL8
    nodes below g, plus J), and at j = J the truncation bound
    (4/3) c_J int_0^g |f| r^{n-1} dr.
    """
    key = ("moments", sigma)
    if key not in field.memo:
        compact, length = field.decay == "compact_support", _length(field)
        top = 1.0 if compact else OUTER_RADIUS
        kinks = [k / length for k in field.kink_radii]
        radii = _geometric(0.0, top) + [k * g for k in kinks
                                        for g in geometry.GRADING]
        if compact:
            knots = np.unique([0.0, top] + [k for k in kinks if k < top])
            radii += np.linspace(knots[:-1], knots[1:],
                                 MOMENT_PANELS + 1).ravel().tolist()
        grid = np.array([0.0] + sorted({r for r in radii if 0.0 < r < top})
                        + [top])

        def panel_terms(order):  # (panel, node, j)
            r, w, _ = geometry.panel_nodes(grid, order)
            return ((field.radial_profile(length * r) * r ** (field.n - 1)
                     * w)[:, None]
                    * _powers((r / grid[1:].repeat(order)) ** 2, SERIES_TERMS)
                    ).reshape(grid.size - 1, order, -1)
        c = _hyp2f1_rule(*_kernel_args(field.n, sigma), SHIFT_TERMS)[0]
        fine, coarse = panel_terms(8), panel_terms(4)
        m8 = fine.sum(axis=1)
        panels = c[:SERIES_TERMS] * np.stack(
            [m8, np.abs(m8 - coarse.sum(axis=1)), np.abs(fine).sum(axis=1)])
        carry = _powers((grid[:-1] / grid[1:]) ** 2, SERIES_TERMS)
        tables = np.zeros((3, grid.size, SERIES_TERMS + 1))
        _, quad, absolute = tables[:, :, :-1]
        for k in range(1, grid.size):
            tables[:, k, :-1] = (tables[:, k - 1, :-1] * carry[k - 1]
                                 + panels[:, k - 1])
        quad += ((8 * np.arange(grid.size) + SERIES_TERMS)[:, None]
                 * np.finfo(float).eps * absolute)
        tables[1, :, -1] = 4.0 / 3.0 * c[SERIES_TERMS] * absolute[:, 0]
        field.memo[key] = geometry.frozen(grid, tables[:2])
    return field.memo[key]


def _moment_series(field: ScalarField, sigma: float, d: Array,
                   row: Array | int) -> Tuple[Array, Array]:
    """int_0^g f(L r) r^{n-1} K(d, r) dr = d^{-q} sum_j c_j m_j(g) x^j,
    x = (g / d)^2, and its bar at the distances d in units of the field's
    length L, with g = grid[row] of :func:`_moments`: one row per distance
    at or below 0.4 d (row 0 gives 0), or the top row (-1), the whole of a
    compact support, for d beyond 2.  Below r = d the kernel is
    d^{-q} F((r / d)^2), and each c_j lies in (0, 1] and falls with j; as
    x < 1/4, the terms past ``SERIES_TERMS`` are below
    c_J x^J / (1 - x) <= (4/3) c_J x^J times int_0^g |f| r^{n-1}.
    """
    grid, tables = _moments(field, sigma)
    row = np.full(d.shape, row) % grid.size
    far = np.where(row > 0, d, 1.0)
    x = (grid[row] / far) ** 2
    value, bar = np.empty((2, d.size))
    for lo in range(0, d.size, POLY_BLOCK):
        blk = slice(lo, lo + POLY_BLOCK)
        # row by row (the same bits in any batch); x >= 0 takes pow's fast path
        value[blk], bar[blk] = np.einsum(
            "ij,kij->ki", x[blk, None] ** np.arange(SERIES_TERMS + 1),
            tables[:, row[blk]])
    lead = far ** -(field.n - 2.0 * sigma)
    return lead * value, lead * bar


def _geometric(lo: float, hi: float) -> list:
    """The radii INNER_RADIUS 10^{i / PANELS_PER_DECADE} in [lo, hi] (from
    INNER_RADIUS when lo is 0), the geometric grid of every row, in units
    of the field's length."""
    first = (0 if lo <= 0.0 else math.floor(
        math.log10(lo / INNER_RADIUS) * PANELS_PER_DECADE))
    last = math.ceil(math.log10(hi / INNER_RADIUS) * PANELS_PER_DECADE)
    return [r for r in map(_geometric_radius, range(first, last + 1))
            if lo <= r <= hi]


@lru_cache(maxsize=None)
def _geometric_radius(i: int) -> float:
    return INNER_RADIUS * 10.0 ** (i / PANELS_PER_DECADE)


def _paired(rules) -> Tuple[Array, Array, Array]:
    """Nodes of a value rule and a check rule side by side, with the weights
    of each (zero on the other's nodes)."""
    (t8, w8), (t4, w4) = rules
    zero8, zero4 = np.zeros(t8.size), np.zeros(t4.size)
    return (np.concatenate([t8, t4]), np.concatenate([w8, zero4]),
            np.concatenate([zero8, w4]))


@lru_cache(maxsize=None)
def _kernel_template(sigma: float, beta: float) -> Tuple[Array, Array, Array]:
    """Nodes t in (0, 1) of a panel of :func:`_kernel_integral` and the
    weights of its value rule (order 8) and check rule (order 4), one row
    per rule: 0 Gauss-Legendre; 1 the log rule of weight (1 - t^eps) / eps,
    eps = 2 sigma - 1, weights negated; 2 Gauss-Jacobi for t^beta with
    t^{-beta - 2} folded into the weights (the power tail, rho = R / t; a
    compact field passes beta = 0)."""
    eps = 2.0 * sigma - 1.0
    rules = ([geometry.gauss_nodes(np.zeros(1), np.ones(1), k)
              for k in (8, 4)],
             [(t, -w) for t, w in (geometry.log_rule(eps, k) for k in (8, 4))],
             [(t, w * t ** (-beta - 2.0))
              for t, w in (geometry.power_rule(beta, k) for k in (8, 4))])
    return geometry.frozen(*(np.stack(x) for x in zip(*map(_paired, rules))))


def _kernel_breaks(d: float, graded: list, start: float, end: float) -> list:
    """Panel breaks in rho from ``start`` to ``end`` for the distance d of
    :func:`_kernel_integral`: the geometric grid of :func:`_geometric`
    (from INNER_RADIUS, or from 2.6 d if lower), the kink breaks
    ``graded``, and d * ``NEAR_GRADING`` in place of the grid between
    0.4 d and 2.6 d.  The offset 0.3 d of the inner split panel is halved
    down to half the gap between d and the nearest kink break or end, on
    both sides, so no panel sees the singularity at d closer than its own
    width."""
    low, high = NEAR_GRADING[0] * d, NEAR_GRADING[-1] * d
    breaks = [r for r in _geometric(min(high, INNER_RADIUS), end)
              if not low < r < high] + [d * g for g in NEAR_GRADING]
    gap = min([abs(r - d) for r in graded + [end] if r != d])
    first = (1.0 - NEAR_GRADING[1]) * d
    for j in range(1, 61):
        step = first * 0.5 ** j
        if step < 0.5 * gap:
            break
        breaks += [d - step, d + step]
    breaks = sorted({r for r in breaks + graded if start < r < end})
    return [start] + breaks + [end]


def _sphere_mean_sum(field: ScalarField, batch: Array, d: Array,
                     kernel: Callable[[Array], Array], e0: float,
                     orders: Tuple[int, ...], scale: Array, e_far: float
                     ) -> Tuple[Array, Array]:
    """The one sphere-mean driver (private, so a traced run charges its time
    to the operator that called it): per point x_j of ``batch`` (m, n), at
    distance d_j, int_0^inf K(r) g_j(scale_j r) dr and its bar, with g_j =
    f(x_j) - S_j for the Laplacian (e0 < -1, the one kernel power not
    integrable at 0) and S_j otherwise, S_j the sphere mean about x_j
    (about d_j for a radial field).  r is in units of scale_j: the field's
    length L (:func:`_length`) for the operators, t for the extension.

    Row j of :func:`geometry.panel_rows` runs from 1e-12, graded about the
    kink edges over scale_j, and starts at the head radius r_lo: the least
    of half the nearest kink edge, INNER_RADIUS max(L, d_j) min(1 / L,
    1 / scale_j), below which f - S would drown in cancellation, and
    INNER_RADIUS w, w the kernel's width, inside which K(r) is r^e0 for the
    head fit.  Each panel takes the Gauss-Legendre ``orders``, the first
    for the value.  With two the bar is |first - second|, plus k eps sum
    |terms| for the k-node sum and half the quartic term's share.  A field
    that is not radial needs n <= 3.

    The row ends at outer_j scale_j = d_j + 1.001 L for a compact field,
    past which S = 0, and at ``OUTER_RADIUS`` max(L, d_j) for any other,
    where the decay law or plain boundedness holds; at most (MAX_RADIUS -
    d_j) / 2.  Beyond, K = r^e_far (1 + c (outer / r)^2), c = K(outer) /
    outer^e_far - 1 (0 for a power, or where outer^e_far underflows), and
    S(r) = S(outer) (outer / r)^alpha, alpha the decay rate (0 for a
    bounded field), adds S(outer) outer^{e_far+1} [1 / (alpha - e_far - 1)
    + c / (alpha - e_far + 1)], a tenth of it to the bar.  The Laplacian
    adds the f(x) tail in closed form, but for a bounded field, whose S
    may oscillate, charges 2 max(|f(x)|, |S(outer)|) outer^{e_far+1} /
    |e_far + 1| to the bar instead of the S tail.
    """
    if not field.is_radial and field.n > 3:
        raise ValueError("sphere means need a field with a radial_profile, or "
                         f"n <= 3; got one that is not radial at n={field.n}")
    lap, length = e0 < -1.0, _length(field)
    centres, f0 = ((d, field.radial_profile(d)) if field.is_radial
                   else (batch, field(batch)))
    edges = geometry.kink_edges(field.kink_radii, d) / scale[:, None]
    r_lo = np.minimum(INNER_RADIUS * np.maximum(length, d)
                      * np.minimum(1.0 / length, 1.0 / scale),
                      0.5 * np.min(edges, axis=1, initial=np.inf))
    # K / r^e0 = 1 + O((r / w)^2), read at r = INNER_RADIUS (a power: w = inf)
    probe = np.array([INNER_RADIUS])
    bend = abs(kernel(probe) / probe ** e0 - 1.0)[0]
    if bend > 0.0:
        r_lo = np.minimum(r_lo, INNER_RADIUS ** 2 / math.sqrt(bend))
    if field.is_radial:  # graded where the sphere passes the centre, s = d
        edges = np.column_stack([edges, d / scale])
    compact = field.decay == "compact_support"
    reach = d + 1.001 * length if compact else OUTER_RADIUS * np.maximum(length, d)
    outer = np.minimum(reach, 0.5 * (geometry.MAX_RADIUS - d)) / scale
    rows = geometry.panel_rows(1e-12, r_lo, outer, PANELS_PER_DECADE, edges)
    moments = r_lo[:, None] ** (e0 + 1.0) / (e0 + 1.0 + 2.0 * np.arange(3))
    value, err, s_tail = np.zeros((3, d.size))
    for lo in range(0, d.size, BLOCK):
        blk = slice(lo, lo + BLOCK)
        row, g0, m = rows[blk], f0[blk], len(rows[blk])
        nodes, weights, owners = zip(*(geometry.panel_nodes(row, k)
                                       for k in orders))
        radii = np.concatenate(nodes + (row[:, 0], 0.5 * row[:, 0], outer[blk]))
        who = np.concatenate(owners + (np.arange(m),) * 3)
        means = _sphere_means(field, centres[blk][who], scale[blk][who] * radii)
        g, g0 = (g0[who] - means, np.zeros(m)) if lap else (means, g0)
        *parts, g_one, g_half, _ = np.split(
            g, np.cumsum([x.size for x in nodes] + [m, m]))
        terms = [gk * kernel(x) * w for gk, x, w in zip(parts, nodes, weights)]
        sums = [np.bincount(o, t, minlength=m) for o, t in zip(owners, terms)]

        # head: g(r) = g0 + a (r/r_lo)^2 + b (r/r_lo)^4 on [0, r_lo]
        a = (16.0 * (g_half - g0) - (g_one - g0)) / 3.0
        b = g_one - g0 - a
        mom = moments[blk]
        value[blk] = sums[0] + (mom[:, 0] * g0 + mom[:, 1] * a + mom[:, 2] * b)
        s_tail[blk] = means[-m:]
        if len(sums) > 1:
            # |GL8 - GL4|, plus the rounding bound of a k-term sum
            err[blk] = np.abs(sums[0] - sums[1]) + (
                np.bincount(owners[0], minlength=m) * np.finfo(float).eps
                * np.bincount(owners[0], np.abs(terms[0]), minlength=m)
                ) + 0.5 * np.abs(b) * mom[:, 2]

    # beyond outer: K = r^e_far (1 + c (outer / r)^2)
    power, far = outer ** e_far, outer ** (e_far + 1.0)
    c = np.divide(kernel(outer), power, out=np.ones(d.size),
                  where=power >= np.finfo(float).tiny) - 1.0

    def tail(alpha):  # int_outer^inf K(r) (outer / r)^alpha dr
        return far * (1.0 / (alpha - e_far - 1.0) + c / (alpha - e_far + 1.0))
    if lap:
        value += f0 * tail(0.0)
    if lap and field.decay == "integrable_against_kernel":
        err += 2.0 * np.maximum(np.abs(f0), np.abs(s_tail)) * far / abs(e_far + 1.0)
    elif not compact:
        alpha = field.decay_rate if field.decay == "power_decay" else 0.0
        s_far = (-s_tail if lap else s_tail) * tail(alpha)
        value += s_far
        err += 0.1 * np.abs(s_far)
    return value, err


def riesz_field(field: ScalarField, params: Params) -> ScalarField:
    """The Riesz potential of a radial compact field, tabulated once.

    The potential I(d) is even in d and smooth on each of [0, a] and
    [a, 2a], a = ``support_radius``.  One batched :func:`riesz_potential`
    call, one integral in rho at each node, samples it at ``TABLE_NODES``
    Chebyshev first-kind nodes in (d/a)^2 on [0, a] and in d on [a, 2a]
    for interpolation; beyond 2a the profile is :func:`riesz_potential`
    itself, the exterior series of :func:`_moment_series` at d / a.  The
    result is a radial field decaying like d^{2 sigma - n}, with kinks
    where the pieces join.  Its ``error_bound`` is the interpolation bound
    2 sum_{k >= N} |c_k| (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 7-8), the last ``TRAILING`` computed |c_k|
    standing in for that tail; the sampled values carry the bars of
    :func:`riesz_potential`.
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

    def profile(r):
        chebval = np.polynomial.chebyshev.chebval
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        lo, hi = r <= a, r > 2.0 * a
        between = ~(lo | hi)
        out[lo] = chebval(2.0 * (r[lo] / a) ** 2 - 1.0, inner)
        out[between] = chebval(2.0 * r[between] / a - 3.0, mid)
        out[hi] = riesz_potential(field, r[hi][:, None] * np.eye(n)[0],
                                  params).value
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
    Both F are the m = 1 case of :func:`_hypergeometric` at z = (lo / hi)^2,
    lo and hi the smaller and the larger of d and radius, and at
    w = g (2 - g), g = (hi - lo) / hi, which keeps its relative accuracy at
    the ball edge.  The powers of radius and delta stay apart, so tiny
    radii do not underflow, and delta^-2, which overflows, is not formed.
    Floats give a float; arrays of distances or radii, broadcast against
    each other, give an array.
    """
    d, radius = np.broadcast_arrays(np.asarray(d, dtype=float),
                                    np.asarray(radius, dtype=float))
    if (radius <= 0.0).any():
        raise ValueError("ball radius must be positive, got "
                         f"{float(radius.min()):g}")
    n, s = params.n, params.sigma
    a, eps = n / 2 - s, 2.0 * s - 1.0
    front = _riesz_front(params)
    lo, hi = np.minimum(d, radius), np.maximum(d, radius)
    # 1 - lo / hi, exact at the ball edge, and 1 at d = inf
    gap = np.divide(hi - lo, hi, out=np.ones(d.shape), where=hi < np.inf)
    w = gap * (2.0 - gap)
    z = (lo / hi) ** 2
    out = np.empty(d.shape)
    near = d / radius <= 1.0
    far = ~near
    if near.any():
        rn = radius[near]
        out[near] = (front * rn ** (2.0 * s) / (2.0 * s)
                     * _hypergeometric(a, -s, eps, 1, z[near], w[near]))
    if far.any():
        df, rf = d[far], radius[far]
        out[far] = (front * rf ** (2.0 * s) / n * (df / rf) ** (2.0 * s - n)
                    * _hypergeometric(a, 1.0 - s, eps, 1, z[far], w[far]))
    return float(out) if out.ndim == 0 else out


#: B_2k / (2k (2k - 1)), the Stirling series of lgamma.
STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)

#: Points whose powers and coefficient rows :func:`_hypergeometric` and
#: :func:`_moment_series` gather at once, so that a large batch costs about
#: 3 ``SERIES_TERMS`` times this in memory.
POLY_BLOCK = 2048

#: The w = 1 - z from which on :func:`_hypergeometric` sums the Maclaurin
#: series in z, and below which the connection series in w.
KERNEL_SWITCH = 0.4

#: Buckets of z (upper edge, centre) for the Maclaurin series of
#: :func:`_hypergeometric`, and of w for its connection series, each
#: re-expanded about its centre; the last runs to the switch (z) or to
#: ``KERNEL_SPLIT_W`` (w).  Up to n = 9 no bucket keeps more than 26 terms.
KERNEL_Z_BUCKETS = ((1.0 / 16.0, 0.0), (0.25, 5.0 / 32.0), (0.45, 0.35),
                    (np.inf, 0.525))
KERNEL_W_BUCKETS = ((1.0 / 16.0, 0.0), (0.2, 0.13), (0.4, 0.3),
                    (np.inf, 0.46))

#: The largest w on a split panel of :func:`_kernel_integral` (1 - 0.7^2),
#: where the connection series must still hold.
KERNEL_SPLIT_W = 0.52

#: The share of the largest term below which :func:`_kernel_rule` drops
#: the terms of a series in a bucket; the most terms a bucket may keep;
#: and the terms of each series it re-expands.
KERNEL_TOL = 2.0 ** -60
BUCKET_TERMS = 40
SHIFT_TERMS = 150


def _kernel_args(n: int, sigma: float) -> Tuple[float, float, float, int]:
    """(a, b, eps, m) of the kernel's 2F1 for :func:`_hypergeometric`."""
    return n / 2.0 - sigma, 1.0 - sigma, 2.0 * sigma - 1.0, 0


def _hypergeometric(a: float, b: float, eps: float, m: int, z: Array,
                    w: Array, split: Optional[Array] = None,
                    log_y: Optional[Array] = None,
                    log_node: Optional[Array] = None) -> Array:
    """2F1(a, b; c; z), c = a + b + m + eps, m = 0 or 1 and |eps| < 1, at
    arrays z and w = 1 - z (each given, so each keeps its digits where it
    is small): the Maclaurin series in z for w >= ``KERNEL_SWITCH``, and
    below it lead + w^m [E(ln w) p(w) - q(w)], E(y) = expm1(eps y) / eps
    (:func:`_hyp2f1_rule`), each node on the row of :func:`_kernel_rule`
    for its bucket (q = 0 on the Maclaurin rows).  At w = 0 (m = 1, the
    ball edge) F is the lead: ln 1 stands in for ln 0.
    :func:`_kernel_integral` marks the nodes of its split panels
    (``split``), which take the connection series up to
    w = ``KERNEL_SPLIT_W``; it passes ``log_y`` in place of ln w, and
    ``log_node`` where it wants p(w) e^{eps y} alone.
    """
    edges, centre, tables, lead, _ = _kernel_rule(a, b, eps, m)
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
        powers = _powers(x[blk], tables.shape[-1])
        # row by row, so a point gets the same value in any batch
        p_w[blk], q_w[blk] = (np.einsum("ij,ij->i", powers, t[bucket[blk]])
                              for t in tables)
    if log_y is None:
        log_y = np.log(np.where(w > 0.0, w, 1.0))
    e_p = _over(np.expm1, eps, log_y) * p_w
    near = e_p - q_w
    if log_node is not None:
        near = np.where(log_node, p_w + eps * e_p, near)
    if m:
        near = lead + w * near
    return np.where(series, p_w, near)


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
def _kernel_rule(a: float, b: float, eps: float, m: int) -> tuple:
    """The buckets of :func:`_hypergeometric` for 2F1(a, b; c; z),
    c = a + b + m + eps: the inner edges in z, then 2, then those in 2 + w;
    each bucket's centre; its rows of coefficients, the Maclaurin or p
    series and 0 or the q series, zero-padded (2, bucket, term); the lead;
    and the truncation bound.  ``SHIFT_TERMS`` of each series of
    :func:`_hyp2f1_rule` are re-expanded about each centre by
    :func:`_shift`.  A bucket keeps every term above ``KERNEL_TOL`` of the
    largest at its radius r about the centre (|b_k| r^k, or
    (|b_k(p)| |E(ln w_lo)| + |b_k(q)|) r^k with w_lo its least w, or r at
    w = 0); the bound is the largest share of the dropped terms, with the
    tail past them as a geometric series.  It bounds the relative
    truncation error of the kernel (m = 0), as F >= 1 there.
    """
    mac, lead, p, q = _hyp2f1_rule(a, b, eps, m, SHIFT_TERMS)
    worst, kept = 0.0, []
    for buckets, top, series in ((KERNEL_Z_BUCKETS, 1.0 - KERNEL_SWITCH,
                                  (mac, np.zeros(SHIFT_TERMS))),
                                 (KERNEL_W_BUCKETS, KERNEL_SPLIT_W, (p, q))):
        lower = 0.0
        for edge, centre in buckets:
            upper = min(edge, top)
            r = max(upper - centre, centre - lower)
            coef = _shift(centre) @ np.stack(series, axis=1)
            size = np.abs(coef[:, 0]) * (abs(_over(
                math.expm1, eps, math.log(lower or r))) if series[0] is p
                else 1.0) + np.abs(coef[:, 1])
            mag = size * r ** np.arange(BUCKET_TERMS)
            count = int(np.nonzero(mag > KERNEL_TOL * mag.max())[0][-1]) + 1
            worst = max(worst, (mag[count:].sum() + mag[-1] * r / (1.0 - r))
                        / mag.max())
            kept.append(coef[:count])
            lower = edge
    # (bucket, terms) tables, zero-padded to the longest bucket
    table = np.zeros((2, len(kept), max(c.shape[0] for c in kept)))
    for i, c in enumerate(kept):
        table[:, i, :c.shape[0]] = c.T
    edges = ([e for e, _ in KERNEL_Z_BUCKETS[:-1]] + [2.0]
             + [2.0 + e for e, _ in KERNEL_W_BUCKETS[:-1]])
    centres = [c for _, c in KERNEL_Z_BUCKETS + KERNEL_W_BUCKETS]
    return geometry.frozen(np.array(edges), np.array(centres), table) + (lead, worst)


@lru_cache(maxsize=None)
def _shift(centre: float) -> Array:
    """C(j, k) centre^{j - k} (``BUCKET_TERMS``, ``SHIFT_TERMS``), which
    re-expands a power series about ``centre``; made once per centre."""
    if not centre:
        return geometry.frozen(np.eye(BUCKET_TERMS, SHIFT_TERMS))[0]
    # row k: C(j, k) centre^{j - k}, row k - 1 times (j - k + 1) / (k centre)
    j = np.arange(SHIFT_TERMS)
    k = np.arange(1, BUCKET_TERMS)[:, None]
    return geometry.frozen(np.cumprod(np.concatenate(
        [centre ** j[None], (j - k + 1) / (k * centre)]), axis=0))[0]


def _over(fn: Callable, eps: float, y):
    """fn(eps y) / eps, with its limit y at eps = 0, for fn = expm1 or log1p."""
    return fn(eps * y) / eps if eps else y


@lru_cache(maxsize=None)
def _hyp2f1_rule(a: float, b: float, eps: float, m: int, terms: int
                 ) -> Tuple[Array, float, Array, Array]:
    """The coefficients of :func:`_hypergeometric`, ``terms`` of each
    series, made once per (a, b, eps, m).

    A&S 15.3.6 gives F = lead + sum_j C pi / sin(pi eps) w^{j+m}
    [P_j w^eps - Q_j], term j + m of its first series paired with term j
    of its second.  With p_j = C P_j pi eps / sin(pi eps) and
    L_j = ln(P_j / Q_j), that is lead + w^m [E(ln w) p(w) - q(w)] with
    q_j = p_j E(-L_j / eps); every quotient by eps has its limit at
    eps = 0, the log case of A&S 15.3.10-11.

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
    mac, p, q = geometry.frozen(mac, p, q)
    return mac, lead, p, q


def _lgamma_quotients(x0: float, eps: float, terms: int) -> Array:
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
