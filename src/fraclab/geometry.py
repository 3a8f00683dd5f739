"""Sphere-mean rules, spherical-cap fractions, and the radial panel quadrature.

Everything here is plain geometry on spheres in R^n.  The sphere-mean
integrals are summed on the panels of :func:`panel_rows`: geometric panels
plus breaks at edge * ``GRADING`` about each edge of :func:`kink_edges`,
relative to the kink or the distance, so at any scale.  The driver
:func:`fraclab.fracops._sphere_mean_sum` (in r, the kink edges divided by
the field's length for the operators and by t for the extension) and
:mod:`fraclab.solver` take a block of rows at once, the other modules one
row or a break vector of their own.  Every composite Gauss-Legendre panel
sum reads its nodes, weights and owning rows from :func:`panel_nodes`.  The
potential of a radial field, an integral in rho in units of the field's
length, takes Gauss rules for singular weights on (0, 1) from
:func:`power_rule` and :func:`log_rule` on panels of its own
(``fracops._kernel_breaks``), and the Feynman-parameter integral of
:mod:`fraclab.extension` takes dyadic panels.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

Array = np.ndarray


# --- spherical-mean quadrature rules -------------------------------------

@lru_cache(maxsize=None)
def sphere_rule(n: int, m: int) -> Tuple[Array, Array]:
    """Quadrature rule (points, weights) averaging over the unit sphere S^{n-1}.

    Weights sum to one.  n = 1 is the two-point rule, n = 2 uses m uniform
    angles (exact on trigonometric polynomials of degree < m), n = 3 uses a
    Gauss-Legendre grid in the polar cosine crossed with uniform azimuths.
    """
    if n == 1:
        pts, wts = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    elif n == 2:
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        pts, wts = np.column_stack([np.cos(theta), np.sin(theta)]), np.full(m, 1.0 / m)
    elif n == 3:
        m_pol = max(2, int(round(math.sqrt(m / 2.0))))
        m_az = max(4, 2 * m_pol)
        ct, cw = np.polynomial.legendre.leggauss(m_pol)
        phi = 2.0 * math.pi * (np.arange(m_az) + 0.5) / m_az
        st = np.sqrt(1.0 - ct ** 2)
        pts = np.stack([np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)),
                        np.repeat(ct[:, None], m_az, axis=1)],
                       axis=-1).reshape(-1, 3)
        wts = np.repeat(cw / (2.0 * m_az), m_az)
    else:
        raise ValueError(f"sphere_rule supports n <= 3, got n={n}")
    return pts, wts


def frozen(*arrays: Array) -> Tuple[Array, ...]:
    """The arrays, made read-only: tables that are computed once and shared."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


#: The largest |x| whose square is finite.
MAX_RADIUS = math.sqrt(np.finfo(float).max)


def radius(points: Array) -> Array:
    """|x| per row of ``points`` (m, n) by a chain of hypot, so that no square
    over- or underflows; a finite |x| whose square overflows is refused."""
    r = np.hypot.reduce(points, axis=1, initial=0.0)
    if r.max(initial=0.0) > MAX_RADIUS and (r[r < np.inf] > MAX_RADIUS).any():
        raise ValueError(f"|x| = {np.max(r[r < np.inf]):g} is too large: "
                         "|x|^2 overflows")
    return r


#: Gauss-Legendre nodes on each piece of the polar angle.
POLAR_NODES = 24


@lru_cache(maxsize=None)
def _polar_rule(n: int) -> Tuple[Array, Array, Array, Array]:
    """Gauss-Legendre offsets u in (0, 1) and weights W per unit width of a
    piece of theta/2, for sin^{n-2} theta d theta normalised on (0, pi);
    then cos^2(theta/2) and the weights of the whole sphere (width pi/2)."""
    x, w = _legendre(POLAR_NODES)
    u = 0.5 * (x + 1.0)
    # d theta = 2 d(theta/2), and sin theta = 2 cos(theta/2) sin(theta/2)
    big_w = w * 2.0 ** (n - 2) * math.gamma(n / 2.0) / (
        math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))
    c2 = np.cos(0.5 * math.pi * u) ** 2
    return u, big_w, c2, 0.5 * math.pi * big_w * (c2 - c2 * c2) ** (0.5 * (n - 2))


def radial_mean_rule(n: int, d: Array, s: Array, kinks: Sequence[float]
                     ) -> Tuple[Array, Array, Array]:
    """Nodes of the means of a radial g over the spheres |x - x0| = s[j],
    |x0| = d[j] (float arrays of one shape (m,)): radii and weights (p, q)
    and the row (p,) of p pieces of q nodes, so that the mean over sphere j
    is the sum of w g(radii) over the pieces of row j.

    In the polar angle theta about x0 the sphere meets the radius
    r = sqrt((d - s)^2 + 4 d s cos^2(theta/2)), and the mean is the
    normalised integral of g(r) sin^{n-2} theta on (0, pi), as smooth in
    theta as g is in r.  A sphere that crosses a kink k (|d - s| < k < d + s)
    is split at tan^2(theta_k/2) = ((d + s)^2 - k^2) / (k^2 - (d - s)^2),
    each piece taking ``POLAR_NODES`` Gauss-Legendre nodes; a sphere that
    crosses none takes nodes computed once.  A g constant on each piece,
    such as an indicator, is integrated exactly.  n = 1 is the two-point
    mean over d - s and d + s (d may be signed; a radial g takes moduli).
    """
    if n == 1:
        return (np.stack([d - s, d + s], axis=1), np.full((d.size, 2), 0.5),
                np.arange(d.size))
    u, big_w, c2_whole, w_whole = _polar_rule(n)
    k = np.asarray(kinks, dtype=float)
    near, far = np.abs(d - s)[:, None], (d + s)[:, None]
    cross = (near < k) & (k < far)
    split = cross.any(axis=1)
    gap, four_ds = near * near, 4.0 * (d * s)[:, None]
    whole, rows = np.nonzero(~split)[0], np.nonzero(split)[0]
    # breaks in theta/2: 0, pi/2, and theta_k/2 of each kink crossed or
    # pi/2 (a piece of length 0) of each kink missed
    half = np.where(cross, np.arctan2(
        np.sqrt(np.abs((far - k) * (far + k))),
        np.sqrt(np.abs((k - near) * (k + near)))), 0.5 * math.pi)
    breaks = np.zeros((rows.size, k.size + 2))
    breaks[:, 1:-1], breaks[:, -1] = np.sort(half[rows], axis=1), 0.5 * math.pi
    width = breaks[:, 1:] - breaks[:, :-1]
    live = width > 0.0
    lo, width = breaks[:, :-1][live][:, None], width[live][:, None]
    pieces = rows[np.nonzero(live)[0]]
    # the whole spheres first, then the pieces, written in place
    row, m = np.concatenate([whole, pieces]), whole.size
    r, w = np.empty((2, row.size, POLAR_NODES))
    np.multiply(four_ds[whole], c2_whole, out=r[:m])
    w[:m] = w_whole
    c2 = np.cos(lo + width * u) ** 2
    np.multiply(four_ds[pieces], c2, out=r[m:])
    np.multiply(width, big_w, out=w[m:])
    if n > 2:
        w[m:] *= (c2 - c2 * c2) ** (0.5 * (n - 2))
    r += gap[row]
    return np.sqrt(r, out=r), w, row


# --- spherical caps -------------------------------------------------------

def cap_fraction(d: float, s: Array, radius: float, n: int) -> Array:
    """Fraction of each sphere |x - x0| = s lying inside the ball |x| <= radius.

    ``d`` is |x0| and ``s`` an array of radii >= 0.  The boundary polar
    cosine is t0 = (radius^2 - d^2 - s^2) / (2 d s); where the sphere
    crosses the ball boundary the fraction is the normalized surface
    measure of {theta : <x0/d, theta> <= t0}, the regularized incomplete
    beta function I_x(a, a), x = (1 + t0) / 2, a = (n - 1) / 2.  As a is a
    whole or half-whole number, it starts from I_x(1, 1) = x or
    I_x(1/2, 1/2) = (2 / pi) arcsin sqrt(x) and steps up by
    I_x(k+1, k+1) = I_x(k, k) + (2x - 1) [x (1 - x)]^k / (k B(k, k)).
    Spheres inside the ball give exactly 1, spheres outside it (or
    enclosing it) exactly 0.
    """
    s = np.asarray(s, dtype=float)
    out = np.where(s > 0.0, d + s <= radius, d <= radius).astype(float)
    cross = (s > 0.0) & (d + s > radius) & (np.abs(d - s) < radius)
    if n == 1:
        # two points d - s and d + s; here exactly one is inside
        out[cross] = 0.5
    else:
        sc = s[cross]
        t0 = np.clip((radius * radius - d * d - sc * sc) / (2.0 * d * sc), -1.0, 1.0)
        x = (1.0 + t0) / 2.0
        k = 1.0 if n % 2 else 0.5
        share = x if n % 2 else (2.0 / math.pi) * np.arcsin(np.sqrt(x))
        while k < (n - 1) / 2.0:
            share = share + (2.0 * x - 1.0) * (x * (1.0 - x)) ** k * (
                math.gamma(2.0 * k) / (k * math.gamma(k) ** 2))
            k += 1.0
        out[cross] = share
    return out


# --- composite radial panels ----------------------------------------------

#: Breaks at edge * g about each kink edge, so that panels shrink toward it.
GRADING = (0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1)


def kink_edges(kinks: Sequence[float], d: Array) -> Array:
    """(m, 2k) radii s where sphere means about |x| = d[j] lose smoothness.

    A kink of a radial profile at radius k shows up in the sphere mean about
    x at s = |k - d| and s = k + d; edges at or below 1e-11 max(k, d) are inf.
    """
    kinks = np.asarray(kinks, dtype=float)[None, :]
    d = np.asarray(d, dtype=float)[:, None]
    edges = np.concatenate([np.abs(kinks - d), kinks + d], axis=1)
    return np.where(edges > 1e-11 * np.tile(np.maximum(kinks, d), 2), edges, np.inf)


def panel_rows(start: float, s_lo: Array, outer: Array, per_decade: int,
               edges: Array) -> Array:
    """Rows of radial panel breaks from s_lo[j] to about outer[j], inf-padded.

    Row j is the geometric grid from ``start`` to outer[j] plus the breaks
    edge * ``GRADING`` in (start, outer[j]) about each kink edge of
    edges[j], cut at s_lo[j] and started there: an integrand that loses
    smoothness at s = edge gets panels that shrink toward it.
    """
    s_lo = np.asarray(s_lo, dtype=float)
    outer = np.asarray(outer, dtype=float)
    counts = np.array([max(1, math.ceil(math.log10(o / start) * per_decade))
                       for o in outer], dtype=int)
    steps = np.arange(counts.max(initial=0) + 1)[None, :]
    geo = start * (outer / start)[:, None] ** (steps / counts[:, None])
    geo[steps > counts[:, None]] = np.inf
    graded = np.concatenate([edges * g for g in GRADING], axis=1)
    graded[~((graded > start) & (graded < outer[:, None]))] = np.inf
    rows = np.concatenate([geo, graded], axis=1)
    rows[rows <= s_lo[:, None]] = np.inf
    rows = np.sort(np.concatenate([s_lo[:, None], rows], axis=1), axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.inf
    return np.sort(rows, axis=1)


def _gauss_from_moments(moments: Array) -> Tuple[Array, Array]:
    """Gauss nodes and weights on (0, 1) for the weight whose moments
    against the shifted Legendre polynomials P_k(2t - 1), k < 2N, are
    ``moments``: Gautschi's modified Chebyshev algorithm for the
    recurrence, well conditioned where the power moments are not, then
    the Golub-Welsch eigenproblem (Gautschi, *Orthogonal Polynomials*,
    2004, §2.1.7 and §3.1.1.1)."""
    size = len(moments)
    k = np.arange(size)
    # the monic shifted Legendre recurrence: pi_{k+1} = (t - 1/2) pi_k - b_k pi_{k-1}
    b = k * k / (4.0 * (4.0 * k * k - 1.0))
    lead = np.cumprod(np.concatenate([[1.0], 2.0 * (2.0 * k[1:] - 1.0) / k[1:]]))
    sig, prev = np.asarray(moments) / lead, np.zeros(size)
    alpha, beta = np.empty((2, size // 2))
    alpha[0], beta[0] = 0.5 + sig[1] / sig[0], sig[0]
    for j in range(1, size // 2):
        mid = slice(j, size - j)
        new = np.zeros(size)
        new[mid] = (sig[j + 1:size - j + 1] - (alpha[j - 1] - 0.5) * sig[mid]
                    - beta[j - 1] * prev[mid] + b[mid] * sig[j - 1:size - j - 1])
        alpha[j] = 0.5 + new[j + 1] / new[j] - sig[j] / sig[j - 1]
        beta[j] = new[j] / sig[j - 1]
        prev, sig = sig, new
    off = np.sqrt(beta[1:])
    x, vec = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    return frozen(x, beta[0] * vec[0] ** 2)


@lru_cache(maxsize=None)
def power_rule(beta: float, order: int) -> Tuple[Array, Array]:
    """Gauss-Jacobi nodes and weights on (0, 1) for the weight t^beta,
    beta > -1, whose shifted Legendre moments are
    beta (beta - 1) ... (beta - k + 1) / ((beta + 1) ... (beta + k + 1))."""
    size = 2 * order
    return _gauss_from_moments(
        np.cumprod(np.concatenate([[1.0], beta - np.arange(size - 1)]))
        / np.cumprod(beta + np.arange(1, size + 1)))


@lru_cache(maxsize=None)
def log_rule(eps: float, order: int) -> Tuple[Array, Array]:
    """Gauss nodes and weights on (0, 1) for the weight (1 - t^eps) / eps,
    -1 < eps < 1, which is -ln t at eps = 0.

    Its shifted Legendre moments are 1 / (1 + eps) and, for k >= 1,
    -(eps - 1) ... (eps - k + 1) / ((eps + 1) ... (eps + k + 1)): the
    moments of t^eps less those of 1, over eps, with no cancellation
    near eps = 0.
    """
    size = 2 * order
    tail = (-np.cumprod(np.concatenate([[1.0], eps - np.arange(1, size - 1)]))
            / np.cumprod(eps + np.arange(1, size + 1))[1:])
    return _gauss_from_moments(np.concatenate([[1.0 / (1.0 + eps)], tail]))


@lru_cache(maxsize=None)
def _legendre(order: int) -> Tuple[Array, Array]:
    return frozen(*np.polynomial.legendre.leggauss(order))


def gauss_nodes(lo: Array, hi: Array, order: int) -> Tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on the panels [lo_j, hi_j], panel by panel."""
    x, w = _legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def panel_nodes(rows: Array, order: int) -> Tuple[Array, Array, Array]:
    """Gauss-Legendre nodes and weights of ``order`` on the live panels of
    ``rows``, the inf-padded rows (m, k) of :func:`panel_rows` or one break
    vector, and the row that owns each node: panel by panel in row order,
    so each row sums in the same order in any table."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    live = np.isfinite(rows[:, 1:])
    nodes, weights = gauss_nodes(rows[:, :-1][live], rows[:, 1:][live], order)
    return nodes, weights, np.nonzero(live)[0].repeat(order)
