"""Sphere-mean rules, spherical-cap fractions, and the radial panel quadrature.

Everything here is plain geometry on spheres in R^n.  Every radial
integral of the package is summed on the panels of :func:`panel_rows`:
geometric panels plus breaks at edge * ``GRADING`` about each edge of
:func:`kink_edges`.  :mod:`fraclab.fracops` and :mod:`fraclab.solver` take
a block of rows at once, and :mod:`fraclab.extension` takes the nodes of
one fixed row for every point; the other modules take one row from
:func:`panel_breaks` and sum it by :func:`panel_quad`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.special import betainc, roots_jacobi

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
        pts = np.array([[1.0], [-1.0]])
        wts = np.array([0.5, 0.5])
    elif n == 2:
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        wts = np.full(m, 1.0 / m)
    elif n == 3:
        m_pol = max(2, int(round(math.sqrt(m / 2.0))))
        m_az = max(4, 2 * m_pol)
        ct, cw = np.polynomial.legendre.leggauss(m_pol)
        phi = 2.0 * math.pi * (np.arange(m_az) + 0.5) / m_az
        st = np.sqrt(1.0 - ct ** 2)
        pts = np.empty((m_pol * m_az, 3))
        wts = np.empty(m_pol * m_az)
        k = 0
        for i in range(m_pol):
            for j in range(m_az):
                pts[k] = (st[i] * math.cos(phi[j]), st[i] * math.sin(phi[j]), ct[i])
                wts[k] = cw[i] / (2.0 * m_az)
                k += 1
    else:
        raise ValueError(f"sphere_rule supports n <= 3, got n={n}")
    return pts, wts


@lru_cache(maxsize=None)
def radial_sphere_rule(n: int, m: int) -> Tuple[Array, Array]:
    """Gauss-Jacobi rule for sphere means of radial functions, any n >= 2.

    For radial g, the mean of g(|x0 + s theta|) over theta in S^{n-1}
    equals the integral of g(sqrt(d^2 + s^2 + 2 d s t)) against the
    normalized weight (1-t^2)^{(n-3)/2} on t in (-1, 1), d = |x0|.
    Returns (t_nodes, weights) with weights summing to one.
    """
    alpha = (n - 3) / 2.0
    t, w = roots_jacobi(m, alpha, alpha)
    return t, w / w.sum()


# --- spherical caps -------------------------------------------------------

def cap_fraction(d: float, s: Array, radius: float, n: int) -> Array:
    """Fraction of each sphere |x - x0| = s lying inside the ball |x| <= radius.

    ``d`` is |x0| and ``s`` an array of radii >= 0.  The boundary polar
    cosine is t0 = (radius^2 - d^2 - s^2) / (2 d s); where the sphere
    crosses the ball boundary the fraction is the normalized surface
    measure of {theta : <x0/d, theta> <= t0}, computed through the
    regularized incomplete beta function.  Spheres inside the ball give
    exactly 1, spheres outside it (or enclosing it) exactly 0.
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
        a = (n - 1) / 2.0
        out[cross] = betainc(a, a, (1.0 + t0) / 2.0)
    return out


# --- composite radial panels ----------------------------------------------

#: Breaks at edge * g about each kink edge, so that panels shrink toward it.
GRADING = (0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1)


def kink_edges(kinks: Sequence[float], d: Array) -> Array:
    """(m, 2k) radii s where sphere means about |x| = d[j] lose smoothness.

    A kink of a radial profile at radius k shows up in the sphere mean about
    x at s = |k - d| and s = k + d; edges at or below 1e-11 are inf.
    """
    kinks = np.asarray(kinks, dtype=float)[None, :]
    d = np.asarray(d, dtype=float)[:, None]
    edges = np.concatenate([np.abs(kinks - d), kinks + d], axis=1)
    return np.where(edges > 1e-11, edges, np.inf)


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
                       for o in outer])
    steps = np.arange(counts.max() + 1)[None, :]
    geo = start * (outer / start)[:, None] ** (steps / counts[:, None])
    geo[steps > counts[:, None]] = np.inf
    graded = (edges[:, :, None] * np.asarray(GRADING)).reshape(len(outer), -1)
    graded[~((graded > start) & (graded < outer[:, None]))] = np.inf
    rows = np.concatenate([geo, graded], axis=1)
    rows[rows <= s_lo[:, None]] = np.inf
    rows = np.sort(np.concatenate([s_lo[:, None], rows], axis=1), axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.inf
    return np.sort(rows, axis=1)


def panel_breaks(s_min: float, s_max: float, per_decade: int,
                 edges: Sequence[float] = ()) -> Array:
    """One row of :func:`panel_rows` from s_min to s_max, without its padding."""
    if not (0.0 < s_min < s_max):
        raise ValueError("need 0 < s_min < s_max")
    row = panel_rows(s_min, [s_min], [s_max], per_decade,
                     np.asarray(edges, dtype=float).reshape(1, -1))[0]
    return row[np.isfinite(row)]


@lru_cache(maxsize=None)
def _legendre(order: int) -> Tuple[Array, Array]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_nodes(lo: Array, hi: Array, order: int) -> Tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on the panels [lo_j, hi_j], panel by panel."""
    x, w = _legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def gauss_panels(breaks: Array, order: int) -> Tuple[Array, Array]:
    """Composite Gauss-Legendre nodes and weights on the panels of ``breaks``."""
    breaks = np.asarray(breaks, dtype=float)
    return gauss_nodes(breaks[:-1], breaks[1:], order)


def panel_quad(g: Callable[[Array], Array], breaks: Array) -> float:
    """Integral of g over the panels by composite Gauss-Legendre(8)."""
    nodes, weights = gauss_panels(breaks, 8)
    return float(np.dot(np.asarray(g(nodes), dtype=float), weights))
