"""Half-space Green function, annulus potentials, and comparison inequalities.

The Green function of the upper half ball complement construction is

    G(Y, eta) = N * ( |Y - eta|^{2s-n} - (lam/|eta|)^{n-2s} |Y - eta^lam|^{2s-n} ),

with eta^lam the inversion of the boundary point eta about the sphere of
radius lam.  The potential of a continuous density q on an annulus E - B_lam,

    Phi(Y) = int G(Y, eta) q(eta) d eta,

vanishes on |Y| = lam and recovers q as its conormal derivative.  All heights
of its ladder share one annulus grid, built the same way at n = 2 and 3: its
polar axis lies along y, so the kernel does not depend on the azimuth, and q
and the weights are summed over the azimuth once; each height costs one node
per (r, theta).  The G3 scan is one array per radius.

The comparison inequalities set the extended model bubble against its
half-space Kelvin images on random samples.  Each sample set is one call:
the closed form at sigma = 1/2 and the Feynman-parameter integral
:func:`extension.model_bubble_extension` elsewhere, with the trace at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import constants, extension, geometry
from .bubbles import KelvinMap
from .params import Params

Array = np.ndarray


@dataclass(frozen=True)
class GreenContext:
    """Inversion radius and problem parameters for one Green function."""

    lam: float
    params: Params

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")


def _split(Y: Array, n: int) -> Tuple[Array, float]:
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if Y.size != n + 1:
        raise ValueError(f"expected a half-space point with {n + 1} coordinates")
    return Y[:n], float(Y[n])


def _sq_dists(ctx: GreenContext, y: Array, etas: Array) -> Tuple[Array, Array, Array]:
    """|y - eta|^2, |y - eta^lam|^2 and (lam/|eta|)^{n-2s} per eta; y (n,) or (..., 1, n)."""
    kelvin = KelvinMap(ctx.params, lam=ctx.lam)
    return (np.sum((etas - y) ** 2, axis=-1),
            np.sum((kelvin.point(etas) - y) ** 2, axis=-1), kelvin.weight(etas))


def _direct_and_image(ctx: GreenContext, sq: Tuple[Array, Array, Array], t2):
    """|Y - eta|^{2s-n} and (lam/|eta|)^{n-2s} |Y - eta^lam|^{2s-n}, given t^2."""
    s2n = (2.0 * ctx.params.sigma - ctx.params.n) / 2.0
    d1sq, d2sq, weight = sq
    return (d1sq + t2) ** s2n, weight * (d2sq + t2) ** s2n


def green_kernel(ctx: GreenContext, Y: Array, etas: Array) -> Array:
    """G(Y, eta) for one half-space point against many boundary points."""
    y, t = _split(Y, ctx.params.n)
    sq = _sq_dists(ctx, y, np.atleast_2d(np.asarray(etas, dtype=float)))
    direct, image = _direct_and_image(ctx, sq, t * t)
    return constants.constant_set(ctx.params).n_green * (direct - image)


def green_eval(ctx: GreenContext, Y: Array, eta: Array) -> float:
    """Green function at one (Y, eta) pair; domain error inside B_lam."""
    n = ctx.params.n
    y, t = _split(Y, n)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if math.hypot(float(np.linalg.norm(y)), t) < ctx.lam * (1.0 - 1e-12):
        raise ValueError("Y must lie outside B_lam")
    if np.linalg.norm(eta) < ctx.lam * (1.0 - 1e-12):
        raise ValueError("eta must lie outside B_lam")
    return float(green_kernel(ctx, Y, eta[None, :])[0])


@dataclass
class AnnulusDensity:
    """Continuous density q on the annulus lam < |eta| < outer_radius."""

    outer_radius: float
    q: Callable[[Array], Array]

    def __call__(self, etas: Array) -> Array:
        return np.asarray(self.q(np.atleast_2d(np.asarray(etas, dtype=float))),
                          dtype=float)


#: Azimuth nodes of the annulus grid at n = 3 (n = 2 has the two of S^0).
AZIMUTHS = 24


def _annulus_grid(ctx: GreenContext, outer: float, y: Array,
                  focus: bool) -> Tuple[Array, Array]:
    """Product quadrature nodes and weights over the boundary annulus.

    The polar angle is measured from y/|y| (e_1 when y = 0), on panels
    graded toward 0, and crossed with the azimuths of
    ``geometry.sphere_rule(n - 1, AZIMUTHS)``, which run fastest; one
    Householder reflection turns the polar axis onto y/|y|.  With ``focus``
    the radial panels are graded toward |y| too, since the subtracted
    integrand still peaks there.
    """
    n = ctx.params.n
    lam = ctx.lam
    d = float(np.linalg.norm(y))
    rbreaks = np.linspace(lam, outer, 13)
    if focus:
        extra = d + (outer - lam) * np.array([-0.05, -0.01, 0.0, 0.01, 0.05])
        rbreaks = np.unique(np.clip(np.concatenate([rbreaks, extra]), lam, outer))
    r, wr, _ = geometry.panel_nodes(rbreaks, 8)
    wr = wr * r ** (n - 1)

    offs = np.concatenate([[0.0], 0.02 * 1.8 ** np.arange(12)])
    th, wth, _ = geometry.panel_nodes(np.append(offs[offs < math.pi], math.pi), 4)
    az, waz = geometry.sphere_rule(n - 1, AZIMUTHS)
    u = y / d if d > 0.0 else np.eye(n)[0]
    # I - 2 v v^T / |v|^2 with v = e_1 + sgn u (|v|^2 >= 2, no cancellation)
    # takes -sgn e_1 to u, so the polar axis is laid along -sgn e_1
    sgn = 1.0 if u[0] >= 0.0 else -1.0
    v = sgn * u
    v[0] += 1.0
    dirs = np.concatenate([
        np.broadcast_to(-sgn * np.cos(th)[:, None, None], (th.size, waz.size, 1)),
        np.sin(th)[:, None, None] * az[None, :, :]], axis=-1).reshape(-1, n)
    dirs -= np.outer(dirs @ v, (2.0 / float(v @ v)) * v)
    wang = np.outer(wth * np.sin(th) ** (n - 2) * constants.sphere_area(n - 1),
                    waz).ravel()
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return pts, np.outer(wr, wang).ravel()


#: Geometric panels a decade of the spherical-cap integral.
CAP_PER_DECADE = 6


def _cap_integral(ctx: GreenContext, d: float, t: float, outer: float) -> float:
    """int over the annulus of (|y - eta|^2 + t^2)^{(2s-n)/2} d eta.

    Reduced to 1D through spherical caps about y (|y| = d): the annulus
    fraction of the sphere of radius s is a difference of cap fractions.
    [0, s_lo] is dropped: s_lo = 1e-3 t, a share under (1e-3)^n, up to
    t = d + outer, and 1e-8 lam above, where the integrand is flat near 0.
    """
    n, lam = ctx.params.n, ctx.lam
    s2n = (2.0 * ctx.params.sigma - n) / 2.0
    s_lo = max(1e-8 * lam, 1e-3 * t if t <= d + outer else 0.0)
    s, w, _ = geometry.panel_nodes(geometry.panel_rows(
        s_lo, [s_lo], [d + outer], CAP_PER_DECADE,
        geometry.kink_edges((lam, outer), [d])), 8)
    return constants.constant_set(ctx.params).sphere_area * float(np.dot(
        s ** (n - 1) * (s ** 2 + t * t) ** s2n
        * (geometry.cap_fraction(d, s, outer, n) - geometry.cap_fraction(d, s, lam, n)),
        w))


def _phi_heights(ctx: GreenContext, q: AnnulusDensity, y: Array, ts) -> list:
    """Phi(y, t) at each height t; the t-free grid, q and distances are built once."""
    lam, outer = ctx.lam, q.outer_radius
    if outer <= lam:
        raise ValueError(f"empty annulus: outer_radius {outer} <= lam {lam}")
    n = ctx.params.n
    if n not in (2, 3):
        raise ValueError("phi_potential supports n in {2, 3}")
    d = float(np.linalg.norm(y))
    cset = constants.constant_set(ctx.params)
    qy = float(q(y[None, :])[0]) if lam < d < outer else 0.0
    pts, wts = _annulus_grid(ctx, outer, y, qy != 0.0)
    # the kernel is the same on each block of equal-weight azimuths, so each
    # block becomes one node: its weight sum, and the means of q and q - q(y)
    fold = geometry.sphere_rule(n - 1, AZIMUTHS)[1].size
    qv = q(pts).reshape(-1, fold)
    q_rest = (qv - qy).mean(axis=1)
    qv = qv.mean(axis=1)
    wts = wts.reshape(-1, fold).sum(axis=1)
    sq = _sq_dists(ctx, y, pts[::fold])
    del pts     # hold no more memory at once than one height needs
    vals = []
    for t in ts:
        direct, image = _direct_and_image(ctx, sq, t * t)
        val = cset.n_green * float(np.dot(direct * q_rest - image * qv, wts))
        if qy != 0.0:
            val += cset.n_green * qy * _cap_integral(ctx, d, t, outer)
        vals.append(val)
    return vals


def phi_potential(ctx: GreenContext, q: AnnulusDensity, Y: Array) -> float:
    """Potential Phi(Y) of the density q against the Green function.

    The on-boundary singularity |Y - eta|^{2s-n} at eta = y is removed by
    subtracting q(y) times the exactly-integrated annulus kernel (a 1D
    spherical-cap integral); the remainder vanishes at eta = y and is
    handled by a graded product grid.
    """
    y, t = _split(Y, ctx.params.n)
    return _phi_heights(ctx, q, y, [t])[0]


def phi_conormal(ctx: GreenContext, q: AnnulusDensity, y: Array) -> float:
    """-lim t^{1-2s} d Phi/dt at the boundary point y, via Richardson."""
    y = np.asarray(y, dtype=float).reshape(-1)
    return extension.conormal_limit(
        lambda ts: _phi_heights(ctx, q, y, ts),
        ctx.lam, range(4, 12), ctx.params.sigma)


# --- comparison inequalities for the extended model bubble ---------------

def wtilde_extension(Y: Array, params: Params):
    """Extension of the model bubble at one half-space point (n+1,), giving
    a float, or at rows of them (m, n+1), giving an (m,) array.

    At sigma = 1/2 it is the closed form; elsewhere rows with t = 0 take the
    trace and the rest go to the Feynman-parameter integral
    :func:`extension.model_bubble_extension` in one call.
    """
    n = params.n
    Y = np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[-1] != n + 1:
        raise ValueError(f"expected half-space points with {n + 1} coordinates")
    if abs(params.sigma - 0.5) < 1e-12:
        return extension.model_bubble_extension_halforder(Y[..., :n],
                                                          Y[..., n], params)
    rows = Y.reshape(-1, n + 1)
    y, t = rows[:, :n], rows[:, n]
    out = (1.0 + np.sum(y * y, axis=1)) ** (-params.half_exp)
    up = t != 0.0
    if up.any():
        out[up] = extension.model_bubble_extension(y[up], t[up], params)
    return float(out[0]) if Y.ndim == 1 else out


def wtilde_kelvin(Y: Array, lam: float, params: Params):
    """Half-space Kelvin transform of the extended model bubble, at one
    point (n+1,) or rows of them (m, n+1), like :func:`wtilde_extension`."""
    k = KelvinMap(params, lam=lam)
    Y = np.asarray(Y, dtype=float)
    out = k.weight(Y) * wtilde_extension(k.point(Y), params)
    return float(out) if Y.ndim == 1 else out


def _halfspace_samples(rng: np.random.Generator, count: int, n: int,
                       r_lo: float, r_hi: float) -> Array:
    """Random points of the closed upper half space with radii in [r_lo, r_hi]."""
    v = rng.normal(size=(count, n + 1))
    v[:, n] = np.abs(v[:, n])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = r_lo * (r_hi / r_lo) ** rng.random(count)
    return v * radii[:, None]


def check_bbl_inequalities(params: Params, grid_points: int = 1000,
                           seed: int = 7) -> dict:
    """Comparison facts for the extended bubble against its Kelvin images.

    Checks, on a random half-space grid outside B_{1/2}: the difference
    with the lam = 1/2 image dominates c (|Y| - 1/2) |Y|^{2s-n-1} with the
    largest passing c reported; the radial derivative of the difference is
    positive on the half sphere |Y| = 1/2; the lam = 2 difference is
    negative outside B_2; and the far-field coefficient is 1 - 2^{2s-n}.
    """
    rng = np.random.default_rng(seed)
    n = params.n
    ne = params.kelvin_exp

    def gap(Ys: Array, lam: float) -> Array:
        return wtilde_extension(Ys, params) - wtilde_kelvin(Ys, lam, params)

    samples = _halfspace_samples(rng, grid_points, n, 0.5 + 1e-3, 50.0)
    r = np.linalg.norm(samples, axis=1)
    c_report = float(np.min(gap(samples, 0.5) / (
        (r - 0.5) * r ** (2 * params.sigma - n - 1))))

    # radial derivative on |Y| = 1/2 by central differences along rays
    sphere = _halfspace_samples(rng, 64, n, 1.0, 1.0) * 0.5
    h = 1e-4
    step = h * (sphere / np.linalg.norm(sphere, axis=1, keepdims=True))
    up, down = np.split(gap(np.concatenate([sphere + step, sphere - step]),
                            0.5), 2)
    deriv_min = float(np.min((up - down) / (2 * h)))

    outside = _halfspace_samples(rng, 200, n, 2.0 + 1e-3, 30.0)
    neg_max = float(np.max(gap(outside, 2.0)))

    far = 1e3 * np.eye(n + 1)[0]
    far_coeff = 1e3 ** ne * gap(far, 0.5)
    far_target = 1.0 - 0.5 ** ne

    return {
        "bbl1_c": c_report,
        "bbl1_pass": c_report > 0.0,
        "bbl2_min_derivative": deriv_min,
        "bbl2_pass": deriv_min > 0.0,
        "bbl3_max_outside": neg_max,
        "bbl3_pass": neg_max < 0.0,
        "far_field_coeff": float(far_coeff),
        "far_field_target": far_target,
        "far_field_pass": abs(far_coeff - far_target) < 0.01 * far_target,
    }


def check_g3_bound(ctx: GreenContext, n_side: int = 8, seed: int = 11) -> dict:
    """Empirical supremum of G(Y,eta) lam |Y-eta|^{n-2s+2} / ((|Y|-lam)(|eta|^2-lam^2)).

    Scanned for lam < |Y| <= 10 lam and |eta| > lam on a product grid;
    reported together with the same scan at doubled density so stability
    of the supremum can be asserted.
    """
    def sup_on(m: int) -> float:
        rng = np.random.default_rng(seed)
        lam = ctx.lam
        n = ctx.params.n
        ry = lam * (1.0 + np.concatenate([10.0 ** np.linspace(-4, 0, m), [9.0]]))
        re = lam * (1.0 + np.concatenate([10.0 ** np.linspace(-4, 1, m)]))
        dirs_y = rng.normal(size=(m, n + 1))
        dirs_y[:, n] = np.abs(dirs_y[:, n])
        dirs_y /= np.linalg.norm(dirs_y, axis=1, keepdims=True)
        dirs_e = rng.normal(size=(m, n))
        dirs_e /= np.linalg.norm(dirs_e, axis=1, keepdims=True)
        etas = (re[:, None] * dirs_e[None, :, :]).reshape(-1, n)
        gap_eta = np.linalg.norm(etas, axis=1) ** 2 - lam ** 2
        # (radius, direction of Y, eta)
        Ys = ry[:, None, None] * dirs_y
        t2 = Ys[..., n:] * Ys[..., n:]
        sq = _sq_dists(ctx, Ys[:, :, None, :n], etas)
        direct, image = _direct_and_image(ctx, sq, t2)
        g = constants.constant_set(ctx.params).n_green * (direct - image)
        ratio = (g * lam * (sq[0] + t2) ** ((n - 2 * ctx.params.sigma + 2) / 2.0)
                 / ((ry - lam)[:, None, None] * gap_eta))
        return float(np.max(ratio))

    coarse = sup_on(n_side)
    fine = sup_on(2 * n_side)
    return {
        "sup_coarse": coarse,
        "sup_fine": fine,
        "ratio": fine / coarse if coarse > 0 else math.inf,
        "stable": coarse > 0 and fine / coarse < 1.5,
    }
