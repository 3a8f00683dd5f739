"""Half-space Green function, annulus potentials, and comparison inequalities.

The Green function of the upper half ball complement construction is

    G(Y, eta) = N * ( |Y - eta|^{2s-n} - (lam/|eta|)^{n-2s} |Y - eta^lam|^{2s-n} ),

with eta^lam the inversion of the boundary point eta about the sphere of
radius lam.  The potential of a continuous density q on an annulus E - B_lam,

    Phi(Y) = int G(Y, eta) q(eta) d eta,

vanishes on |Y| = lam and recovers q as its conormal derivative.  For a
radial q it is one integral in rho at every n > 2s, every height of a
conormal ladder in one call: the mean of the direct kernel over a sphere
|eta| = rho is a 2F1 (Landkof, *Foundations of Modern Potential Theory*,
I.1), and the image sphere |eta| = lam^2 / rho has a constant Kelvin
weight.  The G3 scan is one array per radius.

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

from . import constants, extension, fracops, geometry
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
    """Continuous radial density q on the annulus lam < |eta| < outer_radius,
    a function of points; :func:`phi_potential` refuses one that is not radial."""

    outer_radius: float
    q: Callable[[Array], Array]

    def __call__(self, etas: Array) -> Array:
        return np.asarray(self.q(np.atleast_2d(np.asarray(etas, dtype=float))),
                          dtype=float)


def _phi_rows(lam: float, outer: float, d: float, ts: Array) -> Array:
    """Inf-padded rows of rho breaks on [lam, outer], one row a height t:
    13 uniform breaks, and c and c +- t 2^k, k >= -2, about the points c of
    [lam, outer] nearest |y| and lam^2 / |y|, where the direct and the image
    kernel peak with width t; breaks past an end fall on it."""
    span = outer - lam
    peaks = np.clip([d, lam * lam / d if d > 0.0 else outer], lam, outer)
    k = np.arange(-2.0, math.log2(span / ts[ts > 0.0].min(initial=span)) + 1)
    offsets = ts[:, None] * np.concatenate([-2.0 ** k, [0.0], 2.0 ** k])
    rows = np.clip(np.concatenate([
        np.broadcast_to(np.linspace(lam, outer, 13), (ts.size, 13)),
        (peaks[:, None] + offsets[:, None, :]).reshape(ts.size, -1)], axis=1),
        lam, outer)
    rows.sort(axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.inf
    return np.sort(rows, axis=1)


def _phi_heights(ctx: GreenContext, q: AnnulusDensity, y: Array, ts) -> list:
    """Phi(y, t) at each height t of ``ts``, in one call, for a radial q:
    N |S^{n-1}| int_lam^outer q(rho) rho^{n-1} [M(rho) - (lam / rho)^{q_e}
    M(lam^2 / rho)] d rho, q_e = n - 2s.  M(rho) = A^{-q_e/2}
    2F1(q_e/4, q_e/4 + 1/2; n/2; z) is the mean of (t^2 + |y - eta|^2)^{-q_e/2}
    over |eta| = rho, A = t^2 + |y|^2 + rho^2 and z = (2 |y| rho / A)^2; one
    :func:`fracops._hypergeometric` call takes every node, with 1 - z formed
    as (t^2 + (|y| - rho)^2)(t^2 + (|y| + rho)^2) / A^2.  GL8 on the rows of
    :func:`_phi_rows`, summed per height, so a height has the same bits in
    any ladder.  Refused: y whose shape is not (n,); t < 0; t or |y| whose
    square overflows; t = 0 where M is singular on [lam, outer]
    (lam < |y| <= outer or its image, off |y| = lam to 1e-12, where the two
    terms cancel); and q that differs along e_1 and -(1, ..., 1) by 1e-12.
    """
    lam, outer = ctx.lam, q.outer_radius
    if outer <= lam:
        raise ValueError(f"empty annulus: outer_radius {outer} <= lam {lam}")
    n, sigma = ctx.params.n, ctx.params.sigma
    y, ts = np.asarray(y, dtype=float), np.asarray(ts, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"expected a boundary point with {n} coordinates, "
                         f"got shape {y.shape}")
    d = float(geometry.radius(y[None])[0])
    if (ts < 0.0).any():
        raise ValueError(f"height t = {ts.min():g} is negative")
    if ts.max(initial=0.0) > geometry.MAX_RADIUS:
        raise ValueError(f"height t = {ts.max():g} is too large: t^2 overflows")
    if ((ts == 0.0).any() and abs(d - lam) > 1e-12 * lam
            and lam * lam / outer <= d <= outer):
        raise ValueError(f"Phi at t = 0 is singular at |y| = {d:g} in the "
                         f"annulus [{lam:g}, {outer:g}] or its Kelvin image")
    rho, wts, row = geometry.panel_nodes(_phi_rows(lam, outer, d, ts), 8)
    along, aslant = (q(rho[:, None] * u)
                     for u in (np.eye(n)[0], np.full(n, -n ** -0.5)))
    if not np.allclose(aslant, along, rtol=1e-12, atol=0.0):
        raise ValueError("the density is not radial: it differs along e_1 "
                         "and along -(1, ..., 1)")
    q_e = ctx.params.kelvin_exp
    r = np.concatenate([rho, lam * lam / rho])
    t2 = np.tile(ts[row] ** 2, 2)
    a = t2 + d * d + r * r
    z = (2.0 * d * r / a) ** 2
    w = (t2 + (d - r) ** 2) / a * ((t2 + (d + r) ** 2) / a)
    mean = a ** (-q_e / 2.0) * fracops._hypergeometric(
        q_e / 4.0, q_e / 4.0 + 0.5, sigma - 0.5, 0, z, w)
    direct, image = np.split(mean, 2)
    terms = along * rho ** (n - 1) * (direct - (lam / rho) ** q_e * image)
    cset = constants.constant_set(ctx.params)
    return (cset.n_green * cset.sphere_area
            * np.bincount(row, terms * wts, minlength=ts.size)).tolist()


def phi_potential(ctx: GreenContext, q: AnnulusDensity, Y: Array) -> float:
    """Potential Phi(Y) of the radial density q against the Green function:
    one integral in rho of q against the sphere means of the direct and the
    image kernel (:func:`_phi_heights`), at every n > 2 sigma."""
    y, t = _split(Y, ctx.params.n)
    return _phi_heights(ctx, q, y, [t])[0]


def phi_conormal(ctx: GreenContext, q: AnnulusDensity, y: Array) -> float:
    """-lim t^{1-2s} d Phi/dt at the boundary point y, via Richardson."""
    return extension.conormal_limit(lambda ts: _phi_heights(ctx, q, y, ts),
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
