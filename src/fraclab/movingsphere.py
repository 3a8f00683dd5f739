"""Computable ingredients of the moving-spheres comparison argument.

Everything revolves around the Kelvin difference W - W^lam of an extended
profile, the coefficients b and q of the boundary identity it satisfies,
and a correction term A built from a Green potential.  The sweep locates
the largest inversion radius at which the corrected difference stays
nonnegative on a sample set.  The difference and the correction take one
point or rows; W is called once on the rows and once on their Kelvin
images, and Phi once on the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bubbles import KelvinMap
from .fields import ScalarField
from .params import Params

Array = np.ndarray

#: Width to which :func:`lambda_star_sweep` bisects its bracket.
REFINE_TO = 1e-3


@dataclass
class ComparisonState:
    """One inversion radius worth of comparison data.

    ``extension`` evaluates W on rows of half-space points (m, n+1),
    giving an (m,) array; ``trace`` is its boundary trace w; ``k_field``
    the curvature factor K; ``L`` the peak scale; ``c4`` the correction
    amplitude; ``phi`` an optional Green potential entering the
    correction, with the same rows contract as ``extension``.
    """

    params: Params
    trace: ScalarField
    extension: Callable[[Array], Array]
    kelvin_radius: float
    k_field: ScalarField
    L: float = 1.0
    c4: float = 0.0
    phi: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        if not 0.5 <= self.kelvin_radius <= 2.0:
            raise ValueError("kelvin_radius must lie in [1/2, 2]")
        if self.L <= 0.0:
            raise ValueError("L must be positive")
        if self.c4 < 0.0:
            raise ValueError("c4 must be nonnegative")


def kelvin_difference(state: ComparisonState, Y: Array):
    """W(Y) - (lam/|Y|)^{n-2s} W(lam^2 Y/|Y|^2) at Y (n+1,) or rows (m, n+1) outside B_lam."""
    Y = np.asarray(Y, dtype=float)
    rows = Y.reshape(-1, Y.shape[-1])
    lam = state.kelvin_radius
    if np.any(np.linalg.norm(rows, axis=-1) < lam * (1.0 - 1e-12)):
        raise ValueError("Y must lie outside B_lam")
    kelvin = KelvinMap(state.params, lam=lam)
    vals = state.extension(rows) - kelvin.weight(rows) * state.extension(
        kelvin.point(rows))
    return float(vals[0]) if Y.ndim == 1 else vals


def b_from_values(k_val: float, w_val: float, w_lam_val: float, p: float) -> float:
    """K (w^p - (w^lam)^p) / (w - w^lam), continuously extended across w = w^lam."""
    if w_val < 0 or w_lam_val < 0:
        raise ValueError("profile values must be nonnegative")
    diff = w_val - w_lam_val
    scale = max(w_val, w_lam_val, 1.0)
    if abs(diff) < 1e-12 * scale:
        return p * k_val * w_val ** (p - 1.0)
    return k_val * (w_val ** p - w_lam_val ** p) / diff


def _kelvin_image(state: ComparisonState, y: Array):
    """y as a flat point outside B_lam, its Kelvin image y^lam and w^lam(y)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    lam = state.kelvin_radius
    if np.linalg.norm(y) < lam * (1.0 - 1e-12):
        raise ValueError("y must lie outside B_lam")
    k = KelvinMap(state.params, lam=lam)
    y_im = k.point(y[None, :])[0]
    return y, y_im, float(k.weight(y[None, :])[0]) * state.trace.at(y_im)


def b_coefficient(state: ComparisonState, y: Array) -> float:
    """The difference-quotient coefficient at a boundary point."""
    y, _, w_lam = _kelvin_image(state, y)
    return b_from_values(state.k_field.at(y), state.trace.at(y), w_lam,
                         state.params.p)


def q_coefficient(state: ComparisonState, y: Array) -> float:
    """(K(y^lam) - K(y)) * (w^lam(y))^p at a boundary point."""
    y, y_im, w_lam = _kelvin_image(state, y)
    return (state.k_field.at(y_im) - state.k_field.at(y)) * w_lam ** state.params.p


def a_correction(state: ComparisonState, Y: Array):
    """-c4 L^{-1} (lam^e - |Y|^e) + Phi(Y) with e = 2s - n, the correction at
    Y (n+1,) or rows (m, n+1)."""
    Y = np.asarray(Y, dtype=float)
    rows = Y.reshape(-1, Y.shape[-1])
    lam, e = state.kelvin_radius, -state.params.kelvin_exp
    val = -state.c4 / state.L * (lam ** e - np.linalg.norm(rows, axis=-1) ** e)
    if state.phi is not None:
        val += state.phi(rows)
    return float(val[0]) if Y.ndim == 1 else val


def comparison_min(state: ComparisonState, samples: Array,
                   excluded: Optional[Array] = None) -> float:
    """min over samples of W_lam + A_lam, skipping B_lam and the excluded point."""
    samples = np.atleast_2d(samples)
    keep = np.linalg.norm(samples, axis=1) >= state.kelvin_radius * (1.0 + 1e-12)
    if excluded is not None:
        keep &= np.linalg.norm(samples[:, :-1] - excluded, axis=1) >= 1e-2
    rows = samples[keep]
    return float(np.min(kelvin_difference(state, rows) + a_correction(state, rows),
                        initial=math.inf))


def lambda_star_sweep(state_factory: Callable[[float], ComparisonState],
                      lambda_grid: Sequence[float], samples: Array,
                      excluded: Optional[Array] = None) -> dict:
    """Bracket the largest lam with nonnegative corrected difference.

    Scans the ascending grid for the first sign change of the sample
    minimum, then bisects the bracketing interval down to ``REFINE_TO``.
    Returns ``lambda_star = None`` when the minimum never goes negative.
    """
    grid = list(lambda_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda_grid must be ascending")

    def min_at(lam: float) -> float:
        return comparison_min(state_factory(lam), samples, excluded)

    mins = [min_at(lam) for lam in grid]
    first_neg = next((i for i, m in enumerate(mins) if m < 0.0), None)
    if first_neg is None:
        return {"lambda_star": None, "grid": grid, "minima": mins}
    if first_neg == 0:
        return {"lambda_star": grid[0], "bracket": (grid[0], grid[0]),
                "grid": grid, "minima": mins}

    lo, hi = grid[first_neg - 1], grid[first_neg]
    while hi - lo > REFINE_TO:
        mid = 0.5 * (lo + hi)
        if min_at(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return {"lambda_star": lo, "bracket": (lo, hi), "grid": grid, "minima": mins}
