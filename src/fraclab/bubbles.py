"""Standard bubbles and the Kelvin transform.

The bubble of scale lam centered at x0,

    w(x) = c * (lam / (lam^2 + |x - x0|^2))^{(n-2s)/2},

solves (-Lap)^s w = w^p with the critical exponent p, once the amplitude
c is the one returned by :func:`fraclab.constants.bubble_constant`.  As
the equation is invariant under translation and dilation, a bubble is one
radial field whose frame is its own: length lam and centre x0.  The
Kelvin transform about the sphere of radius lam maps solutions of the
critical equation to solutions, and fixes each bubble centered at the
origin with that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import constants, fracops
from .fields import ScalarField, radial_field
from .params import Params

Array = np.ndarray


def model_bubble(params: Params) -> ScalarField:
    """The unit-amplitude profile (1 + |x|^2)^{-(n-2s)/2}."""
    he = params.half_exp
    return radial_field(lambda r: (1.0 + r ** 2) ** (-he), params.n,
                        decay="power_decay", decay_rate=2.0 * he)


def standard_bubble(params: Params, lam: float = 1.0,
                    center: Array = None, amplitude: float = None) -> ScalarField:
    """Bubble of scale lam about center (the origin by default), normalized
    to solve the equation: one radial field of length lam about center."""
    he = params.half_exp
    if amplitude is None:
        amplitude = constants.bubble_constant(params)

    def profile(r: Array) -> Array:
        return amplitude * (lam / (lam ** 2 + np.asarray(r) ** 2)) ** he
    return radial_field(profile, params.n, centre=center, decay="power_decay",
                        decay_rate=2.0 * he, length=lam)


@dataclass(frozen=True)
class KelvinMap:
    """Inversion about the sphere of radius lam, with the conformal weight.

    Acts on boundary points y in R^n and on extension points Y = (y, t)
    alike: Y -> lam^2 Y / |Y|^2 preserves the upper half space and
    restricts to the boundary map at t = 0.
    """

    params: Params
    lam: float = 1.0

    def point(self, y: Array) -> Array:
        """Image point lam^2 y / |y|^2 (vectorized over rows)."""
        y = np.asarray(y, dtype=float)
        r2 = np.sum(y ** 2, axis=-1, keepdims=True)
        return self.lam ** 2 * y / r2

    def weight(self, y: Array) -> Array:
        """Conformal factor (lam / |y|)^{n - 2 sigma}."""
        r = np.linalg.norm(np.asarray(y, dtype=float), axis=-1)
        return (self.lam / r) ** self.params.kelvin_exp

    def transform(self, field: ScalarField) -> ScalarField:
        """Kelvin transform u^lam(y) = (lam/|y|)^{n-2s} u(lam^2 y/|y|^2)."""
        def func(y: Array) -> Array:
            y = np.atleast_2d(np.asarray(y, dtype=float))
            return self.weight(y) * field(self.point(y))
        return ScalarField(func=func, n=self.params.n,
                           decay="power_decay", decay_rate=self.params.kelvin_exp)


def bubble_identity_residuals(params: Params, lam: float = 1.0,
                              radii: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0),
                              amplitude: float = None) -> Array:
    """Relative residual |(-Lap)^s w - w^p| / w^p at the given distances.

    With the standard amplitude these vanish up to quadrature error; any
    other amplitude leaves an O(1) residual, which is how the identity
    check detects a miscalibrated constant.
    """
    w = standard_bubble(params, lam=lam, amplitude=amplitude)
    d = np.asarray(radii, dtype=float)
    lhs = fracops.frac_lap_radial(w, d, params).value
    rhs = w.radial_profile(d) ** params.p
    return np.abs(lhs - rhs) / np.abs(rhs)


#: Sample radii of :func:`kelvin_fixes_bubble`, about the unit sphere.
KELVIN_RADII = (0.3, 0.9, 2.7)


def kelvin_fixes_bubble(params: Params) -> float:
    """Max |w^1 - w| over ``KELVIN_RADII``: the unit bubble is a Kelvin fixed point."""
    w = standard_bubble(params)
    x = np.outer(KELVIN_RADII, np.eye(params.n)[0])
    return float(np.max(np.abs(KelvinMap(params).transform(w)(x) - w(x))))
