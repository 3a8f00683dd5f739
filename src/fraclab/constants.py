"""Normalization constants, each backed by an independent quadrature oracle.

The closed forms below are only trusted because the test suite re-derives
each one from its defining property (kernel normalizations, the bubble
identity, Riesz inversion) with the reference quadrature in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import geometry
from .params import Params


def gamma_fn(x: float) -> float:
    """Stdlib Gamma(x), independent of scipy; x <= 0 raises, so such constants are NaN."""
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def c_frac(params: Params) -> float:
    """Normalizing constant of the singular-integral fractional Laplacian."""
    n, s = params.n, params.sigma
    return (2.0 ** (2 * s) * s * gamma_fn((n + 2 * s) / 2.0)
            / (math.pi ** (n / 2.0) * gamma_fn(1.0 - s)))


def c_tilde(params: Params) -> float:
    """Conormal-derivative constant of the extended standard bubble."""
    n, s = params.n, params.sigma
    return (2.0 * gamma_fn(1.0 - s) * gamma_fn(n / 2.0 + s)
            / (gamma_fn(s) * gamma_fn(n / 2.0 - s)))


def gamma_poisson(params: Params) -> float:
    """Poisson-kernel constant: gamma * integral (1+|z|^2)^{-(n+2s)/2} dz = 1."""
    n, s = params.n, params.sigma
    return gamma_fn((n + 2 * s) / 2.0) / (math.pi ** (n / 2.0) * gamma_fn(s))


def n_green(params: Params) -> float:
    """Half-space Green constant: N (n-2s) * integral (1+|z|^2)^{(2s-n-2)/2} dz = 1.

    Defined only for n > 2 sigma; raises ValueError otherwise.
    """
    n, s = params.n, params.sigma
    integral = math.pi ** (n / 2.0) * gamma_fn(1.0 - s) / gamma_fn((n + 2 - 2 * s) / 2.0)
    return 1.0 / (params.kelvin_exp * integral)


def d_sigma(params: Params) -> float:
    """Ratio between the conormal derivative of an extension and (-Lap)^s of its trace."""
    s = params.sigma
    return 2.0 ** (1.0 - 2 * s) * gamma_fn(1.0 - s) / gamma_fn(s)


def bubble_eigenvalue(params: Params) -> float:
    """Constant Lambda with (-Lap)^s wt = Lambda * wt^p for wt = (1+|x|^2)^{-(n-2s)/2}.

    Closed-form candidate; accepted only because the singular-integral
    oracle in the test suite agrees with it.
    """
    n, s = params.n, params.sigma
    return 2.0 ** (2 * s) * gamma_fn(n / 2.0 + s) / gamma_fn(n / 2.0 - s)


def bubble_constant(params: Params) -> float:
    """Amplitude c making c*(lam/(lam^2+r^2))^{(n-2s)/2} solve the critical equation."""
    return bubble_eigenvalue(params) ** (params.kelvin_exp / (4.0 * params.sigma))


def riesz_constant(params: Params) -> float:
    """Riesz kernel constant, pinned by (-Lap)^s o I_{2s} = identity.

    Closed-form candidate; the inversion oracle in the test suite is the
    acceptance authority.
    """
    n, s = params.n, params.sigma
    return (gamma_fn((n - 2 * s) / 2.0)
            / (4.0 ** s * math.pi ** (n / 2.0) * gamma_fn(s)))


# --- reference radial quadrature (the independent oracle) ---------------

#: Geometric panels a decade of :func:`radial_integral`.
RADIAL_PER_DECADE = 6


def radial_integral(g: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """omega_{n-1} * integral_0^inf r^{n-1} g(r) dr for decaying g.

    Composite Gauss-Legendre on the geometric panels of [1e-30, 1e30],
    which resolve power-law ends to about machine precision for the
    algebraic kernels of the normalization checks.
    """
    total = geometry.panel_quad(
        lambda r: np.asarray(g(r), dtype=float) * r ** (n - 1),
        geometry.panel_breaks(1e-30, 1e30, RADIAL_PER_DECADE))
    return sphere_area(n) * total


def poisson_norm_residual(params: Params) -> float:
    """|gamma * integral (1+|z|^2)^{-(n+2s)/2} dz - 1| under reference quadrature."""
    n, s = params.n, params.sigma
    integral = radial_integral(lambda r: (1.0 + r ** 2) ** (-(n + 2 * s) / 2.0), n)
    return abs(gamma_poisson(params) * integral - 1.0)


def green_norm_residual(params: Params) -> float:
    """|N (n-2s) * integral (1+|z|^2)^{(2s-n-2)/2} dz - 1| under reference quadrature."""
    n, s = params.n, params.sigma
    nm2s = params.kelvin_exp  # raises ValueError for n <= 2 sigma
    integral = radial_integral(lambda r: (1.0 + r ** 2) ** ((2 * s - n - 2) / 2.0), n)
    return abs(n_green(params) * nm2s * integral - 1.0)


@dataclass(frozen=True)
class ConstantSet:
    """All constants for one Params, computed once."""

    params: Params
    c_frac: float
    c_tilde: float
    gamma_poisson: float
    n_green: float
    d_sigma: float
    bubble_eigenvalue: float
    bubble_constant: float
    riesz_constant: float
    sphere_area: float

    def as_dict(self) -> dict:
        sub = self.params.n > 2 * self.params.sigma
        return {
            "n": self.params.n,
            "sigma": self.params.sigma,
            "p": self.params.p if sub else math.nan,
            "half_exp": self.params.half_exp if sub else math.nan,
            "kelvin_exp": self.params.kelvin_exp if sub else math.nan,
            "c_frac": self.c_frac,
            "c_tilde": self.c_tilde,
            "gamma_poisson": self.gamma_poisson,
            "n_green": self.n_green,
            "d_sigma": self.d_sigma,
            "bubble_eigenvalue": self.bubble_eigenvalue,
            "bubble_constant": self.bubble_constant,
            "riesz_constant": self.riesz_constant,
            "sphere_area": self.sphere_area,
        }


def _maybe(fn: Callable[[Params], float], params: Params) -> float:
    """Evaluate a constant, or NaN where it does not exist (n <= 2 sigma)."""
    try:
        return fn(params)
    except ValueError:
        return math.nan


@lru_cache(maxsize=None)
def _constant_set(n: int, sigma: float) -> ConstantSet:
    params = Params(n, sigma)
    return ConstantSet(
        params=params,
        c_frac=c_frac(params),
        c_tilde=_maybe(c_tilde, params),
        gamma_poisson=gamma_poisson(params),
        n_green=_maybe(n_green, params),
        d_sigma=d_sigma(params),
        bubble_eigenvalue=_maybe(bubble_eigenvalue, params),
        bubble_constant=_maybe(bubble_constant, params),
        riesz_constant=_maybe(riesz_constant, params),
        sphere_area=sphere_area(params.n),
    )


def constant_set(params: Params) -> ConstantSet:
    """Cached bundle of every constant for the given parameters."""
    return _constant_set(params.n, params.sigma)
