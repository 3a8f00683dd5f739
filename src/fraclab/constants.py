"""Normalization constants, each backed by an independent quadrature oracle.

The closed forms below are only trusted because the test suite re-derives
each one from its defining property (kernel normalizations, the bubble
identity, Riesz inversion) with the reference quadrature in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    r, w, _ = geometry.panel_nodes(geometry.panel_rows(
        1e-30, [1e-30], [1e30], RADIAL_PER_DECADE, np.zeros((1, 0))), 8)
    return sphere_area(n) * float(
        np.dot(np.asarray(g(r), dtype=float) * r ** (n - 1), w))


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
        pr = self.params
        sub = pr.n > 2 * pr.sigma
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "params"}
        out.update({name: getattr(pr, name) if sub else math.nan
                    for name in ("p", "half_exp", "kelvin_exp")})
        return dict(out, n=pr.n, sigma=pr.sigma)


def _maybe(fn: Callable[[Params], float], params: Params) -> float:
    """Evaluate a constant, or NaN where it does not exist (n <= 2 sigma)."""
    try:
        return fn(params)
    except ValueError:
        return math.nan


#: The constants of a :class:`ConstantSet`, each filling the field of its name.
_TABLE = (c_frac, c_tilde, gamma_poisson, n_green, d_sigma, bubble_eigenvalue,
          bubble_constant, riesz_constant)


@lru_cache(maxsize=None)
def _constant_set(n: int, sigma: float) -> ConstantSet:
    params = Params(n, sigma)
    return ConstantSet(params=params, sphere_area=sphere_area(n),
                       **{fn.__name__: _maybe(fn, params) for fn in _TABLE})


def constant_set(params: Params) -> ConstantSet:
    """Cached bundle of every constant for the given parameters."""
    return _constant_set(params.n, params.sigma)
