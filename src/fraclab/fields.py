"""Scalar fields with the metadata the singular-integral operators need."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

#: Recognized decay hints.  ``compact_support`` means the field vanishes
#: outside ``support_radius``; ``power_decay`` means f ~ amplitude * r^{-alpha}
#: at infinity; ``integrable_against_kernel`` makes no structural claim
#: beyond boundedness, and tail truncation is charged to the error estimate.
DECAY_HINTS = ("compact_support", "power_decay", "integrable_against_kernel")


@dataclass
class ScalarField:
    """A function R^n -> R packaged with evaluation and decay metadata.

    Parameters
    ----------
    func : callable
        Vectorized over an (m, n) array of points, returning shape (m,).
    n : int
        Ambient dimension.
    decay : str
        One of :data:`DECAY_HINTS`.
    decay_rate : float, optional
        The exponent alpha for ``power_decay``.
    support_radius : float, optional
        Support bound for ``compact_support``.
    radial_profile : callable, optional
        If the field is radial, its profile g(r) vectorized over radii; its
        sphere means are then split at ``kink_radii``, in any dimension.
    kink_radii : tuple of float
        Radii |x| where the field is not smooth (e.g. a support boundary);
        the singular-integral quadratures place panel breaks there.
    error_bound : float
        A bound on how far the field is from the function it stands for,
        such as an interpolation error; 0 for a field given exactly.

    ``memo`` holds what the operators derive from the field once and reuse
    across calls (such as the moment table of
    :func:`fraclab.fracops.riesz_potential`); it is not part of the field's
    value.
    """

    func: Callable[[Array], Array]
    n: int
    decay: str = "integrable_against_kernel"
    decay_rate: Optional[float] = None
    support_radius: Optional[float] = None
    radial_profile: Optional[Callable[[Array], Array]] = None
    kink_radii: tuple = ()
    error_bound: float = 0.0
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        if self.decay not in DECAY_HINTS:
            raise ValueError(f"unknown decay hint {self.decay!r}")
        if self.decay == "power_decay" and self.decay_rate is None:
            raise ValueError("power_decay requires decay_rate")
        if self.decay == "compact_support" and self.support_radius is None:
            raise ValueError("compact_support requires support_radius")
        if self.decay == "compact_support" and not self.kink_radii:
            self.kink_radii = (self.support_radius,)

    def __call__(self, x: Array) -> Array:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.func(x), dtype=float)

    def at(self, x: Array) -> float:
        """Value at a single point."""
        return float(self(np.asarray(x, dtype=float).reshape(1, -1))[0])

    @property
    def is_radial(self) -> bool:
        return self.radial_profile is not None


def radial_field(profile: Callable[[Array], Array], n: int, **kwargs) -> ScalarField:
    """Build a ScalarField from a radial profile g(r)."""
    def func(x: Array) -> Array:
        return profile(np.linalg.norm(x, axis=-1))
    return ScalarField(func=func, n=n, radial_profile=profile, **kwargs)
