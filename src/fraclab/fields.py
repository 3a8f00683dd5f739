"""Scalar fields with the metadata the singular-integral operators need:
each has a frame, its ``length`` and ``centre``, that every operator reads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

#: Recognized decay hints.  ``compact_support`` means the field vanishes
#: outside the radius ``length``; ``power_decay`` means f ~ amplitude * r^{-alpha}
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
    length : float
        Positive and finite: the support radius of a ``compact_support``
        field, the scale of any other.
    radial_profile : callable, optional
        If the field is radial, its profile g(r) vectorized over radii; its
        sphere means are then split at ``kink_radii``, in any dimension.
    centre : array (n,), optional
        A radial field is g(|x - centre|); the origin by default, and for
        a field that is not radial.
    kink_radii : tuple of float
        Distances from the centre where the field is not smooth (e.g. a
        support boundary); the quadratures place panel breaks there.
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
    length: float = 1.0
    radial_profile: Optional[Callable[[Array], Array]] = None
    centre: Optional[Array] = None
    kink_radii: tuple = ()
    error_bound: float = 0.0
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        if self.decay not in DECAY_HINTS:
            raise ValueError(f"unknown decay hint {self.decay!r}")
        if self.decay == "power_decay" and self.decay_rate is None:
            raise ValueError("power_decay requires decay_rate")
        if not 0.0 < self.length < np.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if self.centre is not None and not self.is_radial:
            raise ValueError("a centre needs a field with a radial_profile")
        self.centre = np.zeros(self.n) if self.centre is None else np.array(
            self.centre, dtype=float)
        if self.centre.shape != (self.n,):
            raise ValueError(f"centre must have shape ({self.n},), got "
                             f"{self.centre.shape}")
        if self.decay == "compact_support" and not self.kink_radii:
            self.kink_radii = (self.length,)

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
    """Build a ScalarField g(|x - centre|) from a radial profile g(r)."""
    def func(x: Array) -> Array:
        return profile(np.linalg.norm(x - made.centre, axis=-1))
    made = ScalarField(func=func, n=n, radial_profile=profile, **kwargs)
    return made
