import numpy as np
import pytest

from fraclab import bubbles, constants
from fraclab.params import Params


@pytest.mark.parametrize("n,s", [(2, 0.5), (3, 0.5), (3, 0.75)])
def test_bubble_identity(n, s):
    res = bubbles.bubble_identity_residuals(Params(n, s))
    assert float(np.max(res)) < 1e-3


def test_amplitude_perturbation_detected():
    pr = Params(2, 0.5)
    res = bubbles.bubble_identity_residuals(
        pr, amplitude=1.1 * constants.bubble_constant(pr))
    assert float(np.min(res)) > 1e-2


def test_rescaled_bubble_still_solves():
    # sample at radii proportional to the scale
    lam = 0.5
    radii = tuple(lam * r for r in (0.0, 0.5, 1.0, 2.0, 5.0))
    res = bubbles.bubble_identity_residuals(Params(3, 0.5), lam=lam,
                                            radii=radii)
    assert float(np.max(res)) < 1e-3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: fracops._length is 1 for every "
                   "field that is not compact, so a bubble of scale lam is "
                   "summed in units of 1; at (3, 1/2) the worst residual is "
                   "1.0 at lam = 1e-6 and 4.2e2 at lam = 1e6")
def test_bubble_identity_at_every_scale():
    # the identity is scale-free: at radii lam * (0, 1/2, 1, 2, 5) the
    # residuals at lam = 1 are 1.5e-8
    for lam in (1e-6, 1e6):
        radii = tuple(lam * r for r in (0.0, 0.5, 1.0, 2.0, 5.0))
        res = bubbles.bubble_identity_residuals(Params(3, 0.5), lam=lam,
                                                radii=radii)
        assert float(np.max(res)) < 1e-6, lam


def test_kelvin_fixes_unit_bubble():
    assert bubbles.kelvin_fixes_bubble(Params(2, 0.5)) < 1e-12
    assert bubbles.kelvin_fixes_bubble(Params(3, 0.75)) < 1e-12


def test_kelvin_map_is_an_involution():
    pr = Params(3, 0.5)
    k = bubbles.KelvinMap(pr, lam=1.3)
    y = np.array([0.4, -0.2, 0.9])
    np.testing.assert_allclose(k.point(k.point(y)), y, rtol=1e-13)
    w = bubbles.model_bubble(pr)
    twice = k.transform(k.transform(w))
    assert twice.at(y) == pytest.approx(w.at(y), rel=1e-12)


def test_model_bubble_decay_metadata():
    pr = Params(3, 0.5)
    w = bubbles.model_bubble(pr)
    assert w.decay == "power_decay"
    assert w.decay_rate == pytest.approx(pr.n - 2 * pr.sigma)


def test_standard_bubble_peak_value():
    pr = Params(3, 0.5)
    lam = 0.25
    w = bubbles.standard_bubble(pr, lam=lam)
    want = constants.bubble_constant(pr) * lam ** (-pr.half_exp)
    assert w.at(np.zeros(3)) == pytest.approx(want, rel=1e-12)
