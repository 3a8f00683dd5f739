import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclab import bubbles, constants, extension, green, movingsphere
from fraclab.fields import ScalarField
from fraclab.params import Params


def _bubble_state(pr, lam=1.0, **kwargs):
    w = bubbles.model_bubble(pr)
    kf = ScalarField(lambda x: np.full(np.atleast_2d(x).shape[0],
                                       constants.bubble_eigenvalue(pr)),
                     n=pr.n, decay="integrable_against_kernel")
    ext = lambda Y: extension.model_bubble_extension_halforder(
        Y[..., :pr.n], Y[..., pr.n], Params(pr.n, 0.5))
    return movingsphere.ComparisonState(params=pr, trace=w, extension=ext,
                                        kelvin_radius=lam, k_field=kf,
                                        **kwargs)


def test_b_from_values_arithmetic():
    # k (w^p - wl^p) / (w - wl): k=1, w=2, wl=1, p=3 -> (8-1)/1 = 7
    assert movingsphere.b_from_values(1.0, 2.0, 1.0, 3.0) == pytest.approx(7.0)
    assert movingsphere.b_from_values(1.0, 1.0, 2.0, 3.0) == pytest.approx(7.0)
    # coincidence limit: p k w^{p-1} = 3 * 1 * 1
    assert movingsphere.b_from_values(1.0, 1.0, 1.0, 3.0) == pytest.approx(3.0)


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=1.1, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_b_from_values_nonnegative(w, wl, k, p):
    assert movingsphere.b_from_values(k, w, wl, p) >= 0.0


def test_b_from_values_continuous_at_coincidence():
    near = movingsphere.b_from_values(2.0, 1.0, 1.0 + 1e-13, 3.0)
    exact = movingsphere.b_from_values(2.0, 1.0, 1.0, 3.0)
    assert near == pytest.approx(exact, rel=1e-6)


def test_q_vanishes_for_constant_coefficient():
    pr = Params(3, 0.5)
    state = _bubble_state(pr)
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.normal(size=3)
        y *= (1.0 + 2.0 * rng.random()) / np.linalg.norm(y)
        assert abs(movingsphere.q_coefficient(state, y)) < 1e-14


def test_kelvin_difference_domain_guard():
    state = _bubble_state(Params(3, 0.5))
    inside = np.array([0.2, 0.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        movingsphere.kelvin_difference(state, inside)


@pytest.mark.parametrize("coefficient", [movingsphere.b_coefficient,
                                         movingsphere.q_coefficient])
def test_boundary_coefficients_domain_guard(coefficient):
    state = _bubble_state(Params(3, 0.5), lam=1.5)
    for y in (np.zeros(3), np.array([0.2, -0.5, 1.0]), [[1.4, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="outside B_lam"):
            coefficient(state, y)
    assert np.isfinite(coefficient(state, np.array([0.0, 1.5, 0.0])))


def test_correction_with_zero_strength_reduces_to_phi():
    pr = Params(3, 0.5)
    state = _bubble_state(pr, phi=lambda Y: 0.25)
    Y = np.array([1.4, 0.0, 0.0, 0.3])
    assert movingsphere.a_correction(state, Y) == pytest.approx(0.25)


def test_kelvin_radius_guard():
    with pytest.raises(ValueError):
        _bubble_state(Params(3, 0.5), lam=3.0)


@pytest.fixture(scope="module")
def sweep_result():
    pr = Params(3, 0.5)
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(400, 4))
    samples[:, -1] = np.abs(samples[:, -1]) + 1e-3
    samples[:, :3] *= (1.0 + 2.0 * rng.random((400, 1)))
    grid = np.linspace(0.6, 1.4, 11)
    return movingsphere.lambda_star_sweep(
        lambda lam: _bubble_state(Params(3, 0.5), lam), grid, samples)


def test_lambda_star_inside_open_interval(sweep_result):
    assert sweep_result is not None
    assert 0.5 < sweep_result["lambda_star"] < 2.0


def test_lambda_star_bracket_refined(sweep_result):
    lo, hi = sweep_result["bracket"]
    assert hi - lo <= 2e-3
    assert lo <= sweep_result["lambda_star"] <= hi


def test_sweep_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        movingsphere.lambda_star_sweep(lambda lam: None, [1.0, 0.9],
                                       np.zeros((1, 4)))


def _min_reference(state, samples, excluded=None):
    """The comparison minimum taken one sample at a time."""
    lam = state.kelvin_radius
    worst = math.inf
    for Y in samples:
        if np.linalg.norm(Y) < lam * (1.0 + 1e-12):
            continue
        if excluded is not None and np.linalg.norm(Y[:-1] - excluded) < 1e-2:
            continue
        worst = min(worst, movingsphere.kelvin_difference(state, Y)
                    + movingsphere.a_correction(state, Y))
    return worst


@pytest.mark.parametrize("n", [2, 3])
def test_comparison_min_matches_one_sample_at_a_time(n):
    pr = Params(n, 0.5)
    state = _bubble_state(pr, lam=0.9, c4=0.3, L=0.7,
                          phi=lambda Y: 0.01 * Y[..., 0] - 0.02 * Y[..., -1])
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(300, n + 1))
    samples[:, -1] = np.abs(samples[:, -1]) + 1e-3
    samples[:, :n] *= 1.0 + 2.0 * rng.random((300, 1))
    samples[:40] *= 0.5 / np.linalg.norm(samples[:40], axis=1, keepdims=True)
    outside = samples[np.linalg.norm(samples, axis=1) > 0.95]
    np.testing.assert_array_equal(
        movingsphere.kelvin_difference(state, outside),
        [movingsphere.kelvin_difference(state, Y) for Y in outside])
    np.testing.assert_array_equal(
        movingsphere.a_correction(state, outside),
        [movingsphere.a_correction(state, Y) for Y in outside])

    full = movingsphere.comparison_min(state, samples)
    assert full == _min_reference(state, samples)
    # excluding the minimising sample moves the minimum
    vals = (movingsphere.kelvin_difference(state, outside)
            + movingsphere.a_correction(state, outside))
    excluded = outside[int(np.argmin(vals)), :-1]
    got = movingsphere.comparison_min(state, samples, excluded)
    assert got == _min_reference(state, samples, excluded)
    assert got > full


def test_comparison_min_inside_the_ball_is_inf():
    samples = np.random.default_rng(4).normal(size=(50, 4))
    samples *= 1.1 / np.linalg.norm(samples, axis=1, keepdims=True)
    for s in (0.5, 0.25):
        pr = Params(3, s)
        state = _bubble_state(pr, lam=1.2, c4=0.3)
        if s != 0.5:    # W by quadrature, called on an empty batch
            state.extension = lambda Y: green.wtilde_extension(Y, pr)
        assert movingsphere.comparison_min(state, samples) == math.inf


@pytest.mark.parametrize("m", [1, 300])
def test_one_callback_call_per_batch(m):
    pr = Params(3, 0.5)
    state = _bubble_state(pr, lam=0.9, c4=0.3,
                          phi=lambda Y: 0.01 * Y[..., 0])
    calls = {"extension": [], "phi": []}

    def counted(name, func):
        def wrapped(Y):
            calls[name].append(Y.shape)
            return func(Y)
        return wrapped
    state.extension = counted("extension", state.extension)
    state.phi = counted("phi", state.phi)
    rng = np.random.default_rng(6)
    Y = rng.normal(size=(m, 4))
    Y[:, -1] = np.abs(Y[:, -1])
    Y *= 1.5 / np.linalg.norm(Y, axis=1, keepdims=True)
    pts = Y[0] if m == 1 else Y     # one point is a batch of one
    movingsphere.kelvin_difference(state, pts)
    movingsphere.a_correction(state, pts)
    assert calls == {"extension": [(m, 4), (m, 4)], "phi": [(m, 4)]}


@pytest.mark.parametrize("n", [2, 3])
def test_one_point_values_keep_the_scalar_formulas(n):
    # one point is a batch of one, and the scalar formulas hold to rounding:
    # numpy's vector norm and power can differ from the scalar ones in the
    # last bit; at sigma = 1/4 neither exponent is an integer
    pr = Params(n, 0.25)
    state = _bubble_state(pr, lam=0.9, c4=0.3, L=0.7)
    kelvin = bubbles.KelvinMap(pr, lam=0.9)
    e = 2.0 * pr.sigma - n
    rng = np.random.default_rng(5)
    for _ in range(300):
        Y = rng.normal(size=n + 1)
        Y *= (1.0 + 3.0 * rng.random()) / np.linalg.norm(Y)
        Y[-1] = abs(Y[-1])
        for f, want in (
                (movingsphere.kelvin_difference, state.extension(Y)
                 - float(kelvin.weight(Y)) * state.extension(kelvin.point(Y))),
                (movingsphere.a_correction,
                 -0.3 / 0.7 * (0.9 ** e - float(np.linalg.norm(Y)) ** e))):
            assert f(state, Y) == f(state, Y[None, :])[0]
            assert f(state, Y) == pytest.approx(want, rel=1e-14, abs=1e-15)
