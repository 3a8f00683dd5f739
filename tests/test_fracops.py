import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fraclab import bubbles, constants, fracops, geometry
from fraclab.constants import gamma_fn
from fraclab.fields import ScalarField, radial_field
from fraclab.params import Params


def _ball_profile(params):
    s = params.sigma
    return lambda r: np.clip(1.0 - np.asarray(r, dtype=float) ** 2, 0.0,
                             None) ** s


def _ball_constant(params):
    n, s = params.n, params.sigma
    return (2.0 ** (2 * s) * gamma_fn(1.0 + s) * gamma_fn((n + 2 * s) / 2.0)
            / gamma_fn(n / 2.0))


@pytest.mark.parametrize("n,s,gap", [(1, 0.5, 5e-4), (1, 0.5, 5e-5),
                                     (1, 0.25, 5e-4), (1, 0.25, 5e-5),
                                     (2, 0.5, 5e-4)])
def test_frac_lap_head_stays_below_the_kink(n, s, gap):
    # at d = 1 - gap the kink of (1 - r^2)_+^s is inside the default Taylor
    # head of 1e-3 unless the head is capped at half the kink edge
    pr = Params(n, s)
    f = radial_field(_ball_profile(pr), n, decay="compact_support",
                     support_radius=1.0)
    want = _ball_constant(pr)
    res = fracops.frac_lap_radial(f, 1.0 - gap, pr)
    err = abs(res.value - want)
    assert err < 1e-2 * want
    assert err <= res.error


@pytest.mark.parametrize("n,s", [(3, 0.75), (5, 0.75)])
def test_frac_lap_head_passes_the_centre(n, s):
    # the panels are graded where the sphere passes the centre, s = d, but
    # the mean is smooth there: a head cut at d / 2 would leave f - S to
    # cancellation, off by 15x the value at d = 1e-10
    pr = Params(n, s)
    w = bubbles.model_bubble(pr)
    d = np.array([1e-10, 1e-8, 1e-6])
    got = fracops.frac_lap_radial(w, d, pr).value
    want = constants.bubble_eigenvalue(pr) * w.radial_profile(d) ** pr.p
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("n,s", [(1, 0.25), (1, 0.5), (2, 0.5), (3, 0.75)])
def test_ball_profile_identity(n, s):
    # the operator is constant on the unit ball for the (1 - r^2)^s profile
    pr = Params(n, s)
    f = radial_field(_ball_profile(pr), n, decay="compact_support",
                     support_radius=1.0)
    want = _ball_constant(pr)
    for d in (0.0, 0.35, 0.7):
        got = fracops.frac_lap_radial(f, d, pr).value
        assert got == pytest.approx(want, rel=2e-3)


def test_cosine_symbol_1d():
    pr = Params(1, 0.5)
    f = ScalarField(lambda x: np.cos(x[:, 0]), n=1,
                    decay="integrable_against_kernel")
    res = fracops.frac_lap_at(f, np.zeros(1), pr)
    assert res.value == pytest.approx(1.0, abs=1e-3)


def test_linearity_in_the_field():
    pr = Params(2, 0.5)
    prof = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    f1 = radial_field(prof, 2, decay="integrable_against_kernel")
    f3 = radial_field(lambda r: 3.0 * prof(r), 2,
                      decay="integrable_against_kernel")
    a = fracops.frac_lap_radial(f1, 0.4, pr).value
    b = fracops.frac_lap_radial(f3, 0.4, pr).value
    assert b == pytest.approx(3.0 * a, rel=1e-10)


def test_error_estimate_is_conservative_for_gaussian():
    pr = Params(3, 0.5)
    f = radial_field(lambda r: np.exp(-np.asarray(r, dtype=float) ** 2), 3,
                     decay="integrable_against_kernel")
    coarse = fracops.frac_lap_radial(f, 0.5, pr)
    assert coarse.error >= 0.0
    assert coarse.error < 1e-2 * abs(coarse.value)


def test_riesz_rejects_a_field_without_decay():
    # a bounded field's potential may diverge: the constant 1 in 3D does
    one = ScalarField(lambda x: np.ones(len(x)), n=3)
    with pytest.raises(ValueError, match="compact support or power decay"):
        fracops.riesz_potential(one, np.zeros(3), Params(3, 0.5))


def test_riesz_power_decay_divergence_guard():
    pr = Params(3, 0.75)
    slow = radial_field(lambda r: (1.0 + np.asarray(r) ** 2) ** -0.5, 3,
                        decay="power_decay", decay_rate=1.0)
    with pytest.raises(ValueError):
        fracops.riesz_potential(slow, np.zeros(3), pr)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_riesz_dimension_divergence_guard(s):
    # I_{2 sigma} needs n > 2 sigma: at n = 1 the kernel is not integrable
    pr = Params(1, s)
    bump = radial_field(_ball_profile(pr), 1, decay="compact_support",
                        support_radius=1.0)
    with pytest.raises(ValueError, match="n = 1"):
        fracops.riesz_potential(bump, np.zeros(1), pr)


@pytest.mark.parametrize("n,s", [(2, 0.5), (3, 0.5), (3, 0.25)])
def test_riesz_ball_indicator_center_value(n, s):
    pr = Params(n, s)
    cset = constants.constant_set(pr)
    radius = 0.7
    want = cset.riesz_constant * cset.sphere_area * radius ** (2 * s) / (2 * s)
    got = fracops.riesz_ball_indicator(0.0, radius, pr)
    assert got == pytest.approx(want, rel=1e-6)


def test_riesz_ball_indicator_matches_generic_potential():
    # the sphere means are split at the jump, so the generic quadrature
    # integrates the indicator exactly in the polar angle
    pr = Params(3, 0.5)
    ball = radial_field(lambda r: np.where(np.asarray(r) < 1.0, 1.0, 0.0), 3,
                        decay="compact_support", support_radius=1.0,
                        kink_radii=(1.0,))
    for d in (0.0, 0.6, 1.5, 4.0):
        direct = fracops.riesz_ball_indicator(d, 1.0, pr)
        generic = fracops.riesz_potential(ball, d * np.eye(3)[0], pr).value
        assert generic == pytest.approx(direct, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_riesz_potential_of_the_ball_indicator_on_a_grid(n, s):
    # inside twice the support the sphere means are split at the jump, so
    # the generic potential meets the closed form and its bar covers it
    pr = Params(n, s)
    d = np.linspace(0.0, 1.99, 10)
    res = fracops.riesz_potential(_unit_ball(n), _on_axis(d, n), pr)
    err = np.abs(res.value - fracops.riesz_ball_indicator(d, 1.0, pr))
    assert np.all(err <= 1e-6 * res.value)
    assert np.all(err <= res.error)


def _ball_profile_grid():
    """(error, bar) of frac_lap_radial on (1 - r^2)_+^s, whose value is the
    constant _ball_constant on the unit ball, over n, s and ten d."""
    for n in (2, 3, 5):
        for s in (0.25, 0.5, 0.75):
            pr = Params(n, s)
            f = radial_field(_ball_profile(pr), n, decay="compact_support",
                             support_radius=1.0)
            res = fracops.frac_lap_radial(f, np.linspace(0.0, 0.9, 10), pr)
            yield (np.abs(res.value - _ball_constant(pr))
                   / _ball_constant(pr), res.error / _ball_constant(pr))


def test_ball_profile_identity_on_a_grid():
    # split at the kink, the angular error is gone; what is left is the
    # power singularity (1 - r^2)^s at the end of a polar piece
    for err, _ in _ball_profile_grid():
        assert np.all(err <= 1e-4)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1(b): the bars undercover the power "
                   "singularity of (1 - r^2)_+^s at the end of a polar "
                   "piece, by up to 1.6e3 at (n, s) = (3, 1/4)")
def test_ball_profile_bars_cover_the_error_on_a_grid():
    for err, bar in _ball_profile_grid():
        assert np.all(err <= bar)


def test_riesz_ball_indicator_far_field_scale():
    # tiny radii must not underflow: value ~ radius^{2s} d^{2s-n}
    pr = Params(5, 0.5)
    cset = constants.constant_set(pr)
    radius, d = 1e-30, 0.1
    want = (cset.riesz_constant * cset.sphere_area / pr.n
            * radius ** (2 * pr.sigma) * (d / radius) ** (2 * pr.sigma - pr.n))
    got = fracops.riesz_ball_indicator(d, radius, pr)
    assert got == pytest.approx(want, rel=1e-6)
    assert got > 0.0


@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_riesz_ball_indicator_monotone_in_distance(s, radius):
    pr = Params(3, s)
    vals = [fracops.riesz_ball_indicator(d, radius, pr)
            for d in (0.0, 0.5 * radius, radius, 2.0 * radius, 5.0 * radius)]
    assert all(a >= b - 1e-12 * abs(a) for a, b in zip(vals, vals[1:]))


BALL_DELTAS = (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-8, 1.0 - 1e-14,
               1.0 - 2.0 ** -52, 1.0, 1.001, 1.01, 1.1, 2.0, 10.0, 100.0, 1e3,
               1e4, 1e5)


def _mp_ball_indicator(n, s, delta):
    """The closed form of riesz_ball_indicator at radius 1, in 40 digits."""
    with mp.workdps(40):
        n, s, delta = mp.mpf(n), mp.mpf(s), mp.mpf(delta)
        if delta <= 1:
            return mp.hyp2f1(n / 2 - s, -s, n / 2, delta ** 2) / (2 * s)
        return (delta ** (2 * s - n) / n
                * mp.hyp2f1(n / 2 - s, 1 - s, n / 2 + 1, delta ** -2))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_riesz_ball_indicator_matches_mpmath(n):
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        if n <= 2 * s:  # the potential diverges
            continue
        pr = Params(n, s)
        front = fracops._riesz_front(pr)
        for delta in BALL_DELTAS:
            want = front * float(_mp_ball_indicator(n, s, delta))
            got = fracops.riesz_ball_indicator(delta, 1.0, pr)
            assert got == pytest.approx(want, rel=1e-12), (s, delta)


HYP_SIGMAS = (0.1, 0.25, 0.4, 0.49, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.51, 0.6,
              0.75, 0.9)
HYP_WS = np.concatenate([[0.0, 2.0 ** -53, 2.0 ** -52, 1e-14, 1e-8, 1e-4,
                          0.3 - 1e-12, 0.3, 0.3 + 1e-12, 0.5, 1.0,
                          1.0 / 16.0, 0.2, 0.4 - 1e-12, 0.4 + 1e-12, 0.55,
                          0.75, 0.9375],
                         np.linspace(0.0, 1.0, 41)[1:-1]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9])
@pytest.mark.parametrize("far", [False, True])
def test_hyp2f1_matches_mpmath(n, far):
    # both 2F1 of riesz_ball_indicator, across both series and every bucket
    # edge, down to z = 1; sigma = 1/2 is the log case, and 1/2 +- 1e-7 lie
    # next to it
    for s in HYP_SIGMAS:
        if n <= 2 * s:
            continue
        a, b = n / 2 - s, (1.0 - s if far else -s)
        got = fracops._hypergeometric(a, b, 2 * s - 1, 1, 1.0 - HYP_WS,
                                      HYP_WS)
        with mp.workdps(40):
            c = mp.mpf(a) + mp.mpf(b) + 2 * mp.mpf(s)
            want = [mp.hyp2f1(a, b, c, 1 - mp.mpf(w)) for w in HYP_WS]
        for w, g, ref in zip(HYP_WS, got, want):
            assert abs(g - ref) <= 1e-12 * abs(ref), (s, w)


@pytest.mark.parametrize("n,s", [(1, 0.25), (2, 0.5), (3, 0.75), (5, 0.1)])
def test_riesz_ball_indicator_is_the_cap_fraction_integral(n, s):
    # r omega int_0^{delta + 1} t^{2s-1} (share of the sphere S_t(x) in B_1) dt
    pr = Params(n, s)
    for delta in (0.0, 0.3, 0.999, 1.0, 1.5, 4.0):
        share = lambda t: geometry.cap_fraction(delta, np.array([t]), 1.0,
                                                n)[0] * t ** (2 * s - 1)
        kinks = [k for k in (abs(delta - 1.0),) if 0.0 < k]
        want = fracops._riesz_front(pr) * quad(
            share, 0.0, delta + 1.0, points=kinks, epsabs=0.0, epsrel=1e-12,
            limit=200)[0]
        got = fracops.riesz_ball_indicator(delta, 1.0, pr)
        assert got == pytest.approx(want, rel=1e-9), delta


@pytest.mark.parametrize("n,s", [(1, 0.25), (5, 0.5)])
def test_riesz_ball_indicator_far_out_gives_no_warning(n, s):
    # delta = 1e230: delta * delta would overflow, the point mass need not
    pr = Params(n, s)
    d, radius = 1e200, 1e-30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fracops.riesz_ball_indicator(d, radius, pr)
        got_np = fracops.riesz_ball_indicator(np.float64(d),
                                              np.float64(radius), pr)
    want = math.exp(math.log(fracops._riesz_front(pr) / n)
                    + n * math.log(radius) + (2 * s - n) * math.log(d))
    assert got == got_np == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,s", [(2, 0.25), (5, 0.5)])
def test_riesz_ball_indicator_takes_arrays(n, s):
    pr = Params(n, s)
    d = np.array([0.0, 0.3, 1.0, 1.7, 40.0])
    radii = np.array([0.5, 1.0, 2.0])
    got = fracops.riesz_ball_indicator(d[:, None], radii, pr)
    assert got.shape == (5, 3)
    want = [[fracops.riesz_ball_indicator(float(a), float(r), pr)
             for r in radii] for a in d]
    assert isinstance(want[0][0], float)
    np.testing.assert_array_equal(got, want)


def test_riesz_ball_indicator_degenerate_input():
    with pytest.raises(ValueError, match="n = 1 <= 2 sigma = 1"):
        fracops.riesz_ball_indicator(0.5, 1.0, Params(1, 0.5))
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            fracops.riesz_ball_indicator(0.5, radius, Params(3, 0.5))


def test_opresult_error_brackets_truth():
    pr = Params(1, 0.5)
    f = ScalarField(lambda x: np.cos(x[:, 0]), n=1,
                    decay="integrable_against_kernel")
    res = fracops.frac_lap_at(f, np.zeros(1), pr)
    assert abs(res.value - 1.0) < max(10.0 * res.error, 1e-3)


# --- riesz_potential: the small-s head and the batched path --------------------

@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_riesz_error_bar_covers_ball_centre(s):
    # the stretch below the first panel is part of the integral: at the
    # centre of the unit ball the potential is r omega / (2 sigma)
    pr = Params(3, s)
    ball = radial_field(lambda r: np.where(np.asarray(r) < 1.0, 1.0, 0.0), 3,
                        decay="compact_support", support_radius=1.0)
    res = fracops.riesz_potential(ball, np.zeros(3), pr)
    closed = fracops.riesz_ball_indicator(0.0, 1.0, pr)
    assert abs(res.value - closed) <= res.error


def _bump(r):
    r = np.asarray(r, dtype=float)
    return np.where(r < 1.0, np.exp(-np.clip(r, 0, 0.999999) ** 2
                                    / np.clip(1 - r ** 2, 1e-12, None)), 0.0)


def _kinked_power(r):
    r = np.asarray(r, dtype=float)
    return (1.0 + r ** 2) ** -2.0 + 0.1 * np.maximum(0.5 - r, 0.0) ** 2


BATCH_FIELDS = {
    "bump": (radial_field(_bump, 2, decay="compact_support",
                          support_radius=1.0), Params(2, 0.5)),
    "power": (radial_field(_kinked_power, 3, decay="power_decay",
                           decay_rate=4.0, kink_radii=(0.5,)), Params(3, 0.25)),
    "tilted": (ScalarField(lambda x: np.maximum(1.0 - np.sum(x * x, axis=1), 0.0)
                           * (1.0 + 0.3 * x[:, 0]), n=2,
                           decay="compact_support", support_radius=1.0),
               Params(2, 0.75)),
}


@given(st.sampled_from(sorted(BATCH_FIELDS)),
       st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4),
       st.floats(min_value=1e-9, max_value=1e-6),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_riesz_batch_matches_single_points(name, radii, gap, seed):
    field, pr = BATCH_FIELDS[name]
    n = field.n
    rng = np.random.default_rng(seed)
    kink = field.kink_radii[0]
    dists = np.array(radii + [kink - gap, kink + gap])
    dirs = rng.normal(size=(dists.size, n))
    pts = dists[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    # duplicates, near-duplicates and a rotated copy of the first point
    pts = np.vstack([pts, pts[:2], pts[:1] * (1.0 + 3e-14), pts[:1, ::-1]])
    batch = fracops.riesz_potential(field, pts, pr)
    assert batch.value.shape == batch.error.shape == (len(pts),)
    for j, x in enumerate(pts):
        one = fracops.riesz_potential(field, x, pr)
        assert isinstance(one.value, float) and isinstance(one.error, float)
        # each point is summed at its own distance, in a batch as alone
        tol = 1e-12 * max(1.0, abs(one.value))
        assert abs(batch.value[j] - one.value) <= tol
        assert abs(batch.error[j] - one.error) <= tol


def test_riesz_is_continuous_in_the_distance():
    # each point is summed at its own distance: a relative move of 2^-40
    # moves the value by no more than the potential's slope allows
    field, pr = BATCH_FIELDS["bump"]
    d = 0.5 * np.array([1.0, 1.0 + 2.0 ** -40])
    res = fracops.riesz_potential(field, d[:, None] * np.eye(2)[0], pr)
    assert abs(res.value[1] - res.value[0]) <= 1e-11


def test_riesz_rejects_bad_point_shapes():
    field, pr = BATCH_FIELDS["bump"]
    with pytest.raises(ValueError):
        fracops.riesz_potential(field, np.zeros(3), pr)
    with pytest.raises(ValueError):
        fracops.riesz_potential(field, np.zeros((2, 2, 2)), pr)


# --- frac_lap_at: the batched path -----------------------------------------------

@pytest.mark.parametrize("name", ["bump", "power"])
def test_frac_lap_batch_matches_single_points(name):
    field, pr = BATCH_FIELDS[name]
    n = field.n
    kink = field.kink_radii[0]
    dists = np.array([0.0, 0.3, kink - 1e-7, kink + 1e-7, 1.5, 3.0])
    dirs = np.random.default_rng(11).normal(size=(dists.size, n))
    pts = dists[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    pts = np.vstack([pts, pts[1:2] * (1.0 + 3e-14), pts[1:2, ::-1]])
    batch = fracops.frac_lap_at(field, pts, pr)
    assert batch.value.shape == batch.error.shape == (len(pts),)
    for j, x in enumerate(pts):
        one = fracops.frac_lap_at(field, x, pr)
        assert isinstance(one.value, float) and isinstance(one.error, float)
        # each point is summed at its own distance, in a batch as alone
        tol = 1e-12 * max(1.0, abs(one.value))
        assert abs(batch.value[j] - one.value) <= tol
        assert abs(batch.error[j] - one.error) <= tol


def test_frac_lap_batch_is_exact_for_an_off_centre_bubble():
    # a non-radial field: each point is its own row, and the 20 points span
    # two blocks
    pr = Params(3, 0.5)
    centre = np.array([0.3, -0.2, 0.1])
    sb = bubbles.standard_bubble(pr, lam=0.8, center=centre)
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(20, 3))
    pts = centre + (0.8 * rng.uniform(0.0, 1.0, 20)[:, None] * dirs
                    / np.linalg.norm(dirs, axis=1)[:, None])
    batch = fracops.frac_lap_at(sb, pts, pr)
    for j, x in enumerate(pts):
        one = fracops.frac_lap_at(sb, x, pr)
        assert batch.value[j] == one.value and batch.error[j] == one.error
    # within one scale length the bubble solves (-Lap)^s u = u^p
    np.testing.assert_allclose(batch.value, sb(pts) ** pr.p, rtol=1e-3)


def test_frac_lap_radial_takes_an_array_of_distances():
    pr = Params(2, 0.5)
    w = bubbles.model_bubble(pr)
    d = np.array([0.0, 0.5, 2.0, 0.5])
    res = fracops.frac_lap_radial(w, d, pr)
    assert res.value.shape == res.error.shape == (4,)
    assert res.value[1] == res.value[3]
    for j, dj in enumerate(d):
        one = fracops.frac_lap_radial(w, dj, pr)
        assert abs(res.value[j] - one.value) <= 1e-12 * abs(one.value)
    np.testing.assert_allclose(
        res.value, constants.bubble_eigenvalue(pr) * w.radial_profile(d) ** pr.p,
        rtol=1e-3)


def test_frac_lap_rejects_bad_point_shapes():
    field, pr = BATCH_FIELDS["bump"]
    with pytest.raises(ValueError):
        fracops.frac_lap_at(field, np.zeros(3), pr)
    with pytest.raises(ValueError):
        fracops.frac_lap_at(field, np.zeros((2, 2, 2)), pr)


@pytest.mark.parametrize("operator", [fracops.frac_lap_at,
                                      fracops.riesz_potential])
def test_a_field_that_is_not_radial_above_n_3_is_refused(operator):
    pr = Params(5, 0.5)
    sb = bubbles.standard_bubble(pr, center=0.3 * np.ones(5))
    with pytest.raises(ValueError,
                       match="a field with a radial_profile, or n <= 3"):
        operator(sb, np.zeros((2, 5)), pr)


# --- the exterior series and the tabulated potential -------------------------

FAR = (2.5, 4.0, 10.0, 30.0, 1e3, 1e5)


def _unit_ball(n):
    return radial_field(lambda r: np.where(np.asarray(r) < 1.0, 1.0, 0.0), n,
                        decay="compact_support", support_radius=1.0)


def _on_axis(d, n):
    pts = np.zeros((len(d), n))
    pts[:, 0] = d
    return pts


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("s", [0.25, 0.75])
def test_exterior_series_matches_ball_indicator(n, s):
    pr = Params(n, s)
    res = fracops.riesz_potential(_unit_ball(n), _on_axis(FAR, n), pr)
    want = [fracops.riesz_ball_indicator(d, 1.0, pr) for d in FAR]
    assert np.all(res.value > 0.0)
    np.testing.assert_allclose(res.value, want, rtol=1e-9, atol=0.0)


def _mp_ball_potential(n, s, d):
    """int_{B_1} |x - y|^{2s-n} dy at |x| = d > 1, a 30-digit double
    quadrature over the radius and the polar angle (both integrands are
    analytic there, so Gauss-Legendre converges fast)."""
    with mp.workdps(30):
        q, d = mp.mpf(n) - 2 * mp.mpf(s), mp.mpf(d)
        norm = mp.quad(lambda th: mp.sin(th) ** (n - 2), [0, mp.pi])
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        inner = lambda r: mp.quad(
            lambda th: (d * d + r * r - 2 * d * r * mp.cos(th)) ** (-q / 2)
            * mp.sin(th) ** (n - 2), [0, mp.pi], method="gauss-legendre")
        return float(area / norm * mp.quad(lambda r: r ** (n - 1) * inner(r),
                                           [0, 1], method="gauss-legendre"))


def test_exterior_series_matches_double_quadrature_in_the_plane():
    pr = Params(2, 0.25)
    res = fracops.riesz_potential(_unit_ball(2), _on_axis([2.5, 10.0], 2), pr)
    rc = constants.constant_set(pr).riesz_constant
    for d, value, bar in zip((2.5, 10.0), res.value, res.error):
        want = rc * _mp_ball_potential(2, 0.25, d)
        assert value == pytest.approx(want, rel=1e-10)
        assert abs(value - want) <= bar


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_exterior_series_bar_covers_the_closed_form(n, s):
    # outside the unit ball the potential of its indicator is
    # r omega / n d^{2s-n} 2F1((n-2s)/2, 1 - s; n/2 + 1; 1/d^2)
    pr = Params(n, s)
    res = fracops.riesz_potential(_unit_ball(n), _on_axis(FAR, n), pr)
    cset = constants.constant_set(pr)
    for d, value, bar in zip(FAR, res.value, res.error):
        with mp.workdps(30):
            want = float(cset.riesz_constant * cset.sphere_area / n
                         * mp.mpf(d) ** (2 * s - n)
                         * mp.hyp2f1((n - 2 * s) / 2, 1 - s, n / 2 + 1,
                                     1 / mp.mpf(d) ** 2))
        assert value > 0.0
        assert abs(value - want) <= bar


TINY = 1e-30
TINY_CASES = [(2, 0.25), (3, 0.1), (3, 0.5), (5, 0.75)]


def _tiny_ball_potential(n, s, ratios):
    """riesz_potential of the indicator of B_TINY at d = TINY * ratios, and
    the closed form there."""
    pr = Params(n, s)
    ball = radial_field(lambda r: np.where(np.asarray(r) < TINY, 1.0, 0.0), n,
                        decay="compact_support", support_radius=TINY)
    d = TINY * np.array(ratios)
    res = fracops.riesz_potential(ball, _on_axis(d, n), pr)
    return res, fracops.riesz_ball_indicator(d, TINY, pr)


@pytest.mark.parametrize("n,s", TINY_CASES)
def test_exterior_series_of_a_tiny_ball(n, s):
    # the moments are scaled by the support, so a^n (r / a)^{2j} neither
    # underflows nor loses the series' terms
    res, want = _tiny_ball_potential(n, s, [2.5, 10.0, 1e3])
    err = np.abs(res.value - want)
    assert np.all(err <= 1e-12 * want)
    assert np.all(err <= res.error)


@pytest.mark.parametrize("n,s", TINY_CASES)
def test_riesz_potential_of_a_tiny_ball_inside_twice_its_support(n, s):
    res, want = _tiny_ball_potential(n, s, [0.5, 0.999, 1.5])
    err = np.abs(res.value - want)
    assert np.all(err <= 1e-9 * want)
    assert np.all(err <= res.error)


def test_exterior_series_obeys_the_mass_law():
    pr = Params(3, 0.5)
    bump = radial_field(_bump, 3, decay="compact_support", support_radius=1.0)
    cset = constants.constant_set(pr)
    mass = cset.sphere_area * quad(lambda r: _bump(r) * r * r, 0.0, 1.0,
                                   epsabs=0.0, epsrel=1e-13)[0]
    d = 1e5
    got = fracops.riesz_potential(bump, _on_axis([d], 3)[0], pr).value
    assert got * d ** (pr.n - 2 * pr.sigma) == pytest.approx(
        cset.riesz_constant * mass, rel=1e-9)


@pytest.fixture(scope="module", params=[2, 3])
def bump_table(request):
    n = request.param
    pr = Params(n, 0.5)
    bump = radial_field(_bump, n, decay="compact_support", support_radius=1.0)
    return bump, pr, fracops.riesz_field(bump, pr)


def test_riesz_field_matches_direct_potential(bump_table):
    bump, pr, table = bump_table
    d = np.random.default_rng(20261018).uniform(0.0, 2.0, 200)
    direct = fracops.riesz_potential(bump, _on_axis(d, bump.n), pr)
    gap = np.abs(table.radial_profile(d) - direct.value)
    assert np.all(gap <= table.error_bound + direct.error)


def test_riesz_field_is_the_exterior_series_beyond_2a(bump_table):
    bump, pr, table = bump_table
    direct = fracops.riesz_potential(bump, _on_axis(FAR, bump.n), pr)
    assert np.array_equal(table.radial_profile(np.array(FAR)), direct.value)


def test_riesz_field_bound_and_metadata(bump_table):
    bump, pr, table = bump_table
    at_zero = float(table.radial_profile(np.zeros(1))[0])
    assert 0.0 < table.error_bound < 1e-6 * at_zero
    assert table.is_radial and table.decay == "power_decay"
    assert table.decay_rate == bump.n - 2 * pr.sigma
    assert table.kink_radii == (1.0, 2.0)


def test_riesz_field_samples_in_one_call(monkeypatch):
    calls = []
    direct = fracops.riesz_potential

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return direct(*args, **kwargs)
    monkeypatch.setattr(fracops, "riesz_potential", counted)
    bump = radial_field(_bump, 2, decay="compact_support", support_radius=1.0)
    fracops.riesz_field(bump, Params(2, 0.5))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["power", "tilted"])
def test_riesz_field_needs_a_radial_compact_field(name):
    field, pr = BATCH_FIELDS[name]
    with pytest.raises(ValueError):
        fracops.riesz_field(field, pr)


# --- the potential of a radial field as one integral in rho -------------------

KERNEL_SIGMAS = (0.1, 0.25, 0.49, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.75, 0.9)
KERNEL_WS = np.concatenate([[2.0 ** -52, 2.0 ** -50, 1e-14, 1e-8, 1e-4,
                             1.0 / 16.0, 0.2, 0.4 - 1e-12, 0.4, 0.4 + 1e-12,
                             0.51, 0.52, 0.75, 1.0],
                            np.linspace(0.0, 1.0, 41)[1:-1]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9])
def test_sphere_mean_kernel_matches_mpmath(n):
    # F = 2F1(q/2, 1 - s; n/2; z), q = n - 2s, from z = 0 to 1 - 2^-52, on
    # both series and across every bucket edge; s = 1/2 is the log case
    for s in KERNEL_SIGMAS:
        if n <= 2 * s:
            continue
        args = fracops._kernel_args(n, s)
        got = fracops._hypergeometric(*args, 1.0 - KERNEL_WS, KERNEL_WS)
        # the connection series as the split panels take it, to w = 0.52
        near = KERNEL_WS <= fracops.KERNEL_SPLIT_W
        split = fracops._hypergeometric(*args, 1.0 - KERNEL_WS[near],
                                        KERNEL_WS[near], np.ones(near.sum(),
                                                                 dtype=bool))
        with mp.workdps(40):
            a, b, c = mp.mpf(n) / 2 - mp.mpf(s), 1 - mp.mpf(s), mp.mpf(n) / 2
            want = [mp.hyp2f1(a, b, c, 1 - mp.mpf(w)) for w in KERNEL_WS]
        for w, g, ref in zip(KERNEL_WS, got, want):
            assert abs(g - ref) <= 1e-12 * abs(ref), (s, w)
        for w, g, ref in zip(KERNEL_WS[near], split, np.array(want)[near]):
            assert abs(g - ref) <= 1e-12 * abs(ref), (s, w)


def test_sphere_mean_kernel_is_the_mean_of_the_riesz_kernel():
    # in 3D the mean of |x - y|^{-q} over |y| = r is
    # ((d + r)^{2-q} - |d - r|^{2-q}) / (2 d r (2 - q))
    n, s = 3, 0.3
    q = n - 2 * s
    for d, r in ((1.0, 0.2), (1.0, 0.9), (1.0, 1.0 - 1e-9), (0.5, 3.0)):
        lo, hi = min(d, r), max(d, r)
        k = hi ** -q * fracops._hypergeometric(
            *fracops._kernel_args(n, s), np.array([(lo / hi) ** 2]),
            np.array([(hi - lo) * (hi + lo) / hi ** 2]))[0]
        want = ((d + r) ** (2 - q) - abs(d - r) ** (2 - q)) / (
            2 * d * r * (2 - q))
        assert k == pytest.approx(want, rel=1e-12)


def _bubble_source(pr):
    """Lambda w^p of the model bubble w, whose Riesz potential is w."""
    lam, alpha = constants.bubble_eigenvalue(pr), pr.n + 2 * pr.sigma
    return radial_field(
        lambda r: lam * (1.0 + np.asarray(r) ** 2) ** (-0.5 * alpha), pr.n,
        decay="power_decay", decay_rate=alpha)


@pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3, 5)
                                 for s in (0.25, 0.5, 0.75) if n > 2 * s])
def test_riesz_potential_inverts_the_bubble_equation(n, s):
    # (-Lap)^s w = Lambda w^p, so I_2s (Lambda w^p) = w exactly: the power
    # decay path, its tail beyond OUTER_RADIUS and its bar
    pr = Params(n, s)
    d = np.array([0.0, 0.5, 1.0, 3.0, 10.0, 100.0])
    res = fracops.riesz_potential(_bubble_source(pr), _on_axis(d, n), pr)
    want = bubbles.model_bubble(pr).radial_profile(d)
    err = np.abs(res.value - want)
    assert np.all(err <= 1e-9 * want)
    assert np.all(err <= res.error)
    assert np.all(res.error <= 1e-6 * want)


def test_riesz_potential_far_beyond_the_outer_radius():
    # d > OUTER_RADIUS / 4: the panels run to 4 d and the tail starts there
    pr = Params(3, 0.5)
    d = np.array([300.0, 2e3, 1e4])
    res = fracops.riesz_potential(_bubble_source(pr), _on_axis(d, 3), pr)
    want = bubbles.model_bubble(pr).radial_profile(d)
    assert np.all(np.abs(res.value - want) <= 1e-9 * want)
    assert np.all(np.abs(res.value - want) <= res.error)


def test_riesz_potential_caches_the_moments_once_per_field():
    # the exterior series and the series in the field's moments are made
    # on the first call and reused, so later calls evaluate no moments
    calls = []

    def counted(r):
        calls.append(np.size(r))
        return _bump(r)
    bump = radial_field(counted, 2, decay="compact_support",
                        support_radius=1.0)
    pr = Params(2, 0.5)
    first = fracops.riesz_potential(bump, _on_axis([0.7, 3.0], 2), pr)
    made = len(calls)
    again = fracops.riesz_potential(bump, _on_axis([0.7, 3.0], 2), pr)
    assert np.array_equal(first.value, again.value)
    assert len(calls) == made + 1  # the one kernel-path profile call


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-10])
def test_riesz_potential_next_to_the_ball_edge(gap):
    # the singularity at rho = d sits next to the jump at rho = 1: on both
    # sides, and just past the end of the support
    pr = Params(3, 0.25)
    d = np.array([1.0 - gap, 1.0, 1.0 + gap])
    res = fracops.riesz_potential(_unit_ball(3), _on_axis(d, 3), pr)
    want = fracops.riesz_ball_indicator(d, 1.0, pr)
    err = np.abs(res.value - want)
    assert np.all(err <= 1e-9 * want)
    assert np.all(err <= res.error)


# --- compact fields in units of their own support -----------------------------

def _bump_of_size(a, n):
    return radial_field(lambda r: _bump(np.asarray(r, dtype=float) / a), n,
                        decay="compact_support", support_radius=a)


def _parabola(a, n):
    """(1 - r^2 / a^2)_+, whose support is the ball of radius a."""
    return radial_field(
        lambda r: np.clip(1.0 - (np.asarray(r, dtype=float) / a) ** 2, 0.0,
                          None), n, decay="compact_support", support_radius=a)


@pytest.mark.parametrize("n,s", [(1, 0.25), (2, 0.5), (3, 0.25), (5, 0.75)])
def test_frac_lap_of_a_compact_field_is_scale_free(n, s):
    # (-Lap)^s f(. / a) at a x is a^{-2s} (-Lap)^s f at x: the sphere-mean
    # driver sums in units of the support, from a = 1e-120 to 1e100
    pr = Params(n, s)
    d = np.array([0.0, 0.5, 1.5])
    one = fracops.frac_lap_at(_bump_of_size(1.0, n), _on_axis(d, n), pr)
    for a in (1e-120, 1e-20, 1e-6, 1e6, 1e100):
        res = fracops.frac_lap_at(_bump_of_size(a, n),
                                  _on_axis(a * d, n), pr)
        value, bar = res.value * a ** (2 * s), res.error * a ** (2 * s)
        err = np.abs(value - one.value)
        assert np.all(err <= 1e-12 * np.abs(one.value)), a
        assert np.all(err <= bar + one.error), a


@pytest.mark.parametrize("n,s", [(3, 0.5), (4, 0.5), (5, 0.5), (5, 0.75),
                                 (9, 0.25)])
def test_riesz_potential_of_a_compact_field_is_scale_free(n, s):
    # I_2s f(. / a) at a x is a^{2s} I_2s f at x, across the far boundary 2a
    pr = Params(n, s)
    d = np.array([0.0, 0.5, 1.0, 1.7, 2.5, 10.0])
    one = fracops.riesz_potential(_parabola(1.0, n), _on_axis(d, n), pr)
    for a in (1e-60, 1e-80, 1e-120, 1e-150):
        res = fracops.riesz_potential(_parabola(a, n), _on_axis(a * d, n), pr)
        value, bar = res.value / a ** (2 * s), res.error / a ** (2 * s)
        err = np.abs(value - one.value)
        assert np.all(err <= 1e-13 * one.value), a
        assert np.all(err <= bar + one.error), a


@pytest.mark.parametrize("n,s", [(3, 0.5), (5, 0.75)])
def test_riesz_field_of_a_compact_field_is_scale_free(n, s):
    pr = Params(n, s)
    d = np.array([0.0, 0.3, 0.9, 1.2, 1.9, 2.5, 7.0])
    one = fracops.riesz_field(_bump_of_size(1.0, n), pr)
    want = one.radial_profile(d)
    for a in (1e-80, 1e-120):
        table = fracops.riesz_field(_bump_of_size(a, n), pr)
        got = table.radial_profile(a * d) / a ** (2 * s)
        err = np.abs(got - want)
        assert np.all(err <= 1e-13 * want), a
        assert np.all(err <= table.error_bound / a ** (2 * s)
                      + one.error_bound), a


@pytest.mark.parametrize("n,s,d", [(3, 0.5, 1e77), (3, 0.5, 1e100),
                                   (3, 0.5, 1e150), (2, 0.75, 1e77),
                                   (2, 0.75, 1e100), (2, 0.75, 1e150),
                                   (5, 0.25, 1e60)])
def test_riesz_potential_power_tail_far_out(n, s, d):
    # the tail rule rho = R / u keeps its weights finite at R = 4 d, where
    # R^{-beta-1} (R / u)^{beta+2} would be 0 * inf
    pr = Params(n, s)
    res = fracops.riesz_potential(_bubble_source(pr), _on_axis([d], n)[0], pr)
    want = float(bubbles.model_bubble(pr).radial_profile(np.array([d]))[0])
    err = abs(res.value - want)
    assert err <= 1e-11 * want
    assert err <= res.error


def test_riesz_potential_far_out_is_right_or_refused_by_name():
    # the potential of the standard bubble at (3, 1/2) is pi / d far out;
    # the tail rule puts nodes at about 200 d, past MAX_RADIUS for d = 1e152
    pr = Params(3, 0.5)
    field = bubbles.standard_bubble(pr)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fracops.riesz_potential(field, _on_axis([1e151], 3)[0], pr)
        assert abs(res.value - math.pi / 1e151) <= res.error
        for d in (1e152, 1e153):
            with pytest.raises(ValueError, match=r"\|x\| = 1e\+15"):
                fracops.riesz_potential(field, _on_axis([d], 3)[0], pr)


@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 2.0, 2.25, 4.0, 8.5])
def test_power_tail_rule_is_exact_on_polynomials(beta):
    # rule 2 of the template: Gauss-Jacobi for u^beta with u^{-beta-2}
    # folded into the weights, exact to degree 15
    nodes, w8, w4 = fracops._kernel_template(0.25, beta)
    u, w = nodes[2], w8[2]
    for k in range(16):
        got = np.sum(w * u ** (beta + 2.0) * u ** k)
        assert got == pytest.approx(1.0 / (beta + k + 1.0), rel=1e-13), k
    for k in range(8):
        got = np.sum(w4[2] * u ** (beta + 2.0) * u ** k)
        assert got == pytest.approx(1.0 / (beta + k + 1.0), rel=1e-13), k


@pytest.mark.parametrize("n,s", [(3, 0.5), (5, 0.25)])
@pytest.mark.parametrize("a", [1.0, 1e-70])
def test_riesz_batch_across_the_far_boundary(n, s, a):
    # rows beyond 2a take the top row's series and no panels, in a batch
    # as alone; at d = inf the potential and its bar are 0
    pr = Params(n, s)
    field = _parabola(a, n)
    d = a * np.array([0.0, 1e-9, 1.999, 2.0, 2.001, 2.5, 10.0, np.inf])
    batch = fracops.riesz_potential(field, _on_axis(d, n), pr)
    assert np.all(np.isfinite(batch.value)) and np.all(batch.value[:-1] > 0.0)
    for j, x in enumerate(_on_axis(d, n)):
        one = fracops.riesz_potential(field, x, pr)
        assert batch.value[j] == one.value and batch.error[j] == one.error
    assert batch.value[-1] == 0.0 and batch.error[-1] == 0.0


def test_points_beyond_the_float_range():
    # |x| is taken scaled, so it neither overflows nor underflows; a point
    # whose |x|^2 overflows is refused up front, naming |x|
    pr = Params(3, 0.5)
    w = bubbles.model_bubble(pr)
    with pytest.raises(ValueError, match=r"\|x\| = 2e\+154"):
        fracops.frac_lap_at(w, np.array([2e154, 0.0, 0.0]), pr)
    lam = constants.bubble_eigenvalue(pr)
    for x in (1e150, 1e-160):
        res = fracops.frac_lap_at(w, np.array([x, 0.0, 0.0]), pr)
        assert math.isfinite(res.value) and math.isfinite(res.error)
        # Lambda (1 + |x|^2)^{-(n + 2 sigma) / 2} in floats: 0.0 at 1e150
        exact = lam * (1.0 + x * x) ** (-0.5 * (pr.n + 2.0 * pr.sigma))
        assert abs(res.value - exact) <= res.error
    assert res.value > 0.0


def test_frac_lap_applies_its_tail_law_past_the_centre():
    # the sphere passes the centre before the far-field law takes over, so
    # the model bubble far out lies within its bar of the closed form, and
    # no power overflows up to the edge of the float range
    pr = Params(3, 0.5)
    w = bubbles.model_bubble(pr)
    lam = constants.bubble_eigenvalue(pr)
    d = np.array([1e4, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fracops.frac_lap_at(w, _on_axis(d, 3), pr)
        edge = fracops.frac_lap_at(w, np.array([1.3e154, 0.0, 0.0]), pr)
        # at sigma = 3/4 the kernel power outer^{-5/2} underflows to 0
        steep = fracops.frac_lap_at(bubbles.model_bubble(Params(3, 0.75)),
                                    _on_axis([1e150, 1.3e154], 3),
                                    Params(3, 0.75))
    exact = lam * (1.0 + d * d) ** -2.0
    assert np.all(np.abs(res.value - exact) <= res.error)
    # the value at 1e4 is what f(x) - S leaves of f(x) = 1e-8
    assert res.error[0] < 1e-6 * w.radial_profile(1e4)
    assert math.isfinite(edge.value) and math.isfinite(edge.error)
    assert np.all(steep.value == 0.0) and np.all(steep.error == 0.0)


def test_riesz_potential_far_out_keeps_its_decay_law():
    # the potential of the bubble decays like |x|^{4 sigma - n}; the kernel
    # terms are formed as ratios, so rho^{n-1} and |x|^2 never overflow
    pr = Params(5, 0.5)
    w = bubbles.standard_bubble(pr)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fracops.riesz_potential(w, _on_axis([1e60, 1e76, 1e100], 5), pr)
    assert np.all(np.isfinite(res.value)) and np.all(np.isfinite(res.error))
    assert res.value[1] == pytest.approx(res.value[0] * 1e-48, rel=1e-10)


def test_riesz_potential_past_the_normal_range_is_right_or_barred():
    # the bubble at (5, 1/2) decays like rho^-4, slower than rho^-n, so the
    # terms near rho = d carry its potential; once the profile there leaves
    # the normal float range, the bar must cover what is lost, or the call
    # must refuse |x| by name
    pr = Params(5, 0.5)
    w = bubbles.standard_bubble(pr)
    ref = fracops.riesz_potential(w, _on_axis([1e10], 5)[0], pr)
    for d in (1e70, 1e80, 1e90, 1e100):
        law = ref.value * (d / 1e10) ** -3.0
        try:
            res = fracops.riesz_potential(w, _on_axis([d], 5)[0], pr)
        except ValueError as exc:
            assert d > 1e70 and "|x|" in str(exc), d
            continue
        assert abs(res.value - law) <= res.error, d
    # a field decaying like rho^{-n-2 sigma} keeps its value in the moments
    res = fracops.riesz_potential(_bubble_source(pr), _on_axis([1e60], 5)[0],
                                  pr)
    want = float(bubbles.model_bubble(pr).radial_profile(np.array([1e60]))[0])
    assert res.value == pytest.approx(want, rel=1e-12)
