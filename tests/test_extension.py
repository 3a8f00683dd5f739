import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from fraclab import bubbles, constants, extension, fracops, green
from fraclab.fields import ScalarField, radial_field
from fraclab.params import Params


def _const_one(n):
    return ScalarField(lambda x: np.ones(x.shape[0]), n=n,
                       decay="integrable_against_kernel")


@pytest.mark.parametrize("n,s", [(2, 0.5), (3, 0.5), (3, 0.25)])
def test_poisson_mass(n, s):
    pr = Params(n, s)
    val = extension.extend(_const_one(n), np.zeros(n), 0.7, pr)
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_half_order_closed_form_matches_quadrature(n):
    pr = Params(n, 0.5)
    w = bubbles.model_bubble(pr)
    for d, t in ((0.0, 0.5), (0.8, 0.3), (1.5, 2.0)):
        y = d * np.eye(n)[0]
        direct = extension.model_bubble_extension_halforder(y, t, pr)
        quad = extension.extend(w, y, t, pr)
        assert quad == pytest.approx(direct, rel=1e-3)


def _half_order_worst(n, radii):
    """Worst relative gap between extend and the sigma = 1/2 closed form
    over |Y| in radii and nine directions from the boundary to the axis."""
    pr = Params(n, 0.5)
    w = bubbles.model_bubble(pr)
    ang = np.linspace(0.02, np.pi / 2 - 0.02, 9)
    rows = np.array([(r * np.cos(a), r * np.sin(a)) for r in radii for a in ang])
    y = rows[:, :1] * np.eye(n)[0]
    quad = extension.extend(w, y, rows[:, 1], pr)
    direct = extension.model_bubble_extension_halforder(y, rows[:, 1], pr)
    return float(np.max(np.abs(quad - direct) / direct))


@pytest.mark.parametrize("n", [2, 3])
def test_half_order_closed_form_near_the_bubble(n):
    assert _half_order_worst(n, (0.5, 1.0, 2.0, 5.0)) < 1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_half_order_closed_form_far_out(n):
    assert _half_order_worst(n, (20.0, 50.0)) < 1e-3


def _bubble_worst(n, s, radii):
    """Worst relative gap between extend and model_bubble_extension over
    the radii and directions of :func:`_half_order_worst`."""
    pr = Params(n, s)
    ang = np.linspace(0.02, np.pi / 2 - 0.02, 9)
    rows = np.array([(r * np.cos(a), r * np.sin(a)) for r in radii for a in ang])
    y = rows[:, :1] * np.eye(n)[0]
    quad = extension.extend(bubbles.model_bubble(pr), y, rows[:, 1], pr)
    direct = extension.model_bubble_extension(y, rows[:, 1], pr)
    return float(np.max(np.abs(quad - direct) / direct))


@pytest.mark.parametrize("n,s", [(2, 0.25), (3, 0.25), (2, 0.75), (3, 0.75)])
def test_bubble_oracle_near_the_bubble(n, s):
    assert _bubble_worst(n, s, (0.5, 1.0, 2.0, 5.0)) < 1e-6


@pytest.mark.parametrize("n,s", [(2, 0.25), (3, 0.25), (2, 0.75), (3, 0.75)])
def test_bubble_oracle_far_out(n, s):
    assert _bubble_worst(n, s, (20.0, 50.0)) < 1e-3


def _off_centre_bubble(n):
    centre = 0.3 * np.ones(n)
    return ScalarField(lambda x: 1.0 / (1.0 + np.sum((x - centre) ** 2, axis=1)),
                       n=n, decay="power_decay", decay_rate=2.0)


@pytest.mark.parametrize("n,s", [(2, 0.25), (3, 0.75), (3, 0.5)])
@pytest.mark.parametrize("radial", [True, False])
def test_extend_batch_equals_single(n, s, radial):
    pr = Params(n, s)
    field = bubbles.model_bubble(pr) if radial else _off_centre_bubble(n)
    rng = np.random.default_rng(3)
    m = 2 * fracops.BLOCK + 3
    ys = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-2, 1.5, size=(m, 1))
    ts = 10.0 ** rng.uniform(-3, 2, size=m)
    ts[:2] = 2.0 ** -12 * np.array([0.95, 1.05])
    batch = extension.extend(field, ys, ts, pr)
    single = [extension.extend(field, y, t, pr) for y, t in zip(ys, ts)]
    assert batch.shape == (m,) and all(isinstance(v, float) for v in single)
    np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n,s", [(1, 0.25), (2, 0.25), (2, 0.75), (3, 0.5),
                                 (5, 0.75), (7, 0.25)])
def test_extend_reaches_the_trace(n, s):
    # down to t = 1e-6 the head is 1e-3 max(1, |y|) wide in r, and the
    # power-decay tail law takes over past t r = 1e3 max(1, |y|)
    pr = Params(n, s)
    d, t = np.meshgrid((0.0, 0.3, 1.0, 3.0), (1e-6, 1e-4, 1e-2))
    y = d.reshape(-1, 1) * np.eye(n)[0]
    got = extension.extend(bubbles.model_bubble(pr), y, t.ravel(), pr)
    want = extension.model_bubble_extension(y, t.ravel(), pr)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("n,s", [(1, 0.25), (2, 0.75), (3, 0.5)])
def test_extend_far_along_the_boundary(n, s):
    # INNER_RADIUS max(1, |y|) would put the head past the Poisson kernel's
    # width for |y| >~ 100, where the kernel is no longer r^(n-1)
    pr = Params(n, s)
    d, t = np.meshgrid((1e2, 1e3, 1e4), (1e-3, 0.5))
    y = d.reshape(-1, 1) * np.eye(n)[0]
    got = extension.extend(bubbles.model_bubble(pr), y, t.ravel(), pr)
    want = extension.model_bubble_extension(y, t.ravel(), pr)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=0.0)


def test_extend_rejects_the_boundary():
    w = bubbles.model_bubble(Params(2, 0.25))
    with pytest.raises(ValueError, match="t > 0"):
        extension.extend(w, np.zeros((2, 2)), np.array([0.5, 0.0]),
                         Params(2, 0.25))


def test_extend_refuses_a_field_that_is_not_radial_above_three_dimensions():
    pr = Params(5, 0.5)
    sb = bubbles.standard_bubble(pr, center=0.3 * np.ones(5))
    with pytest.raises(ValueError,
                       match="a field with a radial_profile, or n <= 3"):
        extension.extend(sb, np.zeros((2, 5)), np.array([0.5, 1.0]), pr)


def test_half_order_closed_form_guard():
    with pytest.raises(ValueError):
        extension.model_bubble_extension_halforder(np.zeros(2), 1.0,
                                                   Params(2, 0.75))


@pytest.mark.parametrize("n,s", [(2, 0.5), (3, 0.5), (3, 0.75)])
def test_conormal_reproduces_critical_power(n, s):
    pr = Params(n, s)
    w = bubbles.model_bubble(pr)
    cset = constants.constant_set(pr)
    for d in (0.0, 0.5, 1.2):
        y = d * np.eye(n)[0]
        der = extension.conormal_derivative(w, y, pr)
        ref = cset.c_tilde * w.at(y) ** pr.p
        assert der == pytest.approx(ref, rel=1e-2)


def _ladder_reference(U, t_top, ks, sigma):
    """The Richardson ladder with U taken one height at a time."""
    q = 0.05
    rho = 2.0 ** (-(2.0 - 2.0 * sigma))
    ladder = []
    for k in ks:
        t = t_top * 2.0 ** (-k)
        du = (U(t * (1 + q)) - U(t * (1 - q))) / (2 * q * t)
        ladder.append(-t ** (1.0 - 2.0 * sigma) * du)
    extrap = [(ladder[i + 1] - rho * ladder[i]) / (1.0 - rho)
              for i in range(len(ladder) - 1)]
    diffs = [abs(extrap[i + 1] - extrap[i]) for i in range(len(extrap) - 1)]
    return extrap[int(np.argmin(diffs)) + 1]


@pytest.mark.parametrize("n", [2, 3])
def test_conormal_limit_takes_every_height_in_one_call(n):
    pr = Params(n, 0.5)
    y = 0.7 * np.eye(n)[0]

    def one(t):
        return extension.model_bubble_extension_halforder(y, t, pr)

    calls = []

    def batched(ts):
        calls.append(list(ts))
        return [one(t) for t in ts]

    ks = range(3, 13)
    got = extension.conormal_limit(batched, 1.0, ks, pr.sigma)
    assert len(calls) == 1 and len(calls[0]) == 2 * len(ks)
    assert got == _ladder_reference(one, 1.0, ks, pr.sigma)


@pytest.mark.parametrize("ks", [range(3, 5), range(3, 4), range(0)])
def test_conormal_limit_needs_three_levels(ks):
    with pytest.raises(ValueError, match="at least three levels"):
        extension.conormal_limit(lambda ts: [1.0] * len(ts), 1.0, ks, 0.5)


def _indicator(n):
    """The indicator of the unit ball, radial with a kink at 1."""
    return radial_field(lambda r: (np.abs(r) <= 1.0).astype(float), n,
                        decay="compact_support", support_radius=1.0,
                        kink_radii=(1.0,))


SIGMAS = (0.25, 0.5, 0.75)
HEIGHTS = (1e-3, 1e-2, 0.1, 1.0, 10.0)


@pytest.mark.parametrize("s", SIGMAS)
def test_extend_of_the_interval_indicator_matches_mpmath(s):
    # U(y, t) = gamma int_{(-1-y)/t}^{(1-y)/t} (1 + v^2)^{-(1+2s)/2} dv
    pr = Params(1, s)
    gamma = constants.constant_set(pr).gamma_poisson
    ys = np.array([0.0, 0.5, 0.9, 0.99, 1.01, 1.5, 3.0])
    rows = np.array([(y, t) for y in ys for t in HEIGHTS])
    got = extension.extend(_indicator(1), rows[:, :1], rows[:, 1], pr)
    for (y, t), value in zip(rows, got):
        lo, hi = (-1.0 - y) / t, (1.0 - y) / t
        # breaks at 0 and at every decade, where the integrand bends
        cuts = [v for v in np.concatenate([[0.0], np.logspace(-2, 4, 7),
                                           -np.logspace(-2, 4, 7)])
                if lo < v < hi]
        ref = gamma * mp.quad(lambda v: (1 + v * v) ** (-mp.mpf(1 + 2 * s) / 2),
                              sorted([lo, hi] + cuts))
        assert abs(value - ref) <= 1e-6 * ref, (y, t)


@pytest.mark.parametrize("s", SIGMAS)
def test_extend_of_the_disk_indicator_matches_its_angular_form(s):
    # about y, the disk is rho_lo < rho < rho_hi along each angle theta, and
    # U = gamma / (2s) int [(t^2/(rho_lo^2+t^2))^s - (t^2/(rho_hi^2+t^2))^s]
    pr = Params(2, s)
    gamma = constants.constant_set(pr).gamma_poisson
    rows = np.array([(y, t) for y in (0.5, 0.9, 1.5) for t in HEIGHTS])
    got = extension.extend(_indicator(2), rows[:, :1] * np.eye(2)[0],
                           rows[:, 1], pr)
    for (y, t), value in zip(rows, got):
        def ray(theta):
            # |y e1 + rho (cos, sin)| = 1: rho = -y cos +- sqrt(root)
            b = y * mp.cos(theta)
            root = b * b - y * y + 1
            if root <= 0:
                return mp.mpf(0)
            lo, hi = max(-b - mp.sqrt(root), 0), -b + mp.sqrt(root)
            if hi <= 0:
                return mp.mpf(0)
            return ((t * t / (lo * lo + t * t)) ** s
                    - (t * t / (hi * hi + t * t)) ** s)
        cuts = [0, mp.pi, 2 * mp.pi]
        if y > 1:
            # the tangent angles, where rho_lo and rho_hi meet
            tangent = mp.asin(1 / mp.mpf(y))
            cuts = sorted(cuts + [mp.pi - tangent, mp.pi + tangent])
        ref = gamma / (2 * s) * mp.quad(ray, cuts)
        assert abs(value - ref) <= 1e-6 * ref, (y, t)


# --- the Feynman-parameter extension of the model bubble -------------------

@pytest.mark.parametrize("n", [2, 3])
def test_model_bubble_extension_matches_the_half_order_closed_form(n):
    pr = Params(n, 0.5)
    rows = green._halfspace_samples(np.random.default_rng(5), 500, n,
                                     0.5, 50.0)
    low = np.array([(d,) + (0.0,) * (n - 1) + (t,)
                    for d in (0.0, 0.7, 3.0, 30.0) for t in (2.4e-4, 1e-3)])
    rows = np.concatenate([rows, low])
    got = extension.model_bubble_extension(rows[:, :n], rows[:, n], pr)
    ref = extension.model_bubble_extension_halforder(rows[:, :n], rows[:, n], pr)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


#: (|y|, t) of the quadrature oracles: far out, near the boundary, between.
ORACLE_POINTS = ((30.0, 2.0), (0.7, 0.05), (2.0, 0.5))


def _poisson_n1(d, t, s):
    """U(d, t) at n = 1 by scipy quad of the Poisson integral in z."""
    a, b = 0.5 + s, 0.5 - s
    f = lambda z: (t * t + (d - z) ** 2) ** (-a) * (1.0 + z * z) ** (-b)
    cuts = sorted({d - 10 * t, d - t, d, d + t, d + 10 * t, -1.0, 0.0, 1.0})
    cuts = [-math.inf, cuts[0] - 10.0] + cuts + [cuts[-1] + 10.0, math.inf]
    total = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    return constants.gamma_poisson(Params(1, s)) * t ** (2 * s) * total


def _poisson_n2(d, t, s):
    """U((d, 0), t) at n = 2 by scipy dblquad of the Poisson integral, in
    polar coordinates z = y + rho (cos th, sin th) about y, th in [0, pi]
    counted twice."""
    a, b = 1.0 + s, 1.0 - s
    f = lambda th, rho: 2.0 * rho * (t * t + rho * rho) ** (-a) * (
        1.0 + d * d + 2.0 * rho * d * math.cos(th) + rho * rho) ** (-b)
    cuts = sorted({0.0, t, 10 * t, max(d - 1.0, 0.0), d, d + 1.0,
                   2 * d + 10.0}) + [math.inf]
    total = sum(integrate.dblquad(f, lo, hi, 0.0, math.pi, epsabs=0.0,
                                  epsrel=1e-13)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo)
    return constants.gamma_poisson(Params(2, s)) * t ** (2 * s) * total


@pytest.mark.parametrize("n,s", [(1, 0.1), (1, 0.25), (1, 0.4),
                                 (2, 0.25), (2, 0.75), (2, 0.9)])
def test_model_bubble_extension_matches_the_poisson_integral(n, s):
    pr = Params(n, s)
    oracle = _poisson_n1 if n == 1 else _poisson_n2
    for d, t in ORACLE_POINTS:
        got = extension.model_bubble_extension(d * np.eye(n)[0], t, pr)
        assert got == pytest.approx(oracle(d, t, s), rel=1e-10, abs=0.0), (d, t)


@pytest.mark.parametrize("n,s", [(2, 0.25), (3, 0.75)])
def test_model_bubble_extension_batch_equals_single(n, s):
    pr = Params(n, s)
    rows = green._halfspace_samples(np.random.default_rng(6),
                                    extension.BUBBLE_BLOCK + 3, n, 1e-2, 1e2)
    rows[:2, n] = [2.4e-4, 30.0]
    batch = extension.model_bubble_extension(rows[:, :n], rows[:, n], pr)
    single = [extension.model_bubble_extension(r[:n], r[n], pr) for r in rows]
    assert batch.shape == (len(rows),) and all(isinstance(v, float)
                                                for v in single)
    np.testing.assert_array_equal(batch, single)


@pytest.mark.parametrize("n,s", [(1, 0.4), (3, 0.75), (9, 0.25)])
def test_model_bubble_extension_reaches_the_trace(n, s):
    # near t = 1e-145 the end power, C^(-n/2) and t^(2s) each leave the
    # float range; their product does not
    pr = Params(n, s)
    y = np.array([(0.0,) * n, (0.5,) + (0.0,) * (n - 1), (1e3,) * n])
    t = 2e-145 * np.sqrt(1.0 + 1e6 * n)
    got = extension.model_bubble_extension(y, np.full(3, t), pr)
    trace = (1.0 + np.sum(y * y, axis=1)) ** (-pr.half_exp)
    np.testing.assert_allclose(got, trace, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [0.0, -0.5, 1e-146])
def test_model_bubble_extension_rejects_the_boundary(t):
    with pytest.raises(ValueError, match="t > 0"):
        extension.model_bubble_extension(np.zeros((2, 2)), np.array([0.5, t]),
                                         Params(2, 0.25))


def test_points_beyond_the_float_range():
    # |y| is taken scaled; a point whose |y|^2 overflows is refused up front
    pr = Params(3, 0.5)
    w = bubbles.model_bubble(pr)
    with pytest.raises(ValueError, match=r"\|x\| = 2e\+154"):
        extension.extend(w, np.array([2e154, 0.0, 0.0]), 0.5, pr)
    for y in (1e150, 1e-160):
        val = extension.extend(w, np.array([y, 0.0, 0.0]), 0.5, pr)
        assert math.isfinite(val) and val > 0.0


def test_extension_of_an_indicator_keeps_its_support():
    # at n = 1, sigma = 1/2 the extension of 1_[-1, 1] is
    # (atan((1 - y) / t) + atan((1 + y) / t)) / pi; the panels run past the
    # support at any t, however far y is from it
    pr = Params(1, 0.5)
    box = radial_field(lambda r: (np.abs(r) <= 1.0).astype(float), 1,
                       decay="compact_support", support_radius=1.0)
    y, t = (a.ravel() for a in np.meshgrid([0.0, 0.5, 0.99, 2.0, 10.0],
                                           [1e-4, 1e-2, 1.0]))
    want = (np.arctan((1.0 - y) / t) + np.arctan((1.0 + y) / t)) / np.pi
    got = extension.extend(box, y[:, None], t, pr)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_extension_far_out_matches_the_closed_form(n):
    # no power of the Poisson kernel overflows at a far node, so far points
    # keep the half-order closed form and stay finite up to 1.3e154
    pr = Params(n, 0.5)
    w = bubbles.model_bubble(pr)
    y = np.zeros((3, n))
    y[:, 0] = (1e150, 1e150, 1.3e154)
    t = np.array([1e-3, 0.5, 1e-3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = extension.extend(w, y, t, pr)
    want = extension.model_bubble_extension_halforder(y[:2], t[:2], pr)
    np.testing.assert_allclose(got[:2], want, rtol=1e-10, atol=0.0)
    assert np.isfinite(got[2])
