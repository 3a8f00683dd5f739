import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from fraclab import construction as cn, fracops
from fraclab.fields import ScalarField, radial_field
from fraclab.params import Params

PR = Params(5, 0.5)


def _unit_k(n=5):
    return ScalarField(lambda x: np.ones(np.atleast_2d(x).shape[0]), n=n,
                       decay="integrable_against_kernel")


@pytest.fixture(scope="module")
def plan():
    return cn.plan_sequences(PR, _unit_k(), lambda r: r ** -10.0, N=8)


def _draw(rng, count, lo, hi):
    """count seeded points, drawn one by one: a normal direction scaled to
    length 10^U(lo, hi)."""
    pts = np.empty((count, 5))
    for j in range(count):
        x = rng.normal(size=5)
        x *= 10.0 ** rng.uniform(lo, hi) / np.linalg.norm(x)
        pts[j] = x
    return pts


# --- envelopes ---------------------------------------------------------------

def test_envelope_worked_example():
    # n=5, sigma=1/2: argmax of z -> z2 (z + z3)^p - z^p at z2=1/2, z3=1
    log_z, log_m = cn.log_envelope(math.log(0.5), math.log(1.0), PR)
    z, m = math.exp(log_z), math.exp(log_m)
    assert z == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert m == pytest.approx(0.5 / math.sqrt(0.75), rel=1e-12)
    assert cn.f_val(z, 0.5, 1.0, PR) == pytest.approx(m, rel=1e-12)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=150, deadline=None)
def test_envelope_dominates_f(z2, z3, z1):
    # F equals f up to the argmax and caps it at the maximum beyond
    f = cn.f_val(z1, z2, z3, PR)
    big = cn.big_f_val(z1, z2, z3, PR)
    assert f <= big * (1.0 + 1e-12) + 1e-12
    log_m = cn.log_envelope(math.log(z2), math.log(z3), PR)[1]
    assert big <= math.exp(log_m) * (1.0 + 1e-12)


def test_envelope_extreme_scale_stability():
    # 1 - z2 ~ 1e-131 must flow through expm1/log1p without rounding to 0
    omz = 1e-131
    m = math.exp(cn.log_envelope(math.log1p(-omz), 0.0, PR)[1])
    assert m == pytest.approx((2.0 * omz) ** -0.5, rel=1e-6)


# --- the log-space core against mpmath ---------------------------------------
#
# The references are the naive closed forms, evaluated in mpmath with 60
# digits to spare beyond the worst cancellation (1 - z2 down to 1e-300 and
# f down to 1e-300 of z1^p need about 320 more), so they share no
# expm1/log1p rewriting with the float core.

CORE_PARAMS = [Params(2, 0.75), Params(3, 0.25), Params(3, 0.5),
               Params(3, 0.75), Params(5, 0.5), Params(7, 0.25)]
MP_DPS = 60 + 330

log_one_minus_z2 = st.floats(min_value=math.log(1e-300), max_value=math.log(0.5))


def _mp_exponents(pr):
    nm2s = mpmath.mpf(pr.kelvin_exp)
    return nm2s / (4 * mpmath.mpf(pr.sigma)), (pr.n + 2 * mpmath.mpf(pr.sigma)) / nm2s


def _agree(got, want, rel):
    return abs(got - float(want)) <= rel * max(1.0, abs(float(want)))


@given(st.sampled_from(CORE_PARAMS), log_one_minus_z2,
       st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_log_envelope_matches_mpmath(pr, log_omz, log_z3):
    lz2 = math.log1p(-math.exp(log_omz))
    log_z, log_m = cn.log_envelope(lz2, log_z3, pr)
    with mpmath.workdps(MP_DPS):
        q, p = _mp_exponents(pr)
        z2q = mpmath.exp(mpmath.mpf(lz2)) ** q
        z3 = mpmath.exp(mpmath.mpf(log_z3))
        want_z = mpmath.log(z3 * z2q / (1 - z2q))
        want_m = mpmath.log(mpmath.exp(mpmath.mpf(lz2)) * z3 ** p
                            / (1 - z2q) ** (1 / q))
    assert _agree(log_z, want_z, 1e-12)
    assert _agree(log_m, want_m, 1e-12)


@given(st.sampled_from(CORE_PARAMS), log_one_minus_z2,
       st.floats(min_value=-700.0, max_value=700.0),
       st.floats(min_value=-700.0, max_value=700.0))
@settings(max_examples=200, deadline=None)
def test_log_f_matches_mpmath(pr, log_omz, log_z1, log_z3):
    lz2 = math.log1p(-math.exp(log_omz))
    with mpmath.workdps(MP_DPS):
        _, p = _mp_exponents(pr)
        z1, z3 = mpmath.exp(mpmath.mpf(log_z1)), mpmath.exp(mpmath.mpf(log_z3))
        # away from the root of f, where the float inner exponent
        # log z2 + p log1p(z3/z1) has no relative accuracy left
        spread = p * mpmath.log1p(z3 / z1)
        inner = mpmath.mpf(lz2) + spread
        assume(abs(inner) > 1e-3 * (abs(lz2) + spread
                                    * (1 + abs(log_z1) + abs(log_z3))))
        f = mpmath.exp(mpmath.mpf(lz2)) * (z1 + z3) ** p - z1 ** p
        want = mpmath.log(abs(f))
    lg, sign = cn.log_f(log_z1, lz2, log_z3, pr.p)
    assert sign == (1.0 if f > 0 else -1.0)
    assert _agree(lg, want, 1e-12)


@given(st.sampled_from(CORE_PARAMS), log_one_minus_z2,
       st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_f_at_the_argmax_is_the_maximum(pr, log_omz, log_z3):
    lz2 = math.log1p(-math.exp(log_omz))
    log_z, log_m = cn.log_envelope(lz2, log_z3, pr)
    lg, sign = cn.log_f(log_z, lz2, log_z3, pr.p)
    assert sign == 1.0
    assert _agree(lg, log_m, 1e-10)


@given(st.sampled_from(CORE_PARAMS), st.floats(min_value=1e-3, max_value=1 - 1e-3))
@settings(max_examples=200, deadline=None)
def test_one_minus_k_round_trip(pr, u):
    # representable M: from 1 - k = 1/2 down to the smallest normal float
    # (subnormal 1 - k loses digits), capped below the float overflow
    lo = cn.log_envelope(math.log(0.5), 0.0, pr)[1]
    hi = min(cn.log_envelope(-sys.float_info.min, 0.0, pr)[1], 700.0)
    m = math.exp(lo + u * (hi - lo))
    back = cn.m_from_one_minus_k(cn.one_minus_k_for_m(m, pr), pr)
    assert back == pytest.approx(m, rel=1e-10)


def test_cutoff_shape():
    assert cn.eta_cutoff(0.5) == 1.0
    assert cn.eta_cutoff(2.0) == 0.0
    mid = cn.eta_cutoff(1.25)
    assert 0.0 < mid < 1.0


# --- plan selection ----------------------------------------------------------

def test_ring_count_and_exponent_formulas():
    assert cn.i0_from_formula(PR, 0.5) == 257
    assert cn.beta_from_formula(PR) == pytest.approx(1.0 / 27.0, rel=1e-14)


def test_beta_needs_high_dimension():
    with pytest.raises(ValueError):
        cn.beta_from_formula(Params(3, 0.5))


def test_plan_validator(plan):
    rep = cn.validate_plan(plan)
    failures = [k for k, v in rep.items() if not v[0]]
    assert not failures
    assert rep["all_pass"][0]


@pytest.mark.parametrize("which", ["plan", "deep_plan"])
def test_plan_validator_checks_rho_at_the_centres(which, request):
    # the rho inequality binds at dist = 0, which the spot checks now draw:
    # the true plan meets it there, a 0.1% larger rho breaks it by ~1e-3
    plan = request.getfixturevalue(which)
    raised = dataclasses.replace(plan, rho=plan.rho * 1.001)
    for seed in range(20):
        assert cn.validate_plan(plan, seed)["rho defining inequality"][0]
        assert not cn.validate_plan(raised,
                                    seed)["rho defining inequality"][0]


def test_plan_reduced_mode_shape(plan):
    assert plan.reduced and plan.n_mat == 8
    assert plan.i0 == 257
    # eps is shared on the ring; the other sequences follow their budgets
    assert np.all(plan.eps == plan.eps[0])
    assert np.all(np.diff(plan.m_big) > 0.0)
    assert np.all(np.diff(plan.rho) < 0.0)
    assert np.all(np.diff(plan.lam) < 0.0)
    assert np.all(np.diff(plan.one_minus_k) < 0.0)


def test_scaling_laws_within_factor_four(plan):
    # M_i ~ (1 - k_i)^{-4s/(n-2s)}, rho_i^{2s} ~ 1/(2^i M_i),
    # lambda_i ~ eps_i^{2/(n-2s)} rho_i^2 -- ratios stable across i <= 8
    q = 4.0 * PR.sigma / PR.kelvin_exp
    r1 = [plan.m_big[i] * plan.one_minus_k[i] ** q for i in range(8)]
    r2 = [plan.rho[i] ** (2 * PR.sigma) * 2.0 ** (i + 1) * plan.m_big[i]
          for i in range(8)]
    r3 = [plan.lam[i] / (plan.eps[i] ** (2.0 / PR.kelvin_exp)
                         * plan.rho[i] ** 2) for i in range(8)]
    for ratios in (r1, r2, r3):
        assert max(ratios) / min(ratios) < 4.0


def test_blowup_beats_prescribed_rate(plan):
    phi = lambda r: r ** -10.0
    for i in range(8):
        peak = cn.assemble_u(plan, "zero", (i, np.zeros(5)))
        assert peak > (i + 1) * phi(float(np.linalg.norm(plan.centers[i])))


def test_off_ball_sum_bound(plan):
    pts = _draw(np.random.default_rng(11), 2000, -2, 2)
    qe = PR.kelvin_exp / (4.0 * PR.sigma)
    assert np.all(cn.bubble_sum(plan, pts) <= plan.a ** qe
                  * plan.w_profile(np.linalg.norm(pts, axis=1)))


def test_center_difference_precision(plan):
    # adjacent ring centers are 4 rho_1 apart even though |x_i| ~ 1e-2
    side = np.linalg.norm(plan.center_difference(1, 0))
    assert side == pytest.approx(4.0 * plan.rho[0], rel=1e-12)


# --- assembled fields --------------------------------------------------------

def test_kappa_values(plan):
    assert cn.kappa_eval(plan, np.array([0.2, 0.1, 0.0, 0.0, 0.0])) == 1.0
    on_plateau = cn.kappa_eval(plan, (3, np.zeros(5)))
    assert on_plateau == 1.0 - plan.one_minus_k[3]


def test_collar_slope_schedule_envelope(plan):
    # the collar slopes respect the geometric envelope along the schedule
    slopes = [plan.one_minus_k[i] / plan.rho[i] for i in range(8)]
    env = [(2.0 / 3.0) ** ((i + 1) / (2.0 * PR.sigma)) for i in range(8)]
    const = max(s / e for s, e in zip(slopes, env))
    assert all(s <= const * e * (1.0 + 1e-12)
               for s, e in zip(slopes, env))
    assert all(a >= b - 1e-15 for a, b in zip(slopes, slopes[1:]))


def test_tent_potential_matches_the_tent_field():
    # the tent is 1 on B_rho and falls linearly to 0 at 2 rho
    rho = 0.5
    tent = radial_field(
        lambda r: np.clip(2.0 - np.asarray(r, dtype=float) / rho, 0.0, 1.0),
        5, decay="compact_support", support_radius=2.0 * rho,
        kink_radii=(rho, 2.0 * rho))
    d = rho * np.array([0.0, 0.5, 1.5, 3.0, 10.0, 1999.0, 2001.0])
    x = np.zeros((d.size, 5))
    x[:, 0] = d
    want = fracops.riesz_potential(tent, x, PR).value
    got = [cn._tent_riesz(di, rho, PR) for di in d]
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=0.0)
    assert cn._tent_riesz(math.inf, rho, PR) == 0.0


@pytest.mark.parametrize("n,s", [(n, s) for n in (2, 3, 5)
                                 for s in (0.25, 0.5, 0.75)])
def test_tent_potential_is_graded_at_the_kink(n, s):
    # the potential of B_r at d is not smooth in r at r = d: adaptive
    # quadrature split there is the reference
    pr, rho = Params(n, s), 0.5
    for ratio in (0.5, 1.2, 1.5, 1.9, 1.999, 3.0):
        d = ratio * rho
        knots = sorted({rho, min(max(d, rho), 2.0 * rho), 2.0 * rho})
        want = sum(quad(lambda r: fracops.riesz_ball_indicator(d, r, pr),
                        a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for a, b in zip(knots[:-1], knots[1:])) / rho
        assert cn._tent_riesz(d, rho, pr) == pytest.approx(want, rel=1e-6)


def test_vbar_sandwich(plan):
    # far out the tents add less than an ulp, so vbar is w / 2b to the last
    # bit; w takes each radius from its own norm and the array power
    pts = _draw(np.random.default_rng(5), 200, -2, 1.5)
    radius = np.array([np.linalg.norm(x) for x in pts])
    assert np.array_equal(plan.distances_to_centers(pts)[1], radius)
    w = plan.w_profile(radius)
    v = cn.vbar_eval(plan, pts)
    assert np.all((w / (2.0 * plan.b) <= v) & (v < w) & (v < plan.amplitude))
    ring = (np.zeros(3, dtype=int), np.outer([0.0, 1.0, 3.0], np.eye(5)[0]) * plan.rho[0])
    radius = np.array([np.linalg.norm(plan.centers[0] + x) for x in ring[1]])
    assert np.array_equal(plan.distances_to_centers(ring)[1], radius)
    w = plan.w_profile(radius)
    v = cn.vbar_eval(plan, ring)
    assert np.all((w / (2.0 * plan.b) < v) & (v < w))


def test_log_h_off_the_cores_is_the_power_gap(plan):
    # off every cutoff kappa = k = 1, where H(x, v) = (v + sum u)^p - sum u^p
    rng = np.random.default_rng(9)
    p = PR.p
    pts, v = np.empty((300, 5)), np.empty(300)
    for j in range(300):
        pts[j] = _draw(rng, 1, -2, 1)[0]
        v[j] = 10.0 ** rng.uniform(-6, 0)
    u = np.exp(cn.bubble_logs(plan, pts))
    lg, sign = cn.log_h(plan, pts, v)
    assert np.all(sign == 1.0)
    np.testing.assert_allclose(lg, np.log((v + u.sum(axis=1)) ** p
                                          - np.sum(u ** p, axis=1)), rtol=1e-9)
    # midway between ring neighbours the second bubble is not negligible
    # against v, so p(x, v) = v + sum u - u_tilde carries the gap
    for i in range(plan.n_mat - 1):
        pt = (i, 0.5 * plan.center_difference(i + 1, i))
        u = np.exp(cn.bubble_logs(plan, pt))
        lg, sign = cn.log_h(plan, pt, 1e-9)
        assert sign == 1.0
        assert lg == pytest.approx(math.log((1e-9 + u.sum()) ** p
                                            - np.sum(u ** p)), rel=1e-9)


def test_h_below_barrier_source(plan):
    # H(x, v) <= (2b)^p w^p <= (-lap)^s vbar for 0 <= v <= w(x), off the cores
    rng = np.random.default_rng(21)
    p = PR.p
    for _ in range(200):
        x = rng.normal(size=5)
        x *= 10.0 ** rng.uniform(-2, 1) / np.linalg.norm(x)
        w = float(plan.w_profile(np.linalg.norm(x)))
        lg, sign = cn.log_h(plan, x, w * rng.random())
        log_w_part = p * math.log(2.0 * plan.b * w)
        assert sign == 1.0 and lg <= log_w_part + 1e-10
        assert log_w_part <= cn.log_barrier_source(plan, x) + 1e-12
    # at v = vbar on the core rings, where the bubbles make H largest
    for i in range(plan.n_mat):
        for t in (0.0, 0.5, 1.0, 1.5):
            pt = (i, np.array([t * plan.rho[i], 0.0, 0.0, 0.0, 0.0]))
            lg, _ = cn.log_h(plan, pt, cn.vbar_eval(plan, pt))
            assert lg < cn.log_barrier_source(plan, pt)


def test_k_assemble_bounds(plan):
    k0 = cn.k_assemble(plan, "zero", _draw(np.random.default_rng(17), 500, -2, 2))
    assert np.all((0.0 < k0) & (k0 <= 1.0 + 1e-6))
    assert cn.k_assemble(plan, "zero", (2, np.zeros(5))) <= 1.0 + 1e-12


def test_assemble_u_modes(plan):
    pt = np.array([0.3, 0.0, 0.0, 0.0, 0.0])
    zero = cn.assemble_u(plan, "zero", pt)
    sup = cn.assemble_u(plan, "supersolution", pt)
    assert sup > zero
    for bogus in ("bogus", lambda x: 0.5):
        with pytest.raises(ValueError):
            cn.assemble_u(plan, bogus, pt)


def test_infeasible_plan_reporting():
    with pytest.raises(cn.InfeasiblePlanError):
        cn.plan_sequences(PR, _unit_k(), lambda r: r ** -10.0, N=0)


def test_sigma_quarter_refused_at_the_float_floor():
    # at sigma = 1/4 the first target already needs log(1 - k_8) below -740,
    # so no larger M can help: the plan is refused at once, by name
    for n in (4, 5, 7):
        with pytest.raises(cn.InfeasiblePlanError,
                           match=r"1 - k for M = .* falls below the float floor"):
            cn.plan_sequences(Params(n, 0.25), _unit_k(n), lambda r: r ** -10.0,
                              N=8, seed=7)


# --- the closed forms against the bisection searches they replaced ---------------

def _bisect(pred, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bisected_one_minus_k(m_target, pr):
    lo, hi = _bisect(lambda mid: cn.m_from_one_minus_k(math.exp(mid), pr) > m_target,
                     -740.0, math.log(0.5), 200)
    return math.exp(0.5 * (lo + hi))


def _log_budget_w(i, m_i, c, w0, pr, dist):
    """log of w(|x_i| + dist) / (2^{i+1} (2 w0)^p M_i), the rho budget."""
    return (math.log(w0) - pr.half_exp * np.log1p((c + dist) ** 2)
            - (i + 1) * math.log(2.0) - pr.p * math.log(2.0 * w0) - math.log(m_i))


def _bisected_rho(i, m_i, c, r_i, w0, pr):
    # the center, a ladder from dist = rho out, the far-field coefficient
    n, s2 = pr.n, 2.0 * pr.sigma
    cset = cn.constants.constant_set(pr)

    def feasible(log_rho):
        rho = math.exp(log_rho)
        log_lhs0 = (math.log(cset.riesz_constant * cset.sphere_area / s2)
                    + s2 * (log_rho + math.log(2.0)))
        if log_lhs0 > _log_budget_w(i, m_i, c, w0, pr, 0.0):
            return False
        dist = np.geomspace(rho, 1e3, 24)
        lhs = fracops.riesz_ball_indicator(dist, 2.0 * rho, pr)
        live = lhs > 0.0
        if (np.log(lhs[live]) > _log_budget_w(i, m_i, c, w0, pr, dist[live])).any():
            return False
        log_far = (math.log(cset.riesz_constant * cset.sphere_area / n)
                   + n * (log_rho + math.log(2.0)))
        return log_far <= _log_budget_w(i, m_i, c, w0, pr, 0.0) \
            + pr.half_exp * math.log1p(c * c)

    hi = math.log(r_i)
    if feasible(hi):
        return r_i
    return math.exp(_bisect(feasible, -740.0, hi, 120)[0])


def _log_lambda_bound(eps, a, c, w0, pr, dist):
    """log of eps a^{(n-2s)/4s} w(|x_i| + dist), the lambda bound."""
    q = pr.kelvin_exp / (4.0 * pr.sigma)
    return (math.log(eps) + q * math.log(a) + math.log(w0)
            - pr.half_exp * np.log1p((c + dist) ** 2))


def _bisected_lambda(rho, eps, c, a, w0, pr):
    # a ladder from the sphere dist = rho out, the far-field coefficient
    amp = cn.constants.constant_set(pr).bubble_constant
    dists = np.geomspace(rho, 1e3, 32)
    log_rhs = _log_lambda_bound(eps, a, c, w0, pr, dists)

    def feasible(log_lam):
        lam = math.exp(log_lam)
        if lam >= rho:
            return False
        if np.any(cn.bubble_log_profile(lam, dists, amp, pr) > log_rhs):
            return False
        log_far = _log_lambda_bound(eps, a, c, w0, pr, 0.0) \
            + pr.half_exp * math.log1p(c * c)
        return math.log(amp) + pr.half_exp * log_lam <= log_far

    return math.exp(_bisect(feasible, -740.0, math.log(rho) - 1e-9, 120)[0])


PLAN_PARAMS = [Params(4, 0.25), Params(5, 0.25), Params(5, 0.5), Params(5, 0.75),
               Params(7, 0.25), Params(7, 0.5), Params(7, 0.75)]


@st.composite
def index_inputs(draw):
    """(params, i, |x_i|, r_i, w0) as a plan step sees them."""
    pr = draw(st.sampled_from(PLAN_PARAMS))
    c = math.exp(draw(st.floats(min_value=math.log(1e-3), max_value=math.log(0.1))))
    b = draw(st.floats(min_value=0.5, max_value=2.0))
    w0 = cn.constants.constant_set(pr).bubble_constant \
        * (2.0 * b) ** (-pr.n / (2.0 * pr.sigma))
    return pr, draw(st.integers(min_value=1, max_value=20)), c, c / 8.0, w0


@given(st.sampled_from(CORE_PARAMS), st.floats(min_value=1e-3, max_value=1 - 1e-3))
@settings(max_examples=200, deadline=None)
def test_one_minus_k_matches_the_bisection(pr, u):
    # wherever 1 - k is a normal float
    lo = cn.log_envelope(math.log(0.5), 0.0, pr)[1]
    hi = min(cn.log_envelope(-sys.float_info.min, 0.0, pr)[1], 700.0)
    m = math.exp(lo + u * (hi - lo))
    assert cn.one_minus_k_for_m(m, pr) == pytest.approx(
        _bisected_one_minus_k(m, pr), rel=1e-12)


def test_one_minus_k_below_the_float_floor_is_refused():
    for pr in PLAN_PARAMS:  # log(1 - k) = -q log M - log q for large M
        q = pr.kelvin_exp / (4.0 * pr.sigma)
        assert cn.one_minus_k_for_m(math.exp((739.0 - math.log(q)) / q), pr) > 0.0
        with pytest.raises(cn.InfeasiblePlanError, match="float floor e\\^-740"):
            cn.one_minus_k_for_m(math.exp((741.0 - math.log(q)) / q), pr)
    assert cn.one_minus_k_for_m(0.1, PR) == 0.5  # below M(1 - k = 1/2)


@given(index_inputs(), st.floats(min_value=80.0, max_value=250.0))
@settings(max_examples=60, deadline=None)
def test_rho_is_the_binding_centre(inputs, log_m):
    pr, i, c, r_i, w0 = inputs
    m_i = math.exp(log_m)
    try:
        rho = cn.rho_from_constraint(i, m_i, c, r_i, w0, pr)
    except cn.InfeasiblePlanError:
        assume(False)
    assert rho < r_i
    # the ball potential stays under its budget at the centre, inside the
    # ball and out to 1e3, and breaks it at the centre for a larger rho
    dist = np.concatenate([[0.0], np.geomspace(1e-3 * rho, 1e3, 199)])
    lhs = fracops.riesz_ball_indicator(dist, 2.0 * rho, pr)
    assert np.all(lhs <= np.exp(_log_budget_w(i, m_i, c, w0, pr, dist))
                  * (1.0 + 1e-12))
    big = fracops.riesz_ball_indicator(0.0, 2.0 * rho * (1.0 + 1e-9), pr)
    assert big > math.exp(_log_budget_w(i, m_i, c, w0, pr, 0.0))
    assert rho == pytest.approx(_bisected_rho(i, m_i, c, r_i, w0, pr), rel=1e-12)


@given(index_inputs(), st.floats(min_value=-300.0, max_value=0.0),
       st.floats(min_value=0.25, max_value=0.5),
       st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_lambda_is_the_binding_sphere(inputs, log_rho, a, eps_scale):
    pr, i, c, r_i, w0 = inputs
    rho = 0.5 * r_i * math.exp(log_rho)
    eps = eps_scale * 2.0 ** -i
    try:
        lam = cn.lambda_from_constraint(i, rho, eps, c, a, w0, pr)
    except cn.InfeasiblePlanError:
        assume(False)
    amp = cn.constants.constant_set(pr).bubble_constant
    # psi_lam stays under eps a^q w from the sphere dist = rho out to 1e3,
    # and a larger lam breaks it on the sphere (unless lam is at its cap)
    dist = np.geomspace(rho, 1e3, 200)
    assert np.all(cn.bubble_log_profile(lam, dist, amp, pr)
                  <= _log_lambda_bound(eps, a, c, w0, pr, dist) + 1e-12)
    if lam < rho * math.exp(-1e-9) * (1.0 - 1e-12):
        assert cn.bubble_log_profile(lam * (1.0 + 1e-9), rho, amp, pr) \
            > _log_lambda_bound(eps, a, c, w0, pr, rho)
    assert lam == pytest.approx(_bisected_lambda(rho, eps, c, a, w0, pr), rel=1e-12)


def test_two_centre_ratio_at_its_worst():
    # lam -> 0 with antipodal centres on |x| = delta1, in line with x at
    # |x| = delta (outside) or |x| = delta2 (inside): the ratio stays below 2
    plan = cn.plan_sequences(PR, _unit_k(), lambda r: r ** -10.0, N=8, seed=7)
    e1 = np.eye(5)[0]
    for x in (plan.delta * e1, plan.delta2 * e1):
        s1 = np.linalg.norm(x - plan.delta1 * e1)
        s2 = np.linalg.norm(x + plan.delta1 * e1)
        log_ratio = (cn.bubble_log_profile(1e-9, s1, plan.amplitude, PR)
                     - cn.bubble_log_profile(1e-9, s2, plan.amplitude, PR))
        assert math.exp(log_ratio) < 2.0
    # the radii do not depend on the seed
    assert (plan.delta1, plan.delta2) == cn.choose_deltas(PR, plan.delta)
    assert plan.delta1 == pytest.approx(0.0312, abs=1e-4)
    assert plan.delta2 == pytest.approx(0.00194, abs=1e-5)


# --- deep bubble centres -------------------------------------------------------

@pytest.fixture(scope="module")
def deep_plan():
    # lambda_i falls below 1e-154 from i = 8 on, so lambda^2 underflows
    return cn.plan_sequences(PR, _unit_k(), lambda r: r ** -10.0, N=16, seed=7)


def test_every_centre_is_finite_or_named(deep_plan):
    plan = deep_plan
    assert plan.lam[-1] ** 2 == 0.0
    for i in range(plan.n_mat):
        pt = (i, np.zeros(5))
        logs = cn.bubble_logs(plan, pt)
        assert np.all(np.isfinite(logs))
        # at its own centre psi_i = c lambda_i^{-(n - 2 sigma)/2}
        own = math.log(plan.amplitude) - PR.half_exp * math.log(plan.lam[i])
        assert logs[i] == pytest.approx(own, rel=1e-14)
        k = cn.k_assemble(plan, "zero", pt)
        assert math.isfinite(k) and 0.0 < k <= 1.0 + 1e-12
        # H stays in logs, so it is finite past the float range too
        lg, sign = cn.log_h(plan, pt, 1.0)
        assert math.isfinite(lg) and sign == 1.0
        if logs[i] <= cn.LOG_MAX:
            assert math.isfinite(cn.bubble_sum(plan, pt))
        else:
            with pytest.raises(cn.BubbleRangeError,
                               match=rf"anchor {i} .*log value {logs[i]:.6g}"):
                cn.bubble_sum(plan, pt)


@given(st.floats(min_value=-720.0, max_value=-1.0),
       st.floats(min_value=-400.0, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_bubble_log_profile_direct_where_normal(log_lam, log_s):
    lam, s = math.exp(log_lam), math.exp(log_s)
    got = cn.bubble_log_profile(lam, s, 1.3, PR)
    if lam * lam + s * s >= sys.float_info.min:
        # bit-identical to the direct form wherever lam^2 + s^2 is normal
        assert got == math.log(1.3) + PR.half_exp * (
            np.log(lam) - np.log(lam * lam + s * s))
    else:
        want = (mpmath.log(1.3) + PR.half_exp * (
            mpmath.log(lam) - mpmath.log(mpmath.mpf(lam) ** 2 + mpmath.mpf(s) ** 2)))
        assert got == pytest.approx(float(want), rel=1e-13)



# --- batches against their rows, one by one --------------------------------------

def _mixed_rows(plan, deepest):
    """Absolute rows (anchor -1), ring midpoints, core rings and the deep
    centres 7 (lambda^2 normal) and ``deepest`` (lambda^2 subnormal)."""
    rng = np.random.default_rng(3)
    absolute = _draw(rng, 6, -2, 1)
    mids = [(i, 0.5 * plan.center_difference(i + 1, i)) for i in (0, 6, 14)]
    rings = [(i, t * plan.rho[i] * np.eye(5)[0]) for i in (1, 9) for t in (0.5, 1.0, 1.5)]
    anchored = mids + rings + [(7, np.zeros(5)), (deepest, np.zeros(5))]
    return (np.array([-1] * 6 + [i for i, _ in anchored]),
            np.vstack([absolute] + [x for _, x in anchored]))


def _single(rows, r):
    anchor, x = int(rows[0][r]), rows[1][r]
    return x if anchor < 0 else (anchor, x)


def _bent_k():
    return ScalarField(lambda x: 1.0 + 0.5 * np.tanh(np.sum(x * x, axis=-1)), n=5)


EVALUATORS = {
    "bubble_logs": lambda plan, pt, v: cn.bubble_logs(plan, pt),
    "bubble_sum": lambda plan, pt, v: cn.bubble_sum(plan, pt),
    "kappa_eval": lambda plan, pt, v: cn.kappa_eval(plan, pt),
    "kappa_eval k": lambda plan, pt, v: cn.kappa_eval(plan, pt, _bent_k()),
    "u_tilde_terms": lambda plan, pt, v: cn.u_tilde_terms(plan, pt, v),
    "log_h": lambda plan, pt, v: cn.log_h(plan, pt, v),
    "log_h k": lambda plan, pt, v: cn.log_h(plan, pt, v, k=_bent_k()),
    "log_barrier_source": lambda plan, pt, v: cn.log_barrier_source(plan, pt),
    "vbar_eval": lambda plan, pt, v: cn.vbar_eval(plan, pt),
    "assemble_u zero": lambda plan, pt, v: cn.assemble_u(plan, "zero", pt),
    "assemble_u supersolution":
        lambda plan, pt, v: cn.assemble_u(plan, "supersolution", pt),
    "k_assemble zero": lambda plan, pt, v: cn.k_assemble(plan, "zero", pt),
    "k_assemble supersolution":
        lambda plan, pt, v: cn.k_assemble(plan, "supersolution", pt),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_batch_rows_equal_single_calls(deep_plan, name):
    # the bubble sum of centre 12 is past the float range, so the sums take
    # the deepest centre in range
    in_range = name.startswith(("bubble_sum", "assemble_u"))
    rows = _mixed_rows(deep_plan, 7 if in_range else 12)
    v = 10.0 ** np.linspace(-6.0, 0.0, len(rows[0]))
    got = EVALUATORS[name](deep_plan, rows, v)
    for r in range(len(rows[0])):
        one = EVALUATORS[name](deep_plan, _single(rows, r), float(v[r]))
        if name == "bubble_logs":
            assert np.array_equal(got[r], one)
        elif isinstance(one, tuple):
            assert all(type(o) is float for o in one)
            assert tuple(g[r] for g in got) == one
        else:
            assert type(one) is float and got[r] == one


def test_batch_distances_equal_single_calls(deep_plan):
    rows = _mixed_rows(deep_plan, 12)
    dists, radius = deep_plan.distances_to_centers(rows)
    assert dists.shape == (len(rows[0]), deep_plan.n_mat)
    for r in range(len(rows[0])):
        one, rad = deep_plan.distances_to_centers(_single(rows, r))
        assert np.array_equal(dists[r], one)
        assert type(rad) is float and radius[r] == rad
    # an absolute row reads the same as that point given alone, unanchored
    absolute = rows[1][rows[0] < 0]
    assert np.array_equal(dists[rows[0] < 0],
                          deep_plan.distances_to_centers(absolute)[0])


def test_batch_names_the_row_past_the_float_range(deep_plan):
    rows = _mixed_rows(deep_plan, 12)
    log_12 = cn.bubble_logs(deep_plan, (12, np.zeros(5)))[12]
    with pytest.raises(cn.BubbleRangeError,
                       match=rf"anchor 12 .*log value {log_12:.6g}"):
        cn.bubble_sum(deep_plan, rows)
    with pytest.raises(cn.BubbleRangeError, match="anchor 12 "):
        cn.assemble_u(deep_plan, "zero", rows)


def test_bubble_sum_past_every_bubble_is_zero(deep_plan):
    # at |x| = 1e160 every lambda^2 + s^2 overflows and every bubble log is -inf
    far = np.full(5, 1e160 / math.sqrt(5.0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cn.bubble_sum(deep_plan, far) == 0.0
        with pytest.raises(cn.BubbleRangeError, match="anchor 12 "):
            cn.bubble_sum(deep_plan, (np.array([-1, 12]), np.vstack([far, np.zeros(5)])))


@pytest.mark.parametrize("anchors", [[0, 16], [-2, 0], [0]])
def test_anchors_out_of_range_are_refused(deep_plan, anchors):
    # the anchor table of the 16 centres has a 17th row, for -1, so anchor 16
    # would read as an absolute point and -2 as centre 15
    assert deep_plan.n_mat == 16
    with pytest.raises(ValueError, match=r"anchors must be 2 ints in \[-1, 16\)"):
        deep_plan.distances_to_centers((np.array(anchors), np.zeros((2, 5))))


def test_tent_potential_batches_its_pairs():
    d = np.array([[0.0, 0.6, 1.0], [1.5, 3.0, math.inf]])
    rho = np.array([0.5, 1.0, 2.0])
    got = cn._tent_riesz(d, rho, PR)
    assert got.shape == (2, 3)
    for r in range(2):
        for c in range(3):
            assert got[r, c] == cn._tent_riesz(float(d[r, c]), float(rho[c]), PR)


# --- every grid point plans or refuses by name ----------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9])
def test_plan_or_named_refusal(n):
    # any other exception fails the test
    for s in (0.25, 0.5, 0.75):
        for N in (8, 16, 19):
            try:
                cn.plan_sequences(Params(n, s), _unit_k(n), lambda r: r ** -10.0,
                                  N=N, seed=7)
            except cn.InfeasiblePlanError:
                pass


@pytest.mark.parametrize("N", [16, 19])
def test_m_target_past_the_float_range_is_refused(N):
    # at (4, 1/4) the target max(eps^{-4s/(n-2s)}, 2^N)^{1/beta} overflows
    with pytest.raises(cn.InfeasiblePlanError,
                       match=f"the target M_{N} exceeds the float range"):
        cn.plan_sequences(Params(4, 0.25), _unit_k(4), lambda r: r ** -10.0,
                          N=N, seed=7)
