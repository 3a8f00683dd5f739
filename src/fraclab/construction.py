"""Constraint-driven multi-bubble construction of large singular solutions.

The assembled object is u = u0 + sum of bubbles psi_{lambda_i}(x - x_i),
with every sequence (k_i, M_i, rho_i, lambda_i, eps_i) selected so that a
long list of pointwise inequalities holds.  The selected scales are
extreme (M_1 ~ 2^217 forces 1 - k_1 ~ 1e-131 and lambda_1 ~ 1e-135 in the
reference run), so the plan stores 1 - k_i instead of k_i and all bubble
powers are evaluated in log space.

Points near the ring of bubble centers must be described relative to a
center (``(anchor_index, offset)``): the centers are separated by ~1e-66
while sitting on a sphere of radius ~1e-2, so absolute coordinates cannot
resolve the local geometry.

Every constraint that picks a scale is monotone in the distance, so one
point binds and each scale is a closed form: 1 - k_i inverts the envelope
M, rho_i puts the ball potential at the center on its budget, lambda_i is
a root on the sphere |x - x_i| = rho_i, and delta1, delta2 are halved
until the worst two-center ratio is below 2.  A scale below the float
floor e^-740 is refused by name.

The log-space core is written once: :func:`log_envelope`, :func:`log_f`,
:func:`bubble_log_profile` and :func:`_sum_exp`.  The envelope values, the
plan step, the ring checks, the bubble sums, the paper's H
(:func:`log_h`) and the barrier's closed-form source
(:func:`log_barrier_source`) all use it.
:func:`validate_plan` deliberately stays outside it: it re-derives the
invariants directly, so it remains an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import constants, fracops, geometry
from .fields import ScalarField
from .params import Params

Array = np.ndarray
Point = Union[Array, Tuple[int, Array]]

LOG2 = math.log(2.0)
LOG_MAX = math.log(np.finfo(float).max)
LOG_FLOOR = -740.0  # the plan refuses a scale below e^LOG_FLOOR


# --- log-space core --------------------------------------------------------

def log_envelope(lz2: float, log_z3: float,
                 params: Params) -> Tuple[float, float]:
    """(log Z, log M): argmax and maximum of z1 -> z2 (z1 + z3)^p - z1^p.

    Z = z3 z2^q / (1 - z2^q) and M = z2 z3^p / (1 - z2^q)^{1/q}, q = (n-2s)/4s,
    from lz2 = log z2 < 0; the gap is -expm1(q lz2), accurate to 1 - z2 ~ 1e-300.
    """
    q = params.kelvin_exp / (4.0 * params.sigma)
    log_gap = math.log(-math.expm1(q * lz2))
    return log_z3 + q * lz2 - log_gap, lz2 + params.p * log_z3 - log_gap / q


def log_f(log_z1: float, lz2: float, log_z3: float,
          p: float) -> Tuple[float, float]:
    """(log |f|, sign f) for f = z2 (z1 + z3)^p - z1^p, from logs.

    For z1 large the two terms nearly cancel against the scale z1^p, so
    f = z1^p expm1(log z2 + p log1p(z3/z1)); log_z1 = -inf means z1 = 0.
    """
    if log_z1 == -math.inf:
        return lz2 + p * log_z3, 1.0
    d = log_z3 - log_z1
    # log1p(e^d) equals d to double precision long before exp overflows
    inner = lz2 + p * (d if d > 700.0 else math.log1p(math.exp(d)))
    if inner > 40.0:  # z1^p negligible against z2 (z1 + z3)^p
        return p * log_z1 + inner, 1.0
    term = math.expm1(inner)
    if term == 0.0:
        return -math.inf, 1.0
    return p * log_z1 + math.log(abs(term)), math.copysign(1.0, term)


def f_val(z1: float, z2: float, z3: float, params: Params) -> float:
    """z2 (z1 + z3)^p - z1^p, evaluated stably for very large z1."""
    if z1 < 0 or z2 <= 0 or z3 <= 0:
        raise ValueError("need z1 >= 0, z2 > 0, z3 > 0")
    lg, sign = log_f(math.log(z1) if z1 > 0.0 else -math.inf, math.log(z2),
                     math.log(z3), params.p)
    return sign * math.exp(lg)


def big_f_val(z1: float, z2: float, z3: float, params: Params) -> float:
    """Monotone envelope F: f below the argmax, frozen at the max beyond it."""
    if z2 >= 1.0:
        return f_val(z1, z2, z3, params)
    if not z2 > 0.0:
        raise ValueError("the envelope requires z2 in (0, 1)")
    log_z, log_m = log_envelope(math.log(z2), math.log(z3), params)
    if z1 <= math.exp(log_z):
        return f_val(z1, z2, z3, params)
    return math.exp(log_m)


# --- smooth cutoff ---------------------------------------------------------

def _phi_bump(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0.0 else 0.0


def eta_cutoff(t: float) -> float:
    """Smooth bump: 1 on [0, 1], 0 on [3/2, oo)."""
    if t <= 1.0:
        return 1.0
    if t >= 1.5:
        return 0.0
    s = (1.5 - t) / 0.5
    return _phi_bump(s) / (_phi_bump(s) + _phi_bump(1.0 - s))


# --- the sequence plan -----------------------------------------------------

@dataclass
class SequencePlan:
    """Full record of one construction run (possibly reduced to N bubbles)."""

    params: Params
    a: float
    b: float
    delta: float
    delta1: float
    delta2: float
    i0: int
    beta: float
    n_mat: int                 # materialized bubble count N
    reduced: bool
    eps: Array                 # per materialized index
    one_minus_k: Array
    m_big: Array               # M_i
    rho: Array
    lam: Array
    r_small: Array
    centers: Array             # (N, n) absolute coordinates
    ring_radius: float         # circumradius of the i0-gon
    amplitude: float           # c_{n, sigma}
    w0: float                  # w(0)
    margins: dict = field(default_factory=dict)

    def w_profile(self, r) -> np.ndarray:
        """w(x) = c (2b)^{-n/2s} (1 + |x|^2)^{-(n-2s)/2}."""
        pref = self.amplitude * (2.0 * self.b) ** (-self.params.n / (2.0 * self.params.sigma))
        return pref * (1.0 + np.asarray(r, dtype=float) ** 2) ** (-self.params.half_exp)

    def center_difference(self, i: int, j: int) -> Array:
        """x_i - x_j to full relative precision (exact ring trigonometry)."""
        n = self.params.n
        out = np.zeros(n)
        ring = min(self.n_mat, self.i0)
        if i < ring and j < ring:
            ti = 2.0 * math.pi * i / self.i0
            tj = 2.0 * math.pi * j / self.i0
            half_sum = 0.5 * (ti + tj)
            half_diff = 0.5 * (ti - tj)
            out[0] = -2.0 * self.ring_radius * math.sin(half_sum) * math.sin(half_diff)
            out[1] = 2.0 * self.ring_radius * math.cos(half_sum) * math.sin(half_diff)
            return out
        return self.centers[i] - self.centers[j]

    def offset_from_center(self, pt: Point, i: int) -> Array:
        """x - x_i for an absolute or anchored point (exact near the ring)."""
        if isinstance(pt, tuple):
            return np.asarray(pt[1], dtype=float) + self.center_difference(pt[0], i)
        return np.asarray(pt, dtype=float) - self.centers[i]

    def distances_to_centers(self, pt: Point) -> Tuple[Array, float]:
        """(|x - x_i| for all materialized i, |x|) for absolute or anchored points."""
        if isinstance(pt, tuple):
            dists = np.array([np.linalg.norm(self.offset_from_center(pt, j))
                              for j in range(self.n_mat)])
        else:
            dists = np.linalg.norm(np.asarray(pt, dtype=float) - self.centers, axis=1)
        return dists, float(np.linalg.norm(_absolute(self, pt)))


# --- bubble evaluation in log space ---------------------------------------

def bubble_log_profile(lam, s, amplitude: float, params: Params):
    """log psi_lambda at distance s from the center (vectorized in lam and s).

    Where lam^2 + s^2 is below the normal float range (lam < 1.5e-154 near
    the center) log(lam^2 + s^2) is formed as logaddexp(2 log lam, 2 log s);
    every other value takes the direct form.
    """
    s = np.asarray(s, dtype=float)
    den = lam * lam + s * s
    with np.errstate(divide="ignore"):
        log_den = np.log(den)
        deep = den < np.finfo(float).tiny
        if np.any(deep):
            log_den = np.where(deep, np.logaddexp(2.0 * np.log(lam),
                                                  2.0 * np.log(s)), log_den)
    return math.log(amplitude) + params.half_exp * (np.log(lam) - log_den)


def bubble_logs(plan: SequencePlan, pt: Point) -> Array:
    """log u_i(x) for every materialized bubble."""
    dists, _ = plan.distances_to_centers(pt)
    return bubble_log_profile(plan.lam, dists, plan.amplitude, plan.params)


def _sum_exp(logs: Array) -> Tuple[float, float]:
    """(log of max term, sum of exp(logs - max))."""
    top = float(np.max(logs))
    return top, float(np.sum(np.exp(logs - top)))


class BubbleRangeError(OverflowError):
    """A bubble value past the float range, near the center of a deep bubble."""


def _in_range(pt: Point, log_u: float, what: str) -> None:
    if log_u > LOG_MAX:
        where = (f"anchor {pt[0]}" if isinstance(pt, tuple)
                 else "an absolute point")
        raise BubbleRangeError(f"{what} at {where} exceeds the float range: "
                               f"log value {log_u:.6g} > {LOG_MAX:.6g}")


def bubble_sum(plan: SequencePlan, pt: Point) -> float:
    top, s = _sum_exp(bubble_logs(plan, pt))
    _in_range(pt, top + math.log(s), "the bubble sum")
    return math.exp(top) * s if top > -700 else 0.0


# --- plan construction -----------------------------------------------------

def i0_from_formula(params: Params, a: float) -> int:
    """Smallest integer > 2 whose power beats the crowding threshold."""
    n, s = params.n, params.sigma
    rhs = (2.0 ** ((3 * n + 2 * s) / (n - 2 * s))
           / (2.0 * a) ** ((n + 2 * s) / (4 * s)))
    i0 = max(3, int(math.floor(rhs ** ((n - 2 * s) / (4 * s)))) + 1)
    while i0 ** (4 * s / (n - 2 * s)) <= rhs:
        i0 += 1
    return i0


def beta_from_formula(params: Params) -> float:
    """(n - 2s - 3) s / (3 (s + 1) (n - 2s - 1)), positive when n > 2s + 3."""
    n, s = params.n, params.sigma
    if n <= 2 * s + 3:
        raise ValueError("beta formula requires n > 2 sigma + 3")
    return (n - 2 * s - 3) * s / (3.0 * (s + 1.0) * (n - 2 * s - 1.0))


def m_from_one_minus_k(m1k: float, params: Params) -> float:
    """M_i = k_i / (1 - k_i^{(n-2s)/4s})^{4s/(n-2s)}: the envelope M at z3 = 1."""
    try:
        return math.exp(log_envelope(math.log1p(-m1k), 0.0, params)[1])
    except OverflowError:  # past the float range: above any finite target
        return math.inf


class InfeasiblePlanError(RuntimeError):
    """Raised when no plan can satisfy a named constraint."""


class _Escalate(InfeasiblePlanError):
    """A per-index check that a larger target M_i cures (smaller 1 - k_i, rho_i)."""


def one_minus_k_for_m(m_target: float, params: Params) -> float:
    """Invert m_from_one_minus_k in closed form, capped at 1/2.

    M = k / (1 - k^q)^{1/q}, q = (n-2s)/4s, inverts to 1 - k =
    -expm1(-log1p(M^{-q}) / q).  Below the float floor e^-740, where
    log(1 - k) = -q log M - log q, it refuses: no larger M can help.
    """
    q = params.kelvin_exp / (4.0 * params.sigma)
    log_x = -q * math.log(m_target)  # log M^{-q}
    _above_floor(log_x - math.log(q), f"1 - k for M = {m_target:.6g}")
    return min(-math.expm1(-math.log1p(math.exp(log_x)) / q), 0.5)


def choose_deltas(params: Params, delta: float) -> Tuple[float, float]:
    """delta1, delta2 from the documented defaults, halved until feasible.

    For |x| <= delta2 or |x| >= delta, centers on the sphere of radius
    delta1 and lam <= delta2, two shifted bubbles must agree within a
    factor 2.  Their ratio is largest as lam -> 0 with antipodal centers in
    line with x: ((delta + delta1)/(delta - delta1))^{n-2s} outside and
    ((delta1 + delta2)/(delta1 - delta2))^{n-2s} inside.
    """
    def worst(r, r1):
        return ((r + r1) / (r - r1)) ** params.kelvin_exp

    delta1, delta2 = delta / 4.01, delta / 4.01 / 2.01
    while max(worst(delta, delta1), worst(delta1, delta2)) >= 2.0:
        if worst(delta, delta1) >= 2.0:
            delta1 *= 0.5
        delta2 = min(delta2 * 0.5, delta1 / 2.01)
    return delta1, delta2


def _above_floor(log_value: float, what: str) -> float:
    """exp(log_value), or a refusal naming the float floor e^-740."""
    if log_value < LOG_FLOOR:
        raise InfeasiblePlanError(f"{what} falls below the float floor e^-740 "
                                  f"(its log is {log_value:.1f})")
    return math.exp(log_value)


def rho_from_constraint(i: int, m_i: float, center_radius: float, r_i: float,
                        w0: float, params: Params) -> float:
    """Largest rho <= r_i with I_{2s}(1_{B_{2 rho}(x_i)}) <= w / 2^{i+1} (2 w0)^p M_i.

    The ball potential peaks at the center, and beyond dist = 2 rho its
    log-derivative, below (2s - n)/dist, is below that of w(|x_i| + dist),
    so the center binds: r omega (2 rho)^{2s} / 2s meets the bound.  Inside
    the ball w falls by at most its value at dist = 2 rho, which is taken
    at the larger rho that w(|x_i|) gives (capped at r_i).
    """
    he, s2 = params.half_exp, 2.0 * params.sigma
    cset = constants.constant_set(params)
    log_b = (math.log(w0 / m_i) - (i + 1) * LOG2 - params.p * math.log(2.0 * w0)
             - math.log(cset.riesz_constant * cset.sphere_area / s2))

    def log_rho(dist: float) -> float:
        return (log_b - he * math.log1p((center_radius + dist) ** 2)) / s2 - LOG2

    ball = 2.0 * math.exp(min(log_rho(0.0), math.log(r_i)))
    return min(_above_floor(log_rho(ball), f"rho_{i}"), r_i)


def lambda_from_constraint(i: int, rho: float, eps_i: float,
                           center_radius: float, a: float, w0: float,
                           params: Params) -> float:
    """Largest lam < rho with psi_lam <= eps a^{(n-2s)/4s} w outside B_rho(x_i).

    psi_lam(s) / w(|x_i| + s) is a power of lam (1 + (|x_i| + s)^2) /
    (lam^2 + s^2), which falls in s wherever lam^2 <= s |x_i|: for every
    s >= rho, as lam < rho < r_i < |x_i|.  So the sphere s = rho binds, the
    far field follows, and lam is the smaller root of lam / (lam^2 + rho^2)
    = K: lam = 2 K rho^2 / (1 + sqrt(1 - (2 K rho)^2)), capped at
    rho e^{-1e-9}.
    """
    q = params.kelvin_exp / (4.0 * params.sigma)
    amp = constants.constant_set(params).bubble_constant
    log_k = ((math.log(eps_i) + q * math.log(a) + math.log(w0) - math.log(amp))
             / params.half_exp - math.log1p((center_radius + rho) ** 2))
    log_2k_rho = LOG2 + log_k + math.log(rho)
    log_lam = math.log(rho) - 1e-9
    if log_2k_rho < 0.0:
        log_lam = min(log_lam, log_2k_rho + math.log(rho) - math.log1p(
            math.sqrt(-math.expm1(2.0 * log_2k_rho))))
    return _above_floor(log_lam, f"lambda_{i}")


def plan_sequences(params: Params, k: ScalarField,
                   phi: Callable[[float], float], N: int,
                   delta: float = 0.5, search_budget: int = 60,
                   seed: int = 5) -> SequencePlan:
    """Select every sequence of the construction for N materialized bubbles.

    Reduced mode (N < i0) materializes N consecutive ring vertices of the
    regular polygon; eps is shared on the ring while k, M, rho, lambda
    follow their per-index budgets, so every materialized index satisfies
    its own constraints and the geometric scaling laws across indices.
    """
    n, s = params.n, params.sigma
    if n <= 2 * s + 3:
        raise InfeasiblePlanError("requires n > 2 sigma + 3")
    cset = constants.constant_set(params)
    amp = cset.bubble_constant

    # sampled bounds of k; the construction assumes k == 1 near the origin
    rng = np.random.default_rng(seed)
    probe = rng.normal(size=(4000, n))
    probe *= (10.0 ** rng.uniform(-2, 2, size=4000) / np.linalg.norm(probe, axis=1))[:, None]
    kv = k(probe)
    if np.any(kv <= 0.0):
        raise InfeasiblePlanError("k must be positive")
    near = kv[np.linalg.norm(probe, axis=1) <= delta]
    if near.size and np.max(np.abs(near - 1.0)) > 1e-12:
        raise InfeasiblePlanError("k must equal 1 on the core ball")
    a = 0.5 * float(np.min(kv))
    b = float(np.max(kv))

    i0 = i0_from_formula(params, a)
    beta = beta_from_formula(params)
    reduced = N < i0
    if N < 1:
        raise InfeasiblePlanError("N must be >= 1")
    delta1, delta2 = choose_deltas(params, delta)
    w0 = amp * (2.0 * b) ** (-n / (2.0 * s))

    ring = min(N, i0)
    eps_ring = 2.0 ** (-ring)
    r_ring = delta2 / 2.0

    def m_formula(i: int, eps_i: float) -> float:
        return max(9.0 ** i, max(eps_i ** (-4 * s / params.kelvin_exp),
                                 2.0 ** i) ** (1.0 / beta)) * 2.0

    k_floor = ((1.0 + 3.0 ** (-params.kelvin_exp))
               / (1.0 + params.p * 3.0 ** (-params.kelvin_exp))) ** (4 * s / (n + 2 * s))

    def step(i: int, m_t: float, center_radius: float, r_i: float,
             eps_i: float) -> Tuple[float, float, float, float]:
        """(1 - k_i, M_i, rho_i, lambda_i) for index i at target M_i = m_t."""
        m1k = one_minus_k_for_m(m_t, params)
        if 1.0 - m1k <= max(0.5 + 1e-9, k_floor):
            raise _Escalate(f"k_i floor violated at index {i}")
        m_i = m_from_one_minus_k(m1k, params)
        rho_i = rho_from_constraint(i, m_i, center_radius, r_i, w0, params)
        if not rho_i < r_i:
            raise _Escalate(f"rho_i < r_i failed at index {i}")
        return m1k, m_i, rho_i, lambda_from_constraint(
            i, rho_i, eps_i, center_radius, a, w0, params)

    # worst ring index i = ring first: escalate M until every ring check passes
    m_target = m_formula(ring, eps_ring)
    failure = "k escalation budget exhausted"
    for _ in range(search_budget):
        try:
            seq = step(ring, m_target, delta1, r_ring, eps_ring)
        except _Escalate as exc:
            failure = str(exc)
        else:
            checks = _ring_checks(params, w0, amp, phi, i0, beta, ring, eps_ring,
                                  *seq, delta1, delta2)
            bad = [name for name, ok, _ in checks if not ok]
            if not bad:
                break
            failure = bad[0]
        m_target *= 4.0
    else:
        raise InfeasiblePlanError(f"constraint not satisfied in budget: {failure}")
    esc = m_target / m_formula(ring, eps_ring)

    # per-index ring sequences on the geometric schedule: M_i grows by at
    # least 4 per step so rho_i^{2s} ~ 2^{-i}/M_i and the collar slope
    # (1 - k_i)/rho_i ~ 2^i/M_i both follow their scaling laws while the
    # slope stays decreasing
    eps = np.full(N, eps_ring)
    one_minus_k = np.empty(N)
    m_big = np.empty(N)
    rho = np.empty(N)
    lam = np.empty(N)
    r_small = np.full(N, r_ring)
    for idx in range(ring):
        i = idx + 1
        m_t = m_formula(i, eps_ring) * esc
        if idx > 0:
            m_t = max(m_t, 4.0 * m_big[idx - 1])
        one_minus_k[idx], m_big[idx], rho[idx], lam[idx] = step(
            i, m_t, delta1, r_ring, eps_ring)

    # ring geometry: regular i0-gon of side 4 rho_1 on the sphere |x| = delta1
    ring_radius = 2.0 * rho[0] / math.sin(math.pi / i0)
    if ring_radius >= delta1:
        raise InfeasiblePlanError("polygon circumradius exceeds delta1")
    height = math.sqrt(delta1 ** 2 - ring_radius ** 2)
    centers = np.zeros((N, n))
    for j in range(ring):
        th = 2.0 * math.pi * j / i0
        centers[j, 0] = ring_radius * math.cos(th)
        centers[j, 1] = ring_radius * math.sin(th)
        centers[j, 2] = height

    # inner schedule: x_i = delta2 2^{-(i - i0)} e_1, r_i = |x_i| / 8
    for idx in range(i0, N):
        i = idx + 1
        ci = delta2 * 2.0 ** (-(i - i0))
        centers[idx] = 0.0
        centers[idx, 0] = ci
        r_small[idx] = ci / 8.0
        eps[idx] = 2.0 ** (-i)
        one_minus_k[idx], m_big[idx], rho[idx], lam[idx] = step(
            i, m_formula(i, eps[idx]), ci, r_small[idx], eps[idx])

    margins = {name: margin for name, ok, margin in checks}
    out = SequencePlan(params=params, a=a, b=b, delta=delta, delta1=delta1,
                       delta2=delta2, i0=i0, beta=beta, n_mat=N,
                       reduced=reduced, eps=eps, one_minus_k=one_minus_k,
                       m_big=m_big, rho=rho, lam=lam, r_small=r_small,
                       centers=centers, ring_radius=ring_radius,
                       amplitude=amp, w0=w0, margins=margins)
    out.margins["min_bj"] = _min_bj_margin(out)
    return out


def _ring_checks(params, w0, amp, phi, i0, beta, ring, eps_ring, m1k, m_big,
                 rho, lam, delta1, delta2):
    """(name, ok, margin) for each shared-ring constraint."""
    n, s = params.n, params.sigma
    out = []
    log_m = math.log(m_big)
    out.append(("M_i > 9^i", log_m > ring * math.log(9.0),
                log_m - ring * math.log(9.0)))
    need = math.log(max(eps_ring ** (-4 * s / params.kelvin_exp), 2.0 ** ring))
    out.append(("M_i^beta > max(eps^{-4s/(n-2s)}, 2^i)", beta * log_m > need,
                beta * log_m - need))
    lhs = beta * math.log(lam)
    rhs = (2 * s / params.kelvin_exp) * math.log(eps_ring) - ring * LOG2
    out.append(("lambda_i^beta < eps^{2s/(n-2s)}/2^i", lhs < rhs, rhs - lhs))
    lz2 = (n + 2 * s) / (4 * s) * math.log1p(-m1k)  # log k^{(n+2s)/4s}
    kpow = math.expm1(lz2) + 1.0
    thr = (1.0 + 3.0 ** (-params.kelvin_exp)) / (1.0 + params.p * 3.0 ** (-params.kelvin_exp))
    out.append(("k_i^{(n+2s)/4s} threshold", kpow > thr, kpow - thr))
    out.append(("lambda_i < delta_2", lam < delta2, delta2 - lam))
    out.append(("rho_i < r_i", rho < delta2 / 2.0, delta2 / 2.0 - rho))
    # blow-up at the center: u_i(x_i) = amp lam^{-he} > i phi(delta1)
    log_peak = math.log(amp) - params.half_exp * math.log(lam)
    log_need = math.log(ring * phi(delta1))
    out.append(("u_i(x_i) > i phi(|x_i|)", log_peak > log_need,
                log_peak - log_need))
    # cross smallness off B_{2 r_i}: psi_lam at distance delta2 plus gradient
    s_out = delta2
    u_out = math.exp(bubble_log_profile(lam, s_out, amp, params))
    grad_out = u_out * params.kelvin_exp * s_out / (lam ** 2 + s_out ** 2)
    out.append(("u_i + |grad u_i| < 2^{-i} off B_{2 r_i}",
                u_out + grad_out < 2.0 ** (-ring),
                2.0 ** (-ring) - (u_out + grad_out)))
    # ring envelope condition: Z(k^{(n+2s)/4s}, sum_{i != j} u_i) > w(0)
    # minimized over B_{2 rho_j}; the off-ring sum is the full i0-gon sum
    chord = lambda sep: 2.0 * (2.0 * rho / math.sin(math.pi / i0)) \
        * math.sin(math.pi * sep / i0)
    top, total = _sum_exp(bubble_log_profile(
        lam, [chord(sep) + 2 * rho for sep in range(1, i0)], amp, params))
    log_z, _ = log_envelope(lz2, top + math.log(total), params)
    out.append(("Z(k^{(n+2s)/4s}, ring sum) > w(0)", log_z > math.log(w0),
                log_z - math.log(w0)))
    return out


def _min_bj_margin(plan: SequencePlan) -> float:
    """Margin of the neighbor-ratio condition on the ring.

    The ratio of psi_2 across B_{2 rho_2} about its neighbor center, less
    3^{-(n-2s)}; it is of order one (0.594 at n = 5, sigma = 1/2).
    """
    if min(plan.n_mat, plan.i0) < 3:
        return math.inf
    lam, rho = plan.lam[1], plan.rho[1]
    side = float(np.linalg.norm(plan.center_difference(2, 1)))
    near, far = side - 2.0 * rho, side + 2.0 * rho
    ratio = ((lam ** 2 + near ** 2) / (lam ** 2 + far ** 2)) ** plan.params.half_exp
    return ratio - 3.0 ** (-plan.params.kelvin_exp)


# --- assembled fields -------------------------------------------------------

def kappa_eval(plan: SequencePlan, pt: Point,
               k: Optional[ScalarField] = None) -> float:
    """kappa(x) = k(x) + sum (k_i - k(x)) eta(|x - x_i| / rho_i)."""
    dists, radius = plan.distances_to_centers(pt)
    kx = 1.0 if k is None else (
        k.at(_absolute(plan, pt)) if radius > plan.delta else 1.0)
    val = kx
    for i in range(plan.n_mat):
        t = dists[i] / plan.rho[i]
        if t < 1.5:
            val += ((1.0 - plan.one_minus_k[i]) - kx) * eta_cutoff(t)
    return val


def _absolute(plan: SequencePlan, pt: Point) -> Array:
    if isinstance(pt, tuple):
        return plan.centers[pt[0]] + np.asarray(pt[1], dtype=float)
    return np.asarray(pt, dtype=float)


def vbar_eval(plan: SequencePlan, pt: Point) -> float:
    """Barrier w/(2b) + Riesz potential of the tent profile over the balls."""
    dists, radius = plan.distances_to_centers(pt)
    val = float(plan.w_profile(radius)) / (2.0 * plan.b)
    p = plan.params.p
    for i in range(plan.n_mat):
        amp_i = (2.0 * plan.w0) ** p * plan.m_big[i]
        val += amp_i * _tent_riesz(dists[i], plan.rho[i], plan.params)
    return val


def _tent_riesz(d: float, rho: float, params: Params) -> float:
    """Riesz potential at distance d of the unit tent on B_rho .. B_{2 rho}.

    The tent is an average of ball indicators, int_rho^{2rho} indicator(B_s)
    ds / rho.  The potential of B_s at d loses smoothness at s = d, so the
    panels in s are graded toward it.
    """
    return geometry.panel_quad(
        lambda s: fracops.riesz_ball_indicator(d, s, params),
        geometry.panel_breaks(rho, 2.0 * rho, 4, [d])) / rho


def u_tilde_terms(plan: SequencePlan, pt: Point, v: float) -> Tuple[float, float]:
    """(log u_tilde, log p(x, v)) with p(x, v) = v + sum u - u_tilde.

    The cancellation in sum - u_tilde is computed from the subdominant
    terms only, so it survives a dominant bubble of size 1e267; nothing
    is exponentiated, so a bubble past the float range stays finite.
    """
    logs = bubble_logs(plan, pt)
    jmax = int(np.argmax(logs))
    top = float(logs[jmax])
    r = np.exp(np.delete(logs, jmax) - top)
    p = plan.params.p
    log_ut_rel = math.log1p(float(np.sum(r ** p))) / p
    gap = float(np.sum(r)) - math.expm1(log_ut_rel)
    log_v = math.log(v) if v > 0.0 else -math.inf
    log_gap = top + math.log(gap) if gap > 0.0 else -math.inf
    return top + log_ut_rel, float(np.logaddexp(log_v, log_gap))


def log_h(plan: SequencePlan, pt: Point, v: float,
          k: Optional[ScalarField] = None) -> Tuple[float, float]:
    """(log |H(x, v)|, sign H) for H = F(kappa, p(x, v), u_tilde), in log space."""
    log_ut, log_p0 = u_tilde_terms(plan, pt, v)
    # inside a cutoff plateau kappa = k_i, with 1 - k_i stored exactly
    dists, _ = plan.distances_to_centers(pt)
    inside = np.flatnonzero(dists <= plan.rho)
    lz2 = (math.log1p(-plan.one_minus_k[inside[0]]) if inside.size
           else math.log(min(kappa_eval(plan, pt, k), 1.0)))
    if lz2 < 0.0:
        log_z, log_m = log_envelope(lz2, log_p0, plan.params)
        if log_ut > log_z:
            return log_m, 1.0
    return log_f(log_ut, lz2, log_p0, plan.params.p)


def log_barrier_source(plan: SequencePlan, pt: Point) -> float:
    """log (-Lap)^s vbar = log[(2b)^p w^p + sum (2 w0)^p M_i tent_i], closed form."""
    p = plan.params.p
    dists, radius = plan.distances_to_centers(pt)
    t = dists / plan.rho
    near = t < 2.0
    logs = np.append(p * math.log(2.0 * plan.b * float(plan.w_profile(radius))),
                     p * math.log(2.0 * plan.w0) + np.log(plan.m_big[near])
                     + np.log(np.minimum(1.0, 2.0 - t[near])))
    top, total = _sum_exp(logs)
    return top + math.log(total)


def _u0(plan: SequencePlan, u0_mode: str, pt: Point) -> float:
    """u0 at pt per mode {zero, supersolution}."""
    if u0_mode == "zero":
        return 0.0
    if u0_mode == "supersolution":
        return vbar_eval(plan, pt)
    raise ValueError("u0_mode must be 'zero' or 'supersolution'")


def assemble_u(plan: SequencePlan, u0_mode: str, pt: Point) -> float:
    """u = u0 + truncated bubble sum; u0 per mode {zero, supersolution}."""
    return _u0(plan, u0_mode, pt) + bubble_sum(plan, pt)


def k_assemble(plan: SequencePlan, u0_mode: str, pt: Point) -> float:
    """K = (source term + sum u_i^p) / (u0 + sum u_i)^p, in log space.

    With u0 == 0 the source term is zero (u0 solves the trivial
    equation), giving the pure power-sum quotient; with the
    supersolution mode the source is :func:`log_barrier_source`.
    """
    p = plan.params.p
    logs = bubble_logs(plan, pt)
    u0 = _u0(plan, u0_mode, pt)
    log_src = (log_barrier_source(plan, pt) if u0_mode == "supersolution"
               else -math.inf)
    log_u0 = math.log(u0) if u0 > 0.0 else -math.inf
    base = max(float(np.max(logs)), log_u0)
    r = np.exp(logs - base)
    num_rel = float(np.sum(r ** p)) + (math.exp(log_src - p * base)
                                       if log_src - p * base > -700 else 0.0)
    den_rel = (math.exp(log_u0 - base) if u0 > 0.0 else 0.0) + float(np.sum(r))
    return math.exp(math.log(num_rel) - p * math.log(den_rel))


# --- standalone validator ----------------------------------------------------

def validate_plan(plan: SequencePlan, seed: int = 13) -> dict:
    """Re-check every plan invariant with no access to the builder.

    Returns {check name: (pass, margin-or-note)}.
    """
    p = plan.params
    rng = np.random.default_rng(seed)
    rep = {}
    rep["delta ordering"] = (0.0 < plan.delta2 < plan.delta1 / 2.0 < plan.delta / 4.0,
                             plan.delta / 4.0 - plan.delta1 / 2.0)
    ring = min(plan.n_mat, plan.i0)
    eps_ok = all(plan.eps[i] <= 2.0 ** (-(i + 1)) or i + 1 <= ring
                 for i in range(plan.n_mat))
    eps_ok = eps_ok and all(plan.eps[i] == plan.eps[0] for i in range(ring))
    eps_ok = eps_ok and all(plan.eps[i] <= 2.0 ** (-min(i + 1, ring))
                            for i in range(plan.n_mat))
    rep["eps rules"] = (eps_ok, None)
    k_ok = all(0.0 < plan.one_minus_k[i] < 0.5 for i in range(plan.n_mat))
    rep["k_i in (1/2, 1)"] = (k_ok, float(np.max(plan.one_minus_k)))
    m_ok = all(abs(plan.m_big[i] - m_from_one_minus_k(plan.one_minus_k[i], p))
               <= 1e-12 * plan.m_big[i] for i in range(plan.n_mat))
    rep["M_i from k_i exactly"] = (m_ok, None)
    rep["M_i > 9^i"] = (all(math.log(plan.m_big[i]) > (i + 1) * math.log(9.0)
                            for i in range(plan.n_mat)), None)
    rep["rho_i < r_i"] = (bool(np.all(plan.rho < plan.r_small)), None)
    rep["lambda_i < delta_2"] = (bool(np.all(plan.lam < plan.delta2)), None)
    radii = np.linalg.norm(plan.centers[:ring], axis=1)
    rep["|x_i| = delta_1 on ring"] = (
        bool(np.all(np.abs(radii - plan.delta1) < 1e-12 * plan.delta1)),
        float(np.max(np.abs(radii - plan.delta1))))
    # regular polygon with side 4 rho_1
    side_ok = True
    worst = 0.0
    for i in range(ring - 1):
        side = float(np.linalg.norm(plan.center_difference(i + 1, i)))
        worst = max(worst, abs(side - 4.0 * plan.rho[0]) / (4.0 * plan.rho[0]))
        side_ok = side_ok and worst < 1e-9
    rep["polygon side = 4 rho_1"] = (side_ok, worst)
    # separation: dist(B_rho_i, B_rho_j) >= rho_i + rho_j
    sep_ok = True
    for i in range(plan.n_mat):
        for j in range(i + 1, plan.n_mat):
            gap = float(np.linalg.norm(plan.center_difference(i, j))) \
                - plan.rho[i] - plan.rho[j]
            sep_ok = sep_ok and gap >= plan.rho[i] + plan.rho[j] - 1e-12 * plan.rho[i]
    rep["ball separation"] = (sep_ok, None)
    rep["beta formula"] = (abs(plan.beta - beta_from_formula(p)) < 1e-15,
                           plan.beta)
    rep["i0 formula"] = (plan.i0 == i0_from_formula(p, plan.a), plan.i0)
    # defining feasibility spot checks: every centre, where the inequality
    # binds, then seeded distances from inside the ball to far out
    ok_rho = True
    for i, dist in [(i, 0.0) for i in range(plan.n_mat)] + [
            (i, plan.rho[i] * 10.0 ** rng.uniform(-3, 3))
            for i in (int(rng.integers(plan.n_mat)) for _ in range(64))]:
        lhs = fracops.riesz_ball_indicator(dist, 2.0 * plan.rho[i], p)
        budget = 2.0 ** (min(i + 1, ring) + 1) * (2.0 * plan.w0) ** p.p \
            * plan.m_big[i]
        rhs = float(plan.w_profile(np.linalg.norm(plan.centers[i]) + dist)) \
            / budget
        ok_rho = ok_rho and lhs <= rhs * (1.0 + 1e-9)
    rep["rho defining inequality"] = (ok_rho, None)
    ok_lam = True
    for _ in range(64):
        i = int(rng.integers(plan.n_mat))
        dist = plan.rho[i] * 10.0 ** rng.uniform(0, 3)
        log_psi = bubble_log_profile(plan.lam[i], dist, plan.amplitude, p)
        rhs = math.log(plan.eps[i]) \
            + (p.kelvin_exp / (4 * p.sigma)) * math.log(plan.a) \
            + math.log(plan.w_profile(np.linalg.norm(plan.centers[i]) + dist))
        ok_lam = ok_lam and log_psi <= rhs + 1e-9
    rep["lambda defining inequality"] = (ok_lam, None)
    bj = _min_bj_margin(plan)
    rep["neighbor ratio margin"] = (bool(bj > 0.0), bj)
    rep["all_pass"] = (all(v[0] for kk, v in rep.items()), None)
    return rep
