"""Constraint-driven multi-bubble construction of large singular solutions.

The assembled object is u = u0 + sum of bubbles psi_{lambda_i}(x - x_i),
with every sequence (k_i, M_i, rho_i, lambda_i, eps_i) selected so that a
long list of pointwise inequalities holds.  The selected scales are
extreme (M_1 ~ 2^217 forces 1 - k_1 ~ 1e-131 and lambda_1 ~ 1e-135 in the
reference run), so the plan stores 1 - k_i instead of k_i and all bubble
powers are evaluated in log space.

The point evaluators take a batch: absolute points ``(m, n)`` or anchored
rows ``(anchors (m,), offsets (m, n))``, x = x_anchor + offset, where
anchor -1 marks an absolute row.  One point, ``(n,)`` or ``(i, offset)``,
is a batch of one and gives floats.  Points near the ring of centers
must be anchored: the centers are ~1e-66 apart on a sphere of radius
~1e-2, so only the exact ring differences x_anchor - x_j resolve them.

Every constraint that picks a scale is monotone in the distance, so one
point binds and each scale is a closed form: 1 - k_i inverts the envelope
M, rho_i puts the ball potential at the center on its budget, lambda_i is
a root on the sphere |x - x_i| = rho_i, and delta1, delta2 are halved
until the worst two-center ratio is below 2.  A scale below the float
floor e^-740 is refused by name.

The log-space core is written once (:func:`log_envelope`, :func:`log_f`,
:func:`bubble_log_profile`, :func:`_sum_exp`); the envelope values, the
plan step, the ring checks, the bubble sums, the paper's H (:func:`log_h`)
and the barrier's closed-form source (:func:`log_barrier_source`) use it.
:func:`validate_plan` re-derives the invariants from direct formulas and
uses none of that core, so it is an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import constants, fracops, geometry
from .fields import ScalarField
from .params import Params

Array = np.ndarray
Point = Union[Array, Tuple[int, Array], Tuple[Array, Array]]

LOG2 = math.log(2.0)
LOG_MAX = math.log(np.finfo(float).max)
LOG_FLOOR = -740.0  # the plan refuses a scale below e^LOG_FLOOR
TINY = np.finfo(float).tiny

#: Fourfold escalations of the target M at the worst ring index before
#: :func:`plan_sequences` gives up.
SEARCH_BUDGET = 60

#: The core radius delta of every plan: k must equal 1 on B_delta.
DELTA = 0.5


# --- log-space core --------------------------------------------------------

def log_envelope(lz2: float, log_z3: float, params: Params) -> Tuple[float, float]:
    """(log Z, log M): argmax and maximum of z1 -> z2 (z1 + z3)^p - z1^p.

    Z = z3 z2^q / (1 - z2^q) and M = z2 z3^p / (1 - z2^q)^{1/q}, q = (n-2s)/4s,
    from lz2 = log z2 < 0; the gap is -expm1(q lz2), accurate to 1 - z2 ~ 1e-300.
    """
    q = params.kelvin_exp / (4.0 * params.sigma)
    log_gap = math.log(-math.expm1(q * lz2))
    return log_z3 + q * lz2 - log_gap, lz2 + params.p * log_z3 - log_gap / q


def log_f(log_z1: float, lz2: float, log_z3: float, p: float) -> Tuple[float, float]:
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

    @cached_property
    def _anchor_table(self) -> Tuple[Array, Array]:
        """(x_a - x_j for every j, x_a) per anchor a; anchor -1 gives (-x_j, 0)."""
        return (np.array([[self.center_difference(a, j) for j in range(self.n_mat)]
                          for a in range(self.n_mat)] + [-self.centers]),
                np.vstack([self.centers, np.zeros(self.params.n)]))

    def distances_to_centers(self, pt: Point):
        """(|x - x_i| for every i, |x|): (m, N), (m,); one point: (N,), a float."""
        rows = _Rows(self, pt)
        return rows.out(rows.dists), rows.out(rows.radius())


class _Rows:
    """A point layout as rows: ``anchors`` (m,) or None and offsets (m, n)."""

    def __init__(self, plan: SequencePlan, pt: Point):
        anchors, x = pt if isinstance(pt, tuple) else (None, pt)
        x = np.asarray(x, dtype=float)
        self.single, self.x = x.ndim == 1, x.reshape(-1, x.shape[-1])
        if anchors is None:
            self.anchors, self.absolute = None, self.x
            diff = self.x[:, None, :] - plan.centers
        else:
            a = self.anchors = np.asarray(anchors).reshape(-1)
            if a.shape != self.x.shape[:1] or not -1 <= a.min() <= a.max() < plan.n_mat:
                raise ValueError(f"anchors must be {len(self.x)} ints in [-1, {plan.n_mat})")
            self.absolute = plan._anchor_table[1][self.anchors] + self.x
            diff = self.x[:, None, :] + plan._anchor_table[0][self.anchors]
        self.dists = np.sqrt((diff * diff).sum(axis=-1))

    def radius(self) -> Array:
        """|x| per row, bit for bit the np.linalg.norm of that row alone."""
        return np.sqrt((self.absolute[:, None, :] @ self.absolute[:, :, None])[:, 0, 0])

    def out(self, val: Array):
        """val for a batch; for one point its row, a float if it is a scalar."""
        return val if not self.single else float(val[0]) if val.ndim == 1 else val[0]


def _batched(func):
    """Public form of a row function: any layout in, floats for one point; _Rows stay rows."""
    @wraps(func)
    def evaluator(plan, pt, *args, **kwargs):
        if isinstance(pt, _Rows):
            return func(plan, pt, *args, **kwargs)
        rows = _Rows(plan, pt)
        val = func(plan, rows, *args, **kwargs)
        return tuple(map(rows.out, val)) if isinstance(val, tuple) else rows.out(val)
    return evaluator


# --- bubble evaluation in log space ---------------------------------------

def bubble_log_profile(lam, s, amplitude: float, params: Params):
    """log psi_lambda at distance s from the center (vectorized in lam and s).

    Where lam^2 + s^2 is below the normal float range (lam < 1.5e-154 near
    the center) log(lam^2 + s^2) is formed as logaddexp(2 log lam, 2 log s);
    every other value takes the direct form.
    """
    s = np.asarray(s, dtype=float)
    den = lam * lam + s * s
    if den.min() >= TINY:
        log_den = np.log(den)
    else:
        with np.errstate(divide="ignore"):
            log_den = np.where(den < TINY, np.logaddexp(
                2.0 * np.log(lam), 2.0 * np.log(s)), np.log(den))
    return math.log(amplitude) + params.half_exp * (np.log(lam) - log_den)


@_batched
def bubble_logs(plan: SequencePlan, rows: _Rows) -> Array:
    """log u_i(x) for every materialized bubble: (N,) or (m, N)."""
    return bubble_log_profile(plan.lam, rows.dists, plan.amplitude, plan.params)


def _sum_exp(logs: Array) -> Tuple[Array, Array]:
    """(log of max term, sum of exp(logs - max)) along the last axis."""
    top = logs.max(axis=-1)
    return top, np.exp(logs - top[..., None]).sum(axis=-1)


def _log_pos(x) -> Array:
    """log x where x > 0, -inf elsewhere."""
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(x, 0.0))


class BubbleRangeError(OverflowError):
    """A bubble value past the float range, near the center of a deep bubble."""


@_batched
def bubble_sum(plan: SequencePlan, rows: _Rows) -> Array:
    """sum_i u_i(x); a row past the float range raises BubbleRangeError."""
    top, s = _sum_exp(bubble_logs(plan, rows))
    log_u = top + np.log(s)
    if (over := log_u > LOG_MAX).any():
        r = int(np.argmax(over))
        a = -1 if rows.anchors is None else rows.anchors[r]
        raise BubbleRangeError(
            f"the bubble sum at {f'anchor {a}' if a >= 0 else 'an absolute point'} "
            f"exceeds the float range: log value {log_u[r]:.6g} > {LOG_MAX:.6g}")
    return np.where(top > -700, np.exp(top) * s, 0.0)  # exp(top) is finite here


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
    near = kv[np.linalg.norm(probe, axis=1) <= DELTA]
    if near.size and np.max(np.abs(near - 1.0)) > 1e-12:
        raise InfeasiblePlanError("k must equal 1 on the core ball")
    a = 0.5 * float(np.min(kv))
    b = float(np.max(kv))

    i0 = i0_from_formula(params, a)
    beta = beta_from_formula(params)
    reduced = N < i0
    if N < 1:
        raise InfeasiblePlanError("N must be >= 1")
    delta1, delta2 = choose_deltas(params, DELTA)
    w0 = amp * (2.0 * b) ** (-n / (2.0 * s))

    ring = min(N, i0)
    eps_ring = 2.0 ** (-ring)
    r_ring = delta2 / 2.0

    def m_formula(i: int, eps_i: float) -> float:
        try:
            return max(9.0 ** i, max(eps_i ** (-4 * s / params.kelvin_exp),
                                     2.0 ** i) ** (1.0 / beta)) * 2.0
        except OverflowError:  # a target past the float range: no plan
            raise InfeasiblePlanError(f"the target M_{i} exceeds the float range") from None

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
    for _ in range(SEARCH_BUDGET):
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
        raise InfeasiblePlanError(f"the circumradius {ring_radius:.6g} of the "
                                  f"i0-gon, i0 = {i0}, exceeds delta1 = "
                                  f"{delta1:.6g}")
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
    out = SequencePlan(params=params, a=a, b=b, delta=DELTA, delta1=delta1,
                       delta2=delta2, i0=i0, beta=beta, n_mat=N,
                       reduced=reduced, eps=eps, one_minus_k=one_minus_k,
                       m_big=m_big, rho=rho, lam=lam, r_small=r_small,
                       centers=centers, ring_radius=ring_radius,
                       amplitude=amp, w0=w0, margins=margins)
    out.margins["min_bj"] = _min_bj_margin(out)
    return out


#: Ring neighbours summed on each side in the envelope check of
#: :func:`_ring_checks`; the farther ones fall like sep^{-(n - 2 sigma)}.
RING_NEIGHBOURS = 4096


def _ring_checks(params, w0, amp, phi, i0, beta, ring, eps_ring, m1k, m_big,
                 rho, lam, delta1, delta2):
    """(name, ok, margin) for each shared-ring constraint."""
    n, s = params.n, params.sigma
    out = []
    log_m = math.log(m_big)
    out.append(("M_i > 9^i", log_m > ring * math.log(9.0), log_m - ring * math.log(9.0)))
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
    out.append(("u_i(x_i) > i phi(|x_i|)", log_peak > log_need, log_peak - log_need))
    # cross smallness off B_{2 r_i}: psi_lam at distance delta2 plus gradient
    s_out = delta2
    u_out = math.exp(bubble_log_profile(lam, s_out, amp, params))
    grad_out = u_out * params.kelvin_exp * s_out / (lam ** 2 + s_out ** 2)
    out.append(("u_i + |grad u_i| < 2^{-i} off B_{2 r_i}",
                u_out + grad_out < 2.0 ** (-ring),
                2.0 ** (-ring) - (u_out + grad_out)))
    # ring envelope condition: Z(k^{(n+2s)/4s}, sum_{i != j} u_i) > w(0)
    # minimized over B_{2 rho_j}; the off-ring sum runs over the i0-gon,
    # RING_NEIGHBOURS a side: each term dropped past them is positive, so
    # the sum, and with it Z, stays a lower bound
    chord = lambda sep: 2.0 * (2.0 * rho / math.sin(math.pi / i0)) \
        * math.sin(math.pi * sep / i0)
    near = min(i0 - 1, 2 * RING_NEIGHBOURS)
    seps = [*range(1, near // 2 + 1), *range(i0 - (near + 1) // 2, i0)]
    top, total = _sum_exp(bubble_log_profile(
        lam, [chord(sep) + 2 * rho for sep in seps], amp, params))
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

@_batched
def kappa_eval(plan: SequencePlan, rows: _Rows, k: Optional[ScalarField] = None) -> Array:
    """kappa(x) = k(x) + sum (k_i - k(x)) eta(|x - x_i| / rho_i)."""
    kx = np.ones(len(rows.x))
    if k is not None and (far := rows.radius() > plan.delta).any():
        kx[far] = k(rows.absolute[far])
    val = kx.copy()
    t = rows.dists / plan.rho
    for r, i in zip(*np.nonzero(t < 1.5)):
        val[r] += ((1.0 - plan.one_minus_k[i]) - kx[r]) * eta_cutoff(t[r, i])
    return val


@_batched
def vbar_eval(plan: SequencePlan, rows: _Rows) -> Array:
    """Barrier w/(2b) + Riesz potential of the tent profile over the balls."""
    tents = (2.0 * plan.w0) ** plan.params.p * plan.m_big * _tent_riesz(
        rows.dists, plan.rho, plan.params)
    return plan.w_profile(rows.radius()) / (2.0 * plan.b) + tents.sum(axis=-1)


def _tent_riesz(d, rho, params: Params):
    """Riesz potential at distance d of the unit tent on B_rho .. B_{2 rho}.

    The tent is int_1^2 indicator(B_{u rho}) du, whose integrand loses
    smoothness at u = d / rho.  Each broadcast (d, rho) pair is one row of
    :func:`geometry.panel_rows` in u: breaks 2^{k/2} on [1, 2], graded
    toward d / rho.  All GL8 nodes take one riesz_ball_indicator call.
    """
    d, rho = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(d, rho))
    shape, d, rho = d.shape, d.ravel(), rho.ravel()
    nodes, weights, owner = geometry.panel_nodes(geometry.panel_rows(
        1.0, np.ones(d.size), np.full(d.size, 2.0), 4, (d / rho)[:, None]), 8)
    vals = fracops.riesz_ball_indicator(d[owner], rho[owner] * nodes, params)
    out = np.bincount(owner, vals * weights, d.size).reshape(shape)
    return float(out) if out.ndim == 0 else out


@_batched
def u_tilde_terms(plan: SequencePlan, rows: _Rows, v) -> Tuple[Array, Array]:
    """(log u_tilde, log p(x, v)) with p(x, v) = v + sum u - u_tilde.

    The cancellation in sum - u_tilde is computed from the subdominant
    terms only, so it survives a dominant bubble of size 1e267; nothing
    is exponentiated, so a bubble past the float range stays finite.
    """
    logs = bubble_logs(plan, rows)
    top = logs.max(axis=-1)
    r = np.exp(logs - top[:, None])
    r[np.arange(len(r)), logs.argmax(axis=-1)] = 0.0
    p = plan.params.p
    log_ut_rel = np.log1p((r ** p).sum(axis=-1)) / p
    gap = r.sum(axis=-1) - np.expm1(log_ut_rel)
    return top + log_ut_rel, np.logaddexp(_log_pos(v), top + _log_pos(gap))


@_batched
def log_h(plan: SequencePlan, rows: _Rows, v,
          k: Optional[ScalarField] = None) -> Tuple[Array, Array]:
    """(log |H(x, v)|, sign H) for H = F(kappa, p(x, v), u_tilde), in log space."""
    log_ut, log_p0 = u_tilde_terms(plan, rows, v)
    # inside a cutoff plateau kappa = k_i, with 1 - k_i stored exactly
    inside = rows.dists <= plan.rho
    first = np.where(inside.any(axis=-1), inside.argmax(axis=-1), -1)
    kappa = kappa_eval(plan, rows, k)
    out = np.empty((2, len(first)))
    for r, i in enumerate(first):
        lz2 = (math.log1p(-plan.one_minus_k[i]) if i >= 0
               else math.log(min(kappa[r], 1.0)))
        if lz2 < 0.0:
            log_z, log_m = log_envelope(lz2, log_p0[r], plan.params)
            if log_ut[r] > log_z:
                out[:, r] = log_m, 1.0
                continue
        out[:, r] = log_f(log_ut[r], lz2, log_p0[r], plan.params.p)
    return out[0], out[1]


@_batched
def log_barrier_source(plan: SequencePlan, rows: _Rows) -> Array:
    """log (-Lap)^s vbar = log[(2b)^p w^p + sum (2 w0)^p M_i tent_i], closed form."""
    p = plan.params.p
    tents = _log_pos(np.minimum(1.0, 2.0 - rows.dists / plan.rho))  # -inf off 2 rho_i
    top, total = _sum_exp(np.concatenate([
        p * np.log(2.0 * plan.b * plan.w_profile(rows.radius()))[:, None],
        p * math.log(2.0 * plan.w0) + np.log(plan.m_big) + tents], axis=1))
    return top + np.log(total)


def _u0(plan: SequencePlan, u0_mode: str, rows: _Rows) -> Array:
    """u0 on the rows per mode {zero, supersolution}."""
    if u0_mode not in ("zero", "supersolution"):
        raise ValueError("u0_mode must be 'zero' or 'supersolution'")
    return vbar_eval(plan, rows) if u0_mode == "supersolution" else np.zeros(len(rows.x))


def assemble_u(plan: SequencePlan, u0_mode: str, pt: Point):
    """u = u0 + truncated bubble sum; u0 per mode {zero, supersolution}: the
    paper's u, whose blow-up rate at the centres acceptance criterion 9 checks."""
    rows = _Rows(plan, pt)
    return rows.out(_u0(plan, u0_mode, rows) + bubble_sum(plan, rows))


def k_assemble(plan: SequencePlan, u0_mode: str, pt: Point):
    """K = (source term + sum u_i^p) / (u0 + sum u_i)^p, in log space.

    With u0 == 0 the source term is zero (u0 solves the trivial
    equation), giving the pure power-sum quotient; with the
    supersolution mode the source is :func:`log_barrier_source`.
    """
    rows, p = _Rows(plan, pt), plan.params.p
    logs = bubble_logs(plan, rows)
    u0 = _u0(plan, u0_mode, rows)
    base, num_rel, den_rel = logs.max(axis=-1), 0.0, 0.0
    if u0_mode == "supersolution":
        log_u0 = _log_pos(u0)
        base = np.maximum(base, log_u0)
        src = log_barrier_source(plan, rows) - p * base
        num_rel = np.where(src > -700, np.exp(src), 0.0)
        den_rel = np.exp(log_u0 - base)
    r = np.exp(logs - base[:, None])
    return rows.out(np.exp(np.log((r ** p).sum(axis=-1) + num_rel)
                           - p * np.log(den_rel + r.sum(axis=-1))))


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
    index = np.arange(1, plan.n_mat + 1)  # the paper's i
    rep["eps rules"] = (bool(np.all(plan.eps[:ring] == plan.eps[0])
                             and np.all(plan.eps <= np.ldexp(1.0, -index))), None)
    omk, q = plan.one_minus_k, p.kelvin_exp / (4.0 * p.sigma)
    rep["k_i in (1/2, 1)"] = (bool(np.all((0.0 < omk) & (omk < 0.5))), float(np.max(omk)))
    log_k = np.log1p(-omk)  # M = k / (1 - k^q)^{1/q}, q = (n-2s)/4s
    m_k = np.exp(log_k - np.log(-np.expm1(q * log_k)) / q)
    rep["M_i from k_i exactly"] = (bool(np.all(abs(plan.m_big - m_k) <= 1e-12 * plan.m_big)),
                                   None)
    rep["M_i > 9^i"] = (bool(np.all(np.log(plan.m_big) > index * math.log(9.0))), None)
    rep["rho_i < r_i"] = (bool(np.all(plan.rho < plan.r_small)), None)
    rep["lambda_i < delta_2"] = (bool(np.all(plan.lam < plan.delta2)), None)
    norms = np.linalg.norm(plan.centers, axis=1)
    off = np.abs(norms[:ring] - plan.delta1)
    rep["|x_i| = delta_1 on ring"] = (bool(np.all(off < 1e-12 * plan.delta1)),
                                      float(np.max(off)))
    # regular polygon with side 4 rho_1; separation dist(B_rho_i, B_rho_j)
    # >= rho_i + rho_j, from the exact differences x_i - x_j
    diffs = plan._anchor_table[0][:-1]
    worst = max([abs(np.linalg.norm(diffs[j + 1, j]) - 4.0 * plan.rho[0])
                 / (4.0 * plan.rho[0]) for j in range(ring - 1)], default=0.0)
    rep["polygon side = 4 rho_1"] = (bool(worst < 1e-9), worst)
    gap = np.linalg.norm(diffs, axis=-1) - plan.rho[:, None] - plan.rho
    sep = gap >= plan.rho[:, None] + plan.rho - 1e-12 * plan.rho[:, None]
    rep["ball separation"] = (bool(np.all(sep[np.triu_indices(plan.n_mat, 1)])), None)
    rep["beta formula"] = (abs(plan.beta - beta_from_formula(p)) < 1e-15, plan.beta)
    rep["i0 formula"] = (plan.i0 == i0_from_formula(p, plan.a), plan.i0)
    # defining feasibility spot checks: every centre, where the inequality
    # binds, then 64 seeded distances from inside the ball to far out
    def draw(lo, hi):
        idx = rng.integers(plan.n_mat, size=64)
        return idx, plan.rho[idx] * 10.0 ** rng.uniform(lo, hi, size=64)

    idx, dist = draw(-3, 3)
    idx = np.concatenate([np.arange(plan.n_mat), idx])
    dist = np.concatenate([np.zeros(plan.n_mat), dist])
    lhs = fracops.riesz_ball_indicator(dist, 2.0 * plan.rho[idx], p)
    budget = np.ldexp((2.0 * plan.w0) ** p.p, np.minimum(idx + 1, ring) + 1) \
        * plan.m_big[idx]
    rhs = plan.w_profile(norms[idx] + dist) / budget
    rep["rho defining inequality"] = (bool(np.all(lhs <= rhs * (1.0 + 1e-9))), None)
    idx, dist = draw(0, 3)
    log_lam = np.log(plan.lam[idx])  # psi = c lam^{h} / (lam^2 + s^2)^{h}, h = (n-2s)/2
    log_psi = math.log(plan.amplitude) + p.half_exp * (
        log_lam - np.logaddexp(2.0 * log_lam, 2.0 * np.log(dist)))
    rhs = np.log(plan.eps[idx]) + q * math.log(plan.a) \
        + np.log(plan.w_profile(norms[idx] + dist))
    rep["lambda defining inequality"] = (bool(np.all(log_psi <= rhs + 1e-9)), None)
    bj = _min_bj_margin(plan)
    rep["neighbor ratio margin"] = (bool(bj > 0.0), bj)
    rep["all_pass"] = (all(v[0] for kk, v in rep.items()), None)
    return rep
