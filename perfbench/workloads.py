"""The four benchmark workloads and the oracle gates that check their outputs.

Each workload is a function ``(seed, tiny) -> Outcome``.  The seed is the
only source of randomness: it draws the inputs (points, sample sets,
right-hand sides), so one seed always gives the same inputs.  ``tiny``
shrinks every size so the self-test can run all four in seconds.

An operation is one call (or one batch of calls) whose output has an
oracle.  It fails when it raises or when its output is outside its gate;
every gate is a tolerance the repository's own tests or report checks use.
"""

from __future__ import annotations

import hashlib

import numpy as np

from fraclab import (bubbles, constants, construction, extension, fracops,
                     green, movingsphere, reports, solver)
from fraclab.fields import ScalarField
from fraclab.params import Params


class Outcome:
    """Operations attempted by one pass, with their failures and errors.

    ``accuracy`` maps a probe name to (error, gate) for probes on fixed
    inputs, so its values do not depend on the seed; the worst error as a
    share of its gate is the ``oracle_err`` metric.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []      # (operation, reason)
        self.raised = 0         # operations that raised instead of returning
        self.accuracy = {}
        self.digest = None      # sha256 of the output, where it must repeat

    def op(self, name, fn):
        """Run one operation; ``fn`` returns True when its output is in its gate."""
        ok = self.produce(name, fn)
        if ok is not None and not ok:
            self.failures.append((name, "output outside its oracle gate"))

    def produce(self, name, fn):
        """Run one operation whose result later operations use.

        It passes when it returns; the result is None when it raised.
        """
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a raising operation is counted, not fatal
            self.raised += 1
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None

    def gate(self, name, err, tol):
        """Record a fixed-input probe and return whether it is inside its gate."""
        err = float(err)
        old = self.accuracy.get(name)
        if old is None or err > old[0]:
            self.accuracy[name] = (err, tol)
        return err < tol

    @property
    def failed(self):
        return len(self.failures)


def _rel(got, want):
    return abs(got - want) / abs(want)


def _direction(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


# --- verify_all ---------------------------------------------------------------

#: Suites cheap enough for the self-test's tiny verify_all.
TINY_SUITES = ("constants", "bubble", "extend", "msphere")


#: Report checks whose margin is ``1e-3 - worst relative error``.
ORACLE_CHECKS = {"riesz-inversion": "riesz_inversion_err",
                 "bubble-identity": "bubble_identity_err"}


def verify_all(seed, tiny=False):
    """``fraclab verify --suite all``: every report check is one operation."""
    out = Outcome()
    names = TINY_SUITES if tiny else ("all",)
    texts = []
    for name in names:
        report = out.produce(f"run_suite {name}", lambda: reports.run_suite(
            reports.RunConfig(suite=name, seed=seed)))
        if report is None:
            continue
        texts.append(reports.format_report(report))
        for check in report["checks"]:
            out.op(f"{check['suite']}/{check['name']}",
                   lambda c=check: c["passed"])
            if check["name"] in ORACLE_CHECKS:
                # at tol_scale 1 the margin is the gate minus the worst error
                out.gate(ORACLE_CHECKS[check["name"]],
                         1e-3 - check["margin"], 1e-3)
        # a failing check counts once; the verdict must agree with its checks
        out.op(f"report verdict {name}", lambda: report["passed"] == all(
            c["passed"] for c in report["checks"]))
    out.digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    return out


# --- operator_sweep -----------------------------------------------------------

def _state(pr, lam):
    """Pure-bubble comparison state (closed-form extension at sigma = 1/2)."""
    w = bubbles.model_bubble(pr)
    kf = ScalarField(lambda x: np.full(np.atleast_2d(x).shape[0],
                                       constants.bubble_eigenvalue(pr)),
                     n=pr.n, decay="integrable_against_kernel")
    return movingsphere.ComparisonState(
        params=pr, trace=w, extension=lambda Y: green.wtilde_extension(Y, pr),
        kelvin_radius=lam, k_field=kf)


def _sweep_case(out, rng, pr, tiny):
    n, s = pr.n, pr.sigma
    tag = f"n={n},s={s}"
    cset = constants.constant_set(pr)
    w = bubbles.model_bubble(pr)

    out.op(f"bubble identity {tag}", lambda: out.gate(
        "bubble_identity_err",
        np.max(bubbles.bubble_identity_residuals(pr)), 1e-3))

    # radial fast path: (-Lap)^s w = Lambda w^p for the model bubble
    for _ in range(1 if tiny else 3):
        x = _direction(rng, n) * rng.uniform(0.0, 3.0)
        out.op(f"frac_lap_at model {tag}", lambda x=x: _rel(
            fracops.frac_lap_at(w, x, pr).value,
            cset.bubble_eigenvalue * w.at(x) ** pr.p) < 1e-3)

    # general sphere-rule path: an off-centre bubble solves (-Lap)^s u = u^p.
    # Points lie within one scale length of the centre; farther out the
    # fixed 32-point angular rule loses accuracy in three dimensions
    # (about 2e-2 at two scale lengths), which no error bar reports.
    for _ in range(1 if tiny else 2):
        c0 = _direction(rng, n) * rng.uniform(0.0, 1.0)
        lam = rng.uniform(0.5, 2.0)
        sb = bubbles.standard_bubble(pr, lam=lam, center=c0)
        x = c0 + _direction(rng, n) * lam * rng.uniform(0.0, 1.0)
        out.op(f"frac_lap_at off-centre {tag}", lambda sb=sb, x=x: _rel(
            fracops.frac_lap_at(sb, x, pr).value, sb.at(x) ** pr.p) < 1e-3)

    # extension: conormal trace reproduces c_tilde w^p (repository gate 1e-2)
    for d in ((0.5,) if tiny else (0.0, 0.5, 1.2)):
        y = d * np.eye(n)[0]
        out.op(f"conormal_derivative {tag} d={d}", lambda y=y: out.gate(
            "extension_err", _rel(extension.conormal_derivative(w, y, pr),
                                  cset.c_tilde * w.at(y) ** pr.p), 1e-2))
    if s == 0.5:
        for d, t in ((0.3, 0.5), (1.0, 1.0)):
            y = d * np.eye(n)[0]
            out.op(f"extend closed form {tag}", lambda y=y, t=t: out.gate(
                "halforder_extension_err", _rel(
                    extension.extend(w, y, t, pr),
                    extension.model_bubble_extension_halforder(y, t, pr)),
                1e-3))
        for _ in range(0 if tiny else 3):
            y = _direction(rng, n) * rng.uniform(0.0, 2.0)
            t = rng.uniform(0.1, 2.0)
            out.op(f"extend closed form {tag} seeded", lambda y=y, t=t: _rel(
                extension.extend(w, y, t, pr),
                extension.model_bubble_extension_halforder(y, t, pr)) < 1e-3)

    # Riesz potential of a ball: closed form at the centre, monotone in d
    radius = rng.uniform(0.3, 3.0)
    centre = cset.riesz_constant * cset.sphere_area * radius ** (2 * s) / (2 * s)
    out.op(f"riesz_ball_indicator centre {tag}", lambda: _rel(
        fracops.riesz_ball_indicator(0.0, radius, pr), centre) < 1e-6)
    ds = np.linspace(0.0, 5.0 * radius, 4 if tiny else 16)
    out.op(f"riesz_ball_indicator sweep {tag}", lambda: _monotone(
        [fracops.riesz_ball_indicator(d, radius, pr) for d in ds]))

    # sphere-cancelled Green potential: vanishes on |Y| = lam, and its
    # conormal derivative recovers the density (repository gates)
    ctx = green.GreenContext(1.0, pr)
    q = green.AnnulusDensity(4.0, lambda y: 1.0 / (
        1.0 + np.linalg.norm(np.atleast_2d(y), axis=1) ** 2))
    for _ in range(1 if tiny else 2):
        Y = _direction(rng, n + 1)
        Y[n] = abs(Y[n])
        out.op(f"phi_potential on sphere {tag}", lambda Y=Y: abs(
            green.phi_potential(ctx, q, Y)) < 1e-8)
    if not tiny:
        y0 = 1.6 * np.eye(n)[0]
        out.op(f"phi_conormal {tag}", lambda: out.gate(
            "phi_conormal_err", _rel(green.phi_conormal(ctx, q, y0),
                                     1.0 / (1.0 + 1.6 ** 2)), 5e-2))

    bbl_seed, g3_seed = (int(v) for v in rng.integers(2 ** 31, size=2))
    out.op(f"check_bbl_inequalities {tag}", lambda: all(map(
        green.check_bbl_inequalities(pr, grid_points=20 if tiny else 100,
                                     seed=bbl_seed).get,
        ("bbl1_pass", "bbl2_pass", "bbl3_pass", "far_field_pass"))))
    out.op(f"check_g3_bound {tag}", lambda: green.check_g3_bound(
        ctx, n_side=4 if tiny else 8, seed=g3_seed)["stable"])

    state = _state(pr, 1.0)
    ys = [_direction(rng, n) * (1.0 + 3.0 * rng.random())
          for _ in range(5 if tiny else 40)]
    out.op(f"b_coefficient {tag}", lambda: min(
        movingsphere.b_coefficient(state, y) for y in ys) >= 0.0)


def _monotone(vals):
    return all(a >= b - 1e-12 * abs(a) for a, b in zip(vals, vals[1:]))


def _lambda_sweep(out, rng, n, tiny):
    """The pure bubble is Kelvin-fixed at lam = 1, so the sweep must find 1."""
    pr = Params(n, 0.5)
    count = 40 if tiny else 400
    samples = rng.normal(size=(count, n + 1))
    samples[:, -1] = np.abs(samples[:, -1]) + 1e-3
    samples[:, :n] *= 1.0 + 2.0 * rng.random((count, 1))
    grid = np.linspace(0.6, 1.4, 11)

    def run():
        sw = movingsphere.lambda_star_sweep(
            lambda lam: _state(pr, lam), grid, samples)
        return sw["lambda_star"] is not None \
            and abs(sw["lambda_star"] - 1.0) <= 2e-3
    out.op(f"lambda_star_sweep n={n}", run)


def operator_sweep(seed, tiny=False):
    """Single-level operator calls against closed forms over (n, sigma)."""
    out = Outcome()
    rng = np.random.default_rng(seed)
    cases = [(2, 0.5)] if tiny else [(n, s) for n in (2, 3)
                                     for s in (0.25, 0.5, 0.75)]
    for n, s in cases:
        _sweep_case(out, rng, Params(n, s), tiny)
    for n in ((3,) if tiny else (2, 3)):
        _lambda_sweep(out, rng, n, tiny)
    return out


# --- solver_grid --------------------------------------------------------------

def solver_grid(seed, tiny=False):
    """1D Getoor problem at large N plus the radial annulus."""
    out = Outcome()
    rng = np.random.default_rng(seed)
    pr = Params(1, 0.5)
    nodes = 256 if tiny else 512
    rhs = rng.random((4 if tiny else 20, 2, nodes))
    prob = out.produce("build_problem 1d", lambda: solver.build_problem(
        (-1.0, 1.0), pr, nodes=nodes))
    if prob is not None:
        out.op("row_sum_check 1d", lambda: prob.row_sum_check()[0])
        prob.rhs_map = lambda x, v: np.ones_like(x)
        exact = solver.getoor_profile(prob.grid, pr)
        trace = out.produce("monotone_iterate", lambda: solver.monotone_iterate(
            prob, supersolution=1.2 * exact + 0.1))
        if trace is not None:
            out.op("monotone flags and convergence",
                   lambda: trace.converged and all(trace.monotone_flags))
            out.op("getoor profile", lambda: out.gate(
                "getoor_err", np.max(np.abs(trace.iterates[-1] - exact))
                / np.max(exact), 0.02))

        def solve(f, extra):
            y = solver.solve_linear(prob, f)
            y2 = solver.solve_linear(prob, f + extra)
            return bool(np.all(y >= -1e-10) and np.all(y <= y2 + 1e-10))
        for f, extra in rhs:
            out.op("solve_linear maximum principle and comparison",
                   lambda: solve(f, extra))

    annulus = out.produce("build_problem annulus", lambda: solver.build_problem(
        (1.0, 2.0), Params(2, 0.5), nodes=64 if tiny else 96, dimension=2))
    if annulus is not None:
        out.op("row_sum_check annulus", lambda: annulus.row_sum_check()[0])
    return out


# --- construct_plan -----------------------------------------------------------

#: N = 19 raises ``RuntimeError: lambda constraint infeasible even at the
#: floor`` in plan_sequences; it stays in the workload as a counted failure.
PLAN_SIZES = (8, 16, 19)

#: Seed of the plan search: the default seed of ``fraclab construct``.  The
#: search work depends on this seed (its riesz_ball_indicator calls spread
#: by 13% over seeds), so it is fixed to keep the work of a pass the same
#: for every benchmark seed; the benchmark seed draws the rest.
PLAN_SEED = 7


def construct_plan(seed, tiny=False):
    """``fraclab construct``: plans, their validation, and seeded samples."""
    out = Outcome()
    rng = np.random.default_rng(seed)
    pr = Params(5, 0.5)
    kf = ScalarField(lambda x: np.ones(np.atleast_2d(x).shape[0]), n=5,
                     decay="integrable_against_kernel")
    phi = reports.parse_phi("r^-10")
    qe = pr.kelvin_exp / (4.0 * pr.sigma)
    count = 20 if tiny else 300
    for N in ((8, 19) if tiny else PLAN_SIZES):
        check_seed = int(rng.integers(2 ** 31))
        pts = rng.normal(size=(count, 5))
        pts *= (10.0 ** rng.uniform(-2, 2, size=count)
                / np.linalg.norm(pts, axis=1))[:, None]
        plan = out.produce(f"plan_sequences N={N}", lambda: (
            construction.plan_sequences(pr, kf, phi, N=N, seed=PLAN_SEED)))
        if plan is None:
            continue
        out.op(f"validate_plan N={N}", lambda: construction.validate_plan(
            plan, seed=check_seed)["all_pass"][0])
        out.op(f"bubble_sum off the cores N={N}", lambda: all(
            construction.bubble_sum(plan, x)
            <= plan.a ** qe * float(plan.w_profile(np.linalg.norm(x)))
            for x in pts))
        # with zero correction the assembled K stays <= 1; one bubble
        # dominates every sample, so the largest K does not depend on them
        out.op(f"k_assemble bound N={N}", lambda: out.gate(
            "k_bound_share", max(construction.k_assemble(plan, "zero", x)
                                 for x in pts), 1.0 + 1e-6))
    return out


WORKLOADS = {
    "verify_all": verify_all,
    "operator_sweep": operator_sweep,
    "solver_grid": solver_grid,
    "construct_plan": construct_plan,
}
