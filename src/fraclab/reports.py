"""Verification suites and deterministic report assembly.

Each suite runs a fixed list of named checks and returns
``{"name", "claim", "margin", "passed"}`` records; the report writer
serializes them with sorted keys and stable float formatting so that two
runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields as dc_fields
from typing import Callable, Dict, List

import numpy as np

from . import bubbles, constants, construction, extension, fracops, green, \
    movingsphere, solver
from .fields import ScalarField, radial_field
from .params import Params

SUITES = ("constants", "fraclap", "bubble", "extend", "green", "msphere",
          "construct", "solver")


class ConfigError(ValueError):
    """A run configuration or environment setting that no suite can run."""


@dataclass
class RunConfig:
    """Every field has a default; :meth:`from_file` reads key=value files
    over the defaults and the fields given as ``base``."""

    n: int = 2
    sigma: float = 0.5
    N: int = 8
    phi: str = "r^-10"
    seed: int = 7
    out: str = ""
    tol_scale: float = 1.0
    suite: str = "all"

    @classmethod
    def from_file(cls, path: str, **base) -> "RunConfig":
        kwargs = dict(base)
        types = {f.name: f.type for f in dc_fields(cls)}
        casts = {"int": int, "float": float, "str": str}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in types:
                    raise ConfigError(f"unknown config key: {key}")
                try:
                    kwargs[key] = casts[str(types[key])](val)
                except ValueError:
                    raise ConfigError(f"config key {key}: cannot read "
                                      f"{val!r} as {types[key]}") from None
        return cls(**kwargs)


def parse_phi(expr: str) -> Callable[[float], float]:
    """Parse a power-law blow-up rate like ``r^-10`` or ``2.5*r^-3``."""
    m = re.fullmatch(r"(?:([0-9.eE+-]+)\s*\*\s*)?r\^(-?[0-9.eE+]+)", expr.strip())
    if not m:
        raise ValueError(f"cannot parse rate expression: {expr!r}")
    coef = float(m.group(1)) if m.group(1) else 1.0
    expo = float(m.group(2))
    return lambda r: coef * r ** expo


def check(name: str, claim: str, margin: float, passed: bool) -> Dict:
    return {"name": name, "claim": claim,
            "margin": None if margin is None or not math.isfinite(margin)
            else float(margin),
            "passed": bool(passed)}


def gate(name: str, claim: str, err: float, tol: float, cfg: RunConfig) -> Dict:
    """Check passing when err < tol * cfg.tol_scale, with that bound's margin."""
    bound = tol * cfg.tol_scale
    return check(name, claim, bound - err, err < bound)


# --- suites ------------------------------------------------------------------

def suite_constants(cfg: RunConfig) -> List[Dict]:
    out = []
    worst = 0.0
    for n in (2, 3, 5, 7):
        for s in (0.25, 0.5, 0.75):
            pr = Params(n, s)
            worst = max(worst,
                        abs(constants.poisson_norm_residual(pr)),
                        abs(constants.green_norm_residual(pr)))
    out.append(gate("normalization-quadrature", "closed-form constants match "
                    "their defining radial integrals on the 12-point grid",
                    worst, 1e-8, cfg))
    ct = constants.c_tilde(Params(2, 0.5))
    out.append(gate("halforder-unit", "the trace-to-source constant equals 1 "
                    "at n=2, sigma=1/2", abs(ct - 1.0), 1e-10, cfg))
    pr = Params(cfg.n, cfg.sigma)
    lhs = constants.c_tilde(pr)
    rhs = constants.d_sigma(pr) * constants.bubble_eigenvalue(pr)
    rel = abs(lhs - rhs) / abs(rhs)
    out.append(gate("constant-cross-check", "trace constant equals the "
                    "extension weight times the bubble eigenvalue",
                    rel, 1e-6, cfg))
    return out


def suite_fraclap(cfg: RunConfig) -> List[Dict]:
    out = []
    pr1 = Params(1, 0.5)
    f = ScalarField(lambda x: np.cos(x[:, 0]), n=1,
                    decay="integrable_against_kernel")
    res = fracops.frac_lap_at(f, np.zeros(1), pr1)
    err = abs(res.value - 1.0)
    out.append(gate("cosine-symbol", "half Laplacian of cos at the origin "
                    "equals 1 in one dimension", err, 1e-3, cfg))
    # Riesz inversion on smooth compact bumps, at n = 2, 3 and the given n
    worst = 0.0
    for n in sorted({2, 3, cfg.n}):
        pr = Params(n, cfg.sigma)
        prof = lambda r: np.where(r < 1.0, np.exp(
            -np.clip(r, 0, 0.999999) ** 2 / np.clip(1 - r ** 2, 1e-12, None)), 0.0)
        bump = radial_field(prof, n, decay="compact_support", support_radius=1.0)
        pts = np.outer((0.0, 0.3, 0.5), np.eye(n)[0])
        back = fracops.frac_lap_at(fracops.riesz_field(bump, pr), pts, pr)
        rel = np.abs(back.value - bump(pts)) / bump.at(np.zeros(n))
        worst = max(worst, float(np.max(rel)))
    out.append(gate("riesz-inversion", "fractional Laplacian of the Riesz "
                    "potential recovers a smooth compact bump",
                    worst, 1e-3, cfg))
    return out


def suite_bubble(cfg: RunConfig) -> List[Dict]:
    out = []
    worst = 0.0
    for (n, s) in sorted({(2, 0.5), (3, 0.5), (3, 0.75), (cfg.n, cfg.sigma)}):
        res = bubbles.bubble_identity_residuals(Params(n, s))
        worst = max(worst, float(np.max(res)))
    out.append(gate("bubble-identity", "the standard bubble solves the "
                    "critical equation at five radii", worst, 1e-3, cfg))
    pr = Params(2, 0.5)
    res_bad = bubbles.bubble_identity_residuals(
        pr, amplitude=1.1 * constants.bubble_constant(pr))
    bad = float(np.min(res_bad))
    out.append(check("amplitude-detection", "a 10 percent amplitude "
                     "perturbation is detected", bad - 1e-2, bad > 1e-2))
    out.append(gate("kelvin-invariance", "the Kelvin transform fixes the "
                    "unit bubble", bubbles.kelvin_fixes_bubble(pr), 1e-12, cfg))
    return out


def suite_extend(cfg: RunConfig) -> List[Dict]:
    out = []
    pr = Params(max(cfg.n, 2), cfg.sigma)
    one = radial_field(np.ones_like, pr.n)  # radial, so every n runs
    val = extension.extend(one, np.zeros(pr.n), 0.7, pr)
    err = abs(val - 1.0)
    out.append(gate("poisson-mass", "the extension of the constant 1 is 1",
                    err, 1e-6, cfg))
    worst = 0.0
    cset = constants.constant_set(pr)
    w = bubbles.model_bubble(pr)
    for d in (0.0, 0.5, 1.2):
        y = d * np.eye(pr.n)[0]
        der = extension.conormal_derivative(w, y, pr)
        ref = cset.c_tilde * w.at(y) ** pr.p
        worst = max(worst, abs(der - ref) / abs(ref))
    out.append(gate("conormal-identity", "the conormal derivative of the "
                    "extended bubble reproduces the critical power",
                    worst, 1e-2, cfg))
    # the bubble's extension: closed at sigma = 1/2, else Feynman's integral
    worst = 0.0
    for d, t in ((0.3, 0.5), (1.0, 1.0)):
        y = d * np.eye(pr.n)[0]
        direct = green.wtilde_extension(np.append(y, t), pr)
        quad = extension.extend(w, y, t, pr)
        worst = max(worst, abs(direct - quad) / abs(direct))
    out.append(gate("conformal-invariance", "the one-variable extension of "
                    "the bubble matches the Poisson quadrature at the given "
                    "sigma", worst, 1e-3, cfg))
    return out


def suite_green(cfg: RunConfig) -> List[Dict]:
    out = []
    pr = Params(max(cfg.n, 2), cfg.sigma)
    rep = green.check_bbl_inequalities(pr, seed=cfg.seed)
    out.append(check("kelvin-gap-positive", "the extension dominates its "
                     "Kelvin image inside the ball with positive margin",
                     rep["bbl1_c"], rep["bbl1_pass"]))
    out.append(check("sphere-derivative", "the radial derivative of the gap "
                     "is positive on the half sphere",
                     rep["bbl2_min_derivative"], rep["bbl2_pass"]))
    out.append(check("outside-negativity", "the gap is negative outside the "
                     "double ball", -rep["bbl3_max_outside"], rep["bbl3_pass"]))
    far_rel = abs(rep["far_field_coeff"] - rep["far_field_target"]) \
        / rep["far_field_target"]
    out.append(check("far-field-limit", "the far-field coefficient of the "
                     "Kelvin gap matches its limit", 0.01 - far_rel,
                     rep["far_field_pass"]))
    ctx = green.GreenContext(1.0, pr)
    # potential vanishes on the sphere
    q = green.AnnulusDensity(4.0, lambda y: np.exp(
        -np.linalg.norm(np.atleast_2d(y), axis=1) ** 2))
    ysph = np.eye(pr.n + 1)[0]
    phi0 = green.phi_potential(ctx, q, ysph)
    out.append(gate("sphere-vanishing", "the sphere-cancelled potential "
                    "vanishes on the inversion sphere", abs(phi0), 1e-8, cfg))
    y0 = 1.5 * np.eye(pr.n)[0]
    der = green.phi_conormal(ctx, q, y0)
    ref = float(q(y0[None, :])[0])
    rel = abs(der - ref) / abs(ref)
    out.append(gate("conormal-recovery", "the conormal derivative of the "
                    "potential recovers the density", rel, 1e-3, cfg))
    g3 = green.check_g3_bound(ctx, seed=cfg.seed)
    out.append(check("kernel-ratio-stable", "the kernel ratio supremum is "
                     "stable under grid doubling", 1.5 - g3["ratio"],
                     g3["stable"]))
    return out


def _bubble_state(pr: Params, lam: float) -> movingsphere.ComparisonState:
    w = bubbles.model_bubble(pr)
    kf = ScalarField(lambda x: np.full(np.atleast_2d(x).shape[0],
                                       constants.bubble_eigenvalue(pr)),
                     n=pr.n, decay="integrable_against_kernel")
    ext = lambda Y: green.wtilde_extension(Y, pr)
    return movingsphere.ComparisonState(params=pr, trace=w, extension=ext,
                                        kelvin_radius=lam, k_field=kf)


def suite_msphere(cfg: RunConfig) -> List[Dict]:
    out = []
    pr = Params(3, 0.5)
    rng = np.random.default_rng(cfg.seed)
    samples = rng.normal(size=(400, pr.n + 1))
    samples[:, -1] = np.abs(samples[:, -1]) + 1e-3
    samples[:, :pr.n] *= (1.0 + 2.0 * rng.random((400, 1)))
    grid = np.linspace(0.6, 1.4, 11)
    sweep = movingsphere.lambda_star_sweep(
        lambda lam: _bubble_state(pr, lam), grid, samples)
    lam_star = sweep["lambda_star"]  # None when the sweep finds no sign change
    ok = lam_star is not None and 0.5 < lam_star < 2.0 \
        and sweep["bracket"][1] - sweep["bracket"][0] <= 2e-3
    out.append(check("critical-radius-bracket", "the critical inversion "
                     "radius of the pure bubble lies strictly inside "
                     "(1/2, 2) with a refined bracket",
                     None if lam_star is None else
                     min(lam_star - 0.5, 2.0 - lam_star),
                     ok))
    state = _bubble_state(pr, 1.0)
    worst = math.inf
    for _ in range(200):
        y = rng.normal(size=pr.n)
        y *= (1.0 + 3.0 * rng.random()) / np.linalg.norm(y)
        worst = min(worst, movingsphere.b_coefficient(state, y))
    out.append(check("slope-nonnegative", "the secant slope coefficient is "
                     "nonnegative on random admissible inputs", worst,
                     worst >= 0.0))
    worstq = 0.0
    for _ in range(100):
        y = rng.normal(size=pr.n)
        y *= (1.0 + 3.0 * rng.random()) / np.linalg.norm(y)
        worstq = max(worstq, abs(movingsphere.q_coefficient(state, y)))
    out.append(check("constant-k-source", "the inhomogeneity vanishes for "
                     "constant coefficient", 1e-14 - worstq, worstq < 1e-14))
    return out


def suite_construct(cfg: RunConfig) -> List[Dict]:
    out = []
    pr = Params(5, 0.5)
    kf = ScalarField(lambda x: np.ones(np.atleast_2d(x).shape[0]), n=5,
                     decay="integrable_against_kernel")
    phi = parse_phi(cfg.phi)
    plan = construction.plan_sequences(pr, kf, phi, N=cfg.N, seed=cfg.seed)
    out.append(check("ring-count", "the crowding formula gives the expected "
                     "ring size for these parameters", None,
                     plan.i0 == construction.i0_from_formula(pr, plan.a)))
    rep = construction.validate_plan(plan, seed=cfg.seed)
    for name, (ok, margin) in rep.items():
        if name == "all_pass":
            continue
        out.append(check(f"plan:{name}", "plan invariant re-checked by the "
                         "standalone validator",
                         margin if isinstance(margin, float) else None, ok))
    rng = np.random.default_rng(cfg.seed)

    def draws(count):  # seeded directions at radii 10^U(-2, 2)
        x = rng.normal(size=(count, 5))
        return x * (10.0 ** rng.uniform(-2, 2, size=count)
                    / np.linalg.norm(x, axis=1))[:, None]

    qe = pr.kelvin_exp / (4.0 * pr.sigma)
    pts = draws(2000)
    worst = float(np.max(construction.bubble_sum(plan, pts) - plan.a ** qe
                         * plan.w_profile(np.linalg.norm(pts, axis=1))))
    out.append(check("off-ball-sum", "the bubble sum stays below its share "
                     "of the model profile off the cores", -worst, worst <= 0.0))
    pts = draws(500)
    worst_k = max(0.0, float(np.max(construction.k_assemble(plan, "zero", pts))))
    out.append(check("coefficient-bound", "the assembled coefficient with "
                     "zero correction stays at or below one",
                     1.0 + 1e-6 - worst_k, worst_k <= 1.0 + 1e-6))
    # (-Lap)^s vbar >= H(x, vbar) on every core ring and at seeded samples,
    # one batch: rows anchored at each centre, then 32 absolute rows (-1)
    anchors = np.repeat(np.arange(plan.n_mat), 4)
    offsets = np.zeros((anchors.size + 32, 5))
    offsets[:anchors.size, 0] = np.tile([0.0, 0.5, 1.0, 1.5], plan.n_mat) * plan.rho[anchors]
    offsets[anchors.size:] = draws(32)
    rows = (np.append(anchors, np.full(32, -1)), offsets)
    log_h, sign = construction.log_h(plan, rows, construction.vbar_eval(plan, rows))
    # a negative H is below any positive source
    gaps = construction.log_barrier_source(plan, rows) - log_h
    worst_s = float(np.min(gaps[sign > 0.0], initial=math.inf))
    out.append(check("supersolution", "the barrier's closed-form source "
                     "dominates H(x, vbar) on the core rings and off them",
                     worst_s, worst_s > 0.0))
    return out


def suite_solver(cfg: RunConfig) -> List[Dict]:
    out = []
    pr = Params(1, 0.5)
    prob = solver.build_problem((-1.0, 1.0), pr, nodes=256)
    ok, min_row = prob.row_sum_check()
    out.append(check("operator-structure", "the collocation matrix has the "
                     "discrete maximum-principle sign structure", min_row, ok))
    prob.rhs_map = lambda x, v: np.ones_like(x)
    exact = solver.getoor_profile(prob.grid, pr)
    trace = solver.monotone_iterate(prob, supersolution=1.2 * exact + 0.1)
    err = float(np.max(np.abs(trace.iterates[-1] - exact)) / np.max(exact))
    out.append(check("ball-source-profile", "the unit-source solution matches "
                     "its closed form within two percent", 0.02 - err,
                     err < 0.02 and trace.converged))
    out.append(check("monotone-flags", "every Picard step is pointwise "
                     "non-decreasing", None, all(trace.monotone_flags)))
    rng = np.random.default_rng(cfg.seed)
    dmp_ok, cmp_ok = True, True
    for _ in range(20):
        rhs = rng.random(256)
        y = solver.solve_linear(prob, rhs)
        dmp_ok = dmp_ok and bool(np.all(y >= -1e-10))
        y2 = solver.solve_linear(prob, rhs + rng.random(256))
        cmp_ok = cmp_ok and bool(np.all(y <= y2 + 1e-10))
    out.append(check("maximum-principle", "nonnegative sources give "
                     "nonnegative solutions", None, dmp_ok))
    out.append(check("comparison", "larger sources give larger solutions",
                     None, cmp_ok))
    return out


SUITE_FUNCS = {
    "constants": suite_constants,
    "fraclap": suite_fraclap,
    "bubble": suite_bubble,
    "extend": suite_extend,
    "green": suite_green,
    "msphere": suite_msphere,
    "construct": suite_construct,
    "solver": suite_solver,
}


def run_suite(cfg: RunConfig) -> Dict:
    """Run the selected suites; returns the full deterministic report.

    A config no suite can run raises :class:`ConfigError` up front.
    """
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        if name not in SUITE_FUNCS:
            raise ConfigError(f"unknown suite: {name}")
    try:    # n >= 1, sigma in (0, 1), and n > 2 sigma for the exponents
        Params(cfg.n, cfg.sigma).kelvin_exp
    except ValueError as exc:
        raise ConfigError(f"n={cfg.n} and sigma={cfg.sigma}: {exc}") from None
    if "green" in names and cfg.n > 3:
        raise ConfigError(f"the green suite runs at n in {{2, 3}}, got n={cfg.n}")
    checks = []
    for name in names:
        for c in SUITE_FUNCS[name](cfg):
            c = dict(c)
            c["suite"] = name
            checks.append(c)
    report = {
        "config": {f.name: getattr(cfg, f.name) for f in dc_fields(cfg)
                   if f.name != "out"},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "first_failure": next((c["name"] for c in checks if not c["passed"]),
                              None),
    }
    return report


def format_report(report: Dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def summarize(report: Dict) -> str:
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        margin = "" if c["margin"] is None else f"  margin={c['margin']:.6g}"
        lines.append(f"[{status}] {c['suite']}/{c['name']}: {c['claim']}{margin}")
    lines.append("ALL PASS" if report["passed"]
                 else f"FIRST FAILURE: {report['first_failure']}")
    return "\n".join(lines) + "\n"
