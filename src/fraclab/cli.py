"""Command-line front door: verification suites, construction runs, data dumps.

``green-verify`` and ``msphere`` are ``verify`` with the suite preset.
Reports are JSON with sorted keys; field samples are CSV with a header
row.  Two runs with the same seed and config produce byte-identical
report files.  A configuration no command can run (an unknown or
unreadable config key, n < 1 or sigma outside (0, 1) for any command,
n <= 2 sigma for ``verify``, n > 3 for its green suite) exits with
status 2 and the reason on stderr; a ``construct`` whose plan is
infeasible exits with status 1 and the reason.  ``construct`` plans at
n = 5 unless the config file or a flag sets n.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields as dc_fields

import numpy as np

from . import bubbles, constants, construction, extension, fracops, reports, \
    solver
from .fields import ScalarField
from .params import Params


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--N", type=int, default=None)
    parser.add_argument("--phi", type=str, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--tol-scale", dest="tol_scale", type=float,
                        default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file; flags override it")


def _config_from_args(args: argparse.Namespace, **base) -> reports.RunConfig:
    """The defaults, then ``base``, then the config file, then the flags."""
    cfg = (reports.RunConfig.from_file(args.config, **base) if args.config
           else reports.RunConfig(**base))
    for f in dc_fields(cfg):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def _params(n: int, sigma: float) -> Params:
    """Params(n, sigma) for a command, or the ConfigError that makes it exit
    with status 2 and the reason (``verify`` checks in ``run_suite``)."""
    try:
        return Params(n, sigma)
    except ValueError as exc:
        raise reports.ConfigError(f"n={n} and sigma={sigma}: {exc}") from None


def _save(out_dir: str, name: str, text: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    """Run ``args.suite``: from ``--suite``, or preset by green-verify/msphere."""
    cfg = _config_from_args(args)
    cfg.suite = args.suite
    report = reports.run_suite(cfg)
    _save(cfg.out, f"report_{cfg.suite}.json", reports.format_report(report))
    sys.stdout.write(reports.summarize(report))
    if not report["passed"]:
        sys.stderr.write(f"first failing check: {report['first_failure']}\n")
        return 1
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pr = _params(cfg.n, cfg.sigma)
    cset = constants.constant_set(pr)
    # a constant that does not exist at this (n, sigma) is NaN, written null
    payload = {"n": pr.n, "sigma": pr.sigma, "constants": {
        k: v if math.isfinite(v) else None for k, v in cset.as_dict().items()}}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _save(cfg.out, "constants.json", text)
    sys.stdout.write(text)
    return 0


def cmd_fraclap(args: argparse.Namespace) -> int:
    """Fractional Laplacian of the model bubble on a radial sample grid."""
    cfg = _config_from_args(args)
    pr = _params(max(cfg.n, 2), cfg.sigma)
    w = bubbles.model_bubble(pr)
    r = np.linspace(0.0, 3.0, 13)
    res = fracops.frac_lap_radial(w, r, pr)
    rhs = constants.bubble_eigenvalue(pr) * w.radial_profile(r) ** pr.p
    rows = zip(r.tolist(), res.value.tolist(), res.error.tolist(), rhs.tolist())
    _write_csv(cfg.out, "fraclap_bubble.csv",
               ["radius", "frac_lap", "quadrature_error", "eigenvalue_times_power"],
               rows)
    return 0


def cmd_bubble(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pr = _params(max(cfg.n, 2), cfg.sigma)
    res = bubbles.bubble_identity_residuals(pr)
    rows = [(r, float(v)) for r, v in zip((0.0, 0.5, 1.0, 2.0, 5.0), res)]
    _write_csv(cfg.out, "bubble_identity.csv", ["radius", "relative_residual"],
               rows)
    worst = float(np.max(res))
    sys.stdout.write(f"max identity residual: {worst:.3e}\n")
    return 0 if worst < 1e-3 else 1


def cmd_extend(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pr = _params(max(cfg.n, 2), cfg.sigma)
    w = bubbles.model_bubble(pr)
    d, t = (a.ravel() for a in np.meshgrid([0.0, 0.5, 1.0], [0.25, 1.0, 4.0],
                                           indexing="ij"))
    vals = extension.extend(w, d[:, None] * np.eye(pr.n)[0], t, pr)
    rows = zip(d.tolist(), t.tolist(), vals.tolist())
    _write_csv(cfg.out, "extension_samples.csv",
               ["base_radius", "height", "extension_value"], rows)
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, n=5)
    pr = _params(cfg.n, cfg.sigma)
    kf = ScalarField(lambda x: np.ones(np.atleast_2d(x).shape[0]), n=pr.n,
                     decay="integrable_against_kernel")
    try:
        plan = construction.plan_sequences(pr, kf, reports.parse_phi(cfg.phi),
                                           N=cfg.N, seed=cfg.seed)
    except construction.InfeasiblePlanError as exc:
        sys.stderr.write(f"no plan for N={cfg.N}: {exc}\n")
        return 1
    payload = {
        "n": pr.n, "sigma": pr.sigma, "N": plan.n_mat, "reduced": plan.reduced,
        "a": plan.a, "b": plan.b, "i0": plan.i0, "beta": plan.beta,
        "delta": plan.delta, "delta1": plan.delta1, "delta2": plan.delta2,
        "ring_radius": plan.ring_radius,
        "one_minus_k": plan.one_minus_k.tolist(),
        "M": plan.m_big.tolist(), "rho": plan.rho.tolist(),
        "lambda": plan.lam.tolist(), "eps": plan.eps.tolist(),
        "margins": {k: (v if v is None or math.isfinite(v) else None)
                    for k, v in plan.margins.items()},
        "all_margins_positive": all(
            v is None or not math.isfinite(v) or v > -1e-12
            for v in plan.margins.values()),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _save(cfg.out, "plan.json", text)
    sys.stdout.write(text)
    return 0


def _construction_rhs():
    """Desk-scale 1D analog of the assembled nonlinearity."""
    pe = Params(1, 0.25)

    def rhs(x, v):
        z1 = 0.3 * np.clip(1.0 - np.asarray(x) ** 2, 0.0, None) + 1e-9
        vv = np.broadcast_to(np.asarray(v, dtype=float), z1.shape)
        out = np.array([max(construction.big_f_val(a, 0.9, 0.2 * b + 0.05, pe),
                            0.0) for a, b in zip(z1, vv)])
        return 0.05 * out

    return rhs


def cmd_iterate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pr = _params(1, 0.5)
    prob = solver.build_problem((-1.0, 1.0), pr, nodes=128)
    if args.demo == "getoor":
        prob.rhs_map = lambda x, v: np.ones_like(x)
        vbar = 1.2 * solver.getoor_profile(prob.grid, pr) + 0.1
    else:  # construction1d, the other choice of --demo
        prob.rhs_map = _construction_rhs()
        vbar = solver.solve_linear(prob, 2.0 * np.ones(len(prob.grid)))
    trace = solver.monotone_iterate(prob, supersolution=vbar)
    sys.stdout.write(
        f"demo={args.demo} iters={len(trace.residuals)} "
        f"converged={trace.converged} monotone={all(trace.monotone_flags)} "
        f"final_residual={trace.residuals[-1]:.3e}\n")
    header = ["x"] + [f"iterate_{i}" for i in range(len(trace.iterates))]
    rows = [[float(x)] + [float(it[j]) for it in trace.iterates]
            for j, x in enumerate(prob.grid)]
    _write_csv(cfg.out, f"iterates_{args.demo}.csv", header, rows)
    return 0 if trace.converged else 1


def _write_csv(out_dir, name, header, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + [[repr(float(v)) if isinstance(
        v, float) else v for v in row] for row in rows])
    _save(out_dir, name, buf.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="verification and construction runs for the fractional "
                    "critical-exponent toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "constants": cmd_constants,
        "fraclap": cmd_fraclap,
        "bubble": cmd_bubble,
        "extend": cmd_extend,
        "green-verify": cmd_verify,
        "msphere": cmd_verify,
        "construct": cmd_construct,
        "iterate": cmd_iterate,
        "verify": cmd_verify,
    }
    preset_suites = {"green-verify": "green", "msphere": "msphere"}
    for name in commands:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "verify":
            p.add_argument("--suite", type=str, default="all",
                           choices=("all",) + reports.SUITES)
        if name in preset_suites:
            p.set_defaults(suite=preset_suites[name])
        if name == "iterate":
            p.add_argument("--demo", type=str, default="getoor",
                           choices=("getoor", "construction1d"))
    args = parser.parse_args(argv)
    try:
        return commands[args.command](args)
    except reports.ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
