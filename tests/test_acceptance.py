"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line.  These deliberately re-derive results
through the public API rather than re-using unit-test internals.
"""

import math

import numpy as np
import pytest

from fraclab import (bubbles, constants, construction, extension, fracops,
                     green, movingsphere, reports, solver)
from fraclab.fields import ScalarField, radial_field
from fraclab.params import Params


def _record(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert passed, f"acceptance criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def plan():
    kf = ScalarField(lambda x: np.ones(np.atleast_2d(x).shape[0]), n=5,
                     decay="integrable_against_kernel")
    return construction.plan_sequences(Params(5, 0.5), kf,
                                       lambda r: r ** -10.0, N=8)


@pytest.fixture(scope="module")
def prob256():
    return solver.build_problem((-1.0, 1.0), Params(1, 0.5), nodes=256)


def test_criterion_01_constants():
    worst = 0.0
    for n in (2, 3, 5, 7):
        for s in (0.25, 0.5, 0.75):
            pr = Params(n, s)
            worst = max(worst, abs(constants.poisson_norm_residual(pr)),
                        abs(constants.green_norm_residual(pr)))
    unit = abs(constants.c_tilde(Params(2, 0.5)) - 1.0)
    pr = Params(3, 0.5)
    cross = abs(constants.c_tilde(pr) - constants.d_sigma(pr)
                * constants.bubble_eigenvalue(pr)) / constants.c_tilde(pr)
    for n in (2, 3, 5, 7):
        for s in (0.25, 0.5, 0.75):
            pr = Params(n, s)
            cross = max(cross, abs(constants.c_tilde(pr)
                                   - constants.d_sigma(pr)
                                   * constants.bubble_eigenvalue(pr))
                        / constants.c_tilde(pr))
    ok = worst < 1e-8 and unit < 1e-10 and cross < 1e-6
    _record(1, "closed-form constants", ok,
            f"quadrature={worst:.2e} unit={unit:.2e} cross={cross:.2e}")


def test_criterion_02_bubble_identity():
    worst = 0.0
    for n, s in ((2, 0.5), (3, 0.5), (3, 0.75)):
        res = bubbles.bubble_identity_residuals(Params(n, s))
        assert len(res) >= 5
        worst = max(worst, float(np.max(res)))
    pr = Params(2, 0.5)
    bad = float(np.min(bubbles.bubble_identity_residuals(
        pr, amplitude=1.1 * constants.bubble_constant(pr))))
    ok = worst < 1e-3 and bad > 1e-2
    _record(2, "bubble identity", ok,
            f"residual={worst:.2e} perturbed_min={bad:.2e}")


def test_criterion_03_cosine_symbol():
    f = ScalarField(lambda x: np.cos(x[:, 0]), n=1,
                    decay="integrable_against_kernel")
    val = fracops.frac_lap_at(f, np.zeros(1), Params(1, 0.5)).value
    err = abs(val - 1.0)
    _record(3, "fourier symbol oracle", err < 1e-3, f"err={err:.2e}")


def test_criterion_04_riesz_inversion():
    worst = 0.0
    for n in (2, 3):
        pr = Params(n, 0.5)
        prof = lambda r: np.where(r < 1.0, np.exp(
            -np.clip(r, 0, 0.999999) ** 2 / np.clip(1 - r ** 2, 1e-12, None)),
            0.0)
        bump = radial_field(prof, n, decay="compact_support",
                            length=1.0)
        for d in (0.0, 0.2, 0.3, 0.4, 0.5):
            pot = ScalarField(
                lambda x, _pr=pr, _b=bump: np.array(
                    [fracops.riesz_potential(_b, xi, _pr).value
                     for xi in np.atleast_2d(x)]),
                n=n, decay="power_decay", decay_rate=n - 2 * pr.sigma,
                kink_radii=(1.0,))
            back = fracops.frac_lap_at(pot, d * np.eye(n)[0], pr).value
            worst = max(worst, abs(back - bump.at(d * np.eye(n)[0]))
                        / bump.at(np.zeros(n)))
    _record(4, "riesz inversion", worst < 1e-3, f"rel={worst:.2e}")


def test_criterion_05_extension():
    pr = Params(3, 0.5)
    one = ScalarField(lambda x: np.ones(x.shape[0]), n=3,
                      decay="integrable_against_kernel")
    mass = abs(extension.extend(one, np.zeros(3), 0.7, pr) - 1.0)
    w = bubbles.model_bubble(pr)
    cset = constants.constant_set(pr)
    conormal = 0.0
    for d in (0.0, 0.5, 1.2):
        y = d * np.eye(3)[0]
        der = extension.conormal_derivative(w, y, pr)
        ref = cset.c_tilde * w.at(y) ** pr.p
        conormal = max(conormal, abs(der - ref) / abs(ref))
    conf = 0.0
    for d, t in ((0.3, 0.5), (1.0, 1.0), (1.5, 0.25)):
        y = d * np.eye(3)[0]
        direct = extension.model_bubble_extension_halforder(y, t, pr)
        quad = extension.extend(w, y, t, pr)
        conf = max(conf, abs(direct - quad) / abs(direct))
    ok = mass < 1e-6 and conormal < 1e-2 and conf < 1e-3
    _record(5, "extension", ok,
            f"mass={mass:.2e} conormal={conormal:.2e} conformal={conf:.2e}")


def test_criterion_06_kelvin_gap_inequalities():
    rep = green.check_bbl_inequalities(Params(3, 0.5))
    far_rel = abs(rep["far_field_coeff"] - rep["far_field_target"]) \
        / rep["far_field_target"]
    ok = (rep["bbl1_pass"] and rep["bbl1_c"] > 0.0 and rep["bbl2_pass"]
          and rep["bbl3_pass"] and far_rel < 0.01)
    _record(6, "kelvin gap inequalities", ok,
            f"c={rep['bbl1_c']:.2e} far_field_rel={far_rel:.2e}")


def test_criterion_07_sphere_potential():
    pr = Params(3, 0.5)
    ctx = green.GreenContext(1.0, pr)
    q = green.AnnulusDensity(4.0, lambda y: np.exp(
        -np.linalg.norm(np.atleast_2d(y), axis=1) ** 2))
    ysph = np.array([0.0, 1.0, 0.0, 0.0])
    vanish = abs(green.phi_potential(ctx, q, ysph))
    y0 = np.array([1.5, 0.0, 0.0])
    rec = abs(green.phi_conormal(ctx, q, y0) - float(q(y0[None, :])[0])) \
        / float(q(y0[None, :])[0])
    g3 = green.check_g3_bound(ctx)
    ok = vanish < 1e-8 and rec < 5e-2 and g3["stable"] and g3["ratio"] < 1.5
    _record(7, "annulus potential", ok,
            f"vanish={vanish:.2e} recovery={rec:.2e} g3_ratio={g3['ratio']:.3f}")


def test_criterion_08_moving_sphere():
    pr = Params(3, 0.5)
    rng = np.random.default_rng(7)

    def state(lam):
        w = bubbles.model_bubble(pr)
        kf = ScalarField(lambda x: np.full(np.atleast_2d(x).shape[0],
                                           constants.bubble_eigenvalue(pr)),
                         n=3, decay="integrable_against_kernel")
        ext = lambda Y: extension.model_bubble_extension_halforder(
            Y[..., :3], Y[..., 3], pr)
        return movingsphere.ComparisonState(params=pr, trace=w, extension=ext,
                                            kelvin_radius=lam, k_field=kf)

    samples = rng.normal(size=(400, 4))
    samples[:, -1] = np.abs(samples[:, -1]) + 1e-3
    samples[:, :3] *= (1.0 + 2.0 * rng.random((400, 1)))
    sweep = movingsphere.lambda_star_sweep(state, np.linspace(0.6, 1.4, 11),
                                           samples)
    lo, hi = sweep["bracket"]
    bracket_ok = 0.5 < lo <= sweep["lambda_star"] <= hi < 2.0 \
        and hi - lo <= 1e-3 * 2.0
    vals = rng.random((10000, 4))
    bmin = min(movingsphere.b_from_values(0.1 + k, 0.1 + w, 0.1 + wl,
                                          1.1 + 3.0 * p)
               for k, w, wl, p in vals)
    st1 = state(1.0)
    worstq = 0.0
    for _ in range(100):
        y = rng.normal(size=3)
        y *= (1.0 + 3.0 * rng.random()) / np.linalg.norm(y)
        worstq = max(worstq, abs(movingsphere.q_coefficient(st1, y)))
    ok = bracket_ok and bmin >= 0.0 and worstq < 1e-14
    _record(8, "moving-sphere lab", ok,
            f"bracket=({lo:.6f},{hi:.6f}) b_min={bmin:.2e} q_max={worstq:.2e}")


def test_criterion_09_construction(plan):
    pr = Params(5, 0.5)
    checks = {}
    checks["ring count"] = plan.i0 == 257 \
        and construction.i0_from_formula(pr, plan.a) == 257
    checks["exponent"] = plan.beta == pytest.approx(1.0 / 27.0, rel=1e-14) \
        and abs(plan.beta - 0.037037) < 1e-6
    rep = construction.validate_plan(plan)
    checks["validator"] = rep["all_pass"][0]
    phi = lambda r: r ** -10.0
    checks["blow-up rate"] = all(
        construction.assemble_u(plan, "zero", (i, np.zeros(5)))
        > (i + 1) * phi(float(np.linalg.norm(plan.centers[i])))
        for i in range(8))
    rng = np.random.default_rng(13)
    qe = pr.kelvin_exp / (4.0 * pr.sigma)
    worst_gap = -math.inf
    for _ in range(10000):
        x = rng.normal(size=5)
        x *= 10.0 ** rng.uniform(-2, 2) / np.linalg.norm(x)
        gap = construction.bubble_sum(plan, x) \
            - plan.a ** qe * float(plan.w_profile(np.linalg.norm(x)))
        worst_gap = max(worst_gap, gap)
    checks["off-ball sum"] = worst_gap <= 0.0
    worst_k = max(construction.k_assemble(plan, "zero", x) for x in
                  (rng.normal(size=5) * 10.0 ** rng.uniform(-2, 2)
                   for _ in range(2000)))
    worst_k = max(worst_k,
                  construction.k_assemble(plan, "zero", (3, np.zeros(5))))
    checks["coefficient bound"] = worst_k <= 1.0 and worst_k <= 1.0 + 1e-6
    slopes = [plan.one_minus_k[i] / plan.rho[i] for i in range(8)]
    env = [(2.0 / 3.0) ** ((i + 1) / (2.0 * pr.sigma)) for i in range(8)]
    const = max(s / e for s, e in zip(slopes, env))
    checks["gradient schedule"] = all(
        a >= b - 1e-15 for a, b in zip(slopes, slopes[1:])) and all(
        s <= const * e * (1.0 + 1e-12) for s, e in zip(slopes, env))
    q = 4.0 * pr.sigma / pr.kelvin_exp
    r1 = [plan.m_big[i] * plan.one_minus_k[i] ** q for i in range(8)]
    r2 = [plan.rho[i] ** (2 * pr.sigma) * 2.0 ** (i + 1) * plan.m_big[i]
          for i in range(8)]
    r3 = [plan.lam[i] / (plan.eps[i] ** (2.0 / pr.kelvin_exp)
                         * plan.rho[i] ** 2) for i in range(8)]
    checks["scaling laws"] = all(max(r) / min(r) < 4.0 for r in (r1, r2, r3))
    failed = [k for k, v in checks.items() if not v]
    _record(9, "singular construction", not failed,
            f"failed={failed}" if failed else
            f"k_max={worst_k:.6f} sum_gap={worst_gap:.2e}")


def test_criterion_10_solver(prob256):
    prob256.rhs_map = lambda x, v: np.ones_like(x)
    exact = solver.getoor_profile(prob256.grid, Params(1, 0.5))
    trace = solver.monotone_iterate(prob256, supersolution=1.2 * exact + 0.1)
    err = float(np.max(np.abs(trace.iterates[-1] - exact)) / np.max(exact))
    rng = np.random.default_rng(3)
    dmp_ok, cmp_ok = True, True
    for _ in range(100):
        rhs = rng.random(256)
        y = solver.solve_linear(prob256, rhs)
        dmp_ok = dmp_ok and bool(np.all(y >= -1e-10))
        y2 = solver.solve_linear(prob256, rhs + rng.random(256))
        cmp_ok = cmp_ok and bool(np.all(y <= y2 + 1e-10))
    ok = err < 0.02 and trace.converged and all(trace.monotone_flags) \
        and dmp_ok and cmp_ok
    _record(10, "solver oracle", ok,
            f"sup_err={err:.4f} monotone={all(trace.monotone_flags)}")


def test_criterion_11_determinism():
    cfg = reports.RunConfig(suite="all", seed=7)
    first = reports.format_report(reports.run_suite(cfg))
    second = reports.format_report(reports.run_suite(cfg))
    ok = first == second and '"passed": true' in first
    _record(11, "deterministic reports", ok,
            f"bytes={len(first)} identical={first == second}")
