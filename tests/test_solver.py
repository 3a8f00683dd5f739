import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclab import fracops, solver
from fraclab.fields import ScalarField
from fraclab.params import Params

PR1 = Params(1, 0.5)


@pytest.fixture(scope="module")
def prob256():
    return solver.build_problem((-1.0, 1.0), PR1, nodes=256)


def test_operator_structure(prob256):
    ok, min_row = prob256.row_sum_check()
    assert ok
    assert min_row >= 0.0


def test_reflection_symmetry(prob256):
    a = prob256.operator_matrix
    flipped = a[::-1, ::-1]
    np.testing.assert_allclose(flipped, a, atol=1e-10)


def test_getoor_oracle_verified_by_quadrature():
    # the closed-form profile solves the unit-source problem: check with
    # the independent singular-integral operator before trusting it below
    f = ScalarField(lambda x: np.clip(1 - x[:, 0] ** 2, 0.0, None) ** 0.5,
                    n=1, decay="compact_support", length=1.0)
    scale = solver.getoor_profile(np.zeros(1), PR1)[0]
    for d in (0.0, 0.4, 0.8):
        val = scale * fracops.frac_lap_at(f, np.array([d]), PR1).value
        assert val == pytest.approx(1.0, rel=2e-3)


def test_getoor_two_percent(prob256):
    u = solver.solve_linear(prob256, np.ones(len(prob256.grid)))
    exact = solver.getoor_profile(prob256.grid, PR1)
    assert float(np.max(np.abs(u - exact))) / float(np.max(exact)) < 0.02


def test_constant_function_cross_validation(prob256):
    f = ScalarField(lambda x: np.where(np.abs(x[:, 0]) < 1.0, 1.0, 0.0),
                    n=1, decay="compact_support", length=1.0)
    mid = len(prob256.grid) // 2
    val = (prob256.operator_matrix @ np.ones(len(prob256.grid)))[mid]
    ref = fracops.frac_lap_at(f, np.array([prob256.grid[mid]]), PR1).value
    assert val == pytest.approx(ref, rel=0.05)


def test_refinement_improves():
    errs = []
    for m in (64, 128):
        p = solver.build_problem((-1.0, 1.0), PR1, nodes=m)
        g = np.exp(-4 * p.grid ** 2) * (1 - p.grid ** 2) ** 2
        fld = ScalarField(
            lambda x: np.where(np.abs(x[:, 0]) < 1,
                               np.exp(-4 * x[:, 0] ** 2)
                               * np.clip(1 - x[:, 0] ** 2, 0, None) ** 2, 0.0),
            n=1, decay="compact_support", length=1.0)
        i = m // 2
        ref = fracops.frac_lap_at(fld, np.array([p.grid[i]]), PR1).value
        errs.append(abs((p.operator_matrix @ g)[i] - ref) / abs(ref))
    # regression-pinned refinement factor (observed ~1.9 per halving)
    assert errs[1] < errs[0] / 1.5


def test_annulus_operator_cross_validation():
    pr = Params(2, 0.5)
    prob = solver.build_problem((1.0, 2.0), pr, nodes=64, dimension=2)
    ok, _ = prob.row_sum_check()
    assert ok
    prof = lambda r: np.clip((np.asarray(r) - 1) * (2 - np.asarray(r)),
                             0.0, None) ** 2 * 16.0
    fld = ScalarField(
        lambda x: prof(np.linalg.norm(x, axis=1)), n=2,
        decay="compact_support", length=2.0,
        radial_profile=prof, kink_radii=(1.0, 2.0))
    g = prof(prob.grid)
    for i in (16, 32, 48):
        ref = fracops.frac_lap_radial(fld, float(prob.grid[i]), pr).value
        assert (prob.operator_matrix @ g)[i] == pytest.approx(ref, rel=0.05)


def test_zero_rhs_converges_immediately(prob256):
    prob256.rhs_map = lambda x, v: np.zeros_like(x)
    trace = solver.monotone_iterate(prob256, supersolution=np.ones(256))
    assert trace.converged
    assert len(trace.residuals) == 1
    np.testing.assert_allclose(trace.iterates[-1], 0.0)


def test_monotone_iteration_getoor(prob256):
    prob256.rhs_map = lambda x, v: np.ones_like(x)
    vbar = 1.2 * solver.getoor_profile(prob256.grid, PR1) + 0.1
    trace = solver.monotone_iterate(prob256, supersolution=vbar)
    assert trace.converged
    assert all(trace.monotone_flags)
    assert trace.residuals[-1] < 1e-8


def test_nonlinear_iteration_bracketed(prob256):
    prob256.rhs_map = lambda x, v: 0.5 * np.exp(-2 * x ** 2) * (1 + v) ** 1.2
    vbar = solver.solve_linear(prob256, 4.0 * np.ones(256))
    trace = solver.monotone_iterate(prob256, supersolution=vbar)
    assert trace.converged
    assert all(trace.monotone_flags)
    assert np.all(trace.iterates[-1] <= vbar + 1e-8)
    assert trace.residuals[-1] < 1e-9


def test_supersolution_inequality_enforced(prob256):
    prob256.rhs_map = lambda x, v: np.ones_like(x)
    with pytest.raises(ValueError):
        solver.monotone_iterate(prob256, supersolution=np.zeros(256))


def test_comparison_and_maximum_principle(prob256):
    rng = np.random.default_rng(3)
    for _ in range(100):
        rhs = rng.random(256)
        y = solver.solve_linear(prob256, rhs)
        assert np.all(y >= -1e-10)
        y2 = solver.solve_linear(prob256, rhs + rng.random(256))
        assert np.all(y <= y2 + 1e-10)


def test_resolution_guard():
    with pytest.raises(solver.ResolutionError):
        solver.build_problem((-1.0, 1.0), PR1, nodes=32)


def test_dimension_consistency_guard():
    with pytest.raises(ValueError):
        solver.build_problem((-1.0, 1.0), Params(2, 0.5), nodes=64,
                             dimension=1)


def _dense_hat_means(r, w, lo, hi, h, nodes):
    # reference: the full (radii x nodes) table of hat values
    grid = lo + h * np.arange(1, nodes + 1)
    basis = np.clip(1.0 - np.abs(r[:, None] - grid[None, :]) / h, 0.0, None)
    basis[(r <= lo) | (r >= hi)] = 0.0
    return w @ basis


@given(st.sampled_from([((-1.0, 1.0), 1), ((0.0, 3.0), 1), ((1.0, 2.0), 2)]),
       st.sampled_from([0.25, 0.5, 0.75]),
       st.integers(min_value=64, max_value=160))
@settings(max_examples=12, deadline=None)
def test_scatter_assembly_matches_dense_basis(case, s, nodes):
    (domain, dim), pr = case, Params(case[1], s)
    a = solver.build_problem(domain, pr, nodes=nodes,
                             dimension=dim).operator_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_hat_scatter", _dense_hat_means)
        ref = solver.build_problem(domain, pr, nodes=nodes,
                                   dimension=dim).operator_matrix
    assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(a == 0.0, ref == 0.0)
    off = ~np.eye(nodes, dtype=bool)
    assert np.array_equal(np.sign(a[off]), np.sign(ref[off]))


def _hat_mean_reference(k, p):
    # 1/2 int_{1/2}^inf [phi(u - k) + phi(u + k)] u^{-1-p} du at 30 digits,
    # split at the kinks of the hats
    with mp.workdps(30):
        p = mp.mpf(p)
        hat = lambda v: max(0, 1 - abs(v))
        breaks = sorted({mp.mpf(0.5)} | {mp.mpf(b) for b in (k - 1, k, k + 1)
                                         if b > 0.5})
        return mp.quad(lambda u: (hat(u - k) + hat(u + k)) / 2
                       * u ** (-1 - p), breaks)


@pytest.mark.parametrize("s", [0.25, 0.4999, 0.5, 0.75])
def test_hat_means_match_high_precision_quadrature(s):
    t = solver._hat_means(2.0 * s, 4096)
    for k in (0, 1, 2, 3, 100, 511, 4095):
        ref = _hat_mean_reference(k, 2.0 * s)
        assert abs(t[k] / float(ref) - 1.0) < 1e-12, k


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_hat_means_stay_positive(s):
    # every off-diagonal entry -scale t_k stays negative at any N
    assert np.all(solver._hat_means(2.0 * s, 100_001) > 0.0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("nodes", [64, 200])
@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 3.0)])
def test_interval_matrix_is_exactly_symmetric_toeplitz(s, nodes, domain):
    a = solver.build_problem(domain, Params(1, s), nodes=nodes).operator_matrix
    assert np.array_equal(a, a.T)
    lag = np.abs(np.subtract.outer(np.arange(nodes), np.arange(nodes)))
    assert np.array_equal(a, a[0][lag])


def test_one_factorization_per_problem(monkeypatch):
    calls = []
    for owner, name in ((np.linalg, "inv"), (solver, "_toeplitz_inverse")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda m, name=name, real=real:
                            calls.append((name, m.shape)) or real(m))
    prob = solver.build_problem((-1.0, 1.0), PR1, nodes=64)
    prob.rhs_map = lambda x, v: np.ones_like(x)
    vbar = solver.solve_linear(prob, 2.0 * np.ones(64))
    trace = solver.monotone_iterate(prob, supersolution=vbar)
    solver.solve_linear(prob, np.ones(64))
    assert trace.converged
    # the interval inverts its Toeplitz column, with no LAPACK inverse
    assert calls == [("_toeplitz_inverse", (64,))]
    calls.clear()
    annulus = solver.build_problem((1.0, 2.0), Params(2, 0.5), nodes=64,
                                   dimension=2)
    solver.solve_linear(annulus, np.ones(64))
    solver.solve_linear(annulus, np.ones(64))
    assert calls == [("inv", (64, 64))]


def _check_toeplitz_inverse(prob):
    a, b = prob.operator_matrix, prob.inverse
    assert np.max(np.abs(a @ b - np.eye(len(prob.grid)))) <= 1e-12
    assert np.array_equal(b, b.T)
    rhs = np.random.default_rng(len(prob.grid)).random((len(prob.grid), 3))
    want = np.linalg.solve(a, rhs)
    got = solver.solve_linear(prob, rhs)
    # two stable solves differ by up to cond(A) eps: at N = 700, sigma = 0.95
    # cond_1(A) = 1.4e5 and they differ by 2e-12
    cond = np.max(np.abs(a).sum(axis=0)) * np.max(np.abs(b).sum(axis=0))
    tol = max(1e-12, cond * np.finfo(float).eps)
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@given(st.integers(min_value=64, max_value=700),
       st.floats(min_value=0.05, max_value=0.95),
       st.sampled_from([(-1.0, 1.0), (0.0, 3.0), (-0.25, 0.5)]))
@settings(max_examples=12, deadline=None)
def test_toeplitz_inverse_matches_lapack(nodes, s, domain):
    _check_toeplitz_inverse(solver.build_problem(domain, Params(1, s),
                                                 nodes=nodes))


def test_toeplitz_inverse_at_2048_nodes():
    _check_toeplitz_inverse(solver.build_problem((-1.0, 1.0), Params(1, 0.75),
                                                 nodes=2048))


def test_operator_matrix_is_read_only():
    prob = solver.build_problem((-1.0, 1.0), PR1, nodes=64)
    with pytest.raises(ValueError):
        prob.operator_matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        prob.inverse[0, 0] = 1.0


def test_solve_linear_rejects_wrong_length_rhs():
    prob = solver.build_problem((-1.0, 1.0), PR1, nodes=64)
    with pytest.raises(ValueError, match=r"\(63,\).*64 nodes"):
        solver.solve_linear(prob, np.ones(63))


def test_monotone_iteration_evaluates_each_right_hand_side_once():
    # one call at the supersolution, one at y_0 = 0 and one a step: the
    # residual's evaluation at y_{k+1} is the next step's right-hand side
    prob = solver.build_problem((-1.0, 1.0), PR1, nodes=64)
    calls = []
    prob.rhs_map = lambda x, v: (calls.append(1) or
                                 0.5 * np.exp(-2 * x ** 2) * (1 + v) ** 1.2)
    vbar = solver.solve_linear(prob, 4.0 * np.ones(64))
    trace = solver.monotone_iterate(prob, supersolution=vbar)
    assert trace.converged and len(trace.residuals) > 1
    assert len(calls) == len(trace.residuals) + 2


def test_monotone_iteration_rejects_a_supersolution_of_the_wrong_shape():
    prob = solver.build_problem((-1.0, 1.0), PR1, nodes=64)
    prob.rhs_map = lambda x, v: np.ones_like(x)
    with pytest.raises(ValueError, match=r"\(3,\).*\(64,\)"):
        solver.monotone_iterate(prob, supersolution=np.zeros(3))
