import math

import numpy as np
import pytest
from scipy.integrate import quad

from fraclab import constants, green
from fraclab.params import Params


@pytest.fixture(scope="module")
def ctx3():
    return green.GreenContext(1.0, Params(3, 0.5))


def test_green_vanishes_on_sphere(ctx3):
    # Y on the half sphere |Y| = lam, eta anywhere on the boundary annulus
    rng = np.random.default_rng(0)
    for _ in range(20):
        Y = rng.normal(size=4)
        Y[-1] = abs(Y[-1])
        Y /= np.linalg.norm(Y)
        eta = rng.normal(size=3)
        eta *= 1.7 / np.linalg.norm(eta)
        assert green.green_eval(ctx3, Y, eta) == pytest.approx(0.0, abs=1e-14)


def test_green_positive_outside(ctx3):
    Y = np.array([1.5, 0.0, 0.0, 0.2])
    eta = np.array([0.0, 2.0, 0.0])
    assert green.green_eval(ctx3, Y, eta) > 0.0


def test_green_domain_errors(ctx3):
    inside = np.array([0.2, 0.0, 0.0, 0.1])
    outside = np.array([2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        green.green_eval(ctx3, inside, outside)


def test_phi_vanishes_on_sphere(ctx3):
    q = green.AnnulusDensity(4.0, lambda y: np.exp(
        -np.linalg.norm(np.atleast_2d(y), axis=1) ** 2))
    Y = np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(green.phi_potential(ctx3, q, Y)) < 1e-12


#: The (n, sigma) cases of the Green potential checks.
SWEEP = [(n, s) for n in (2, 3) for s in (0.25, 0.5, 0.75)] + [
    (1, 0.25), (5, 0.25), (5, 0.75)]


@pytest.mark.parametrize("n,s", SWEEP)
def test_conormal_recovers_density(n, s):
    ctx = green.GreenContext(1.0, Params(n, s))
    y = np.zeros(n)
    y[0] = 1.6
    got = green.phi_conormal(ctx, _density(), y)
    want = 1.0 / (1.0 + 1.6 ** 2)
    assert got == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("n,s", [(3, 0.25), (2, 0.5), (3, 0.75)])
def test_phi_meets_its_far_limit(n, s):
    # far above the annulus t^{n - 2s} Phi(y, t) tends to
    # N int q(eta) (1 - (lam / |eta|)^{n - 2s}) d eta, for y inside it too
    ctx = green.GreenContext(1.0, Params(n, s))
    q = green.AnnulusDensity(2.0, lambda y: 1.0 / (
        1.0 + np.linalg.norm(np.atleast_2d(y), axis=1) ** 2))
    cset = constants.constant_set(ctx.params)
    want = cset.n_green * cset.sphere_area * quad(
        lambda r: r ** (n - 1) / (1.0 + r * r) * (1.0 - r ** (2 * s - n)),
        1.0, 2.0, epsabs=0.0, epsrel=1e-12)[0]
    for t in (1e4, 1e6):
        got = t ** (n - 2 * s) * green.phi_potential(
            ctx, q, np.append(1.3 * np.eye(n)[0], t))
        assert abs(got - want) <= 1e-6, t


def test_bbl_inequalities():
    rep = green.check_bbl_inequalities(Params(3, 0.5))
    assert rep["bbl1_pass"] and rep["bbl1_c"] > 0.0
    assert rep["bbl2_pass"] and rep["bbl2_min_derivative"] > 0.0
    assert rep["bbl3_pass"] and rep["bbl3_max_outside"] < 0.0
    assert rep["far_field_pass"]


@pytest.mark.parametrize("n,s,c_ref", [(2, 0.25, 0.08324964867124138),
                                       (3, 0.75, 0.16007546823959815)])
def test_bbl_inequalities_by_quadrature(n, s, c_ref):
    # sigma != 1/2 takes the gap from the Feynman-parameter integral
    # (model_bubble_extension), not from the closed form; the (2, 1/4) value
    # is scipy dblquad of the Poisson integral at the arg-min sample
    rep = green.check_bbl_inequalities(Params(n, s), grid_points=100, seed=7)
    assert rep["bbl1_pass"] and rep["bbl2_pass"] and rep["bbl3_pass"]
    assert rep["far_field_pass"]
    assert rep["bbl1_c"] == pytest.approx(c_ref, rel=1e-9)


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_wtilde_rows_equal_points(s):
    pr = Params(2, s)
    rng = np.random.default_rng(4)
    Y = np.abs(rng.normal(size=(20, 3)))
    Y[:3, 2] = 0.0     # trace rows
    for f in (lambda Z: green.wtilde_extension(Z, pr),
              lambda Z: green.wtilde_kelvin(Z, 0.5, pr)):
        rows = f(Y)
        assert rows.shape == (20,)
        np.testing.assert_allclose(rows, [f(Z) for Z in Y], rtol=1e-14,
                                   atol=0.0)


def test_g3_ratio_stable_under_doubling(ctx3):
    rep = green.check_g3_bound(ctx3)
    assert rep["stable"]
    assert rep["ratio"] < 1.5


def _density():
    return green.AnnulusDensity(4.0, lambda y: 1.0 / (
        1.0 + np.linalg.norm(np.atleast_2d(y), axis=1) ** 2))


def _sphere_sum(n, s, d, t, r):
    """The integral of (t^2 + |y - eta|^2)^{s - n/2} over the unit sphere
    eta / r, |y| = d: by quad in the polar angle from y, split at
    multiples of the peak width there, or two points at n = 1."""
    e2 = t * t + (d - r) ** 2
    if n == 1:
        return e2 ** (s - n / 2) + (t * t + (d + r) ** 2) ** (s - n / 2)
    width = math.sqrt(e2 / (d * r)) if d > 0.0 else math.pi
    points = [width * 4.0 ** k for k in range(8) if width * 4.0 ** k < math.pi]
    return constants.sphere_area(n - 1) * quad(
        lambda th: (e2 + 4.0 * d * r * math.sin(th / 2) ** 2) ** (s - n / 2)
        * math.sin(th) ** (n - 2), 0.0, math.pi, points=points or None,
        epsabs=0.0, epsrel=1e-12, limit=200)[0]


def _phi_oracle(ctx, d, t, outer=4.0):
    """Phi(y, t), |y| = d, of the density 1 / (1 + |eta|^2) on the annulus
    by nested quad in rho and the polar angle, no 2F1: the direct and the
    image term each split about its peak, rho = d or lam^2 / d."""
    n, s, lam = ctx.params.n, ctx.params.sigma, ctx.lam
    total = 0.0
    for sign, peak, kernel in (
            (1.0, d, lambda r: _sphere_sum(n, s, d, t, r)),
            (-1.0, lam * lam / d if d > 0.0 else outer,
             lambda r: (lam / r) ** (n - 2 * s)
             * _sphere_sum(n, s, d, t, lam * lam / r))):
        c = min(max(peak, lam), outer)
        points = sorted({min(max(c + o * t, lam), outer)
                         for o in (0, -1, 1, -8, 8, -64, 64)} - {lam, outer})
        total += sign * quad(
            lambda r: r ** (n - 1) / (1.0 + r * r) * kernel(r), lam, outer,
            points=points or None, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return constants.constant_set(ctx.params).n_green * total


@pytest.mark.parametrize("n,s", [(1, 0.25), (2, 0.25), (3, 0.5), (3, 0.75),
                                 (5, 0.25)])
def test_phi_potential_matches_nested_quadrature(n, s):
    # inside B_lam, on the annulus and beyond it, and within t of its edges
    ctx = green.GreenContext(1.0, Params(n, s))
    q = _density()
    for d, t in [(0.5, 0.5), (1.3, 0.05), (4.5, 0.3), (0.999, 0.05),
                 (1.0001, 1e-3), (4.001, 1e-3), (3.9999, 1e-4)]:
        got = green.phi_potential(ctx, q, np.append(d * np.eye(n)[0], t))
        assert got == pytest.approx(_phi_oracle(ctx, d, t), rel=1e-9), (d, t)


@pytest.mark.parametrize("n,s", [(2, 0.5), (2, 0.25), (3, 0.5), (3, 0.75),
                                 (1, 0.25), (5, 0.5)])
@pytest.mark.parametrize("d", [1.6, 0.5, 4.5])   # annulus, B_lam, beyond it
def test_phi_heights_match_one_height_at_a_time(n, s, d):
    ctx = green.GreenContext(1.0, Params(n, s))
    q = _density()
    y = d * np.eye(n)[0]
    ts = [1e-3, 0.01, 0.3, 1.0, 2.5]
    got = green._phi_heights(ctx, q, y, ts)
    assert got == pytest.approx([_phi_oracle(ctx, d, t) for t in ts],
                                rel=1e-9)
    assert [green.phi_potential(ctx, q, np.append(y, t)) for t in ts] == got


@pytest.mark.parametrize("n,d", [
    pytest.param(3, 0.5, id="0.5"), pytest.param(3, 1.6, id="1.6"),
    pytest.param(2, 0.5, id="n2-0.5"), pytest.param(2, 1.6, id="n2-1.6"),
    pytest.param(2, 4.5, id="n2-4.5"), pytest.param(5, 0.5, id="n5-0.5"),
    pytest.param(5, 1.6, id="n5-1.6"), pytest.param(5, 4.5, id="n5-4.5")])
def test_phi_potential_is_rotation_invariant(n, d):
    # a radial density makes Phi radial in y
    ctx = green.GreenContext(1.0, Params(n, 0.5))
    q = _density()
    y = d * {2: np.array([0.6, -0.8]), 3: np.array([0.6, -0.48, 0.64]),
             5: np.array([0.36, -0.48, 0.64, 0.0, 0.48])}[n]
    rot, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(n, n)))
    base = green.phi_potential(ctx, q, np.append(y, 0.2))
    for z in (rot @ y, -y, d * np.eye(n)[n - 1], d * np.eye(n)[0]):
        assert green.phi_potential(ctx, q, np.append(z, 0.2)) == \
            pytest.approx(base, rel=1e-13)


def test_phi_refuses_a_negative_height(ctx3):
    with pytest.raises(ValueError, match="height t = -0.1 is negative"):
        green.phi_potential(ctx3, _density(), np.array([1.6, 0.0, 0.0, -0.1]))


@pytest.mark.parametrize("d", [1.6, 4.0, 0.5])  # annulus, its edge, its image
def test_phi_refuses_the_trace_where_the_kernel_is_singular(ctx3, d):
    with pytest.raises(ValueError, match="t = 0 is singular"):
        green.phi_potential(ctx3, _density(), np.array([d, 0.0, 0.0, 0.0]))


def test_phi_refuses_a_density_that_is_not_radial(ctx3):
    q = green.AnnulusDensity(4.0, lambda y: 1.0 + np.atleast_2d(y)[:, 0])
    with pytest.raises(ValueError, match="not radial"):
        green.phi_potential(ctx3, q, np.array([1.6, 0.0, 0.0, 0.1]))


def test_phi_conormal_builds_the_grid_once(monkeypatch):
    ctx = green.GreenContext(1.0, Params(2, 0.5))
    q = _density()
    y = np.array([1.6, 0.0])
    calls = []
    heights = green._phi_heights

    def counted(*args):
        calls.append(len(args[3]))
        return heights(*args)
    monkeypatch.setattr(green, "_phi_heights", counted)
    green.phi_conormal(ctx, q, y)
    assert calls == [16]


@pytest.mark.parametrize("outer", [0.8, 1.0])
def test_degenerate_annulus_rejected(ctx3, outer):
    q = green.AnnulusDensity(outer, lambda y: np.ones(np.atleast_2d(y).shape[0]))
    with pytest.raises(ValueError, match="outer_radius .* lam"):
        green.phi_potential(ctx3, q, np.array([2.0, 0.0, 0.0, 0.1]))
    with pytest.raises(ValueError, match="outer_radius .* lam"):
        green.phi_conormal(ctx3, q, np.array([2.0, 0.0, 0.0]))


def _g3_reference(ctx, m, seed):
    """The G3 supremum with one green_kernel call per Y."""
    rng = np.random.default_rng(seed)
    lam = ctx.lam
    n = ctx.params.n
    ry = lam * (1.0 + np.concatenate([10.0 ** np.linspace(-4, 0, m), [9.0]]))
    re = lam * (1.0 + np.concatenate([10.0 ** np.linspace(-4, 1, m)]))
    dirs_y = rng.normal(size=(m, n + 1))
    dirs_y[:, n] = np.abs(dirs_y[:, n])
    dirs_y /= np.linalg.norm(dirs_y, axis=1, keepdims=True)
    dirs_e = rng.normal(size=(m, n))
    dirs_e /= np.linalg.norm(dirs_e, axis=1, keepdims=True)
    worst = 0.0
    for a in ry:
        for dy in dirs_y:
            Y = a * dy
            etas = (re[:, None] * dirs_e[None, :, :]).reshape(-1, n)
            g = green.green_kernel(ctx, Y, etas)
            y, t = Y[:n], Y[n]
            dist2 = np.sum((etas - y) ** 2, axis=1) + t * t
            r_eta = np.linalg.norm(etas, axis=1)
            ratio = (g * lam * dist2 ** ((n - 2 * ctx.params.sigma + 2) / 2.0)
                     / ((a - lam) * (r_eta ** 2 - lam ** 2)))
            worst = max(worst, float(np.max(ratio)))
    return worst


@pytest.mark.parametrize("n,s,lam", [(2, 0.25, 1.0), (3, 0.5, 1.0), (3, 0.75, 0.7)])
def test_g3_scan_matches_one_kernel_call_per_point(n, s, lam):
    ctx = green.GreenContext(lam, Params(n, s))
    rep = green.check_g3_bound(ctx, n_side=6, seed=3)
    assert rep["sup_coarse"] == _g3_reference(ctx, 6, 3)
    assert rep["sup_fine"] == _g3_reference(ctx, 12, 3)


@pytest.mark.parametrize("y", [np.array([1.6, 0.0]), np.array([1.6, 0.0, 0.0, 0.0])])
def test_phi_refuses_a_boundary_point_with_the_wrong_coordinates(ctx3, y):
    with pytest.raises(ValueError, match="expected a boundary point with 3 "
                       "coordinates"):
        green.phi_conormal(ctx3, _density(), y)


def test_phi_refuses_a_height_whose_square_overflows(ctx3):
    with pytest.raises(ValueError, match="height t = 1e\\+160 is too large"):
        green.phi_potential(ctx3, _density(), np.array([1.3, 0.0, 0.0, 1e160]))


def test_phi_refuses_a_point_whose_square_overflows(ctx3):
    with pytest.raises(ValueError, match="1e\\+160 is too large"):
        green.phi_potential(ctx3, _density(), np.array([1e160, 0.0, 0.0, 0.5]))
