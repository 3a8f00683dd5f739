import numpy as np
import pytest
from scipy.integrate import quad

from fraclab import constants, geometry, green
from fraclab.bubbles import KelvinMap
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
SWEEP = [(n, s) for n in (2, 3) for s in (0.25, 0.5, 0.75)]


@pytest.mark.parametrize("n,s", SWEEP)
def test_conormal_recovers_density(n, s):
    ctx = green.GreenContext(1.0, Params(n, s))
    y = np.zeros(n)
    y[0] = 1.6
    got = green.phi_conormal(ctx, _density(), y)
    want = 1.0 / (1.0 + 1.6 ** 2)
    assert got == pytest.approx(want, rel=1e-3)


def _cap_reference(ctx, d, t, outer):
    """_cap_integral by adaptive quadrature, split at every kink edge below d + outer."""
    n, lam = ctx.params.n, ctx.lam
    s2n = (2.0 * ctx.params.sigma - n) / 2.0

    def f(s):
        shell = np.array([s])
        return s ** (n - 1) * (s * s + t * t) ** s2n * float(
            geometry.cap_fraction(d, shell, outer, n)[0]
            - geometry.cap_fraction(d, shell, lam, n)[0])
    knots = sorted({0.0, abs(lam - d), lam + d, abs(outer - d), t, d + outer})
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
                for a, b in zip(knots[:-1], knots[1:]))
    return constants.constant_set(ctx.params).sphere_area * total


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


@pytest.mark.parametrize("n,s", SWEEP)
def test_cap_integral_matches_adaptive_quadrature(n, s):
    # the top edge d + outer is graded as well as the inner ones
    ctx = green.GreenContext(1.0, Params(n, s))
    for d in (1.5, 1.6, 3.0):
        for t in (1e-3, 0.05, 1.0):
            assert green._cap_integral(ctx, d, t, 4.0) == pytest.approx(
                _cap_reference(ctx, d, t, 4.0), rel=1e-6)


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


def _phi_reference(ctx, q, y, t):
    """Phi(y, t) with the grid, the distances and the weights built for this height."""
    n = ctx.params.n
    d = float(np.linalg.norm(y))
    qy = float(q(y[None, :])[0]) if ctx.lam < d < q.outer_radius else 0.0
    pts, wts = green._annulus_grid(ctx, q.outer_radius, y, qy != 0.0)
    qv = q(pts)
    kelvin = KelvinMap(ctx.params, lam=ctx.lam)
    s2n = (2.0 * ctx.params.sigma - n) / 2.0
    direct = (np.sum((pts - y) ** 2, axis=1) + t * t) ** s2n
    image = kelvin.weight(pts) * (
        np.sum((kelvin.point(pts) - y) ** 2, axis=1) + t * t) ** s2n
    n_green = constants.constant_set(ctx.params).n_green
    val = n_green * float(np.dot(direct * (qv - qy) - image * qv, wts))
    if qy != 0.0:
        val += n_green * qy * green._cap_integral(ctx, d, t, q.outer_radius)
    return val


@pytest.mark.parametrize("n,s", [(2, 0.5), (2, 0.25), (3, 0.5), (3, 0.75)])
@pytest.mark.parametrize("d", [1.6, 0.5, 4.5])   # annulus, B_lam, beyond it
def test_phi_heights_match_one_height_at_a_time(n, s, d):
    ctx = green.GreenContext(1.0, Params(n, s))
    q = _density()
    y = d * np.eye(n)[0]
    ts = [1e-3, 0.01, 0.3, 1.0, 2.5]
    want = [_phi_reference(ctx, q, y, t) for t in ts]
    got = green._phi_heights(ctx, q, y, ts)
    # the ladder sums the same grid in another order (azimuths first)
    assert got == pytest.approx(want, rel=1e-13)
    assert [green.phi_potential(ctx, q, np.append(y, t)) for t in ts] == got


@pytest.mark.parametrize("n,d", [
    pytest.param(3, 0.5, id="0.5"), pytest.param(3, 1.6, id="1.6"),
    pytest.param(2, 0.5, id="n2-0.5"), pytest.param(2, 1.6, id="n2-1.6"),
    pytest.param(2, 4.5, id="n2-4.5")])    # B_lam (no focus), annulus, beyond
def test_phi_potential_is_rotation_invariant(n, d):
    # a radial density makes Phi radial in y, whatever frame the grid takes
    ctx = green.GreenContext(1.0, Params(n, 0.5))
    q = _density()
    y = d * (np.array([0.6, -0.48, 0.64]) if n == 3 else np.array([0.6, -0.8]))
    rot, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(n, n)))
    base = green.phi_potential(ctx, q, np.append(y, 0.2))
    for z in (rot @ y, -y, d * np.eye(n)[n - 1], d * np.eye(n)[0]):
        assert green.phi_potential(ctx, q, np.append(z, 0.2)) == \
            pytest.approx(base, rel=1e-13)


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
