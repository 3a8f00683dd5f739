import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from fraclab import geometry


@given(st.floats(min_value=0.01, max_value=4.0),
       st.lists(st.floats(min_value=0.01, max_value=4.0), min_size=1,
                max_size=20),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_cap_fraction_three_dimensional_closed_form(d, s, radius):
    # at n = 3 the beta weight is uniform, I_x(1, 1) = x
    s = np.array(s)
    t0 = (radius * radius - d * d - s * s) / (2.0 * d * s)
    want = np.clip((1.0 + t0) / 2.0, 0.0, 1.0)
    got = geometry.cap_fraction(d, s, radius, 3)
    assert got.shape == s.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n", range(2, 10))
def test_cap_fraction_matches_mpmath_betainc(n):
    # t0 from -1 to 1, near-tangent spheres included: radius^2 =
    # d^2 + s^2 + 2 d s t0 with d = 1, s = 0.75
    d, s = 1.0, 0.75
    t0 = np.array([-1.0 + 1e-15, -1.0 + 1e-10, -0.99, -0.5, -0.1, 0.0, 0.3,
                   0.7, 0.99, 1.0 - 1e-10, 1.0 - 1e-15])
    for radius in np.sqrt(d * d + s * s + 2.0 * d * s * t0):
        got = geometry.cap_fraction(d, np.array([s]), radius, n)[0]
        x = (1.0 + (radius * radius - d * d - s * s) / (2.0 * d * s)) / 2.0
        want = mp.betainc(mp.mpf(n - 1) / 2, mp.mpf(n - 1) / 2, 0, x,
                          regularized=True)
        assert abs(got - want) <= 1e-14, (n, radius)


@given(st.integers(min_value=0, max_value=64),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=64),
       st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=200, deadline=None)
def test_cap_fraction_exact_on_empty_and_full_branches(i, j, k, n):
    # dyadic inputs make d + s = radius and |d - s| = radius exact
    d, radius = i / 8.0, j / 8.0
    s = np.array([0.0, abs(radius - d), d + radius, k / 8.0])
    got = geometry.cap_fraction(d, s, radius, n)
    for sv, gv in zip(s, got):
        if sv == 0.0:
            assert gv == (1.0 if d <= radius else 0.0)
        elif d + sv <= radius:
            assert gv == 1.0
        elif abs(d - sv) >= radius:
            assert gv == 0.0
        else:
            assert 0.0 < gv < 1.0


@given(st.floats(min_value=1e-12, max_value=1e-2),
       st.integers(min_value=1, max_value=8),
       st.lists(st.tuples(st.floats(min_value=0.5, max_value=12.0),
                          st.floats(min_value=0.0, max_value=0.999),
                          st.lists(st.one_of(
                              st.floats(min_value=1e-13, max_value=1e12),
                              st.just(np.inf)), max_size=6)),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_panel_rows_start_increase_and_hold_every_break(start, per_decade,
                                                        specs):
    # row j: s_lo[j] = start (outer/start)^u, with inf-padded kink edges
    outer = np.array([start * 10.0 ** dec for dec, _, _ in specs])
    s_lo = np.array([start * (o / start) ** u
                     for o, (_, u, _) in zip(outer, specs)])
    width = max(len(e) for _, _, e in specs)
    edges = np.array([e + [np.inf] * (width - len(e)) for _, _, e in specs])
    rows = geometry.panel_rows(start, s_lo, outer, per_decade, edges)
    for j, row in enumerate(rows):
        finite = row[np.isfinite(row)]
        assert np.all(np.isinf(row[finite.size:]))
        assert finite[0] == s_lo[j]
        assert np.all(np.diff(finite) > 0.0)
        k = max(1, math.ceil(math.log10(outer[j] / start) * per_decade))
        geo = start * (outer[j] / start) ** (np.arange(k + 1) / k)
        graded = (edges[j][:, None] * np.asarray(geometry.GRADING)).ravel()
        graded = graded[(graded > s_lo[j]) & (graded < outer[j])]
        want = np.concatenate([[s_lo[j]], geo[geo > s_lo[j]], graded])
        assert np.array_equal(finite, np.unique(want))
        alone = geometry.panel_rows(start, s_lo[j:j + 1], outer[j:j + 1],
                                    per_decade, edges[j:j + 1])[0]
        assert np.array_equal(alone[np.isfinite(alone)], finite)


@given(st.floats(min_value=1e-12, max_value=1e-2),
       st.integers(min_value=1, max_value=8),
       st.lists(st.tuples(st.floats(min_value=0.5, max_value=12.0),
                          st.floats(min_value=0.0, max_value=0.999),
                          st.lists(st.one_of(
                              st.floats(min_value=1e-13, max_value=1e12),
                              st.just(np.inf)), max_size=6)),
                min_size=1, max_size=4),
       st.sampled_from([1, 4, 8]))
@settings(max_examples=200, deadline=None)
def test_panel_nodes_are_gauss_nodes_row_by_row(start, per_decade, specs,
                                                order):
    outer = np.array([start * 10.0 ** dec for dec, _, _ in specs])
    s_lo = np.array([start * (o / start) ** u
                     for o, (_, u, _) in zip(outer, specs)])
    width = max(len(e) for _, _, e in specs)
    edges = np.array([e + [np.inf] * (width - len(e)) for _, _, e in specs])
    rows = geometry.panel_rows(start, s_lo, outer, per_decade, edges)
    nodes, weights, owner = geometry.panel_nodes(rows, order)
    assert nodes.shape == weights.shape == owner.shape
    assert np.all(np.diff(owner) >= 0)
    want = [geometry.gauss_nodes(f[:-1], f[1:], order)
            for f in (row[np.isfinite(row)] for row in rows)]
    assert np.array_equal(nodes, np.concatenate([x for x, _ in want]))
    assert np.array_equal(weights, np.concatenate([w for _, w in want]))
    spans = np.array([row[np.isfinite(row)][-1] - row[0] for row in rows])
    np.testing.assert_allclose(
        np.bincount(owner, weights, minlength=len(rows)), spans, rtol=1e-13)
    finite = rows[0][np.isfinite(rows[0])]
    alone, alone_w, alone_owner = geometry.panel_nodes(finite, order)
    assert np.array_equal(alone, want[0][0])
    assert np.array_equal(alone_w, want[0][1])
    assert np.array_equal(alone_owner, np.zeros(alone.size, dtype=int))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_radial_mean_rule_is_exact_on_an_annulus_indicator(n):
    # the indicator of lam < |x| < outer is constant on each polar piece, so
    # the split rule gives the difference of two cap fractions
    lam, outer = 0.7, 1.6
    rng = np.random.default_rng(n)
    d = np.concatenate([[0.0, 0.7, 1.6, 1.0], rng.uniform(0.0, 3.0, 60)])
    s = np.concatenate([[1.0, 0.7, 0.1, 1e-9], rng.uniform(0.0, 3.0, 60)])
    r, w, row = geometry.radial_mean_rule(n, d, s, (lam, outer))
    g = ((r > lam) & (r < outer)).astype(float)
    got = np.bincount(row, np.einsum("ij,ij->i", g, w), minlength=d.size)
    want = [geometry.cap_fraction(dj, np.array([sj]), outer, n)[0]
            - geometry.cap_fraction(dj, np.array([sj]), lam, n)[0]
            for dj, sj in zip(d, s)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(np.bincount(row, w.sum(axis=1)), 1.0,
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("beta", [-0.8, -0.5, 0.0, 0.5, 2.3])
@pytest.mark.parametrize("order", [4, 8])
def test_power_rule_is_gauss_jacobi(beta, order):
    # Golub-Welsch from modified moments against scipy's Gauss-Jacobi rule
    # for (1 - x)^0 (1 + x)^beta on (-1, 1), moved to (0, 1)
    t, w = geometry.power_rule(beta, order)
    x, wx = roots_jacobi(order, 0.0, beta)
    np.testing.assert_allclose(np.sort(t), np.sort(0.5 * (x + 1.0)),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(w[np.argsort(t)],
                               (wx / 2.0 ** (beta + 1.0))[np.argsort(x)],
                               rtol=1e-12)


@pytest.mark.parametrize("eps", [-0.8, -0.5, -1e-7, 0.0, 1e-7, 0.5, 0.8])
@pytest.mark.parametrize("order", [4, 8])
def test_log_rule_is_exact_to_degree_2n_minus_1(eps, order):
    # the weight (1 - t^eps) / eps has moments 1 / ((k + 1)(k + 1 + eps)),
    # -ln t at eps = 0; nodes inside (0, 1), weights positive
    t, w = geometry.log_rule(eps, order)
    assert np.all((t > 0.0) & (t < 1.0)) and np.all(w > 0.0)
    for k in range(2 * order):
        want = 1.0 / ((k + 1) * (k + 1 + eps))
        assert np.dot(w, t ** k) == pytest.approx(want, rel=1e-13), k


def test_kink_edges_are_relative_to_the_scale():
    # an edge counts unless it is below 1e-11 of the kink or the distance,
    # at any scale
    for a in (1e-120, 1e-20, 1.0, 1e6, 1e100):
        edges = geometry.kink_edges([a], a * np.array([0.5, 1.0, 1.0 + 1e-9]))
        np.testing.assert_allclose(edges[0], a * np.array([0.5, 1.5]))
        assert edges[1, 0] == np.inf and edges[1, 1] == 2.0 * a
        assert np.all(np.isfinite(edges[2]))


def test_radius_is_free_of_overflow_and_underflow():
    pts = np.array([[1e-160, 0.0, 0.0], [3e-170, 4e-170, 0.0], [-0.5, 0.0, 0.0],
                    [3e153, 4e153, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
    r = geometry.radius(pts)
    np.testing.assert_allclose(r, [1e-160, 5e-170, 0.5, 5e153, np.inf, 0.0],
                               rtol=1e-15)
    with pytest.raises(ValueError, match=r"\|x\| = 1e\+155"):
        geometry.radius(np.array([[1.0, 0.0], [0.0, -1e155]]))
