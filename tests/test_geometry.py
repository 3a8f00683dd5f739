import numpy as np
from hypothesis import given, settings, strategies as st

from fraclab import geometry


@given(st.floats(min_value=0.01, max_value=4.0),
       st.lists(st.floats(min_value=0.01, max_value=4.0), min_size=1,
                max_size=20),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_cap_fraction_three_dimensional_closed_form(d, s, radius):
    # at n = 3 the beta weight is uniform, betainc(1, 1, x) = x
    s = np.array(s)
    t0 = (radius * radius - d * d - s * s) / (2.0 * d * s)
    want = np.clip((1.0 + t0) / 2.0, 0.0, 1.0)
    got = geometry.cap_fraction(d, s, radius, 3)
    assert got.shape == s.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


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
       st.floats(min_value=0.5, max_value=12.0),
       st.integers(min_value=1, max_value=8),
       st.lists(st.floats(min_value=1e-13, max_value=1e12), max_size=6),
       st.sampled_from([(0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1),
                        (0.9, 0.99, 1.0, 1.01, 1.1),
                        (0.99, 0.999, 1.0, 1.001, 1.01)]))
@settings(max_examples=200, deadline=None)
def test_graded_breaks_increasing_and_complete(s_min, decades, per_decade,
                                               edges, grading):
    s_max = s_min * 10.0 ** decades
    breaks = geometry.graded_breaks(s_min, s_max, per_decade, edges, grading)
    assert breaks[0] == s_min
    assert np.all(np.diff(breaks) > 0.0)
    assert np.all(np.isin(geometry.geometric_panels(s_min, s_max, per_decade),
                          breaks))
    graded = np.array([e * g for e in edges for g in grading])
    inside = graded[(graded > s_min) & (graded < s_max)]
    assert np.all(np.isin(inside, breaks))
