import math

import pytest

from fraclab import constants
from fraclab.params import Params

GRID = [(n, s) for n in (2, 3, 5, 7) for s in (0.25, 0.5, 0.75)]


def test_gamma_domain():
    # stdlib gamma is finite at -0.25; the guard keeps such constants NaN
    with pytest.raises(ValueError):
        constants.gamma_fn(0.0)
    with pytest.raises(ValueError):
        constants.gamma_fn(-0.25)


@pytest.mark.parametrize("n,s", GRID)
def test_normalization_residuals(n, s):
    pr = Params(n, s)
    assert abs(constants.poisson_norm_residual(pr)) < 1e-8
    assert abs(constants.green_norm_residual(pr)) < 1e-8


def test_half_order_trace_constant_is_one():
    assert constants.c_tilde(Params(2, 0.5)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n,s", GRID)
def test_trace_constant_factorization(n, s):
    pr = Params(n, s)
    lhs = constants.c_tilde(pr)
    rhs = constants.d_sigma(pr) * constants.bubble_eigenvalue(pr)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_sphere_area_low_dimensions():
    assert constants.sphere_area(1) == pytest.approx(2.0)
    assert constants.sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert constants.sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_constant_set_guards_critical_exponents():
    cset = constants.constant_set(Params(1, 0.75))
    d = cset.as_dict()
    assert math.isnan(d["p"])
    assert math.isnan(d["n_green"])
    for name in ("c_tilde", "bubble_eigenvalue", "bubble_constant",
                 "riesz_constant"):
        assert math.isnan(d[name]), name
    cset2 = constants.constant_set(Params(3, 0.5))
    assert cset2.as_dict()["p"] == pytest.approx(2.0)


@pytest.mark.parametrize("n,s", [(1, 0.5), (1, 0.75)])
def test_green_constant_needs_n_above_two_sigma(n, s):
    with pytest.raises(ValueError, match="n > 2"):
        constants.green_norm_residual(Params(n, s))


def test_bubble_constant_positive_and_cached():
    a = constants.constant_set(Params(3, 0.5))
    b = constants.constant_set(Params(3, 0.5))
    assert a is b
    assert a.bubble_constant > 0.0
