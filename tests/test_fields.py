import numpy as np
import pytest

from fraclab import bubbles
from fraclab.fields import ScalarField, radial_field
from fraclab.params import Params


@pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
def test_a_length_that_is_not_positive_and_finite_is_refused(length):
    with pytest.raises(ValueError, match="length must be positive and finite"):
        radial_field(np.ones_like, 2, decay="compact_support", length=length)
    with pytest.raises(ValueError, match="length must be positive and finite"):
        bubbles.standard_bubble(Params(3, 0.5), lam=length)


@pytest.mark.parametrize("centre", [np.zeros(2), np.zeros((1, 3)), 0.5])
def test_a_centre_of_the_wrong_shape_is_refused(centre):
    with pytest.raises(ValueError, match=r"centre must have shape \(3,\)"):
        radial_field(np.ones_like, 3, centre=centre)


def test_a_centre_on_a_field_that_is_not_radial_is_refused():
    with pytest.raises(ValueError, match="a centre needs a field with a "
                       "radial_profile"):
        ScalarField(lambda x: np.ones(len(x)), n=2, centre=np.zeros(2))


def test_a_radial_field_is_its_profile_at_the_distance_from_its_centre():
    centre = np.array([1.0, -2.0, 0.5])
    field = radial_field(lambda r: r, 3, centre=centre, decay="compact_support",
                         length=2.0)
    x = np.array([[1.0, -2.0, 0.5], [4.0, 2.0, 0.5]])
    np.testing.assert_array_equal(field(x), [0.0, 5.0])
    assert field.kink_radii == (2.0,)
    assert np.array_equal(radial_field(np.ones_like, 2).centre, np.zeros(2))
