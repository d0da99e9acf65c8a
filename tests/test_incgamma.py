import mpmath
import pytest

from ncspectral.incgamma import upper_gamma


@mpmath.workdps(40)
def _reference(a, x):
    return complex(mpmath.gammainc(mpmath.mpc(a), x, mpmath.inf))


GRID_A = [-3.5, -2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.5, 4.0, 6.0]
GRID_X = [1e-4, 0.01, 0.3, 0.9, 1.0, 2.5, 9.87, 40.0, 80.0]


@pytest.mark.parametrize("a_re", GRID_A)
@pytest.mark.parametrize("x", GRID_X)
def test_real_orders(a_re, x):
    got = upper_gamma(a_re, x)
    want = _reference(a_re, x)
    assert abs(got - want) <= 5e-14 * max(abs(want), 1e-300)


@pytest.mark.parametrize("a", [complex(-2.5, 1.0), complex(0.0, 2.0), complex(3.0, -4.0),
                               complex(-0.5, -0.5)])
@pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 25.0])
def test_complex_orders(a, x):
    got = upper_gamma(a, x)
    want = _reference(a, x)
    assert abs(got - want) <= 5e-14 * max(abs(want), 1e-300)


def test_zero_argument_is_complete_gamma():
    with mpmath.workdps(40):
        want = complex(mpmath.gamma(2.5))
    assert upper_gamma(2.5, 0.0) == pytest.approx(want, rel=1e-14)


def test_zero_argument_pole_rejected():
    with pytest.raises(ValueError):
        upper_gamma(0.0, 0.0)
    with pytest.raises(ValueError):
        upper_gamma(-3.0, 0.0)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        upper_gamma(1.0, -1.0)


def test_exact_nonpositive_integer_small_argument():
    # exercises the exponential-integral ladder specifically
    for N in (0, 1, 4):
        for x in (1e-3, 0.05, 0.3):
            got = upper_gamma(-N, x)
            want = _reference(-N, x)
            assert abs(got - want) <= 1e-13 * abs(want)
