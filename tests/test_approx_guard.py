"""The conftest guard on pytest.approx: a value under 1e-9 compared with no
abs passes against 0.0 under pytest's default abs of 1e-12, so the guard
refuses the comparison."""

import pytest


@pytest.mark.parametrize("expected", [1.152688e-43, 0.0, -5e-10, [1.0, 2.5e-36]])
def test_small_value_without_abs_fails(expected):
    with pytest.raises(pytest.fail.Exception, match="no abs"):
        pytest.approx(expected, rel=1e-5)


def test_stated_abs_lets_zero_fail():
    # what the guard is for: with abs=0 a value that dropped to 0.0 no longer passes
    assert 0.0 != pytest.approx(1.152688e-43, rel=1e-5, abs=0)
    assert 1.1526881e-43 == pytest.approx(1.152688e-43, rel=1e-5, abs=0)


def test_values_from_the_bound_up_need_no_abs():
    assert 1e-9 == pytest.approx(1e-9, rel=1e-12)
    assert [3.0, 1e20] == pytest.approx([3.0, 1e20])
