"""The one number rule and the one count rule, and the library sites that
judge a real-valued hyperparameter by the first."""

from fractions import Fraction

import numpy as np
import pytest

from fredholm.bvp import BvpSpec
from fredholm.errors import ValidationError, as_count, as_number
from fredholm.grid import uniform_grid
from fredholm.network import error_bound, plan_layers
from fredholm.operator import KMSchedule

# each value no rule takes for a finite number, and how it is shown
_NOT_NUMBERS = [(True, "True"), ("1", "'1'"), (float("nan"), "nan"),
                (float("inf"), "inf"), (float("-inf"), "-inf"),
                (10 ** 400, repr(10 ** 400)), (None, "None"),
                (np.bool_(True), repr(np.bool_(True))),
                (np.array(0.5), "array(0.5)")]


@pytest.mark.parametrize("value", [2, -0.5, np.float32(0.5), np.int64(3),
                                   np.float64(1e300), Fraction(1, 3)])
def test_real_numbers_become_their_floats(value):
    number = as_number(value, "x")
    assert type(number) is float and number == float(value)


@pytest.mark.parametrize("value,shown", _NOT_NUMBERS)
def test_what_is_not_a_finite_number_is_refused(value, shown):
    with pytest.raises(ValidationError) as exc:
        as_number(value, "x")
    assert str(exc.value) == f"x must be a finite number, got {shown}"


def test_an_integer_past_the_str_digit_limit_is_shown_in_e_notation():
    # its repr raises ValueError; the message must not
    for rule in (lambda v: as_count(v, 0, "x"), lambda v: as_number(v, "x")):
        with pytest.raises(ValidationError, match=r"got -1\.000e\+5000$"):
            rule(-10 ** 5000)


# (site, the name it gives the value): each takes the value in place of a
# valid real-valued argument
_SITES = {
    "grid start": (lambda v: uniform_grid(v, 1.0, 4), "interval start"),
    "grid end": (lambda v: uniform_grid(0.0, v, 4), "interval end"),
    "kappa": (KMSchedule, "kappa"),
    "kappa entry": (lambda v: KMSchedule([0.5, v]), "kappa sequence entry"),
    "alpha": (lambda v: BvpSpec(g=None, h=None, alpha=v, beta=0.0), "alpha"),
    "beta": (lambda v: BvpSpec(g=None, h=None, alpha=0.0, beta=v), "beta"),
    "q": (lambda v: error_bound(v, 1.0, 1), "q"),
    "residual": (lambda v: error_bound(0.5, v, 1), "residual"),
    "eps": (lambda v: plan_layers(0.5, 0.5, v), "target accuracy"),
}


@pytest.mark.parametrize("value,shown", _NOT_NUMBERS[:6] + _NOT_NUMBERS[-1:])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_every_library_site_refuses_what_is_not_a_finite_number(
        site, value, shown):
    # True, "1" and 10**400 once ran or died with TypeError here, and
    # KMSchedule took a 0-d array for a sequence (TypeError)
    call, name = _SITES[site]
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be a finite number, got {shown}"


def test_library_sites_take_numpy_scalars_and_keep_floats():
    grid = uniform_grid(np.float32(0.0), np.int64(1), 4)
    assert (grid.a, grid.b) == (0.0, 1.0) and type(grid.b) is float
    assert KMSchedule(np.float64(0.5)).constant == 0.5
    assert KMSchedule([np.float32(0.5), 1]).sequence == (0.5, 1.0)
    spec = BvpSpec(g=None, h=None, alpha=np.int64(1), beta=Fraction(1, 2))
    assert (spec.alpha, spec.beta) == (1.0, 0.5)
    assert type(spec.alpha) is float and type(spec.beta) is float
    assert error_bound(np.float64(0.5), np.float32(0.5), np.int64(1)) == 0.5
    assert plan_layers(0.5, 0.5, np.float64(2.0 ** -10)) == 10


@pytest.mark.parametrize("steps", [2.5, True, -1, "1"])
def test_error_bound_step_count_is_a_count(steps):
    # 2.5 once gave q^2.5 / (1 - q) and True one step
    with pytest.raises(ValidationError) as exc:
        error_bound(0.5, 1.0, steps)
    assert str(exc.value) == (
        f"step count must be an integer >= 0, got {steps!r}")
