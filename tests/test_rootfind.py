"""Root-finder unit tests."""

import math

import pytest
from hypothesis import given, strategies as st

from henonlab.errors import BracketError, ConvergenceError
from henonlab.rootfind import bisect, newton2, newton_safeguarded


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < 1e-11


def test_bisect_requires_sign_change():
    with pytest.raises(BracketError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_newton_with_derivative():
    root = newton_safeguarded(lambda x: x * x - 2.0, 1.0, df=lambda x: 2.0 * x)
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_newton_secant_mode():
    root = newton_safeguarded(lambda x: math.cos(x) - x, 0.5)
    assert abs(math.cos(root) - root) < 1e-12


def test_newton_bracket_rescues_bad_seed():
    # Newton from x0=0 on x^2-2 has zero derivative; the bracket saves it.
    root = newton_safeguarded(
        lambda x: x * x - 2.0, 0.0, bracket=(0.0, 2.0), df=lambda x: 2.0 * x
    )
    assert abs(root - math.sqrt(2.0)) < 1e-11


def test_newton_no_bracket_stall_raises():
    with pytest.raises(ConvergenceError):
        newton_safeguarded(lambda x: x * x + 1.0, 0.0, df=lambda x: 2.0 * x)


@given(st.floats(min_value=0.1, max_value=50.0))
def test_newton_square_roots(target):
    root = newton_safeguarded(
        lambda x: x * x - target,
        max(1.0, target),
        bracket=(0.0, max(1.0, target) + 1.0),
        df=lambda x: 2.0 * x,
    )
    assert abs(root - math.sqrt(target)) < 1e-10 * max(1.0, math.sqrt(target))


def test_newton2_linear_system():
    sol = newton2(
        lambda v: ((v[0] + v[1] - 3.0, v[0] - v[1] - 1.0), ((1.0, 1.0), (1.0, -1.0))),
        (0.0, 0.0),
    )
    assert abs(sol[0] - 2.0) < 1e-10
    assert abs(sol[1] - 1.0) < 1e-10


def _circle_line(v):
    """Circle x^2+y^2=4 with line y=x, and its Jacobian: root at (sqrt 2, sqrt 2)."""
    return ((v[0] ** 2 + v[1] ** 2 - 4.0, v[1] - v[0]), ((2.0 * v[0], 2.0 * v[1]), (-1.0, 1.0)))


def test_newton2_intersection():
    sol = newton2(_circle_line, (1.0, 1.5))
    assert abs(sol[0] - math.sqrt(2.0)) < 1e-10
    assert abs(sol[1] - math.sqrt(2.0)) < 1e-10


class _Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def test_bracketed_secant_partners_the_opposite_end():
    # two end checks and x0; the secant through x0 and the end across the
    # sign change lands on the root of a line, so no fifth evaluation
    f = _Counted(lambda x: 3.0 * x - 1.0)
    root = newton_safeguarded(f, 0.5, bracket=(0.0, 1.0))
    assert root == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert f.calls == 4
    f = _Counted(lambda x: 1.0 - 3.0 * x)
    assert newton_safeguarded(f, 0.2, bracket=(0.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert f.calls == 4


def test_newton2_from_converged_seed_takes_the_step_whole():
    # the whole first step passes the stopping test, so newton2 returns it
    # without evaluating there: the seed is the only point evaluated
    root = newton2(_circle_line, (1.0, 1.5))
    counted = _Counted(_circle_line)
    again = newton2(counted, root)
    assert counted.calls == 1
    assert max(abs(again[0] - root[0]), abs(again[1] - root[1])) <= 1e-12 * 2.0


def test_newton2_evaluates_a_whole_step_that_fails_the_stopping_test():
    # rtol 1/2: the first step, of size 2 from (4, 0), is whole, but at the
    # new point (2, 0) a step of 2 fails the stopping test, so the new point
    # is evaluated; its residual is zero, which stops the solve there
    points = []

    def FJ(v):
        points.append(tuple(v))
        return (v[0] - 2.0, v[1]), ((1.0, 0.0), (0.0, 1.0))

    assert newton2(FJ, (4.0, 0.0), rtol=0.5) == (2.0, 0.0)
    assert points == [(4.0, 0.0), (2.0, 0.0)]
