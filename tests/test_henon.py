"""Tests for the 2-D map type: evaluation, normalization, orbits, attractors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab.errors import ContractionError, DomainError
from henonlab.henon import (
    _cycle_jacobian,
    Field2,
    HenonMap,
    ZERO_FIELD,
    apply_map,
    build_map,
    evaluate,
    find_attractors,
    iterate,
    lyapunov,
    normalize_xi,
    orbit_escape,
    rho_offset,
    sine_perturbed_fields,
)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_unperturbed_point_and_det(self):
        f = HenonMap(a=-1.0, b=0.3)
        res = evaluate(f, (1.0, 2.0))
        assert res.image == pytest.approx((-0.6, 1.0), abs=1e-15)
        assert res.det == pytest.approx(0.3, abs=1e-15)
        assert res.jacobian[0] == pytest.approx((2.0, -0.3), abs=1e-15)
        assert res.jacobian[1] == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_small_zeta_keeps_det_near_b(self):
        zeta = Field2(
            value=lambda x, v: 0.01 * math.sin(x),
            dx=lambda x, v: 0.01 * math.cos(x),
        )
        f = HenonMap(a=-1.0, b=0.1, zeta=zeta)
        res = evaluate(f, (0.0, 0.0))
        assert 0.097 <= res.det <= 0.103

    def test_multiplicity_two_det(self):
        f = HenonMap(a=-1.0, b=0.3, m=2)
        res = evaluate(f, (0.7, -0.4))
        assert res.det == pytest.approx(0.09, rel=1e-14)
        assert res.image[0] == pytest.approx(0.49 - 1.0 - 0.09 * (-0.4), rel=1e-14)

    def test_det_bracket_for_small_fields(self):
        delta = 0.01
        f = build_map("sine-perturbed", a=-1.5, b=0.3, delta=delta)
        for i in range(13):
            for j in range(13):
                x = -3.0 + 0.5 * i
                y = -3.0 + 0.5 * j
                det = evaluate(f, (x, y)).det
                assert abs(det - f.b) <= 3.0 * delta * abs(f.b)

    @given(
        a=st.floats(-2.0, 0.25),
        b=st.floats(-0.5, 0.5),
        x=st.floats(-2.0, 2.0),
        y=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_unperturbed_det_equals_b(self, a, b, x, y):
        res = evaluate(HenonMap(a, b), (x, y))
        assert res.det == pytest.approx(b, abs=1e-12)
        assert res.image[1] == x


# ---------------------------------------------------------------------------
# xi-normalization
# ---------------------------------------------------------------------------

class TestNormalizeXi:
    def test_constant_xi_offset(self):
        eps = 0.037
        f = HenonMap(a=-1.0, b=0.2, xi=Field2(value=lambda x, v: eps))
        assert rho_offset(f, 0.4, 0.1) == pytest.approx(eps, abs=1e-12)

    def test_linear_xi_offset(self):
        eps = 0.21
        xi = Field2(value=lambda x, v: eps * x, dx=lambda x, v: eps)
        f = HenonMap(a=-1.0, b=0.2, xi=xi)
        for x in (-1.5, -0.3, 0.0, 0.8, 2.0):
            assert rho_offset(f, x, 0.0) == pytest.approx(eps * x / (1 + eps), abs=1e-12)

    def test_contraction_guard(self):
        xi = Field2(value=lambda x, v: 0.6 * x, dx=lambda x, v: 0.6)
        with pytest.raises(ContractionError):
            normalize_xi(HenonMap(a=-1.0, b=0.2, xi=xi))

    def test_already_normalized_is_identity(self):
        f = HenonMap(a=-1.0, b=0.2)
        assert normalize_xi(f) is f
        assert f.normalized

    @pytest.mark.parametrize("b", [0.1, 0.0, -0.05])
    def test_conjugacy_round_trip(self, b):
        f = build_map("sine-perturbed", a=-1.5, b=b, delta=0.01)
        g = normalize_xi(f)
        assert g.normalized
        bm = f.bm

        def chart(z):
            return (z[0] + f.xi.value(z[0], bm * z[1]), z[1])

        def chart_inv(z):
            return (z[0] - rho_offset(f, z[0], bm * z[1]), z[1])

        for i in range(20):
            for j in range(20):
                z = (-2.0 + 4.0 * i / 19, -2.0 + 4.0 * j / 19)
                w = chart_inv(chart(z))
                assert abs(w[0] - z[0]) <= 1e-10
                lhs = apply_map(g, chart(z))
                rhs = chart(apply_map(f, z))
                assert abs(lhs[0] - rhs[0]) <= 1e-9
                assert abs(lhs[1] - rhs[1]) <= 1e-9

    def test_normalized_second_coordinate_is_x(self):
        f = build_map("sine-perturbed", a=-1.5, b=0.1, delta=0.01)
        g = normalize_xi(f)
        for x, y in [(-1.2, 0.4), (0.0, 0.0), (0.9, -1.1)]:
            assert apply_map(g, (x, y))[1] == x

    def test_derived_zeta_partials_match_fd(self):
        f = build_map("sine-perturbed", a=-1.5, b=0.1, delta=0.01)
        g = normalize_xi(f)
        h = 1e-5
        for X, V in [(0.3, 0.05), (-0.8, -0.02)]:
            fd_dx = (g.zeta.value(X + h, V) - g.zeta.value(X - h, V)) / (2 * h)
            fd_dv = (g.zeta.value(X, V + h) - g.zeta.value(X, V - h)) / (2 * h)
            assert g.zeta.dx(X, V) == pytest.approx(fd_dx, abs=1e-6)
            assert g.zeta.dv(X, V) == pytest.approx(fd_dv, abs=1e-6)


# ---------------------------------------------------------------------------
# orbits and Lyapunov exponents
# ---------------------------------------------------------------------------

class TestOrbits:
    def test_iterate_is_repeated_application(self):
        f = HenonMap(a=-1.4, b=0.3, zeta=sine_perturbed_fields(0.01)[0])
        z = (0.1, -0.2)
        assert iterate(f, z, 0) == z
        w = z
        for n in range(1, 6):
            w = apply_map(f, w)
            assert iterate(f, z, n) == w

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(DomainError):
            HenonMap(a=-1.4, b=0.3, m=0)

    def test_overflowing_power_rejected(self):
        with pytest.raises(DomainError, match="overflows"):
            HenonMap(a=-1.4, b=2.0, m=2000)
        assert HenonMap(a=-1.4, b=0.5, m=2000).bm == 0.0

    def test_escape_from_origin(self):
        f = HenonMap(a=1.0, b=0.0)
        traj, escaped, steps = orbit_escape(f, (0.0, 0.0), n_max=100, r_esc=10.0)
        assert escaped and steps == 4
        assert [z[0] for z in traj] == [0.0, 1.0, 2.0, 5.0, 26.0]

    def test_bounded_orbit(self):
        f = HenonMap(a=-1.0, b=0.0)
        _, escaped, steps = orbit_escape(f, (0.0, 0.0), n_max=50)
        assert not escaped and steps == 50

    def test_lyapunov_spiral_fixed_point(self):
        f = HenonMap(a=0.0, b=0.1)
        out = lyapunov(f, (0.0, 0.0), (0.0, 1.0), n=10_000)
        assert out.tag == "value"
        assert out.value == pytest.approx(0.5 * math.log(0.1), abs=1e-3)

    def test_lyapunov_full_chaos(self):
        f = HenonMap(a=-2.0, b=0.0)
        out = lyapunov(f, (0.123456, 0.0), (1.0, 0.0), n=10_000)
        assert out.tag == "value"
        assert out.value == pytest.approx(math.log(2.0), abs=0.02)

    def test_lyapunov_classic_attractor(self):
        f = HenonMap(a=-1.4, b=-0.3)
        z = (0.1, 0.1)
        for _ in range(1000):
            z = apply_map(f, z)
        out = lyapunov(f, z, (1.0, 0.0), n=200_000)
        assert out.tag == "value"
        assert out.value == pytest.approx(0.419, abs=0.02)

    def test_lyapunov_escape_sentinel(self):
        f = HenonMap(a=1.0, b=0.1)
        out = lyapunov(f, (0.0, 0.0), (1.0, 0.0), n=100)
        assert out.tag == "escape" and out.value is None
        # (0, 0) -> (1, 0) -> (2, 1) -> (4.9, 2) -> (24.81, 4.9)
        assert out.step == 4
        assert out.step == orbit_escape(f, (0.0, 0.0), 100)[2]

    @pytest.mark.parametrize("v0, n", [((0.0, 0.0), 100), ((1.0, 0.0), 0)])
    def test_lyapunov_rejects_bad_input(self, v0, n):
        with pytest.raises(DomainError):
            lyapunov(HenonMap(a=-1.3, b=0.2), (0.1, 0.1), v0, n=n)

    def test_lyapunov_zero_derivative_sentinel(self):
        f = HenonMap(a=-1.0, b=0.0)
        out = lyapunov(f, (0.3, 0.0), (0.0, 1.0), n=100)
        assert out.tag == "zero-derivative" and out.value is None

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_lyapunov_scale_invariance(self, scale):
        f = HenonMap(a=-1.3, b=0.2)
        base = lyapunov(f, (0.1, 0.1), (0.6, 0.8), n=40)
        scaled = lyapunov(f, (0.1, 0.1), (0.6 * scale, 0.8 * scale), n=40)
        assert base.tag == scaled.tag == "value"
        assert scaled.value == pytest.approx(base.value, abs=1e-9)


# ---------------------------------------------------------------------------
# attractor detection
# ---------------------------------------------------------------------------

class TestAttractors:
    def test_spiral_fixed_point(self):
        f = HenonMap(a=0.0, b=0.1)
        report = find_attractors(f, seeds=[(0.3, 0.3)])
        assert len(report.cycles) == 1
        cyc = report.cycles[0]
        assert cyc.period == 1
        assert cyc.points[0] == pytest.approx((0.0, 0.0), abs=1e-9)
        for mult in cyc.multipliers:
            assert abs(mult) == pytest.approx(math.sqrt(0.1), abs=1e-9)

    def test_superstable_two_cycle(self):
        f = HenonMap(a=-1.0, b=0.0)
        report = find_attractors(f, seeds=[(0.1, 0.1)])
        assert len(report.cycles) == 1
        cyc = report.cycles[0]
        assert cyc.period == 2
        pts = sorted(cyc.points)
        assert pts[0] == pytest.approx((-1.0, 0.0), abs=1e-9)
        assert pts[1] == pytest.approx((0.0, -1.0), abs=1e-9)
        assert cyc.spectral_radius == pytest.approx(0.0, abs=1e-9)

    def test_many_seeds_dedupe(self):
        f = HenonMap(a=-1.0, b=0.0)
        seeds = [(0.05 * i, 0.05 * j) for i in range(3) for j in range(3)]
        report = find_attractors(f, seeds=seeds)
        assert len(report.cycles) == 1

    def test_escaping_seed_is_ignored(self):
        f = HenonMap(a=1.0, b=0.0)
        report = find_attractors(f, seeds=[(0.0, 0.0)])
        assert report.cycles == ()
        assert report.skipped == ()

    def test_chaotic_seed_is_skipped(self):
        f = HenonMap(a=-1.4, b=-0.3)
        report = find_attractors(f, seeds=[(0.1, 0.1)], max_period=16)
        assert report.cycles == ()
        assert report.skipped == ((0.1, 0.1),)


# the default twin point of ``twin --target -0.5`` and its printed cycle points
_TWIN_POINT = (-1.86583322066959, 0.0023762018982587)
_TWIN_SEEDS = [(-0.000753397542617453, -1.36629633160121),
               (-1.76848925816065, -0.307206140548511)]

_MULTIPLIER_CASES = {
    "spiral": (HenonMap(0.0, 0.1), [(0.3, 0.3)]),
    "attractors-report": (HenonMap(-0.5, 0.1), [(0.0, 0.0)]),
    "focus": (HenonMap(-1.0, 0.3), [(0.1, 0.1)]),
    "two-cycle": (HenonMap(-1.0, -0.1), [(0.1, 0.1)]),
    "two-cycle-focus": (HenonMap(-1.2, 0.1), [(0.1, 0.1)]),
    "sine-perturbed": (build_map("sine-perturbed", -0.9, -0.2, delta=0.05), [(0.1, 0.1)]),
    "twin": (HenonMap(*_TWIN_POINT), _TWIN_SEEDS),
    "twin-m2": (HenonMap(_TWIN_POINT[0], -math.sqrt(_TWIN_POINT[1]), 2), _TWIN_SEEDS),
}


def _step_determinant_product(f, cycle) -> float:
    return math.prod(evaluate(f, p).det for p in cycle.points)


def _eigvals_multipliers(f, cycle) -> list[complex]:
    """The multipliers as ``numpy.linalg.eigvals`` of the period product,
    which ``find_attractors`` took before; exact only where the product's
    determinant does not cancel."""
    J, _ = _cycle_jacobian(f, cycle.points[0], cycle.period)
    return sorted((complex(v) for v in np.linalg.eigvals(np.array(J))), key=abs)


class TestMultipliers:
    @pytest.mark.parametrize("name", sorted(_MULTIPLIER_CASES))
    def test_pairs_multiply_to_the_step_determinants(self, name):
        f, seeds = _MULTIPLIER_CASES[name]
        cycles = find_attractors(f, seeds).cycles
        assert cycles
        for cycle in cycles:
            det = _step_determinant_product(f, cycle)
            big, small = cycle.multipliers
            assert abs(big) >= abs(small)
            if big.imag != 0.0:
                # a complex pair has modulus sqrt(det) however J cancels
                assert big == small.conjugate()
                for mult in (big, small):
                    assert abs(abs(mult) - math.sqrt(abs(det))) <= 1e-14 * math.sqrt(abs(det))
            else:
                assert abs(big * small - det) <= 1e-14 * abs(det)

    def test_twin_spiral_is_b_to_the_five_halves(self):
        f, seeds = _MULTIPLIER_CASES["twin"]
        (short, _) = sorted(find_attractors(f, seeds).cycles, key=lambda c: c.period)
        assert short.period == 5 and short.multipliers[0].imag != 0.0
        radius = _TWIN_POINT[1] ** 2.5
        assert abs(short.spectral_radius - radius) <= 1e-14 * radius

    @pytest.mark.parametrize("name", ["spiral", "attractors-report", "focus", "two-cycle",
                                      "two-cycle-focus", "sine-perturbed"])
    def test_eigvals_oracle_on_well_conditioned_cycles(self, name):
        f, seeds = _MULTIPLIER_CASES[name]
        for cycle in find_attractors(f, seeds).cycles:
            expected = _eigvals_multipliers(f, cycle)
            got = sorted(cycle.multipliers, key=abs)
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1e-12 * max(1.0, abs(e))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_standard(self):
        f = build_map("standard", a=-1.0, b=0.3)
        assert f.normalized and f.zeta is ZERO_FIELD

    def test_zero_forces_degenerate_b(self):
        f = build_map("zero", a=-1.0, b=0.3)
        assert f.b == 0.0

    def test_sine_fields_and_delta(self):
        f = build_map("sine-perturbed", a=-1.0, b=0.3, delta=0.05)
        assert f.zeta.value(0.5, 0.25) == pytest.approx(0.05 * math.sin(0.75))
        assert f.xi.value(0.5, 0.25) == pytest.approx(0.05 * math.sin(0.5))
        zeta, xi = sine_perturbed_fields(0.01)
        assert zeta.dx(0.0, 0.0) == pytest.approx(0.01)
        assert xi.dv(0.3, 0.2) == 0.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_map("nope", a=0.0, b=0.0)
