"""Tests for the 2-D map type: evaluation, orbits, attractors."""

import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab import henon, renorm
from henonlab.errors import ConvergenceError, DomainError
from henonlab.henon import (
    _cycle_pass,
    _multipliers,
    _same_cycle,
    AttractorReport,
    Cycle,
    Field2,
    HenonMap,
    ZERO_FIELD,
    apply_map,
    build_map,
    evaluate,
    find_attractors,
    iterate,
    jacobian,
    sine_perturbed_fields,
)
from henonlab.rootfind import newton2
from oracles import lyapunov, orbit_escape


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


class TestStoredPower:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("b", [0.3, -0.3, -1.7, 0.0])
    def test_bm_is_the_power(self, b, m):
        assert HenonMap(-1.0, b, m).bm == b ** m

    def test_bm_is_no_field_of_equality(self):
        f = HenonMap(-1.0, -0.3, 3)
        assert f == HenonMap(-1.0, -0.3, 3)
        assert hash(f) == hash(HenonMap(-1.0, -0.3, 3))
        assert repr(f) == f"HenonMap(a=-1.0, b=-0.3, m=3, zeta={f.zeta!r}, xi={f.xi!r})"

    def test_pickle_round_trip(self):
        f = HenonMap(-1.0, -0.3, 3)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert g.bm == f.bm and g.zeta is ZERO_FIELD and g.xi is ZERO_FIELD


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

    # The three discard branches, each from a seed on its cycle
    # (n_transient=0), with the helper calls that show the branch was taken.

    def test_failed_refinement_is_skipped(self, monkeypatch):
        # a parabolic fixed point: the Jacobian of f - id is singular there
        newton = _recorded(monkeypatch, "newton2")
        report = find_attractors(HenonMap(0.25, 0.0), [(0.5, 0.5)], n_transient=0)
        assert report == AttractorReport((), ((0.5, 0.5),))
        assert len(newton) == 1 and isinstance(newton[0], ConvergenceError)

    def test_repelling_cycle_is_dropped(self, monkeypatch):
        # the saddle fixed point, multipliers about 3.92 and 0.077
        multipliers = _recorded(monkeypatch, "_multipliers")
        report = find_attractors(HenonMap(-1.4, 0.3), [(2.0, 2.0)], n_transient=0)
        assert report == AttractorReport((), ())
        (mults,) = multipliers
        assert abs(mults[0]) == pytest.approx(3.92, abs=0.01)

    def test_period_that_is_not_minimal_is_rejected(self, monkeypatch):
        # the attracting fixed point's multiplier is about -0.983, so a seed
        # 1e-9 off it first comes back within 1e-9 after two steps
        f = HenonMap(-0.748, 0.01)
        x = (1.0 + f.b - math.sqrt((1.0 + f.b) ** 2 - 4.0 * f.a)) / 2.0
        returns = _recorded(monkeypatch, "_first_return")
        multipliers = _recorded(monkeypatch, "_multipliers")
        report = find_attractors(f, [(x + 1e-9, x)], n_transient=0)
        assert report == AttractorReport((), ())
        assert returns == [2]
        # the refined 2-cycle passed the attractor test, and with no cycle
        # kept before it no duplicate test dropped it
        (mults,) = multipliers
        assert max(abs(mults[0]), abs(mults[1])) < 1.0


def _recorded(monkeypatch, name):
    """The results (or raised exceptions) of every call of ``henon.<name>``."""
    real = getattr(henon, name)
    log = []

    def record(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except Exception as exc:
            log.append(exc)
            raise
        log.append(result)
        return result

    monkeypatch.setattr(henon, name, record)
    return log


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
    J = _cycle_pass(f, cycle.points[0], cycle.period)[0]
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
# the apply_map version of find_attractors, as the oracle of its local loops
# ---------------------------------------------------------------------------

def _cycle_jacobian_oracle(f, z, period):
    J = ((1.0, 0.0), (0.0, 1.0))
    w = (z[0], z[1])
    for _ in range(period):
        J = henon._mat_mul(jacobian(f, w), J)
        w = apply_map(f, w)
    return J, w


def _find_attractors_oracle(f, seeds, max_period=64, n_transient=5000, tol=1e-9,
                            r_esc=10.0, dedup_tol=1e-6):
    """``find_attractors`` as it was before its loops ran on local floats:
    every step an ``apply_map`` call, a period product for each residual
    and each Jacobian, and the step determinants from ``evaluate``."""
    cycles = []
    skipped = []
    for seed in seeds:
        z = (float(seed[0]), float(seed[1]))
        escaped = False
        for _ in range(n_transient):
            z = apply_map(f, z)
            if max(abs(z[0]), abs(z[1])) > r_esc:
                escaped = True
                break
        if escaped:
            continue

        period = None
        w = z
        for p in range(1, max_period + 1):
            w = apply_map(f, w)
            if max(abs(w[0] - z[0]), abs(w[1] - z[1])) < tol:
                period = p
                break
        if period is None:
            skipped.append((seed[0], seed[1]))
            continue

        def G(v, p=period):
            _, w2 = _cycle_jacobian_oracle(f, v, p)
            return (w2[0] - v[0], w2[1] - v[1])

        def JG(v, p=period):
            J, _ = _cycle_jacobian_oracle(f, v, p)
            return ((J[0][0] - 1.0, J[0][1]), (J[1][0], J[1][1] - 1.0))

        try:
            zr = newton2(G, z, jac=JG, rtol=1e-13)
        except ConvergenceError:
            skipped.append((seed[0], seed[1]))
            continue

        points = []
        w = zr
        for _ in range(period):
            points.append(w)
            w = apply_map(f, w)
        J, _ = _cycle_jacobian_oracle(f, zr, period)
        det = math.prod(evaluate(f, p).det for p in points)
        mults = _multipliers(J[0][0] + J[1][1], det)
        if not max(abs(mults[0]), abs(mults[1])) < 1.0:
            continue

        minimal = True
        for q in range(1, period):
            if period % q == 0:
                if max(abs(points[q][0] - points[0][0]), abs(points[q][1] - points[0][1])) < dedup_tol:
                    minimal = False
                    break
        if not minimal:
            continue

        cycle = Cycle(tuple(points), period, mults)
        if not any(_same_cycle(cycle.points, c.points, dedup_tol) for c in cycles):
            cycles.append(cycle)
    return AttractorReport(tuple(cycles), tuple(skipped))


def _assert_same_report(f, seeds, **kwargs):
    got = find_attractors(f, seeds, **kwargs)
    want = _find_attractors_oracle(f, seeds, **kwargs)
    # repr tells -0.0 from 0.0, which == does not
    assert got == want and repr(got) == repr(want)
    return got


# (k, j, b_hat, m) of twin_find: twin's defaults, the nine configurations of
# test_cli's test_coarse_twin_scans_keep_the_roots, and the second entry of
# test_acceptance's test_twin_attractors grid (the other two are above)
_TWIN_CONFIGS = [
    (1, 0, 1e-2, 1),
    (1, 0, 3e-2, 1), (2, 0, 1e-2, 1), (2, 0, -1e-2, 1), (2, 0, 3e-2, 1), (2, 0, -3e-2, 1),
    (1, 0, 0.3, 1), (2, 1, 1e-3, 1), (1, 0, 1e-2, 2), (1, 0, -1e-2, 2),
    (1, 0, -1e-2, 1),
]


@pytest.fixture(scope="module")
def twin_checks():
    """The (map, seeds, options) of the attractor check of ``twin_find`` at
    each configuration."""
    checks = {}
    real = renorm.find_attractors
    for config in _TWIN_CONFIGS:
        k, j, b_hat, m = config

        def capture(f, seeds, config=config, **kwargs):
            checks[config] = (f, seeds, kwargs)
            return real(f, seeds, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(renorm, "find_attractors", capture)
            renorm.twin_find(lambda a, b, m=m: HenonMap(a, b, m), k=k, j=j, b_hat=b_hat)
    return checks


_NAN = float("nan")

# (map, seeds, options) beside the twin checks
_ORACLE_CASES = {
    **{name: (f, seeds, {}) for name, (f, seeds) in _MULTIPLIER_CASES.items()},
    "attractors-standard": (HenonMap(-0.5, 0.1), [(0.0, 0.0)], {}),
    "attractors-sine": (build_map("sine-perturbed", -0.5, 0.1), [(0.0, 0.0)], {}),
    "attractors-sine-seeds": (build_map("sine-perturbed", -1.2, 0.1),
                              [(0.1, 0.1), (0.3, -0.2), (3.0, 3.0)], {"max_period": 16}),
    "escaping": (HenonMap(1.0, 0.0), [(0.0, 0.0)], {}),
    "no-recurrence": (HenonMap(-1.4, -0.3), [(0.1, 0.1)], {"max_period": 16}),
    "no-transient": (HenonMap(-0.5, 0.1), [(0.3, 0.3), (-0.345823643358446,) * 2],
                     {"n_transient": 0}),
    "no-transient-twin": (HenonMap(*_TWIN_POINT), _TWIN_SEEDS,
                          {"n_transient": 0, "max_period": 32}),
    "no-transient-sine": (build_map("sine-perturbed", -0.9, -0.2, delta=0.05),
                          [(0.1, 0.1), (0.24070556992168, -1.05795145404045)],
                          {"n_transient": 0}),
    # the first step leaves by y alone: the seed's x is outside the radius
    "first-step-by-y": (HenonMap(-121.0, 0.3), [(11.0, 0.0)], {"n_transient": 1}),
    # the zero field's 0.0 turns the seed's -0.0 into the cycle point's 0.0
    "negative-zero": (HenonMap(-1.0, 0.0), [(-0.0, 0.5)], {"n_transient": 1}),
    "negative-zero-no-transient": (HenonMap(-1.0, 0.0), [(-0.0, -1.0)], {"n_transient": 0}),
    "dedupe": (HenonMap(-1.0, 0.0), [(0.05 * i, 0.05 * j) for i in range(3) for j in range(3)],
               {}),
    "m3-negative-b": (HenonMap(-1.0, -0.5, 3), [(0.1, 0.1), (-1.0, 0.5)], {}),
    "nan-seeds": (HenonMap(-1.0, 0.3), [(_NAN, 0.1), (0.1, _NAN)], {}),
    # max(|x|, |y|) is NaN, no escape, when x is NaN and y is large ...
    "nan-zeta": (HenonMap(-1.0, 0.3, 1, Field2(value=lambda x, v: _NAN)),
                 [(50.0, 0.0), (0.1, 0.1)], {"n_transient": 3}),
    # ... and |x| when y is NaN
    "nan-xi": (HenonMap(-1.0, 0.3, 1, ZERO_FIELD, Field2(value=lambda x, v: _NAN)),
               [(0.1, 0.1), (5.0, 0.0)], {"n_transient": 3}),
    "nan-delta": (build_map("sine-perturbed", -1.0, 0.3, delta=_NAN), [(0.1, 0.1)], {}),
}


class TestFindAttractorsOracle:
    @pytest.mark.parametrize("config", _TWIN_CONFIGS)
    def test_twin_checks(self, twin_checks, config):
        f, seeds, kwargs = twin_checks[config]
        report = _assert_same_report(f, seeds, **kwargs)
        assert len(report.cycles) == 2

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_cases(self, name):
        f, seeds, kwargs = _ORACLE_CASES[name]
        _assert_same_report(f, seeds, **kwargs)

    @pytest.mark.parametrize("n_transient", [0, 1, 2, 40])
    @pytest.mark.parametrize("hooked", [False, True])
    def test_grid_of_short_transients(self, n_transient, hooked):
        # seeds inside and outside the escape radius, parameters on both
        # sides of the escape boundary
        seeds = [(-3.0, 2.0), (0.1, 0.1), (11.0, 0.0), (1.5, -12.0), (-0.4, 9.9)]
        for a in (-2.2, -1.4, -1.0, -0.5, 0.3):
            for b in (-0.3, 0.0, 0.2):
                f = build_map("sine-perturbed" if hooked else "standard", a, b, delta=0.05)
                _assert_same_report(f, seeds, max_period=8, n_transient=n_transient)

    def test_default_twin_counts(self, monkeypatch):
        """The transient and the recurrence scan call no per-step helper,
        and the refinement makes one period-product pass per distinct point
        of newton2."""
        calls = Counter()
        solves = []
        real_pass, real_newton2 = henon._cycle_pass, henon.newton2

        for name in ("apply_map", "jacobian", "evaluate"):
            def counted(*args, real=getattr(henon, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(henon, name, counted)

        def cycle_pass(f, z, period):
            calls["passes"] += 1
            calls["pass steps"] += period
            return real_pass(f, z, period)

        def newton(F, x0, jac, **kwargs):
            points = set()
            solves.append(points)

            def seen(fn):
                def call(x):
                    points.add((x[0], x[1]))
                    return fn(x)
                return call

            return real_newton2(seen(F), x0, jac=seen(jac), **kwargs)

        monkeypatch.setattr(henon, "_cycle_pass", cycle_pass)
        monkeypatch.setattr(henon, "newton2", newton)
        f, seeds = HenonMap(*_TWIN_POINT), _TWIN_SEEDS
        report = find_attractors(f, seeds, max_period=32)
        assert [c.period for c in report.cycles] == [5, 11]
        assert calls["apply_map"] == calls["jacobian"] == calls["pass steps"]
        assert calls["evaluate"] == 0
        assert len(solves) == 2
        assert calls["passes"] == sum(len(points) for points in solves)


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
        with pytest.raises(DomainError, match="unknown map 'nope'"):
            build_map("nope", a=0.0, b=0.0)
