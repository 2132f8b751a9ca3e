"""Tests for fold charts, renormalized parameters, windows, and twins."""

import functools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab.crossmap import eval_cross, factorize_chain
from henonlab.errors import (
    ConvergenceError,
    DomainError,
    NoCrossingError,
    TangencyError,
    WordError,
)
from henonlab.henon import (
    Field2,
    HenonMap,
    apply_map,
    build_map,
    find_attractors,
    sine_perturbed_fields,
)
from henonlab.maps1d import quad, special_parameters
from henonlab.renorm import (
    _cycle_folds,
    _mu_gradient,
    certify_cone_expansion,
    double_tangency,
    find_tangency,
    multi_renormalize,
    renorm_window,
    renormalize,
    solve_mu_zero,
    twin_find,
)
from henonlab import crossmap, embed, renorm
from henonlab.rootfind import bisect, newton2, newton_safeguarded
from oracles import (_defect_at, chart, chart_inv, chart_scales, conjugate_rescale,
                     delta_star, renorm_map)

A1, A2 = special_parameters()


def build_flat(a: float) -> HenonMap:
    return HenonMap(a, 0.0)


def critical_orbit(a: float, steps: int) -> float:
    x = 0.0
    for _ in range(steps):
        x = quad(a, x)
    return x


def centered_slope(g, h: float) -> float:
    def s(step: float) -> float:
        return (g(step) - g(-step)) / (2.0 * step)

    return (4.0 * s(h / 2.0) - s(h)) / 3.0


@pytest.fixture(scope="module")
def flat_roots() -> list[float]:
    """Defect roots of c1..c4 at b = 0, each bracketed below its predecessor."""
    roots = []
    hi = -1.82
    for k in range(1, 5):
        root = solve_mu_zero(build_flat, f"c{k}", A2 + 1e-7, hi, coarse=48)
        roots.append(root)
        hi = root - 1e-9
    return roots


class TestTangency:
    def test_flat_anchor_is_exact_zero(self):
        chain = factorize_chain(HenonMap(-1.86, 0.0), "c1")
        t = find_tangency(chain)
        assert t.c == 0.0
        assert t.lam == 0.0
        assert t.d == 0.0
        assert t.q == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < t.sigma < 0.1

    def test_anchor_condition_is_stationary(self):
        chain = factorize_chain(HenonMap(-1.86, 1e-3), "c1")
        t = find_tangency(chain)
        assert abs(centered_slope(lambda s: _defect_at(chain, t.c, s), 1e-4)) <= 1e-8

    def test_thickness_matches_slope_power_product(self):
        f = HenonMap(-1.86, 1e-3)
        chain = factorize_chain(f, "c1")
        t = find_tangency(chain)
        assert t.lam == pytest.approx(t.sigma * f.b**chain.order, rel=1e-6)

    def test_flattened_fold_raises(self):
        # A bump that cancels almost all curvature near x = 0 but decays
        # before reaching the other strips leaves the passage intact while
        # degenerating the fold.
        g = 0.9995

        def val(x: float, v: float) -> float:
            return -g * x * x * math.exp(-100.0 * x * x)

        def dx(x: float, v: float) -> float:
            return -g * (2.0 * x - 200.0 * x**3) * math.exp(-100.0 * x * x)

        def dxx(x: float, v: float) -> float:
            return -g * (2.0 - 1000.0 * x * x + 40000.0 * x**4) * math.exp(
                -100.0 * x * x
            )

        f = HenonMap(-1.86, 0.0, zeta=Field2(value=val, dx=dx, dxx=dxx))
        with pytest.raises(TangencyError):
            find_tangency(factorize_chain(f, "c1"))


class TestFlatRoots:
    def test_first_root_pinned(self, flat_roots):
        assert flat_roots[0] == pytest.approx(-1.8607825222048548, abs=1e-9)
        assert flat_roots[1] == pytest.approx(-1.8848035715866820, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_superstable_orbit_oracle(self, flat_roots, k):
        # At b = 0 the defect root makes the critical point of x^2 + a
        # periodic with period (order + 1); the orbit residual is an
        # independent check of the 2-D solve.
        order = factorize_chain(build_flat(-1.86), f"c{k}").order
        assert abs(critical_orbit(flat_roots[k - 1], order + 1)) <= 1e-6

    def test_roots_accumulate_geometrically(self, flat_roots):
        gaps = [r - A2 for r in flat_roots]
        assert A1 > flat_roots[0]
        assert all(g > 0.0 for g in gaps)
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 0.20 < narrow / wide < 0.35

    def test_defect_slope_in_parameter(self, flat_roots):
        a0 = flat_roots[0]

        def mu(a: float) -> float:
            return find_tangency(factorize_chain(build_flat(a), "c1")).mu

        assert 0.3 < centered_slope(lambda h: mu(a0 + h), 1e-5) < 0.9

    def test_no_root_raises(self):
        with pytest.raises(ConvergenceError):
            solve_mu_zero(build_flat, "c1", -1.70, -1.65)


class TestRenormalize:
    def test_abar_vanishes_at_root(self, flat_roots):
        rd = renormalize(build_flat(flat_roots[0]), "c1")
        assert abs(rd.abar) <= 1e-9
        assert rd.M == 5

    def test_bbar_recovers_b(self, flat_roots):
        a0 = flat_roots[0]
        rd = renormalize(HenonMap(a0, 1e-3), "c1")
        assert rd.bbar == pytest.approx(1e-3, rel=1e-12)
        rd_neg = renormalize(HenonMap(a0, -1e-3), "c1")
        assert rd_neg.bbar == pytest.approx(-1e-3, rel=1e-10)

    def test_bbar_power_matches_orbit_determinant(self):
        zeta, _ = sine_perturbed_fields(1e-3)
        f = HenonMap(-1.86, 1e-3, zeta=zeta)
        rd = renormalize(f, "c1")
        t = rd.tangency
        z = (eval_cross(rd.chain, t.c, t.c).A, t.c)
        prod = 1.0
        from henonlab.henon import evaluate

        for _ in range(rd.chain.order + 1):
            prod *= evaluate(f, z).det
            z = apply_map(f, z)
        assert abs(rd.bbar) ** rd.M == pytest.approx(abs(prod), rel=1e-10)

    def test_negative_determinant_with_even_power_raises(self):
        strong = Field2(value=lambda x, v: 2.0 * v, dv=lambda x, v: 2.0)
        f = HenonMap(-1.86, 1e-3, m=2, zeta=strong)
        with pytest.raises(DomainError):
            renormalize(f, "s-")

    def test_chart_roundtrip(self):
        rd = renormalize(HenonMap(-1.95, 0.1), "s-")
        for X in (-2.0, -0.5, 0.0, 1.0, 2.0):
            for Y in (-2.0, 0.0, 1.5):
                x, y = chart(rd, X, Y)
                Xb, Yb = chart_inv(rd, x, y)
                assert Xb == pytest.approx(X, abs=1e-12)
                assert Yb == pytest.approx(Y, abs=1e-12)

    @given(
        X=st.floats(-2.0, 2.0, allow_nan=False),
        Y=st.floats(-2.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_chart_roundtrip_property(self, X, Y):
        rd = _thick_chart()
        x, y = chart(rd, X, Y)
        Xb, Yb = chart_inv(rd, x, y)
        assert Xb == pytest.approx(X, abs=1e-9)
        assert Yb == pytest.approx(Y, abs=1e-9)

    def test_return_matches_explicit_orbit_thick(self):
        rd = _thick_chart()
        steps = rd.chain.order + 1
        for X, Y in ((0.3, -0.4), (-0.8, 0.6), (0.0, 0.0)):
            z = chart(rd, X, Y)
            for _ in range(steps):
                z = apply_map(rd.chain.henon, z)
            Xe, Ye = chart_inv(rd, *z)
            Xp, Yp = renorm_map(rd, X, Y)
            assert Xp == pytest.approx(Xe, abs=1e-8)
            assert Yp == pytest.approx(Ye, abs=1e-8)

    def test_return_matches_explicit_orbit_thin(self, flat_roots):
        # At b = 1e-3 the chart thickness is ~1e-16, so only the first
        # coordinate of the explicit route is comparable.
        rd = renormalize(HenonMap(flat_roots[0], 1e-3), "c1")
        for X, Y in ((0.5, 0.2), (-1.0, -0.5)):
            z = chart(rd, X, Y)
            for _ in range(rd.chain.order + 1):
                z = apply_map(rd.chain.henon, z)
            assert renorm_map(rd, X, Y)[0] == pytest.approx(
                chart_inv(rd, *z)[0], abs=1e-9
            )

    def test_degenerate_return_keeps_the_entry(self):
        # at b = 0 the chart has no thickness: the return's second
        # coordinate is the entry's X, not chart_inv's 0
        rd = renormalize(HenonMap(-1.86, 0.0), "c1")
        t = rd.tangency
        assert t.lam == 0.0
        for X, Y in ((0.2, 0.3), (-0.4, -1.0)):
            w = apply_map(t.chain.henon, chart(rd, X, Y))
            forward = renorm._chain_forward(t.chain, w[0], w[1])
            assert renorm_map(rd, X, Y) == (chart_inv(rd, *forward)[0], X)

    @pytest.mark.parametrize("word", ["c1", "c1,bm0,bm0"])
    def test_entry_point_comes_from_the_anchor_solve(self, monkeypatch, word):
        # renormalize reads A(c, c) off find_tangency's last jet instead of
        # solving the chain there once more
        f = HenonMap(*embed._EMBED_SEED)

        def count(run):
            calls = []

            def counted(*args, **kwargs):
                calls.append(args[1:])
                return eval_cross(*args, **kwargs)

            with monkeypatch.context() as mp:
                mp.setattr(crossmap, "eval_cross", counted)
                mp.setattr(renorm, "eval_cross", counted)
                run()
            return len(calls)

        assert count(lambda: renormalize(f, word)) == count(
            lambda: find_tangency(factorize_chain(f, word)))
        t = renormalize(f, word).tangency
        assert t.A == eval_cross(t.chain, t.c, t.c).A

    def test_domain_guard(self, flat_roots):
        rd = renormalize(HenonMap(flat_roots[0], 1e-3), "c1")
        with pytest.raises(DomainError):
            renorm_map(rd, 500.0, 0.0)

    def test_quadratic_family_distance_shrinks(self, flat_roots):
        deltas = []
        for k, root in enumerate(flat_roots, start=1):
            rd = renormalize(build_flat(root), f"c{k}")
            deltas.append(delta_star(rd, grid=17))
        assert deltas[0] == pytest.approx(0.0745, rel=0.1)
        assert deltas[0] < 0.12
        for wide, narrow in zip(deltas, deltas[1:]):
            assert narrow < wide / 3.0

    def test_quadratic_family_distance_off_axis(self):
        a0 = solve_mu_zero(
            lambda a: HenonMap(a, 1e-4), "c2", A2 + 1e-7, -1.88, coarse=48
        )
        rd = renormalize(HenonMap(a0, 1e-4), "c2")
        assert delta_star(rd, grid=17) <= 0.05


@functools.lru_cache(maxsize=1)
def _thick_chart():
    """A chart with resolvable thickness: low order, moderate b, at the
    defect root so the return stays inside the strip region."""
    a0 = solve_mu_zero(lambda a: HenonMap(a, 0.1), "w=3", -1.75, -1.65, coarse=12)
    return renormalize(HenonMap(a0, 0.1), "w=3")


@pytest.fixture(scope="module")
def window():
    return renorm_window(build_flat, "c1", -1.8645, -1.8580)


class TestWindow:
    def test_location_and_width(self, window, flat_roots):
        assert window.a_star == pytest.approx(flat_roots[0], abs=1e-9)
        assert window.lo == pytest.approx(-1.8623361966603744, abs=1e-6)
        assert window.hi == pytest.approx(-1.8605873234439638, abs=1e-6)
        assert window.width == pytest.approx(1.7489e-3, rel=1e-3)
        assert window.lo < window.a_star < window.hi

    def test_asymmetry_reflects_sweep_direction(self, window):
        # The renormalized value decreases in a, so the short side of the
        # window (down to value 1/4) lies above the center.
        assert window.hi - window.a_star < window.a_star - window.lo

    def test_interior_attractor_period(self, window):
        f = build_flat(0.5 * (window.lo + window.hi))
        chain = factorize_chain(f, "c1")
        t = find_tangency(chain)
        seed = (t.c, eval_cross(chain, t.c, t.c).B)
        report = find_attractors(f, [seed], max_period=32)
        assert len(report.cycles) == 1
        cycle = report.cycles[0]
        assert cycle.period % 5 == 0
        assert cycle.period <= 10
        assert cycle.spectral_radius < 1.0

    def test_unreachable_level_raises(self):
        with pytest.raises(ConvergenceError):
            renorm_window(build_flat, "c1", -1.8612, -1.8600)


class TestConjugacy:
    def test_conjugated_map_tracks_affine_change(self):
        zeta, _ = sine_perturbed_fields(0.02)
        f = HenonMap(-1.86, 0.15, zeta=zeta)
        c, q = 0.3, 1.7
        g = conjugate_rescale(f, c, q)
        assert g.b == f.b

        for X, Y in ((0.0, 0.0), (0.4, -0.7), (-1.1, 0.9)):
            x, y = c + X / q, c + Y / q
            fx, fy = apply_map(f, (x, y))
            gX, gY = apply_map(g, (X, Y))
            assert gX == pytest.approx(q * (fx - c), abs=1e-12)
            assert gY == pytest.approx(q * (fy - c), abs=1e-12)

    def test_conjugated_field_partials_consistent(self):
        zeta, _ = sine_perturbed_fields(0.02)
        g = conjugate_rescale(HenonMap(-1.86, 0.15, zeta=zeta), 0.3, 1.7)
        h = 1e-6
        for x, v in ((0.2, -0.3), (-0.5, 0.1)):
            fd_x = (g.zeta.value(x + h, v) - g.zeta.value(x - h, v)) / (2 * h)
            fd_v = (g.zeta.value(x, v + h) - g.zeta.value(x, v - h)) / (2 * h)
            assert g.zeta.dx(x, v) == pytest.approx(fd_x, abs=1e-6)
            assert g.zeta.dv(x, v) == pytest.approx(fd_v, abs=1e-6)

    def test_renormalized_parameters_invariant(self, flat_roots):
        f = HenonMap(flat_roots[0], 1e-3)
        rd0 = renormalize(f, "c1")
        rd1 = renormalize(conjugate_rescale(f, 0.05, 1.2), "c1")
        assert rd1.M == rd0.M
        assert rd1.abar == pytest.approx(rd0.abar, abs=1e-9)
        assert rd1.bbar == pytest.approx(rd0.bbar, rel=1e-9)


@pytest.fixture(scope="module")
def equal_pair():
    f = HenonMap(-1.86, 1e-3)
    return multi_renormalize(f, ("c1", "c1")), renormalize(f, "c1")


class TestMultiWord:
    def test_normalization_checked_first(self):
        # at a = 0.3 the ladder has no fixed points, so building a piece first
        # would raise a different DomainError
        with pytest.raises(DomainError, match="xi-normalized"):
            multi_renormalize(build_map("sine-perturbed", 0.3, 0.01), ("c1", "zz"))

    @pytest.mark.parametrize("words", [(), ("c1",), ("c1", "c1", "c1")],
                             ids=["none", "one", "three"])
    def test_word_count_validated(self, words):
        with pytest.raises(DomainError):
            multi_renormalize(HenonMap(-1.86, 1e-3), words)

    @pytest.mark.parametrize("words, anchor_seed", [
        (("c1", "c1"), (0.0,)),
        (("c1", "c1"), (0.0, 0.0, 0.0)),
        (("c1",), (0.0, 0.0)),
        (("c1",), ()),
    ], ids=["one-for-two", "three-for-two", "two-for-one", "none-for-one"])
    def test_anchor_seed_needs_one_anchor_per_word(self, words, anchor_seed):
        with pytest.raises(DomainError, match="one anchor per word"):
            multi_renormalize(HenonMap(-1.86, 1e-3), words, anchor_seed=anchor_seed)

    def test_scale_identity(self, equal_pair):
        md, _ = equal_pair
        for i in range(md.count):
            nxt = (i + 1) % md.count
            assert md.gamma[i] ** 2 == pytest.approx(
                md.gamma[nxt] * md.sigma[nxt], rel=1e-12
            )

    def test_equal_words_reduce_to_single(self, equal_pair):
        md, rd = equal_pair
        assert md.c[0] == pytest.approx(md.c[1], abs=1e-12)
        for i in range(md.count):
            assert md.abar[i] == pytest.approx(rd.abar, abs=1e-8)
            assert md.bbar[i] == pytest.approx(rd.bbar**rd.M, rel=1e-6)

    def test_transition_dual_route_thick(self):
        md = multi_renormalize(_thick_chart().chain.henon, ("w=3", "w=3"))
        steps = md.chains[0].order + 1
        for X, Y in ((0.2, -0.3), (-0.6, 0.4)):
            z = md.chart(0, X, Y)
            for _ in range(steps):
                z = apply_map(md.chains[0].henon, z)
            Xe, Ye = md.chart_inv(1, *z)
            Xp, Yp = md.transition(0, X, Y)
            assert Xp == pytest.approx(Xe, abs=1e-8)
            assert Yp == pytest.approx(Ye, abs=1e-8)

    @pytest.mark.parametrize("cycle", ["equal-pair", "thick", "embed-seed"])
    def test_scales_are_the_weighted_mean(self, equal_pair, cycle):
        # the closed form gives the bits of the weighted mean over the cycle
        if cycle == "equal-pair":
            md = equal_pair[0]
        elif cycle == "thick":
            md = multi_renormalize(_thick_chart().chain.henon, ("w=3", "w=3"))
        else:
            md = multi_renormalize(HenonMap(*embed._EMBED_SEED), embed._EMBED_WORDS)
        assert [g.hex() for g in md.gamma] == [g.hex() for g in chart_scales(md.sigma)]

    def test_degenerate_transition_keeps_the_entry(self):
        md = multi_renormalize(HenonMap(-1.86, 0.0), ("c1", "c1"))
        assert md.lam == (0.0, 0.0)
        for i in (0, 1):
            for X, Y in ((0.2, 0.3), (-0.1, 0.5)):
                w = apply_map(md.chains[i].henon, md.chart(i, X, Y))
                forward = renorm._chain_forward(md.chains[1 - i], w[0], w[1])
                assert md.transition(i, X, Y) == (md.chart_inv(1 - i, *forward)[0], X)

    def test_transition_dual_route_thin(self, equal_pair):
        md, _ = equal_pair
        steps = md.chains[0].order + 1
        z = md.chart(0, 0.5, 0.2)
        for _ in range(steps):
            z = apply_map(md.chains[0].henon, z)
        assert md.transition(0, 0.5, 0.2)[0] == pytest.approx(
            md.chart_inv(1, *z)[0], abs=1e-9
        )


class TestDoubleTangency:
    def test_crossing_point(self):
        dt = double_tangency(
            lambda a, b: HenonMap(a, b),
            "c1",
            "c1,bm0,bm0",
            seed=(-1.86583, 2.376e-3),
        )
        assert abs(dt.mu1) <= 1e-9
        assert abs(dt.mu2) <= 1e-9
        assert dt.a == pytest.approx(-1.8658330161812804, abs=1e-6)
        assert dt.b == pytest.approx(2.3761057735313187e-3, rel=1e-4)
        assert 0.1 < abs(dt.dmu_db) < 50.0

    def test_no_crossing_reports_samples(self):
        with pytest.raises(NoCrossingError) as info:
            double_tangency(
                lambda a, b: HenonMap(a, b),
                "c1",
                "c1,bm0,bm0",
                seed=(-1.70, 0.3),
            )
        assert isinstance(info.value.samples, list)

    def test_seed_outside_a_branch_domain_names_the_word(self):
        # the long word's chain has no real branch at this seed
        with pytest.raises(NoCrossingError, match=r"^seed \(-1\.9, 0\.3\) lies outside the "
                           r"branch domain of 'c1,bm0,bm0': negative branch") as info:
            double_tangency(lambda a, b: HenonMap(a, b), "c1", "c1,bm0,bm0", seed=(-1.9, 0.3))
        assert info.value.samples == []

    def test_domain_error_at_an_iterate_is_a_failed_solve(self):
        # the first Newton step from this seed lands at a > 1/4, where the
        # ladder has no real fixed points
        with pytest.raises(NoCrossingError, match="fixed points are complex") as info:
            double_tangency(lambda a, b: HenonMap(a, b), "c1", "c2", seed=(-1.85, -0.1))
        assert [s[:2] for s in info.value.samples] == [(-1.85, -0.1)]

    @pytest.mark.parametrize("kind,m,seed", [
        ("standard", 1, (-1.86583, 2.376e-3)),
        ("standard", 1, (-1.86583301618128, 2.37610577353131e-3)),
        ("sine", 1, (-1.86583, 2.376e-3)),
        ("standard", 2, (-1.86583, 0.04875)),
    ])
    def test_matches_finite_difference_oracle(self, kind, m, seed):
        def build(a, b):
            if kind == "sine":
                return HenonMap(a, b, m, sine_perturbed_fields(0.01)[0])
            return HenonMap(a, b, m)

        dt = double_tangency(build, "c1", "c1,bm0,bm0", seed)
        ref = _reference_double_tangency(build, "c1", "c1,bm0,bm0", seed)
        assert abs(dt.mu1) <= 1e-12 and abs(dt.mu2) <= 1e-12
        assert dt.a == pytest.approx(ref.a, rel=1e-12)
        assert dt.b == pytest.approx(ref.b, rel=1e-12)
        assert dt.dmu_db == pytest.approx(ref.dmu_db, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("word", ["c1", "c1,bm0,bm0"])
    @pytest.mark.parametrize("kind", ["standard", "sine"])
    def test_mu_gradient_matches_differenced_defects(self, kind, word, m):
        def build(a, b):
            zeta = sine_perturbed_fields(0.01)[0] if kind == "sine" else Field2()
            return HenonMap(a, b, m, zeta)

        a, b = -1.8658, 2.4e-3 if m == 1 else 0.05
        t = find_tangency(factorize_chain(build(a, b), word))

        def mu(aa, bb):
            return find_tangency(factorize_chain(build(aa, bb), word), seed=t.c).mu

        h = 1e-6
        da = (mu(a + h, b) - mu(a - h, b)) / (2.0 * h)
        db = (mu(a, b + h) - mu(a, b - h)) / (2.0 * h)
        assert _mu_gradient(t) == pytest.approx((da, db), rel=1e-8)

    def test_gradient_reuses_the_tangency_solve(self, monkeypatch):
        # find_tangency ends on a jet at (c, c), where _mu_gradient's parameter
        # jet then starts: one chain solve per word and Jacobian fewer
        def run(tangent_solve):
            calls = []

            def counted(*args, **kwargs):
                calls.append(args[1:])
                return eval_cross(*args, **kwargs)

            with monkeypatch.context() as mp:
                mp.setattr(crossmap, "eval_cross", counted)
                mp.setattr(crossmap, "_tangent_solve", tangent_solve)
                dt = double_tangency(lambda a, b: HenonMap(a, b), "c1", "c1,bm0,bm0",
                                     seed=(-1.86583301618128, 2.37610577353131e-3))
            return dt, len(calls)

        reused, reused_calls = run(crossmap._tangent_solve)
        fresh, fresh_calls = run(crossmap._tangent_columns)
        assert reused == fresh
        assert (reused_calls, fresh_calls) == (14, 18)

    @pytest.mark.parametrize("kind,target", [
        ("standard", -0.5), ("standard", 0.2), ("sine", -0.5),
    ])
    def test_target_solve_puts_the_second_word_at_target(self, kind, target):
        def build(a, b):
            zeta = sine_perturbed_fields(0.01)[0] if kind == "sine" else Field2()
            return HenonMap(a, b, 1, zeta)

        crossing = double_tangency(build, "c1", "c1,bm0,bm0", (-1.86583, 2.376e-3))
        point = double_tangency(build, "c1", "c1,bm0,bm0", (crossing.a, crossing.b),
                                target=target)
        assert abs(point.mu1) <= 1e-12
        # abar moves by about 1e6 per unit a: a few ulps of a are 1e-9 of abar
        assert renormalize(build(point.a, point.b), "c1,bm0,bm0").abar == pytest.approx(
            target, abs=1e-9)
        assert point.samples[0][:2] == (crossing.a, crossing.b)
        assert point.samples[-1] == (point.a, point.b, point.mu1, point.mu2)

    def test_family_must_carry_its_parameters(self):
        # the zero map drops b, so its defects have no b-partials at all
        with pytest.raises(DomainError, match="carries its own a and b"):
            double_tangency(lambda a, b: build_map("zero", a, b),
                            "c1", "c1,bm0,bm0", seed=(-1.86583, 2.376e-3))

    def test_configuration_errors_are_not_wrapped(self):
        with pytest.raises(DomainError, match="xi-normalized"):
            double_tangency(lambda a, b: build_map("sine-perturbed", a, b),
                            "c1", "c1,bm0,bm0", seed=(-1.86583, 2.376e-3))
        with pytest.raises(WordError):
            double_tangency(lambda a, b: HenonMap(a, b),
                            "c1", "c1,zz", seed=(-1.86583, 2.376e-3))


def _fd_jacobian(F, x, h):
    """Central-difference Jacobian of a map of two variables, with steps
    scaled by the iterate (the finite-difference mode ``newton2`` had)."""
    rows = [[0.0, 0.0], [0.0, 0.0]]
    for j in range(2):
        hj = h * max(1.0, abs(x[j]))
        xp = list(x)
        xm = list(x)
        xp[j] += hj
        xm[j] -= hj
        fp, fm = F(xp), F(xm)
        rows[0][j] = (fp[0] - fm[0]) / (2.0 * hj)
        rows[1][j] = (fp[1] - fm[1]) / (2.0 * hj)
    return ((rows[0][0], rows[0][1]), (rows[1][0], rows[1][1]))


def _reference_double_tangency(build, word1, word2, seed):
    """The double tangency as solved on finite differences: Newton on the
    differenced Jacobian (step 1e-7) and dmu_db from two more solves at
    b +- 1e-7 max(1, |b|)."""

    def both(x):
        f = build(x[0], x[1])
        return (find_tangency(factorize_chain(f, word1)).mu,
                find_tangency(factorize_chain(f, word2)).mu)

    a, b = newton2(both, seed, jac=lambda x: _fd_jacobian(both, x, 1e-7), rtol=1e-13)
    mu1, mu2 = both([a, b])
    hb = 1e-7 * max(1.0, abs(b))
    gp = both([a, b + hb])
    gm = both([a, b - hb])
    dmu_db = ((gp[0] - gp[1]) - (gm[0] - gm[1])) / (2.0 * hb)
    return SimpleNamespace(a=a, b=b, mu1=mu1, mu2=mu2, dmu_db=dmu_db)


# ---------------------------------------------------------------------------
# oracle: the Richardson finite differences of the fold defect that the
# analytic fold terms replaced (centered_slope above is the slope rule)
# ---------------------------------------------------------------------------

def _curvature_extrapolated(g, h: float) -> float:
    """Richardson-extrapolated central second difference at 0 (O(h^4))."""
    g0 = g(0.0)

    def second(step: float) -> float:
        return (g(step) - 2.0 * g0 + g(-step)) / (step * step)

    return (4.0 * second(0.5 * h) - second(h)) / 3.0


def _cross_defect(chains, cs, i: int, t: float) -> float:
    """Fold defect departing word i toward word i+1 in the cycle."""
    count = len(chains)
    prev = cs[(i - 1) % count]
    nxt = (i + 1) % count
    b_val = eval_cross(chains[i], cs[i] + t, prev).B
    entry = eval_cross(chains[nxt], cs[nxt], cs[i] + t).A
    return apply_map(chains[i].henon, (cs[i] + t, b_val))[0] - entry


_FD_GRAD_STEP = 1e-4
_FD_CURV_STEP = 4e-3
_FOLD_WORDS = [("c0",), ("c1",), ("c1,bm0,bm0",), ("c1", "c1,bm0,bm0")]


def _fold_map(kind: str, a: float, b: float) -> HenonMap:
    if kind == "standard":
        return HenonMap(a, b)
    if kind == "sine":
        return HenonMap(a, b, 1, sine_perturbed_fields(0.01)[0])
    return conjugate_rescale(HenonMap(a, b), 0.05, 1.2)


def _fold_anchors(f: HenonMap, words):
    """(c, q, mu) per word: one word's tangency, or the anchors of a
    two-word cycle."""
    if len(words) == 1:
        t = find_tangency(factorize_chain(f, words[0]))
        return (t.c,), (t.q,), (t.mu,)
    md = multi_renormalize(f, words)
    return md.c, md.q, md.mu


def _check_newton_derivatives(f: HenonMap, words, abs_tol: float) -> None:
    """The slope derivatives handed to the Newton solvers against central
    differences of the analytic slopes, at the anchors and off them."""
    # one word: d/dc of the slope with both chain ends at (c, c)
    chain = factorize_chain(f, words[0])
    at = _cycle_folds((chain,))
    c = find_tangency(chain).c
    h = 1e-6
    for x in (c, c + 1e-3):
        fold = at((x,))[1][0]
        fd = (at((x + h,))[1][0].slope - at((x - h,))[1][0].slope) / (2.0 * h)
        assert fold.curv + fold.dslope_other == pytest.approx(fd, abs=abs_tol)
    # two words: the analytic newton2 Jacobian
    at = _cycle_folds(tuple(factorize_chain(f, w) for w in words))
    cs = multi_renormalize(f, words).c
    for x in ([cs[0], cs[1]], [cs[0] + 1e-3, cs[1] - 1e-3]):
        f0, f1 = at(x)[1]
        jac = ((f0.curv, f0.dslope_other), (f1.dslope_other, f1.curv))
        fd = _fd_jacobian(lambda y: tuple(fold.slope for fold in at(y)[1]), x, 1e-7)
        for row, fd_row in zip(jac, fd):
            assert row == pytest.approx(fd_row, abs=abs_tol)
        # each defect's partial in the other anchor, which carries the
        # defects of a converged seed to the anchors
        fd = _fd_jacobian(lambda y: tuple(fold.mu for fold in at(y)[1]), x, 1e-5)
        assert f0.dmu_other == pytest.approx(fd[0][1], abs=abs_tol)
        assert f1.dmu_other == pytest.approx(fd[1][0], abs=abs_tol)


class TestAnalyticFoldOracle:
    @pytest.mark.parametrize("words", _FOLD_WORDS, ids=lambda w: "+".join(w))
    @pytest.mark.parametrize("b", [0.0, 2.4e-3, -2.4e-3, 1e-2])
    @pytest.mark.parametrize("kind", ["standard", "sine", "conjugated"])
    def test_fold_terms_match_richardson(self, kind, b, words):
        for a in (-1.8608, -1.8665368062):
            f = _fold_map(kind, a, b)
            chains = tuple(factorize_chain(f, w) for w in words)
            anchors, q, mu = _fold_anchors(f, words)
            at = _cycle_folds(chains)
            for i in range(len(words)):
                def defect(t, cs=anchors):
                    return _cross_defect(chains, cs, i, t)

                # the anchor is where the differenced slope vanishes, and
                # q is half the differenced curvature there
                assert abs(centered_slope(defect, _FD_GRAD_STEP)) <= 1e-10
                assert q[i] == pytest.approx(
                    0.5 * _curvature_extrapolated(defect, _FD_CURV_STEP), rel=2e-9
                )
                assert mu[i] == defect(0.0)
                # slope and curvature away from the anchor
                for offset in (1e-3, -2e-3):
                    cs = tuple(c + offset * (k + 1) for k, c in enumerate(anchors))
                    fold = at(cs)[1][i]
                    assert fold.slope == pytest.approx(
                        centered_slope(lambda t: defect(t, cs), _FD_GRAD_STEP), abs=1e-10
                    )
                    assert fold.curv == pytest.approx(
                        _curvature_extrapolated(lambda t: defect(t, cs), _FD_CURV_STEP),
                        rel=2e-9,
                    )

    @pytest.mark.parametrize("b", [0.0, 2.4e-3, -2.4e-3, 1e-2])
    @pytest.mark.parametrize("kind", ["standard", "sine", "conjugated"])
    def test_newton_derivatives_match_differenced_slopes(self, kind, b):
        f = _fold_map(kind, -1.8665368062, b)
        _check_newton_derivatives(f, ("c1", "c1,bm0,bm0"), abs_tol=1e-8)

    @pytest.mark.parametrize("a", [-1.70, -1.72])
    def test_newton_derivatives_on_a_thick_chart(self, a):
        # at b = 0.1 with a strong zeta the O(b^m) terms of the neighbour
        # partial are resolvable by differences
        f = HenonMap(a, 0.1, 1, sine_perturbed_fields(0.05)[0])
        _check_newton_derivatives(f, ("w=3", "w="), abs_tol=1e-9)

    @pytest.mark.parametrize("word", ["c1", "c2", "c1,bm0,bm0"])
    def test_flat_curvature_is_exact(self, word):
        for a in (-1.86, -1.8665368062):
            t = find_tangency(factorize_chain(HenonMap(a, 0.0), word))
            assert t.q == 1.0
            assert t.mu == _defect_at(t.chain, t.c, 0.0)

    def test_underflowing_chart_is_tangency_error(self):
        # sigma underflows to 0 while the curvature stays 2: the renormalized
        # parameters would divide by zero
        with pytest.raises(TangencyError, match="degenerate chart"):
            renormalize(HenonMap(-1e300, 1e-3), "c1")


def _scan_twin_target(build, word_minus, word_plus, a_at_b0, b0, target, a_range):
    """Oracle for the target point of ``twin_find``: the walk along the
    short word's root curve that the target solve of ``double_tangency``
    replaced.  Each root a(b) is a ``solve_mu_zero`` window around the last
    root, clipped to ``a_range``; 11 offsets on each side of b0 bracket the
    long word's value at ``target``, and a bracketed secant on b runs to
    rounding level.  Returns (a, b)."""
    a_min, a_max = min(a_range), max(a_range)
    last = {"a": a_at_b0, "b": b0}

    def root_at(b: float) -> float:
        # the root curve moves about 2.1 (c1) in a per unit b
        half = 4e-3 + 4.0 * abs(b - last["b"])
        lo, hi = max(last["a"] - half, a_min), min(last["a"] + half, a_max)
        last["a"] = solve_mu_zero(lambda a: build(a, b), word_minus, lo, hi, coarse=12)
        last["b"] = b
        return last["a"]

    def off_target(b: float) -> float:
        return renormalize(build(root_at(b), b), word_plus).abar - target

    def scan(direction: float):
        for u in (0.0, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4):
            b = b0 * (1.0 + direction * u)
            yield b, off_target(b)

    hit = renorm._first_sign_change(scan(1.0)) or renorm._first_sign_change(scan(-1.0))
    if hit is None:
        raise NoCrossingError(f"{word_plus!r} never reaches {target!r} near b0={b0!r}", [])
    b_star = newton_safeguarded(off_target, 0.5 * (hit[0] + hit[1]), bracket=hit, rtol=1e-15)
    return root_at(b_star), b_star


# (k, j, b_hat, m): the default search and the nine configurations of
# test_cli's coarse twin scans
_TWIN_CONFIGS = [
    (1, 0, 1e-2, 1), (1, 0, 3e-2, 1), (2, 0, 1e-2, 1), (2, 0, -1e-2, 1), (2, 0, 3e-2, 1),
    (2, 0, -3e-2, 1), (1, 0, 0.3, 1), (2, 1, 1e-3, 1), (1, 0, 1e-2, 2), (1, 0, -1e-2, 2),
]


@pytest.fixture(scope="module")
def twin():
    return twin_find(lambda a, b: HenonMap(a, b), k=1, j=0, b_hat=1e-2)


class TestTwin:
    def test_words_and_scale(self, twin):
        assert twin.word_minus == "c1"
        assert twin.word_plus == "c1,bm0,bm0"
        assert twin.eta == pytest.approx(0.09099539, abs=1e-6)

    def test_crossing_inside_bracket(self, twin):
        lo, hi = sorted(twin.bracket)
        assert lo <= twin.b0 <= hi
        assert twin.b0 == pytest.approx(2.3761057794094084e-3, rel=1e-6)

    def test_center_curve_stays_flat(self, twin):
        assert abs(twin.abar_minus) <= 1e-6
        # the crossing and the target point
        assert len(twin.curve_abar_minus) == 2
        assert twin.curve_abar_minus[1] == twin.abar_minus
        assert max(abs(v) for v in twin.curve_abar_minus) <= 1e-9

    @pytest.mark.parametrize("k,j,b_hat,m", _TWIN_CONFIGS)
    def test_target_point_matches_the_curve_scan(self, k, j, b_hat, m):
        def build(a, b):
            return HenonMap(a, b, m)

        tw = twin_find(build, k=k, j=j, b_hat=b_hat)
        a, b = _scan_twin_target(build, tw.word_minus, tw.word_plus, tw.a_at_b0, tw.b0,
                                 -0.5, (A2 + 5e-4, -1.82))
        assert abs(tw.a - a) <= 1e-12 * abs(a)
        assert abs(tw.b - b) <= 1e-12 * abs(b)

    def test_companion_value_hits_target(self, twin):
        assert twin.abar_plus == pytest.approx(-0.5, abs=1e-6)

    def test_two_attracting_cycles(self, twin):
        assert twin.periods == (5, 11)
        assert len(twin.report.cycles) == 2
        assert all(c.spectral_radius < 1.0 for c in twin.report.cycles)
        long_cycle = max(twin.report.cycles, key=lambda c: c.period)
        # The companion's renormalized value -1/2 predicts a multiplier of
        # twice the fixed point of x^2 - 1/2.
        assert long_cycle.spectral_radius == pytest.approx(
            math.sqrt(3.0) - 1.0, abs=1e-3
        )

    @pytest.mark.parametrize("k,b0_at_m1,periods", [
        (1, 2.3761057735220e-3, (5, 11)),
        (2, 6.261933285601e-4, (7, 13)),
    ])
    def test_even_m_orients_by_the_sign_of_b_power(self, k, b0_at_m1, periods):
        # b^2 > 0 for either sign of b: the long word turns as for b > 0,
        # and the crossing's b^2 is the m = 1 crossing's b
        tw = twin_find(lambda a, b: HenonMap(a, b, 2), k=k, b_hat=-1e-2)
        assert tw.word_plus == f"c{k},bm0,bm0"
        assert tw.b0 < 0.0
        assert tw.b0**2 == pytest.approx(b0_at_m1, rel=1e-10)
        assert tw.periods == periods
        assert all(c.spectral_radius < 1.0 for c in tw.report.cycles)

    def test_unreached_target_keeps_its_samples(self, twin):
        # from the crossing, the first Newton step towards abar = 1e10 leaves
        # the short word's branch domain
        with pytest.raises(NoCrossingError,
                           match=r"^Newton iterate .* branch domain of 'c1'") as info:
            twin_find(lambda a, b: HenonMap(a, b), target=1e10)
        samples = info.value.samples
        # (a, b, mu1, mu2), starting at the crossing
        assert samples and all(len(s) == 4 for s in samples)
        assert samples[0][:2] == (twin.a_at_b0, twin.b0)

    def test_target_outside_the_window_keeps_its_samples(self, twin):
        # abar = -1e6 is reached at a = -1.957, below a2 and the default window
        with pytest.raises(NoCrossingError, match=r"reaches -1000000\.0 at a=-1\.957\d*, "
                           r"outside the window \[") as info:
            twin_find(lambda a, b: HenonMap(a, b), target=-1e6)
        samples = info.value.samples
        assert samples and all(len(s) == 4 for s in samples)
        assert samples[0][:2] == (twin.a_at_b0, twin.b0)
        assert samples[-1][0] < A2

    @pytest.mark.parametrize("target", [5.0, 100.0])
    def test_targets_beyond_the_old_scan(self, target):
        # 11 offsets up to 3e-4 b0 on either side of b0 never reached these
        tw = twin_find(lambda a, b: HenonMap(a, b), target=target)
        assert tw.abar_plus == pytest.approx(target, rel=1e-9)
        assert abs(tw.abar_minus) <= 1e-9

    def test_default_search_makes_at_most_100_chain_solves(self, monkeypatch):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return eval_cross(*args, **kwargs)

        monkeypatch.setattr(crossmap, "eval_cross", counted)
        monkeypatch.setattr(renorm, "eval_cross", counted)
        twin_find(lambda a, b: HenonMap(a, b))
        # 85; 460 when the target point walked the short word's root curve
        assert calls[0] <= 100

    def test_failed_crossing_keeps_its_samples(self):
        # from the m = 3 seed for b_hat = -1e-3 the first Newton step leaves
        # the branch domain of c1,bp0,bm0
        with pytest.raises(NoCrossingError,
                           match="^Newton iterate .* branch domain of 'c1,bp0,bm0'") as info:
            twin_find(lambda a, b: HenonMap(a, b, 3), b_hat=-1e-3)
        samples = info.value.samples
        assert samples and all(len(s) == 4 for s in samples)
        assert samples[0][1] < 0.0


def _scan_bisect_polish(build, word, a_lo, a_hi, coarse=24):
    """Oracle for ``solve_mu_zero``: the coarse scan, bisection to 1e-11
    and secant polish it replaced.  Also returns the number of coarse cells
    whose ends change sign or start at an exact zero."""

    def mu(a: float) -> float:
        return find_tangency(factorize_chain(build(a), word)).mu

    grid = [a_lo + (a_hi - a_lo) * k / coarse for k in range(coarse + 1)]
    values = [(a, mu(a)) for a in grid]
    cells = list(zip(values, values[1:]))
    changes = sum(1 for (_, m0), (_, m1) in cells if m0 == 0.0 or m0 * m1 < 0.0)
    for (a0, m0), (a1, m1) in cells:
        if m0 == 0.0:
            return a0, changes
        if m0 * m1 < 0.0:
            root = bisect(mu, a0, a1, rtol=1e-11)
            return newton_safeguarded(mu, root, bracket=(a0, a1), rtol=1e-15), changes
    raise ConvergenceError(f"defect of {word!r} has no root in [{a_lo!r}, {a_hi!r}]")


@pytest.fixture(scope="module", params=[(1, 1e-2), (1, -1e-2), (2, 1e-2), (2, -1e-2)],
                ids=["b_hat+", "b_hat-", "c2-b_hat+", "c2-b_hat-"])
def recorded_twin(request):
    """Twin search at (k, j) = (1, 0) or (2, 0), recording every
    ``solve_mu_zero`` window and counting the maps built."""
    windows, builds = [], [0]
    solve = renorm.solve_mu_zero

    def recording(build, word, a_lo, a_hi, coarse=24):
        windows.append((build, word, a_lo, a_hi, coarse))
        return solve(build, word, a_lo, a_hi, coarse)

    def build(a: float, b: float) -> HenonMap:
        builds[0] += 1
        return HenonMap(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renorm, "solve_mu_zero", recording)
        k, b_hat = request.param
        twin_find(build, k=k, j=0, b_hat=b_hat)
    return windows, builds[0]


def _renorm_windows(flat_roots):
    """The flat_roots windows and the a_star windows of renorm_window."""
    windows, hi = [], -1.82
    for k, root in enumerate(flat_roots, start=1):
        windows.append((build_flat, f"c{k}", A2 + 1e-7, hi, 48))
        hi = root - 1e-9
    for b in (0.0, 1e-3, -1e-3):
        for a_lo in (-1.8646, -1.8645):
            windows.append((lambda a, b=b: HenonMap(a, b), "c1", a_lo, -1.8580, 24))
    return windows


class TestParameterRootOracle:
    """One bracketed secant per window gives the scan oracle's root."""

    @staticmethod
    def assert_matches_oracle(windows):
        for build, word, a_lo, a_hi, coarse in windows:
            expected, changes = _scan_bisect_polish(build, word, a_lo, a_hi, coarse)
            assert changes == 1, (word, a_lo, a_hi)
            root = solve_mu_zero(build, word, a_lo, a_hi, coarse)
            assert abs(root - expected) <= 2.0 * math.ulp(expected), (word, a_lo, a_hi)

    def test_twin_windows(self, recorded_twin):
        windows, _ = recorded_twin
        # one window per search: the short word's b = 0 root
        assert len(windows) == 1
        self.assert_matches_oracle(windows)

    def test_flat_and_renorm_windows(self, flat_roots):
        self.assert_matches_oracle(_renorm_windows(flat_roots))

    def test_at_most_thirty_maps_per_twin_search(self, recorded_twin):
        # 19 to 22: the b = 0 root, two double-tangency solves and the
        # renormalizations at the crossing and the target point
        _, builds = recorded_twin
        assert builds <= 30

    @staticmethod
    def solve_with_defect(monkeypatch, defect):
        monkeypatch.setattr(renorm, "factorize_chain", lambda f, word: f)
        monkeypatch.setattr(renorm, "find_tangency",
                            lambda a, seed=0.0: SimpleNamespace(mu=defect(a), c=seed))
        return solve_mu_zero(lambda a: a, "c1", 0.0, 1.0)

    def test_exact_zero_at_an_end(self, monkeypatch):
        assert self.solve_with_defect(monkeypatch, lambda a: a) == 0.0
        assert self.solve_with_defect(monkeypatch, lambda a: a - 1.0) == 1.0

    def test_unbracketed_ends_take_first_coarse_root(self, monkeypatch):
        root = self.solve_with_defect(monkeypatch, lambda a: (a - 0.3) * (a - 0.7))
        assert root == pytest.approx(0.3, abs=1e-15)
        # a root on a grid point is returned as it stands
        assert self.solve_with_defect(monkeypatch, lambda a: (a - 0.25) * (a - 0.7)) == 0.25


@pytest.fixture(scope="module")
def cert():
    return certify_cone_expansion(HenonMap(-1.95, 1e-3))


class TestConeCertificate:
    def test_all_classes_sampled(self, cert):
        assert cert.counts["K1"] > 200
        assert cert.counts["K2"] > 0
        assert cert.counts["K3"] > 0
        assert cert.unclassified > 0

    def test_expansion_and_invariance(self, cert):
        assert cert.expansion_min["K1"] > 1.2
        assert cert.expansion_min["K2"] > 2.0
        assert cert.expansion_min["K3"] > 1.5
        assert all(v == 0 for v in cert.violations.values())

    def test_growth_rate_contracts(self, cert):
        assert 0.2 < cert.kappa < 1.0

    def test_negative_gap_index_is_domain_error(self):
        with pytest.raises(DomainError, match="j must be non-negative, got -1"):
            certify_cone_expansion(HenonMap(-1.95, 1e-3), j=-1, grid=(3, 3))
        with pytest.raises(DomainError, match="j must be non-negative, got -2"):
            twin_find(lambda a, b: HenonMap(a, b), j=-2)

    def test_disk_exclusion(self):
        wide = certify_cone_expansion(HenonMap(-1.95, 1e-3), r_disk=0.3)
        assert wide.excluded_disk > 0
