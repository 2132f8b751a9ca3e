"""Tests for cross-map chains: solves, oracles, derivatives, margins."""

import math
import pickle
import random

import pytest

from henonlab.crossmap import (
    ConeSpec,
    CrossDerivs,
    CrossEval,
    DistortionReport,
    det_identity,
    distortion_report,
    eval_cross,
    eval_cross_derivatives,
    eval_cross_jet,
    eval_cross_param_jet,
    factorize_chain,
    factorize_chains,
    hyperbolicity_check,
    shoot_oracle,
    slice_image,
)
from henonlab.errors import (
    BranchError,
    ConvergenceError,
    DomainError,
    HenonLabError,
    NonMonotoneError,
)
from henonlab.henon import (
    ZERO_FIELD,
    Field2,
    HenonMap,
    apply_map,
    build_map,
    normalize_xi,
    sine_perturbed_fields,
)
from henonlab.rootfind import newton_safeguarded
from oracles import conjugate_rescale, reverse_eval


def linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def make_chain(word: str, a: float, b: float) -> "CrossMapChain":
    return factorize_chain(HenonMap(a, b), word)


class TestClosedForm:
    def test_degenerate_radical_values(self):
        chain = make_chain("s-", a=-2.0, b=0.0)
        out = eval_cross(chain, x1=0.0, y0=0.0)
        assert out.A == pytest.approx(-math.sqrt(2.0 - math.sqrt(2.0)), abs=1e-10)
        assert out.B == pytest.approx(-math.sqrt(2.0), abs=1e-10)

    def test_degenerate_radical_slope(self):
        chain = make_chain("s-", a=-2.0, b=0.0)
        d = eval_cross_derivatives(chain, x1=0.0, y0=0.0)
        x0 = -math.sqrt(2.0 - math.sqrt(2.0))
        expected = 1.0 / (4.0 * x0 * (x0 * x0 - 2.0))
        assert d.dA[0] == pytest.approx(expected, abs=1e-10)
        assert d.dA[0] == pytest.approx(0.230970, abs=1e-6)
        assert d.dA[1] == 0.0
        assert d.dB[1] == 0.0

    def test_branch_error_below_vertex(self):
        chain = make_chain("s-", a=-2.0, b=0.0)
        with pytest.raises(BranchError):
            eval_cross(chain, x1=-2.5, y0=0.0)

    def test_requires_normalized_map(self):
        f = build_map("sine-perturbed", a=-1.95, b=0.01)
        with pytest.raises(DomainError):
            factorize_chain(f, "s-")

    @pytest.mark.parametrize("words", [("c1", "c1,bm0,bm0"), ("e", "zz"), ("c1", "zz"),
                                       ("c1,bm0", "e")])
    @pytest.mark.parametrize("a", [-1.95, -1.86, -1.7, 0.0, 0.3])
    def test_chains_of_several_words_match_one_at_a_time(self, words, a):
        def outcome(make):
            try:
                return [(ch.henon, ch.piece) for ch in make()]
            except HenonLabError as exc:
                return (type(exc), str(exc))

        for f in (HenonMap(a, 1e-3), build_map("sine-perturbed", a=a, b=0.01)):
            def one_at_a_time():
                for word in words:
                    yield factorize_chain(f, word)

            assert outcome(lambda: factorize_chains(f, words)) == outcome(one_at_a_time)


class TestChainVsShoot:
    WORDS = ["s-", "s+", "w-", "w+", "w=", "w=3", "c1", "c2"]

    @pytest.mark.parametrize("word", WORDS)
    def test_agreement(self, word):
        chain = make_chain(word, a=-1.95, b=1e-2)
        for y0 in (-0.5, 0.0, 0.7):
            img_lo, img_hi = slice_image(chain, y0)
            pad = 0.1 * (img_hi - img_lo)
            for x1 in linspace(img_lo + pad, img_hi - pad, 5):
                out = eval_cross(chain, x1, y0)
                ref = shoot_oracle(chain, x1, y0)
                assert out.A == pytest.approx(ref.A, abs=1e-9)
                assert out.B == pytest.approx(ref.B, abs=1e-9)

    def test_forward_residual(self):
        chain = make_chain("c2", a=-1.95, b=1e-2)
        out = eval_cross(chain, x1=0.1, y0=0.3)
        z = (out.A, 0.3)
        for _ in range(chain.order):
            z = apply_map(chain.henon, z)
        assert abs(z[0] - 0.1) <= 1e-9
        assert abs(z[1] - out.B) <= 1e-9

    def test_sweep_count_stays_small(self):
        # coupling is O(b), so a handful of sweeps suffices at any order
        chain = make_chain("c3", a=-1.95, b=1e-2)  # order 8
        out = eval_cross(chain, x1=0.0, y0=0.2)
        assert out.sweeps <= 10

    def test_with_zeta_field(self):
        delta = 0.01
        zeta = Field2(
            value=lambda x, v: delta * math.sin(x + v),
            dx=lambda x, v: delta * math.cos(x + v),
            dv=lambda x, v: delta * math.cos(x + v),
        )
        f = HenonMap(-1.95, 1e-2, zeta=zeta)
        chain = factorize_chain(f, "s-")
        for x1 in linspace(-0.7, 0.7, 5):
            out = eval_cross(chain, x1, 0.4)
            ref = shoot_oracle(chain, x1, 0.4)
            assert out.A == pytest.approx(ref.A, abs=1e-9)
            assert out.B == pytest.approx(ref.B, abs=1e-9)

    def test_shoot_rejects_unbracketed_target(self):
        chain = make_chain("s-", a=-2.0, b=0.0)
        with pytest.raises(NonMonotoneError):
            shoot_oracle(chain, x1=1.5, y0=0.0)


class TestDerivatives:
    @pytest.mark.parametrize("word", ["s-", "c1"])
    def test_fd_cross_check(self, word):
        chain = make_chain(word, a=-1.95, b=1e-2)
        h = 1e-6
        for x1, y0 in [(-0.3, 0.2), (0.4, -0.6)]:
            d = eval_cross_derivatives(chain, x1, y0)
            fd_ax = (eval_cross(chain, x1 + h, y0).A - eval_cross(chain, x1 - h, y0).A) / (2 * h)
            fd_ay = (eval_cross(chain, x1, y0 + h).A - eval_cross(chain, x1, y0 - h).A) / (2 * h)
            fd_bx = (eval_cross(chain, x1 + h, y0).B - eval_cross(chain, x1 - h, y0).B) / (2 * h)
            fd_by = (eval_cross(chain, x1, y0 + h).B - eval_cross(chain, x1, y0 - h).B) / (2 * h)
            assert d.dA[0] == pytest.approx(fd_ax, rel=1e-4)
            assert d.dA[1] == pytest.approx(fd_ay, rel=1e-4, abs=1e-10)
            assert d.dB[0] == pytest.approx(fd_bx, rel=1e-4, abs=1e-10)
            assert d.dB[1] == pytest.approx(fd_by, rel=1e-4, abs=1e-10)

    @pytest.mark.parametrize("b", [1e-2, -1e-2, 1e-4])
    def test_det_identity_unperturbed(self, b):
        chain = make_chain("w=", a=-1.95, b=b)
        ratio, prod = det_identity(chain, x1=0.2, y0=0.4)
        assert ratio == pytest.approx(b ** chain.order, rel=1e-8)
        assert prod == pytest.approx(b ** chain.order, rel=1e-12)

    def test_det_identity_with_zeta(self):
        delta = 0.02
        zeta = Field2(
            value=lambda x, v: delta * math.sin(x + v),
            dx=lambda x, v: delta * math.cos(x + v),
            dv=lambda x, v: delta * math.cos(x + v),
        )
        f = HenonMap(-1.95, 1e-2, zeta=zeta)
        chain = factorize_chain(f, "c1")
        ratio, prod = det_identity(chain, x1=0.1, y0=-0.3)
        assert prod != pytest.approx(f.b ** chain.order, rel=1e-6)
        assert ratio == pytest.approx(prod, rel=1e-8)

    def test_det_identity_after_normalization(self):
        f = normalize_xi(build_map("sine-perturbed", a=-1.95, b=1e-2, delta=0.005))
        chain = factorize_chain(f, "s-")
        ratio, prod = det_identity(chain, x1=0.1, y0=0.2)
        assert ratio == pytest.approx(prod, rel=1e-6)


def _jet_probes(word, b, kind, count=6):
    """Seeded (chain, x1, y0) inside the word's image on a standard map, a
    sine-zeta map and a conjugated standard map (all zeta partials set)."""
    rng = random.Random(f"jet|{word}|{b}|{kind}")
    probes = []
    for _ in range(count):
        a = rng.uniform(-1.99, -1.83)
        if kind == "standard":
            f = HenonMap(a, b)
        elif kind == "sine":
            f = HenonMap(a, b, 1, sine_perturbed_fields(0.02)[0])
        else:
            f = conjugate_rescale(HenonMap(a, b), 0.05, 1.2)
        chain = factorize_chain(f, word)
        lo, hi = chain.piece.image
        if kind == "conjugated":
            lo, hi = -0.3, 0.3
        pad = 0.1 * (hi - lo)
        probes.append((chain, rng.uniform(lo + pad, hi - pad), rng.uniform(-1.0, 1.0)))
    return probes


class TestJet:
    @pytest.mark.parametrize("kind", ["standard", "sine", "conjugated"])
    @pytest.mark.parametrize("b", [0.0, 2.4e-3, -5e-3, 1e-2])
    @pytest.mark.parametrize("word", ["c0", "c1", "bm0", "c1,bm0,bm0"])
    def test_second_partials_match_differenced_columns(self, word, b, kind):
        # each second partial against the central difference of the
        # first-order column with the same scale in b: (x1 x1) differences
        # the x1-column in x1, (x1 y0) and (y0 y0) the y0-column
        h = 1e-5
        for chain, x1, y0 in _jet_probes(word, b, kind):
            jet = eval_cross_jet(chain, x1, y0)
            d = eval_cross_derivatives(chain, x1, y0)
            assert (jet.A, jet.B, jet.dA, jet.dB) == (d.A, d.B, d.dA, d.dB)
            px = eval_cross_derivatives(chain, x1 + h, y0)
            mx = eval_cross_derivatives(chain, x1 - h, y0)
            py = eval_cross_derivatives(chain, x1, y0 + h)
            my = eval_cross_derivatives(chain, x1, y0 - h)
            for second, column in ((jet.d2A, lambda r: r.dA), (jet.d2B, lambda r: r.dB)):
                fd = (
                    (column(px)[0] - column(mx)[0]) / (2.0 * h),
                    (column(px)[1] - column(mx)[1]) / (2.0 * h),
                    (column(py)[1] - column(my)[1]) / (2.0 * h),
                )
                for got, ref in zip(second, fd):
                    assert got == pytest.approx(ref, rel=1e-6, abs=0.0), (chain.henon, x1, y0)

    def test_flat_map_has_no_y0_partials(self):
        chain = make_chain("c1", a=-1.86, b=0.0)
        jet = eval_cross_jet(chain, 0.1, 0.3)
        assert jet.dA[1] == jet.dB[1] == 0.0
        assert jet.d2A[1:] == jet.d2B[1:] == (0.0, 0.0)

    def test_fold_point_on_the_chain_is_branch_error(self):
        # x1 = a puts x_1 on the fold of the last factor, where the inverse
        # branch has no derivative
        chain = make_chain("s-", a=-2.0, b=0.0)
        assert eval_cross(chain, -2.0, 0.0).x_path[1] == 0.0
        with pytest.raises(BranchError):
            eval_cross_derivatives(chain, -2.0, 0.0)
        with pytest.raises(BranchError):
            eval_cross_jet(chain, -2.0, 0.0)


class TestReverseEval:
    @pytest.mark.parametrize("word", ["s-", "w=", "c1"])
    def test_round_trip(self, word):
        chain = make_chain(word, a=-1.95, b=1e-2)
        x1, y0 = 0.15, 0.4
        out = eval_cross(chain, x1, y0)
        x1_back, y0_back = reverse_eval(chain, out.A, out.B)
        assert x1_back == pytest.approx(x1, abs=1e-8)
        assert y0_back == pytest.approx(y0, abs=1e-8)


class TestHyperbolicity:
    def test_cone_spec_defaults(self):
        cone = ConeSpec(eta=0.5)
        assert cone.c_h == pytest.approx(2.0)
        assert cone.c_v == pytest.approx(0.25)
        assert cone.c == pytest.approx(1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("eta", [0.0, -0.5, math.inf, math.nan])
    def test_cone_spec_rejects_bad_eta(self, eta):
        with pytest.raises(DomainError, match="eta must be finite and positive"):
            ConeSpec(eta=eta)

    def test_return_piece_margin(self):
        chain = make_chain("s-", a=-1.95, b=1e-3)
        cone = ConeSpec(eta=0.5)
        img_lo, img_hi = chain.piece.image
        pad = 0.05 * (img_hi - img_lo)
        report = hyperbolicity_check(
            chain, cone, linspace(img_lo + pad, img_hi - pad, 9), linspace(-1.0, 1.0, 9)
        )
        assert report.ok
        assert report.margin >= 0.5
        assert report.n_probes == 81

    def test_exit_slope_exceeds_vertical_cone(self):
        # dB/dx1 is a genuine horizontal slope: it exceeds the vertical
        # aperture c_v on this piece, so the second inequality must divide
        # by c_h rather than c_v to be satisfiable.
        chain = make_chain("s-", a=-1.95, b=1e-3)
        cone = ConeSpec(eta=0.5)
        worst = 0.0
        for x1 in linspace(-0.8, 0.8, 9):
            for y0 in linspace(-1.0, 1.0, 5):
                d = eval_cross_derivatives(chain, x1, y0)
                worst = max(worst, abs(d.dB[0]))
        assert worst > cone.c_v

    @pytest.mark.parametrize("x1_values,y0_values", [([], [0.0]), ([0.0], []), ([], [])])
    def test_empty_grid_is_domain_error(self, x1_values, y0_values):
        # an empty grid would report a vacuous pass with an infinite margin
        chain = make_chain("s-", a=-1.95, b=1e-3)
        with pytest.raises(DomainError, match="nonempty"):
            hyperbolicity_check(chain, ConeSpec(eta=0.5), x1_values, y0_values)


class TestDistortion:
    def test_small_b_report(self):
        report = distortion_report(
            lambda a, b: HenonMap(a, b),
            "s-",
            ab_values=[(-1.95, 1e-4)],
            x1_values=linspace(-0.6, 0.6, 3),
            y0_values=linspace(-0.5, 0.5, 3),
        )
        assert report.n_probes == 9
        assert report.B0 < 20.0
        assert report.B1 < 20.0
        assert report.Bm is not None and report.Bm < 50.0
        assert report.sum_formula_gap <= 1e-2

    def test_degenerate_b_tags(self):
        report = distortion_report(
            lambda a, b: HenonMap(a, b),
            "s-",
            ab_values=[(-1.95, 0.0)],
            x1_values=[-0.3, 0.3],
            y0_values=[0.0],
        )
        assert report.Bm is None
        assert report.sum_formula_gap <= 1e-10

    @pytest.mark.parametrize("build,word,ab_values", [
        (HenonMap, ",".join(["s-"] * 8), [(-1.95, 1e-4)]),
        (HenonMap, ",".join(["s-"] * 24), [(-1.95, 1e-4)]),
        (HenonMap, "s-", [(-1.95, 1e-4), (-1.95, 0.0)]),
        (lambda a, b: HenonMap(a, b, 1, sine_perturbed_fields(0.02)[0]), "c1",
         [(-1.9, 2.4e-3), (-1.88, -5e-3)]),
        (lambda a, b: HenonMap(a, b, 2), "c1,bm0,bm0", [(-1.9, 0.05), (-1.88, -0.07)]),
    ], ids=["s-x8", "s-x24", "s-flat", "c1-sine", "m2"])
    def test_matches_finite_difference_oracle(self, build, word, ab_values):
        grids = (ab_values, linspace(-0.6, 0.6, 3), linspace(-0.5, 0.5, 3))
        got = distortion_report(build, word, *grids)
        ref = _reference_distortion_report(build, word, *grids)
        assert (got.B0, got.sum_formula_gap, got.n_probes) == (
            ref.B0, ref.sum_formula_gap, ref.n_probes
        )
        assert got.B1 == pytest.approx(ref.B1, rel=1e-6)
        if ref.Bm is None:
            assert got.Bm is None
        else:
            assert got.Bm == pytest.approx(ref.Bm, rel=1e-6)

    @pytest.mark.parametrize("grids", [
        ([], [0.0], [0.0]), ([(-1.95, 1e-4)], [], [0.0]), ([(-1.95, 1e-4)], [0.0], []),
    ], ids=["params", "x1", "y0"])
    def test_empty_grid_is_domain_error(self, grids):
        with pytest.raises(DomainError, match="nonempty"):
            distortion_report(HenonMap, "s-", *grids)

    def test_family_must_carry_its_parameters(self):
        with pytest.raises(DomainError, match="carries its own a and b"):
            distortion_report(lambda a, b: build_map("zero", a, b), "s-",
                              [(-1.95, 1e-4)], [0.0], [0.0])


def _reference_distortion_report(build, word, ab_values, x1_values, y0_values, h=1e-6):
    """The distortion bounds on central differences with step ``h``: B1
    from differenced log|dA/dx1| and log|dB/dy0|, Bm from differenced
    log|dB/dy0 / b^(m n)| over rebuilt maps."""
    B0 = B1 = gap = 0.0
    Bm = 0.0
    count = 0

    def chain_at(a, b):
        return factorize_chain(build(a, b), word)

    def log_abs_dA(ch, x1, y0):
        return math.log(abs(eval_cross_derivatives(ch, x1, y0).dA[0]))

    def log_abs_dB(ch, x1, y0):
        return math.log(abs(eval_cross_derivatives(ch, x1, y0).dB[1]))

    for a, b in ab_values:
        ch = chain_at(a, b)
        mn = ch.henon.m * ch.order
        for x1 in x1_values:
            for y0 in y0_values:
                d = eval_cross_derivatives(ch, x1, y0)
                count += 1
                B0 = max(B0, abs(d.A), abs(d.B), *map(abs, d.dA + d.dB))
                for fn in (log_abs_dA,) if b == 0.0 else (log_abs_dA, log_abs_dB):
                    gx = (fn(ch, x1 + h, y0) - fn(ch, x1 - h, y0)) / (2 * h)
                    gy = (fn(ch, x1, y0 + h) - fn(ch, x1, y0 - h)) / (2 * h)
                    B1 = max(B1, abs(gx), abs(gy))
                prod = 1.0
                for c in d.factor_dx:
                    prod *= abs(c)
                gap = max(gap, abs(abs(d.dA[0]) - prod) / abs(d.dA[0]))
                if b == 0.0:
                    Bm = None
                elif Bm is not None:
                    def scaled(aa, bb):
                        return log_abs_dB(chain_at(aa, bb), x1, y0) - mn * math.log(abs(bb))

                    ga = (scaled(a + h, b) - scaled(a - h, b)) / (2 * h)
                    gb = (scaled(a, b + h) - scaled(a, b - h)) / (2 * h)
                    Bm = max(Bm, abs(ga), abs(gb))
    return DistortionReport(B0, B1, Bm, gap, count)


# ---------------------------------------------------------------------------
# oracle: the per-factor solve through newton_safeguarded and the sweeps
# as they were before the factor polish was written inline, and the
# Gauss-Seidel gradient sweeps that the direct tangent solve replaced
# ---------------------------------------------------------------------------

def _reference_solve_factor(f, sign, x_next, y_here):
    v = f.bm * y_here
    radicand = x_next - f.a + v
    if radicand < 0.0:
        raise BranchError(f"negative radicand {radicand!r}")
    seed = sign * math.sqrt(radicand)

    def g(x):
        return x * x + f.a - v + f.zeta.value(x, v) - x_next

    def dg(x):
        return 2.0 * x + f.zeta.dx(x, v)

    return newton_safeguarded(g, seed, df=dg)


def _reference_eval_cross(chain, x1, y0, tol=1e-12, max_sweeps=200):
    f = chain.henon
    n = chain.order
    signs = chain.signs
    xs = [0.0] * (n + 1)
    xs[n] = x1
    ys = [y0] * (n + 1)
    prev_residual = math.inf
    increases = 0
    for sweep in range(1, max_sweeps + 1):
        change = 0.0
        for i in range(n - 1, -1, -1):
            xi_new = _reference_solve_factor(f, signs[i], xs[i + 1], ys[i])
            change = max(change, abs(xi_new - xs[i]))
            xs[i] = xi_new
        for i in range(1, n + 1):
            yi_new = xs[i - 1]
            change = max(change, abs(yi_new - ys[i]))
            ys[i] = yi_new
        if sweep > 1 and change <= tol:
            return CrossEval(xs[0], ys[n], tuple(xs), tuple(ys), sweep)
        if change >= prev_residual:
            increases += 1
            if increases >= 3:
                raise ConvergenceError("diverging")
        else:
            increases = 0
        prev_residual = change
    raise ConvergenceError("no convergence")


def _reference_eval_cross_derivatives(chain, x1, y0, tol=1e-12):
    base = _reference_eval_cross(chain, x1, y0, tol=tol)
    f = chain.henon
    n = chain.order
    xs, ys = base.x_path, base.y_path
    bm = f.bm
    cs = []
    ds = []
    for i in range(n):
        v = bm * ys[i]
        slope = 2.0 * xs[i] + f.zeta.dx(xs[i], v)
        cs.append(1.0 / slope)
        ds.append(bm * (1.0 - f.zeta.dv(xs[i], v)) / slope)
    dxs = [(0.0, 0.0)] * (n + 1)
    dxs[n] = (1.0, 0.0)
    dys = [(0.0, 0.0)] * (n + 1)
    dys[0] = (0.0, 1.0)

    def rel_gap(new, old):
        scale = max(abs(new), abs(old))
        return abs(new - old) / scale if scale else 0.0

    for _ in range(200):
        change = 0.0
        for i in range(n - 1, -1, -1):
            new = (
                cs[i] * dxs[i + 1][0] + ds[i] * dys[i][0],
                cs[i] * dxs[i + 1][1] + ds[i] * dys[i][1],
            )
            change = max(change, rel_gap(new[0], dxs[i][0]),
                         rel_gap(new[1], dxs[i][1]))
            dxs[i] = new
        for i in range(1, n + 1):
            change = max(change, rel_gap(dxs[i - 1][0], dys[i][0]),
                         rel_gap(dxs[i - 1][1], dys[i][1]))
            dys[i] = dxs[i - 1]
        if change <= tol:
            break
    else:
        raise ConvergenceError("gradient sweep did not converge")
    return CrossDerivs(
        base.A, base.B, dxs[0], dys[n], tuple(cs), tuple(ds), xs, ys
    )


def _outcome(fn, *args, **kwargs):
    """repr of the result (exact for floats, sign of zero included) or the
    class of the exception raised."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # a hooked field may raise on an infinite x
        return "raised", type(exc).__name__


def _assert_derivs_match(chain, x1, y0, rel=1e-13):
    """The direct tangent solve against the gradient sweeps: the same
    outcome, the same solved path and per-factor partials, and the four
    partials to ``rel`` relative (zeros compared by ==)."""
    try:
        ref = _reference_eval_cross_derivatives(chain, x1, y0)
    except Exception as exc:
        got = _outcome(eval_cross_derivatives, chain, x1, y0)
        assert got == ("raised", type(exc).__name__), (chain.henon, x1, y0)
        return
    got = eval_cross_derivatives(chain, x1, y0)
    assert (got.A, got.B, got.x_path, got.y_path) == (ref.A, ref.B, ref.x_path, ref.y_path)
    assert (got.factor_dx, got.factor_dy) == (ref.factor_dx, ref.factor_dy)
    for g, r in zip(got.dA + got.dB, ref.dA + ref.dB):
        if g == 0.0 or r == 0.0:
            assert g == r, (chain.henon, x1, y0)
        else:
            assert abs(g - r) <= rel * abs(r), (chain.henon, x1, y0, g, r)


ORACLE_WORDS = ["c0", "c1", "bm0", "c1,bm0,bm0"]
ORACLE_BS = [0.0, 2.4e-3, -5e-3, 1e-2]


def _oracle_probes(word, b, hooked, count=12):
    """Seeded (chain, x1, y0, max_sweeps) probes over the word's image,
    padded past both ends so that some probes leave the branch."""
    rng = random.Random(f"{word}|{b}|{hooked}")
    probes = []
    for _ in range(count):
        a = rng.uniform(-1.99, -1.83)
        if hooked:
            zeta = sine_perturbed_fields(rng.choice([0.005, 0.02]))[0]
            f = HenonMap(a, b, 1, zeta)
        else:
            f = HenonMap(a, b)
        chain = factorize_chain(f, word)
        lo, hi = chain.piece.image
        pad = 0.15 * (hi - lo)
        x1 = rng.uniform(lo - pad, hi + pad)
        y0 = rng.uniform(-1.0, 1.0)
        probes.append((chain, x1, y0, 200))
    chain = probes[0][0]
    probes.append((chain, probes[0][1], probes[0][2], 1))  # sweep cap
    probes.append((chain, math.nan, 0.3, 200))  # newton stalls
    probes.append((chain, math.inf, 0.3, 200))
    probes.append((chain, chain.piece.image[0] - 1.0, 0.3, 200))  # off the branch
    return probes


class TestInlineSolveOracle:
    @pytest.mark.parametrize("hooked", [False, True], ids=["standard", "hooked"])
    @pytest.mark.parametrize("b", ORACLE_BS)
    @pytest.mark.parametrize("word", ORACLE_WORDS)
    def test_bit_identical_to_newton_safeguarded(self, word, b, hooked):
        for chain, x1, y0, cap in _oracle_probes(word, b, hooked):
            got = _outcome(eval_cross, chain, x1, y0, max_sweeps=cap)
            ref = _outcome(_reference_eval_cross, chain, x1, y0, max_sweeps=cap)
            assert got == ref, (chain.henon, x1, y0, cap)
            if cap == 200:
                _assert_derivs_match(chain, x1, y0)

    def test_probe_set_reaches_every_outcome(self):
        outcomes = set()
        for word in ORACLE_WORDS:
            for b in ORACLE_BS:
                for hooked in (False, True):
                    for chain, x1, y0, cap in _oracle_probes(word, b, hooked):
                        kind, detail = _outcome(eval_cross, chain, x1, y0, max_sweeps=cap)
                        outcomes.add(kind if kind == "ok" else detail)
        assert {"ok", "BranchError", "ConvergenceError"} <= outcomes

    def test_zero_field_instance_matches_standard(self):
        # a Field2 of zeros that is not the shared ZERO_FIELD takes the
        # hooked path and must land on the same bits as the standard map
        chain_std = factorize_chain(HenonMap(-1.9, 2.4e-3), "c1")
        chain_hooked = factorize_chain(HenonMap(-1.9, 2.4e-3, 1, Field2()), "c1")
        for x1 in linspace(-0.9, 0.9, 7):
            std = eval_cross(chain_std, x1, 0.25)
            hooked = eval_cross(chain_hooked, x1, 0.25)
            assert (std.A, std.B, std.x_path, std.y_path, std.sweeps) == (
                hooked.A, hooked.B, hooked.x_path, hooked.y_path, hooked.sweeps
            )


_PARAM_STEP = 1e-6


def _differenced_parameter_columns(chain, x1, y0):
    """Central differences in a and in b^m = b (m = 1) of (A, B) and of the
    four phase partials, in the field order of ``CrossParamJet``."""
    f = chain.henon
    columns = []
    for da, db in ((_PARAM_STEP, 0.0), (0.0, _PARAM_STEP)):
        sides = []
        for sign in (1.0, -1.0):
            shifted = HenonMap(f.a + sign * da, f.b + sign * db, f.m, f.zeta)
            d = eval_cross_derivatives(factorize_chain(shifted, chain.piece), x1, y0)
            sides.append((d.A, d.B, d.dA[0], d.dB[0], d.dA[1], d.dB[1]))
        columns.append([(p - q) / (2.0 * _PARAM_STEP) for p, q in zip(*sides)])
    return columns


class TestParameterColumns:
    """The (a, b^m) columns of ``eval_cross_param_jet`` against central
    differences over the inline-solve probe set."""

    @pytest.mark.parametrize("hooked", [False, True], ids=["standard", "hooked"])
    @pytest.mark.parametrize("b", ORACLE_BS)
    @pytest.mark.parametrize("word", ORACLE_WORDS)
    def test_columns_match_central_differences(self, word, b, hooked):
        checked = 0
        for chain, x1, y0, cap in _oracle_probes(word, b, hooked):
            if cap != 200 or _outcome(eval_cross, chain, x1, y0)[0] != "ok":
                continue  # the probes that leave the branch or stall
            fd = _differenced_parameter_columns(chain, x1, y0)
            jet = eval_cross_param_jet(chain, x1, y0)
            plain = eval_cross_jet(chain, x1, y0)
            assert repr((jet.A, jet.B, jet.dA, jet.dB, jet.d2A, jet.d2B)) == repr(
                (plain.A, plain.B, plain.dA, plain.dB, plain.d2A, plain.d2B)
            )
            for k in range(2):
                got = (jet.dA_p[k], jet.dB_p[k], jet.d2A_xp[k], jet.d2B_xp[k],
                       jet.d2A_yp[k], jet.d2B_yp[k])
                for g, r in zip(got, fd[k]):
                    assert abs(g - r) <= 1e-6 * max(1.0, abs(g)), (chain.henon, x1, y0, k, g, r)
            checked += 1
        assert checked >= 10


class TestPickledMaps:
    """A map or chain sent to a pool worker keeps the unhooked solve."""

    def test_zero_field_unpickles_as_the_singleton(self):
        f = pickle.loads(pickle.dumps(HenonMap(-1.8, 1e-3)))
        assert f.zeta is ZERO_FIELD and f.xi is ZERO_FIELD
        assert f.normalized
        assert pickle.loads(pickle.dumps(Field2())) == Field2()

    @pytest.mark.parametrize("word", ["c1", "c1,bm0,bm0"])
    def test_eval_cross_bit_identical_after_pickling(self, word):
        f = HenonMap(-1.8665368062, -2.4431115e-3)
        chain = factorize_chain(f, word)
        copies = (factorize_chain(pickle.loads(pickle.dumps(f)), word),
                  pickle.loads(pickle.dumps(chain)))
        for x1 in linspace(-0.2, 0.2, 5):
            for y0 in linspace(-0.1, 0.1, 3):
                expected = repr(eval_cross(chain, x1, y0))
                for copy in copies:
                    assert copy.henon.zeta is ZERO_FIELD
                    assert repr(eval_cross(copy, x1, y0)) == expected
