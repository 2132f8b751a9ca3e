"""Acceptance gate: one numbered PASS/FAIL line per criterion.

Each test drives a full pipeline at pinned tolerances and prints a summary
line through the capture guard so the verdicts are visible in plain pytest
output. Budgeted criteria also assert their wall-clock limit.
"""

import math
import random
import time

import pytest
from scipy.optimize import brentq

from henonlab.atlas import render_csv, render_ppm, sweep
from henonlab.crossmap import (
    ConeSpec,
    det_identity,
    distortion_report,
    eval_cross,
    factorize_chain,
    hyperbolicity_check,
    shoot_oracle,
    slice_image,
)
from henonlab.embed import compare_summary
from henonlab.errors import NoCrossingError
from henonlab.henon import HenonMap
from henonlab.maps1d import (
    dalpha2_da,
    piece_1d,
    quad,
    special_parameters,
    swallow_boundary,
    swallow_classify,
)
from henonlab.renorm import (
    double_tangency,
    find_tangency,
    multi_renormalize,
    renorm_window,
    renormalize,
    twin_find,
)

SEED = 20260815
CYCLE_WORDS = ("c1", "c1,bm0,bm0")


def report(capsys, number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def standard(a, b):
    return HenonMap(a, b)


def alphabet_words(max_order, a=-1.95):
    tokens = ["w+", "w-", "w=", "w=3", "s+", "s-"]
    tokens += [f"c{k}" for k in range(1, 8)]
    tokens += [f"bm{j}" for j in range(8)] + [f"bp{j}" for j in range(8)]
    kept = []
    for tok in tokens:
        order = piece_1d(tok, a).order
        if 1 <= order <= max_order:
            kept.append(tok)
    return kept


def test_special_parameters_two_routes(capsys):
    t0 = time.perf_counter()
    a1, a2 = special_parameters()

    def orbit_gap(a, steps):
        x = 0.0
        for _ in range(steps):
            x = quad(a, x)
        return x - 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * a))

    a1_orbit = brentq(lambda a: orbit_gap(a, 3), -1.56, -1.52, xtol=1e-14)
    a2_orbit = brentq(lambda a: orbit_gap(a, 4), -1.90, -1.88, xtol=1e-14)
    gap = max(abs(a1 - a1_orbit), abs(a2 - a2_orbit))
    elapsed = time.perf_counter() - t0
    ok = (
        gap <= 1e-9
        and -1.56 <= a1 <= -1.52
        and -1.90 <= a2 <= -1.88
        and elapsed < 1.0
    )
    report(capsys, 1, ok,
           f"ladder vs orbit routes gap {gap:.2e} <= 1e-9 ({elapsed:.2f}s)")


def test_second_rung_slope_band(capsys):
    t0 = time.perf_counter()
    a1, a2 = special_parameters()
    slopes = [dalpha2_da(a) for a in linspace(a2, a1, 50)]
    elapsed = time.perf_counter() - t0
    ok = all(-0.55 <= s <= -0.28 for s in slopes) and elapsed < 1.0
    report(capsys, 2, ok,
           f"d(alpha2)/da in [{min(slopes):.4f}, {max(slopes):.4f}] "
           f"within [-0.55, -0.28] ({elapsed:.2f}s)")


def test_swallow_boundary_markers(capsys):
    # first curve: the composed critical value returns to its negative
    a, b = math.sqrt(2.0) - 1.0, -1.0
    r1 = abs((b * b + a) ** 2 + 2.0 * b)
    mult = 4.0 * b * (b * b + a)
    # third curve: saddle-node of the composition at X = 1/2
    X, (a3, b3) = 0.5, (0.25, 0.25)
    u = X * X + a3
    r3 = max(abs(u * u + b3 - X), abs(4.0 * X * u - 1.0))
    c1 = swallow_boundary("C1", (-1.0, -0.5), 11)
    c2 = swallow_boundary("C2", (-1.0, -0.5), 11)
    on_curve = max(abs(c1.points[0][0] - a), abs(c1.points[0][1] - b))
    swap = max(
        max(abs(p[0] - q[1]), abs(p[1] - q[0]))
        for p, q in zip(c1.points, c2.points)
    )
    # the sampled third curve: from its saddle-node end, each point parts a
    # bounded class (body or wing) from escape along a
    c3 = swallow_boundary("C3", (-0.5, b3), 6)
    c3_end = max(abs(c3.points[-1][0] - a3), abs(c3.points[-1][1] - b3))
    sides = [{swallow_classify(pa + da, pb).tag for da in (-1e-4, 1e-4)}
             for pa, pb in c3.points]
    parted = sum(len(tags) == 2 and "escape" in tags for tags in sides)
    ok = r1 <= 1e-10 and mult < -1.0 and r3 <= 1e-10 and on_curve <= 1e-10 \
        and swap == 0.0 and len(c3.points) == 6 and c3_end <= 1e-10 and parted == 6
    report(capsys, 3, ok,
           f"curve residuals ({r1:.1e}, {r3:.1e}) <= 1e-10, "
           f"mirror-curve swap gap {swap:.1e}, "
           f"C3 points parting bounded from escape {parted}/{len(c3.points)}")


def test_cross_map_against_shooting(capsys):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    words = alphabet_words(8)
    assert len(words) == 15
    f = HenonMap(-1.95, 3e-3)
    worst = 0.0
    for tok in words:
        chain = factorize_chain(f, tok)
        for _ in range(100):
            y0 = rng.uniform(-1.0, 1.0)
            lo, hi = slice_image(chain, y0)
            pad = 0.05 * (hi - lo)
            x1 = rng.uniform(lo + pad, hi - pad)
            ev = eval_cross(chain, x1, y0)
            sh = shoot_oracle(chain, x1, y0)
            worst = max(worst, abs(ev.A - sh.A), abs(ev.B - sh.B))
    ev0 = eval_cross(factorize_chain(HenonMap(-2.0, 0.0), "s-"), 0.0, 0.0)
    radical = abs(ev0.A + math.sqrt(2.0 - math.sqrt(2.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and radical <= 1e-10 and elapsed < 10.0
    report(capsys, 4, ok,
           f"chain vs shooting over {len(words)} words x100 probes: "
           f"worst {worst:.2e} <= 1e-9, closed radical {radical:.1e} "
           f"({elapsed:.2f}s)")


def test_determinant_identity_matrix(capsys):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    words = alphabet_words(12)
    assert len(words) == 21
    worst = 0.0
    for bval in (1e-2, -1e-2, 1e-4, -1e-4):
        f = HenonMap(-1.95, bval)
        for tok in words:
            chain = factorize_chain(f, tok)
            target = bval ** chain.order
            for _ in range(100):
                y0 = rng.uniform(-0.3, 0.3)
                lo, hi = slice_image(chain, y0)
                pad = 0.25 * (hi - lo)
                x1 = rng.uniform(lo + pad, hi - pad)
                ratio, _ = det_identity(chain, x1, y0)
                worst = max(worst, abs(ratio - target) / abs(target))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(capsys, 5, ok,
           f"dB/dA vs b^n over {len(words)} words, b in (+-1e-2, +-1e-4): "
           f"worst rel {worst:.2e} <= 1e-8 ({elapsed:.2f}s)")


def test_cone_contraction_grids(capsys):
    t0 = time.perf_counter()
    _, a2 = special_parameters()
    cone = ConeSpec(eta=0.5)
    margin = math.inf
    count = 0
    ok = True
    for aval in (-1.95, a2 + 0.01):
        for bval in (1e-3, -1e-3):
            f = HenonMap(aval, bval)
            for tok in ("s-", "s+", "c1", "c2", "c3", "c4", "c5", "c6"):
                chain = factorize_chain(f, tok)
                lo, hi = chain.piece.image
                pad = 0.05 * (hi - lo)
                rep = hyperbolicity_check(
                    chain, cone,
                    linspace(lo + pad, hi - pad, 33),
                    linspace(-1.0, 1.0, 33),
                )
                ok = ok and rep.ok
                margin = min(margin, rep.margin)
                count += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 6, ok,
           f"{count} pieces on 33x33 grids all contract, "
           f"min margin {margin:.3f} ({elapsed:.2f}s)")


def test_distortion_plateau(capsys):
    t0 = time.perf_counter()
    b1 = {}
    for n in (8, 24):
        rep = distortion_report(
            standard, ",".join(["s-"] * n),
            ab_values=[(-1.95, 1e-4)],
            x1_values=linspace(-0.6, 0.6, 3),
            y0_values=linspace(-0.5, 0.5, 3),
        )
        b1[n] = rep.B1
    ratio = b1[24] / b1[8]
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.5 and elapsed < 30.0
    report(capsys, 7, ok,
           f"log-slope bound B1(N=24)/B1(N=8) = {ratio:.4f} <= 1.5 "
           f"({elapsed:.2f}s)")


def _five_banded(a, transient=20000, blocks=300, spread=0.5):
    """Critical orbit settles into five cyclically visited bands."""
    x = 0.0
    for _ in range(transient):
        x = x * x + a
        if abs(x) > 10.0:
            return False
    lo = hi = x
    for _ in range(blocks):
        for _ in range(5):
            x = x * x + a
        lo = min(lo, x)
        hi = max(hi, x)
        if hi - lo > spread:
            return False
    return True


def test_window_against_direct_scan(capsys):
    t0 = time.perf_counter()
    win = renorm_window(lambda a: HenonMap(a, 0.0), "c1", -1.8646, -1.8580)
    abar_star = renormalize(HenonMap(win.a_star, 0.0), "c1").abar
    bbar = renormalize(HenonMap(win.a_star, 1e-3), "c1").bbar
    bbar_gap = abs(bbar - 1e-3) / 1e-3

    def edge(a_out, a_in):
        for _ in range(50):
            mid = 0.5 * (a_out + a_in)
            if _five_banded(mid):
                a_in = mid
            else:
                a_out = mid
        return 0.5 * (a_out + a_in)

    w = win.width
    lo_gap = abs(edge(win.lo - 0.5 * w, win.a_star) - win.lo) / w
    hi_gap = abs(edge(win.hi + 0.5 * w, win.a_star) - win.hi) / w
    elapsed = time.perf_counter() - t0
    ok = (
        lo_gap <= 0.1
        and hi_gap <= 0.1
        and abs(abar_star) <= 1e-9
        and bbar_gap <= 1e-12
        and elapsed < 60.0
    )
    report(capsys, 8, ok,
           f"edges vs banded-orbit scan ({lo_gap:.4f}, {hi_gap:.4f}) of width "
           f"<= 0.1, rescaled offset at center {abs(abar_star):.1e} <= 1e-9, "
           f"depth factor gap {bbar_gap:.1e} <= 1e-12 ({elapsed:.2f}s)")


def _gamma_gap(md):
    worst = 0.0
    n = md.count
    for i in range(n):
        lhs = md.gamma[i] ** 2
        rhs = md.gamma[(i + 1) % n] * md.sigma[(i + 1) % n]
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def test_scale_chain_and_composed_quartic(capsys):
    t0 = time.perf_counter()
    dt = double_tangency(standard, *CYCLE_WORDS,
                         (-1.86583301618128, 2.37610577353131e-3))
    f_dt = HenonMap(dt.a, dt.b)
    anchors = tuple(
        find_tangency(factorize_chain(f_dt, w)).c for w in CYCLE_WORDS
    )
    gamma_worst = _gamma_gap(
        multi_renormalize(f_dt, CYCLE_WORDS, anchor_seed=anchors)
    )

    # cycle tangency: Newton on both cross defects with warm anchors
    state = {"anchors": None}

    def eval_at(a, b):
        md = multi_renormalize(HenonMap(a, b), CYCLE_WORDS,
                               anchor_seed=state["anchors"])
        state["anchors"] = md.c
        return md

    x = [-1.8665368062, -2.44311150e-3]
    md = eval_at(*x)
    for _ in range(12):
        g = md.abar
        if max(abs(g[0]), abs(g[1])) <= 1e-11:
            break
        h = 1e-9
        mda = eval_at(x[0] + h, x[1])
        mdb = eval_at(x[0], x[1] + h)
        j = ((mda.abar[0] - g[0]) / h, (mdb.abar[0] - g[0]) / h,
             (mda.abar[1] - g[1]) / h, (mdb.abar[1] - g[1]) / h)
        det = j[0] * j[3] - j[1] * j[2]
        x[0] -= (j[3] * g[0] - j[1] * g[1]) / det
        x[1] -= (j[0] * g[1] - j[2] * g[0]) / det
        md = eval_at(*x)
    defect = max(abs(md.abar[0]), abs(md.abar[1]))
    gamma_worst = max(gamma_worst, _gamma_gap(md))

    eps = 0.05
    sup_x = sup_y = 0.0
    for X in linspace(-1.5, 1.5, 61):
        for Y in linspace(-1.5, 1.5, 13):
            X1, Y1 = md.transition(0, X, Y / eps)
            X2, Y2 = md.transition(1, X1, Y1)
            model = (X * X + md.abar[0]) ** 2 + md.abar[1]
            sup_x = max(sup_x, abs(X2 - model))
            sup_y = max(sup_y, abs(eps * Y2))
    elapsed = time.perf_counter() - t0
    ok = gamma_worst <= 1e-12 and defect <= 1e-9 and sup_x <= 0.2 \
        and sup_y <= 0.2
    report(capsys, 9, ok,
           f"scale-chain identity gap {gamma_worst:.1e} <= 1e-12; composed "
           f"return vs quartic sup ({sup_x:.3f}, {sup_y:.3f}) <= 0.2 "
           f"({elapsed:.2f}s)")


def test_twin_attractors(capsys):
    t0 = time.perf_counter()
    search_grid = ((1, 0, 1e-2), (1, 0, -1e-2), (2, 0, 1e-2))
    tw = used = None
    for k, j, b_hat in search_grid:
        try:
            tw = twin_find(standard, k=k, j=j, b_hat=b_hat)
            used = (k, j, b_hat)
            break
        except NoCrossingError:
            continue
    assert tw is not None, f"no crossing for any of {search_grid}"
    f0 = HenonMap(tw.a_at_b0, tw.b0)
    defect = max(
        abs(find_tangency(factorize_chain(f0, tw.word_minus)).mu),
        abs(find_tangency(factorize_chain(f0, tw.word_plus)).mu),
    )
    n_minus = factorize_chain(f0, tw.word_minus).order
    n_plus = factorize_chain(f0, tw.word_plus).order
    radii = [c.spectral_radius for c in tw.report.cycles]
    elapsed = time.perf_counter() - t0
    ok = (
        defect <= 1e-9
        and all(-0.1 <= v <= 0.1 for v in tw.curve_abar_minus)
        and len(tw.report.cycles) == 2
        and tw.periods == tuple(sorted((n_minus + 1, n_plus + 1)))
        and all(r < 1.0 for r in radii)
        and elapsed <= 300.0
    )
    report(capsys, 10, ok,
           f"config (k, j, b_hat) = {used} of grid {search_grid}: crossing "
           f"defects {defect:.1e} <= 1e-9, two attracting cycles of periods "
           f"{tw.periods}, radii {max(radii):.3f} < 1 ({elapsed:.1f}s)")


def test_swallow_embedding_agreement(capsys):
    t0 = time.perf_counter()
    raster = sweep("embed-compare", 101, 101)
    summary = compare_summary(raster)
    elapsed = time.perf_counter() - t0
    ok = summary["agreement"] >= 0.75 and elapsed <= 600.0
    report(capsys, 11, ok,
           f"predicted vs direct on 101x101: agreement "
           f"{summary['agreement']:.4f} >= 0.75 of {summary['classified']} "
           f"classified ({elapsed:.1f}s)")


def test_raster_figures(capsys):
    t0 = time.perf_counter()
    pixel_grid = sweep("henon-lyap", 3, 3, a_range=(-0.3, 0.3),
                       b_range=(-0.2, 0.4), params={"n": 10_000})
    pixel = float(pixel_grid.values[1][1])
    serial = sweep("swallow-escape", 400, 400, workers=1)
    twin_run = sweep("swallow-escape", 400, 400, workers=2)
    identical = (
        serial == twin_run
        and render_ppm(serial) == render_ppm(twin_run)
        and render_csv(serial) == render_csv(twin_run)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(pixel + 1.15129) <= 1e-3
        and identical
        and serial.tag_set() >= {"escape", "wing", "body"}
        and elapsed <= 180.0
    )
    report(capsys, 12, ok,
           f"exponent pixel {pixel:.5f} within 1e-3 of -1.15129; 400x400 "
           f"raster carries all three classes and is byte-identical across "
           f"worker counts ({elapsed:.1f}s)")
