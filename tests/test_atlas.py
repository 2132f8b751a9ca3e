"""Raster kernels, worker determinism, and emission round-trips."""

import hashlib
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from henonlab import atlas, crossmap, embed, renorm
from henonlab.atlas import (
    COLORMAPS,
    KERNELS,
    TAG_AGREE,
    TAG_BODY,
    TAG_BOUNDED,
    TAG_DISAGREE,
    TAG_ERROR,
    TAG_ESCAPE,
    TAG_LYAP,
    TAG_NAMES,
    TAG_WING,
    Raster,
    emit,
    render_csv,
    render_ppm,
    sweep,
)
from henonlab.cli import run
from henonlab.embed import compare_summary
from henonlab.errors import DomainError, HenonLabError
from henonlab.henon import MAP_NAMES, HenonMap, build_map
from henonlab.maps1d import swallow_classify
from henonlab.renorm import multi_renormalize, renormalize
from henonlab.rootfind import newton2
from oracles import (
    embed_direct_left,
    embed_predicted_left,
    lyapunov,
    orbit_escape,
    parse_csv,
    read_csv,
)


def make_raster(tags, values, kernel="henon-lyap", a_range=(0.0, 1.0), b_range=(0.0, 1.0)):
    tags = np.asarray(tags, dtype=np.uint8)
    values = np.asarray(values, dtype=np.float64)
    height, width = tags.shape
    return Raster(width, height, a_range, b_range, kernel, tags, values)


# ---------------------------------------------------------------------------
# slow-path oracles: the orbit kernels one row per numpy step, as they ran
# before the block loop, and the scalar colour functions
# ---------------------------------------------------------------------------

def _composed_escape_row(first, second, width, n_max, r_esc):
    x = np.zeros(width)
    steps = np.zeros(width, dtype=np.int64)
    alive = np.ones(width, dtype=bool)
    for step in range(1, n_max + 1):
        if not alive.any():
            break
        for offset in (first, second):
            x = np.where(alive, x * x + offset, x)
            escaped = alive & (np.abs(x) > r_esc)
            steps[escaped] = step
            alive &= ~escaped
    return steps, alive


def _row_swallow_escape(a, b, params):
    n_max = int(params.get("steps", 2000))
    r_esc = float(params.get("radius", 10.0))
    width = a.size
    steps_ab, alive_ab = _composed_escape_row(a, b, width, n_max, r_esc)
    steps_ba, alive_ba = _composed_escape_row(b, a, width, n_max, r_esc)
    tags = np.full(width, TAG_ESCAPE, dtype=np.uint8)
    tags[alive_ab & alive_ba] = TAG_BODY
    tags[alive_ab ^ alive_ba] = TAG_WING
    values = np.zeros(width)
    both = ~alive_ab & ~alive_ba
    values[both] = np.minimum(steps_ab, steps_ba)[both]
    values[alive_ab & ~alive_ba] = steps_ba[alive_ab & ~alive_ba]
    values[~alive_ab & alive_ba] = steps_ab[~alive_ab & alive_ba]
    return tags, values


def _composed_exponent_row(first, second, x0, width, n_steps, r_esc):
    x = np.full(width, float(x0))
    total = np.zeros(width)
    steps = np.zeros(width, dtype=np.int64)
    alive = np.ones(width, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(1, n_steps + 1):
            if not alive.any():
                break
            for offset in (first, second):
                total = np.where(alive, total + np.log(2.0 * np.abs(x)), total)
                x = np.where(alive, x * x + offset, x)
                escaped = alive & (np.abs(x) > r_esc)
                steps[escaped] = step
                alive &= ~escaped
    return total / n_steps, steps, alive


def _row_swallow_lyap(a, b, params):
    n_steps = int(params.get("n", 10_000))
    r_esc = float(params.get("radius", 10.0))
    width = a.size
    exp_ab, steps_ab, alive_ab = _composed_exponent_row(a, b, b, width, n_steps, r_esc)
    exp_ba, steps_ba, alive_ba = _composed_exponent_row(b, a, b, width, n_steps, r_esc)
    tags = np.full(width, TAG_LYAP, dtype=np.uint8)
    values = np.zeros(width)
    both_gone = ~alive_ab & ~alive_ba
    tags[both_gone] = TAG_ESCAPE
    values[both_gone] = np.minimum(steps_ab, steps_ba)[both_gone]
    only_ab = alive_ab & ~alive_ba
    values[only_ab] = exp_ab[only_ab]
    only_ba = alive_ba & ~alive_ab
    values[only_ba] = exp_ba[only_ba]
    both = alive_ab & alive_ba
    values[both] = 0.5 * (exp_ab[both] + exp_ba[both])
    return tags, values


def _henon_config(params):
    name = str(params.get("map", "standard"))
    assert name in MAP_NAMES
    extra = {"delta": float(params["delta"])} if "delta" in params else {}
    return name, int(params.get("m", 1)), extra


def _henon_vector_offsets(name, a, b, m):
    if name == "standard":
        return a, b ** m
    if name == "zero":
        return a, 0.0
    return None


def _row_henon_escape(a, b, params):
    n_max = int(params.get("steps", 2000))
    r_esc = float(params.get("radius", 10.0))
    name, m, extra = _henon_config(params)
    width = a.size
    tags = np.zeros(width, dtype=np.uint8)
    values = np.zeros(width)
    plain = _henon_vector_offsets(name, a, b, m)
    if plain is not None:
        a_vec, bm = plain
        x = np.zeros(width)
        y = np.zeros(width)
        alive = np.ones(width, dtype=bool)
        for step in range(1, n_max + 1):
            if not alive.any():
                break
            x_new = x * x + a_vec - bm * y
            y = np.where(alive, x, y)
            x = np.where(alive, x_new, x)
            escaped = alive & (np.maximum(np.abs(x), np.abs(y)) > r_esc)
            tags[escaped] = TAG_ESCAPE
            values[escaped] = step
            alive &= ~escaped
        return tags, values
    for j in range(width):
        f = build_map(name, float(a[j]), b, m, **extra)
        _, escaped, step = orbit_escape(f, (0.0, 0.0), n_max, r_esc)
        if escaped:
            tags[j] = TAG_ESCAPE
            values[j] = step
    return tags, values


def _row_henon_lyap(a, b, params):
    n_steps = int(params.get("n", 10_000))
    r_esc = float(params.get("radius", 10.0))
    name, m, extra = _henon_config(params)
    width = a.size
    tags = np.full(width, TAG_LYAP, dtype=np.uint8)
    values = np.zeros(width)
    plain = _henon_vector_offsets(name, a, b, m)
    if plain is not None:
        a_vec, bm = plain
        x = np.zeros(width)
        y = np.zeros(width)
        vx = np.zeros(width)
        vy = np.ones(width)
        total = np.zeros(width)
        alive = np.ones(width, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                if not alive.any():
                    break
                wx = 2.0 * x * vx - bm * vy
                wy = vx
                growth = np.hypot(wx, wy)
                dead = alive & (growth == 0.0)
                tags[dead] = TAG_ERROR
                alive &= ~dead
                safe = np.where(growth == 0.0, 1.0, growth)
                total = np.where(alive, total + np.log(safe), total)
                vx = np.where(alive, wx / safe, vx)
                vy = np.where(alive, wy / safe, vy)
                x_new = x * x + a_vec - bm * y
                y = np.where(alive, x, y)
                x = np.where(alive, x_new, x)
                escaped = alive & (np.maximum(np.abs(x), np.abs(y)) > r_esc)
                tags[escaped] = TAG_ESCAPE
                values[escaped] = step
                alive &= ~escaped
        values[alive] = total[alive] / n_steps
        return tags, values
    for j in range(width):
        f = build_map(name, float(a[j]), b, m, **extra)
        out = lyapunov(f, (0.0, 0.0), (0.0, 1.0), n_steps, r_esc)
        if out.tag == "value":
            values[j] = out.value
        elif out.tag == "escape":
            tags[j], values[j] = TAG_ESCAPE, out.step
        else:
            tags[j] = TAG_ERROR
    return tags, values


ROW_ORACLES = {
    "swallow-escape": _row_swallow_escape,
    "swallow-lyap": _row_swallow_lyap,
    "henon-escape": _row_henon_escape,
    "henon-lyap": _row_henon_lyap,
}


def _embed_direct_bounded(md, x, m, n_composed, r_esc):
    """The tracked map's orbit of the chart origin, one standard-map step at
    a time; True when it stays inside the renormalization domain."""
    period = md.chains[0].order + md.chains[1].order + 2
    a, b = x
    bm = b ** m
    c0 = md.c[0]
    g0 = md.gamma[0]
    px, py = md.chart(0, 0.0, 0.0)
    for _ in range(n_composed):
        for _ in range(period):
            px, py = px * px + a - bm * py, px
        if not abs(px) < 1e100:
            return False
        if abs((px - c0) / g0) > r_esc:
            return False
    return True


def _frozen_embed_jacobian(x, anchors, base, words, m):
    """Finite-difference 2x2 Jacobian of the rescaled-parameter pair, and the
    anchors of its last evaluation."""
    h = 1e-9
    md_a = embed._embed_eval((x[0] + h, x[1]), anchors, words, m)
    md_b = embed._embed_eval((x[0], x[1] + h), md_a.c, words, m)
    return (
        (md_a.abar[0] - base[0]) / h,
        (md_b.abar[0] - base[0]) / h,
        (md_a.abar[1] - base[1]) / h,
        (md_b.abar[1] - base[1]) / h,
    ), md_b.c


def _frozen_embed_solve(target, x, anchors, J, cfg, max_iter=12):
    """The tracking the secant model replaced: damped Newton with a frozen
    difference Jacobian, taken where none is given and again at attempts 5
    and 9, each evaluation starting from the anchors of the last one.
    Returns (ok, x, anchors, J, md)."""
    words, m, tol = cfg["words"], cfg["m"], cfg["tol"]
    md = None
    try:
        for attempt in range(max_iter):
            md = embed._embed_eval(x, anchors, words, m)
            anchors = md.c
            g = (md.abar[0] - target[0], md.abar[1] - target[1])
            if max(abs(g[0]), abs(g[1])) <= tol:
                return True, x, anchors, J, md
            if J is None or attempt in (5, 9):
                J, anchors = _frozen_embed_jacobian(x, anchors, md.abar, words, m)
            det = J[0] * J[3] - J[1] * J[2]
            if det == 0.0:
                return False, x, anchors, J, md
            dx = (J[3] * g[0] - J[1] * g[1]) / det
            dy = (J[0] * g[1] - J[2] * g[0]) / det
            size = math.hypot(dx, dy)
            if size > embed._EMBED_STEP_CAP:
                scale = embed._EMBED_STEP_CAP / size
                dx *= scale
                dy *= scale
            x = (x[0] - dx, x[1] - dy)
    except HenonLabError:
        pass
    return False, x, anchors, J, md


def _frozen_row_states(a_targets, b_targets, cfg):
    """The frozen-Jacobian walk down the left edge, which keeps its Jacobian
    through a failed track."""
    x, anchors, J = cfg["seed"], None, None
    states = []
    for i in range(b_targets.size):
        target = (float(a_targets[0]), float(b_targets[i]))
        ok, x_new, anchors_new, J, _ = _frozen_embed_solve(target, x, anchors, J, cfg,
                                                           max_iter=40)
        if ok:
            x, anchors = x_new, anchors_new
        states.append((x, anchors, J))
    return states


def _frozen_walk(targets, x, anchors, J, cfg):
    """The frozen-Jacobian walk along a row, yielding like ``embed._embed_walk``.
    Every track starts with a fresh renormalization at its starting point, and
    a failed track drops the Jacobian."""
    for target in targets:
        ok, x_new, anchors_new, J, md = _frozen_embed_solve(target, x, anchors, J, cfg)
        if ok:
            x, anchors = x_new, anchors_new
        else:
            J = md = None
        yield x, anchors, J, md


def _row_embed_compare(walk, cfg):
    """One embed-compare row pixel by pixel: the tracks of ``walk``, then the
    scalar swallow classifier and the scalar direct orbit of each target."""
    tags, values = [], []
    n_composed, r_esc, m = cfg["steps"], cfg["radius"], cfg["m"]
    for target, (x, _, _, md) in walk:
        if md is None:
            tags.append(TAG_ERROR)
            values.append(0.0)
            continue
        predicted = swallow_classify(target[0], target[1], n_composed, r_esc)
        predicted_bounded = predicted.steps_ab is None
        direct_bounded = _embed_direct_bounded(md, x, m, n_composed, r_esc)
        agree = predicted_bounded == direct_bounded
        tags.append(TAG_AGREE if agree else TAG_DISAGREE)
        values.append(1.0 if agree else 0.0)
    return np.array(tags, dtype=np.uint8), np.array(values)


_ERROR_RGB = (255, 0, 255)


def _ramp_channel(value):
    return 80 + int(round(175.0 * min(1.0, abs(value))))


def _oracle_escape(tag, value):
    if tag == TAG_ESCAPE:
        return (255, 255, 0)
    if tag == TAG_BOUNDED:
        return (0, 0, 0)
    return _ERROR_RGB


def _oracle_lyap(tag, value):
    if tag == TAG_ESCAPE:
        return (255, 255, 0)
    if tag == TAG_LYAP:
        if value < -0.01:
            return (_ramp_channel(value), 0, 0)
        if value > 0.01:
            return (0, 0, _ramp_channel(value))
        return (0, 0, 0)
    return _ERROR_RGB


def _oracle_class(tag, value):
    if tag == TAG_ESCAPE:
        return (255, 255, 0)
    if tag == TAG_WING:
        return (128, 128, 128)
    if tag in (TAG_BODY, TAG_BOUNDED):
        return (0, 0, 0)
    return _ERROR_RGB


def _oracle_compare(tag, value):
    if tag == TAG_AGREE:
        return (255, 255, 255)
    if tag == TAG_DISAGREE:
        return (255, 0, 0)
    return _ERROR_RGB


COLOR_ORACLES = {
    "escape": _oracle_escape,
    "lyap": _oracle_lyap,
    "class": _oracle_class,
    "compare": _oracle_compare,
}

# ramp inputs where 175|v| is exactly k + 1/2, so rounding half to even matters
HALF_WAY = [v for k in range(2, 175) if 175.0 * (v := (k + 0.5) / 175.0) == k + 0.5]
PALETTE_VALUES = [0.0, -0.0, 0.005, -0.005, 0.01, -0.01,
                  math.nextafter(0.01, 1.0), math.nextafter(-0.01, -1.0),
                  0.5, -0.5, 0.999, 1.0, -1.0, 1.5, -7.0,
                  math.inf, -math.inf, math.nan,
                  *HALF_WAY, *(-v for v in HALF_WAY)]


class TestGeometry:
    def test_row_zero_holds_largest_b(self):
        r = sweep("swallow-escape", 4, 3, a_range=(-1.0, 1.0), b_range=(-2.0, 1.0),
                  params={"steps": 5})
        a_c, b_c = r.a_centers(), r.b_centers()
        assert b_c[0] == pytest.approx(0.5)
        assert b_c[2] == pytest.approx(-1.5)
        assert a_c[0] == pytest.approx(-0.75)
        assert a_c[3] == pytest.approx(0.75)
        assert list(b_c) == sorted(b_c, reverse=True)

    def test_csv_prints_the_evaluated_centers(self):
        r = sweep("swallow-escape", 21, 3, a_range=(-2.1, 0.4), b_range=(-2.1, 0.4),
                  params={"steps": 5})
        a_c, b_c = r.a_centers().tolist(), r.b_centers().tolist()
        rows = render_csv(r).splitlines()[3:]
        for k, line in enumerate(rows):
            i, j = divmod(k, 21)
            a, b = (float(v) for v in line.split(",")[:2])
            assert (a, b) == (a_c[j], b_c[i])

    @pytest.mark.parametrize("key, value", [
        ("steps", -5), ("steps", 0), ("n", 0),
        ("steps", math.nan), ("steps", "x"), ("n", math.inf), ("m", math.nan),
        ("radius", "x"), ("radius", math.nan),
        ("steps", 2.5), ("m", 1.9), ("tol", "x"), ("delta", "x"),
    ])
    def test_nonpositive_iteration_counts_rejected(self, monkeypatch, key, value):
        # the kernels that read the key, and what else the case sets
        kernels, others = {
            "tol": (("embed-compare",), {}),
            "delta": (("henon-lyap",), {"map": "sine-perturbed"}),
            "m": (("swallow-escape", "henon-lyap"), {"n": 3}),
        }.get(key, (("swallow-escape", "henon-lyap"), {}))
        # prepare rejects the value in the calling process: no block runs
        monkeypatch.setattr(atlas, "_block_payload", None)
        for kernel in kernels:
            with pytest.raises(DomainError):
                sweep(kernel, 2, 2, params={key: value, **others}, workers=1)

    def test_integral_float_counts_accepted(self):
        as_ints = sweep("henon-lyap", 2, 2, params={"n": 300, "m": 1}, workers=1)
        assert sweep("henon-lyap", 2, 2, params={"n": 300.0, "m": 1.0}, workers=1) == as_ints

    @pytest.mark.parametrize("kernel", ["henon-escape", "henon-lyap", "renorm-strip",
                                        "embed-compare"])
    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_multiplicity_rejected(self, kernel, m):
        with pytest.raises(DomainError, match="m must be at least 1"):
            sweep(kernel, 2, 2, b_range=(-1.0, 1.0), params={"m": m}, workers=1)

    def test_grid_too_small_rejected(self):
        with pytest.raises(DomainError):
            sweep("swallow-escape", 1, 8)
        with pytest.raises(DomainError):
            sweep("swallow-escape", 8, 1)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(DomainError):
            sweep("no-such-kernel", 4, 4)

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            sweep("swallow-escape", 4, 4, a_range=(1.0, -1.0))

    def test_unknown_map_rejected(self):
        with pytest.raises(DomainError):
            sweep("henon-escape", 2, 2, params={"map": "no-such-map"})
        # every orbit kernel checks a map name it is given
        with pytest.raises(DomainError, match="unknown map 'no-such-map'"):
            sweep("swallow-escape", 2, 2, params={"map": "no-such-map"})


class TestCoefficientOverflow:
    # row centres 2.75, 2.25, 1.75 overflow b^2000; 1.25^2000 ~ 1e194 and
    # the underflowing 0.75 and 0.25 are computed as usual, with the same
    # bits as the raster over (0, 1.5) whose three rows have these centres
    B_RANGE = (0.0, 3.0)

    @pytest.mark.parametrize("kernel, params", [
        ("henon-escape", {"steps": 50}),
        ("henon-lyap", {"n": 50}),
        ("henon-escape", {"steps": 50, "map": "sine-perturbed"}),
        ("henon-lyap", {"n": 50, "map": "sine-perturbed"}),
        ("renorm-strip", {}),
    ], ids=["escape", "lyap", "escape-hooked", "lyap-hooked", "renorm-strip"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_rows_are_error(self, kernel, params, workers):
        a_range = (-1.87, -1.85) if kernel == "renorm-strip" else (-1.5, 0.2)
        params = {**params, "m": 2000}
        r = sweep(kernel, 3, 6, a_range=a_range, b_range=self.B_RANGE,
                  params=params, workers=workers)
        assert list(r.b_centers()) == [2.75, 2.25, 1.75, 1.25, 0.75, 0.25]
        assert np.all(r.tags[:3] == TAG_ERROR)
        assert np.all(r.values[:3] == 0.0)
        low = sweep(kernel, 3, 3, a_range=a_range, b_range=(0.0, 1.5),
                    params=params, workers=1)
        assert r.tags[3:].tobytes() == low.tags.tobytes()
        assert r.values[3:].tobytes() == low.values.tobytes()

    def test_zero_map_never_overflows(self):
        r = sweep("henon-escape", 3, 6, b_range=self.B_RANGE,
                  params={"steps": 50, "map": "zero", "m": 2000}, workers=1)
        flat = sweep("henon-escape", 3, 6, b_range=self.B_RANGE,
                     params={"steps": 50, "map": "zero", "m": 1}, workers=1)
        assert r.tags.tobytes() == flat.tags.tobytes()
        assert r.values.tobytes() == flat.values.tobytes()


class TestSwallowKernels:
    def test_classification_matches_scalar(self):
        r = sweep("swallow-escape", 6, 5, params={"steps": 300})
        a_c, b_c = r.a_centers().tolist(), r.b_centers().tolist()
        for i in range(r.height):
            for j in range(r.width):
                a, b = a_c[j], b_c[i]
                cls = swallow_classify(a, b, n_max=300)
                expected = {"escape": TAG_ESCAPE, "wing": TAG_WING, "body": TAG_BODY}
                assert r.tags[i, j] == expected[cls.tag]
                if cls.tag == "escape":
                    assert r.values[i, j] == min(cls.steps_ab, cls.steps_ba)
                elif cls.tag == "wing":
                    escaped = cls.steps_ab if cls.steps_ab is not None else cls.steps_ba
                    assert r.values[i, j] == escaped
                else:
                    assert r.values[i, j] == 0.0

    def test_origin_pixel_is_body(self):
        r = sweep("swallow-escape", 3, 3, a_range=(-1.5, 1.5), b_range=(-1.5, 1.5))
        assert (r.a_centers()[1], r.b_centers()[1]) == (0.0, 0.0)
        assert r.tags[1, 1] == TAG_BODY

    def test_exponent_matches_scalar_mirror(self):
        n = 400
        r = sweep("swallow-lyap", 4, 4, a_range=(-2.0, 0.4), b_range=(-2.0, 0.4),
                  params={"n": n})

        def one_composition(first, second, x0):
            x, total = x0, 0.0
            for step in range(1, n + 1):
                for offset in (first, second):
                    total += math.log(2.0 * abs(x))
                    x = x * x + offset
                    if abs(x) > 10.0:
                        return None, step
            return total / n, None

        a_c, b_c = r.a_centers().tolist(), r.b_centers().tolist()
        for i in range(r.height):
            for j in range(r.width):
                a, b = a_c[j], b_c[i]
                exp_ab, step_ab = one_composition(a, b, b)
                exp_ba, step_ba = one_composition(b, a, b)
                if exp_ab is None and exp_ba is None:
                    assert r.tags[i, j] == TAG_ESCAPE
                    assert r.values[i, j] == min(step_ab, step_ba)
                else:
                    assert r.tags[i, j] == TAG_LYAP
                    survivors = [e for e in (exp_ab, exp_ba) if e is not None]
                    assert r.values[i, j] == pytest.approx(
                        sum(survivors) / len(survivors), rel=1e-12
                    )

    def test_superstable_pixel_reports_negative_infinity(self):
        # the critical orbit of the doubly-composed map at the origin is a
        # fixed point with zero derivative, so the exponent diverges down
        r = sweep("swallow-lyap", 3, 3, a_range=(-1.5, 1.5), b_range=(-1.5, 1.5),
                  params={"n": 50})
        assert (r.a_centers()[1], r.b_centers()[1]) == (0.0, 0.0)
        assert r.tags[1, 1] == TAG_LYAP
        assert r.values[1, 1] == -math.inf


class TestHenonKernels:
    def test_exponent_pixel_matches_scalar(self):
        r = sweep("henon-lyap", 5, 2, a_range=(-2.5, 2.5), b_range=(0.0, 0.4))
        assert (r.a_centers()[2], r.b_centers()[1]) == (0.0, pytest.approx(0.1))
        scalar = lyapunov(HenonMap(0.0, 0.1), (0.0, 0.0), (0.0, 1.0), 10_000)
        assert r.tags[1, 2] == TAG_LYAP
        assert r.values[1, 2] == pytest.approx(scalar.value, rel=5e-12)
        assert r.values[1, 2] == pytest.approx(-1.15129, abs=1e-3)

    def test_escape_pixels_match_scalar(self):
        r = sweep("henon-escape", 5, 4, params={"steps": 200})
        a_c, b_c = r.a_centers().tolist(), r.b_centers().tolist()
        for i in range(r.height):
            for j in range(r.width):
                a, b = a_c[j], b_c[i]
                _, escaped, step = orbit_escape(HenonMap(a, b), (0.0, 0.0), 200)
                if escaped:
                    assert r.tags[i, j] == TAG_ESCAPE
                    assert r.values[i, j] == step
                else:
                    assert r.tags[i, j] == TAG_BOUNDED
                    assert r.values[i, j] == 0.0

    def test_hooked_map_matches_scalar(self):
        params = {"map": "sine-perturbed", "delta": 0.02, "n": 500}
        r = sweep("henon-lyap", 3, 2, a_range=(-1.0, 1.0), b_range=(0.05, 0.25),
                  params=params)
        seen = set()
        a_c, b_c = r.a_centers().tolist(), r.b_centers().tolist()
        for i in range(r.height):
            for j in range(r.width):
                a, b = a_c[j], b_c[i]
                f = build_map("sine-perturbed", a, b, delta=0.02)
                scalar = lyapunov(f, (0.0, 0.0), (0.0, 1.0), 500)
                seen.add(scalar.tag)
                if scalar.tag == "value":
                    assert r.tags[i, j] == TAG_LYAP
                    assert r.values[i, j] == scalar.value
                else:
                    assert scalar.tag == "escape"
                    assert r.tags[i, j] == TAG_ESCAPE
                    assert r.values[i, j] == scalar.step
        assert seen == {"value", "escape"}

    def test_zero_family_collapses_to_one_dimension(self):
        r1 = sweep("henon-escape", 4, 2, b_range=(0.1, 0.3), params={"map": "zero", "steps": 100})
        r2 = sweep("henon-escape", 4, 2, b_range=(0.5, 0.7), params={"map": "zero", "steps": 100})
        assert np.array_equal(r1.tags, r2.tags)
        assert np.array_equal(r1.values, r2.values)


HENON_WINDOW = ((-2.2, 0.6), (-0.6, 0.6))
# |a| > 10 on part of the window: those orbits leave at step 1
STEP_ONE_WINDOW = ((-20.0, 3.0), (-15.0, 2.0))

ORACLE_CASES = [
    pytest.param("swallow-escape", (-2.2, 0.6), (-2.2, 0.6), {"steps": 300}, id="swallow-escape"),
    pytest.param("swallow-escape", *STEP_ONE_WINDOW, {"steps": 300}, id="swallow-escape-step-one"),
    pytest.param("swallow-escape", *STEP_ONE_WINDOW, {"steps": 300, "radius": 0.7},
                 id="swallow-escape-small-radius"),
    pytest.param("swallow-lyap", (-2.2, 0.6), (-2.2, 0.6), {"n": 300}, id="swallow-lyap"),
    pytest.param("swallow-lyap", *STEP_ONE_WINDOW, {"n": 300}, id="swallow-lyap-step-one"),
    pytest.param("henon-escape", *HENON_WINDOW, {"steps": 300}, id="henon-escape-m1"),
    pytest.param("henon-escape", (-2.2, 0.6), (0.1, 1.3), {"steps": 300, "m": 2}, id="henon-escape-m2"),
    pytest.param("henon-escape", (-2.2, 0.6), (0.1, 1.3), {"steps": 300, "m": 3}, id="henon-escape-m3"),
    pytest.param("henon-escape", (-15.0, 2.0), (-0.6, 0.6), {"steps": 300}, id="henon-escape-step-one"),
    pytest.param("henon-escape", *HENON_WINDOW, {"steps": 300, "map": "zero"}, id="henon-escape-zero"),
    pytest.param("henon-escape", *HENON_WINDOW, {"steps": 300, "map": "sine-perturbed", "delta": 0.02},
                 id="henon-escape-sine-perturbed"),
    # some orbits here leave on |y| > r while |x| <= r, which a map without hooks cannot do
    pytest.param("henon-escape", *HENON_WINDOW,
                 {"steps": 300, "map": "sine-perturbed", "delta": 0.1, "radius": 1.0},
                 id="henon-escape-sine-small-radius"),
    pytest.param("henon-lyap", *HENON_WINDOW, {"n": 300}, id="henon-lyap-m1"),
    pytest.param("henon-lyap", (-2.2, 0.6), (0.1, 1.3), {"n": 300, "m": 2}, id="henon-lyap-m2"),
    pytest.param("henon-lyap", (-2.2, 0.6), (0.1, 1.3), {"n": 300, "m": 3}, id="henon-lyap-m3"),
    pytest.param("henon-lyap", (-15.0, 2.0), (-0.6, 0.6), {"n": 300}, id="henon-lyap-step-one"),
    pytest.param("henon-lyap", *HENON_WINDOW, {"n": 300, "map": "zero"}, id="henon-lyap-zero"),
    pytest.param("henon-lyap", *HENON_WINDOW, {"n": 300, "map": "sine-perturbed", "delta": 0.02},
                 id="henon-lyap-sine-perturbed"),
    pytest.param("henon-lyap", *HENON_WINDOW,
                 {"n": 300, "map": "sine-perturbed", "delta": 0.1, "radius": 1.0},
                 id="henon-lyap-sine-small-radius"),
    # row 3 of 7 sits at b = 0 exactly, where the tangent vector (0, 1) dies at step 1
    pytest.param("henon-lyap", (-2.2, 0.6), (-1.0, 1.0), {"n": 300, "map": "sine-perturbed"},
                 id="henon-lyap-sine-perturbed-b0"),
]


class TestOrbitKernelOracle:
    """Block kernels give the bytes of the row-at-a-time kernels."""

    WIDTH, HEIGHT = 11, 7

    def oracle(self, kernel, a_range, b_range, params):
        a = atlas._a_centers(a_range, self.WIDTH)
        rows = [ROW_ORACLES[kernel](a, float(b), params)
                for b in atlas._b_centers(b_range, self.HEIGHT)]
        return np.stack([t for t, _ in rows]), np.stack([v for _, v in rows])

    @staticmethod
    def assert_same_bytes(tags, values, expected):
        assert tags.dtype == np.uint8 and values.dtype == np.float64
        assert tags.tobytes() == expected[0].tobytes()
        assert values.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("kernel, a_range, b_range, params", ORACLE_CASES)
    def test_sweep_matches_row_oracle(self, kernel, a_range, b_range, params):
        expected = self.oracle(kernel, a_range, b_range, params)
        for workers in (1, 2, 3):
            r = sweep(kernel, self.WIDTH, self.HEIGHT, a_range=a_range, b_range=b_range,
                      params=params, workers=workers)
            self.assert_same_bytes(r.tags, r.values, expected)

    @pytest.mark.parametrize("kernel, a_range, b_range, params", ORACLE_CASES)
    @pytest.mark.parametrize("block", [1, 3, HEIGHT])
    def test_block_heights_match_row_oracle(self, kernel, a_range, b_range, params, block):
        a = atlas._a_centers(a_range, self.WIDTH)
        b = atlas._b_centers(b_range, self.HEIGHT)
        spec = KERNELS[kernel]
        prepared = spec.prepare(params, a, b)
        parts = [spec.block(a, b[lo:lo + block], prepared, range(lo, min(lo + block, self.HEIGHT)))
                 for lo in range(0, self.HEIGHT, block)]
        tags = np.concatenate([t for t, _ in parts])
        values = np.concatenate([v for _, v in parts])
        self.assert_same_bytes(tags, values, self.oracle(kernel, a_range, b_range, params))

    def test_cases_reach_every_exit(self):
        seen = {}
        for case in ORACLE_CASES:
            kernel, a_range, b_range, params = case.values
            tags, values = self.oracle(kernel, a_range, b_range, params)
            seen[case.id] = (set(np.unique(tags)), values, tags)
        assert seen["henon-lyap-zero"][0] == {TAG_ERROR}
        b0_tags = seen["henon-lyap-sine-perturbed-b0"][2]
        assert atlas._b_centers((-1.0, 1.0), self.HEIGHT)[3] == 0.0
        assert np.all(b0_tags[3] == TAG_ERROR)
        assert not np.any(np.delete(b0_tags, 3, axis=0) == TAG_ERROR)
        for case_id in ("henon-escape-step-one", "henon-lyap-step-one",
                        "swallow-escape-step-one", "swallow-lyap-step-one"):
            assert np.any(seen[case_id][1] == 1.0)
        for case_id in ("henon-lyap-sine-perturbed", "swallow-lyap"):
            assert {TAG_LYAP, TAG_ESCAPE} <= seen[case_id][0]
        assert {TAG_BODY, TAG_WING, TAG_ESCAPE} <= seen["swallow-escape"][0]


# ---------------------------------------------------------------------------
# retirement of exactly periodic orbits against the full orbit loop
# ---------------------------------------------------------------------------

def _full_run_orbits(advance, state, n_steps, position=0):
    """The orbit loop without retirement: every orbit runs until it leaves or
    the steps run out, whatever ``position`` says."""
    size = state[0].size
    left = np.zeros(size, dtype=np.int64)
    dead = np.zeros(size, dtype=bool)
    live = np.arange(size)
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            if not live.size:
                break
            state, gone, stalled = advance(*state)
            if gone.any():
                left[live[gone]] = step
                if stalled is not None:
                    dead[live[stalled]] = True
                keep = ~gone
                live = live[keep]
                state = tuple(arr[keep] for arr in state)
    return left, dead, live, state


def _logged_run_orbits(run, log):
    """``run`` with each advance logged: per step, the orbits advanced and
    whether any position held a NaN or an infinity."""
    def logged(advance, state, n_steps, position=0):
        steps = []
        log.append(steps)

        def counted(*state):
            pos = state[:position]
            steps.append((state[0].size, any(np.isnan(p).any() for p in pos),
                          any(np.isinf(p).any() for p in pos)))
            return advance(*state)

        return run(counted, state, n_steps, position)
    return logged


SWALLOW_WINDOW = ((-2.2, 0.6), (-2.2, 0.6))

RETIRE_CASES = [
    pytest.param("swallow-escape", (-1.42, -1.38), (-1.42, -1.38), {"steps": 2000},
                 id="swallow-late-marks"),
    pytest.param("swallow-escape", (0.2495, 0.2501), (0.2495, 0.2501), {"steps": 2000},
                 id="swallow-parabolic"),
    pytest.param("swallow-escape", *STEP_ONE_WINDOW, {"steps": 2000, "radius": math.inf},
                 id="swallow-overflow"),
    pytest.param("henon-escape", (-1.3, -1.0), (0.2, 0.4), {"steps": 2000}, id="henon-late-marks"),
    pytest.param("henon-escape", (0.24, 0.2505), (-0.002, 0.002), {"steps": 2000},
                 id="henon-parabolic"),
    pytest.param("henon-escape", (-15.0, 2.0), (-0.6, 0.6), {"steps": 2000, "radius": math.inf},
                 id="henon-nan"),
    pytest.param("henon-escape", (-1.3, -1.0), (0.2, 0.4),
                 {"steps": 2000, "map": "sine-perturbed", "delta": 0.02}, id="henon-hooked"),
    pytest.param("embed-compare", None, None, {"steps": 2000}, id="embed"),
    pytest.param("embed-compare", None, None, {"steps": 2000, "radius": math.inf},
                 id="embed-overflow"),
]


class TestOrbitRetirement:
    """Retiring exactly periodic orbits gives the bytes of the full loop."""

    WIDTH, HEIGHT = 11, 7

    def run(self, monkeypatch, run_orbits, kernel, a_range, b_range, params, size=None):
        width, height = size or (self.WIDTH, self.HEIGHT)
        with monkeypatch.context() as mp:
            mp.setattr(atlas, "_run_orbits", run_orbits)
            mp.setattr(embed, "_run_orbits", run_orbits)
            return sweep(kernel, width, height, a_range=a_range, b_range=b_range,
                         params=params, workers=1)

    @pytest.mark.parametrize("kernel, a_range, b_range, params", RETIRE_CASES)
    def test_sweep_matches_full_loop(self, monkeypatch, kernel, a_range, b_range, params):
        full = self.run(monkeypatch, _full_run_orbits, kernel, a_range, b_range, params)
        for workers in (1, 2, 3):
            r = sweep(kernel, self.WIDTH, self.HEIGHT, a_range=a_range, b_range=b_range,
                      params=params, workers=workers)
            TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values, (full.tags, full.values))

    def test_cases_reach_every_exit(self, monkeypatch):
        seen = {}
        for case in RETIRE_CASES:
            retiring, looping = [], []
            self.run(monkeypatch, _logged_run_orbits(atlas._run_orbits, retiring), *case.values)
            self.run(monkeypatch, _logged_run_orbits(_full_run_orbits, looping), *case.values)
            # orbits advanced per step, the retiring run padded to the full one
            sizes = [(np.array([s for s, _, _ in r] + [0] * (len(f) - len(r))),
                      np.array([s for s, _, _ in f])) for r, f in zip(retiring, looping)]
            seen[case.id] = {
                # orbits retired after the mark of step 1024
                "late": any(f[1999] - r[1999] > f[1024] - r[1024]
                            for r, f in sizes if f.size == 2000),
                "unsettled": any(len(r) == 2000 for r in retiring),
                "nan": any(nan for steps in retiring for _, nan, _ in steps),
                "inf": any(inf for steps in retiring for _, _, inf in steps),
                "retired": any(r.sum() < f.sum() for r, f in sizes),
            }
        assert all(flags["retired"] for flags in seen.values())
        for case_id in ("swallow-late-marks", "henon-late-marks", "swallow-parabolic"):
            assert seen[case_id]["late"]
        for case_id in ("swallow-parabolic", "henon-parabolic"):
            assert seen[case_id]["unsettled"]
        assert seen["henon-nan"]["nan"]
        for case_id in ("swallow-overflow", "henon-nan"):
            assert seen[case_id]["inf"]

    def test_orbit_leaving_on_a_repeat_records_its_step(self):
        # a fixed point repeats its start at step 1; outside the radius it leaves there
        def advance(x, r):
            x = x + 0.0
            return (x, r), np.abs(x) > r, None

        state = (np.array([0.5, 2.0, -3.0, np.nan]), np.ones(4))
        left, _, live, _ = atlas._run_orbits(advance, state, 50, position=1)
        assert left.tolist() == [0, 1, 1, 0]
        assert live.size == 0
        assert left.tolist() == _full_run_orbits(advance, state, 50)[0].tolist()

    def test_figures_swallow_raster_step_count(self, monkeypatch):
        log = []
        self.run(monkeypatch, _logged_run_orbits(atlas._run_orbits, log), "swallow-escape",
                 *SWALLOW_WINDOW, {"steps": 2000, "radius": 10.0}, size=(200, 200))
        # 87.0 M when every bounded orbit ran to the last step; 25.3 M retiring
        assert sum(size for steps in log for size, _, _ in steps) <= 30_000_000


#: SHA-256 of the 200x200 swallow-escape PPM at the benchmark's figures
#: settings.  The kernel uses +, *, abs and comparisons only, all exactly
#: rounded, so the bytes do not depend on the platform's libm.
FIGURES_SWALLOW_PPM_SHA256 = "ed1aa5e41ce315154aadfef429e149554a40ce6e53c3c971dc2a3883b240679b"


def test_figures_swallow_ppm_bytes_pinned():
    r = sweep("swallow-escape", 200, 200, *SWALLOW_WINDOW,
              params={"steps": 2000, "radius": 10.0}, workers=2)
    assert hashlib.sha256(render_ppm(r)).hexdigest() == FIGURES_SWALLOW_PPM_SHA256


def _host() -> dict:
    """What a pin through the platform's libm depends on: numpy's version,
    the machine, the targets among numpy's SIMD dispatch targets that this
    process runs (``NPY_DISABLE_CPU_FEATURES`` turns some off) and the C
    library, whose ``hypot`` ``np.hypot`` calls."""
    return {"numpy": np.__version__, "machine": platform.machine(),
            "dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
            "libc": " ".join(platform.libc_ver())}


def _unpinned(digest: str, pins: list, host: dict) -> str | None:
    """None when ``pins``, a list of (host, SHA-256) entries, records
    ``digest`` for ``host``; else what is wrong: the digest differs from the
    one recorded for this host, or the host is unrecorded, and then how it
    differs from each recorded one."""
    for recorded, expected in pins:
        if recorded == host:
            return None if digest == expected else (
                f"run on recorded host {host}: digest {digest}, recorded {expected}")
    differ = "; ".join(f"{recorded} differs in {[k for k in host if host[k] != recorded.get(k)]}"
                       for recorded, _ in pins)
    return f"run on unrecorded host {host}: {differ}"


#: The hosts the pins below were recorded on: the second is the first with
#: numpy's AVX-512 loops off (``NPY_DISABLE_CPU_FEATURES`` naming
#: ``_NO_AVX512``), as on an x86_64 CPU without AVX-512.
_NO_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
_AVX512_HOST = {"numpy": "2.4.6", "machine": "x86_64",
                "dispatch": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"], "libc": "glibc 2.36"}
_NO_AVX512_HOST = dict(_AVX512_HOST, dispatch=["X86_V3"])

#: The 50x50 henon-lyap CSV at the benchmark's figures settings: the SHA-256
#: recorded on each host.  The exponents sum ``np.log`` of ``np.hypot``,
#: which go through numpy's dispatched loops and the platform's libm, so
#: another numpy build, CPU or libc may move the bytes.
FIGURES_LYAP_CSV = [
    (_AVX512_HOST, "98ce58328a050bc087d0148430f101a9e0040cd5e0058f68d21e5489e848f0d0"),
    (_NO_AVX512_HOST, "f932c000a689a6f1d09877b9d2028bf3e58685315df6da7a3425c1b37a6bfd4b"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_figures_lyap_csv_bytes_pinned(workers):
    r = sweep("henon-lyap", 50, 50, *HENON_WINDOW,
              params={"map": "standard", "m": 1, "n": 10_000, "radius": 10.0}, workers=workers)
    digest = hashlib.sha256(render_csv(r).encode("ascii")).hexdigest()
    problem = _unpinned(digest, FIGURES_LYAP_CSV, _host())
    assert problem is None, problem


#: The 21x21 embed-compare PPM at the benchmark's embed-swallow settings:
#: the SHA-256 recorded on each host.  The chart scales take ``**`` of the
#: cross-map slopes, which goes through the platform's libm, so another
#: numpy build, CPU or libc may move the bytes.
EMBED_SWALLOW_PPM = [
    (_AVX512_HOST, "cb279e9556be4146763c428c32c2680b16e8a12aee91d8871c6279d7a59c0744"),
    (_NO_AVX512_HOST, "cb279e9556be4146763c428c32c2680b16e8a12aee91d8871c6279d7a59c0744"),
]


def test_embed_swallow_ppm_bytes_pinned():
    r = sweep("embed-compare", 21, 21, (-2.1, 0.4), (-2.1, 0.4),
              params={"steps": 2000, "radius": 10.0}, workers=2)
    problem = _unpinned(hashlib.sha256(render_ppm(r)).hexdigest(), EMBED_SWALLOW_PPM, _host())
    assert problem is None, problem


#: CLI rasters of a few pixels for the kernels that no other pin covers, as
#: CSV: the arguments and the SHA-256 recorded on each host.  swallow-lyap
#: sums ``np.log``; the hooked maps' fields call ``math.sin`` and
#: ``math.cos``, and hooked henon-lyap ``math.hypot`` and ``math.log``, so
#: another numpy build, CPU or libm may move the bytes.
KERNEL_CSV = {
    "swallow-lyap": (
        ("swallow", "--kernel", "swallow-lyap", "--grid", "5x4", "--n", "500"),
        [(_AVX512_HOST, "96c89470e4df4436e2dedc60fee4000d0d0f17caeb81dbdedddaae8848df2330"),
         (_NO_AVX512_HOST, "96c89470e4df4436e2dedc60fee4000d0d0f17caeb81dbdedddaae8848df2330")],
    ),
    "henon-escape-sine": (
        ("henon-atlas", "--kernel", "henon-escape", "--map", "sine-perturbed",
         "--grid", "5x4", "--steps", "500"),
        [(_AVX512_HOST, "85e6d6c215b635a8af3afdc95f9b6441863e12754b8d139b663746feee7086cc"),
         (_NO_AVX512_HOST, "85e6d6c215b635a8af3afdc95f9b6441863e12754b8d139b663746feee7086cc")],
    ),
    "henon-lyap-sine": (
        ("henon-atlas", "--kernel", "henon-lyap", "--map", "sine-perturbed",
         "--grid", "5x4", "--n", "1000"),
        [(_AVX512_HOST, "1b8fcea6cffbc6e96b84a49909d4a4fd79ef9f242801f2badcf33b880724d8c3"),
         (_NO_AVX512_HOST, "1b8fcea6cffbc6e96b84a49909d4a4fd79ef9f242801f2badcf33b880724d8c3")],
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CSV))
def test_kernel_csv_bytes_pinned(capsys, name):
    argv, pins = KERNEL_CSV[name]
    assert run([*argv, "--format", "csv", "--workers", "1"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
    problem = _unpinned(digest, pins, _host())
    assert problem is None, problem


@pytest.mark.skipif(not all(__cpu_features__.get(t) for t in _NO_AVX512),
                    reason="this process runs no AVX-512 loops to turn off")
def test_pins_hold_without_avx512():
    # the host-dependent pins in a process with numpy's AVX-512 loops off
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_NO_AVX512))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_figures_lyap_csv_bytes_pinned[1]",
         f"{__file__}::test_embed_swallow_ppm_bytes_pinned",
         *(f"{__file__}::test_kernel_csv_bytes_pinned[{name}]" for name in sorted(KERNEL_CSV))],
        capture_output=True, text=True, timeout=300, env=env, cwd=Path(__file__).parents[1],
    )
    passed = f"{2 + len(KERNEL_CSV)} passed"
    assert proc.returncode == 0 and passed in proc.stdout, proc.stdout + proc.stderr


def test_unrecorded_host_names_every_recorded_one():
    host = dict(_AVX512_HOST, libc="musl 1.2.4")
    problem = _unpinned(FIGURES_LYAP_CSV[0][1], FIGURES_LYAP_CSV, host)
    assert problem.startswith(f"run on unrecorded host {host}: ")
    assert f"{_AVX512_HOST} differs in ['libc']" in problem
    assert f"{_NO_AVX512_HOST} differs in ['dispatch', 'libc']" in problem
    problem = _unpinned("0" * 64, FIGURES_LYAP_CSV, _NO_AVX512_HOST)
    assert problem.endswith(f"digest {'0' * 64}, recorded {FIGURES_LYAP_CSV[1][1]}")


class TestRenormStrip:
    def test_values_match_direct_renormalization(self):
        r = sweep("renorm-strip", 3, 2)
        a_c, b_c = r.a_centers().tolist(), r.b_centers().tolist()
        for i in range(r.height):
            for j in range(r.width):
                a, b = a_c[j], b_c[i]
                assert r.tags[i, j] == TAG_LYAP
                assert r.values[i, j] == renormalize(HenonMap(a, b), "c1").abar

    def test_inadmissible_word_pixels_marked_error(self):
        r = sweep("renorm-strip", 2, 2, a_range=(-1.1, -0.9), b_range=(1e-4, 2e-4))
        assert np.all(r.tags == TAG_ERROR)
        assert np.all(r.values == 0.0)


@pytest.fixture(scope="module")
def center_patch():
    return sweep("embed-compare", 3, 3, a_range=(-0.8, -0.2), b_range=(-0.8, -0.2))


class TestEmbedCompare:
    def test_interior_patch_agrees(self, center_patch):
        assert np.all(center_patch.tags == TAG_AGREE)
        assert np.all(center_patch.values == 1.0)

    def test_summary_counts(self, center_patch):
        summary = compare_summary(center_patch)
        assert summary["agree"] == 9
        assert summary["disagree"] == 0
        assert summary["errors"] == 0
        assert summary["agreement"] == 1.0

    def test_reruns_and_worker_counts_match(self, center_patch):
        again = sweep("embed-compare", 3, 3, a_range=(-0.8, -0.2), b_range=(-0.8, -0.2))
        assert again == center_patch
        pooled = sweep("embed-compare", 3, 3, a_range=(-0.8, -0.2),
                       b_range=(-0.8, -0.2), workers=2)
        assert pooled == center_patch

    def test_word_count_validated(self):
        with pytest.raises(DomainError):
            sweep("embed-compare", 2, 2, params={"words": ("c1",)})

    @pytest.mark.parametrize("seed", [(1.0,), (1.0, 2.0, 3.0), "ab", (1.0, "x"), 5.0])
    def test_seed_must_be_two_numbers(self, seed):
        with pytest.raises(DomainError, match="two numbers"):
            sweep("embed-compare", 4, 3, params={"seed": seed}, workers=1)

    def test_odd_m_default_seed_keeps_b_power(self):
        default = sweep("embed-compare", 6, 5, params={"m": 3}, workers=1)
        seeded = sweep("embed-compare", 6, 5, workers=1, params={
            "m": 3, "seed": (-1.8665368062, -(2.44311150e-3) ** (1.0 / 3.0))})
        TestOrbitKernelOracle.assert_same_bytes(default.tags, default.values,
                                                (seeded.tags, seeded.values))
        assert not np.any(default.tags == TAG_ERROR)

    def test_even_m_default_seed_is_domain_error(self):
        with pytest.raises(DomainError, match="--seed"):
            sweep("embed-compare", 2, 2, params={"m": 2}, workers=1)

    def test_even_m_explicit_seed_runs(self):
        r = sweep("embed-compare", 2, 2, params={"m": 2, "seed": (-1.8665368062, 0.05)},
                  workers=1)
        assert r.tags.shape == (2, 2)


EMBED_ORACLE_CASES = [
    pytest.param(21, 21, None, {}, id="default-21x21"),
    pytest.param(9, 7, (-2.6, 0.9), {}, id="disagree-9x7"),
    pytest.param(7, 6, (-30.0, 30.0), {}, id="failed-tracks-7x6"),
    pytest.param(8, 6, None, {"steps": 300, "radius": 4.0}, id="short-small-radius-8x6"),
    pytest.param(4, 3, None, {"seed": (5.0, 5.0)}, id="untracked-seed"),
    # b^3 at this seed is the default seed's b, so the tracks succeed
    pytest.param(6, 5, None, {"m": 3, "seed": (-1.8665368062, -0.1346835110153426)}, id="m3-6x5"),
]


class TestEmbedCompareOracle:
    """The block kernel gives the bytes of the pixel-by-pixel row walk, and
    the tags of the frozen-Jacobian tracking it replaced."""

    @staticmethod
    def oracle(width, height, window, params, frozen=False):
        a_range, b_range = (window, window) if window else KERNELS["embed-compare"].window
        a = atlas._a_centers(a_range, width)
        b = atlas._b_centers(b_range, height)
        cfg = embed._embed_config(params, a, b)
        row_states, walk = ((_frozen_row_states, _frozen_walk) if frozen
                            else (embed._embed_row_states, embed._embed_walk))
        rows = []
        for b_i, state in zip(b, row_states(a, b, cfg)):
            targets = [(float(a_j), float(b_i)) for a_j in a]
            rows.append(_row_embed_compare(zip(targets, walk(targets, *state, cfg)), cfg))
        return np.stack([t for t, _ in rows]), np.stack([v for _, v in rows])

    @pytest.mark.parametrize("width, height, window, params", EMBED_ORACLE_CASES)
    def test_sweep_matches_pixel_oracle(self, width, height, window, params):
        expected = self.oracle(width, height, window, params)
        for workers in (1, 2, 3):
            r = sweep("embed-compare", width, height, a_range=window, b_range=window,
                      params=params, workers=workers)
            TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values, expected)

    @pytest.mark.parametrize("width, height, window, params", EMBED_ORACLE_CASES)
    def test_frozen_jacobian_tracking_gives_the_same_tags(self, width, height, window, params):
        expected = self.oracle(width, height, window, params, frozen=True)
        r = sweep("embed-compare", width, height, a_range=window, b_range=window,
                  params=params, workers=1)
        TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values, expected)

    def test_tracks_reuse_the_last_renormalization(self, monkeypatch):
        calls = {"multi_renormalize": 0, "eval_cross_jet": 0, "eval_cross": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(embed, "multi_renormalize")
        counted(renorm, "eval_cross_jet")
        counted(crossmap, "eval_cross")
        counted(renorm, "eval_cross")
        r = sweep("embed-compare", 21, 21, workers=1)
        assert np.count_nonzero(r.tags == TAG_ERROR) == 0
        # 903 renormalizations and 4,486 jets with the frozen difference Jacobian
        assert calls["multi_renormalize"] <= 510
        assert calls["eval_cross_jet"] <= 2024
        # one chain solve per jet: the chart origin's exit height comes from
        # the anchor solve's last jet (2,465 when each pixel solved it again)
        assert calls["eval_cross"] <= 2024

    def test_fresh_evaluation_after_a_failed_track(self, monkeypatch):
        a = atlas._a_centers(KERNELS["embed-compare"].window[0], 5)
        given = []
        solve = embed._embed_solve

        def fail_middle_column(target, x, anchors, model, cfg, max_iter=12, md=None, guess=None):
            out = solve(target, x, anchors, model, cfg, max_iter, md, guess)
            if max_iter == 40:
                return out
            given.append((md is not None, model is not None))
            return None if target[0] == a[2] else out

        monkeypatch.setattr(embed, "_embed_solve", fail_middle_column)
        r = sweep("embed-compare", 5, 2, workers=1)
        assert [list(row).count(TAG_ERROR) for row in r.tags] == [1, 1]
        # each row's first pixel and the pixel after the failed one start afresh,
        # and only the latter differences its model again
        assert given == [(False, True), (True, True), (True, True), (False, False),
                         (True, True)] * 2

    def test_cases_reach_every_exit(self):
        counts = {}
        for case in EMBED_ORACLE_CASES:
            tags, _ = self.oracle(*case.values)
            counts[case.id] = {tag: int(np.count_nonzero(tags == tag))
                               for tag in (TAG_AGREE, TAG_DISAGREE, TAG_ERROR)}
        assert counts["disagree-9x7"][TAG_DISAGREE] > 0
        assert counts["failed-tracks-7x6"] == {TAG_AGREE: 7, TAG_DISAGREE: 0, TAG_ERROR: 35}
        assert counts["untracked-seed"][TAG_ERROR] == 12
        assert counts["m3-6x5"][TAG_ERROR] == 0


def _newton2_anchors(at, seed, rtol):
    """The two-word anchor solve that always runs ``newton2``: the anchors
    are its result and the chart data come from the jets there, so that a
    converged seed costs two jets per word."""
    def slopes(x):
        folds = at(x)[1]
        return folds[0].slope, folds[1].slope

    def jacobian(x):
        fold0, fold1 = at(x)[1]
        return (fold0.curv, fold0.dslope_other), (fold1.dslope_other, fold1.curv)

    cs = tuple(newton2(slopes, seed, jac=jacobian, rtol=rtol))
    return cs, at(cs)


def _counting(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestConvergedSeedAnchorSolve:
    """The anchor solve stops at a converged seed: the anchors are
    ``newton2``'s first iterate, bit for bit, without evaluating there."""

    WORDS = embed._EMBED_WORDS

    @pytest.mark.parametrize("width, height, window, params", EMBED_ORACLE_CASES)
    def test_rasters_match_newton2_oracle(self, monkeypatch, width, height, window, params):
        with monkeypatch.context() as mp:
            mp.setattr(renorm, "_solve_anchors", _newton2_anchors)
            expected = sweep("embed-compare", width, height, a_range=window, b_range=window,
                             params=params, workers=1)
        for workers in (1, 2, 3):
            r = sweep("embed-compare", width, height, a_range=window, b_range=window,
                      params=params, workers=workers)
            TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values,
                                                    (expected.tags, expected.values))

    @pytest.mark.parametrize("offset", [1e-11, -3e-10])
    def test_converged_seed_costs_one_jet_per_word(self, monkeypatch, offset):
        f = HenonMap(*embed._EMBED_SEED)
        anchors = multi_renormalize(f, self.WORDS).c
        seed = (anchors[0] * (1.0 + offset), anchors[1] * (1.0 - offset))
        calls = {"eval_cross_jet": 0}
        with monkeypatch.context() as mp:
            _counting(mp, calls, renorm, "eval_cross_jet")
            md = multi_renormalize(f, self.WORDS, anchor_seed=seed, anchor_rtol=1e-9)
        assert calls["eval_cross_jet"] == 2 and md.c != seed
        with monkeypatch.context() as mp:
            mp.setattr(renorm, "_solve_anchors", _newton2_anchors)
            _counting(mp, calls, renorm, "eval_cross_jet")
            full = multi_renormalize(f, self.WORDS, anchor_seed=seed, anchor_rtol=1e-9)
        # newton2 evaluates again at its first iterate, then stops
        assert calls["eval_cross_jet"] == 2 + 4
        self.assert_close(md, full)

    def test_tracked_solves_match_newton2_oracle(self, monkeypatch):
        # every anchor solve of the serial 21x21 sweep, solved again both ways
        solves = []
        solve = embed.multi_renormalize

        def recorded(f, words, anchor_seed=None, anchor_rtol=1e-12):
            solves.append((f, words, anchor_seed, anchor_rtol))
            return solve(f, words, anchor_seed, anchor_rtol)

        with monkeypatch.context() as mp:
            mp.setattr(embed, "multi_renormalize", recorded)
            sweep("embed-compare", 21, 21, workers=1)
        jets = []
        for args in solves:
            calls = {"eval_cross_jet": 0}
            with monkeypatch.context() as mp:
                _counting(mp, calls, renorm, "eval_cross_jet")
                md = multi_renormalize(*args)
            jets.append(calls["eval_cross_jet"])
            with monkeypatch.context() as mp:
                mp.setattr(renorm, "_solve_anchors", _newton2_anchors)
                full = multi_renormalize(*args)
            self.assert_close(md, full)
        # every solve stops at its seed but the first, which starts from zero anchors
        assert jets[0] > 2 and jets[1:] == [2] * 509

    @staticmethod
    def assert_close(md, full):
        """Anchors bit for bit; the rest from the seed's jets, with the
        defects carried to the anchors to first order.  Over the 21x21
        sweep abar agrees to 8.4e-11 and bbar to 2e-22; with the seed's
        defects uncorrected abar would be off by up to 1.4e-7."""
        assert md.c == full.c
        for got, want in zip(md.abar + md.bbar, full.abar + full.bbar):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestEmbedCompareCounts:
    def test_serial_21x21_counts(self, monkeypatch):
        calls = {"multi_renormalize": 0, "eval_cross_jet": 0, "eval_cross": 0}
        _counting(monkeypatch, calls, embed, "multi_renormalize")
        _counting(monkeypatch, calls, renorm, "eval_cross_jet")
        _counting(monkeypatch, calls, crossmap, "eval_cross")
        _counting(monkeypatch, calls, renorm, "eval_cross")
        sweep("embed-compare", 21, 21, workers=1)
        # 510 solves and 2,024 jets when newton2 confirmed every converged seed
        assert calls == {"multi_renormalize": 510, "eval_cross_jet": 1024, "eval_cross": 1024}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_orbit_checks_run_once_per_raster(self, monkeypatch, tmp_path, workers):
        # each call appends its process id to a file, so calls made in a
        # pool worker, which has a copy of the wrapper, would show as well
        log = tmp_path / "pids"
        run = embed._run_orbits

        def logged(*args, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return run(*args, **kwargs)

        monkeypatch.setattr(embed, "_run_orbits", logged)
        sweep("embed-compare", 7, 6, workers=workers)
        # the direct check and the prediction's composed orbits
        assert log.read_text(encoding="ascii").split() == [str(os.getpid())] * 2


def _per_step_checks(mp):
    """Patch the chunked embed-compare checks with the per-step references."""
    mp.setattr(embed, "_direct_bounded",
               lambda *args: embed_direct_left(*args) == 0)
    mp.setattr(embed, "_predicted_bounded",
               lambda *args: embed_predicted_left(*args) == 0)


@pytest.fixture(scope="module")
def embed_21x21_lanes():
    """The orbit rows, period and targets that the serial 21x21 sweep in the
    benchmark's window hands to its two checks."""
    seen = {}
    direct, predicted = embed._direct_bounded, embed._predicted_bounded

    def record_direct(orbits, period, steps, r_esc):
        seen["direct"] = (orbits, period)
        return direct(orbits, period, steps, r_esc)

    def record_predicted(first, second, steps, r_esc):
        seen["predicted"] = (first, second)
        return predicted(first, second, steps, r_esc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "_direct_bounded", record_direct)
        mp.setattr(embed, "_predicted_bounded", record_predicted)
        sweep("embed-compare", 21, 21, (-2.1, 0.4), (-2.1, 0.4),
              params={"steps": 2000, "radius": 10.0}, workers=1)
    return seen


def _direct_lanes() -> np.ndarray:
    """Synthetic orbit rows (x, y, a, b^m, c_0, gamma_0) of the direct check.

    Escapes at every step up to 100 and from 1951 to 2100, past the last
    step of 2000; exact Henon cycles of 1, 2 and 3 steps; NaN and infinite
    starts, parameters and charts; and two cycles that leave the chart on
    the step their position repeats (gamma_0 = 0.05 puts a chart radius of
    10 at 0.5).  The 15 lanes after the escapes are these last three sets.
    """
    # the orbit of 0 under x -> x^2 + 1/4 + 1e-7 climbs the channel to 1/2
    # over thousands of steps; a chart radius of 10 between its points T - 1
    # and T leaves at step T
    a = 0.25 + 1e-7
    heights = [0.0]
    for _ in range(2100):
        heights.append(heights[-1] * heights[-1] + a)
    escapes = [(0.0, 0.0, a, 0.0, 0.0, (heights[t - 1] + heights[t]) / 20.0)
               for t in (*range(1, 101), *range(1951, 2101))]
    cycles = [
        (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),     # fixed point
        (-2.0, -2.0, -2.0, -2.0, 0.0, 1.0),  # fixed point with b^m y
        (0.0, 0.0, -1.0, 0.0, 0.0, 1.0),    # 0 -> -1 -> 0
        (-2.0, 0.0, -4.0, 1.0, 0.0, 1.0),   # period 2 with b^m y
        (-1.0, 0.0, -2.0, 1.0, 0.0, 1.0),   # period 3
    ]
    odd = [
        (math.nan, 0.0, 0.0, 0.0, 0.0, 1.0),
        (math.inf, 0.0, 0.0, 0.0, 0.0, 1.0),
        (-math.inf, 0.0, 0.0, 0.0, 0.0, 1.0),
        (0.0, math.nan, -1.0, 0.5, 0.0, 1.0),
        (0.0, 0.0, math.nan, 0.0, 0.0, 1.0),
        (0.0, 0.0, 0.0, math.inf, 0.0, 1.0),
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),     # chart coordinate 0/0 never tests true
        (0.0, 0.0, 0.0, 0.0, math.nan, 1.0),
    ]
    on_repeat = [
        (1.0, 1.0, 0.0, 0.0, 0.0, 0.05),    # fixed, outside the chart
        (0.0, -1.0, -1.0, 0.0, -0.9, 0.05),  # period 2, leaves at 0
    ]
    return np.array(escapes + cycles + odd + on_repeat)


#: (first, second) of the prediction: the same slow escapes, exact composed
#: cycles of 1 and 2 steps (no small dyadic pair closes an exact 3-cycle of
#: x -> (x^2 + first)^2 + second through 0), NaN and infinite parameters,
#: and a cycle whose first half-step leaves on the step it repeats.
_PREDICTED_LANES = (
    [(0.25 + eps, 0.25 + eps) for eps in np.geomspace(2e-6, 1.0, 300)]
    + [(-1.0, -1.0), (0.0, 0.0), (-2.0, -4.0), (-2.0, -2.0), (0.0, -1.0), (-1.0, 0.0)]
    + [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf)]
    + [(-11.0, -121.0)]
)


class TestChunkedEmbedChecks:
    """The embed-compare checks, a chunk of composed steps per orbit-loop
    step, give the booleans of the per-step references in ``oracles``."""

    @pytest.mark.parametrize("width, height, window, params", EMBED_ORACLE_CASES)
    def test_rasters_match_per_step_checks(self, monkeypatch, width, height, window, params):
        with monkeypatch.context() as mp:
            _per_step_checks(mp)
            expected = sweep("embed-compare", width, height, a_range=window, b_range=window,
                             params=params, workers=1)
        for workers in (1, 2, 3):
            r = sweep("embed-compare", width, height, a_range=window, b_range=window,
                      params=params, workers=workers)
            TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values,
                                                    (expected.tags, expected.values))

    # steps = 2000 is the "default-21x21" case above
    @pytest.mark.parametrize("steps", [1, 37])
    def test_benchmark_raster_at_step_counts(self, monkeypatch, steps):
        params = {"steps": steps, "radius": 10.0}
        with monkeypatch.context() as mp:
            _per_step_checks(mp)
            expected = sweep("embed-compare", 21, 21, (-2.1, 0.4), (-2.1, 0.4),
                             params=params, workers=1)
        r = sweep("embed-compare", 21, 21, (-2.1, 0.4), (-2.1, 0.4), params=params, workers=2)
        TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values,
                                                (expected.tags, expected.values))

    @pytest.mark.parametrize("steps", [1, 37, 2000])
    def test_benchmark_lanes_at_step_counts(self, embed_21x21_lanes, steps):
        orbits, period = embed_21x21_lanes["direct"]
        first, second = embed_21x21_lanes["predicted"]
        # 441 lanes make chunks of 37: 2000 steps end on a chunk of 2
        assert atlas._BLOCK_PIXELS // len(orbits) == 37
        direct = embed._direct_bounded(orbits, period, steps, 10.0)
        predicted = embed._predicted_bounded(first, second, steps, 10.0)
        assert direct.tolist() == (embed_direct_left(orbits, period, steps, 10.0) == 0).tolist()
        assert predicted.tolist() == (embed_predicted_left(first, second, steps, 10.0)
                                      == 0).tolist()
        if steps == 2000:
            assert np.count_nonzero(direct) == 267

    @pytest.mark.parametrize("steps", [1, 37, 2000])
    @pytest.mark.parametrize("period", [1, 3])
    def test_synthetic_direct_lanes(self, steps, period):
        orbits = _direct_lanes()
        left = embed_direct_left(orbits, period, steps, 10.0)
        got = embed._direct_bounded(orbits, period, steps, 10.0)
        assert got.tolist() == (left == 0).tolist()
        cycles, odd, on_repeat = got[-15:-10], got[-10:-2], got[-2:]
        assert cycles.all()
        assert odd.tolist() == [False] * 6 + [True] * 2
        # the 2-cycle leaves at its second composed step
        assert on_repeat.tolist() == [False, steps == 1]
        chunk = min(steps, atlas._BLOCK_PIXELS // len(orbits))
        if steps == 2000 and period == 1:
            # escapes at every offset inside a chunk, and at each step after
            # the last chunk of 48 up to where a whole chunk of 61 would end
            assert (chunk, steps % chunk) == (61, 48)
            escaped = left[:-15][left[:-15] > 0]
            assert set((escaped - 1) % chunk) == set(range(chunk))
            assert set(embed_direct_left(orbits, 1, 2100, 10.0)[:-15]) >= set(range(2001, 2014))

    @pytest.mark.parametrize("steps", [1, 37, 2000])
    def test_synthetic_predicted_lanes(self, steps):
        first, second = (np.array(v) for v in zip(*_PREDICTED_LANES))
        left = embed_predicted_left(first, second, steps, 10.0)
        got = embed._predicted_bounded(first, second, steps, 10.0)
        assert got.tolist() == (left == 0).tolist()
        assert got[300:306].all() and not got[-1]
        chunk = min(steps, atlas._BLOCK_PIXELS // len(first))
        if steps == 2000:
            assert set((left[:300][left[:300] > 0] - 1) % chunk) == set(range(chunk))


@pytest.fixture
def pools(monkeypatch):
    """The pools ``sweep`` creates, each recording whether it was shut down."""
    created = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.was_shut_down = False
            created.append(self)

        def shutdown(self, *args, **kwargs):
            self.was_shut_down = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(atlas, "ProcessPoolExecutor", RecordingPool)
    return created


def _await_file(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.001)


class TestDeterminism:
    def test_pool_matches_serial_for_vector_kernel(self):
        serial = sweep("swallow-lyap", 16, 12, params={"n": 300}, workers=1)
        pooled = sweep("swallow-lyap", 16, 12, params={"n": 300}, workers=2)
        assert serial == pooled
        assert render_ppm(serial) == render_ppm(pooled)
        assert render_csv(serial) == render_csv(pooled)

    def test_pool_matches_serial_for_scalar_kernel(self):
        serial = sweep("renorm-strip", 4, 4, workers=1)
        pooled = sweep("renorm-strip", 4, 4, workers=3)
        assert serial == pooled


    def test_pool_shut_down_when_a_row_raises(self, monkeypatch, pools, tmp_path):
        # an unknown map is rejected before any pool starts
        with pytest.raises(DomainError, match="unknown map"):
            sweep("henon-escape", 2, 2, params={"map": "no-such-map"}, workers=2)
        assert len(pools) == 0

        # two one-row blocks, each of which raises
        escape = KERNELS["henon-escape"]

        def raising(a, b, params, rows):
            raise DomainError("a block")

        monkeypatch.setitem(KERNELS, "henon-escape", escape._replace(block=raising))
        with pytest.raises(DomainError, match="a block"):
            sweep("henon-escape", 2, 2, workers=2)
        assert len(pools) == 1
        assert pools[0].was_shut_down

        # 24 one-row blocks; the calling process fails on its first, once the
        # child is busy with one of its own
        log, started = tmp_path / "log", tmp_path / "started"
        caller, kernel = os.getpid(), KERNELS["swallow-escape"]

        def failing(a, b, params, rows):
            if os.getpid() == caller:
                _await_file(started)
                with open(log, "a", encoding="ascii") as fh:
                    fh.write("failed\n")
                raise DomainError("the calling process's block")
            with open(log, "a", encoding="ascii") as fh:
                fh.write("started\n")
            started.touch()
            time.sleep(0.02)
            return kernel.block(a, b, params, rows)

        monkeypatch.setitem(KERNELS, "swallow-escape", kernel._replace(block=failing))
        monkeypatch.setattr(atlas, "_BLOCK_PIXELS", 4)
        with pytest.raises(DomainError, match="calling process"):
            sweep("swallow-escape", 4, 24, params={"steps": 10}, workers=2)
        assert len(pools) == 2 and pools[1].was_shut_down
        events = log.read_text(encoding="ascii").split()
        # the child may have claimed one block before the counter moved
        assert events.count("failed") == 1
        assert events[events.index("failed"):].count("started") <= 1

    def test_child_exception_reaches_the_caller(self, monkeypatch, pools, tmp_path):
        failed = tmp_path / "failed"
        caller, kernel = os.getpid(), KERNELS["swallow-escape"]

        def failing(a, b, params, rows):
            if os.getpid() == caller:
                _await_file(failed)
                return kernel.block(a, b, params, rows)
            failed.touch()
            raise DomainError("a child's block")

        monkeypatch.setitem(KERNELS, "swallow-escape", kernel._replace(block=failing))
        with pytest.raises(DomainError, match="child's block"):
            sweep("swallow-escape", 4, 4, params={"steps": 10}, workers=2)
        assert len(pools) == 1 and pools[0].was_shut_down

    @pytest.mark.parametrize("size, workers, blocks, children", [
        ((200, 200), 2, 3, [1]),
        ((200, 200), 3, 3, [2]),
        ((4, 3), 8, 3, [2]),
        ((4, 3), 1, 1, []),
        ((8192, 4), 1, 2, []),
    ], ids=["200x200-w2", "200x200-w3", "4x3-w8", "4x3-w1", "8192x4-w1"])
    def test_pool_children_are_the_other_workers(self, pools, size, workers, blocks, children):
        cfg = {"width": size[0], "height": size[1]}
        assert len(atlas._row_blocks(cfg, workers)) == blocks
        sweep("swallow-escape", *size, params={"steps": 10}, workers=workers)
        assert [pool._max_workers for pool in pools] == children

    @pytest.mark.parametrize("affinity, cpus, children", [
        ({0}, 4, []),
        ({0, 1}, 4, [1]),
        (None, 1, []),
        (None, None, []),
    ], ids=["one-cpu", "two-cpus", "no-affinity-one-cpu", "no-affinity-unknown"])
    def test_auto_workers_follow_cpu_affinity(self, monkeypatch, pools, affinity, cpus, children):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sweep("swallow-escape", 4, 4, params={"steps": 10})
        assert [pool._max_workers for pool in pools] == children

    @pytest.mark.parametrize("size, workers, pixels, blocks", [
        ((200, 200), 2, atlas._BLOCK_PIXELS, 3),
        ((16, 12), 2, 16, 12),
        ((16, 12), 3, 16, 12),
    ], ids=["200x200-w2", "16x12-w2", "16x12-w3"])
    def test_every_block_computed_once_in_row_order(self, monkeypatch, tmp_path,
                                                    size, workers, pixels, blocks):
        # the figures' 200x200 has 81 rows per block at 2 workers; a block of
        # 16 pixels holds one row of the 16x12
        log = tmp_path / "blocks"
        payload = atlas._block_payload

        def logged(cfg, rows):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{rows.start}\n")
            return payload(cfg, rows)

        monkeypatch.setattr(atlas, "_block_payload", logged)
        monkeypatch.setattr(atlas, "_BLOCK_PIXELS", pixels)
        params = {"steps": 2000, "radius": 10.0}
        r = sweep("swallow-escape", *size, *SWALLOW_WINDOW, params=params, workers=workers)
        expected = atlas._row_blocks({"width": size[0], "height": size[1]}, workers)
        assert len(expected) == blocks
        assert sorted(int(k) for k in log.read_text(encoding="ascii").split()) == [
            rows.start for rows in expected]
        monkeypatch.undo()
        serial = sweep("swallow-escape", *size, *SWALLOW_WINDOW, params=params, workers=1)
        assert r == serial
        assert render_ppm(r) == render_ppm(serial)

    @pytest.mark.parametrize("kernel, params", [
        ("swallow-escape", {"steps": 300}),
        ("henon-lyap", {"n": 300}),
        ("embed-compare", {}),
    ])
    def test_workers_above_the_row_count(self, kernel, params):
        serial = sweep(kernel, 9, 3, params=params, workers=1)
        r = sweep(kernel, 9, 3, params=params, workers=5)
        assert render_csv(r) == render_csv(serial)


class TestSpawnedChildren:
    """Pool children that start a fresh interpreter (the spawn start method)
    import what they run, ``embed`` included, and give the bytes of one
    process."""

    @pytest.mark.parametrize("kernel, width, height, a_range, b_range, params", [
        pytest.param("embed-compare", 8, 6, None, None, {"steps": 300, "radius": 4.0},
                     id="embed-short-small-radius-8x6"),
        pytest.param("henon-lyap", 11, 7, *HENON_WINDOW,
                     {"n": 300, "map": "sine-perturbed", "delta": 0.02},
                     id="henon-lyap-sine-perturbed"),
    ])
    def test_spawned_child_gives_the_serial_bytes(self, monkeypatch, pools, kernel, width,
                                                  height, a_range, b_range, params):
        serial = sweep(kernel, width, height, a_range, b_range, params=params, workers=1)
        assert len(atlas._row_blocks({"width": width, "height": height}, 2)) == 2
        spawn = multiprocessing.get_context("spawn")
        counters, make_counter = [], spawn.Value
        payload = atlas._block_payload

        def counter(*args):
            counters.append(make_counter(*args))
            return counters[-1]

        def after_the_child_claims(cfg, rows):
            # the calling process holds block 0 until the child has claimed
            # block 1, so that the child computes a block
            deadline = time.monotonic() + 120.0
            while counters[0].value < 2:
                assert time.monotonic() < deadline, "the child never claimed a block"
                time.sleep(0.01)
            return payload(cfg, rows)

        monkeypatch.setattr(spawn, "Value", counter)
        monkeypatch.setattr(atlas, "get_context", lambda: spawn)
        monkeypatch.setattr(atlas, "_block_payload", after_the_child_claims)
        r = sweep(kernel, width, height, a_range, b_range, params=params, workers=2)
        assert [pool._mp_context.get_start_method() for pool in pools] == ["spawn"]
        TestOrbitKernelOracle.assert_same_bytes(r.tags, r.values, (serial.tags, serial.values))


class TestEmission:
    def test_ppm_header_and_length(self):
        r = make_raster([[TAG_ESCAPE, TAG_ESCAPE]], [[3.0, 5.0]], kernel="henon-escape")
        data = render_ppm(r)
        assert data.startswith(b"P6\n2 1\n255\n")
        assert len(data) == len(b"P6\n2 1\n255\n") + 6
        assert data[-6:] == bytes((255, 255, 0, 255, 255, 0))

    def test_exponent_color_thresholds(self):
        tags = [[TAG_LYAP, TAG_LYAP, TAG_LYAP, TAG_LYAP, TAG_ESCAPE, TAG_ERROR]]
        values = [[-0.005, -0.5, 0.5, -math.inf, 7.0, 0.0]]
        r = make_raster(tags, values)
        body = render_ppm(r, colormap="lyap")[len(b"P6\n6 1\n255\n"):]
        pixels = [tuple(body[3 * k: 3 * k + 3]) for k in range(6)]
        assert pixels[0] == (0, 0, 0)
        assert pixels[1] == (168, 0, 0)
        assert pixels[2] == (0, 0, 168)
        assert pixels[3] == (255, 0, 0)
        assert pixels[4] == (255, 255, 0)
        assert pixels[5] == (255, 0, 255)

    @pytest.mark.parametrize("colormap", sorted(COLOR_ORACLES))
    def test_palette_matches_scalar_colors(self, colormap):
        tags = [list(range(8)) + [200]] * len(PALETTE_VALUES)
        values = [[v] * 9 for v in PALETTE_VALUES]
        r = make_raster(tags, values)
        color = COLOR_ORACLES[colormap]
        expected = b"".join(
            bytes(color(tag, value)) for row_t, row_v in zip(tags, values)
            for tag, value in zip(row_t, row_v)
        )
        header = f"P6\n9 {len(values)}\n255\n".encode("ascii")
        assert render_ppm(r, colormap=colormap) == header + expected

    def test_ramp_rounds_half_to_even(self):
        assert 2.5 / 175.0 in HALF_WAY and 3.5 / 175.0 in HALF_WAY
        r = make_raster([[TAG_LYAP, TAG_LYAP, TAG_LYAP]], [[2.5 / 175.0, -3.5 / 175.0, math.nan]])
        body = render_ppm(r, colormap="lyap")[len(b"P6\n3 1\n255\n"):]
        assert tuple(body) == (0, 0, 82, 84, 0, 0, 0, 0, 0)

    def test_class_and_compare_colors(self):
        r = make_raster([[TAG_BODY, TAG_WING, TAG_ESCAPE]], [[0.0, 4.0, 2.0]],
                        kernel="swallow-escape")
        body = render_ppm(r)[len(b"P6\n3 1\n255\n"):]
        assert tuple(body[0:3]) == (0, 0, 0)
        assert tuple(body[3:6]) == (128, 128, 128)
        assert tuple(body[6:9]) == (255, 255, 0)
        r2 = make_raster([[5, 6, 7]], [[1.0, 0.0, 0.0]], kernel="embed-compare")
        body2 = render_ppm(r2)[len(b"P6\n3 1\n255\n"):]
        assert tuple(body2[0:3]) == (255, 255, 255)
        assert tuple(body2[3:6]) == (255, 0, 0)
        assert tuple(body2[6:9]) == (255, 0, 255)

    def test_csv_header_and_metadata(self):
        r = sweep("swallow-escape", 2, 2, params={"steps": 5})
        lines = render_csv(r).splitlines()
        assert lines[0].startswith("# henonlab-raster kernel=swallow-escape width=2 height=2 ")
        assert lines[1].startswith("# colormap class: ")
        assert lines[2] == "a,b,payload,value"
        assert len(lines) == 3 + 4

    def test_csv_round_trip(self):
        r = sweep("henon-lyap", 3, 2, params={"n": 200})
        assert parse_csv(render_csv(r)) == r

    def test_emit_files(self, tmp_path):
        r = sweep("swallow-escape", 3, 2, params={"steps": 20})
        ppm_path = tmp_path / "out.ppm"
        csv_path = tmp_path / "out.csv"
        emit(r, "ppm", str(ppm_path))
        emit(r, "csv", str(csv_path))
        assert ppm_path.read_bytes() == render_ppm(r)
        assert read_csv(str(csv_path)) == r

    def test_unknown_format_rejected(self):
        r = make_raster([[0, 0]], [[0.0, 0.0]])
        with pytest.raises(DomainError):
            emit(r, "png", "-")

    def test_malformed_csv_rejected(self):
        with pytest.raises(DomainError):
            parse_csv("a,b,payload,value\n0,0,escape,1\n")
        good = render_csv(make_raster([[0, 0]], [[0.0, 0.0]]))
        with pytest.raises(DomainError):
            parse_csv(good.replace("bounded", "unheard-of"))
        with pytest.raises(DomainError):
            parse_csv(good + "0,0,bounded,0\n")

    def test_every_kernel_has_colormap(self):
        assert len(KERNELS) == 6
        for spec in KERNELS.values():
            assert spec.colormap in COLORMAPS
        assert len(TAG_NAMES) == 8

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(2, 5),
        height=st.integers(2, 5),
        data=st.data(),
    )
    def test_csv_round_trip_property(self, width, height, data):
        tags = data.draw(
            st.lists(
                st.lists(st.integers(0, 7), min_size=width, max_size=width),
                min_size=height,
                max_size=height,
            )
        )
        values = data.draw(
            st.lists(
                st.lists(
                    st.floats(allow_nan=True, allow_infinity=True, width=64),
                    min_size=width,
                    max_size=width,
                ),
                min_size=height,
                max_size=height,
            )
        )
        r = make_raster(tags, values, kernel="swallow-lyap",
                        a_range=(-2.0, 0.5), b_range=(-1.0, 1.0))
        assert parse_csv(render_csv(r)) == r
