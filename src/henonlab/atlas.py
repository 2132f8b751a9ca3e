"""Deterministic parameter-plane rasters with PPM and CSV emission.

Six pixel kernels cover the composed-quadratic parameter plane (escape
classification and derivative-growth exponents), the Henon-family plane
(origin escape and tangent-growth exponents), per-pixel renormalization
output, and the agreement test between renormalized one-dimensional
predictions and direct two-dimensional orbits.  A raster is a pure
function of its configuration: payloads never depend on worker count or
evaluation order, so re-runs are byte-identical.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, HenonLabError
from .henon import MAP_REGISTRY, HenonMap, build_map, lyapunov, orbit_escape
from .maps1d import DEFAULT_ESCAPE_RADIUS, swallow_classify
from .renorm import multi_renormalize, renormalize

# ---------------------------------------------------------------------------
# payload tags
# ---------------------------------------------------------------------------

TAG_BOUNDED = 0
TAG_ESCAPE = 1
TAG_LYAP = 2
TAG_BODY = 3
TAG_WING = 4
TAG_AGREE = 5
TAG_DISAGREE = 6
TAG_ERROR = 7

TAG_NAMES = (
    "bounded",
    "escape",
    "lyap",
    "body",
    "wing",
    "agree",
    "disagree",
    "error",
)
_TAG_BY_NAME = {name: code for code, name in enumerate(TAG_NAMES)}

KERNELS = (
    "swallow-escape",
    "swallow-lyap",
    "henon-escape",
    "henon-lyap",
    "renorm-strip",
    "embed-compare",
)

#: Default parameter windows per kernel, (a_range, b_range).
DEFAULT_RANGES: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "swallow-escape": ((-2.2, 0.6), (-2.2, 0.6)),
    "swallow-lyap": ((-2.2, 0.6), (-2.2, 0.6)),
    "henon-escape": ((-2.2, 0.6), (-0.6, 0.6)),
    "henon-lyap": ((-2.2, 0.6), (-0.6, 0.6)),
    "renorm-strip": ((-1.8650, -1.8580), (-1.5e-3, 1.5e-3)),
    "embed-compare": ((-2.1, 0.4), (-2.1, 0.4)),
}

DEFAULT_COLORMAPS: dict[str, str] = {
    "swallow-escape": "class",
    "swallow-lyap": "lyap",
    "henon-escape": "escape",
    "henon-lyap": "lyap",
    "renorm-strip": "lyap",
    "embed-compare": "compare",
}

_DEFAULT_ESCAPE_STEPS = 2000
_DEFAULT_EXPONENT_STEPS = 10_000

#: Near-zero rescaled-parameter point used to start embed-compare tracking.
_EMBED_SEED = (-1.8665368062, -2.44311150e-3)
_EMBED_WORDS = ("c1", "c1,bm0,bm0")
_EMBED_TOL = 1e-6
_EMBED_STEP_CAP = 1e-5
_EMBED_ANCHOR_RTOL = 1e-9


# ---------------------------------------------------------------------------
# raster container
# ---------------------------------------------------------------------------

def _a_centers(a_range: tuple[float, float], n: int) -> np.ndarray:
    """Cell centers of n columns over a_range, left to right."""
    lo, hi = a_range
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _b_centers(b_range: tuple[float, float], n: int) -> np.ndarray:
    """Cell centers of n rows over b_range, top (largest b) first."""
    lo, hi = b_range
    return hi - (np.arange(n) + 0.5) * (hi - lo) / n


@dataclass(frozen=True, eq=False)
class Raster:
    """Pixel grid over a parameter rectangle; row 0 holds the largest b.

    Pixel (i, j) is the cell center a = a_lo + (j+1/2)*da,
    b = b_hi - (i+1/2)*db.  ``tags`` holds payload codes (see TAG_NAMES),
    ``values`` the numeric part of each payload: escape step, exponent,
    agreement flag, or zero where the tag alone carries the meaning.
    """

    width: int
    height: int
    a_range: tuple[float, float]
    b_range: tuple[float, float]
    kernel: str
    tags: np.ndarray
    values: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Raster):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.a_range == other.a_range
            and self.b_range == other.b_range
            and self.kernel == other.kernel
            and np.array_equal(self.tags, other.tags)
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    def a_centers(self) -> np.ndarray:
        return _a_centers(self.a_range, self.width)

    def b_centers(self) -> np.ndarray:
        return _b_centers(self.b_range, self.height)

    def pixel_center(self, i: int, j: int) -> tuple[float, float]:
        return float(self.a_centers()[j]), float(self.b_centers()[i])

    def tag_set(self) -> set[str]:
        return {TAG_NAMES[code] for code in np.unique(self.tags)}


# ---------------------------------------------------------------------------
# colormaps
# ---------------------------------------------------------------------------

_ERROR_RGB = (255, 0, 255)


def _ramp_channel(value: float) -> int:
    return 80 + int(round(175.0 * min(1.0, abs(value))))


def _color_escape(tag: int, value: float) -> tuple[int, int, int]:
    if tag == TAG_ESCAPE:
        return (255, 255, 0)
    if tag == TAG_BOUNDED:
        return (0, 0, 0)
    return _ERROR_RGB


def _color_lyap(tag: int, value: float) -> tuple[int, int, int]:
    if tag == TAG_ESCAPE:
        return (255, 255, 0)
    if tag == TAG_LYAP:
        if value < -0.01:
            return (_ramp_channel(value), 0, 0)
        if value > 0.01:
            return (0, 0, _ramp_channel(value))
        return (0, 0, 0)
    return _ERROR_RGB


def _color_class(tag: int, value: float) -> tuple[int, int, int]:
    if tag == TAG_ESCAPE:
        return (255, 255, 0)
    if tag == TAG_WING:
        return (128, 128, 128)
    if tag in (TAG_BODY, TAG_BOUNDED):
        return (0, 0, 0)
    return _ERROR_RGB


def _color_compare(tag: int, value: float) -> tuple[int, int, int]:
    if tag == TAG_AGREE:
        return (255, 255, 255)
    if tag == TAG_DISAGREE:
        return (255, 0, 0)
    return _ERROR_RGB


COLORMAPS: dict[str, Callable[[int, float], tuple[int, int, int]]] = {
    "escape": _color_escape,
    "lyap": _color_lyap,
    "class": _color_class,
    "compare": _color_compare,
}

_COLORMAP_NOTES: dict[str, str] = {
    "escape": "bounded->black; escape->yellow(255,255,0); error->magenta(255,0,255)",
    "lyap": (
        "escape->yellow(255,255,0); |value|<=0.01->black; "
        "value<-0.01->red ramp 80..255; value>0.01->blue ramp 80..255; "
        "error->magenta(255,0,255)"
    ),
    "class": (
        "escape->yellow(255,255,0); wing->gray(128,128,128); body->black; "
        "error->magenta(255,0,255)"
    ),
    "compare": (
        "agree->white(255,255,255); disagree->red(255,0,0); "
        "error->magenta(255,0,255)"
    ),
}


# ---------------------------------------------------------------------------
# composed-quadratic kernels (vectorized one row at a time)
# ---------------------------------------------------------------------------

def _composed_escape_row(first, second, width: int, n_max: int, r_esc: float):
    """Escape step of the alternating orbit x -> x^2+first -> x^2+second.

    Starts at x = 0; both half-steps of composed step k report step k, the
    same counting as the scalar classifier.  Returns (steps, alive): alive
    pixels stayed bounded and have step 0.
    """
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


def _row_swallow_escape(a: np.ndarray, b: float, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    n_max = int(params.get("steps", _DEFAULT_ESCAPE_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
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


def _composed_exponent_row(first, second, x0: float, width: int, n_steps: int, r_esc: float):
    """Per-composed-step derivative-growth exponent of the alternating orbit.

    The orbit starts at x0; each composed step contributes
    log|2x| + log|2(x^2+first)| to the running total.  Returns
    (exponent, steps, alive); exponents of escaped pixels are invalid.
    """
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


def _row_swallow_lyap(a: np.ndarray, b: float, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    n_steps = int(params.get("n", _DEFAULT_EXPONENT_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
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


# ---------------------------------------------------------------------------
# Henon-plane kernels
# ---------------------------------------------------------------------------
# Maps without hooks keep their own numpy orbit loops, which advance a whole
# row per step at a fraction of the cost of one scalar call per pixel; hooked
# maps go pixel by pixel through ``henon.orbit_escape`` and ``henon.lyapunov``.

def _map_config(params: Mapping) -> tuple[str, int, dict]:
    name = str(params.get("map", "standard"))
    if name not in MAP_REGISTRY:
        raise DomainError(f"unknown map {name!r}; known: {sorted(MAP_REGISTRY)}")
    m = int(params.get("m", 1))
    extra = {}
    if "delta" in params:
        extra["delta"] = float(params["delta"])
    return name, m, extra


def _henon_vector_offsets(name: str, a: np.ndarray, b: float, m: int):
    """Per-pixel (a, b^m) for builders whose hooks vanish, else None."""
    if name == "standard":
        return a, b ** m
    if name == "zero":
        return a, 0.0
    return None


def _row_henon_escape(a: np.ndarray, b: float, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    n_max = int(params.get("steps", _DEFAULT_ESCAPE_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
    name, m, extra = _map_config(params)
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


def _row_henon_lyap(a: np.ndarray, b: float, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    n_steps = int(params.get("n", _DEFAULT_EXPONENT_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
    name, m, extra = _map_config(params)
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


# ---------------------------------------------------------------------------
# renormalization kernels
# ---------------------------------------------------------------------------

def _row_renorm_strip(a: np.ndarray, b: float, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    word = str(params.get("word", "c1"))
    name, m, extra = _map_config(params)
    width = a.size
    tags = np.full(width, TAG_LYAP, dtype=np.uint8)
    values = np.zeros(width)
    for j in range(width):
        try:
            f = build_map(name, float(a[j]), b, m, **extra)
            values[j] = renormalize(f, word).abar
        except HenonLabError:
            tags[j] = TAG_ERROR
            values[j] = 0.0
    return tags, values


# --- embed-compare -----------------------------------------------------

def _embed_config(params: Mapping) -> dict:
    words = tuple(params.get("words", _EMBED_WORDS))
    if len(words) != 2:
        raise DomainError("embed-compare needs exactly two words")
    seed = params.get("seed", _EMBED_SEED)
    tol = float(params.get("tol", _EMBED_TOL))
    if not tol > 0.0:
        raise DomainError(f"tracking tolerance must be positive, got {tol!r}")
    return {
        "words": words,
        "seed": (float(seed[0]), float(seed[1])),
        "m": int(params.get("m", 1)),
        "tol": tol,
        "steps": int(params.get("steps", _DEFAULT_ESCAPE_STEPS)),
        "radius": float(params.get("radius", DEFAULT_ESCAPE_RADIUS)),
    }


def _embed_eval(x, anchors, words, m):
    md = multi_renormalize(
        HenonMap(x[0], x[1], m),
        words,
        anchor_seed=anchors,
        anchor_rtol=_EMBED_ANCHOR_RTOL,
    )
    return md, md.c


def _embed_jacobian(x, anchors, base, words, m):
    """Finite-difference 2x2 Jacobian of the rescaled-parameter pair."""
    h = 1e-9
    md_a, anchors = _embed_eval((x[0] + h, x[1]), anchors, words, m)
    md_b, anchors = _embed_eval((x[0], x[1] + h), anchors, words, m)
    return (
        (md_a.abar[0] - base[0]) / h,
        (md_b.abar[0] - base[0]) / h,
        (md_a.abar[1] - base[1]) / h,
        (md_b.abar[1] - base[1]) / h,
    ), anchors


def _embed_solve(target, x, anchors, J, cfg, max_iter=12):
    """Track the map whose rescaled parameters hit ``target``.

    Damped Newton with a frozen Jacobian, refreshed only when the iteration
    struggles; every evaluation reuses the previous tangency anchors.
    Returns (ok, x, anchors, J, md).
    """
    words, m, tol = cfg["words"], cfg["m"], cfg["tol"]
    md = None
    try:
        for attempt in range(max_iter):
            md, anchors = _embed_eval(x, anchors, words, m)
            g = (md.abar[0] - target[0], md.abar[1] - target[1])
            if max(abs(g[0]), abs(g[1])) <= tol:
                return True, x, anchors, J, md
            if J is None or attempt in (5, 9):
                J, anchors = _embed_jacobian(x, anchors, md.abar, words, m)
            det = J[0] * J[3] - J[1] * J[2]
            if det == 0.0:
                return False, x, anchors, J, md
            dx = (J[3] * g[0] - J[1] * g[1]) / det
            dy = (J[0] * g[1] - J[2] * g[0]) / det
            size = math.hypot(dx, dy)
            if size > _EMBED_STEP_CAP:
                scale = _EMBED_STEP_CAP / size
                dx *= scale
                dy *= scale
            x = (x[0] - dx, x[1] - dy)
    except HenonLabError:
        return False, x, anchors, J, md
    return False, x, anchors, J, md


def _embed_direct_bounded(md, x, m, n_composed, r_esc) -> bool:
    """Iterate the tracked map from the chart origin; True when the orbit
    stays inside the renormalization domain.

    One composed step is a full passage through both words plus the two
    fold steps, mirroring the period of the renormalized composition; the
    orbit escapes when its first chart coordinate first exceeds the same
    radius the one-dimensional classifier uses.
    """
    period = md.chains[0].order + md.chains[1].order + 2
    a, b = x
    bm = b ** m
    c0 = md.c[0]
    g0 = md.gamma[0]
    px, py = md.chart(0, 0.0, 0.0)
    # The standard map is written out rather than called through
    # ``henon.iterate``: this loop runs tens of thousands of steps per pixel,
    # and a function call per step would dominate the embed-compare raster.
    for _ in range(n_composed):
        for _ in range(period):
            px, py = px * px + a - bm * py, px
        if not abs(px) < 1e100:
            return False
        if abs((px - c0) / g0) > r_esc:
            return False
    return True


def _embed_row_states(a_targets, b_targets, cfg):
    """Serial walk down the left edge: each row's starting solution.

    Row tasks depend only on their stored state, so the subsequent row
    sweeps parallelize without changing any pixel.
    """
    x = cfg["seed"]
    anchors = None
    J = None
    states = []
    for i in range(b_targets.size):
        target = (float(a_targets[0]), float(b_targets[i]))
        ok, x_new, anchors_new, J, _ = _embed_solve(
            target, x, anchors, J, cfg, max_iter=40
        )
        if ok:
            x, anchors = x_new, anchors_new
        states.append((x, anchors, J))
    return states


def _row_embed_compare(a: np.ndarray, b: float, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    cfg = params["_embed_cfg"]
    x, anchors, J = params["_embed_state"]
    width = a.size
    tags = np.full(width, TAG_ERROR, dtype=np.uint8)
    values = np.zeros(width)
    n_composed, r_esc, m = cfg["steps"], cfg["radius"], cfg["m"]
    for j in range(width):
        target = (float(a[j]), float(b))
        ok, x_new, anchors_new, J, md = _embed_solve(target, x, anchors, J, cfg)
        if not ok:
            J = None
            continue
        x, anchors = x_new, anchors_new
        predicted = swallow_classify(target[0], target[1], n_composed, r_esc)
        predicted_bounded = predicted.steps_ab is None
        direct_bounded = _embed_direct_bounded(md, x, m, n_composed, r_esc)
        agree = predicted_bounded == direct_bounded
        tags[j] = TAG_AGREE if agree else TAG_DISAGREE
        values[j] = 1.0 if agree else 0.0
    return tags, values


_ROW_KERNELS: dict[str, Callable[[np.ndarray, float, Mapping], tuple[np.ndarray, np.ndarray]]] = {
    "swallow-escape": _row_swallow_escape,
    "swallow-lyap": _row_swallow_lyap,
    "henon-escape": _row_henon_escape,
    "henon-lyap": _row_henon_lyap,
    "renorm-strip": _row_renorm_strip,
    "embed-compare": _row_embed_compare,
}


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _row_payload(cfg: Mapping, i: int) -> tuple[int, np.ndarray, np.ndarray]:
    a = _a_centers(cfg["a_range"], cfg["width"])
    b = _b_centers(cfg["b_range"], cfg["height"])[i]
    params = dict(cfg["params"])
    if cfg["kernel"] == "embed-compare":
        params["_embed_cfg"] = cfg["embed_cfg"]
        params["_embed_state"] = cfg["embed_states"][i]
    tags, values = _ROW_KERNELS[cfg["kernel"]](a, float(b), params)
    return i, tags, values


def sweep(
    kernel: str,
    width: int,
    height: int,
    a_range: tuple[float, float] | None = None,
    b_range: tuple[float, float] | None = None,
    params: Mapping | None = None,
    workers: int | None = None,
) -> Raster:
    """Rasterize a kernel over a parameter rectangle, row by row.

    Rows are computed independently from immutable configuration, so the
    result is identical for every worker count.  Per-pixel numerical
    failures become error-tagged payloads; only configuration mistakes
    raise.
    """
    if kernel not in KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}; known: {KERNELS}")
    if width < 2 or height < 2:
        raise DomainError(f"grid must be at least 2x2, got {width}x{height}")
    default_a, default_b = DEFAULT_RANGES[kernel]
    a_range = tuple(float(v) for v in (a_range or default_a))
    b_range = tuple(float(v) for v in (b_range or default_b))
    if not (a_range[0] < a_range[1] and b_range[0] < b_range[1]):
        raise DomainError(f"empty parameter rectangle {a_range} x {b_range}")
    params = dict(params or {})
    for key in ("steps", "n"):
        if key in params and int(params[key]) < 1:
            raise DomainError(f"{key} must be at least 1, got {params[key]}")
    if "radius" in params and not float(params["radius"]) > 0.0:
        raise DomainError(f"escape radius must be positive, got {params['radius']}")
    if workers is None:
        workers = os.cpu_count() or 1

    cfg: dict = {
        "kernel": kernel,
        "width": width,
        "height": height,
        "a_range": a_range,
        "b_range": b_range,
        "params": params,
    }
    if kernel == "embed-compare":
        embed_cfg = _embed_config(params)
        cfg["embed_cfg"] = embed_cfg
        cfg["embed_states"] = _embed_row_states(
            _a_centers(a_range, width), _b_centers(b_range, height), embed_cfg
        )

    tags = np.empty((height, width), dtype=np.uint8)
    values = np.empty((height, width), dtype=np.float64)
    if workers <= 1:
        for i in range(height):
            _, tags[i], values[i] = _row_payload(cfg, i)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = pool.map(
                partial(_row_payload, cfg),
                range(height),
                chunksize=max(1, height // (4 * workers)),
            )
            for i, row_tags, row_values in rows:
                tags[i] = row_tags
                values[i] = row_values
    return Raster(width, height, a_range, b_range, kernel, tags, values)


def compare_summary(raster: Raster) -> dict[str, float]:
    """Agreement statistics of an embed-compare raster."""
    agree = int(np.count_nonzero(raster.tags == TAG_AGREE))
    disagree = int(np.count_nonzero(raster.tags == TAG_DISAGREE))
    errors = int(np.count_nonzero(raster.tags == TAG_ERROR))
    classified = agree + disagree
    return {
        "agree": agree,
        "disagree": disagree,
        "errors": errors,
        "classified": classified,
        "agreement": agree / classified if classified else 0.0,
    }


# ---------------------------------------------------------------------------
# emission and parsing
# ---------------------------------------------------------------------------

def render_ppm(raster: Raster, colormap: str | None = None) -> bytes:
    """Binary P6 image: exact header, then RGB triples row-major."""
    name = colormap or DEFAULT_COLORMAPS[raster.kernel]
    color = COLORMAPS[name]
    out = bytearray(f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii"))
    tags = raster.tags
    values = raster.values
    for i in range(raster.height):
        for j in range(raster.width):
            out.extend(color(int(tags[i, j]), float(values[i, j])))
    return bytes(out)


def render_csv(raster: Raster, colormap: str | None = None) -> str:
    """Text table: metadata comments, then a,b,payload,value per pixel."""
    name = colormap or DEFAULT_COLORMAPS[raster.kernel]
    a_lo, a_hi = raster.a_range
    b_lo, b_hi = raster.b_range
    lines = [
        "# henonlab-raster kernel=%s width=%d height=%d "
        "a_lo=%.17g a_hi=%.17g b_lo=%.17g b_hi=%.17g"
        % (raster.kernel, raster.width, raster.height, a_lo, a_hi, b_lo, b_hi),
        f"# colormap {name}: {_COLORMAP_NOTES[name]}",
        "a,b,payload,value",
    ]
    a_centers = raster.a_centers()
    b_centers = raster.b_centers()
    tags = raster.tags
    values = raster.values
    for i in range(raster.height):
        b = b_centers[i]
        for j in range(raster.width):
            lines.append(
                "%.17g,%.17g,%s,%.17g"
                % (a_centers[j], b, TAG_NAMES[tags[i, j]], values[i, j])
            )
    lines.append("")
    return "\n".join(lines)


def parse_csv(text: str) -> Raster:
    """Rebuild a raster from its CSV emission (exact round-trip)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# henonlab-raster "):
        raise DomainError("not a raster CSV: missing metadata line")
    meta: dict[str, str] = {}
    for token in lines[0][len("# henonlab-raster "):].split():
        key, _, value = token.partition("=")
        meta[key] = value
    try:
        kernel = meta["kernel"]
        width = int(meta["width"])
        height = int(meta["height"])
        a_range = (float(meta["a_lo"]), float(meta["a_hi"]))
        b_range = (float(meta["b_lo"]), float(meta["b_hi"]))
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed raster CSV metadata: {exc}") from None

    rows = [
        line for line in lines[1:]
        if line and not line.startswith("#") and line != "a,b,payload,value"
    ]
    if len(rows) != width * height:
        raise DomainError(
            f"raster CSV has {len(rows)} data rows, expected {width * height}"
        )
    tags = np.empty((height, width), dtype=np.uint8)
    values = np.empty((height, width), dtype=np.float64)
    for k, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != 4:
            raise DomainError(f"malformed raster CSV row {k + 1}: {line!r}")
        try:
            tags.flat[k] = _TAG_BY_NAME[fields[2]]
        except KeyError:
            raise DomainError(f"unknown payload {fields[2]!r} in row {k + 1}") from None
        values.flat[k] = float(fields[3])
    return Raster(width, height, a_range, b_range, kernel, tags, values)


def read_csv(path: str) -> Raster:
    with open(path, "r", encoding="ascii") as fh:
        return parse_csv(fh.read())


def emit(
    raster: Raster,
    fmt: str,
    path: str,
    colormap: str | None = None,
) -> None:
    """Write the raster to ``path`` ('-' for stdout) as ppm or csv."""
    if fmt == "ppm":
        payload = render_ppm(raster, colormap)
        if path == "-":
            import sys

            sys.stdout.buffer.write(payload)
        else:
            with open(path, "wb") as fh:
                fh.write(payload)
    elif fmt == "csv":
        text = render_csv(raster, colormap)
        if path == "-":
            import sys

            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
    else:
        raise DomainError(f"unknown format {fmt!r}; known: ('ppm', 'csv')")
