"""Deterministic parameter-plane rasters with PPM and CSV emission.

Six pixel kernels cover the composed-quadratic parameter plane (escape
classification and derivative-growth exponents), the Henon-family plane
(origin escape and tangent-growth exponents), per-pixel renormalization
output, and the agreement test between renormalized one-dimensional
predictions and direct two-dimensional orbits.  Every kernel computes a
block of rows, one block per worker.  The four orbit kernels (both
composed-quadratic kernels and both Henon kernels) iterate the whole block
per numpy step on one compacting loop; renorm-strip renormalizes its block
pixel by pixel.  embed-compare tracks its block's pixels in the workers and
runs its two orbit checks on that loop once per raster, over every tracked
pixel, in the calling process: the loop's cost is per numpy call rather
than per orbit, so a check per block would pay it once per worker.  Each
step of those checks runs a chunk of composed steps in place and tests
their positions at once, so that the checks pay the loop's bookkeeping
and escape test per chunk, not per composed step.  On
that loop the three escape checks (swallow-escape, henon-escape and the
embed-compare checks) also retire an orbit whose position repeats bit for
bit, which is exact because each step is a pure function of the position;
the exponent kernels run every step, since their payload sums a term per
step.  A raster is a pure function of its configuration: payloads never
depend on worker count, block size or evaluation order, so re-runs are
byte-identical.  PPM colours come from per-tag palettes applied to the
whole tag and value arrays.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Value
from typing import Callable, Mapping

import numpy as np

from .errors import ConvergenceError, DomainError, HenonLabError
from .henon import MAP_REGISTRY, ZERO_FIELD, HenonMap, build_map
from .maps1d import DEFAULT_ESCAPE_RADIUS, parse_word
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
_YELLOW = (255, 255, 0)
_BLACK = (0, 0, 0)


def _palette(colors: Mapping[int, tuple[int, int, int]]) -> np.ndarray:
    """RGB of every uint8 tag; tags not named get the error colour."""
    table = np.full((256, 3), _ERROR_RGB, dtype=np.uint8)
    for tag, rgb in colors.items():
        table[tag] = rgb
    return table


#: Per-tag colours of each colormap; "lyap" adds the exponent ramp of _shade_lyap.
COLORMAPS: dict[str, np.ndarray] = {
    "escape": _palette({TAG_ESCAPE: _YELLOW, TAG_BOUNDED: _BLACK}),
    "lyap": _palette({TAG_ESCAPE: _YELLOW, TAG_LYAP: _BLACK}),
    "class": _palette(
        {TAG_ESCAPE: _YELLOW, TAG_WING: (128, 128, 128), TAG_BODY: _BLACK, TAG_BOUNDED: _BLACK}
    ),
    "compare": _palette({TAG_AGREE: (255, 255, 255), TAG_DISAGREE: (255, 0, 0)}),
}


def _shade_lyap(rgb: np.ndarray, tags: np.ndarray, values: np.ndarray) -> None:
    """Exponents beyond +-0.01 get a red (negative) or blue (positive) ramp
    80 + round(175 min(1, |v|)), rounding half to even; the rest stay black."""
    lyap = tags == TAG_LYAP
    for channel, side in ((0, values < -0.01), (2, values > 0.01)):
        hit = lyap & side
        rgb[hit, channel] = 80.0 + np.rint(175.0 * np.minimum(1.0, np.abs(values[hit])))


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
# orbit kernels over row blocks
# ---------------------------------------------------------------------------
# The composed-quadratic kernels and the Henon kernels advance every pixel
# of a block of rows per numpy step, and the orbit checks of embed-compare
# every tracked pixel of the raster.  The live set
# is an index array that loses each orbit at the step it leaves, so late
# steps cost in proportion to the pixels still iterating; each step also
# pays a fixed cost per numpy call, which dominates on a few hundred orbits.
# Every operation is elementwise and keeps the order of the scalar
# recurrences, so a pixel's payload does not depend on the block it was
# computed in.

#: Pixels per orbit block; bounds the working arrays of one task, and the
#: history of a chunked check (``_chunked_bounded``) likewise.
_BLOCK_PIXELS = 1 << 14


def _run_orbits(advance, state: tuple[np.ndarray, ...], n_steps: int, position: int = 0):
    """Iterate per-orbit state up to n_steps, dropping orbits as they leave.

    ``state`` holds equal-length arrays, the orbit parameters included, so
    that they are compacted together.  ``advance(*state)`` returns the next
    state, the mask of orbits that left on this step, and either None or
    the mask of those among them that left because their tangent vector
    died.  Returns (left, dead, live, state): the step at which each orbit
    left (0 if it did not), the dead mask, the indices of the orbits still
    live after n_steps, and their state.

    With ``position`` > 0 the first ``position`` state arrays are the orbit's
    position and the others stay constant, and each step, its leave test
    included, depends on nothing but the position and those constants.  Then
    an orbit also retires, keeping ``left`` 0, when its position repeats bit
    for bit the one saved at the last power-of-two step, the start counting
    as step 0 (Brent's cycle detection).  A repeat at step k of the position
    of step s means that steps s+1..k, all of which stayed, recur forever, so
    the full loop would report 0 as well.  Positions are compared as int64
    bit patterns: equal bits give equal steps, NaNs included.  An orbit that
    leaves on the step its position repeats still records that step.  The
    exponent kernels keep position 0, as their payload sums a term over every
    one of the n_steps steps.
    """
    size = state[0].size
    left = np.zeros(size, dtype=np.int64)
    dead = np.zeros(size, dtype=bool)
    live = np.arange(size)
    marks = _position_bits(state, position)
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            if not live.size:
                break
            state, gone, stalled = advance(*state)
            drop = gone
            if position:
                drop = state[0].view(np.int64) == marks[0]
                for arr, mark in zip(state[1:position], marks[1:]):
                    drop &= arr.view(np.int64) == mark
                drop |= gone
            if drop.any():
                left[live[gone]] = step
                if stalled is not None:
                    dead[live[stalled]] = True
                keep = ~drop
                live = live[keep]
                state = tuple(arr[keep] for arr in state)
                marks = tuple(mark[keep] for mark in marks)
            if position and step & (step - 1) == 0:
                marks = _position_bits(state, position)
    return left, dead, live, state


def _position_bits(state: tuple[np.ndarray, ...], position: int) -> tuple[np.ndarray, ...]:
    """Copies of the first ``position`` state arrays as int64 bit patterns."""
    return tuple(arr.view(np.int64).copy() for arr in state[:position])


def _composed_orbits(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) offsets of the two alternating orbits of each pixel:
    x -> x^2+a -> x^2+b for every pixel row-major, then x -> x^2+b -> x^2+a."""
    a_px, b_px = np.tile(a, b.size), np.repeat(b, a.size)
    return np.concatenate((a_px, b_px)), np.concatenate((b_px, a_px))


def _composed_exits(left: np.ndarray, n: int):
    """(alive_ab, alive_ba, steps_ab, steps_ba) of n pixels' stacked orbits."""
    alive = left == 0
    return alive[:n], alive[n:], left[:n], left[n:]


def _composed_left(first: np.ndarray, second: np.ndarray, n_max: int, r_esc: float) -> np.ndarray:
    """Escape step of the orbit of 0 under x -> x^2+first -> x^2+second, or 0
    when it stays bounded for n_max composed steps.

    Both half-steps of composed step k report step k, the same counting as
    the scalar classifier.
    """
    def advance(x, first, second):
        x = x * x + first
        escaped = np.abs(x) > r_esc
        x = x * x + second
        return (x, first, second), escaped | (np.abs(x) > r_esc), None

    return _run_orbits(advance, (np.zeros(first.size), first, second), n_max, position=1)[0]


def _block_swallow_escape(a: np.ndarray, b: np.ndarray, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Escape classification of the composed orbits started at x = 0."""
    n_max = int(params.get("steps", _DEFAULT_ESCAPE_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
    left = _composed_left(*_composed_orbits(a, b), n_max, r_esc)
    n = a.size * b.size
    alive_ab, alive_ba, steps_ab, steps_ba = _composed_exits(left, n)

    tags = np.full(n, TAG_ESCAPE, dtype=np.uint8)
    tags[alive_ab & alive_ba] = TAG_BODY
    tags[alive_ab ^ alive_ba] = TAG_WING

    values = np.zeros(n)
    both = ~alive_ab & ~alive_ba
    values[both] = np.minimum(steps_ab, steps_ba)[both]
    values[alive_ab & ~alive_ba] = steps_ba[alive_ab & ~alive_ba]
    values[~alive_ab & alive_ba] = steps_ab[~alive_ab & alive_ba]
    return tags.reshape(b.size, a.size), values.reshape(b.size, a.size)


def _block_swallow_lyap(a: np.ndarray, b: np.ndarray, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Per-composed-step derivative-growth exponent of the composed orbits.

    Both orbits start at x = b; each composed step contributes
    log|2x| + log|2(x^2+first)| to the running total.
    """
    n_steps = int(params.get("n", _DEFAULT_EXPONENT_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
    first, second = _composed_orbits(a, b)

    def advance(x, total, first, second):
        total = total + np.log(2.0 * np.abs(x))
        x = x * x + first
        escaped = np.abs(x) > r_esc
        total = total + np.log(2.0 * np.abs(x))
        x = x * x + second
        return (x, total, first, second), escaped | (np.abs(x) > r_esc), None

    x0 = np.tile(np.repeat(b, a.size), 2)
    left, _, live, state = _run_orbits(
        advance, (x0, np.zeros(first.size), first, second), n_steps
    )
    n = a.size * b.size
    alive_ab, alive_ba, steps_ab, steps_ba = _composed_exits(left, n)
    exponent = np.zeros(2 * n)
    exponent[live] = state[1] / n_steps
    exp_ab, exp_ba = exponent[:n], exponent[n:]

    tags = np.full(n, TAG_LYAP, dtype=np.uint8)
    values = np.zeros(n)

    both_gone = ~alive_ab & ~alive_ba
    tags[both_gone] = TAG_ESCAPE
    values[both_gone] = np.minimum(steps_ab, steps_ba)[both_gone]

    only_ab = alive_ab & ~alive_ba
    values[only_ab] = exp_ab[only_ab]
    only_ba = alive_ba & ~alive_ab
    values[only_ba] = exp_ba[only_ba]
    both = alive_ab & alive_ba
    values[both] = 0.5 * (exp_ab[both] + exp_ba[both])
    return tags.reshape(b.size, a.size), values.reshape(b.size, a.size)


# ---------------------------------------------------------------------------
# Henon-plane kernels
# ---------------------------------------------------------------------------
# Every family runs on the compacting orbit loop above.  A family without
# hooks steps with numpy arithmetic.  A hooked family mirrors
# ``henon.apply_map``, ``henon.jacobian`` and the sup-norm test of the
# scalar references ``orbit_escape`` and ``lyapunov`` in ``tests/oracles.py``
# operation for operation, with its field evaluators, ``math.hypot`` and
# ``math.log`` applied to Python floats element by element: each pixel then
# gets the bytes of the scalar routines, where np.hypot and np.log may
# differ from them in the last bit.
# A step makes one elementwise pass for all its field terms and, for the
# exponent, one for the norm and its logarithm.


def _map_config(params: Mapping) -> tuple[str, int, dict]:
    name = str(params.get("map", "standard"))
    if name not in MAP_REGISTRY:
        raise DomainError(f"unknown map {name!r}; known: {sorted(MAP_REGISTRY)}")
    m = int(params.get("m", 1))
    extra = {}
    if "delta" in params:
        extra["delta"] = float(params["delta"])
    return name, m, extra


def _row_coefficient(name: str, b: float, m: int, extra: Mapping) -> float | None:
    """The coefficient b^m of a row's maps (0 on the zero map), or None when
    it overflows a float."""
    try:
        return build_map(name, 0.0, b, m, **extra).bm
    except DomainError:
        return None


def _henon_pixels(
    a: np.ndarray, b: np.ndarray, params: Mapping
) -> tuple[np.ndarray, np.ndarray, np.ndarray, HenonMap | None]:
    """Per-pixel (a, c) of a block, the mask of pixels whose row coefficient
    overflows (run with c = 0, tagged error), and the family's map at
    a = b = 0 when it has hooks, else None.  The registered families' hooks
    do not depend on (a, b), so that one map serves every pixel.

    c is worked out once per row as a Python float power and then
    broadcast, so every pixel sees the same bits as a scalar evaluation.
    """
    name, m, extra = _map_config(params)
    c = [_row_coefficient(name, float(row_b), m, extra) for row_b in b]
    overflow = np.repeat([v is None for v in c], a.size)
    c_px = np.repeat([0.0 if v is None else v for v in c], a.size)
    f = build_map(name, 0.0, 0.0, m, **extra)
    plain = f.zeta is ZERO_FIELD and f.xi is ZERO_FIELD
    return np.tile(a, b.size), c_px, overflow, None if plain else f


def _elementwise(fn: Callable[..., tuple[float, ...]], nout: int) -> Callable[..., tuple[np.ndarray, ...]]:
    """``fn`` of two floats applied to the Python floats of its two array
    arguments, element by element, in one pass: its ``nout`` results as
    float64 arrays."""
    ufunc = np.frompyfunc(fn, 2, nout)
    return lambda x, y: tuple(out.astype(np.float64) for out in ufunc(x, y))


def _hypot_log(wx: float, wy: float) -> tuple[float, float]:
    """math.hypot and its math.log, with -inf at 0, where math.log raises;
    such orbits leave as dead."""
    growth = math.hypot(wx, wy)
    return growth, math.log(growth) if growth != 0.0 else -math.inf


def _sup_exceeds(x: np.ndarray, y: np.ndarray, r_esc: float) -> np.ndarray:
    """max(|x|, |y|) > r_esc as Python's max orders it, NaNs included: |y| is
    taken only where it is the larger."""
    ax, ay = np.abs(x), np.abs(y)
    return np.where(ay > ax, ay, ax) > r_esc


def _block_henon_escape(a: np.ndarray, b: np.ndarray, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    n_max = int(params.get("steps", _DEFAULT_ESCAPE_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
    a_px, bm, overflow, f = _henon_pixels(a, b, params)

    if f is None:
        # x itself passed the previous step's test (step 1 starts at 0), so
        # the escape test needs only the new x
        def advance(x, y, a_px, bm):
            x_new = x * x + a_px - bm * y
            return (x_new, x, a_px, bm), np.abs(x_new) > r_esc, None
    else:
        zv, xv = f.zeta.value, f.xi.value
        fields = _elementwise(lambda x, v: (zv(x, v), xv(x, v)), 2)

        def advance(x, y, a_px, bm):
            v = bm * y
            zeta, xi = fields(x, v)
            x_new = x * x + a_px - v + zeta
            y_new = x + xi
            return (x_new, y_new, a_px, bm), _sup_exceeds(x_new, y_new, r_esc), None

    zeros = np.zeros(a_px.size)
    left = _run_orbits(advance, (zeros, zeros, a_px, bm), n_max, position=2)[0]
    tags = np.where(left > 0, TAG_ESCAPE, TAG_BOUNDED).astype(np.uint8)
    values = left.astype(np.float64)
    tags[overflow] = TAG_ERROR
    values[overflow] = 0.0
    return tags.reshape(b.size, a.size), values.reshape(b.size, a.size)


def _block_henon_lyap(a: np.ndarray, b: np.ndarray, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Tangent-growth exponent of the orbit of the origin along (0, 1)."""
    n_steps = int(params.get("n", _DEFAULT_EXPONENT_STEPS))
    r_esc = float(params.get("radius", DEFAULT_ESCAPE_RADIUS))
    a_px, bm, overflow, f = _henon_pixels(a, b, params)

    if f is None:
        def advance(x, y, vx, vy, total, a_px, bm):
            wx = 2.0 * x * vx - bm * vy
            growth = np.hypot(wx, vx)
            dead = growth == 0.0
            total = total + np.log(growth)
            vx, vy = wx / growth, vx / growth
            x_new = x * x + a_px - bm * y
            return (x_new, x, vx, vy, total, a_px, bm), dead | (np.abs(x_new) > r_esc), dead
    else:
        (zv, zdx, zdv), (xv, xdx, xdv) = ((g.value, g.dx, g.dv) for g in (f.zeta, f.xi))
        # every field term of a step in one elementwise pass, returned as a
        # tuple display: a generator costs more per element than the evaluators
        fields = _elementwise(lambda x, v: (zv(x, v), zdx(x, v), zdv(x, v),
                                            xv(x, v), xdx(x, v), xdv(x, v)), 6)
        norm = _elementwise(_hypot_log, 2)

        def advance(x, y, vx, vy, total, a_px, bm):
            v = bm * y
            zeta, zeta_dx, zeta_dv, xi, xi_dx, xi_dv = fields(x, v)
            wx = (2.0 * x + zeta_dx) * vx + bm * (zeta_dv - 1.0) * vy
            wy = (1.0 + xi_dx) * vx + bm * xi_dv * vy
            growth, log_growth = norm(wx, wy)
            dead = growth == 0.0
            total = total + log_growth
            vx, vy = wx / growth, wy / growth
            x_new = x * x + a_px - v + zeta
            y_new = x + xi
            return ((x_new, y_new, vx, vy, total, a_px, bm),
                    dead | _sup_exceeds(x_new, y_new, r_esc), dead)

    zeros = np.zeros(a_px.size)
    left, dead, live, state = _run_orbits(
        advance, (zeros, zeros, zeros, np.ones(a_px.size), zeros, a_px, bm), n_steps
    )
    tags = np.where(left > 0, TAG_ESCAPE, TAG_LYAP).astype(np.uint8)
    values = left.astype(np.float64)
    values[live] = state[4] / n_steps
    error = dead | overflow
    tags[error] = TAG_ERROR
    values[error] = 0.0
    return tags.reshape(b.size, a.size), values.reshape(b.size, a.size)


# ---------------------------------------------------------------------------
# renormalization kernels
# ---------------------------------------------------------------------------

def _check_word(word: str) -> None:
    """Reject a word that does not parse or has no quadratic factor (every
    token but e adds at least one to the order)."""
    if set(parse_word(word)) == {"e"}:
        raise DomainError(f"word {word!r} has no quadratic factors")


def _block_renorm_strip(a: np.ndarray, b: np.ndarray, params: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """abar of the word's renormalization at every pixel.  A pixel whose map
    or renormalization fails is error, every pixel of a row whose b^m
    overflows among them: ``HenonMap`` rejects such a b."""
    word = str(params.get("word", "c1"))
    name, m, extra = _map_config(params)
    tags = np.full((b.size, a.size), TAG_LYAP, dtype=np.uint8)
    values = np.zeros((b.size, a.size))
    for i, j in np.ndindex(tags.shape):
        try:
            f = build_map(name, float(a[j]), float(b[i]), m, **extra)
            values[i, j] = renormalize(f, word).abar
        except HenonLabError:
            tags[i, j] = TAG_ERROR
    return tags, values


# --- embed-compare -----------------------------------------------------
# Each pixel tracks the map x = (a, b) whose two-word renormalization puts
# the rescaled parameters (abar_0, abar_1) at the pixel's target: a serial
# walk down the left edge gives every row its starting state, then each row
# walks left to right.  A walk carries a secant model of the Jacobian of
# (abar_0, abar_1, c_0, c_1) over x, the c_i being the tangency anchors: its
# abar rows give the Newton steps, its anchor rows seed each anchor solve
# (Euler predictor, Newton corrector), and Broyden's rank-one update keeps
# it current after every evaluation.  A difference Jacobian is taken only
# at the seed and after a failed track.  Along a walk the first step of a
# track goes to the quadratic extrapolation of the last three solutions,
# so that a pixel mostly costs one renormalization, and the predicted
# anchors mostly pass as converged, so that one costs one jet per word.
# The rows walk in the workers; the orbit checks run once per raster
# (``_embed_checks``).

def _embed_config(params: Mapping) -> dict:
    words = tuple(params.get("words", _EMBED_WORDS))
    if len(words) != 2:
        raise DomainError("embed-compare needs exactly two words")
    for word in words:
        _check_word(str(word))
    m = int(params.get("m", 1))
    seed = params.get("seed")
    if seed is None:
        # The default seed is tuned for m = 1; other odd m keep its b^m.
        a1, b1 = _EMBED_SEED
        if m % 2 == 0:
            raise DomainError(f"no real b gives the default seed's b^m = {b1!r} at even "
                              f"m = {m}; give a tracking seed (--seed A,B)")
        seed = (a1, math.copysign(abs(b1) ** (1.0 / m), b1))
    try:
        seed_a, seed_b = (float(v) for v in seed)
    except (TypeError, ValueError):
        raise DomainError(f"tracking seed must be two numbers (a, b), got {seed!r}") from None
    tol = float(params.get("tol", _EMBED_TOL))
    if not tol > 0.0:
        raise DomainError(f"tracking tolerance must be positive, got {tol!r}")
    return {
        "words": words,
        "seed": (seed_a, seed_b),
        "m": m,
        "tol": tol,
        "steps": int(params.get("steps", _DEFAULT_ESCAPE_STEPS)),
        "radius": float(params.get("radius", DEFAULT_ESCAPE_RADIUS)),
    }


def _embed_eval(x, anchors, words, m):
    return multi_renormalize(
        HenonMap(x[0], x[1], m),
        words,
        anchor_seed=anchors,
        anchor_rtol=_EMBED_ANCHOR_RTOL,
    )


def _embed_values(md) -> tuple[float, ...]:
    """The tracked quantities of a solve: (abar_0, abar_1, c_0, c_1)."""
    return (md.abar[0], md.abar[1], md.c[0], md.c[1])


def _embed_jacobian(x, md, words, m):
    """Finite-difference Jacobian of ``_embed_values`` over (a, b) at x,
    where ``md`` is the solve: one (d/da, d/db) row per value."""
    h = 1e-9
    shifted_a = _embed_values(_embed_eval((x[0] + h, x[1]), md.c, words, m))
    shifted_b = _embed_values(_embed_eval((x[0], x[1] + h), md.c, words, m))
    return tuple(((va - v) / h, (vb - v) / h)
                 for v, va, vb in zip(_embed_values(md), shifted_a, shifted_b))


def _embed_step(model, g: tuple[float, float]) -> tuple[float, float]:
    """The Newton step of the model's abar rows against the residual g."""
    (ja, jb), (jc, jd) = model[0], model[1]
    det = ja * jd - jb * jc
    if det == 0.0:
        raise ConvergenceError("singular tracking model")
    return (jb * g[1] - jd * g[0]) / det, (jc * g[0] - ja * g[1]) / det


def _embed_solve(target, x, anchors, model, cfg, max_iter=12, md=None, guess=None):
    """Track the map whose rescaled parameters hit ``target``.

    Damped Newton on a secant model: ``model`` is the Jacobian of
    ``_embed_values`` over x = (a, b), laid out as ``_embed_jacobian``'s
    difference version, which is taken only when ``model`` is None, and
    Broyden-updated after every evaluation.  The abar rows give the Newton
    steps, and the anchor rows predict the anchors each evaluation starts
    from, so that the anchor solve mostly stops after its first step.  The
    first step goes to ``guess`` when one is given.  Every step is capped
    at _EMBED_STEP_CAP.  ``md`` is the renormalization already solved at
    the starting ``x``, such as the last solve of the previous pixel; when
    None, x is evaluated from ``anchors``.

    Returns (x, model, md, fit), md the solve at x and fit the next Newton
    iterate from x, or None when the track fails.
    """
    words, m, tol = cfg["words"], cfg["m"], cfg["tol"]
    try:
        if md is None:
            md = _embed_eval(x, anchors, words, m)
        if model is None:
            model = _embed_jacobian(x, md, words, m)
        for attempt in range(max_iter):
            g = (md.abar[0] - target[0], md.abar[1] - target[1])
            step = _embed_step(model, g)
            if max(abs(g[0]), abs(g[1])) <= tol:
                return x, model, md, (x[0] + step[0], x[1] + step[1])
            if attempt == max_iter - 1:
                break
            if attempt == 0 and guess is not None:
                step = (guess[0] - x[0], guess[1] - x[1])
            size = math.hypot(*step)
            if size > _EMBED_STEP_CAP:
                step = (step[0] * _EMBED_STEP_CAP / size, step[1] * _EMBED_STEP_CAP / size)
            x_new = (x[0] + step[0], x[1] + step[1])
            s = (x_new[0] - x[0], x_new[1] - x[1])
            predicted = [v + da * s[0] + db * s[1]
                         for v, (da, db) in zip(_embed_values(md), model)]
            md = _embed_eval(x_new, (predicted[2], predicted[3]), words, m)
            ss = s[0] * s[0] + s[1] * s[1]
            if ss > 0.0:
                # Broyden's rank-one update: the model now maps s to the change seen
                misses = [v - p for v, p in zip(_embed_values(md), predicted)]
                model = tuple((da + r * s[0] / ss, db + r * s[1] / ss)
                              for (da, db), r in zip(model, misses))
            x = x_new
    except HenonLabError:
        pass
    return None


def _embed_walk(targets, x, anchors, model, cfg, max_iter=12):
    """Track ``targets`` in order, each from the last solve that succeeded.

    Yields (x, anchors, model, md) after each target: md is its solve, or
    None where the track failed, and then the rest is the state the next
    target starts from: the last solved point and its anchors, with neither
    model nor solve, so that the point is evaluated afresh and the model
    differenced again.  Once three targets in a row have solved, the next
    track's first step goes to the quadratic extrapolation of their fits
    (the last step plus the second difference).  Fits, each solve's next
    Newton iterate, are used in place of the solved points, whose residuals
    of up to ``tol`` would otherwise dominate the second difference.
    """
    md = None
    fits = deque(maxlen=3)
    for target in targets:
        guess = None
        if len(fits) == 3:
            (a0, b0), (a1, b1), (a2, b2) = fits
            guess = (3.0 * (a2 - a1) + a0, 3.0 * (b2 - b1) + b0)
        out = _embed_solve(target, x, anchors, model, cfg, max_iter, md, guess)
        if out is None:
            model = md = None
            fits.clear()
        else:
            x, model, md, fit = out
            anchors = md.c
            fits.append(fit)
        yield x, anchors, model, md


def _embed_row_states(a_targets, b_targets, cfg):
    """Serial walk down the left edge: each row's starting state.

    A state is (x, anchors, model) as ``_embed_walk`` yields it after the
    row's first pixel, the secant model included, so a row continues the
    walk's model (and differences it again where that pixel failed).  Row
    tasks depend only on their stored state, so the subsequent row sweeps
    parallelize without changing any pixel.
    """
    targets = [(float(a_targets[0]), float(b)) for b in b_targets]
    walk = _embed_walk(targets, cfg["seed"], None, None, cfg, max_iter=40)
    return [(x, anchors, model) for x, anchors, model, _ in walk]


def _block_embed_compare(a: np.ndarray, b: np.ndarray, params: Mapping):
    """The tracks of a block of rows: the block's mask of tracked pixels,
    the orbit row of each tracked pixel in row-major order, and the period
    of the direct check (None when no pixel tracked).

    Each row walks left to right from its stored starting state
    (``_embed_walk``), evaluating that state's point once more since the
    state holds no solve, and a pixel whose track fails stays error.  An
    orbit row is (x, y, a, b^m, c_0, gamma_0): the chart origin of the
    first word, the tracked map and the chart the escape test reads.  The
    orbit checks run once per raster on every block's rows
    (``_embed_checks``), since their cost is per numpy call, not per orbit.
    """
    cfg = params["_embed_cfg"]
    tracked = np.zeros((b.size, a.size), dtype=bool)
    orbits, period = [], None
    for k, state in enumerate(params["_embed_states"]):
        targets = [(float(a_j), float(b[k])) for a_j in a]
        for j, (x, _, _, md) in enumerate(_embed_walk(targets, *state, cfg)):
            if md is None:
                continue
            tracked[k, j] = True
            orbits.append((*md.chart(0, 0.0, 0.0), x[0], x[1] ** cfg["m"], md.c[0], md.gamma[0]))
            # the same at every pixel: chain orders depend on the words alone
            period = md.chains[0].order + md.chains[1].order + 2
    return tracked, np.array(orbits, dtype=np.float64).reshape(-1, 6), period


def _embed_checks(walks, cfg: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Predicted against direct boundedness at every tracked pixel of the
    raster, from the blocks' ``_block_embed_compare`` results in row order.

    The prediction is the a-then-b composed orbit of the target
    (``_predicted_bounded``).  The direct check iterates the tracked map
    from the chart origin (``_direct_bounded``): one composed step is a
    full passage through both words plus the two fold steps, mirroring the
    period of the renormalized composition, and the orbit escapes when its
    first chart coordinate first exceeds the same radius the prediction
    uses.  Both run a chunk of composed steps per step of the orbit loop,
    so that their cost is per chunk, not per composed step.  Each orbit is
    elementwise, so no pixel depends on the blocks.
    """
    embed = cfg["params"]["_embed_cfg"]
    n_composed, r_esc = embed["steps"], embed["radius"]
    tracked = np.concatenate([mask for mask, _, _ in walks])
    tags = np.full(tracked.shape, TAG_ERROR, dtype=np.uint8)
    values = np.zeros(tracked.shape)
    if not tracked.any():
        return tags, values
    period = next(p for _, _, p in walks if p is not None)
    orbits = np.concatenate([rows for _, rows, _ in walks])
    direct = _direct_bounded(orbits, period, n_composed, r_esc)
    a = _a_centers(cfg["a_range"], cfg["width"])
    b = _b_centers(cfg["b_range"], cfg["height"])
    first = np.broadcast_to(a, tracked.shape)[tracked]
    second = np.broadcast_to(b[:, None], tracked.shape)[tracked]
    predicted = _predicted_bounded(first, second, n_composed, r_esc)
    agree = predicted == direct
    tags[tracked] = np.where(agree, TAG_AGREE, TAG_DISAGREE)
    values[tracked] = agree
    return tags, values


def _chunked_bounded(run_chunk, state: tuple[np.ndarray, ...], steps: int,
                     position: int, rows: int) -> np.ndarray:
    """Whether each orbit stays for ``steps`` composed steps, on
    ``_run_orbits`` with a chunk of composed steps per loop step.

    ``run_chunk(history, *state)`` runs one composed step per ``rows`` rows
    of ``history``, an array of (rows * chunk, orbits), in place on the
    state; it writes the values its escape test reads into those rows and
    returns ``advance``'s triple, the escape mask taken over the whole
    history.  Chunks hold max(1, min(steps, _BLOCK_PIXELS // orbits))
    composed steps, which bounds the history like a block's working arrays,
    and the last one stops at ``steps``.  Only ``left == 0`` is read, and
    that is exact at any chunk: an escape inside a chunk leaves at its
    chunk, and a position that repeats at a chunk's end is periodic, every
    test of its cycle passed.
    """
    lanes = state[0].size
    chunk = max(1, min(steps, _BLOCK_PIXELS // lanes))
    full, rest = divmod(steps, chunk)
    sizes = iter([chunk] * full + [rest] * (rest > 0))
    history = np.empty(rows * chunk * lanes)

    def advance(*state):
        n = state[0].size
        return run_chunk(history[:rows * next(sizes) * n].reshape(-1, n), *state)

    return _run_orbits(advance, state, full + (rest > 0), position)[0] == 0


def _direct_bounded(orbits: np.ndarray, period: int, steps: int, r_esc: float) -> np.ndarray:
    """Whether each orbit row (x, y, a, b^m, c_0, gamma_0) stays finite
    (below 1e100 in size) and within r_esc in the chart coordinate
    |(x - c_0) / gamma_0| after each of ``steps`` composed steps of
    ``period`` Henon steps.

    Each Henon step is x*x + a - b^m*y in that order, written in place.
    """
    def run_chunk(seen, px, py, a_px, bm, c0, g0):
        t = np.empty(px.size)
        for row in seen:
            for _ in range(period):
                np.multiply(px, px, t)
                np.add(t, a_px, t)
                np.multiply(bm, py, py)
                np.subtract(t, py, py)
                px, py = py, px
            row[...] = px
        escaped = ~(np.abs(seen) < 1e100) | (np.abs((seen - c0) / g0) > r_esc)
        return (px, py, a_px, bm, c0, g0), escaped.any(axis=0), None

    # contiguous copies, which the steps overwrite
    return _chunked_bounded(run_chunk, tuple(np.ascontiguousarray(orbits.T)), steps,
                            position=2, rows=1)


def _predicted_bounded(first: np.ndarray, second: np.ndarray, steps: int,
                       r_esc: float) -> np.ndarray:
    """``_composed_left(first, second, steps, r_esc) == 0``, each half-step
    of every composed step tested on the history."""
    def run_chunk(seen, x, first, second):
        last = x
        for row, add in zip(seen, (first, second) * (len(seen) // 2)):
            np.multiply(last, last, row)
            np.add(row, add, row)
            last = row
        x[...] = last
        return (x, first, second), (np.abs(seen) > r_esc).any(axis=0), None

    return _chunked_bounded(run_chunk, (np.zeros(first.size), first, second), steps,
                            position=1, rows=2)


#: Every raster kernel: (a, b_block, params) -> the block's result, which is
#: (tags, values) except for embed-compare (see ``_gather``).
_BLOCK_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray, Mapping], tuple]] = {
    "swallow-escape": _block_swallow_escape,
    "swallow-lyap": _block_swallow_lyap,
    "henon-escape": _block_henon_escape,
    "henon-lyap": _block_henon_lyap,
    "renorm-strip": _block_renorm_strip,
    "embed-compare": _block_embed_compare,
}


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _row_blocks(cfg: Mapping, workers: int) -> list[range]:
    """Row ranges of the tasks: one block per worker, of at most
    _BLOCK_PIXELS pixels unless a single row holds more."""
    height = cfg["height"]
    rows = max(1, min(-(-height // workers), _BLOCK_PIXELS // cfg["width"]))
    return [range(lo, min(lo + rows, height)) for lo in range(0, height, rows)]


def _block_payload(cfg: Mapping, rows: range) -> tuple:
    a = _a_centers(cfg["a_range"], cfg["width"])
    b = _b_centers(cfg["b_range"], cfg["height"])[rows.start:rows.stop]
    kernel = cfg["kernel"]
    params = dict(cfg["params"])
    if kernel == "embed-compare":
        params["_embed_states"] = cfg["embed_states"][rows.start:rows.stop]
    return _BLOCK_KERNELS[kernel](a, b, params)


#: The block counter of the sweep a pool child serves.  A synchronized value
#: reaches a child only by inheritance, so the pool's initializer sets it.
_child_counter = None


def _share_counter(counter) -> None:
    global _child_counter
    _child_counter = counter


def _drain(cfg: Mapping, blocks: list[range], counter=None) -> dict[int, tuple]:
    """Compute blocks until none is left, each time claiming the lowest
    unclaimed one from the shared counter (by default a pool child's):
    {block index: payload}.  A block that raises moves the counter past the
    last block, so that every process stops after the block it is on."""
    counter = _child_counter if counter is None else counter
    done = {}
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(blocks):
            return done
        try:
            done[k] = _block_payload(cfg, blocks[k])
        except BaseException:
            counter.value = len(blocks)
            raise


def _gather(payloads: list, cfg: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """The raster's (tags, values) from its blocks' results in row order:
    stacked, or for embed-compare the orbit checks over every block's tracks."""
    if cfg["kernel"] == "embed-compare":
        return _embed_checks(payloads, cfg)
    return (np.concatenate([tags for tags, _ in payloads]),
            np.concatenate([values for _, values in payloads]))


def sweep(
    kernel: str,
    width: int,
    height: int,
    a_range: tuple[float, float] | None = None,
    b_range: tuple[float, float] | None = None,
    params: Mapping | None = None,
    workers: int | None = None,
) -> Raster:
    """Rasterize a kernel over a parameter rectangle, one kernel call per block of rows.

    ``workers`` processes compute the blocks, the calling process being one
    of them: it forks min(workers, blocks) - 1 pool children, and each
    process claims the lowest unclaimed block from a shared counter until
    none is left (``_drain``).  ``None`` (auto) means one process per CPU
    this process may run on.  Blocks are computed independently from
    immutable configuration and gathered in row order (``_gather``).  For
    embed-compare the blocks return their tracks, and the orbit checks then
    run here, once over every tracked pixel.  No pixel depends on the block
    it falls in or the process that computed it, so the result is identical
    for every worker count.  Per-pixel numerical failures become
    error-tagged payloads; only configuration mistakes raise, and the first
    block to raise stops every process after its current block.
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
    for key in ("steps", "n", "m"):
        if key in params and int(params[key]) < 1:
            raise DomainError(f"{key} must be at least 1, got {params[key]}")
    # payload steps are float64, exact up to 2**53
    for key in ("steps", "n"):
        if key in params and int(params[key]) > 2**53:
            raise DomainError(f"{key} must be at most 2**53, got {params[key]}")
    if "radius" in params and not float(params["radius"]) > 0.0:
        raise DomainError(f"escape radius must be positive, got {params['radius']}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    if kernel == "renorm-strip":
        _check_word(str(params.get("word", "c1")))
    if kernel == "embed-compare":
        params["_embed_cfg"] = _embed_config(params)

    cfg: dict = {
        "kernel": kernel,
        "width": width,
        "height": height,
        "a_range": a_range,
        "b_range": b_range,
        "params": params,
    }
    if kernel == "embed-compare":
        cfg["embed_states"] = _embed_row_states(
            _a_centers(a_range, width), _b_centers(b_range, height), params["_embed_cfg"]
        )

    blocks = _row_blocks(cfg, workers)
    counter = Value("q", 0)
    children = min(workers, len(blocks)) - 1
    with (ProcessPoolExecutor(children, initializer=_share_counter, initargs=(counter,))
          if children else nullcontext()) as pool:
        futures = [pool.submit(_drain, cfg, blocks) for _ in range(children)]
        done = _drain(cfg, blocks, counter)
        for future in futures:
            done.update(future.result())
    tags, values = _gather([done[k] for k in range(len(blocks))], cfg)
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
    rgb = COLORMAPS[name][raster.tags]
    if name == "lyap":
        _shade_lyap(rgb, raster.tags, raster.values)
    header = f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii")
    return header + rgb.tobytes()


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
