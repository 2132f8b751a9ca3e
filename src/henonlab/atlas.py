"""Deterministic parameter-plane rasters with PPM and CSV emission.

``sweep`` computes a raster in blocks of rows of at most ``_BLOCK_PIXELS``
pixels, which its processes claim from a shared counter, and drives every
kernel through one table, ``KERNELS`` (see ``Kernel``).  The four orbit
kernels live here: escape classification and derivative-growth exponents
on the composed-quadratic parameter plane, origin escape and tangent-growth
exponents on the Henon-family plane.  They iterate a whole
block per numpy step on one compacting loop, on which the escape kernels
also retire an orbit whose position repeats bit for bit: that is exact,
since each step is a pure function of the position.  The kernels that
renormalize live in ``embed``.  A raster is a pure function of its
configuration: payloads never depend on worker count, block size or
evaluation order, so re-runs are byte-identical.  PPM colours come from
per-tag palettes applied to the whole tag and value arrays.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from multiprocessing import get_context
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError
from .henon import ZERO_FIELD, Frozen, HenonMap, build_map
from .maps1d import DEFAULT_ESCAPE_RADIUS

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

_DEFAULT_ESCAPE_STEPS = 2000
_DEFAULT_EXPONENT_STEPS = 10_000


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


_set = object.__setattr__


class Raster(Frozen):
    """Pixel grid over a parameter rectangle; row 0 holds the largest b.

    Pixel (i, j) is the cell center a = a_lo + (j+1/2)*da,
    b = b_hi - (i+1/2)*db.  ``tags`` holds payload codes (see TAG_NAMES),
    ``values`` the numeric part of each payload: escape step, exponent,
    agreement flag, or zero where the tag alone carries the meaning.
    Rasters compare by their arrays' contents and are not hashable.
    """

    __slots__ = _fields = ("width", "height", "a_range", "b_range", "kernel", "tags", "values")

    def __init__(self, width: int, height: int, a_range: tuple[float, float],
                 b_range: tuple[float, float], kernel: str, tags: np.ndarray,
                 values: np.ndarray):
        _set(self, "width", width)
        _set(self, "height", height)
        _set(self, "a_range", a_range)
        _set(self, "b_range", b_range)
        _set(self, "kernel", kernel)
        _set(self, "tags", tags)
        _set(self, "values", values)

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


def _shade_lyap(rgb: np.ndarray, tags: np.ndarray, values: np.ndarray) -> None:
    """Exponents beyond +-0.01 get a red (negative) or blue (positive) ramp
    80 + round(175 min(1, |v|)), rounding half to even; the rest stay black."""
    lyap = tags == TAG_LYAP
    for channel, side in ((0, values < -0.01), (2, values > 0.01)):
        hit = lyap & side
        rgb[hit, channel] = 80.0 + np.rint(175.0 * np.minimum(1.0, np.abs(values[hit])))


class Colormap(NamedTuple):
    """RGB per tag, the legend a CSV prints, and an optional in-place shade."""

    palette: np.ndarray
    note: str
    shade: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None


COLORMAPS: dict[str, Colormap] = {
    "escape": Colormap(
        _palette({TAG_ESCAPE: _YELLOW, TAG_BOUNDED: _BLACK}),
        "bounded->black; escape->yellow(255,255,0); error->magenta(255,0,255)",
    ),
    "lyap": Colormap(
        _palette({TAG_ESCAPE: _YELLOW, TAG_LYAP: _BLACK}),
        "escape->yellow(255,255,0); |value|<=0.01->black; "
        "value<-0.01->red ramp 80..255; value>0.01->blue ramp 80..255; "
        "error->magenta(255,0,255)",
        _shade_lyap,
    ),
    "class": Colormap(
        _palette({TAG_ESCAPE: _YELLOW, TAG_WING: (128, 128, 128), TAG_BODY: _BLACK,
                  TAG_BOUNDED: _BLACK}),
        "escape->yellow(255,255,0); wing->gray(128,128,128); body->black; "
        "error->magenta(255,0,255)",
    ),
    "compare": Colormap(
        _palette({TAG_AGREE: (255, 255, 255), TAG_DISAGREE: (255, 0, 0)}),
        "agree->white(255,255,255); disagree->red(255,0,0); "
        "error->magenta(255,0,255)",
    ),
}


# ---------------------------------------------------------------------------
# orbit kernels over row blocks
# ---------------------------------------------------------------------------
# The composed-quadratic kernels and the Henon kernels advance every pixel
# of a block of rows per numpy step, and the orbit checks of embed-compare
# (``embed``) every tracked pixel of the raster.  The live set
# is an index array that loses each orbit at the step it leaves, so late
# steps cost in proportion to the pixels still iterating; each step also
# pays a fixed cost per numpy call, which dominates on a few hundred orbits.
# Every operation is elementwise and keeps the order of the scalar
# recurrences, so a pixel's payload does not depend on the block it was
# computed in.

#: Pixels per orbit block; bounds the working arrays of one task, and the
#: history of a chunked check (``embed._chunked_bounded``) likewise.
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


def _block_swallow_escape(a: np.ndarray, b: np.ndarray, params: Mapping,
                          rows: range) -> tuple[np.ndarray, np.ndarray]:
    """Escape classification of the composed orbits started at x = 0."""
    n_max, r_esc = params["steps"], params["radius"]
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


def _block_swallow_lyap(a: np.ndarray, b: np.ndarray, params: Mapping,
                        rows: range) -> tuple[np.ndarray, np.ndarray]:
    """Per-composed-step derivative-growth exponent of the composed orbits.

    Both orbits start at x = b; each composed step contributes
    log|2x| + log|2(x^2+first)| to the running total.
    """
    n_steps, r_esc = params["n"], params["radius"]
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


def _henon_pixels(
    a: np.ndarray, b: np.ndarray, params: Mapping
) -> tuple[np.ndarray, np.ndarray, np.ndarray, HenonMap | None]:
    """Per-pixel (a, c) of a block, c = b^m of the row's map (0 on the zero
    map), the mask of pixels whose c overflows a float (run with c = 0,
    tagged error), and the family's map at a = b = 0 when it has hooks,
    else None.  The families' hooks do not depend on (a, b), so that one
    map serves every pixel.

    c is worked out once per row as a Python float power and then
    broadcast, so every pixel sees the same bits as a scalar evaluation.
    """
    c = []
    for row_b in b:
        try:
            c.append(build_map(params["map"], 0.0, float(row_b), params["m"], params["delta"]).bm)
        except DomainError:
            c.append(None)
    overflow = np.repeat([v is None for v in c], a.size)
    c_px = np.repeat([0.0 if v is None else v for v in c], a.size)
    f = build_map(params["map"], 0.0, 0.0, params["m"], params["delta"])
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


def _block_henon_escape(a: np.ndarray, b: np.ndarray, params: Mapping,
                        rows: range) -> tuple[np.ndarray, np.ndarray]:
    n_max, r_esc = params["steps"], params["radius"]
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


def _block_henon_lyap(a: np.ndarray, b: np.ndarray, params: Mapping,
                      rows: range) -> tuple[np.ndarray, np.ndarray]:
    """Tangent-growth exponent of the orbit of the origin along (0, 1)."""
    n_steps, r_esc = params["n"], params["radius"]
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
# the kernel table
# ---------------------------------------------------------------------------

def _number(key: str, value) -> float:
    """The value of parameter ``key`` as a float, or DomainError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{key} must be a number, got {value!r}") from None


def _checked(params: Mapping, a: np.ndarray, b: np.ndarray) -> dict:
    """``params`` with the counts steps, n and m, the escape radius, the
    map family name and the perturbation amplitude delta checked and their
    defaults filled in.  This is the ``prepare`` of the orbit kernels, which
    read nothing of the pixel centres a and b."""
    checked = dict(params)
    # payload steps are float64, exact up to 2**53
    for key, default, top in (("steps", _DEFAULT_ESCAPE_STEPS, 2**53),
                              ("n", _DEFAULT_EXPONENT_STEPS, 2**53), ("m", 1, math.inf)):
        value = params.get(key, default)
        try:
            count = int(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{key} must be an integer, got {value!r}") from None
        # int() truncates a number, but parses only an integral string
        if count != value and not isinstance(value, str):
            raise DomainError(f"{key} must be an integer, got {value!r}")
        if count < 1:
            raise DomainError(f"{key} must be at least 1, got {value}")
        if count > top:
            raise DomainError(f"{key} must be at most 2**53, got {value}")
        checked[key] = count
    checked["radius"] = _number("radius", params.get("radius", DEFAULT_ESCAPE_RADIUS))
    if not checked["radius"] > 0.0:
        raise DomainError(f"escape radius must be positive, got {checked['radius']}")
    checked["map"] = str(params.get("map", "standard"))
    build_map(checked["map"], 0.0, 0.0)  # rejects an unknown name
    checked["delta"] = _number("delta", params.get("delta", 0.01))
    return checked


def _stack(parts: list, prepared: Mapping, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks' (tags, values), stacked in row order."""
    return (np.concatenate([tags for tags, _ in parts]),
            np.concatenate([values for _, values in parts]))


def _embed(name: str) -> Callable:
    """``embed.<name>``, imported at its first call in the process making it."""
    def call(*args):
        return getattr(importlib.import_module(f"{__package__}.embed"), name)(*args)
    return call


class Kernel(NamedTuple):
    """A raster kernel: its default window (a_range, b_range) and colormap,
    and its steps.  ``prepare(params, a, b)`` checks the parameters once, in
    the calling process, and returns what every block reads.  ``block(a,
    b_rows, prepared, rows)`` computes the raster rows ``rows``, whose b
    centres are ``b_rows``, in any process.  ``gather(parts, prepared, a,
    b)`` makes the raster's (tags, values) from the blocks' results in row
    order, in the calling process."""

    window: tuple[tuple[float, float], tuple[float, float]]
    colormap: str
    block: Callable
    prepare: Callable = _checked
    gather: Callable = _stack


KERNELS: dict[str, Kernel] = {
    "swallow-escape": Kernel(((-2.2, 0.6), (-2.2, 0.6)), "class", _block_swallow_escape),
    "swallow-lyap": Kernel(((-2.2, 0.6), (-2.2, 0.6)), "lyap", _block_swallow_lyap),
    "henon-escape": Kernel(((-2.2, 0.6), (-0.6, 0.6)), "escape", _block_henon_escape),
    "henon-lyap": Kernel(((-2.2, 0.6), (-0.6, 0.6)), "lyap", _block_henon_lyap),
    "renorm-strip": Kernel(((-1.8650, -1.8580), (-1.5e-3, 1.5e-3)), "lyap",
                           _embed("_block_renorm_strip"), _embed("_prepare_renorm_strip")),
    "embed-compare": Kernel(((-2.1, 0.4), (-2.1, 0.4)), "compare", _embed("_block_embed_compare"),
                            _embed("_embed_config"), _embed("_embed_checks")),
}

# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _row_blocks(cfg: Mapping, workers: int) -> list[range]:
    """Row ranges of the tasks: an even share of the rows per worker, cut
    to at most _BLOCK_PIXELS pixels unless a single row holds more, so a
    raster may have more blocks than workers (400x400 at 2 workers has 10)."""
    height = cfg["height"]
    rows = max(1, min(-(-height // workers), _BLOCK_PIXELS // cfg["width"]))
    return [range(lo, min(lo + rows, height)) for lo in range(0, height, rows)]


def _block_payload(cfg: Mapping, rows: range) -> tuple:
    a = _a_centers(cfg["a_range"], cfg["width"])
    b = _b_centers(cfg["b_range"], cfg["height"])[rows.start:rows.stop]
    return KERNELS[cfg["kernel"]].block(a, b, cfg["prepared"], rows)


#: The block counter of the sweep a pool child serves.  A synchronized value
#: reaches a child only by inheritance, so the pool's initializer sets it.
_child_counter = None


def _share_counter(counter) -> None:
    global _child_counter
    _child_counter = counter


def _drain(cfg: Mapping, blocks: list[range], counter=None) -> dict[int, tuple]:
    """Compute blocks until none is left, each time claiming the lowest
    unclaimed one from the block counter (by default a pool child's):
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
    this process may run on.  The kernel's ``prepare`` runs here before the
    blocks and its ``gather`` after them (see ``Kernel``).  Blocks are
    computed independently from immutable configuration and gathered in row
    order.  No pixel depends on the block it falls in or the process that
    computed it, so the result is identical for every worker count.
    Per-pixel numerical failures become error-tagged payloads; only
    configuration mistakes raise, and the first block to raise stops every
    process after its current block.
    """
    if kernel not in KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}; known: {tuple(KERNELS)}")
    if width < 2 or height < 2:
        raise DomainError(f"grid must be at least 2x2, got {width}x{height}")
    spec = KERNELS[kernel]
    default_a, default_b = spec.window
    a_range = tuple(float(v) for v in (a_range or default_a))
    b_range = tuple(float(v) for v in (b_range or default_b))
    if not (a_range[0] < a_range[1] and b_range[0] < b_range[1]):
        raise DomainError(f"empty parameter rectangle {a_range} x {b_range}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    a, b = _a_centers(a_range, width), _b_centers(b_range, height)
    cfg = {"kernel": kernel, "width": width, "height": height, "a_range": a_range,
           "b_range": b_range, "prepared": spec.prepare(params or {}, a, b)}
    blocks = _row_blocks(cfg, workers)
    children = min(workers, len(blocks)) - 1
    if not children:
        # nothing to share the counter with, so no shared memory either
        done = _drain(cfg, blocks, SimpleNamespace(value=0, get_lock=nullcontext))
    else:
        # the counter's lock must come from the start method of the pool's children
        context = get_context()
        counter = context.Value("q", 0)
        with ProcessPoolExecutor(children, mp_context=context, initializer=_share_counter,
                                 initargs=(counter,)) as pool:
            futures = [pool.submit(_drain, cfg, blocks) for _ in range(children)]
            done = _drain(cfg, blocks, counter)
            for future in futures:
                done.update(future.result())
    tags, values = spec.gather([done[k] for k in range(len(blocks))], cfg["prepared"], a, b)
    return Raster(width, height, a_range, b_range, kernel, tags, values)


# ---------------------------------------------------------------------------
# emission and parsing
# ---------------------------------------------------------------------------

def render_ppm(raster: Raster, colormap: str | None = None) -> bytes:
    """Binary P6 image: exact header, then RGB triples row-major."""
    cmap = COLORMAPS[colormap or KERNELS[raster.kernel].colormap]
    rgb = cmap.palette[raster.tags]
    if cmap.shade is not None:
        cmap.shade(rgb, raster.tags, raster.values)
    header = f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def render_csv(raster: Raster, colormap: str | None = None) -> str:
    """Text table: metadata comments, then a,b,payload,value per pixel."""
    name = colormap or KERNELS[raster.kernel].colormap
    a_lo, a_hi = raster.a_range
    b_lo, b_hi = raster.b_range
    lines = [
        "# henonlab-raster kernel=%s width=%d height=%d "
        "a_lo=%.17g a_hi=%.17g b_lo=%.17g b_hi=%.17g"
        % (raster.kernel, raster.width, raster.height, a_lo, a_hi, b_lo, b_hi),
        f"# colormap {name}: {COLORMAPS[name].note}",
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


def emit(raster: Raster, fmt: str, path: str, colormap: str | None = None) -> None:
    """Write the raster to ``path`` ('-' for stdout) as ppm or csv."""
    if fmt == "ppm":
        payload = render_ppm(raster, colormap)
        if path == "-":
            if not hasattr(sys.stdout, "buffer"):
                raise DomainError("stdout takes only text: use --out PATH or --format csv")
            sys.stdout.buffer.write(payload)
        else:
            with open(path, "wb") as fh:
                fh.write(payload)
    elif fmt == "csv":
        text = render_csv(raster, colormap)
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
    else:
        raise DomainError(f"unknown format {fmt!r}; known: ('ppm', 'csv')")
