"""The raster kernels that renormalize, loaded only when one of them runs:
renorm-strip, pixel by pixel, and embed-compare, the agreement test between
renormalized one-dimensional predictions and direct two-dimensional orbits.
embed-compare tracks its block's pixels in the workers and runs its two
orbit checks on the orbit loop of ``atlas`` once per raster, over every
tracked pixel, in the calling process: the loop's cost is per numpy call,
so a check per block would pay it once per worker.  Each step of a check
runs a chunk of composed steps in place and tests their positions at once,
and retires an orbit whose position repeats bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping

import numpy as np

from .atlas import (_BLOCK_PIXELS, TAG_AGREE, TAG_DISAGREE, TAG_ERROR, TAG_LYAP, Raster,
                    _checked, _number, _run_orbits)
from .errors import ConvergenceError, DomainError, HenonLabError
from .henon import HenonMap, build_map
from .maps1d import parse_word
from .renorm import multi_renormalize, renormalize

#: Near-zero rescaled-parameter point used to start embed-compare tracking.
_EMBED_SEED = (-1.8665368062, -2.44311150e-3)
_EMBED_WORDS = ("c1", "c1,bm0,bm0")
_EMBED_TOL = 1e-6
_EMBED_STEP_CAP = 1e-5
_EMBED_ANCHOR_RTOL = 1e-9


# ---------------------------------------------------------------------------
# renormalization kernels
# ---------------------------------------------------------------------------

def _check_word(word: str) -> None:
    """Reject a word that does not parse or has no quadratic factor (every
    token but e adds at least one to the order)."""
    if set(parse_word(word)) == {"e"}:
        raise DomainError(f"word {word!r} has no quadratic factors")


def _prepare_renorm_strip(params: Mapping, a: np.ndarray, b: np.ndarray) -> dict:
    _check_word(str(params.get("word", "c1")))
    return _checked(params, a, b)


def _block_renorm_strip(a: np.ndarray, b: np.ndarray, params: Mapping,
                        rows: range) -> tuple[np.ndarray, np.ndarray]:
    """abar of the word's renormalization at every pixel.  A pixel whose map
    or renormalization fails is error, every pixel of a row whose b^m
    overflows among them: ``HenonMap`` rejects such a b."""
    word = str(params.get("word", "c1"))
    tags = np.full((b.size, a.size), TAG_LYAP, dtype=np.uint8)
    values = np.zeros((b.size, a.size))
    for i, j in np.ndindex(tags.shape):
        try:
            f = build_map(params["map"], float(a[j]), float(b[i]), params["m"], params["delta"])
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

def _embed_config(params: Mapping, a: np.ndarray, b: np.ndarray) -> dict:
    """embed-compare's ``prepare``: the tracking configuration, with every
    row's starting state (``_embed_row_states``)."""
    params = _checked(params, a, b)
    words = tuple(params.get("words", _EMBED_WORDS))
    if len(words) != 2:
        raise DomainError("embed-compare needs exactly two words")
    for word in words:
        _check_word(str(word))
    m = params["m"]
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
    tol = _number("tol", params.get("tol", _EMBED_TOL))
    if not tol > 0.0:
        raise DomainError(f"tracking tolerance must be positive, got {tol!r}")
    cfg = {"words": words, "seed": (seed_a, seed_b), "m": m, "tol": tol,
           "steps": params["steps"], "radius": params["radius"]}
    cfg["states"] = _embed_row_states(a, b, cfg)
    return cfg


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


def _block_embed_compare(a: np.ndarray, b: np.ndarray, cfg: Mapping, rows: range):
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
    tracked = np.zeros((b.size, a.size), dtype=bool)
    orbits, period = [], None
    for k, state in enumerate(cfg["states"][rows.start:rows.stop]):
        targets = [(float(a_j), float(b[k])) for a_j in a]
        for j, (x, _, _, md) in enumerate(_embed_walk(targets, *state, cfg)):
            if md is None:
                continue
            tracked[k, j] = True
            orbits.append((*md.chart(0, 0.0, 0.0), x[0], x[1] ** cfg["m"], md.c[0], md.gamma[0]))
            # the same at every pixel: chain orders depend on the words alone
            period = md.chains[0].order + md.chains[1].order + 2
    return tracked, np.array(orbits, dtype=np.float64).reshape(-1, 6), period


def _embed_checks(walks, cfg: Mapping, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    n_composed, r_esc = cfg["steps"], cfg["radius"]
    tracked = np.concatenate([mask for mask, _, _ in walks])
    tags = np.full(tracked.shape, TAG_ERROR, dtype=np.uint8)
    values = np.zeros(tracked.shape)
    if not tracked.any():
        return tags, values
    period = next(p for _, _, p in walks if p is not None)
    orbits = np.concatenate([rows for _, rows, _ in walks])
    direct = _direct_bounded(orbits, period, n_composed, r_esc)
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
    """``atlas._composed_left(first, second, steps, r_esc) == 0``, each
    half-step of every composed step tested on the history."""
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
