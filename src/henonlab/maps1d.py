"""Quadratic-family core.

The map is Q_a(x) = x^2 + a. This module builds the ladder of marked points
(fixed points and their distinguished preimages), the two special parameters
where the critical orbit closes on ladder points, symbolic 1-D pieces with
their star products, and the composed-quadratic swallow geometry in the
(a, b) parameter plane.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ConvergenceError, DomainError, LadderError, ProductError, WordError, whole_number
from .rootfind import bisect, newton2

__all__ = [
    "QuadraticLadder",
    "Piece1D",
    "SwallowClassification",
    "BoundaryPolyline",
    "quad",
    "ladder",
    "special_parameters",
    "parse_word",
    "iterate_quad",
    "piece_1d",
    "pieces_1d",
    "star",
    "swallow_classify",
    "swallow_boundary",
    "DEFAULT_ESCAPE_RADIUS",
]

DEFAULT_ESCAPE_RADIUS = 10.0

_WORD_TOKEN = re.compile(r"^(e|w\+|w-|w=3|w=|s\+|s-|c(\d+)|b[mp](\d+))$")


def quad(a: float, x: float) -> float:
    """Q_a(x) = x^2 + a."""
    return x * x + a


def iterate_quad(a: float, x: float, n: int) -> float:
    """Q_a^n(x), the n-th image of x (x itself for n = 0)."""
    for _ in range(n):
        x = quad(a, x)
    return x


# ---------------------------------------------------------------------------
# ladder and special parameters
# ---------------------------------------------------------------------------

class QuadraticLadder(NamedTuple):
    """Marked points of Q_a: fixed points and the preimage ladder.

    Rungs that do not exist at this parameter (negative radicand) are None;
    `require` raises LadderError on access to a missing rung.
    """

    a: float
    alpha: float
    beta: float
    alpha0: float
    alpha1: float | None
    alpha2: float | None
    alpha3: float | None
    tilde_alpha2: float | None

    def require(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise LadderError(f"rung {name} does not exist at a={self.a!r}")
        return value


def _rung(parent: float | None, a: float) -> float | None:
    if parent is None:
        return None
    radicand = parent - a
    if radicand < 0.0:
        return None
    return math.sqrt(radicand)


def ladder(a: float) -> QuadraticLadder:
    """Fixed points alpha < beta and the preimage ladder of alpha0 = -alpha.

    alpha1, alpha2, alpha3 are the positive Q-preimages of the previous rung;
    tilde_alpha2 is the positive preimage of -alpha1.
    """
    if a >= 0.25:
        raise DomainError(f"fixed points are complex for a={a!r} >= 1/4")
    disc = math.sqrt(1.0 - 4.0 * a)
    alpha = 0.5 * (1.0 - disc)
    beta = 0.5 * (1.0 + disc)
    alpha0 = -alpha
    alpha1 = _rung(alpha0, a)
    alpha2 = _rung(alpha1, a)
    alpha3 = _rung(alpha2, a)
    tilde_alpha2 = _rung(-alpha1 if alpha1 is not None else None, a)
    return QuadraticLadder(a, alpha, beta, alpha0, alpha1, alpha2, alpha3, tilde_alpha2)


def _alpha1_of(a: float) -> float:
    return ladder(a).require("alpha1")


def _alpha2_of(a: float) -> float:
    return ladder(a).require("alpha2")


def special_parameters() -> tuple[float, float]:
    """Parameters where the critical orbit closes on the ladder.

    a1 solves a + alpha1(a) = 0 in [-1.56, -1.52], a2 solves a + alpha2(a) = 0
    in [-1.90, -1.88]. Both are cross-checked against the equivalent orbit
    identities Q^3(0) = alpha and Q^4(0) = alpha before being returned.
    """
    a1 = bisect(lambda a: a + _alpha1_of(a), -1.56, -1.52)
    a2 = bisect(lambda a: a + _alpha2_of(a), -1.90, -1.88)
    for a, k in ((a1, 3), (a2, 4)):
        lad = ladder(a)
        x = iterate_quad(a, 0.0, k)
        if abs(x - lad.alpha) > 1e-9:
            raise ConvergenceError(
                f"orbit identity Q^{k}(0)=alpha violated at a={a!r}: residual {x - lad.alpha!r}"
            )
    return a1, a2


# ---------------------------------------------------------------------------
# 1-D pieces and star products
# ---------------------------------------------------------------------------

class Piece1D(NamedTuple):
    """A symbolic word with its monotone segment under Q_a^order."""

    word: tuple[str, ...]
    a: float
    lo: float
    hi: float
    order: int
    branch_signs: tuple[int, ...]
    image_lo: float
    image_hi: float

    @property
    def segment(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def image(self) -> tuple[float, float]:
        return (self.image_lo, self.image_hi)


def parse_word(text: str) -> tuple[str, ...]:
    """Parse a comma-separated word string into validated tokens.

    Accepted tokens: e, w+, w-, w=, w=3, s+, s-, c<k>, bm<j>, bp<j>.
    """
    tokens: list[str] = []
    position = 0
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            raise WordError(f"empty token at position {position}", position)
        if not _WORD_TOKEN.match(token):
            raise WordError(f"unknown token {token!r} at position {position}", position)
        tokens.append(token)
        position += len(raw) + 1
    if not tokens:
        raise WordError("empty word", 0)
    return tuple(tokens)


def _midpoint_signs(a: float, x: float, n: int) -> tuple[int, ...]:
    signs = []
    for _ in range(n):
        signs.append(-1 if x < 0.0 else 1)
        x = quad(a, x)
    return tuple(signs)


def _factor(token: str, a: float, lad: QuadraticLadder, built: dict[str, Piece1D]) -> Piece1D:
    """The piece of one token, built at most once per word: ``built`` holds
    the pieces made so far, shared by the c and boundary builders."""
    piece = built.get(token)
    if piece is None:
        if token.startswith("c"):
            piece = _c_piece(int(token[1:]), a, lad, built)
        elif token.startswith("bm") or token.startswith("bp"):
            piece = _boundary_piece(token, a, lad, built)
        else:
            piece = _base_piece(token, a, lad)
        built[token] = piece
    return piece


def _base_piece(token: str, a: float, lad: QuadraticLadder) -> Piece1D:
    l, req = lad, lad.require
    if token == "e":
        seg, n = (-l.alpha0, l.alpha0), 0
    elif token == "w+":
        seg, n = (l.alpha0, req("alpha1")), 1
    elif token == "w-":
        seg, n = (-req("alpha1"), -l.alpha0), 1
    elif token == "w=":
        seg, n = (-req("alpha2"), -req("alpha1")), 2
    elif token == "w=3":
        seg, n = (-req("alpha3"), -req("alpha2")), 3
    elif token == "s+":
        seg, n = (req("tilde_alpha2"), l.alpha0), 2
    elif token == "s-":
        seg, n = (-l.alpha0, -req("tilde_alpha2")), 2
    else:
        raise WordError(f"unknown token {token!r}")
    lo, hi = seg
    mid = 0.5 * (lo + hi)
    img = sorted((iterate_quad(a, lo, n), iterate_quad(a, hi, n)))
    return Piece1D((token,), a, lo, hi, n, _midpoint_signs(a, mid, n), img[0], img[1])


def _c_piece(k: int, a: float, lad: QuadraticLadder, built: dict[str, Piece1D]) -> Piece1D:
    """c0 = w=, c1 = c0 * s+ and c_i = c_{i-1} * s-; each level is kept in
    ``built``."""
    piece = _factor("w=", a, lad, built)
    for i in range(1, k + 1):
        key = f"c{i}"
        if key not in built:
            built[key] = star(piece, _factor("s+" if i == 1 else "s-", a, lad, built))
        piece = built[key]
    return piece


def _boundary_piece(token: str, a: float, lad: QuadraticLadder, built: dict[str, Piece1D]) -> Piece1D:
    """Piece over the gap between consecutive c_j segments, pulled back one
    step on the negative (bm) or positive (bp) branch."""
    j = int(token[2:])
    cj = _c_piece(j, a, lad, built)
    cj1 = _c_piece(j + 1, a, lad, built)
    gap_lo, gap_hi = cj1.hi, cj.hi
    if gap_hi - gap_lo <= 0.0:
        raise ProductError(f"empty gap between c{j} and c{j + 1} at a={a!r}")
    lo_r, hi_r = gap_hi - a, gap_lo - a
    if hi_r < 0.0:
        raise LadderError(f"gap preimage does not exist at a={a!r}")
    lo_r = max(lo_r, 0.0)
    if token.startswith("bm"):
        lo, hi = -math.sqrt(lo_r), -math.sqrt(hi_r)
    else:
        lo, hi = math.sqrt(hi_r), math.sqrt(lo_r)
        lo, hi = min(lo, hi), max(lo, hi)
    n = cj.order + 1
    # image equals Q^{n_j}(gap): the full exit range of the gap region
    if j == 0:
        img = (-lad.alpha0, lad.require("tilde_alpha2"))
    else:
        img = (-lad.require("tilde_alpha2"), lad.alpha0)
    mid = 0.5 * (lo + hi)
    return Piece1D((token,), a, lo, hi, n, _midpoint_signs(a, mid, n), img[0], img[1])


def _pull_back(target: float, signs: Sequence[int], a: float) -> float:
    """Preimage of a target through a branch itinerary, innermost step last."""
    x = target
    for s in reversed(signs):
        radicand = x - a
        if radicand < -1e-13:
            raise ProductError(f"pullback left the domain (radicand {radicand!r})")
        x = s * math.sqrt(max(radicand, 0.0))
    return x


def star(piece: Piece1D, other: Piece1D) -> Piece1D:
    """Star product: restrict `piece` to the preimage of `other`'s segment.

    Defined only when `other` sits inside the image of `piece`.
    """
    if piece.a != other.a:
        raise ProductError("star product across different parameters")
    tol = 1e-12 * max(1.0, abs(piece.image_lo), abs(piece.image_hi))
    if other.lo < piece.image_lo - tol or other.hi > piece.image_hi + tol:
        raise ProductError(
            f"product undefined: segment [{other.lo!r}, {other.hi!r}] of "
            f"{','.join(other.word)} is not contained in the image "
            f"[{piece.image_lo!r}, {piece.image_hi!r}] of {','.join(piece.word)}"
        )
    a = piece.a
    e1 = _pull_back(other.lo, piece.branch_signs, a)
    e2 = _pull_back(other.hi, piece.branch_signs, a)
    lo, hi = min(e1, e2), max(e1, e2)
    n = piece.order + other.order
    mid = 0.5 * (lo + hi)
    return Piece1D(
        piece.word + other.word, a, lo, hi, n,
        _midpoint_signs(a, mid, n), other.image_lo, other.image_hi,
    )


def pieces_1d(words: Iterable[str | Sequence[str]], a: float) -> Iterator[Piece1D]:
    """Build the 1-D pieces of several words at parameter a, in order.

    One ladder and one table of built factors serve every word, so that a
    factor or c_j level that several words share is built once.  Each word
    is parsed and built only when its piece is asked for, so the pieces,
    and any error with its message, come as from one ``piece_1d`` call per
    word in turn."""
    lad = None
    built: dict[str, Piece1D] = {}
    for word in words:
        tokens = parse_word(word) if isinstance(word, str) else tuple(word)
        if not tokens:
            raise WordError("empty word", 0)
        if lad is None:
            lad = ladder(a)
        piece = _factor(tokens[0], a, lad, built)
        for token in tokens[1:]:
            piece = star(piece, _factor(token, a, lad, built))
        yield piece


def piece_1d(word: str | Sequence[str], a: float) -> Piece1D:
    """Build the 1-D piece of a word at parameter a."""
    return next(pieces_1d((word,), a))


# ---------------------------------------------------------------------------
# swallow geometry of composed quadratics
# ---------------------------------------------------------------------------

class SwallowClassification(NamedTuple):
    """Joint boundedness tags of the two composed critical orbits.

    steps_* is the composed-step index at which the orbit escaped, or None
    when it stayed bounded for the whole run.
    """

    tag: str  # escape | wing | body
    steps_ab: int | None
    steps_ba: int | None


def _composed_escape(first: float, second: float, n_max: int, r_esc: float) -> int | None:
    """Escape step of the orbit of 0 under Q_second . Q_first, or None."""
    x = 0.0
    for step in range(1, n_max + 1):
        x = quad(first, x)
        if abs(x) > r_esc:
            return step
        x = quad(second, x)
        if abs(x) > r_esc:
            return step
    return None


def swallow_classify(
    a: float, b: float, n_max: int = 2000, r_esc: float = DEFAULT_ESCAPE_RADIUS
) -> SwallowClassification:
    """Classify finite (a, b) by boundedness of both composed critical orbits."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"swallow parameters must be finite, got ({a!r}, {b!r})")
    n_max = whole_number("n_max", n_max)
    steps_ab = _composed_escape(a, b, n_max, r_esc)
    steps_ba = _composed_escape(b, a, n_max, r_esc)
    if steps_ab is None and steps_ba is None:
        tag = "body"
    elif steps_ab is None or steps_ba is None:
        tag = "wing"
    else:
        tag = "escape"
    return SwallowClassification(tag, steps_ab, steps_ba)


class BoundaryPolyline(NamedTuple):
    curve: str
    points: tuple[tuple[float, float], ...]
    skipped: tuple[float, ...]


def _c1_point(b: float) -> tuple[float, float] | None:
    if b >= 0.0:
        return None
    a = -b * b + math.sqrt(-2.0 * b)
    # membership requires the multiplier constraint strictly
    if 4.0 * b * (b * b + a) < -1.0:
        return (a, b)
    return None


def swallow_boundary(
    curve: str, sample_range: tuple[float, float], n_samples: int
) -> BoundaryPolyline:
    """Sample one of the three boundary curves of the swallow body.

    C1: the composed critical value of Q_b.Q_a returns to its negative with
    multiplier < -1 (closed form in b). C2 is the (a,b)-swap of C1. C3 is the
    saddle-node locus of the composition, solved by a 2x2 Newton in (X, a)
    per sample with continuation along b.
    """
    n_samples = whole_number("n_samples", n_samples)
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    t0, t1 = sample_range
    if not math.isfinite(t1 - t0):
        raise DomainError(f"sample range {tuple(sample_range)!r} is not finite")
    ts = [t0 + (t1 - t0) * i / (n_samples - 1) for i in range(n_samples)]
    points: list[tuple[float, float]] = []
    skipped: list[float] = []

    if curve in ("C1", "C2"):
        for t in ts:
            pt = _c1_point(t)
            if pt is None:
                skipped.append(t)
            else:
                points.append(pt if curve == "C1" else pt[::-1])
    elif curve == "C3":
        # continuation anchored at the known saddle-node (X, a) = (1/2, 1/4)
        # at b = 1/4: walk the samples starting from the end nearest to it
        reverse = abs(ts[-1] - 0.25) < abs(ts[0] - 0.25)
        if reverse:
            ts = ts[::-1]
        seed = (0.5, 0.25)
        for b in ts:
            def FJ(v, b=b):
                X, a = v
                u = X * X + a
                return ((u * u + b - X, 4.0 * X * u - 1.0),
                        ((4.0 * X * u - 1.0, 2.0 * u), (4.0 * u + 8.0 * X * X, 4.0 * X)))

            try:
                X, a = newton2(FJ, seed)
            except ConvergenceError:
                skipped.append(b)
                continue
            if 2.0 * X <= 0.0:  # transversality side of the saddle-node
                skipped.append(b)
                continue
            seed = (X, a)
            points.append((a, b))
        if reverse:
            points.reverse()
    else:
        raise DomainError(f"unknown curve {curve!r}")
    return BoundaryPolyline(curve, tuple(points), tuple(skipped))


# ---------------------------------------------------------------------------
# parameter derivative of the ladder
# ---------------------------------------------------------------------------

def dalpha2_da(a: float) -> float:
    """Derivative of the alpha2 rung in the parameter: the chain rule down
    the ladder alpha0 = -alpha, alpha_{k+1} = sqrt(alpha_k - a)."""
    lad = ladder(a)
    d_alpha0 = -1.0 / math.sqrt(1.0 - 4.0 * a)
    d_alpha1 = (d_alpha0 - 1.0) / (2.0 * lad.require("alpha1"))
    return (d_alpha1 - 1.0) / (2.0 * lad.require("alpha2"))
