"""Quadratic-family core tests.

Expected values are frozen from closed-form radicals evaluated in the tests
themselves (the independent oracle for the ladder and the small pieces).
"""

import math

import pytest
from henonlab import maps1d
from hypothesis import given, settings, strategies as st

from henonlab.errors import DomainError, HenonLabError, LadderError, ProductError, WordError
from henonlab.maps1d import (
    Piece1D,
    dalpha2_da,
    iterate_quad,
    ladder,
    parse_word,
    piece_1d,
    pieces_1d,
    quad,
    special_parameters,
    star,
    swallow_boundary,
    swallow_classify,
)

A1, A2 = special_parameters()


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def test_ladder_a0():
    lad = ladder(0.0)
    assert lad.alpha == 0.0
    assert lad.beta == 1.0


def test_ladder_minus_three_quarters():
    lad = ladder(-0.75)
    assert abs(lad.alpha + 0.5) < 1e-12
    assert abs(lad.beta - 1.5) < 1e-12


def test_ladder_chebyshev_radicals():
    lad = ladder(-2.0)
    assert abs(lad.alpha + 1.0) < 1e-12
    assert abs(lad.beta - 2.0) < 1e-12
    assert abs(lad.alpha0 - 1.0) < 1e-12
    assert abs(lad.alpha1 - math.sqrt(3.0)) < 1e-12
    assert abs(lad.alpha2 - math.sqrt(2.0 + math.sqrt(3.0))) < 1e-12
    assert abs(lad.alpha3 - math.sqrt(2.0 + math.sqrt(2.0 + math.sqrt(3.0)))) < 1e-12
    assert abs(lad.tilde_alpha2 - math.sqrt(2.0 - math.sqrt(3.0))) < 1e-12


def test_ladder_domain_error():
    with pytest.raises(DomainError):
        ladder(0.3)


def test_ladder_rung_error():
    # alpha0 - a < 0 for small positive a: alpha1 does not exist
    assert ladder(0.2).alpha1 is None
    with pytest.raises(LadderError):
        ladder(0.2).require("alpha1")
    with pytest.raises(LadderError):
        piece_1d("s-", 0.2)


def test_ladder_residuals_on_grid():
    for i in range(100):
        a = -2.0 + (A1 - 0.01 + 2.0) * i / 99.0
        lad = ladder(a)
        for rung, parent in (
            (lad.alpha1, lad.alpha0),
            (lad.alpha2, lad.alpha1),
            (lad.alpha3, lad.alpha2),
            (lad.tilde_alpha2, -lad.alpha1),
        ):
            assert abs(quad(a, rung) - parent) < 1e-12
        assert abs(quad(a, lad.alpha) - lad.alpha) < 1e-12
        assert abs(quad(a, lad.beta) - lad.beta) < 1e-12
        assert lad.tilde_alpha2 < lad.alpha0 < lad.alpha1 < lad.alpha2 < lad.alpha3 < lad.beta


@given(st.floats(min_value=-2.0, max_value=-1.56))
def test_ladder_residual_property(a):
    lad = ladder(a)
    assert abs(quad(a, lad.alpha1) - lad.alpha0) < 1e-12
    assert abs(quad(a, lad.tilde_alpha2) + lad.alpha1) < 1e-12


# ---------------------------------------------------------------------------
# special parameters
# ---------------------------------------------------------------------------

def test_special_parameters_brackets_and_residuals():
    assert -1.56 <= A1 <= -1.52
    assert -1.90 <= A2 <= -1.88
    assert abs(A1 + ladder(A1).alpha1) < 1e-11
    assert abs(A2 + ladder(A2).alpha2) < 1e-11


def test_special_parameters_orbit_identities():
    for a, k in ((A1, 3), (A2, 4)):
        x = 0.0
        for _ in range(k):
            x = quad(a, x)
        assert abs(x - ladder(a).alpha) < 1e-9


def test_dalpha2_range():
    for i in range(50):
        a = A2 + (A1 - A2) * i / 49.0
        assert -0.55 <= dalpha2_da(a) <= -0.28


def test_dalpha2_matches_central_difference():
    h = 1e-6
    for i in range(51):
        a = A2 + (A1 - A2) * i / 50.0
        fd = (ladder(a + h).alpha2 - ladder(a - h).alpha2) / (2.0 * h)
        assert abs(dalpha2_da(a) - fd) <= 1e-8 * abs(fd)


# ---------------------------------------------------------------------------
# pieces and star products
# ---------------------------------------------------------------------------

def test_piece_s_minus_chebyshev():
    p = piece_1d("s-", -2.0)
    assert p.order == 2
    assert p.branch_signs == (-1, -1)
    assert abs(p.lo + 1.0) < 1e-12
    assert abs(p.hi + math.sqrt(2.0 - math.sqrt(3.0))) < 1e-12


def test_piece_w_equal_chebyshev():
    p = piece_1d("w=", -2.0)
    assert p.order == 2
    assert p.branch_signs == (-1, 1)
    assert abs(p.lo + math.sqrt(2.0 + math.sqrt(3.0))) < 1e-12
    assert abs(p.hi + math.sqrt(3.0)) < 1e-12


def test_piece_word_c1_at_a2():
    p = piece_1d("w=,s+", A2)
    lad = ladder(A2)
    assert p.order == 4
    assert p.branch_signs == (-1, 1, 1, -1)
    assert -lad.alpha2 <= p.lo < p.hi <= -lad.alpha1
    # oracle: midpoint itinerary stays on the declared branches
    x = p.midpoint
    for s in p.branch_signs:
        assert (x < 0) == (s < 0)
        x = quad(A2, x)
    # c1 alias builds the same piece
    q = piece_1d("c1", A2)
    assert abs(q.lo - p.lo) < 1e-12 and abs(q.hi - p.hi) < 1e-12


def test_puzzle_piece_images_are_full():
    lad = ladder(-1.95)
    for word in ("w+", "w-", "w=", "w=3", "s+", "s-", "c1", "c3"):
        p = piece_1d(word, -1.95)
        assert abs(p.image_lo + lad.alpha0) < 1e-9
        assert abs(p.image_hi - lad.alpha0) < 1e-9


def test_c_pieces_nested_and_accumulating():
    lad = ladder(A2)
    prev = None
    for m in range(0, 13):
        p = piece_1d(f"c{m}", A2)
        assert p.order == 2 + 2 * m
        assert abs(p.lo + lad.alpha2) < 1e-9
        if prev is not None:
            assert p.hi <= prev.hi + 1e-12
        prev = p
    assert prev.width < 1e-4


def test_c_piece_endpoint_orbit():
    # left endpoint of every c_m (m >= 1) exits at -alpha0
    lad = ladder(-1.95)
    for m in (1, 2, 3):
        p = piece_1d(f"c{m}", -1.95)
        x = p.lo
        for _ in range(p.order):
            x = quad(-1.95, x)
        assert abs(x + lad.alpha0) < 1e-7


def test_boundary_pieces():
    a = -1.95
    lad = ladder(a)
    for token, j in (("bm0", 0), ("bp0", 0), ("bm1", 1), ("bp2", 2)):
        p = piece_1d(token, a)
        assert p.order == 3 + 2 * j
        assert (p.lo < 0) == token.startswith("bm")
        # image endpoints verified by direct iteration of the segment ends
        ends = sorted((_iter(a, p.lo, p.order), _iter(a, p.hi, p.order)))
        assert abs(ends[0] - p.image_lo) < 1e-7
        assert abs(ends[1] - p.image_hi) < 1e-7
    p0 = piece_1d("bm0", a)
    assert abs(p0.image_lo + lad.alpha0) < 1e-9 and abs(p0.image_hi - lad.tilde_alpha2) < 1e-9
    p1 = piece_1d("bm1", a)
    assert abs(p1.image_lo + lad.tilde_alpha2) < 1e-9 and abs(p1.image_hi - lad.alpha0) < 1e-9


def _iter(a, x, n):
    for _ in range(n):
        x = quad(a, x)
    return x


def test_iterate_quad():
    assert iterate_quad(-1.9, 0.3, 0) == 0.3
    for n in range(1, 8):
        assert iterate_quad(-1.9, 0.3, n) == _iter(-1.9, 0.3, n)


def test_star_undefined_raises():
    a = -1.95
    with pytest.raises(ProductError):
        star(piece_1d("bm0", a), piece_1d("w=", a))


def test_twin_word_order():
    # c_k * b_j * bm0 has order 2k + 2j + 8
    a = -1.95
    for k, j in ((1, 0), (2, 1), (3, 2)):
        p = piece_1d(f"c{k},bm{j},bm0", a)
        assert p.order == 2 * k + 2 * j + 8


def _rebuilt_c_piece(k, a, lad):
    piece = maps1d._base_piece("w=", a, lad)
    if k >= 1:
        piece = star(piece, maps1d._base_piece("s+", a, lad))
    for _ in range(k - 1):
        piece = star(piece, maps1d._base_piece("s-", a, lad))
    return piece


def _rebuilt_boundary_piece(token, a, lad):
    j = int(token[2:])
    cj = _rebuilt_c_piece(j, a, lad)
    cj1 = _rebuilt_c_piece(j + 1, a, lad)
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
    if j == 0:
        img = (-lad.alpha0, lad.require("tilde_alpha2"))
    else:
        img = (-lad.require("tilde_alpha2"), lad.alpha0)
    mid = 0.5 * (lo + hi)
    return maps1d.Piece1D((token,), a, lo, hi, n, maps1d._midpoint_signs(a, mid, n),
                          img[0], img[1])


def _rebuilt_piece(word, a):
    """The builder that makes every factor afresh, token by token."""
    lad = ladder(a)
    piece = None
    for token in parse_word(word):
        if token.startswith("c"):
            factor = _rebuilt_c_piece(int(token[1:]), a, lad)
        elif token.startswith("b"):
            factor = _rebuilt_boundary_piece(token, a, lad)
        else:
            factor = maps1d._base_piece(token, a, lad)
        piece = factor if piece is None else star(piece, factor)
    return piece


def _outcome(build, word, a):
    try:
        return repr(build(word, a))
    except (LadderError, ProductError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("word", ["c1", "c2", "c1,bm0", "c1,bm0,bm0", "c2,bp1,bm0"])
def test_shared_factors_build_the_same_piece(word):
    # -1.7 has no gap preimage, -0.25 no tilde_alpha2 and 0.0 an empty gap
    kinds = set()
    for a in (-1.95, -1.8665368062, -1.7, -0.25, 0.0):
        expected = _outcome(_rebuilt_piece, word, a)
        assert _outcome(piece_1d, word, a) == expected
        kinds.add(expected.split("(")[0].split(":")[0])
    assert {"Piece1D", "LadderError"} <= kinds
    assert ("ProductError" in kinds) == ("b" in word)


#: Word lists built at one a together: the embed-compare pair, the core
#: width's c levels, the cone certificate's alphabet at j = 1, and lists
#: with an order-zero word or a malformed one after a good one.
PIECE_LISTS = [
    ("c1", "c1,bm0,bm0"),
    ("c2", "c3"),
    ("s-", "s+", "bm0", "bp0", "bm1", "bp1", "c3", "c0"),
    ("c1,bp0,bm0", "c1,bm0", "c2,bp1,bm0"),
    ("e", "c1", "zz", "c2"),
]


def _one_by_one(words, a):
    """``piece_1d`` of each word in turn up to the first error, which is
    recorded by class and message."""
    out = []
    for word in words:
        try:
            out.append(piece_1d(word, a))
        except HenonLabError as exc:
            return out + [(type(exc).__name__, str(exc))]
    return out


def _together(words, a):
    out = []
    try:
        out.extend(pieces_1d(words, a))
    except HenonLabError as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


@pytest.mark.parametrize("words", PIECE_LISTS)
def test_pieces_1d_match_one_word_at_a_time(words):
    kinds = set()
    for k in range(2001):
        a = -2.1 + 2.4 * k / 2000  # up to 0.3, past the fixed points' 1/4
        expected = _one_by_one(words, a)
        assert _together(words, a) == expected
        kinds.add("Piece1D" if isinstance(expected[-1], Piece1D) else expected[-1][0])
    assert {"LadderError", "DomainError"} <= kinds
    assert ("WordError" in kinds) == ("Piece1D" not in kinds) == ("zz" in words)


def test_pieces_1d_builds_each_word_when_asked():
    pieces = pieces_1d(("c1", "zz"), -1.86)
    assert next(pieces) == piece_1d("c1", -1.86)
    with pytest.raises(WordError):
        next(pieces)


def test_parse_word_errors():
    with pytest.raises(WordError) as err:
        parse_word("s-,xx")
    assert err.value.position == 3
    with pytest.raises(WordError):
        parse_word("")
    with pytest.raises(WordError):
        parse_word("s-,,w=")


@pytest.mark.parametrize("tokens", [(), []])
def test_piece_of_empty_token_sequence_is_word_error(tokens):
    with pytest.raises(WordError, match="empty word") as err:
        piece_1d(tokens, -1.86)
    assert err.value.position == 0


# ---------------------------------------------------------------------------
# swallow classification and boundary curves
# ---------------------------------------------------------------------------

def test_swallow_body_origin():
    c = swallow_classify(0.0, 0.0)
    assert c.tag == "body"
    assert c.steps_ab is None and c.steps_ba is None


def test_swallow_escape():
    c = swallow_classify(-2.5, -2.5, n_max=50)
    assert c.tag == "escape"
    assert c.steps_ab is not None and c.steps_ba is not None


def test_swallow_wing_exists():
    found = False
    for i in range(40):
        for j in range(40):
            a = -2.2 + 2.8 * i / 39.0
            b = -2.2 + 2.8 * j / 39.0
            if swallow_classify(a, b, n_max=400).tag == "wing":
                found = True
                break
        if found:
            break
    assert found


@settings(max_examples=30)
@given(
    st.floats(min_value=-2.2, max_value=0.6),
    st.floats(min_value=-2.2, max_value=0.6),
)
def test_swallow_symmetry(a, b):
    c1 = swallow_classify(a, b, n_max=200)
    c2 = swallow_classify(b, a, n_max=200)
    assert c1.tag == c2.tag
    assert c1.steps_ab == c2.steps_ba
    assert c1.steps_ba == c2.steps_ab


def test_c1_known_point():
    a, b = math.sqrt(2.0) - 1.0, -1.0
    # Q_b(Q_a(b)) = -b and multiplier 4b(b^2+a) < -1
    value = quad(b, quad(a, b))
    assert abs(value + b) < 1e-12
    assert abs(4.0 * b * (b * b + a) + 4.0 * math.sqrt(2.0)) < 1e-12
    poly = swallow_boundary("C1", (-1.2, -0.4), 30)
    assert poly.points
    for (pa, pb) in poly.points:
        assert abs(quad(pb, quad(pa, pb)) + pb) < 1e-10
        assert 4.0 * pb * (pb * pb + pa) < -1.0


def test_c2_symmetry():
    poly1 = swallow_boundary("C1", (-1.2, -0.4), 15)
    poly2 = swallow_boundary("C2", (-1.2, -0.4), 15)
    for (a1v, b1v), (a2v, b2v) in zip(poly1.points, poly2.points):
        assert abs(a1v - b2v) < 1e-12
        assert abs(b1v - a2v) < 1e-12


def test_c3_known_point_and_samples():
    poly = swallow_boundary("C3", (-0.5, 0.25), 31)
    assert poly.points
    pa, pb = poly.points[-1]
    assert abs(pa - 0.25) < 1e-9 and abs(pb - 0.25) < 1e-9
    for (a, b) in poly.points:
        # oracle: re-solve the fixed point near the fold and check both equations
        from henonlab.rootfind import newton_safeguarded

        X = newton_safeguarded(
            lambda x: 4.0 * x * (x * x + a) - 1.0, 0.5, df=lambda x: 4.0 * (x * x + a) + 8.0 * x * x
        )
        assert abs(quad(b, quad(a, X)) - X) < 1e-9
        assert X > 0.0
