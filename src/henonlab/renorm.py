"""Renormalization around quadratic tangencies of strip return maps.

A word's cross map, together with one explicit application of the map
through the fold, defines a return to an affine chart anchored at the
tangency. In that chart the return is a small perturbation of the quadratic
family; the chart data (anchor, slopes, defect, curvature) produce the
renormalized parameters. A two-word cycle version renormalizes to a pair of
quadratics and underlies twin-attractor hunting.
"""

from __future__ import annotations

import math
from itertools import pairwise
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .crossmap import (
    CrossJet,
    CrossMapChain,
    _built_map,
    eval_cross,
    eval_cross_jet,
    eval_cross_param_jet,
    factorize_chain,
    factorize_chains,
)
from .errors import (
    BracketError,
    BranchError,
    ConvergenceError,
    DomainError,
    HenonLabError,
    LadderError,
    NoCrossingError,
    TangencyError,
)
from .henon import (
    AttractorReport,
    HenonMap,
    _cycle_pass,
    apply_map,
    evaluate,
    find_attractors,
    iterate,
    jacobian,
)
from .maps1d import ladder, parse_word, pieces_1d, special_parameters
from .rootfind import _converged, bisect, newton2, newton_safeguarded

__all__ = [
    "TangencyData",
    "RenormData",
    "RenormWindow",
    "MultiRenormData",
    "DoubleTangency",
    "TwinResult",
    "ConeCertificate",
    "find_tangency",
    "renormalize",
    "solve_mu_zero",
    "renorm_window",
    "multi_renormalize",
    "double_tangency",
    "twin_find",
    "certify_cone_expansion",
]

_MIN_CURVATURE = 1e-3


class _Fold(NamedTuple):
    """Fold terms of one word of a cycle; see ``_fold_terms``."""

    mu: float
    slope: float
    curv: float
    dslope_other: float
    dmu_other: float


def _fold_terms(f: HenonMap, c: float, own: CrossJet, nxt: CrossJet) -> _Fold:
    """Defect, slope and curvature of the fold leaving a word's strip.

    ``own`` is the word's jet at (c, c_prev) and ``nxt`` the next word's jet
    at (c_next, c); with the fold step F(x, y) = x^2 + a - b^m y +
    zeta(x, b^m y) the defect along the chart ray is
        defect(t) = F(c + t, B(c + t, c_prev)) - A_next(c_next, c + t).
    Returns mu = defect(0); the slope S = F_x + F_y B_x - A_y = defect'(0);
    its partial in c, which is the curvature
        defect''(0) = F_xx + 2 F_xy B_x + F_yy B_x^2 + F_y B_xx - A_yy;
    its partial in the neighbouring anchors c_prev and c_next together,
        F_xy B_y + F_yy B_x B_y + F_y B_xy - A_xy;
    and the partial of mu in them together, F_y B_y - A_x (that of mu in c
    is S).
    """
    bm = f.bm
    zeta = f.zeta
    v = bm * own.B
    fy = -bm * (1.0 - zeta.dv(c, v))
    fxy = bm * zeta.dxv(c, v)
    fyy = bm * bm * zeta.dvv(c, v)
    bx, by = own.dB
    bxx, bxy, _ = own.d2B
    return _Fold(
        apply_map(f, (c, own.B))[0] - nxt.A,
        2.0 * c + zeta.dx(c, v) + fy * bx - nxt.dA[1],
        2.0 + zeta.dxx(c, v) + 2.0 * fxy * bx + fyy * bx * bx + fy * bxx - nxt.d2A[2],
        fxy * by + fyy * bx * by + fy * bxy - nxt.d2A[1],
        fy * by - nxt.dA[0],
    )


def _cycle_folds(chains: Sequence[CrossMapChain]):
    """Jets and fold terms of a word cycle as a function of its anchors.

    Word i is evaluated at (c_i, c_{i-1}), so one jet per word serves both
    its own fold and the previous word's.  The latest anchors are
    remembered: the Newton solvers ask for residuals and then slopes at the
    same iterate, and both come from the same jets.
    """
    count = len(chains)
    f = chains[0].henon
    last: list = [None, None]

    def at(cs: Sequence[float]) -> tuple[list[CrossJet], list[_Fold]]:
        key = tuple(cs)
        if last[0] != key:
            jets = [eval_cross_jet(chains[i], key[i], key[i - 1]) for i in range(count)]
            folds = [
                _fold_terms(f, key[i], jets[i], jets[(i + 1) % count]) for i in range(count)
            ]
            last[:] = [key, (jets, folds)]
        return last[1]

    return at


def _check_chart(q: float, mu: float, sigma: float, where: str) -> None:
    """Reject a fold whose chart cannot carry renormalized parameters."""
    if abs(q) < _MIN_CURVATURE:
        raise TangencyError(f"degenerate fold{where}: curvature {q!r} below {_MIN_CURVATURE}")
    if sigma == 0.0 or not math.isfinite(q * mu * sigma):
        raise TangencyError(
            f"degenerate chart{where}: sigma {sigma!r}, mu {mu!r}, curvature {q!r}"
        )


class TangencyData(NamedTuple):
    """Chart data at the fold of a word's return.

    c anchors the tangency; sigma and lam are the cross-map slopes there;
    mu is the defect (signed distance of the fold image from the strip),
    q half the fold curvature, d the Jacobian determinant at the fold
    point, and A = A(c, c) and B = B(c, c) at the anchor, read off the
    anchor solve's last jet.
    """

    chain: CrossMapChain
    c: float
    sigma: float
    lam: float
    mu: float
    q: float
    d: float
    A: float
    B: float


def find_tangency(chain: CrossMapChain, seed: float = 0.0) -> TangencyData:
    """Locate the anchor where the fold is tangent to the strip direction.

    The anchor solves S(c) = d(defect)/dt = 0 at t = 0 by Newton's method.
    Both ends of the chain sit at (c, c), so S and dS/dc (the curvature plus
    the partial in the neighbouring anchor) come from one cross-map jet per
    iterate; q is half the curvature there, which must be bounded away from
    zero for a quadratic tangency."""
    at = _cycle_folds((chain,))

    def slope(c: float) -> float:
        return at((c,))[1][0].slope

    def dslope(c: float) -> float:
        fold = at((c,))[1][0]
        return fold.curv + fold.dslope_other

    c = newton_safeguarded(slope, seed, df=dslope)
    (jet,), (fold,) = at((c,))
    q = 0.5 * fold.curv
    _check_chart(q, fold.mu, jet.dA[0], "")
    d = evaluate(chain.henon, (c, jet.B)).det
    return TangencyData(chain, c, jet.dA[0], jet.dB[1], fold.mu, q, d, jet.A, jet.B)


# ---------------------------------------------------------------------------
# single renormalization
# ---------------------------------------------------------------------------

def _chain_forward(chain: CrossMapChain, x0: float, y0: float) -> tuple[float, float]:
    """Machine-tight n-step forward image via the contracting backward solve.

    The explicit forward orbit seeds a secant solve of A(xi, y0) = x0; the
    backward route avoids the error amplification of the expanding forward
    pass."""
    seed = iterate(chain.henon, (x0, y0), chain.order)[0]

    def g(xi: float) -> float:
        return eval_cross(chain, xi, y0).A - x0

    xi = newton_safeguarded(g, seed)
    return xi, eval_cross(chain, xi, y0).B


class RenormData(NamedTuple):
    word: str
    tangency: TangencyData
    M: int
    abar: float
    bbar: float

    @property
    def chain(self) -> CrossMapChain:
        return self.tangency.chain


def renormalize(f: HenonMap, word: str) -> RenormData:
    chain = factorize_chain(f, word)
    t = find_tangency(chain)
    n = chain.order
    M = f.m * (n + 1)
    abar = t.q * t.mu / (t.sigma * t.sigma)

    det_full = _cycle_pass(f, (t.A, t.c), n + 1)[3]
    if det_full < 0.0 and M % 2 == 0:
        raise DomainError(
            f"return determinant {det_full!r} is negative with even power {M}"
        )
    sign = 0.0 if f.b == 0.0 else math.copysign(1.0, f.b)
    bbar = sign * abs(det_full) ** (1.0 / M) if det_full != 0.0 else 0.0
    return RenormData(",".join(chain.piece.word), t, M, abar, bbar)


# ---------------------------------------------------------------------------
# parameter solves
# ---------------------------------------------------------------------------

def solve_mu_zero(
    build: Callable[[float], HenonMap],
    word: str,
    a_lo: float,
    a_hi: float,
    coarse: int = 24,
) -> float:
    """Parameter at which the word's fold defect vanishes.

    If the defect changes sign (or vanishes) at the window ends, this is the
    root inside the window; otherwise the root in the first of ``coarse``
    cells whose ends do.  One bracketed secant from the middle of that
    bracket runs to rounding level, since downstream quantities amplify
    parameter error by up to ~1e6; a window centred on a nearby root is a
    warm start.  Each defect evaluation seeds its tangency search with the
    anchor of the previous one (the first with 0.0).  The window ends may
    come in either order but must differ."""
    if a_lo == a_hi:
        raise DomainError(f"empty parameter window [{a_lo!r}, {a_hi!r}] for {word!r}")
    anchor = 0.0

    def mu(a: float) -> float:
        nonlocal anchor
        t = find_tangency(factorize_chain(build(a), word), seed=anchor)
        anchor = t.c
        return t.mu

    def root_in(a0: float, a1: float) -> float:
        return newton_safeguarded(mu, 0.5 * (a0 + a1), bracket=(a0, a1), rtol=1e-15)

    try:
        return root_in(a_lo, a_hi)
    except BracketError:
        pass
    grid = (a_lo + (a_hi - a_lo) * k / coarse for k in range(coarse + 1))
    cell = _first_sign_change((a, mu(a)) for a in grid)
    if cell is None:
        raise ConvergenceError(f"defect of {word!r} has no root in [{a_lo!r}, {a_hi!r}]")
    return root_in(*cell)


def _first_sign_change(samples: Iterable[tuple[float, float]]) -> tuple[float, float] | None:
    """First cell (x0, x1) of a lazy run of (x, f(x)) samples over which f
    changes sign, (x0, x0) where f(x0) is exactly zero, or None."""
    for (x0, f0), (x1, f1) in pairwise(samples):
        if f0 == 0.0:
            return (x0, x0)
        if f0 * f1 < 0.0:
            return (x0, x1)
    return None


class RenormWindow(NamedTuple):
    a_star: float
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def renorm_window(
    build: Callable[[float], HenonMap],
    word: str,
    a_lo: float,
    a_hi: float,
) -> RenormWindow:
    """Parameter window over which the renormalized value sweeps the full
    quadratic range [-2, 1/4]; its edges are bracketed on 48 equal cells."""
    a_star = solve_mu_zero(build, word, a_lo, a_hi)

    def abar(a: float) -> float:
        return renormalize(build(a), word).abar

    samples = []
    for k in range(49):
        a = a_lo + (a_hi - a_lo) * k / 48
        samples.append((a, abar(a)))

    def edge(level: float) -> float:
        best = None
        for (a0, v0), (a1, v1) in zip(samples, samples[1:]):
            if (v0 - level) * (v1 - level) <= 0.0 and v0 != v1:
                root = bisect(lambda a: abar(a) - level, a0, a1, rtol=1e-11)
                if best is None or abs(root - a_star) < abs(best - a_star):
                    best = root
        if best is None:
            raise ConvergenceError(
                f"renormalized value never reaches {level!r} on [{a_lo!r}, {a_hi!r}]"
            )
        return best

    ends = sorted((edge(0.25), edge(-2.0)))
    return RenormWindow(a_star, ends[0], ends[1])


# ---------------------------------------------------------------------------
# two-word cycles
# ---------------------------------------------------------------------------

class MultiRenormData(NamedTuple):
    """Chart data and rescaled parameters of a cycle of two words, i and
    1 - i, with chart scales
        gamma_i = sign(sigma_i) |sigma_(1-i)|^(2/3) |sigma_i|^(1/3).

    When the anchor solve stops at a converged seed, c is its Newton
    iterate, but sigma, lam, q, B and d are taken at the seed, at most
    ``anchor_rtol`` (relative) away; the defects mu are carried from the
    seed to c to first order, since abar = q mu / gamma^2 magnifies their
    error most.  Over the embed-compare tracking of a 21x21 raster abar
    then agrees with a solve that evaluates at c to 8.4e-11, where the
    seed's own defects would leave it 1.4e-7 off.
    """

    words: tuple[str, str]
    chains: tuple[CrossMapChain, CrossMapChain]
    c: tuple[float, float]
    sigma: tuple[float, float]
    lam: tuple[float, float]
    gamma: tuple[float, float]
    mu: tuple[float, float]
    q: tuple[float, float]
    d: tuple[float, float]
    abar: tuple[float, float]
    bbar: tuple[float, float]
    #: exit heights at the anchors, B[i] = H(i, 0), from the anchor solve's jets
    B: tuple[float, float]

    @property
    def count(self) -> int:
        return len(self.words)

    def H(self, i: int, t: float) -> float:
        if t == 0.0:
            return self.B[i]
        return eval_cross(self.chains[i], self.c[i] + t, self.c[1 - i]).B

    def chart(self, i: int, X: float, Y: float) -> tuple[float, float]:
        gi = self.gamma[i]
        return (self.c[i] + gi * X, self.H(i, gi * X) + self.gamma[1 - i] * self.lam[i] * Y)

    def chart_inv(self, i: int, x: float, y: float) -> tuple[float, float]:
        gi = self.gamma[i]
        X = (x - self.c[i]) / gi
        if self.lam[i] == 0.0:
            return X, 0.0
        return X, (y - self.H(i, gi * X)) / (self.gamma[1 - i] * self.lam[i])

    def transition(self, i: int, X: float, Y: float) -> tuple[float, float]:
        """Chart-i to chart-(1 - i) return: one fold step, then the passage
        through the other word's strip, then ``chart_inv``."""
        nxt = 1 - i
        w = apply_map(self.chains[i].henon, self.chart(i, X, Y))
        Xp, Yp = self.chart_inv(nxt, *_chain_forward(self.chains[nxt], w[0], w[1]))
        if self.lam[nxt] == 0.0:
            return Xp, X
        return Xp, Yp


def _solve_anchors(at, seed: list[float], rtol: float):
    """Anchors of a two-word cycle by Newton's method on its fold slopes,
    with the jets and fold terms its chart data come from.

    ``at`` is the cycle's ``_cycle_folds``.  When ``newton2``'s first step
    from the seed passes both of its tests against ``rtol`` (the whole-step
    test and the stopping test), the anchors are that step's iterate, bit for
    bit what ``newton2`` returns, and no jet is evaluated there: ``newton2``
    would evaluate both words again only to confirm the step.  The data then
    come from the seed's jets, one per word, with each defect mu carried to
    the anchors along its partials (first order in a step of at most
    ``rtol`` relative).  Otherwise ``newton2`` runs from the seed, reusing
    the seed's jets, and the data come from the jets at its result.
    """
    def slopes(x: Sequence[float]) -> tuple[float, float]:
        folds = at(x)[1]
        return folds[0].slope, folds[1].slope

    def jacobian(x: Sequence[float]):
        fold0, fold1 = at(x)[1]
        return (fold0.curv, fold0.dslope_other), (fold1.dslope_other, fold1.curv)

    # newton2's first step from the seed, operation for operation
    (g0, g1), ((j00, j01), (j10, j11)) = slopes(seed), jacobian(seed)
    det = j00 * j11 - j01 * j10
    if det != 0.0 and math.isfinite(det):
        step = ((g0 * j11 - g1 * j01) / det, (g1 * j00 - g0 * j10) / det)
        cs = (seed[0] - step[0], seed[1] - step[1])
        moved = (cs[0] - seed[0], cs[1] - seed[1])
        if (_converged(max(map(abs, step)), max(map(abs, seed)), rtol)
                and _converged(max(map(abs, moved)), max(map(abs, cs)), rtol)):
            jets, folds = at(seed)
            folds = [fold._replace(mu=fold.mu + fold.slope * moved[i]
                                   + fold.dmu_other * moved[1 - i])
                     for i, fold in enumerate(folds)]
            return cs, (jets, folds)
    cs = tuple(newton2(slopes, seed, jac=jacobian, rtol=rtol))
    return cs, at(cs)


def multi_renormalize(
    f: HenonMap,
    words: Sequence[str],
    anchor_seed: Sequence[float] | None = None,
    anchor_rtol: float = 1e-12,
) -> MultiRenormData:
    """Renormalize a cycle of two words to a pair of quadratic-family maps.

    The anchors solve both fold-tangency conditions jointly by Newton's
    method on the fold slopes, starting from ``anchor_seed`` (one anchor
    per word) when given; the slopes and their analytic 2x2 Jacobian come
    from one cross-map jet per word, word i at (c_i, c_(1-i)).  A seed that
    has converged costs one jet per word (``_solve_anchors``).  The chart
    scales gamma_i = sign(sigma_i) |sigma_(1-i)|^(2/3) |sigma_i|^(1/3) are
    weighted geometric means of the two cross-map slopes, satisfying
    gamma_i^2 = gamma_(1-i) sigma_(1-i).  ``anchor_rtol`` is Newton's
    relative step tolerance on the anchors; it can be relaxed when many
    nearby maps are renormalized in sequence, each seeded near its anchors."""
    if anchor_seed is not None and len(anchor_seed) != len(words):
        raise DomainError(f"anchor seed {tuple(anchor_seed)!r} needs one anchor per word, "
                          f"{len(words)} in all")
    if len(words) != 2:
        raise DomainError(f"multi_renormalize takes two words, got {len(words)}")
    chains = tuple(factorize_chains(f, words))

    seed = [float(v) for v in anchor_seed] if anchor_seed is not None else [0.0, 0.0]
    cs, (jets, folds) = _solve_anchors(_cycle_folds(chains), seed, anchor_rtol)
    sigma = tuple(jet.dA[0] for jet in jets)
    lam = tuple(jet.dB[1] for jet in jets)
    mu = tuple(fold.mu for fold in folds)
    q = tuple(0.5 * fold.curv for fold in folds)
    B = tuple(jet.B for jet in jets)
    d = tuple(evaluate(f, (c, height)).det for c, height in zip(cs, B))
    for i in (0, 1):
        _check_chart(q[i], mu[i], sigma[i], f" at cycle index {i}")

    gamma = tuple(
        math.copysign(abs(sigma[1 - i]) ** (2.0 / 3.0) * abs(sigma[i]) ** (1.0 / 3.0), sigma[i])
        for i in (0, 1)
    )
    gi2 = tuple(g * g for g in gamma)
    return MultiRenormData(
        tuple(",".join(ch.piece.word) for ch in chains),
        chains,
        cs,
        sigma,
        lam,
        gamma,
        mu,
        q,
        d,
        tuple(q[i] * mu[i] / gi2[i] for i in (0, 1)),
        tuple(d[i] * lam[i] * gamma[1 - i] / gi2[i] for i in (0, 1)),
        B,
    )


# ---------------------------------------------------------------------------
# simultaneous tangencies and twin attractors
# ---------------------------------------------------------------------------

class DoubleTangency(NamedTuple):
    a: float
    b: float
    mu1: float
    mu2: float
    dmu_db: float
    #: every (a, b, mu1, mu2) the solve evaluated, the solution last
    samples: tuple[tuple[float, float, float, float], ...]


def double_tangency(
    build: Callable[[float, float], HenonMap],
    word1: str,
    word2: str,
    seed: tuple[float, float],
    target: float = 0.0,
) -> DoubleTangency:
    """Parameter point where the fold of word1 is tangent and word2's
    renormalized value is ``target``; at target 0 both folds are tangent.

    Runs a two-dimensional Newton iteration from the given (a, b) seed on
    the residuals mu1 and mu2 - target sigma2^2 / q2.  Since abar = q mu /
    sigma^2, the zeros of the second are exactly the points where word2's
    abar equals ``target``, and at target 0 it is mu2 itself.  The Jacobian
    is the exact one of the two defects, from ``_mu_gradient``; it leaves
    out the partials of sigma2^2 / q2, so away from target 0 the solve is a
    quasi-Newton iteration whose contraction factor is the relative change
    of sigma2^2 / q2 against that of mu2 (near the twin crossing about
    1e-5 |target|, so each step gains five digits at |target| <= 1).
    ``dmu_db`` records the transversality of the defect difference at the
    solution, read off the same Jacobian.

    ``build(a, b)`` must return a map that carries a and b themselves, with
    m, zeta and xi independent of (a, b); any other family is a
    ``DomainError``, as is a map that is not xi-normalized; a malformed word
    is a ``WordError``.  These are checked at the seed.  Any other failure,
    at the seed or at a Newton iterate, is a ``NoCrossingError`` carrying
    the evaluated (a, b, mu1, mu2) samples, the defects and not the
    residuals, as ``DoubleTangency.samples`` does on success; where a word's
    chain does not exist at the point, it names the point and the word."""
    if not _built_map(build, *seed).normalized:
        raise DomainError("double tangency requires a xi-normalized map")
    parse_word(word1)
    parse_word(word2)
    trace: list[tuple[float, float, float, float]] = []
    last: list = [None, None]

    def tangency(f: HenonMap, chains: Iterator[CrossMapChain], word: str) -> TangencyData:
        try:
            return find_tangency(next(chains))
        except (BranchError, DomainError, LadderError) as exc:
            where = f"Newton iterate {(f.a, f.b)!r} from seed" if trace else "seed"
            raise NoCrossingError(
                f"{where} {seed!r} lies outside the branch domain of {word!r}: {exc}", trace
            ) from exc

    def tangencies(x: Sequence[float]) -> tuple[TangencyData, TangencyData]:
        key = (x[0], x[1])
        if last[0] != key:
            f = _built_map(build, *key)
            chains = factorize_chains(f, (word1, word2))
            ts = (tangency(f, chains, word1), tangency(f, chains, word2))
            trace.append((key[0], key[1], ts[0].mu, ts[1].mu))
            last[:] = [key, ts]
        return last[1]

    def residual(x: Sequence[float]) -> tuple[float, float]:
        t1, t2 = tangencies(x)
        return (t1.mu, t2.mu - target * t2.sigma * t2.sigma / t2.q)

    def jacobian(x: Sequence[float]):
        t1, t2 = tangencies(x)
        return _mu_gradient(t1), _mu_gradient(t2)

    try:
        a, b = newton2(residual, seed, jac=jacobian, rtol=1e-13)
        t1, t2 = tangencies([a, b])
        (_, db1), (_, db2) = jacobian([a, b])
    except NoCrossingError:
        raise
    except HenonLabError as exc:
        goal = "common zero" if target == 0.0 else f"zero at abar {target!r}"
        raise NoCrossingError(
            f"defects of {word1!r} and {word2!r} admit no {goal} near {seed!r}: {exc}",
            trace,
        ) from exc
    return DoubleTangency(a, b, t1.mu, t2.mu, db1 - db2, tuple(trace))


def _mu_gradient(t: TangencyData) -> tuple[float, float]:
    """Exact (dmu/da, dmu/db) of a word's fold defect at its tangency.

    With the anchor c held fixed the defect D and the fold slope S of
    ``_fold_terms`` have partials D_p, S_p in p = (a, b^m), from the
    parameter columns of the jet at (c, c):
        D_p = [p = a] - [p = b^m] (1 - zeta_v) B + F_y B_p - A_p,
        S_p = zeta_xv v_p + (b^m zeta_vv v_p - [p = b^m] (1 - zeta_v)) B_x1
              + F_y B_x1p - A_y0p,
    with v = b^m B and v_p = b^m B_p + [p = b^m] B.  The anchor moves by
    dc/dp = -S_p / S_c, S_c = curvature + neighbour partial, and
    D_c = F_y lam - sigma at S = 0, so dmu/dp = D_p + D_c dc/dp; the
    b-column carries d(b^m)/db = m b^(m-1)."""
    f = t.chain.henon
    c = t.c
    jet = eval_cross_param_jet(t.chain, c, c)
    fold = _fold_terms(f, c, jet, jet)
    bm = f.bm
    zeta = f.zeta
    v = bm * jet.B
    coupling = 1.0 - zeta.dv(c, v)
    fy = -bm * coupling
    fxv = zeta.dxv(c, v)
    fvv = zeta.dvv(c, v)
    bx = jet.dB[0]
    d_c = fy * jet.dB[1] - jet.dA[0]
    s_c = fold.curv + fold.dslope_other
    grad = []
    for k, dm in ((0, 0.0), (1, 1.0)):
        b_p = jet.dB_p[k]
        v_p = bm * b_p + dm * jet.B
        d_p = (1.0 - dm) - dm * coupling * jet.B + fy * b_p - jet.dA_p[k]
        s_p = (fxv * v_p + (bm * fvv * v_p - dm * coupling) * bx
               + fy * jet.d2B_xp[k] - jet.d2A_yp[k])
        grad.append(d_p - d_c * s_p / s_c)
    return grad[0], grad[1] * f.m * f.b ** (f.m - 1)


def _core_width(j: int, a: float) -> float:
    """Core width eta_j = sqrt(c_{j+1}.hi - c_{j+2}.hi) / 2 of the 1-D
    pieces at parameter a: the twin seed scale and the cone aperture."""
    hi1, hi2 = (piece.hi for piece in pieces_1d((f"c{j + 1}", f"c{j + 2}"), a))
    return 0.5 * math.sqrt(hi1 - hi2)


class TwinResult(NamedTuple):
    """Outcome of ``twin_find``.

    ``bracket`` is the seed window in b, signed like ``b_hat``, whose b^m
    runs over [|b_hat| eta^(3/2), |b_hat| eta^(1/2)]; its geometric centre
    seeds the crossing solve.  It need not contain the crossing: at m = 3,
    b_hat = 1e-3 it is [0.0302, 0.0671] and b0 = 0.1334.  (b0, a_at_b0) is
    the double tangency and (a, b) the returned point on the short word's
    root curve.  ``curve_abar_minus`` holds the short word's abar at the two
    points of the root curve that the search solves, the crossing and (a, b);
    ``abar_minus`` is the second."""

    word_minus: str
    word_plus: str
    eta: float
    bracket: tuple[float, float]
    b0: float
    a_at_b0: float
    a: float
    b: float
    abar_minus: float
    abar_plus: float
    curve_abar_minus: tuple[float, ...]
    report: AttractorReport

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(sorted(c.period for c in self.report.cycles))


def twin_find(
    build: Callable[[float, float], HenonMap],
    k: int = 1,
    j: int = 0,
    b_hat: float = 1e-2,
    a_range: tuple[float, float] | None = None,
    target: float = -0.5,
) -> TwinResult:
    """Locate a parameter point carrying two coexisting attracting cycles.

    The folds of the short word c{k} and the long word c{k},b?{j},bm0 are
    tangent at once at the crossing (a_at_b0, b0): one ``double_tangency``
    solve seeded at the short word's b = 0 root in ``a_range`` and at the
    centre of ``TwinResult.bracket``. The long word's gap turns towards the
    sign of b^m, m the built map's multiplicity. Moving along the short
    word's root curve a(b) away from b0 sweeps the long word's renormalized
    value through the attracting range; the returned point puts it at
    ``target`` while the short word stays at its window center.  That point
    is a second ``double_tangency`` solve, from the crossing, with
    ``target``.  Both predicted cycles are then located directly.

    A failed crossing or target solve raises ``double_tangency``'s
    ``NoCrossingError``, with (a, b, mu1, mu2) samples; so does a target
    point outside ``a_range``, with the target solve's samples."""
    if b_hat == 0.0:
        raise DomainError("b_hat must be nonzero: it sets the scale of the crossing seed")
    if j < 0:
        raise DomainError(f"gap index j must be non-negative, got {j}")
    if a_range is None:
        _, a2 = special_parameters()
        a_range = (a2 + 5e-4, -1.82)

    word_minus = f"c{k}"
    a_m = solve_mu_zero(lambda a: build(a, 0.0), word_minus, *a_range)
    m = build(a_m, 0.0).m
    sign = math.copysign(1.0, b_hat)
    # the long word's gap turns towards the side of b^m
    gap = f"bm{j}" if sign**m > 0.0 else f"bp{j}"
    word_plus = f"{word_minus},{gap},bm0"

    eta = _core_width(j, a_m)

    def b_at(bm: float) -> float:
        return sign * bm ** (1.0 / m)

    mag = abs(b_hat)
    bracket = (b_at(mag * eta**1.5), b_at(mag * math.sqrt(eta)))
    crossing = double_tangency(build, word_minus, word_plus, (a_m, b_at(mag * eta)))
    b0, a_at_b0 = crossing.b, crossing.a

    # the target point, from the crossing along the short word's root curve
    point = double_tangency(build, word_minus, word_plus, (a_at_b0, b0), target=target)
    a_star, b_star = point.a, point.b
    if not min(a_range) <= a_star <= max(a_range):
        raise NoCrossingError(
            f"renormalized value of {word_plus!r} reaches {target!r} at a={a_star!r}, "
            f"outside the window [{min(a_range)!r}, {max(a_range)!r}]",
            list(point.samples),
        )
    chosen = build(a_star, b_star)
    minus, plus = renormalize(chosen, word_minus), renormalize(chosen, word_plus)
    seeds = [(r.tangency.c, r.tangency.B) for r in (minus, plus)]
    report = find_attractors(chosen, seeds, max_period=max(32, plus.chain.order + 6))

    return TwinResult(
        word_minus,
        word_plus,
        eta,
        bracket,
        b0,
        a_at_b0,
        a_star,
        b_star,
        minus.abar,
        plus.abar,
        (renormalize(build(a_at_b0, b0), word_minus).abar, minus.abar),
        report,
    )


# ---------------------------------------------------------------------------
# cone-expansion diagnostics
# ---------------------------------------------------------------------------

class ConeCertificate(NamedTuple):
    counts: dict
    expansion_min: dict
    violations: dict
    kappa: float
    excluded_disk: int
    unclassified: int


def _arrival_slope(f: HenonMap, z: tuple[float, float]) -> float | None:
    """Slope of the incoming expanding direction at z.

    The previous point of any orbit through z has first coordinate z_y, so
    the image of a horizontal vector there has slope 1/(2 z_y) up to the
    field corrections; near the fold line the direction is not anchored."""
    y = z[1]
    denom = 2.0 * y + f.zeta.dx(y, f.bm * z[0])
    if abs(denom) < 0.1:
        return None
    return 1.0 / denom


def certify_cone_expansion(
    f: HenonMap,
    j: int = 0,
    grid: tuple[int, int] = (61, 9),
    r_disk: float = 0.1,
) -> ConeCertificate:
    """Sampled expansion/invariance diagnostic for the horizontal cone field.

    Sample points of the core are classified by the strip their position or
    one-step image lands in: K1 = the symbol strips away from the fold with
    passage time equal to the word order; K2 = fold points feeding the deep
    central strip; K3 = fold points feeding the shallow central strip,
    excluding disks of radius ``r_disk`` around the tangencies. Cone
    boundary vectors (1, s +- eta_j^2) are pushed by the orbit Jacobian;
    the report carries per-class minimum expansion, count of arrivals
    outside the cone, and the fitted per-step contraction rate kappa of the
    K1 growth law (kappa < 1 means expansion builds exponentially with
    passage time). Sampled evidence only, not a proof."""
    if j < 0:
        raise DomainError(f"gap index j must be non-negative, got {j}")
    lad = ladder(f.a)
    alpha0 = lad.require("alpha0")
    fat = 10.0 * abs(f.bm) + 1e-9

    alphabet = ["s-", "s+"]
    for m in range(j + 1):
        alphabet.extend([f"bm{m}", f"bp{m}"])
    *pieces, deep, shallow = pieces_1d((*alphabet, f"c{j + 2}", "c0"), f.a)
    segs = dict(zip(alphabet, pieces))

    eta = _core_width(j, f.a)
    aperture = eta * eta

    def in_seg(x: float, piece) -> bool:
        return piece.lo - fat <= x <= piece.hi + fat

    counts = {"K1": 0, "K2": 0, "K3": 0}
    exp_min = {"K1": math.inf, "K2": math.inf, "K3": math.inf}
    violations = {"K1": 0, "K2": 0, "K3": 0}
    k1_points: list[tuple[int, float]] = []
    excluded = 0
    unclassified = 0

    nx, ny = grid
    if nx < 2 or ny < 2:
        raise DomainError(f"sample grid must be at least 2x2, got {nx}x{ny}")
    if not r_disk >= 0.0:
        raise DomainError(f"exclusion radius must be non-negative, got {r_disk!r}")
    for ix in range(nx):
        x = -0.98 * alpha0 + 1.96 * alpha0 * ix / (nx - 1)
        for iy in range(ny):
            y = -0.9 * alpha0 + 1.8 * alpha0 * iy / (ny - 1)
            z = (x, y)
            tag = None
            tau = 0
            for w, piece in segs.items():
                if in_seg(x, piece):
                    tag, tau = "K1", piece.order
                    break
            if tag is None:
                image_x = apply_map(f, z)[0]
                if in_seg(image_x, deep):
                    tag, tau = "K2", 1 + deep.order
                elif in_seg(image_x, shallow):
                    if abs(x) < r_disk:
                        excluded += 1
                        continue
                    tag, tau = "K3", 1 + shallow.order
            if tag is None:
                unclassified += 1
                continue
            slope = _arrival_slope(f, z)
            if slope is None:
                unclassified += 1
                continue

            jacs = []
            arrived = z
            for _ in range(tau):
                jacs.append(jacobian(f, arrived))
                arrived = apply_map(f, arrived)
            out_slope = _arrival_slope(f, arrived)
            worst = math.inf
            ok = True
            for v_off in (-aperture, aperture):
                v = (1.0, slope + v_off)
                w_vec = v
                for jac in jacs:
                    w_vec = (
                        jac[0][0] * w_vec[0] + jac[0][1] * w_vec[1],
                        jac[1][0] * w_vec[0] + jac[1][1] * w_vec[1],
                    )
                growth = math.hypot(*w_vec) / math.hypot(*v)
                worst = min(worst, growth)
                if (
                    w_vec[0] == 0.0
                    or out_slope is None
                    or abs(w_vec[1] / w_vec[0] - out_slope) > aperture
                ):
                    ok = False
            counts[tag] += 1
            exp_min[tag] = min(exp_min[tag], worst)
            if not ok:
                violations[tag] += 1
            if tag == "K1":
                k1_points.append((tau, math.log(worst)))

    if len({t for t, _ in k1_points}) >= 2:
        n = len(k1_points)
        sx = sum(t for t, _ in k1_points)
        sy = sum(g for _, g in k1_points)
        sxx = sum(t * t for t, _ in k1_points)
        sxy = sum(t * g for t, g in k1_points)
        slope_fit = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        kappa = math.exp(-slope_fit)
    else:
        kappa = math.nan

    return ConeCertificate(
        counts,
        {k: (v if v != math.inf else math.nan) for k, v in exp_min.items()},
        violations,
        kappa,
        excluded,
        unclassified,
    )
