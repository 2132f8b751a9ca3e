"""Cross-map chains: factorized backward solves along admissible words.

A chain of order-1 factors inverts the first coordinate of a xi-normalized
map along a prescribed branch itinerary. The joint solve exchanges boundary
data: it maps (x on the image side, y on the domain side) to (x on the
domain side, y on the image side). Both coordinates of the answer come with
analytic first and second partials, solved exactly from the tridiagonal
tangent system that the per-factor partials assemble, plus an independent
forward-shooting oracle for cross-validation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    BracketError,
    BranchError,
    ConvergenceError,
    DomainError,
    NonMonotoneError,
)
from .henon import ZERO_FIELD, Frozen, HenonMap, evaluate, iterate
from .maps1d import Piece1D, piece_1d, pieces_1d
from .rootfind import DEFAULT_MAX_ITER, DEFAULT_RTOL, bisect

__all__ = [
    "ConeSpec",
    "CrossMapChain",
    "CrossEval",
    "CrossDerivs",
    "CrossJet",
    "CrossParamJet",
    "ShootResult",
    "HyperbolicityReport",
    "DistortionReport",
    "factorize_chain",
    "factorize_chains",
    "eval_cross",
    "eval_cross_derivatives",
    "eval_cross_jet",
    "eval_cross_param_jet",
    "slice_image",
    "shoot_oracle",
    "det_identity",
    "hyperbolicity_check",
    "distortion_report",
]

_SWEEP_TOL = 1e-12
_MAX_SWEEPS = 200

_set = object.__setattr__


class ConeSpec(Frozen):
    """Cone-field parameters; the slopes derive from the core width eta,
    which must be finite and positive."""

    __slots__ = _fields = ("eta",)

    def __init__(self, eta: float):
        if not (math.isfinite(eta) and eta > 0.0):
            raise DomainError(f"core width eta must be finite and positive, got {eta!r}")
        _set(self, "eta", eta)

    @property
    def c_h(self) -> float:
        return 1.0 / self.eta

    @property
    def c_v(self) -> float:
        return self.eta / 2.0

    @property
    def c(self) -> float:
        return 1.0 / math.sqrt(2.0)


class CrossMapChain(Frozen):
    """A xi-normalized map together with the branch data of a 1-D piece.

    ``_last_tangent`` holds the last tangent solve, [(x1, y0), result]
    (see ``_tangent_solve``); it is not a field."""

    __slots__ = ("henon", "piece", "_last_tangent")
    _fields = ("henon", "piece")

    def __init__(self, henon: HenonMap, piece: Piece1D):
        _set(self, "henon", henon)
        _set(self, "piece", piece)
        _set(self, "_last_tangent", [None, None])

    @property
    def signs(self) -> tuple[int, ...]:
        return self.piece.branch_signs

    @property
    def order(self) -> int:
        return self.piece.order


_NOT_NORMALIZED = "cross-map factorization requires a xi-normalized map"


def factorize_chain(f: HenonMap, word: str | Piece1D) -> CrossMapChain:
    if not f.normalized:
        raise DomainError(_NOT_NORMALIZED)
    piece = piece_1d(word, f.a) if isinstance(word, str) else word
    if piece.order < 1:
        name = ",".join(piece.word)
        raise DomainError(f"word {name!r} has no quadratic factors")
    return CrossMapChain(f, piece)


def factorize_chains(f: HenonMap, words: Sequence[str]) -> Iterator[CrossMapChain]:
    """``factorize_chain`` of each word in turn, the pieces built from one
    table at f.a (``maps1d.pieces_1d``).  Chains are made as they are asked
    for, so they, and any error with its message, come as from one
    ``factorize_chain`` call per word."""
    if not f.normalized:
        raise DomainError(_NOT_NORMALIZED)
    for piece in pieces_1d(words, f.a):
        yield factorize_chain(f, piece)


class CrossEval(NamedTuple):
    A: float
    B: float
    x_path: tuple[float, ...]  # x_0 .. x_N
    y_path: tuple[float, ...]  # y_0 .. y_N
    sweeps: int


def eval_cross(
    chain: CrossMapChain,
    x1: float,
    y0: float,
    max_sweeps: int = _MAX_SWEEPS,
) -> CrossEval:
    """Joint backward solve by Gauss-Seidel sweeps.

    x1 is the x-coordinate on the image side (target of the last factor);
    y0 is the y-coordinate on the domain side. Interior y-values start at y0
    and are refreshed from the solved x-values after each sweep; the coupling
    is O(b^m), so the iteration contracts fast and is exact at b = 0.

    Each factor solves x_{i+1} = x^2 + a - v + zeta(x, v), v = b^m y_i, on
    its branch: the seed sign*sqrt(x_{i+1} - a + v) is polished by Newton
    steps with the analytic slope 2x + zeta_x.  The polish is written out
    here rather than calling ``newton_safeguarded`` (it runs millions of
    times per tangency search); it takes the same steps, stops on the same
    test (step <= rtol * max(1, |x|) or a zero residual) and fails the same
    way, so the result is bit-identical to that routine.
    """
    f = chain.henon
    n = chain.order
    signs = chain.signs
    a = f.a
    bm = f.bm
    hooked = f.zeta is not ZERO_FIELD
    z_value = f.zeta.value
    z_dx = f.zeta.dx
    sqrt = math.sqrt
    inf = math.inf
    xs = [0.0] * (n + 1)
    xs[n] = x1
    ys = [y0] * (n + 1)
    prev_residual = math.inf
    increases = 0
    for sweep in range(1, max_sweeps + 1):
        change = 0.0
        for i in range(n - 1, -1, -1):
            x_next = xs[i + 1]
            v = bm * ys[i]
            radicand = x_next - a + v
            if radicand < 0.0:
                raise BranchError(
                    f"negative branch seed radicand {radicand!r} for target {x_next!r}"
                )
            x = signs[i] * sqrt(radicand)
            if hooked:
                fx = x * x + a - v + z_value(x, v) - x_next
            else:
                fx = x * x + a - v - x_next
            if fx != 0.0:
                for _ in range(DEFAULT_MAX_ITER):
                    slope = 2.0 * x + z_dx(x, v) if hooked else 2.0 * x
                    if slope == 0.0 or slope != slope or abs(slope) == inf:
                        raise ConvergenceError(
                            f"newton stalled at x={x!r} with no bracket to fall back on"
                        )
                    x_new = x - fx / slope
                    scale = abs(x_new)
                    if abs(x_new - x) <= DEFAULT_RTOL * (scale if scale > 1.0 else 1.0):
                        x = x_new
                        break
                    x = x_new
                    if hooked:
                        fx = x * x + a - v + z_value(x, v) - x_next
                    else:
                        fx = x * x + a - v - x_next
                    if fx == 0.0:
                        break
                else:
                    raise ConvergenceError(
                        f"newton did not converge after {DEFAULT_MAX_ITER} iterations"
                    )
            gap = abs(x - xs[i])
            if gap > change:
                change = gap
            xs[i] = x
        for i in range(1, n + 1):
            yi_new = xs[i - 1]
            gap = abs(yi_new - ys[i])
            if gap > change:
                change = gap
            ys[i] = yi_new
        if sweep > 1 and change <= _SWEEP_TOL:
            return CrossEval(xs[0], ys[n], tuple(xs), tuple(ys), sweep)
        if change >= prev_residual:
            increases += 1
            if increases >= 3:
                raise ConvergenceError(
                    f"cross-map sweep diverging (residual {change!r} after {sweep} sweeps)"
                )
        else:
            increases = 0
        prev_residual = change
    raise ConvergenceError(f"cross-map sweep did not converge in {max_sweeps} sweeps")


class CrossDerivs(NamedTuple):
    A: float
    B: float
    dA: tuple[float, float]  # (d/dx1, d/dy0)
    dB: tuple[float, float]
    factor_dx: tuple[float, ...]  # per-factor d x_i / d x_{i+1}
    factor_dy: tuple[float, ...]  # per-factor d x_i / d y_i
    x_path: tuple[float, ...]
    y_path: tuple[float, ...]


class CrossJet(NamedTuple):
    """Values, first and second partials of the cross map at one point."""

    A: float
    B: float
    dA: tuple[float, float]  # (d/dx1, d/dy0)
    dB: tuple[float, float]
    d2A: tuple[float, float, float]  # (x1 x1, x1 y0, y0 y0)
    d2B: tuple[float, float, float]


class CrossParamJet(NamedTuple):
    """A cross-map jet with its partials in the parameters p = (a, b^m):
    ``CrossJet``'s fields, then the parameter columns."""

    A: float
    B: float
    dA: tuple[float, float]  # (d/dx1, d/dy0)
    dB: tuple[float, float]
    d2A: tuple[float, float, float]  # (x1 x1, x1 y0, y0 y0)
    d2B: tuple[float, float, float]
    dA_p: tuple[float, float]  # (d/da, d/db^m)
    dB_p: tuple[float, float]
    d2A_xp: tuple[float, float]  # (x1 a, x1 b^m)
    d2B_xp: tuple[float, float]
    d2A_yp: tuple[float, float]  # (y0 a, y0 b^m)
    d2B_yp: tuple[float, float]
    factor_dx: tuple[float, ...]  # per-factor d x_i / d x_{i+1}


def eval_cross_derivatives(chain: CrossMapChain, x1: float, y0: float) -> CrossDerivs:
    """Solve the chain, then its tangent system, exactly.

    Each factor contributes dx_i = c_i dx_{i+1} + d_i dy_i with
    c_i = 1/(2 x_i + zeta_x) and d_i = b^m (1 - zeta_v)/(2 x_i + zeta_x),
    and dy_{i+1} = dx_i.  With the boundary data dx_N = (1, 0) and
    dy_0 = (0, 1) this is a tridiagonal system in dx_0 .. dx_{N-1}, solved by
    one forward elimination and one back substitution (Thomas algorithm).
    The pivots 1 - d_i p_{i-1} are 1 + O(b^m), so no pivoting is needed,
    and every column keeps its relative accuracy however small it is: the
    y0-column scales like b^(m N).
    """
    base, cs, ds, _, _, u, w, _ = _tangent_solve(chain, x1, y0)
    n = chain.order
    return CrossDerivs(
        base.A, base.B, (u[0], w[0]), (u[n - 1], w[n - 1]),
        tuple(cs), tuple(ds), base.x_path, base.y_path,
    )


def eval_cross_jet(chain: CrossMapChain, x1: float, y0: float) -> CrossJet:
    """Cross-map values with first and second partials in (x1, y0).

    Differentiating x_{i+1} = x_i^2 + a - v_i + zeta(x_i, v_i), v_i = b^m y_i,
    twice along columns u, w of the first-order solve gives the tangent
    system of ``eval_cross_derivatives`` again, now with zero boundary data
    and the source
        -c_i [(2 + zeta_xx) u_i w_i + b^m zeta_xv (u_i w'_i + w_i u'_i)
              + b^2m zeta_vv u'_i w'_i],
    where u'_i = u_{i-1} is the y-column (u'_0 is the boundary value).  The
    factored system is reused for the three pairs (x1 x1, x1 y0, y0 y0).
    """
    base, _, _, _, _, u, w, second = _tangent_solve(chain, x1, y0)
    n = chain.order
    return CrossJet(
        base.A, base.B, (u[0], w[0]), (u[n - 1], w[n - 1]),
        tuple(col[0] for col in second), tuple(col[n - 1] for col in second),
    )


def eval_cross_param_jet(chain: CrossMapChain, x1: float, y0: float) -> CrossParamJet:
    """``eval_cross_jet`` plus the columns in the parameters p = (a, b^m).

    The factor equation x_{i+1} = x_i^2 + a - v_i + zeta(x_i, v_i),
    v_i = b^m y_i, is linear in a and in b^m, so d/da and d/db^m solve the
    factored tangent system with zero boundary data and the sources -c_i
    and c_i (1 - zeta_v) y_i.  The mixed columns (x1 p, y0 p) take the
    second-order source of ``eval_cross_jet`` for the pair (g, q), with
    V_g = b^m g'_i and V_q = b^m q'_i + y_i [p = b^m],
        -c_i [(2 + zeta_xx) g_i q_i + zeta_xv (g_i V_q + q_i V_g)
              + zeta_vv V_g V_q] + c_i (1 - zeta_v) g'_i [p = b^m],
    the last term coming from b^m inside the coupling d_i.  The partials
    are those of the built map in its own a and b^m: m, zeta and xi are
    held fixed.
    """
    base, cs, ds, ps, ks, u, w, second = _tangent_solve(chain, x1, y0)
    f = chain.henon
    n = chain.order
    bm = f.bm
    zeta = f.zeta
    xs, ys = base.x_path, base.y_path
    # per factor: c_i k_i, 1 - zeta_v, 2 + zeta_xx, zeta_xv, zeta_vv
    nodes = []
    for i in range(n):
        x = xs[i]
        v = bm * ys[i]
        nodes.append((cs[i] * ks[i], 1.0 - zeta.dv(x, v),
                      2.0 + zeta.dxx(x, v), zeta.dxv(x, v), zeta.dvv(x, v)))
    q_a, q_m = _solve_scaled(ds, ks, ps, [
        [-node[0] for node in nodes],
        [node[0] * node[1] * ys[i] for i, node in enumerate(nodes)],
    ])
    mixed = []
    for g, g_start in ((u, 0.0), (w, 1.0)):
        for q, dm in ((q_a, 0.0), (q_m, 1.0)):
            col = [0.0] * n
            g_prev, q_prev = g_start, 0.0
            for i, (scale, coupling, fxx, fxv, fvv) in enumerate(nodes):
                gi, qi = g[i], q[i]
                vg = bm * g_prev
                vq = bm * q_prev + dm * ys[i]
                src = fxx * gi * qi + fxv * (gi * vq + qi * vg) + fvv * vg * vq
                col[i] = scale * (dm * coupling * g_prev - src)
                g_prev, q_prev = gi, qi
            mixed.append(col)
    x1a, x1m, y0a, y0m = _solve_scaled(ds, ks, ps, mixed)
    return CrossParamJet(
        base.A, base.B, (u[0], w[0]), (u[n - 1], w[n - 1]),
        tuple(col[0] for col in second), tuple(col[n - 1] for col in second),
        (q_a[0], q_m[0]), (q_a[n - 1], q_m[n - 1]),
        (x1a[0], x1m[0]), (x1a[n - 1], x1m[n - 1]),
        (y0a[0], y0m[0]), (y0a[n - 1], y0m[n - 1]),
        tuple(cs),
    )


def _solve_scaled(ds: list, ks: list, ps: list, columns: list) -> list:
    """Solve the factored tangent system with zero boundary data, once for
    each column of scaled sources s_i k_i in ``columns``; each column is
    filled in place and gains the row dx_N = 0."""
    n = len(ds)
    for col in columns:
        r = 0.0
        for i in range(n):
            r = ds[i] * ks[i] * r + col[i]
            col[i] = r
        col.append(0.0)
        for i in range(n - 1, -1, -1):
            col[i] += ps[i] * col[i + 1]
    return columns


def _tangent_solve(chain: CrossMapChain, x1: float, y0: float):
    """``_tangent_columns``, remembered per chain for its last point.

    The one cache of the chain layer: a tangency solve asks for the jet at
    each iterate twice, for the slope and its derivative, and once more at
    its anchor, where ``renorm._mu_gradient`` then asks for the parameter
    jet.  The lists it returns are read, never written.
    """
    key = (x1, y0)
    last = chain._last_tangent
    if last[0] != key:
        last[:] = [key, _tangent_columns(chain, x1, y0)]
    return last[1]


def _tangent_columns(chain: CrossMapChain, x1: float, y0: float):
    """Solve the chain, factor its tangent system once and solve it for the
    two first-order columns and the three second-order ones.

    Returns (values, c_i, d_i, p_i, k_i, x1-column, y0-column, second-order
    columns); each column holds dx_0 .. dx_N.  Row i reads
    dx_i = c_i dx_{i+1} + d_i dx_{i-1} + s_i, with dx_{-1} = dy_0.  Forward
    elimination rewrites it as dx_i = p_i dx_{i+1} + r_i, where
    p_i = c_i k_i, r_i = d_i k_i r_{i-1} + s_i k_i and
    k_i = 1 / (1 - d_i p_{i-1}); the back substitution runs down from dx_N.
    """
    base = eval_cross(chain, x1, y0)
    f = chain.henon
    n = chain.order
    xs, ys = base.x_path, base.y_path
    bm = f.bm
    zeta = f.zeta
    hooked = zeta is not ZERO_FIELD
    cs, ds, ps, ks = [], [], [], []
    # the y0-column has dy_0 = 1; w holds its r_i until the back substitution
    w = []
    p = 0.0
    r = 1.0
    for i in range(n):
        x = xs[i]
        if hooked:
            v = bm * ys[i]
            slope = 2.0 * x + zeta.dx(x, v)
            coupling = bm * (1.0 - zeta.dv(x, v))
        else:
            slope = 2.0 * x
            coupling = bm
        if slope == 0.0:
            raise BranchError(f"chain point x_{i} = {x!r} is a fold point of its factor")
        c = 1.0 / slope
        d = coupling / slope
        k = 1.0 / (1.0 - d * p)
        p = c * k
        r *= d * k
        cs.append(c)
        ds.append(d)
        ps.append(p)
        ks.append(k)
        w.append(r)
    w.append(0.0)
    u = [0.0] * (n + 1)
    u[n] = 1.0
    for i in range(n - 1, -1, -1):
        u[i] = ps[i] * u[i + 1]
        w[i] += ps[i] * w[i + 1]

    # scaled sources s_i k_i of the (x1 x1, x1 y0, y0 y0) columns; the
    # y-columns are u'_i = u_{i-1} and w'_i = w_{i-1}, with (0, 1) at i = 0
    s_uu = [0.0] * n
    s_uw = [0.0] * n
    s_ww = [0.0] * n
    u_prev, w_prev = 0.0, 1.0
    for i in range(n):
        ui, wi = u[i], w[i]
        scale = -cs[i] * ks[i]
        if hooked:
            x = xs[i]
            v = bm * ys[i]
            fxx = 2.0 + zeta.dxx(x, v)
            fxv = bm * zeta.dxv(x, v)
            fvv = bm * bm * zeta.dvv(x, v)
            s_uu[i] = scale * (fxx * ui * ui + 2.0 * fxv * ui * u_prev + fvv * u_prev * u_prev)
            s_uw[i] = scale * (
                fxx * ui * wi + fxv * (ui * w_prev + wi * u_prev) + fvv * u_prev * w_prev
            )
            s_ww[i] = scale * (fxx * wi * wi + 2.0 * fxv * wi * w_prev + fvv * w_prev * w_prev)
        else:
            s_uu[i] = 2.0 * scale * ui * ui
            s_uw[i] = 2.0 * scale * ui * wi
            s_ww[i] = 2.0 * scale * wi * wi
        u_prev, w_prev = ui, wi
    return base, cs, ds, ps, ks, u, w, _solve_scaled(ds, ks, ps, [s_uu, s_uw, s_ww])


# ---------------------------------------------------------------------------
# independent forward-shooting oracle
# ---------------------------------------------------------------------------

class ShootResult(NamedTuple):
    A: float
    B: float


def slice_image(chain: CrossMapChain, y0: float) -> tuple[float, float]:
    """Attainable image-side x range when the domain-side x runs the segment.

    Computed by forward iteration of the segment endpoints; for b != 0 this
    differs from the 1-D image by an amount that grows with the word order.
    """
    f = chain.henon
    lo, hi = chain.piece.segment
    a = iterate(f, (lo, y0), chain.order)[0]
    b = iterate(f, (hi, y0), chain.order)[0]
    return (a, b) if a <= b else (b, a)


def shoot_oracle(
    chain: CrossMapChain,
    x1: float,
    y0: float,
) -> ShootResult:
    """Cross-validate the chain solve by bisection on a forward residual.

    The domain-side x runs over the 1-D segment of the word; the residual is
    the final x of the explicit forward orbit minus the target x1. The slice
    must be strictly monotone at nine evenly spaced points of the bracket,
    and the bisection runs to relative tolerance 1e-12.
    """
    f = chain.henon
    n = chain.order
    lo, hi = chain.piece.segment

    def residual(x0: float) -> float:
        return iterate(f, (x0, y0), n)[0] - x1

    values = [residual(lo + (hi - lo) * k / 8) for k in range(9)]
    diffs = [values[k + 1] - values[k] for k in range(8)]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise NonMonotoneError(
            f"forward slice is not monotone over [{lo!r}, {hi!r}]"
        )
    try:
        x0 = bisect(residual, lo, hi, rtol=1e-12)
    except BracketError as exc:
        raise NonMonotoneError(
            f"target {x1!r} not bracketed by the word segment: {exc}"
        ) from exc
    _, y_exit = iterate(f, (x0, y0), n)
    return ShootResult(x0, y_exit)


def det_identity(chain: CrossMapChain, x1: float, y0: float) -> tuple[float, float]:
    """Return (dB/dy0 / dA/dx1, product of pointwise Jacobian determinants).

    The two numbers agree for any chain; with zero fields and m = 1 both
    equal b^order.
    """
    d = eval_cross_derivatives(chain, x1, y0)
    ratio = d.dB[1] / d.dA[0]
    prod = 1.0
    for i in range(chain.order):
        prod *= evaluate(chain.henon, (d.x_path[i], d.y_path[i])).det
    return ratio, prod


# ---------------------------------------------------------------------------
# hyperbolicity margins
# ---------------------------------------------------------------------------

class HyperbolicityReport(NamedTuple):
    ok: bool
    margin: float
    worst_point: tuple[float, float]
    worst_lhs: tuple[float, float]
    n_probes: int


def hyperbolicity_check(
    chain: CrossMapChain,
    cone: ConeSpec,
    x1_values: Sequence[float],
    y0_values: Sequence[float],
) -> HyperbolicityReport:
    """Verify the contraction inequalities of the cross map on a probe grid.

    At every probe both
        |dA/dx1|/c + |dA/dy0|/c_v <= 1   and
        |dB/dy0|/c + |dB/dx1|/c_h <= 1
    must hold; the margin is one minus the worst left-hand side.  An empty
    probe grid is a ``DomainError``.
    """
    if not (len(x1_values) and len(y0_values)):
        raise DomainError("hyperbolicity check needs a nonempty probe grid")
    worst = -math.inf
    worst_point = (math.nan, math.nan)
    worst_lhs = (math.nan, math.nan)
    count = 0
    for x1 in x1_values:
        for y0 in y0_values:
            d = eval_cross_derivatives(chain, x1, y0)
            lhs1 = abs(d.dA[0]) / cone.c + abs(d.dA[1]) / cone.c_v
            lhs2 = abs(d.dB[1]) / cone.c + abs(d.dB[0]) / cone.c_h
            count += 1
            if max(lhs1, lhs2) > worst:
                worst = max(lhs1, lhs2)
                worst_point = (x1, y0)
                worst_lhs = (lhs1, lhs2)
    return HyperbolicityReport(worst < 1.0, 1.0 - worst, worst_point, worst_lhs, count)


# ---------------------------------------------------------------------------
# distortion bounds
# ---------------------------------------------------------------------------

class DistortionReport(NamedTuple):
    B0: float
    B1: float
    Bm: float | None  # None when b = 0 makes the scaled quantity undefined
    sum_formula_gap: float
    n_probes: int


def distortion_report(
    build: Callable[[float, float], HenonMap],
    word: str,
    ab_values: Sequence[tuple[float, float]],
    x1_values: Sequence[float],
    y0_values: Sequence[float],
) -> DistortionReport:
    """Uniform bounds over a parameter/probe grid.

    B0 bounds values and first partials of the cross map; B1 bounds the
    phase-space gradient of log|dA/dx1| and log|dB/dy0|, read off the jet
    as (A_x1x1, A_x1y0)/A_x1 and (B_x1y0, B_y0y0)/B_y0; Bm bounds the
    parameter gradient of log|dB/dy0 / b^(m n)|, from the (y0, a) and
    (y0, b^m) columns with d(b^m)/db = m b^(m-1), and is reported as None
    when any grid point has b = 0. The sum-formula gap compares |dA/dx1|
    against the product of per-factor slopes along the solved path; it
    vanishes identically at b = 0.

    ``build(a, b)`` must return a map that carries a and b themselves, with
    m, zeta and xi independent of (a, b): the parameter columns
    differentiate in the built map's own a and b^m.  Empty grids are a
    ``DomainError``.
    """
    if not (len(ab_values) and len(x1_values) and len(y0_values)):
        raise DomainError("distortion report needs nonempty parameter and probe grids")
    B0 = 0.0
    B1 = 0.0
    Bm: float | None = 0.0
    gap = 0.0
    count = 0
    for a, b in ab_values:
        f = _built_map(build, a, b)
        ch = factorize_chain(f, word)
        mn = f.m * ch.order
        dbm_db = f.m * b ** (f.m - 1)
        for x1 in x1_values:
            for y0 in y0_values:
                jet = eval_cross_param_jet(ch, x1, y0)
                count += 1
                B0 = max(
                    B0,
                    abs(jet.A), abs(jet.B),
                    abs(jet.dA[0]), abs(jet.dA[1]), abs(jet.dB[0]), abs(jet.dB[1]),
                )
                ax, by = jet.dA[0], jet.dB[1]
                B1 = max(B1, abs(jet.d2A[0] / ax), abs(jet.d2A[1] / ax))
                # dB/dy0 vanishes identically at b = 0; its log has no
                # gradient there and the chain is effectively 1-D
                if b != 0.0:
                    if by == 0.0:
                        raise DomainError(
                            f"dB/dy0 of {word!r} underflows at (x1, y0) = ({x1!r}, {y0!r}), "
                            f"b = {b!r}"
                        )
                    B1 = max(B1, abs(jet.d2B[1] / by), abs(jet.d2B[2] / by))
                prod = 1.0
                for c in jet.factor_dx:
                    prod *= abs(c)
                gap = max(gap, abs(abs(ax) - prod) / abs(ax))
                if b == 0.0:
                    Bm = None
                elif Bm is not None:
                    ga = jet.d2B_yp[0] / by
                    gb = jet.d2B_yp[1] * dbm_db / by - mn / b
                    Bm = max(Bm, abs(ga), abs(gb))
    return DistortionReport(B0, B1, Bm, gap, count)


def _built_map(build: Callable[[float, float], HenonMap], a: float, b: float) -> HenonMap:
    """``build(a, b)``, checked to carry a and b: derivatives in the
    parameters are taken in the built map's own a and b^m."""
    f = build(a, b)
    if f.a != a or f.b != b:
        raise DomainError(
            f"build({a!r}, {b!r}) returned a map at (a, b) = ({f.a!r}, {f.b!r}); "
            "parameter derivatives need a family that carries its own a and b"
        )
    return f
