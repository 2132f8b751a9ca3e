"""Stable leaves, tame boxes and 2-D strip pieces.

Leaves are near-vertical graphs x = l(y) attached to the distinguished 1-D
points (the quadratic ladder rungs and the orientation-reversing fixed
point). They are built by the backward graph transform and sampled as
polylines; boxes and word strips are bounded by such graphs on the sides
and by horizontal graphs on top and bottom.
"""

from __future__ import annotations

import csv
import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .crossmap import CrossMapChain, eval_cross, factorize_chain
from .errors import ConvergenceError, DomainError, ProductError
from .henon import HenonMap, apply_map, iterate, jacobian
from .maps1d import iterate_quad, ladder, piece_1d
from .rootfind import newton_safeguarded

if TYPE_CHECKING:
    from .crossmap import ConeSpec

__all__ = [
    "Curve",
    "LeafLattice",
    "TameBox",
    "Piece2D",
    "ConeReport",
    "K0_LABELS",
    "stable_leaf_lattice",
    "build_box",
    "build_piece",
    "star_2d",
    "verify_cones",
    "image_unstable_boundary",
    "export_piece_csv",
]

_LEAF_TOL = 1e-8
_MIN_SAMPLES = 257
_MAX_SAMPLES = 4097
# samples along the side graphs of a box or strip
_SIDE_SAMPLES = 129

# label -> label of the image leaf under one forward application
K0_LABELS: dict[str, str] = {
    "-alpha0": "-alpha0",
    "alpha0": "-alpha0",
    "alpha1": "alpha0",
    "-alpha1": "alpha0",
    "tilde_alpha2": "-alpha1",
    "-tilde_alpha2": "-alpha1",
    "beta": "beta",
    "-beta": "beta",
}

_BUILD_ORDER = [
    "-alpha0", "alpha0", "alpha1", "-alpha1",
    "tilde_alpha2", "-tilde_alpha2", "beta", "-beta",
]


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """n equally spaced samples from lo to hi, both ends included."""
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


class Curve(NamedTuple):
    """Uniformly sampled graph with linear interpolation, clamped at ends."""

    lo: float
    hi: float
    values: tuple[float, ...]

    def __call__(self, t: float) -> float:
        n = len(self.values)
        u = (t - self.lo) / (self.hi - self.lo) * (n - 1)
        if u <= 0.0:
            return self.values[0]
        if u >= n - 1:
            return self.values[-1]
        k = int(u)
        frac = u - k
        return self.values[k] * (1.0 - frac) + self.values[k + 1] * frac

    @property
    def max_slope(self) -> float:
        h = (self.hi - self.lo) / (len(self.values) - 1)
        return max(
            abs(self.values[k + 1] - self.values[k]) / h
            for k in range(len(self.values) - 1)
        )

    def params(self) -> list[float]:
        return _grid(self.lo, self.hi, len(self.values))


def _rung_values(a: float) -> dict[str, float]:
    lad = ladder(a)
    out = {
        "alpha0": lad.require("alpha0"),
        "-alpha0": -lad.require("alpha0"),
        "alpha1": lad.require("alpha1"),
        "-alpha1": -lad.require("alpha1"),
        "beta": lad.require("beta"),
        "-beta": -lad.require("beta"),
    }
    if lad.tilde_alpha2 is not None:
        out["tilde_alpha2"] = lad.tilde_alpha2
        out["-tilde_alpha2"] = -lad.tilde_alpha2
    return out


def _transform_solve(f: HenonMap, target: Callable[[float], float],
                     y: float, seed: float) -> float:
    """One backward graph-transform sample: solve x with f(x, y) on target."""
    bm = f.bm

    def g(x: float) -> float:
        v = bm * y
        return x * x + f.a - v + f.zeta.value(x, v) - target(x)

    def dg(x: float) -> float:
        # the target graph slope is O(b); dropping it keeps Newton stable
        return 2.0 * x + f.zeta.dx(x, bm * y)

    return newton_safeguarded(g, seed, df=dg)


class LeafLattice(NamedTuple):
    henon: HenonMap
    y_extent: float
    leaves: dict[str, Curve]
    residual: float
    samples: int

    def leaf(self, label: str) -> Curve:
        return self.leaves[label]


def _build_leaves(f: HenonMap, values: dict[str, float], y_extent: float,
                  n: int) -> dict[str, Curve]:
    ys = _grid(-y_extent, y_extent, n)
    leaves: dict[str, Curve] = {}
    for label in _BUILD_ORDER:
        if label not in values:
            continue
        k0 = values[label]
        if label in ("-alpha0", "beta"):
            # invariant leaf through a fixed point: iterate the transform
            cur = [k0] * n
            for _ in range(200):
                target = Curve(-y_extent, y_extent, tuple(cur))
                new = [_transform_solve(f, target, y, cur[j]) for j, y in enumerate(ys)]
                change = max(abs(new[j] - cur[j]) for j in range(n))
                cur = new
                if change <= 1e-10:
                    break
            else:
                raise ConvergenceError(
                    f"graph transform not contracting for leaf {label!r}"
                )
            leaves[label] = Curve(-y_extent, y_extent, tuple(cur))
        else:
            target = leaves[K0_LABELS[label]]
            vals = tuple(_transform_solve(f, target, y, k0) for y in ys)
            leaves[label] = Curve(-y_extent, y_extent, vals)
    return leaves


def _lattice_residual(f: HenonMap, leaves: dict[str, Curve]) -> float:
    worst = 0.0
    for label, curve in leaves.items():
        image = leaves[K0_LABELS[label]]
        for y in curve.params():
            x = curve(y)
            w = apply_map(f, (x, y))
            worst = max(worst, abs(w[0] - image(w[1])))
    return worst


def stable_leaf_lattice(f: HenonMap, y_extent: float = 3.0) -> LeafLattice:
    """Build all distinguished leaves, doubling the sampling until the
    forward-invariance residual is below 1e-8."""
    if not f.normalized:
        raise DomainError("leaf construction requires a xi-normalized map")
    values = _rung_values(f.a)
    n = _MIN_SAMPLES
    while True:
        leaves = _build_leaves(f, values, y_extent, n)
        residual = _lattice_residual(f, leaves)
        if residual <= _LEAF_TOL:
            return LeafLattice(f, y_extent, leaves, residual, n)
        if n >= _MAX_SAMPLES:
            raise ConvergenceError(
                f"leaf residual {residual!r} above {_LEAF_TOL!r} at {n} samples"
            )
        n = 2 * n - 1


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

class TameBox(NamedTuple):
    """Curvilinear rectangle: side graphs x(y), top/bottom graphs y(x)."""

    phi_minus: Curve  # left stable boundary, x as a function of y
    phi_plus: Curve   # right stable boundary
    psi_minus: Curve  # bottom unstable boundary, y as a function of x
    psi_plus: Curve   # top unstable boundary

    def x_range(self, y: float) -> tuple[float, float]:
        return self.phi_minus(y), self.phi_plus(y)

    @property
    def y_range(self) -> tuple[float, float]:
        return self.psi_minus.values[0], self.psi_plus.values[0]


def _flat(lo: float, hi: float, value: float) -> Curve:
    return Curve(lo, hi, (value, value))


def _strip_box(y_lo: float, y_hi: float, sides: Sequence[tuple[float, ...]]) -> TameBox:
    """Box between two side graphs sampled on [y_lo, y_hi], ordered left to
    right at mid-height, with flat top and bottom across their full span."""
    left, right = sorted(sides, key=lambda vals: vals[len(vals) // 2])
    return TameBox(
        Curve(y_lo, y_hi, left),
        Curve(y_lo, y_hi, right),
        _flat(min(left), max(right), y_lo),
        _flat(min(left), max(right), y_hi),
    )


def _leaf_box(lattice: LeafLattice, left: str, right: str) -> TameBox:
    """Box between two lattice leaves over the lattice's full height, with
    flat top and bottom spanning the leaves at y = 0."""
    lo, hi = -lattice.y_extent, lattice.y_extent
    phi_minus, phi_plus = lattice.leaf(left), lattice.leaf(right)
    ys = _grid(lo, hi, _SIDE_SAMPLES)
    x_lo, x_hi = phi_minus(0.0), phi_plus(0.0)
    return TameBox(
        Curve(lo, hi, tuple(phi_minus(y) for y in ys)),
        Curve(lo, hi, tuple(phi_plus(y) for y in ys)),
        _flat(x_lo, x_hi, lo),
        _flat(x_lo, x_hi, hi),
    )


class Piece2D(NamedTuple):
    word: str
    chain: CrossMapChain
    box: TameBox

    @property
    def order(self) -> int:
        return self.chain.order


def _pullback_curve(
    chain: CrossMapChain,
    target: Callable[[float], float],
    seed_x1: float,
    y_values: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Solve x1 = target(B(x1, y0)) per sample; return (x0 list, x1 list)."""
    x0s: list[float] = []
    x1s: list[float] = []
    x1 = seed_x1
    for y0 in y_values:
        for _ in range(60):
            sol = eval_cross(chain, x1, y0)
            x1_new = target(sol.B)
            if abs(x1_new - x1) <= 1e-12:
                x1 = x1_new
                break
            x1 = x1_new
        else:
            raise ConvergenceError("side-curve pullback did not converge")
        sol = eval_cross(chain, x1, y0)
        x0s.append(sol.A)
        x1s.append(x1)
    return x0s, x1s


def _match_label(value: float, rungs: dict[str, float]) -> str:
    best = min(rungs, key=lambda lbl: abs(rungs[lbl] - value))
    if abs(rungs[best] - value) > 1e-6:
        raise ProductError(
            f"segment endpoint image {value!r} is not a distinguished point"
        )
    return best


def build_piece(lattice: LeafLattice, word: str) -> Piece2D:
    """Full-height strip of a word: stable sides pull the distinguished
    image leaves back through the cross-map chain."""
    f = lattice.henon
    chain = factorize_chain(f, word)
    piece = chain.piece
    rungs = _rung_values(f.a)
    y_lo, y_hi = -lattice.y_extent, lattice.y_extent
    ys = _grid(y_lo, y_hi, _SIDE_SAMPLES)

    sides: list[tuple[float, ...]] = []
    for endpoint in piece.segment:
        label = _match_label(iterate_quad(f.a, endpoint, piece.order), rungs)
        target = lattice.leaf(label)
        x0s, _ = _pullback_curve(chain, target, rungs[label], ys)
        sides.append(tuple(x0s))
    return Piece2D(",".join(piece.word), chain, _strip_box(y_lo, y_hi, sides))


def build_box(lattice: LeafLattice, name: str):
    """Named boxes: "e" (between the innermost leaves), "D" (the global
    trapping box, full leaves through the orientation-preserving fixed
    points with height 1/(8 |b|^m)), or any admissible word."""
    f = lattice.henon
    if name == "e":
        return _leaf_box(lattice, "-alpha0", "alpha0")
    if name == "D":
        bm = abs(f.bm)
        if bm == 0.0:
            raise DomainError("the trapping box is unbounded at b = 0")
        tall = stable_leaf_lattice(f, y_extent=1.0 / (8.0 * bm))
        return _leaf_box(tall, "-beta", "beta")
    return build_piece(lattice, name)


def star_2d(piece: Piece2D, other: Piece2D) -> Piece2D:
    """Concatenate strips: pull the stable sides of the second strip back
    through the chain of the first.

    Preconditions (sampled): the forward image of the first strip must span
    the second strip's sides, which must lie inside the attainable image
    range at every height.
    """
    chain = piece.chain
    f = chain.henon
    ys = piece.box.phi_minus.params()

    # sampled precondition: other's sides sit strictly inside the image span
    for y0 in (ys[0], ys[len(ys) // 2], ys[-1]):
        exits = [
            iterate(f, (side(y0), y0), piece.order)[0]
            for side in (piece.box.phi_minus, piece.box.phi_plus)
        ]
        lo, hi = min(exits), max(exits)
        eps = 1e-7 * max(1.0, hi - lo)  # shared boundaries are admissible
        for side in (other.box.phi_minus, other.box.phi_plus):
            val = side(0.0)
            if not (lo - eps <= val <= hi + eps):
                raise ProductError(
                    f"strip {other.word!r} side at x={val!r} escapes the "
                    f"image span [{lo!r}, {hi!r}] of {piece.word!r}"
                )

    y_lo, y_hi = piece.box.y_range
    ys_new = _grid(y_lo, y_hi, _SIDE_SAMPLES)
    sides = []
    for side in (other.box.phi_minus, other.box.phi_plus):
        x0s, _ = _pullback_curve(chain, side, side(0.0), ys_new)
        sides.append(tuple(x0s))
    word = f"{piece.word},{other.word}"
    combined = factorize_chain(f, piece_1d(word, f.a))
    return Piece2D(word, combined, _strip_box(y_lo, y_hi, sides))


def image_unstable_boundary(piece: Piece2D) -> tuple[Curve, Curve]:
    """Unstable boundary of the forward image: exit-point graphs traced as
    the domain-side x runs over 65 points of the top and bottom edges."""
    f = piece.chain.henon
    out = []
    for y0 in piece.box.y_range:
        lo, hi = piece.box.x_range(y0)
        exits = [iterate(f, (x, y0), piece.order) for x in _grid(lo, hi, 65)]
        xs = [x for x, _ in exits]
        ys = [y for _, y in exits]
        a, b = (xs[0], xs[-1]) if xs[0] <= xs[-1] else (xs[-1], xs[0])
        vals = ys if xs[0] <= xs[-1] else ys[::-1]
        out.append(Curve(a, b, tuple(vals)))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# cone verification
# ---------------------------------------------------------------------------

class ConeReport(NamedTuple):
    ok: bool
    margin: float
    worst_point: tuple[float, float]
    n_probes: int


def verify_cones(f: HenonMap, box: TameBox, cone: ConeSpec) -> ConeReport:
    """Check that the derivative maps vertical-cone boundary vectors into
    the horizontal cone at every point of a 33x33 grid over the box.

    A sample with |x| < eta straddles the fold, where no such statement can
    hold, and fails the check outright. The margin is the worst ratio
    c_h |w_x| / |w_y| over the image vectors w; above 1 means strictly
    inside the horizontal cone.
    """
    y_lo, y_hi = box.y_range
    margin = math.inf
    worst = (math.nan, math.nan)
    count = 0
    for y in _grid(y_lo, y_hi, 33):
        x_lo, x_hi = box.x_range(y)
        for x in _grid(x_lo, x_hi, 33):
            count += 1
            if abs(x) < cone.eta:
                return ConeReport(False, 0.0, (x, y), count)
            J = jacobian(f, (x, y))
            for sx in (-1.0, 1.0):
                vx, vy = sx * cone.c_v, 1.0
                wx = J[0][0] * vx + J[0][1] * vy
                wy = J[1][0] * vx + J[1][1] * vy
                ratio = cone.c_h * abs(wx) / abs(wy) if wy != 0.0 else math.inf
                if ratio < margin:
                    margin = ratio
                    worst = (x, y)
    return ConeReport(margin >= 1.0, margin, worst, count)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_piece_csv(piece: Piece2D, path: str) -> None:
    """Write the four boundary polylines as rows of (curve, param, x, y)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "param", "x", "y"])
        for name in ("phi_minus", "phi_plus"):
            curve: Curve = getattr(piece.box, name)
            for y, x in zip(curve.params(), curve.values):
                writer.writerow([name, f"{y:.17g}", f"{x:.17g}", f"{y:.17g}"])
        for name in ("psi_minus", "psi_plus"):
            curve = getattr(piece.box, name)
            for x, y in zip(curve.params(), curve.values):
                writer.writerow([name, f"{x:.17g}", f"{x:.17g}", f"{y:.17g}"])
