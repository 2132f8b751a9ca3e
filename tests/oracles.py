"""Reference routines that the tests compare henonlab against.

Convention: references that tests compare against live here, not under
``src/``, which holds what the command line runs.  Each is the scalar, slow
or independent form of something the package computes another way; the
package never imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from henonlab.atlas import TAG_NAMES, Raster, _composed_left, _run_orbits
from henonlab.crossmap import CrossMapChain, eval_cross
from henonlab.errors import DomainError
from henonlab.henon import ZERO_FIELD, Field2, HenonMap, apply_map, iterate, jacobian
from henonlab.maps1d import ladder
from henonlab.renorm import RenormData, TangencyData, _chain_forward, _first_coord
from henonlab.rootfind import newton_safeguarded


# ---------------------------------------------------------------------------
# orbits and Lyapunov exponents of Henon-like maps: the scalar forms that
# the henon-escape and henon-lyap kernels of ``atlas`` mirror
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapValue:
    """Per-step Lyapunov value of ``lyapunov`` or a dedicated sentinel tag."""

    tag: str  # value | zero-derivative | escape
    value: float | None
    #: map step at which the orbit escaped; set by ``lyapunov`` on
    #: the escape sentinel, None otherwise
    step: int | None = None

    @property
    def is_value(self) -> bool:
        return self.tag == "value"


def orbit_escape(
    f: HenonMap,
    z0: Sequence[float],
    n_max: int,
    r_esc: float = 10.0,
) -> tuple[list[tuple[float, float]], bool, int]:
    """Iterate until the sup-norm exceeds r_esc or n_max steps are done."""
    z = (float(z0[0]), float(z0[1]))
    traj = [z]
    for step in range(1, n_max + 1):
        z = apply_map(f, z)
        traj.append(z)
        if max(abs(z[0]), abs(z[1])) > r_esc:
            return traj, True, step
    return traj, False, n_max


def lyapunov(
    f: HenonMap,
    z0: Sequence[float],
    v0: Sequence[float],
    n: int,
    r_esc: float = 10.0,
) -> LyapValue:
    """Tangent-growth exponent along the orbit of z0, per step.

    The tangent vector is renormalized each step, making the result exactly
    invariant under scaling of v0.  An escaping orbit returns the escape
    sentinel with ``step``, the number of map steps taken when the sup-norm
    first exceeded r_esc.
    """
    z = (float(z0[0]), float(z0[1]))
    norm = math.hypot(v0[0], v0[1])
    if norm == 0.0:
        raise DomainError("v0 must be nonzero")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    vx, vy = v0[0] / norm, v0[1] / norm
    total = 0.0
    for step in range(1, n + 1):
        J = jacobian(f, z)
        wx = J[0][0] * vx + J[0][1] * vy
        wy = J[1][0] * vx + J[1][1] * vy
        growth = math.hypot(wx, wy)
        if growth == 0.0:
            return LyapValue("zero-derivative", None)
        total += math.log(growth)
        vx, vy = wx / growth, wy / growth
        z = apply_map(f, z)
        if max(abs(z[0]), abs(z[1])) > r_esc:
            return LyapValue("escape", None, step)
    return LyapValue("value", total / n)


# ---------------------------------------------------------------------------
# fold charts and renormalized parameters
# ---------------------------------------------------------------------------

def _defect_at(chain: CrossMapChain, c: float, t: float) -> float:
    """One fold step from the chart ray versus the next strip entry."""
    f = chain.henon
    b_val = eval_cross(chain, c + t, c).B
    return _first_coord(f, c + t, b_val) - eval_cross(chain, c, c + t).A


def _exit_height(t: TangencyData, s: float) -> float:
    """The exit-height graph through the anchor: B(c + s, c)."""
    if s == 0.0:
        return t.B
    return eval_cross(t.chain, t.c + s, t.c).B


def chart(data: RenormData, X: float, Y: float) -> tuple[float, float]:
    t = data.tangency
    return (t.c + t.sigma * X, _exit_height(t, t.sigma * X) + t.sigma * t.lam * Y)


def chart_inv(data: RenormData, x: float, y: float) -> tuple[float, float]:
    t = data.tangency
    X = (x - t.c) / t.sigma
    if t.lam == 0.0:
        return X, 0.0
    return X, (y - _exit_height(t, t.sigma * X)) / (t.sigma * t.lam)


def renorm_map(data: RenormData, X: float, Y: float) -> tuple[float, float]:
    """One full return in chart coordinates: one explicit fold step,
    then the contracted chain passage, then ``chart_inv``."""
    t = data.tangency
    f = t.chain.henon
    limit = ladder(f.a).require("beta") + 1.0
    if abs(t.c + t.sigma * X) > limit:
        raise DomainError(
            f"renormalization sample X={X!r} leaves the strip region"
        )
    z = chart(data, X, Y)
    w = apply_map(f, z)
    for p in (z, w):
        if max(abs(p[0]), abs(p[1])) > limit:
            raise DomainError(
                f"renormalization sample {p!r} leaves the strip region"
            )
    Xp, Yp = chart_inv(data, *_chain_forward(t.chain, w[0], w[1]))
    if t.lam == 0.0:
        return Xp, X  # degenerate thickness: the exit height is the entry
    return Xp, Yp


def delta_star(
    data: RenormData,
    R: float = 2.5,
    grid: int = 33,
) -> float:
    """Sup-norm deviation of the chart return from the quadratic family
    (X, Y) |-> (X^2 + abar - bbar^M Y, X) over the natural window."""
    # Chart thickness sigma*lam is the plane separation per unit Y. Once it
    # drops toward the rounding floor of the exit-height evaluations (at
    # b = 0 exactly, or ~1e-29 for deep words at small b, where the two
    # B-values agree to the last bit), the return carries no resolvable
    # Y-dependence: compare the X-component only, over a plain [-R, R]^2.
    thickness = abs(data.tangency.sigma * data.tangency.lam)
    resolvable = thickness >= 1e-20
    bbarM = data.bbar ** data.M if resolvable else 0.0
    y_extent = R / abs(bbarM) if bbarM != 0.0 else R
    worst = 0.0
    for i in range(grid):
        X = -R + 2.0 * R * i / (grid - 1)
        for j in range(grid):
            Y = -y_extent + 2.0 * y_extent * j / (grid - 1)
            Xp, Yp = renorm_map(data, X, Y)
            model = X * X + data.abar - bbarM * Y
            worst = max(worst, abs(Xp - model))
            if resolvable:
                worst = max(worst, abs(Yp - X))
    return worst


def conjugate_rescale(f: HenonMap, c: float, q: float) -> HenonMap:
    """Conjugate by the affine chart centered at the point with both
    coordinates c and scaled by q. Renormalized parameters are invariant
    under this change of coordinates."""
    bmc = f.bm * c
    r = 1.0 / q
    zeta = f.zeta

    def zv(x: float, v: float) -> float:
        return (r - 1.0) * x * x + 2.0 * c * x + q * zeta.value(c + x * r, bmc + v * r)

    def zdx(x: float, v: float) -> float:
        return 2.0 * (r - 1.0) * x + 2.0 * c + zeta.dx(c + x * r, bmc + v * r)

    def zdv(x: float, v: float) -> float:
        return zeta.dv(c + x * r, bmc + v * r)

    def zdxx(x: float, v: float) -> float:
        return 2.0 * (r - 1.0) + zeta.dxx(c + x * r, bmc + v * r) * r

    def zdxv(x: float, v: float) -> float:
        return zeta.dxv(c + x * r, bmc + v * r) * r

    def zdvv(x: float, v: float) -> float:
        return zeta.dvv(c + x * r, bmc + v * r) * r

    new_zeta = Field2(zv, zdx, zdv, zdxx, zdxv, zdvv)

    if f.xi is ZERO_FIELD:
        new_xi = ZERO_FIELD
    else:
        xi = f.xi
        new_xi = Field2(
            lambda x, v: q * xi.value(c + x * r, bmc + v * r),
            lambda x, v: xi.dx(c + x * r, bmc + v * r),
            lambda x, v: xi.dv(c + x * r, bmc + v * r),
            lambda x, v: xi.dxx(c + x * r, bmc + v * r) * r,
            lambda x, v: xi.dxv(c + x * r, bmc + v * r) * r,
            lambda x, v: xi.dvv(c + x * r, bmc + v * r) * r,
        )
    a_new = q * (c * c + f.a - c - bmc)
    return HenonMap(a_new, f.b, f.m, new_zeta, new_xi)


def chart_scales(sigma: Sequence[float]) -> tuple[float, ...]:
    """Chart scales of a cycle of any length: gamma_i is the geometric mean
    of the |sigma_(i+r)|, r = 1..count, with weights 2^-r / (1 - 2^-count),
    signed like sigma_i, so that gamma_i^2 = gamma_(i+1) sigma_(i+1)."""
    count = len(sigma)
    denom = 1.0 - 2.0 ** (-count)
    gamma = []
    for i in range(count):
        mag = 1.0
        for r in range(1, count + 1):
            mag *= abs(sigma[(i + r) % count]) ** (2.0 ** (-r) / denom)
        gamma.append(math.copysign(mag, sigma[i]))
    return tuple(gamma)


# ---------------------------------------------------------------------------
# cross maps
# ---------------------------------------------------------------------------

def reverse_eval(
    chain: CrossMapChain,
    x0: float,
    y_exit: float,
    seed: float = 0.0,
) -> tuple[float, float]:
    """Recover (x1, y0) from the opposite boundary pair (x0, y_exit).

    Scalar shooting on y0: the forward orbit from (x0, y0) must exit with
    final y equal to y_exit. Useful as a time-symmetry check; the constraint
    slope degenerates as b -> 0, so this is meant for |b| bounded away
    from zero.
    """
    f = chain.henon
    n = chain.order

    def g(y0: float) -> float:
        return iterate(f, (x0, y0), n)[1] - y_exit

    y0 = newton_safeguarded(g, seed)
    x1, _ = iterate(f, (x0, y0), n)
    return x1, y0


# ---------------------------------------------------------------------------
# the embed-compare orbit checks one composed step per orbit-loop step: the
# forms that ``embed._direct_bounded`` and ``embed._predicted_bounded`` chunk
# ---------------------------------------------------------------------------

def embed_direct_left(orbits: np.ndarray, period: int, n_composed: int,
                      r_esc: float) -> np.ndarray:
    """The composed step at which each orbit row (x, y, a, b^m, c_0,
    gamma_0) left the chart, 0 if it stayed or retired as periodic."""
    def advance(px, py, a_px, bm, c0, g0):
        for _ in range(period):
            px, py = px * px + a_px - bm * py, px
        escaped = ~(np.abs(px) < 1e100) | (np.abs((px - c0) / g0) > r_esc)
        return (px, py, a_px, bm, c0, g0), escaped, None

    return _run_orbits(advance, tuple(orbits.T), n_composed, position=2)[0]


def embed_predicted_left(first: np.ndarray, second: np.ndarray, n_composed: int,
                         r_esc: float) -> np.ndarray:
    """The composed step at which the a-then-b composed orbit of 0 escaped,
    0 if it stayed or retired as periodic."""
    return _composed_left(first, second, n_composed, r_esc)


# ---------------------------------------------------------------------------
# the reader of ``atlas.render_csv``'s emission
# ---------------------------------------------------------------------------

_TAG_BY_NAME = {name: code for code, name in enumerate(TAG_NAMES)}


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
