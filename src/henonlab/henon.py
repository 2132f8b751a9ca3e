"""Henon-like maps of multiplicity m with perturbation hooks.

The map is (x, y) |-> (x^2 + a - b^m y + zeta(x, b^m y), x + xi(x, b^m y)).
Perturbation fields carry analytic value/partial evaluators; there is no
automatic differentiation anywhere in the package.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .errors import ConvergenceError, DomainError, whole_number
from .rootfind import newton2

__all__ = [
    "Field2",
    "ZERO_FIELD",
    "HenonMap",
    "EvalResult",
    "Cycle",
    "AttractorReport",
    "evaluate",
    "apply_map",
    "iterate",
    "jacobian",
    "find_attractors",
    "build_map",
    "MAP_NAMES",
    "sine_perturbed_fields",
]


def _zero(x: float, v: float) -> float:
    return 0.0


class Field2(NamedTuple):
    """Scalar field of two arguments with analytic partial evaluators."""

    value: Callable[[float, float], float] = _zero
    dx: Callable[[float, float], float] = _zero
    dv: Callable[[float, float], float] = _zero
    dxx: Callable[[float, float], float] = _zero
    dxv: Callable[[float, float], float] = _zero
    dvv: Callable[[float, float], float] = _zero

    def __reduce_ex__(self, protocol):
        # The chain solvers test ``zeta is ZERO_FIELD``, so the zero field
        # must come back from a pickle as the module singleton.
        if self is ZERO_FIELD:
            return "ZERO_FIELD"
        return tuple.__reduce_ex__(self, protocol)


ZERO_FIELD = Field2()


_set = object.__setattr__


class Frozen:
    """Base of the records that a NamedTuple cannot be: ``__slots__``
    classes that set their fields, named in ``_fields``, once in
    ``__init__`` with ``object.__setattr__``, and compare, hash, show and
    pickle them as a frozen dataclass would.  A slot also reads faster
    than a NamedTuple field, which counts for the records that inner loops
    read."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class HenonMap(Frozen):
    """Henon-like map with parameters (a, b), multiplicity m and hooks.

    ``bm`` is b^m, worked out once; it is not a field, so equality, hash,
    repr and pickling leave it out."""

    __slots__ = ("a", "b", "m", "zeta", "xi", "bm")
    _fields = ("a", "b", "m", "zeta", "xi")

    def __init__(self, a: float, b: float, m: int = 1,
                 zeta: Field2 = ZERO_FIELD, xi: Field2 = ZERO_FIELD):
        whole_number("multiplicity m", m)
        if m < 1:
            raise DomainError(f"multiplicity m must be at least 1, got {m}")
        try:
            bm = b ** m
        except OverflowError:
            raise DomainError(f"b^m overflows at b = {b!r}, m = {m}") from None
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "m", m)
        _set(self, "zeta", zeta)
        _set(self, "xi", xi)
        _set(self, "bm", bm)

    @property
    def normalized(self) -> bool:
        """True when xi is identically zero."""
        return self.xi is ZERO_FIELD


class EvalResult(NamedTuple):
    image: tuple[float, float]
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    det: float


def apply_map(f: HenonMap, z: Sequence[float]) -> tuple[float, float]:
    x, y = z
    v = f.bm * y
    return (x * x + f.a - v + f.zeta.value(x, v), x + f.xi.value(x, v))


def iterate(f: HenonMap, z: Sequence[float], n: int) -> tuple[float, float]:
    """The n-th forward image of z (z itself for n = 0)."""
    for _ in range(n):
        z = apply_map(f, z)
    return (z[0], z[1])


def jacobian(f: HenonMap, z: Sequence[float]) -> tuple[tuple[float, float], tuple[float, float]]:
    x, y = z
    bm = f.bm
    v = bm * y
    return (
        (2.0 * x + f.zeta.dx(x, v), bm * (f.zeta.dv(x, v) - 1.0)),
        (1.0 + f.xi.dx(x, v), bm * f.xi.dv(x, v)),
    )


def evaluate(f: HenonMap, z: Sequence[float]) -> EvalResult:
    J = jacobian(f, z)
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    return EvalResult(apply_map(f, z), J, det)


# ---------------------------------------------------------------------------
# attractors
# ---------------------------------------------------------------------------

class Cycle(NamedTuple):
    points: tuple[tuple[float, float], ...]
    period: int
    multipliers: tuple[complex, complex]

    @property
    def spectral_radius(self) -> float:
        return max(abs(self.multipliers[0]), abs(self.multipliers[1]))


class AttractorReport(NamedTuple):
    cycles: tuple[Cycle, ...]
    skipped: tuple[tuple[float, float], ...]


def _mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def _cycle_pass(f: HenonMap, z: Sequence[float], period: int):
    """One pass along the orbit of z: the period product of the Jacobians,
    the period-th image, the orbit's first ``period`` points and the product
    of the step determinants."""
    J = ((1.0, 0.0), (0.0, 1.0))
    w = (z[0], z[1])
    points = []
    det = 1.0
    for _ in range(period):
        points.append(w)
        step = jacobian(f, w)
        det *= step[0][0] * step[1][1] - step[0][1] * step[1][0]
        J = _mat_mul(step, J)
        w = apply_map(f, w)
    return J, w, tuple(points), det


def _multipliers(tr: float, det: float) -> tuple[complex, complex]:
    """Roots of x^2 - tr x + det, the larger one first.

    ``det`` is the product of the step determinants along the cycle.  The
    determinant of the period product equals it in exact arithmetic, but
    in floating point it is mostly cancellation between entries of the
    product; with the step product a complex pair has modulus sqrt(det) to
    rounding.  The larger real root is tr/2 + sign(tr) sqrt(tr^2/4 - det)
    and the other det over it, so neither loses digits to cancellation."""
    half = 0.5 * tr
    disc = half * half - det
    if disc < 0.0:
        root = complex(half, math.sqrt(-disc))
        return root, root.conjugate()
    big = half + math.copysign(math.sqrt(disc), half)
    return complex(big), complex(det / big if big != 0.0 else 0.0)


def _same_cycle(points_a, points_b, tol: float) -> bool:
    if len(points_a) != len(points_b):
        return False
    n = len(points_a)
    for shift in range(n):
        if all(
            max(abs(points_a[(i + shift) % n][0] - points_b[i][0]),
                abs(points_a[(i + shift) % n][1] - points_b[i][1])) <= tol
            for i in range(n)
        ):
            return True
    return False


def _transient(f: HenonMap, x: float, y: float, n: int, r_esc: float):
    """(x, y) after n map steps, or None once max(|x|, |y|) > r_esc.

    The steps make ``apply_map``'s operations in its order, on locals.  A
    map without hooks takes its first step so too, and after it calls no
    hook and tests the new x only: the new y is the old x, which passed the
    test already (``atlas._block_henon_escape``), so the test agrees with
    max(|x|, |y|) > r_esc, NaNs included.  Those steps also leave out the
    zero field's + 0.0, which only turns -0.0 into 0.0: x * x + a - bm * y
    is never -0.0, as x * x is not, and y is such an x."""
    a, bm = f.a, f.bm
    zeta, xi = f.zeta.value, f.xi.value
    full_steps = min(n, 1) if f.zeta is ZERO_FIELD and f.xi is ZERO_FIELD else n
    for _ in range(full_steps):
        v = bm * y
        x, y = x * x + a - v + zeta(x, v), x + xi(x, v)
        if max(abs(x), abs(y)) > r_esc:
            return None
    for _ in range(n - full_steps):
        x, y = x * x + a - bm * y, x
        if abs(x) > r_esc:
            return None
    return x, y


def _first_return(f: HenonMap, x0: float, y0: float, max_period: int, tol: float):
    """The least p <= max_period with max(|f^p(z0) - z0|) < tol, else None.

    The steps make ``apply_map``'s operations in its order, on locals; at
    most max_period of them, so the zero field is called like any hook."""
    a, bm = f.a, f.bm
    zeta, xi = f.zeta.value, f.xi.value
    x, y = x0, y0
    for p in range(1, max_period + 1):
        v = bm * y
        x, y = x * x + a - v + zeta(x, v), x + xi(x, v)
        if max(abs(x - x0), abs(y - y0)) < tol:
            return p
    return None


#: recurrence tolerance of the period scan
_RETURN_TOL = 1e-9
#: distance below which two cycle points are one point
_DEDUP_TOL = 1e-6


def find_attractors(
    f: HenonMap,
    seeds: Sequence[Sequence[float]],
    max_period: int = 64,
    n_transient: int = 5000,
    r_esc: float = 10.0,
) -> AttractorReport:
    """Detect attracting cycles by recurrence, then refine by Newton.

    Each seed runs a transient of exactly ``n_transient`` map steps and is
    dropped once the sup-norm exceeds r_esc; then the minimal period
    <= max_period with recurrence within 1e-9 is located.  Both loops run
    ``apply_map``'s arithmetic on local floats (``_transient``,
    ``_first_return``), so they give its bits.  The cycle is refined by
    Newton on f^period - id.  Each point newton2 evaluates gets one pass
    along its orbit (``_cycle_pass``) for the residual and the Jacobian; one
    more pass at the refined point gives the cycle's points, its Jacobian
    product and the product of the step determinants.  The Floquet
    multipliers are the roots of the characteristic polynomial of the
    Jacobian product, with its trace and that determinant product
    (``_multipliers``).  Cycles with spectral radius >= 1 are discarded;
    duplicates are identified up to cyclic shifts.  Counts must be whole
    numbers and seeds pairs of numbers (``DomainError``).
    """
    max_period = whole_number("max_period", max_period)
    n_transient = whole_number("n_transient", n_transient)
    if max_period < 1 or n_transient < 0:
        raise DomainError(
            f"need max_period >= 1 and n_transient >= 0, got {max_period}, {n_transient}"
        )
    if not r_esc > 0.0:
        raise DomainError(f"escape radius must be positive, got {r_esc!r}")
    try:
        starts = [(float(x), float(y)) for x, y in seeds]
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"seeds must be pairs of numbers, got {seeds!r}") from None
    cycles: list[Cycle] = []
    skipped: list[tuple[float, float]] = []
    for seed in starts:
        z = _transient(f, seed[0], seed[1], n_transient, r_esc)
        if z is None:
            continue
        period = _first_return(f, z[0], z[1], max_period, _RETURN_TOL)
        if period is None:
            skipped.append(seed)
            continue

        def GJ(v, p=period):
            J, w = _cycle_pass(f, v, p)[:2]
            return ((w[0] - v[0], w[1] - v[1]),
                    ((J[0][0] - 1.0, J[0][1]), (J[1][0], J[1][1] - 1.0)))

        try:
            zr = newton2(GJ, z, rtol=1e-13)
        except ConvergenceError:
            skipped.append(seed)
            continue

        J, _, points, det = _cycle_pass(f, zr, period)
        mults = _multipliers(J[0][0] + J[1][1], det)
        if not max(abs(mults[0]), abs(mults[1])) < 1.0:  # NaN is no attractor either
            continue

        # keep the minimal period: reject if a proper divisor already closes
        minimal = True
        for q in range(1, period):
            if period % q == 0:
                if max(abs(points[q][0] - points[0][0]), abs(points[q][1] - points[0][1])) < _DEDUP_TOL:
                    minimal = False
                    break
        if not minimal:
            continue

        cycle = Cycle(points, period, mults)
        if not any(_same_cycle(cycle.points, c.points, _DEDUP_TOL) for c in cycles):
            cycles.append(cycle)
    return AttractorReport(tuple(cycles), tuple(skipped))


# ---------------------------------------------------------------------------
# builtin map families
# ---------------------------------------------------------------------------

def sine_perturbed_fields(delta: float) -> tuple[Field2, Field2]:
    """zeta = delta*sin(x+v), xi = delta*sin(x); C1 norm is delta."""
    zeta = Field2(
        value=lambda x, v: delta * math.sin(x + v),
        dx=lambda x, v: delta * math.cos(x + v),
        dv=lambda x, v: delta * math.cos(x + v),
        dxx=lambda x, v: -delta * math.sin(x + v),
        dxv=lambda x, v: -delta * math.sin(x + v),
        dvv=lambda x, v: -delta * math.sin(x + v),
    )
    xi = Field2(
        value=lambda x, v: delta * math.sin(x),
        dx=lambda x, v: delta * math.cos(x),
        dxx=lambda x, v: -delta * math.sin(x),
    )
    return zeta, xi


#: The map families that ``build_map`` builds, sorted by name.
MAP_NAMES = ("sine-perturbed", "standard", "zero")


def build_map(name: str, a: float, b: float, m: int = 1, delta: float = 0.01) -> HenonMap:
    """The family's map at (a, b); delta is the sine-perturbed amplitude."""
    if name == "standard":
        return HenonMap(a, b, m)
    if name == "zero":
        return HenonMap(a, 0.0, m)
    if name == "sine-perturbed":
        return HenonMap(a, b, m, *sine_perturbed_fields(delta))
    raise DomainError(f"unknown map {name!r}; known: {list(MAP_NAMES)}")
