"""Safeguarded scalar and small-system root finding.

All iterative solvers in the package funnel through these routines so that
tolerances and iteration caps are uniform: relative tolerance 1e-12 by
default, a fixed cap of 200 iterations (100 for ``newton2``), bisection
fallback whenever a bracket is available.  There are two exceptions.  The
per-factor solve of ``crossmap.eval_cross`` runs the Newton iteration of
``newton_safeguarded`` (analytic slope, no bracket) written inline with
the same tolerance, cap and stopping rule, because it is called millions
of times per tangency search.  ``embed._embed_solve``, embed-compare's
tracking, is a damped Newton on a Broyden-updated secant model, with its
own residual tolerance, step cap and iteration count.  The fold-tangency solves
of ``renorm`` pass analytic derivatives (``df``, ``jac``) taken from
cross-map jets, and ``renorm.double_tangency`` passes the exact parameter
Jacobian of its two fold defects, taken from the jets' parameter columns;
``newton2`` has no finite-difference mode.  The crossing of
``renorm.twin_find`` is one such ``double_tangency`` solve, and its target
point a second one from the crossing, with the long word's renormalized
value in place of its defect.  Each root of ``renorm.solve_mu_zero`` is
one bracketed secant solve, whose first secant partner is a bracket end.
``newton2`` takes a step already within tolerance whole, so from a
converged seed it costs two evaluations; ``renorm.multi_renormalize``
takes its first step itself and skips the second evaluation, so the
tracked anchor solves of ``embed``, which start from the anchors its secant
model predicts, cost one evaluation when the prediction holds.  Plain
``bisect`` serves ``maps1d.special_parameters``, ``crossmap.shoot_oracle``
and the window edges of ``renorm.renorm_window``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import BracketError, ConvergenceError

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_MAX_ITER",
    "bisect",
    "newton_safeguarded",
    "newton2",
]

DEFAULT_RTOL = 1e-12
DEFAULT_MAX_ITER = 200
_NEWTON2_MAX_ITER = 100


def _converged(step: float, x: float, rtol: float) -> bool:
    return abs(step) <= rtol * max(1.0, abs(x))


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """Bisection on [lo, hi]; requires a sign change at the endpoints."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(DEFAULT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or _converged(hi - lo, mid, rtol):
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def newton_safeguarded(
    f: Callable[[float], float],
    x0: float,
    bracket: tuple[float, float] | None = None,
    df: Callable[[float], float] | None = None,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """Newton iteration falling back to bisection inside an optional bracket.

    Without ``df`` a secant update is used; its first partner is the bracket
    end whose sign differs from f(x0) when a bracket is supplied, and a point
    1e-8 (relative) beside x0 otherwise. When a bracket is supplied the
    iterate is confined to it (bisection step whenever Newton exits or the
    derivative degenerates) and the bracket shrinks around the sign change;
    without one, a degenerate derivative is a ``ConvergenceError``.
    """
    lo = hi = flo = fhi = None
    if bracket is not None:
        lo, hi = float(min(bracket)), float(max(bracket))
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if (flo > 0.0) == (fhi > 0.0):
            raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")

    x = float(x0)
    fx = f(x)
    if fx == 0.0:
        return x
    if lo is not None and df is None:
        # the bracket end across the sign change is a free secant partner
        x_prev, f_prev = (lo, flo) if (fx > 0.0) != (flo > 0.0) else (hi, fhi)
    else:
        x_prev, f_prev = x + max(1e-8, 1e-8 * abs(x)), None

    for _ in range(DEFAULT_MAX_ITER):
        if df is not None:
            slope = df(x)
        else:
            if f_prev is None:
                f_prev = f(x_prev)
            slope = (fx - f_prev) / (x - x_prev) if x != x_prev else 0.0

        use_bisection = slope == 0.0 or not _finite(slope)
        if not use_bisection:
            step = fx / slope
            x_new = x - step
            if lo is not None and not (lo <= x_new <= hi):
                use_bisection = True
        if use_bisection:
            if lo is None:
                raise ConvergenceError(
                    f"newton stalled at x={x!r} with no bracket to fall back on"
                )
            x_new = 0.5 * (lo + hi)

        f_new = f(x_new)
        if lo is not None:
            if (f_new > 0.0) == (flo > 0.0):
                lo, flo = x_new, f_new
            else:
                hi, fhi = x_new, f_new
        x_prev, f_prev = x, fx
        x, fx = x_new, f_new
        if fx == 0.0 or _converged(x - x_prev, x, rtol):
            return x
    raise ConvergenceError(f"newton did not converge after {DEFAULT_MAX_ITER} iterations")


def newton2(
    F: Callable[[Sequence[float]], tuple[float, float]],
    x0: Sequence[float],
    jac: Callable[[Sequence[float]], tuple[tuple[float, float], tuple[float, float]]],
    rtol: float = DEFAULT_RTOL,
) -> tuple[float, float]:
    """Damped 2x2 Newton with the analytic Jacobian ``jac``.

    ``jac`` is asked for at the current iterate only, always after F there.
    Damping halves the step (up to 8 times) while the residual norm fails to
    decrease, except for a step already within ``rtol``, which is taken
    whole: at the rounding floor the residual cannot decrease, so from a
    converged seed the solve costs two evaluations of F.
    """
    x = [float(x0[0]), float(x0[1])]
    fx = F(x)
    rnorm = max(abs(fx[0]), abs(fx[1]))
    for _ in range(_NEWTON2_MAX_ITER):
        J = jac(x)
        det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
        if det == 0.0 or not _finite(det):
            raise ConvergenceError(f"singular jacobian at {tuple(x)!r}")
        dx0 = (fx[0] * J[1][1] - fx[1] * J[0][1]) / det
        dx1 = (fx[1] * J[0][0] - fx[0] * J[1][0]) / det

        whole = _converged(max(abs(dx0), abs(dx1)), max(abs(x[0]), abs(x[1])), rtol)
        scale = 1.0
        for _ in range(8):
            cand = [x[0] - scale * dx0, x[1] - scale * dx1]
            f_cand = F(cand)
            if whole or max(abs(f_cand[0]), abs(f_cand[1])) < rnorm or scale <= 1.0 / 256:
                break
            scale *= 0.5
        x_prev = list(x)
        x, fx = cand, f_cand
        rnorm = max(abs(fx[0]), abs(fx[1]))
        step = max(abs(x[0] - x_prev[0]), abs(x[1] - x_prev[1]))
        if _converged(step, max(abs(x[0]), abs(x[1])), rtol) or rnorm == 0.0:
            return (x[0], x[1])
    raise ConvergenceError(f"newton2 did not converge after {_NEWTON2_MAX_ITER} iterations")


def _finite(v: float) -> bool:
    return v == v and abs(v) != float("inf")
