"""Per-layer tracing of henonlab from outside the package.

The tracer replaces public functions of ``crossmap``, ``rootfind``,
``renorm``, ``maps1d``, ``henon`` and ``atlas`` with counting or timing
wrappers.  A wrapper is bound in the defining module and in every
``henonlab`` module that imported the name, so calls made through
``from .crossmap import eval_cross`` are seen as well.  Nothing under
``src/`` changes.

Counts and times are aggregated per function, which keeps memory bounded
however many calls a workload makes.  Functions of the ``renorm`` and
``atlas`` layers are also recorded as spans with a parent span.  Self time
is a timed call's duration minus the time covered by the timed calls made
directly inside it.  The newton solves made inside ``eval_cross`` (one
per factor solve, millions per workload) are counted but not timed: their
time is part of ``crossmap.eval_cross.self_s``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

#: (module, function, records a span).  Every entry is counted and timed;
#: ``rootfind.newton_safeguarded`` is only counted inside ``eval_cross``.
TARGETS = (
    ("crossmap", "eval_cross", False),
    ("crossmap", "eval_cross_derivatives", False),
    ("crossmap", "factorize_chain", False),
    ("rootfind", "newton_safeguarded", False),
    ("rootfind", "newton2", False),
    ("rootfind", "bisect", False),
    ("maps1d", "piece_1d", False),
    ("maps1d", "swallow_classify", False),
    ("henon", "find_attractors", False),
    ("renorm", "find_tangency", True),
    ("renorm", "solve_mu_zero", True),
    ("renorm", "renormalize", True),
    ("renorm", "multi_renormalize", True),
    ("renorm", "twin_find", True),
    ("atlas", "sweep", True),
    ("atlas", "render_ppm", True),
    ("atlas", "render_csv", True),
    ("atlas", "emit", True),
)

_ROOTFIND = ("rootfind.newton_safeguarded", "rootfind.newton2", "rootfind.bisect")


def rebind(module: str, name: str, make_wrapper) -> None:
    """Replace ``henonlab.<module>.<name>`` wherever henonlab imported it."""
    original = getattr(importlib.import_module(f"henonlab.{module}"), name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("henonlab") and mod.__dict__.get(name) is original:
            setattr(mod, name, wrapper)


class Tracer:
    """Call counts, inclusive and self times, spans and work counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # outermost activations only
        self.self_time: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        # one frame per timed call in progress: [child seconds, enclosing span id]
        self.stack: list[list] = [[0.0, None]]
        self.spans: list[list] = []  # [name, parent id, start, end, child seconds]
        self.cross_depth = 0
        self.sweeps = 0
        self.factor_solves = 0
        self.emit_bytes = 0

    def install(self) -> None:
        for module in ("atlas", "cli", "crossmap", "henon", "maps1d", "renorm",
                       "rootfind", "strips"):
            importlib.import_module(f"henonlab.{module}")
        for module, name, span in TARGETS:
            rebind(module, name, lambda fn, key=f"{module}.{name}", span=span:
                   self._wrap(key, fn, span))

    def _wrap(self, key: str, fn, span: bool):
        calls, total, self_time, active = self.calls, self.total, self.self_time, self.active
        stack, spans = self.stack, self.spans
        perf = time.perf_counter

        def timed(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            active[key] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                active[key] -= 1
                parent[0] += elapsed
                self_time[key] += elapsed - frame[0]
                if not active[key]:
                    total[key] += elapsed
                if span:
                    spans[frame[1]] = [key, parent[1], start, end, frame[0]]
            return result

        if key == "crossmap.eval_cross":
            def eval_cross(chain, *args, **kwargs):
                self.cross_depth += 1
                try:
                    result = timed(chain, *args, **kwargs)
                finally:
                    self.cross_depth -= 1
                self.sweeps += result.sweeps
                self.factor_solves += result.sweeps * chain.order
                return result
            return eval_cross

        if key == "rootfind.newton_safeguarded":
            def newton_safeguarded(*args, **kwargs):
                if self.cross_depth:
                    calls[key] += 1
                    return fn(*args, **kwargs)
                return timed(*args, **kwargs)
            return newton_safeguarded

        if key in ("atlas.render_ppm", "atlas.render_csv"):
            def render(*args, **kwargs):
                payload = timed(*args, **kwargs)
                self.emit_bytes += len(payload)
                return payload
            return render

        return timed

    def metrics(self) -> dict[str, float]:
        """Per-layer figures under their published names."""
        calls, total, self_time = self.calls, self.total, self.self_time
        out = {
            "crossmap.eval_cross.calls": calls["crossmap.eval_cross"],
            "crossmap.eval_cross.self_s": self_time["crossmap.eval_cross"],
            "crossmap.eval_cross.sweeps": self.sweeps,
            "crossmap.factor_solves": self.factor_solves,
            "crossmap.eval_cross_derivatives.calls": calls["crossmap.eval_cross_derivatives"],
            "crossmap.eval_cross_derivatives.self_s": self_time["crossmap.eval_cross_derivatives"],
            "crossmap.factorize_chain.calls": calls["crossmap.factorize_chain"],
            "rootfind.newton_safeguarded.calls": calls["rootfind.newton_safeguarded"],
            "rootfind.newton2.calls": calls["rootfind.newton2"],
            "rootfind.bisect.calls": calls["rootfind.bisect"],
            "rootfind.self_s": sum(self_time[k] for k in _ROOTFIND),
            "renorm.find_tangency.calls": calls["renorm.find_tangency"],
            "renorm.find_tangency.self_s": self_time["renorm.find_tangency"],
            "renorm.solve_mu_zero.calls": calls["renorm.solve_mu_zero"],
            "renorm.renormalize.calls": calls["renorm.renormalize"],
            "renorm.twin_find.s": total["renorm.twin_find"],
            "renorm.multi_renormalize.calls": calls["renorm.multi_renormalize"],
            "renorm.multi_renormalize.self_s": self_time["renorm.multi_renormalize"],
            "maps1d.piece_1d.calls": calls["maps1d.piece_1d"],
            "maps1d.piece_1d.s": total["maps1d.piece_1d"],
            "maps1d.swallow_classify.calls": calls["maps1d.swallow_classify"],
            "maps1d.swallow_classify.s": total["maps1d.swallow_classify"],
            "henon.find_attractors.s": total["henon.find_attractors"],
            "atlas.sweep.s": total["atlas.sweep"],
            "atlas.sweep.self_s": self_time["atlas.sweep"],
            "atlas.render_ppm.s": total["atlas.render_ppm"],
            "atlas.render_csv.s": total["atlas.render_csv"],
            "atlas.emit.bytes": self.emit_bytes,
        }
        return {name: float(value) for name, value in out.items()}

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "parent": s[1], "start": s[2], "end": s[3],
             "self_s": s[3] - s[2] - s[4]}
            for i, s in enumerate(self.spans) if s is not None
        ]
