"""Every function in ``src/henonlab`` runs under a CLI command or an
acceptance criterion, unless ``ALLOWED`` names it with a reason.

Run as a script, this file installs a profiler that records each Python
function called, imports henonlab, and runs ``INVOCATIONS`` through
``cli.run`` and ``criteria_calls``, the calls that the acceptance criteria
make, at small sizes and one worker.  It writes the reached functions as
JSON to the path it is given.  The test runs the script in a fresh
interpreter, so that calls made while the modules load count and no other
test's imports or calls do.  It compares them with every ``def`` and
``lambda`` compiled from the package's source files.  Comprehensions and
generator expressions are left out: whether one is a function of its own
depends on the Python version.
"""

import io
import json
import subprocess
import sys
import types
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "henonlab"

_CONVERGENCE = ("oracles.delta_star and test_renorm check the paper's convergence to "
                "the quadratic family with it; no criterion does (ROADMAP item 5)")

#: Functions that no run below reaches, by ``module.qualname``; a module
#: name alone covers the whole module.  Each reason says what keeps the
#: function in ``src/``.
ALLOWED = {
    "strips": "perfbench's Tracer.install imports henonlab.strips (ROADMAP items 2 "
              "and 5); once run telemetry replaces the tracer, the module moves to "
              "tests/ or goes",
    "maps1d.swallow_classify": "perfbench's tracer.py rebinds it in TARGETS (ROADMAP "
                               "items 1 and 2); test_atlas checks the swallow-escape "
                               "kernel against it",
    "maps1d._composed_escape": "the orbit of swallow_classify, which perfbench's "
                               "tracer.py rebinds (ROADMAP items 1 and 2)",
    "renorm.RenormData.chart": _CONVERGENCE,
    "renorm.RenormData.chart_inv": _CONVERGENCE,
    "renorm.RenormData.renorm_map": _CONVERGENCE,
    "henon.Field2.__reduce_ex__": "runs only when a pool child started by spawn or "
                                  "forkserver receives a map, and the runs here start "
                                  "no child; test_atlas's TestSpawnedChildren runs it",
    "atlas._share_counter": "the pool initializer runs only in a pool child, and the "
                            "runs here start no child; test_atlas's TestDeterminism "
                            "runs it",
    "cli.main": "the console-script entry point: sys.exit around cli.run, which the "
                "runs here call to read the exit code",
    "henon.Frozen": "the record protocol of HenonMap, ConeSpec, CrossMapChain and "
                    "Raster (immutability, and equality, hash, repr and pickling by "
                    "field, as the NamedTuple records have): no run here compares, "
                    "hashes, shows, pickles or assigns to such a record; test_records "
                    "checks it",
    "henon.sine_perturbed_fields.<locals>.<lambda>": "the second partials dxx, dxv and "
                                                     "dvv: only chain code reads them, "
                                                     "and the chain commands reject a "
                                                     "map with xi != 0; test_crossmap "
                                                     "runs the chain on the sine zeta "
                                                     "field",
    "maps1d.swallow_boundary.<locals>.F": "the C3 branch: criterion 3 checks the third "
                                          "curve only at its closed-form point (1/4, "
                                          "1/4) and no command samples it; either the "
                                          "criterion samples C3 or the branch moves to "
                                          "tests/oracles.py (ROADMAP item 5)",
    "maps1d.swallow_boundary.<locals>.J": "the C3 branch, as for F",
}

#: A config file that the --config run reads, written to the working directory.
CONFIG = ("piece.cfg", "word = c1\na = -1.86\n")

#: (expected exit code, argv) of each CLI run; written files go to the
#: working directory.
INVOCATIONS = (
    (0, ("--help",)),
    (2, ()),
    (0, ("twin", "--help")),
    (0, ("special-params",)),
    (0, ("special-params", "--ladder-at", "-1.2", "--digits", "4")),
    (0, ("piece", "--word", "c1", "--a", "-1.86")),
    (0, ("piece", "--config", CONFIG[0])),
    (0, ("crossmap", "--word", "s-", "--a", "-2", "--b", "0")),
    (0, ("crossmap", "--word", "s-", "--a", "-1.95", "--b", "0.01", "--samples", "3")),
    (2, ("crossmap", "--word", "s-", "--a", "-1.95", "--b", "0.01", "--map",
         "sine-perturbed")),
    (2, ("crossmap", "--word", "s-,x", "--a", "-1.95", "--b", "0.01")),
    (0, ("renorm", "--a", "-1.8608", "--b", "0.001")),
    (0, ("renorm-window",)),
    (3, ("renorm-window", "--a-lo", "-1.70", "--a-hi", "-1.65")),
    (0, ("twin",)),
    (3, ("twin", "--m", "3", "--b-hat", "-0.001")),
    (0, ("twin", "--dump-config")),
    (0, ("attractors", "--a", "-1.2", "--b", "0.3", "--seeds", "0,0;0.1,0.1")),
    (0, ("certify", "--grid", "9x3")),
    (0, ("swallow", "--grid", "4x3", "--steps", "50", "--workers", "1", "--out",
         "swallow.ppm")),
    (0, ("swallow", "--kernel", "swallow-lyap", "--grid", "4x3", "--n", "50",
         "--workers", "1", "--format", "csv")),
    (0, ("henon-atlas", "--kernel", "henon-escape", "--grid", "4x3", "--steps", "50",
         "--workers", "1")),
    (0, ("henon-atlas", "--kernel", "henon-lyap", "--grid", "4x3", "--n", "50",
         "--workers", "1", "--format", "csv", "--out", "lyap.csv")),
    (0, ("henon-atlas", "--kernel", "henon-escape", "--map", "zero", "--grid", "4x3",
         "--steps", "50", "--workers", "1")),
    (0, ("henon-atlas", "--kernel", "henon-escape", "--map", "sine-perturbed",
         "--grid", "4x3", "--steps", "50", "--workers", "1")),
    (0, ("henon-atlas", "--kernel", "henon-lyap", "--map", "sine-perturbed",
         "--grid", "4x3", "--n", "50", "--workers", "1")),
    (0, ("henon-atlas", "--kernel", "renorm-strip", "--grid", "3x2", "--workers", "1")),
    (0, ("embed-swallow", "--grid", "3x3", "--workers", "1", "--colormap", "compare")),
)


def criteria_calls():
    """The package calls of acceptance criteria 1-12, on small inputs."""
    from henonlab.atlas import render_csv, render_ppm, sweep
    from henonlab.crossmap import (ConeSpec, det_identity, distortion_report,
                                   eval_cross, factorize_chain, hyperbolicity_check,
                                   shoot_oracle, slice_image)
    from henonlab.embed import compare_summary
    from henonlab.henon import HenonMap
    from henonlab.maps1d import dalpha2_da, quad, special_parameters, swallow_boundary
    from henonlab.renorm import (double_tangency, find_tangency, multi_renormalize,
                                 renorm_window, renormalize, twin_find)

    words = ("c1", "c1,bm0,bm0")
    _, a2 = special_parameters()
    quad(a2, 0.0)
    dalpha2_da(a2)
    swallow_boundary("C1", (-1.0, -0.5), 5)
    swallow_boundary("C2", (-1.0, -0.5), 5)

    chain = factorize_chain(HenonMap(-1.95, 3e-3), "s-")
    lo, hi = slice_image(chain, 0.1)
    x1 = 0.5 * (lo + hi)
    eval_cross(chain, x1, 0.1)
    shoot_oracle(chain, x1, 0.1)
    det_identity(chain, x1, 0.1)
    hyperbolicity_check(chain, ConeSpec(eta=0.5), [x1], [-0.5, 0.5])
    distortion_report(HenonMap, "s-,s-", ab_values=[(-1.95, 1e-4)],
                      x1_values=[0.0], y0_values=[0.0])

    win = renorm_window(lambda a: HenonMap(a, 0.0), "c1", -1.8646, -1.8580)
    renormalize(HenonMap(win.a_star, 1e-3), "c1")
    assert win.width > 0.0

    dt = double_tangency(HenonMap, *words, (-1.86583301618128, 2.37610577353131e-3))
    f_dt = HenonMap(dt.a, dt.b)
    anchors = tuple(find_tangency(factorize_chain(f_dt, w)).c for w in words)
    multi_renormalize(f_dt, words, anchor_seed=anchors)
    md = multi_renormalize(HenonMap(-1.8665368062, -2.44311150e-3), words)
    md.transition(1, *md.transition(0, 0.5, 0.0))
    assert md.count == 2

    tw = twin_find(HenonMap, k=1, j=0, b_hat=1e-2)
    assert tw.periods and tw.report.cycles[0].spectral_radius < 1.0

    compare_summary(sweep("embed-compare", 3, 3, workers=1))
    sweep("henon-lyap", 3, 3, a_range=(-0.3, 0.3), b_range=(-0.2, 0.4),
          params={"n": 100}, workers=1)
    raster = sweep("swallow-escape", 4, 4, workers=1)
    assert raster == raster and raster.tag_set()
    render_ppm(raster)
    render_csv(raster)


def _reach(out: str) -> None:
    """Run INVOCATIONS and criteria_calls under a profiler and write the
    reached functions of the package to ``out`` as [file, line, name]."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    Path(CONFIG[0]).write_text(CONFIG[1], encoding="utf-8")
    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        from henonlab.cli import run

        stdout, stderr = sys.stdout, sys.stderr
        for expected, argv in INVOCATIONS:
            sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            sys.stderr = io.StringIO()
            try:
                code = run(list(argv))
            finally:
                err = sys.stderr.getvalue()
                sys.stdout, sys.stderr = stdout, stderr
            if code != expected:
                raise SystemExit(f"{argv}: exit {code}, expected {expected}\n{err}")
        criteria_calls()
    finally:
        sys.setprofile(None)
    reached = [[code.co_filename, code.co_firstlineno, code.co_name] for code in seen
               if Path(code.co_filename).resolve().parent == PACKAGE]
    Path(out).write_text(json.dumps(reached))


def _functions(code: types.CodeType, prefix: str):
    """(code, qualname) of each def and lambda nested in ``code``."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        name = prefix + const.co_name
        if not const.co_flags & CO_NEWLOCALS:  # a class body
            yield from _functions(const, name + ".")
        elif const.co_name == "<lambda>" or not const.co_name.startswith("<"):
            yield const, name
            yield from _functions(const, name + ".<locals>.")


def _last_line(code: types.CodeType) -> int:
    lines = [line for _, _, line in code.co_lines() if line is not None]
    nested = [_last_line(c) for c in code.co_consts if isinstance(c, types.CodeType)]
    return max(lines + nested + [code.co_firstlineno])


def package_functions() -> dict:
    """{(file, first line, name): (module.qualname, 'path:line, N lines')}
    for every def and lambda in the package's source files."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code, qualname in _functions(module, path.stem + "."):
            where = (f"{path.relative_to(ROOT)}:{code.co_firstlineno}, "
                     f"{_last_line(code) - code.co_firstlineno + 1} lines")
            found[(str(path), code.co_firstlineno, code.co_name)] = (qualname, where)
    return found


def _allowed_by(qualname: str) -> str | None:
    for entry in ALLOWED:
        if qualname == entry or qualname.startswith(entry + "."):
            return entry
    return None


def test_every_function_is_reached_or_allowed(tmp_path):
    out = tmp_path / "reached.json"
    proc = subprocess.run([sys.executable, __file__, str(out)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reached = {(str(Path(f).resolve()), line, name) for f, line, name in json.loads(out.read_text())}
    functions = package_functions()
    unreached = {key: functions[key] for key in functions.keys() - reached}

    missing = sorted(f"{qualname} ({where})" for qualname, where in unreached.values()
                     if _allowed_by(qualname) is None)
    assert not missing, "functions no CLI run or criterion reaches:\n" + "\n".join(missing)

    needed = {_allowed_by(qualname) for qualname, _ in unreached.values()}
    stale = sorted(set(ALLOWED) - needed)
    assert not stale, "allowlist entries that name no unreached function: " + ", ".join(stale)


if __name__ == "__main__":
    _reach(sys.argv[1])
