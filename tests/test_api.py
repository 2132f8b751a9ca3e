"""Every name a module exports through ``__all__`` must exist, every
defaulted parameter of an exported function is set by some call, the scalar
modules load without numpy, ``henon`` loads without ``maps1d``, an orbit
raster loads no chain code, ``twin`` loads no raster module, the CLI starts
no OpenBLAS thread, no module imports ``dataclasses``, and every function
perfbench's tracer rebinds exists."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import henonlab

# ``__main__`` runs the CLI on import, so it is not a library module.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(henonlab.__path__)
    if info.name != "__main__"
)


def test_modules_with_exports_are_found():
    exporting = {
        name for name in MODULES
        if hasattr(importlib.import_module(f"henonlab.{name}"), "__all__")
    }
    assert {"crossmap", "errors", "henon", "maps1d", "renorm", "rootfind"} <= exporting


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"henonlab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


def _calls_by_name() -> dict[str, list[tuple[ast.Call, bool]]]:
    """Every call in the package, its tests and perfbench, by called name:
    (call, True) under the name it calls, and (call, False) under the name
    of each function it is handed as an argument, as in
    ``_outcome(eval_cross, chain, x1, y0, max_sweeps=cap)``."""
    root = Path(__file__).resolve().parents[1]
    calls: dict[str, list[tuple[ast.Call, bool]]] = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    for arg, direct in [(node.func, True)] + [(a, False) for a in node.args]:
                        name = getattr(arg, "id", None) or getattr(arg, "attr", None)
                        if name is not None:
                            calls.setdefault(name, []).append((node, direct))
    return calls


def _sets(call: ast.Call, direct: bool, index: int, param: inspect.Parameter) -> bool:
    """Whether a call sets the parameter at ``index`` of the signature: by
    keyword, or by position ahead of any ``*args`` when it calls the
    function itself.  A ``*args, **kwargs`` forward names no parameter, so
    it sets none."""
    if any(kw.arg == param.name for kw in call.keywords):
        return True
    if not direct or param.kind is not param.POSITIONAL_OR_KEYWORD:
        return False
    named = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    return index < named


def test_every_exported_default_is_set_by_a_caller():
    # a default that no call changes is a constant in disguise
    calls = _calls_by_name()
    unset = []
    for name in MODULES:
        module = importlib.import_module(f"henonlab.{name}")
        for item in getattr(module, "__all__", ()):
            func = getattr(module, item)
            if not inspect.isfunction(func):
                continue
            for index, param in enumerate(inspect.signature(func).parameters.values()):
                if param.default is param.empty:
                    continue
                if not any(_sets(call, direct, index, param)
                           for call, direct in calls.get(item, ())):
                    unset.append(f"{name}.{item}({param.name})")
    assert unset == []


def _loads(module: str, other: str) -> bool:
    """Whether importing ``module`` in a fresh interpreter loads ``other``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print({other!r} in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout in ("True\n", "False\n"), proc.stderr
    return proc.stdout == "True\n"


def test_renorm_imports_no_numpy():
    # the twin path runs on scalars: numpy is only for the rasters of atlas
    assert not _loads("henonlab.renorm", "numpy")


def test_henon_imports_no_maps1d():
    # the Henon maps need nothing of the quadratic-family core
    assert not _loads("henonlab.henon", "henonlab.maps1d")


def _fresh(code: str, env: dict | None = None) -> str:
    """The last line that ``code`` prints in a fresh interpreter with
    ``env`` (default: this one's)."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_after(code: str, names: tuple[str, ...]) -> str:
    """Those of ``names`` in ``sys.modules`` after ``code`` runs fresh."""
    return _fresh(f"import sys\n{code}\nprint([n for n in {names!r} if n in sys.modules])")


def _without_openblas_setting() -> dict:
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def test_orbit_rasters_load_no_chain_code():
    # only the kernels that renormalize import the chain solvers
    code = "import henonlab.atlas as atlas; atlas.sweep('swallow-escape', 2, 2, workers=1)"
    assert _loaded_after(code, ("henonlab.renorm", "henonlab.crossmap", "henonlab.embed")) == "[]"


def test_one_process_sweep_shares_no_memory():
    # with no pool children the block counter is a plain local one
    code = "import henonlab.atlas as atlas; atlas.sweep('henon-lyap', 2, 2, workers=1)"
    assert _loaded_after(code, ("multiprocessing.sharedctypes",)) == "[]"


def test_twin_loads_no_raster_modules():
    # the chain commands run on scalars: numpy and the pool are for rasters;
    # no record is a dataclass, whose import loads inspect
    code = ("import contextlib, io, henonlab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert henonlab.cli.run(['twin', '--target', '-0.5']) == 0")
    names = ("numpy", "multiprocessing", "concurrent.futures", "henonlab.atlas",
             "henonlab.embed", "dataclasses", "inspect")
    assert _loaded_after(code, names) == "[]"


def test_no_module_imports_dataclasses():
    # @dataclass runs generated code at import, about 0.7 ms a class
    importing = []
    for path in sorted(Path(henonlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importing.append(path.name)
    assert importing == []


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_runs_openblas_on_one_thread(preset, expected):
    # the CLI makes no BLAS call; a caller's own setting wins
    env = _without_openblas_setting()
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, henonlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, env) == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_raster_command_starts_no_thread(tmp_path):
    # numpy's import would otherwise leave an OpenBLAS thread behind
    out = tmp_path / "swallow.ppm"
    code = ("import os, henonlab.cli; "
            f"assert henonlab.cli.run(['swallow', '--grid', '2x2', '--workers', '1', "
            f"'--out', {str(out)!r}]) == 0; "
            "print(len(os.listdir('/proc/self/task')))")
    assert _fresh(code, _without_openblas_setting()) == "1"


def test_tracer_targets_resolve():
    # perfbench's tracer rebinds these functions by name; a renamed or moved
    # function fails here rather than inside the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{name}" for module, name, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"henonlab.{module}"), name, None))
    ]
    assert missing == []
