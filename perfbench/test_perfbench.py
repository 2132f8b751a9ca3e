"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs at its tiny size (twin has no smaller configuration
and takes about half a minute), every check passes on the real output and
catches a deliberately corrupted copy, and the traced mode separates the
layers.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def _round(tmp_path: Path, workload: str):
    calls, reports = run.run_round(ROOT, tmp_path, workload, 1, 0, tiny=True)
    assert all(r["exit"] == 0 for r in reports)
    return calls, reports


def _set_pixel(ppm: bytes, w: int, h: int, index: int, colour) -> bytes:
    header = len(ppm) - 3 * w * h
    start = header + 3 * index
    return ppm[:start] + bytes(colour) + ppm[start + 3:]


# ---------------------------------------------------------------------------
# twin
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def twin_stdout(tmp_path_factory) -> str:
    _, reports = _round(tmp_path_factory.mktemp("twin"), "twin")
    return reports[0]["stdout"]


def test_twin_output_passes(twin_stdout):
    assert checks.check_twin(twin_stdout, run.TWIN_TARGET, random.Random(1)) == []


def _replace_cycle_point(text: str, period: int, dy: float) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith(f"cycle period = {period},"):
            head, point = line.split("point = (")
            x, y = point.rstrip(")").split(", ")
            line = f"{head}point = ({x}, {float(y) + dy!r})"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", [
    lambda t: _replace_cycle_point(t, 11, 1e-4),        # point off its cycle
    lambda t: _replace_cycle_point(t, 5, 1e-4),
    lambda t: t.replace("cycle period = 11", "cycle period = 12"),
    lambda t: t.replace("abar_plus = -0.5", "abar_plus = -0.4"),
    lambda t: re.sub(r"(max \|abar_minus\| along curve = ).*", r"\g<1>0.2", t),
    lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("a = ")),
    lambda t: "\n".join(l for l in t.splitlines() if "period = 5," not in l),
])
def test_twin_check_catches_corruption(twin_stdout, corrupt):
    bad = corrupt(twin_stdout)
    assert bad != twin_stdout
    assert checks.check_twin(bad, run.TWIN_TARGET, random.Random(1))


# ---------------------------------------------------------------------------
# embed-swallow
# ---------------------------------------------------------------------------

def test_embed_output_passes_and_corruption_is_caught(tmp_path):
    calls, reports = _round(tmp_path, "embed-swallow")
    (w, h), ppm, stdout = calls[0]["size"], calls[0]["file"].read_bytes(), reports[0]["stdout"]
    assert checks.check_embed(stdout, ppm, w, h) == ([], 0)

    first = checks.parse_ppm(ppm, w, h)[0][0]
    flipped = _set_pixel(ppm, w, h, 0, checks.RED if first == checks.WHITE else checks.WHITE)
    assert checks.check_embed(stdout, flipped, w, h)[0]
    assert checks.check_embed(stdout, ppm[:-1], w, h)[0]
    assert checks.check_embed(stdout.replace("agree = ", "agree = 1"), ppm, w, h)[0]
    assert checks.check_embed("no summary", ppm, w, h)[0]
    # a raster that mostly disagrees is below the criterion-11 threshold
    n = w * h
    poor = f"P6\n{w} {h}\n255\n".encode() + bytes(checks.WHITE) * 2 + bytes(checks.RED) * (n - 2)
    summary = f"agree = 2, disagree = {n - 2}, errors = 0, agreement = {2 / n!r}"
    assert any("below 0.75" in f for f in checks.check_embed(summary, poor, w, h)[0])


def test_embed_worker_identity_check(tmp_path):
    assert run.check_embed_workers(ROOT, tmp_path) == []


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    calls, _ = _round(tmp_path_factory.mktemp("figures"), "figures")
    swallow, lyap = calls
    return (swallow["size"], swallow["file"].read_bytes(),
            lyap["size"], lyap["file"].read_text(encoding="ascii"))


def _swallow(ppm: bytes, w: int, h: int):
    return checks.check_swallow_ppm(ppm, w, h, *run.SWALLOW_WINDOW, run.ESCAPE_STEPS,
                                    run.RADIUS, random.Random(5), w * h)


def _lyap(text: str, w: int, h: int):
    return checks.check_lyap_csv(text, w, h, *run.LYAP_WINDOW, run.EXPONENT_STEPS,
                                 run.RADIUS, random.Random(5), w * h)


def test_figures_output_passes(figures):
    (sw, sh), ppm, (lw, lh), csv = figures
    assert _swallow(ppm, sw, sh) == ([], 0)
    assert _lyap(csv, lw, lh) == ([], 0)


def test_swallow_check_catches_corruption(figures):
    (w, h), ppm, _, _ = figures
    pixels, _ = checks.parse_ppm(ppm, w, h)
    k = pixels.index(checks.GRAY)
    assert _swallow(_set_pixel(ppm, w, h, k, checks.BLACK), w, h)[0]
    no_wing = ppm[:len(ppm) - 3 * w * h] + b"".join(
        bytes(checks.BLACK if p == checks.GRAY else p) for p in pixels)
    assert any("no wing" in f for f in _swallow(no_wing, w, h)[0])
    assert _swallow(ppm + b"\0", w, h)[0]
    assert _swallow(ppm.replace(b"255\n", b"254\n", 1), w, h)[0]


def _edit_row(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    first = lines.index("a,b,payload,value") + 1
    a, b, payload, value = lines[first + index].split(",")
    lines[first + index] = ",".join(edit(a, b, payload, value))
    return "\n".join(lines)


def test_lyap_check_catches_corruption(figures):
    _, _, (w, h), csv = figures
    rows = checks.parse_csv(csv)["rows"]
    k = next(i for i, row in enumerate(rows) if row[2] == "lyap")
    nudged = _edit_row(csv, k, lambda a, b, p, v: (a, b, p, "%.17g" % (float(v) * (1 + 1e-7))))
    assert _lyap(nudged, w, h)[0]
    relabelled = _edit_row(csv, k, lambda a, b, p, v: (a, b, "escape", v))
    assert _lyap(relabelled, w, h)[0]
    shifted = _edit_row(csv, k, lambda a, b, p, v: ("%.17g" % (float(a) + 1e-9), b, p, v))
    assert _lyap(shifted, w, h)[0]
    short_digits = _edit_row(csv, k, lambda a, b, p, v: (a, b, p, "%.12g" % float(v)))
    assert any("round-trip" in f for f in _lyap(short_digits, w, h)[0])
    assert _lyap(csv.replace("a,b,payload,value", "a,b,value"), w, h)[0]
    assert _lyap(csv[:-1], w, h)[0]


def test_csv_round_trip_is_exact(figures):
    _, _, _, csv = figures
    assert checks.format_csv(checks.parse_csv(csv)) == csv


# ---------------------------------------------------------------------------
# whole runs and traced mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["embed-swallow", "figures"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run.run(ROOT, workload, 7, 0.0, False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "wall_s", "cpu_s", "ops_per_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_separates_layers():
    embed = run.run(ROOT, "embed-swallow", 7, 0.0, True, tiny=True)["metrics"]
    figures = run.run(ROOT, "figures", 7, 0.0, True, tiny=True)["metrics"]
    assert embed.keys() == figures.keys()
    assert embed["crossmap.eval_cross.calls"]["value"] > 0
    assert embed["renorm.multi_renormalize.calls"]["value"] > 0
    assert embed["maps1d.swallow_classify.calls"]["value"] == 16
    assert figures["crossmap.eval_cross.calls"]["value"] == 0
    assert figures["renorm.multi_renormalize.calls"]["value"] == 0
    assert figures["atlas.emit.bytes"]["value"] > 0
    assert "trace.overhead_s" in figures


def test_tracer_counts_a_single_renormalization(tmp_path):
    report = run.run_process(ROOT, tmp_path, "renorm",
                             ["renorm", "--a", "-1.8665368062", "--b", "-2.4431115e-3"],
                             trace=True)
    layers = report["layers"]
    assert report["exit"] == 0
    assert layers["renorm.renormalize.calls"] == 1
    assert layers["renorm.find_tangency.calls"] == 1
    assert layers["crossmap.factorize_chain.calls"] == 1
    assert layers["crossmap.eval_cross.calls"] > 0
    assert layers["crossmap.factor_solves"] >= layers["crossmap.eval_cross.sweeps"] > 0
    assert layers["rootfind.newton_safeguarded.calls"] >= layers["crossmap.factor_solves"]
    self_times = [v for k, v in layers.items() if k.endswith("self_s")]
    assert all(v >= 0 for v in self_times)
    assert sum(self_times) <= report["wall_s"]
    spans = json.loads((tmp_path / "renorm.spans.json").read_text())
    names = {s["id"]: s["name"] for s in spans}
    tangency = [s for s in spans if s["name"] == "renorm.find_tangency"]
    assert len(tangency) == 1 and names[tangency[0]["parent"]] == "renorm.renormalize"


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
