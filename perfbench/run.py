"""Benchmark of henonlab's twin search, swallow embedding and raster figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a henonlab checkout.  Every CLI invocation runs in a
fresh process (``perfbench/invoke.py``) through ``henonlab.cli.run``.  A run
repeats whole rounds of its workload's invocations until ``--seconds`` of
measurement have passed, then checks every output against computations
made apart from the program (``perfbench/checks.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the workload runs once untraced and once traced, both
with one worker, and the metrics are the per-layer ones plus the tracing
overhead.  Result and span files are kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"

#: Separate setup-only processes per run, on top of one per invocation.
SETUP_PROBES = 15
#: Pixels recomputed by the figure checks.
SWALLOW_SAMPLES = 160
LYAP_SAMPLES = 40
#: Grid of the embed-swallow worker-count identity check.
EMBED_CHECK_GRID = (5, 5)

SWALLOW_WINDOW = ((-2.2, 0.6), (-2.2, 0.6))
LYAP_WINDOW = ((-2.2, 0.6), (-0.6, 0.6))
EMBED_WINDOW = ((-2.1, 0.4), (-2.1, 0.4))
ESCAPE_STEPS, EXPONENT_STEPS, RADIUS = 2000, 10_000, 10.0
TWIN_TARGET = -0.5

#: Raster sizes per workload: (full, tiny).  The tiny sizes serve the
#: benchmark's own tests.
SIZES = {
    "embed-swallow": {"embed": ((21, 21), (4, 4))},
    "figures": {"swallow": ((200, 200), (40, 40)), "lyap": ((50, 50), (12, 12))},
}

WORKLOADS = ("twin", "embed-swallow", "figures")


def _window_args(window) -> list[str]:
    (a_lo, a_hi), (b_lo, b_hi) = window
    return ["--a-range", f"{a_lo}:{a_hi}", "--b-range", f"{b_lo}:{b_hi}"]


def _grid(size) -> str:
    return f"{size[0]}x{size[1]}"


def invocations(workload: str, out: Path, workers: int, tiny: bool = False) -> list[dict]:
    """The CLI invocations of one round: argv, output file, pixel count."""
    def size(key):
        return SIZES[workload][key][1 if tiny else 0]

    if workload == "twin":
        return [{"argv": ["twin", "--target", str(TWIN_TARGET)], "pixels": 0}]
    if workload == "embed-swallow":
        w, h = size("embed")
        path = out / "embed.ppm"
        return [{
            "argv": ["embed-swallow", "--grid", _grid((w, h)), *_window_args(EMBED_WINDOW),
                     "--steps", str(ESCAPE_STEPS), "--radius", str(RADIUS),
                     "--format", "ppm", "--out", str(path), "--workers", str(workers)],
            "pixels": w * h, "file": path, "size": (w, h),
        }]
    if workload == "figures":
        (sw, sh), (lw, lh) = size("swallow"), size("lyap")
        swallow, lyap = out / "swallow.ppm", out / "lyap.csv"
        return [
            {"argv": ["swallow", "--kernel", "swallow-escape", "--grid", _grid((sw, sh)),
                      *_window_args(SWALLOW_WINDOW), "--steps", str(ESCAPE_STEPS),
                      "--radius", str(RADIUS), "--format", "ppm", "--out", str(swallow),
                      "--workers", str(workers)],
             "pixels": sw * sh, "file": swallow, "size": (sw, sh)},
            {"argv": ["henon-atlas", "--kernel", "henon-lyap", "--grid", _grid((lw, lh)),
                      *_window_args(LYAP_WINDOW), "--map", "standard", "--m", "1",
                      "--n", str(EXPONENT_STEPS), "--radius", str(RADIUS),
                      "--format", "csv", "--out", str(lyap), "--workers", str(workers)],
             "pixels": lw * lh, "file": lyap, "size": (lw, lh)},
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one measured process
# ---------------------------------------------------------------------------

def _tree_hwm_kib(pid: int, peaks: dict[int, int]) -> None:
    """Record the peak resident set (VmHWM) of pid and its descendants."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peaks[pid] = max(peaks.get(pid, 0), int(line.split()[1]))
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            kids = [int(k) for k in fh.read().split()]
    except (OSError, ValueError):
        return
    for kid in kids:
        _tree_hwm_kib(kid, peaks)


def run_process(root: Path, out: Path, tag: str, argv: list[str] | None,
                trace: bool = False) -> dict:
    """Run one invocation (or a setup probe when argv is None) in a fresh process."""
    report_path = out / f"{tag}.report.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), "--root", str(root),
           "--report", str(report_path)]
    if trace:
        cmd += ["--trace", str(out / f"{tag}.spans.json")]
    if argv is None:
        cmd.append("--probe")
    cmd += ["--", *(argv or [])]
    peaks: dict[int, int] = {}
    with open(out / f"{tag}.stdout", "wb") as stdout, \
            open(out / f"{tag}.stderr", "wb") as stderr:
        spawned = time.time()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=root,
                                start_new_session=True)
        try:
            while proc.poll() is None:
                _tree_hwm_kib(proc.pid, peaks)
                time.sleep(0.05)
        finally:
            if proc.poll() is None:  # interrupted: take the pool workers down too
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    stdout_text = (out / f"{tag}.stdout").read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not report_path.exists():
        err = (out / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"measured process failed ({proc.returncode}): {err[-2000:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["setup_s"] = report["ready"] - spawned
    report["stdout"] = stdout_text
    if argv is not None:
        peaks[proc.pid] = max(peaks.get(proc.pid, 0), report["maxrss_kib"])
        report["peak_rss_mib"] = sum(peaks.values()) / 1024.0
    return report


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_round(workload: str, calls: list[dict], reports: list[dict],
                rng: random.Random) -> tuple[list[str], int]:
    """Failures and failed-operation count of one round's outputs."""
    if workload == "twin":
        return checks.check_twin(reports[0]["stdout"], TWIN_TARGET, rng), 0
    if workload == "embed-swallow":
        w, h = calls[0]["size"]
        return checks.check_embed(reports[0]["stdout"], calls[0]["file"].read_bytes(), w, h)
    swallow, lyap = calls
    fail_s, err_s = checks.check_swallow_ppm(
        swallow["file"].read_bytes(), *swallow["size"], *SWALLOW_WINDOW,
        ESCAPE_STEPS, RADIUS, rng, SWALLOW_SAMPLES)
    fail_l, err_l = checks.check_lyap_csv(
        lyap["file"].read_text(encoding="ascii"), *lyap["size"], *LYAP_WINDOW,
        EXPONENT_STEPS, RADIUS, rng, LYAP_SAMPLES)
    return fail_s + fail_l, err_s + err_l


def check_embed_workers(root: Path, out: Path) -> list[str]:
    """A small embed-swallow grid is byte-identical at one and two workers."""
    w, h = EMBED_CHECK_GRID
    outputs = []
    for workers in (1, 2):
        path = out / f"embed-check-w{workers}.ppm"
        argv = ["embed-swallow", "--grid", _grid((w, h)), *_window_args(EMBED_WINDOW),
                "--out", str(path), "--workers", str(workers)]
        report = run_process(root, out, f"embed-check-w{workers}", argv)
        if report["exit"] != 0:
            return [f"embed-swallow check grid exited {report['exit']}"]
        outputs.append(path.read_bytes())
    if outputs[0] != outputs[1]:
        return ["embed-swallow output differs between one and two workers"]
    return []


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_round(root: Path, out: Path, workload: str, workers: int, index: int,
              tiny: bool, trace: bool = False) -> tuple[list[dict], list[dict]]:
    calls = invocations(workload, out, workers, tiny)
    for call in calls:
        if "file" in call:
            call["file"].unlink(missing_ok=True)
    reports = [run_process(root, out, f"r{index}-{k}", call["argv"], trace)
               for k, call in enumerate(calls)]
    return calls, reports


def measure(root: Path, out: Path, workload: str, seed: int, seconds: float,
            tiny: bool = False) -> dict:
    """Untraced run: whole rounds for ``seconds``, then the checks."""
    workers = len(os.sched_getaffinity(0))
    rounds = []
    measured = 0.0
    while not rounds or measured < seconds:
        start = time.perf_counter()
        calls, reports = run_round(root, out, workload, workers, len(rounds), tiny)
        measured += time.perf_counter() - start
        blobs = [call["file"].read_bytes() if "file" in call and call["file"].exists() else b""
                 for call in calls]
        rounds.append((calls, reports, blobs))
    setups = [r["setup_s"] for _, reports, _ in rounds for r in reports]
    setups += [run_process(root, out, f"probe{k}", None)["setup_s"]
               for k in range(SETUP_PROBES)]

    rng = random.Random(seed)
    calls, reports, blobs = rounds[0]
    failures, bad_pixels = [], 0
    attempted = failed = 0
    for calls_k, reports_k, blobs_k in rounds:
        attempted += sum(max(call["pixels"], 1) for call in calls_k)
        for call, report in zip(calls_k, reports_k):
            if report["exit"] != 0:
                failed += max(call["pixels"], 1)
        if blobs_k != blobs or [r["stdout"] for r in reports_k] != [r["stdout"] for r in reports]:
            failures.append("a later round's output differs from the first round's")
    if all(r["exit"] == 0 for r in reports):
        found, bad_pixels = check_round(workload, calls, reports, rng)
        failures += found
        failed += bad_pixels * len(rounds)
    if workload == "embed-swallow":
        failures += check_embed_workers(root, out)

    def per_round(key: str) -> float:
        return statistics.median(sum(r[key] for r in reports) for _, reports, _ in rounds)

    ops = statistics.median(
        sum(max(c["pixels"], 1) for c in calls)
        / (sum(r["sweep_s"] for r in reports) if calls[0]["pixels"] else sum(r["wall_s"] for r in reports))
        for calls, reports, _ in rounds
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (per_round("wall_s"), "s"),
        "cpu_s": (per_round("cpu_s"), "s"),
        "ops_per_s": (ops, "1/s"),
        "peak_rss_mib": (statistics.median(
            max(r["peak_rss_mib"] for r in reports) for _, reports, _ in rounds), "MiB"),
    }
    return _result(failures, attempted, failed, metrics, rounds=len(rounds))


def measure_traced(root: Path, out: Path, workload: str, seed: int, tiny: bool = False) -> dict:
    """One untraced and one traced round, both with one worker."""
    _, plain = run_round(root, out, workload, 1, 0, tiny)
    calls, traced = run_round(root, out, workload, 1, 1, tiny, trace=True)
    failures, bad_pixels = [], 0
    if all(r["exit"] == 0 for r in traced):
        failures, bad_pixels = check_round(workload, calls, traced, random.Random(seed))
    attempted = sum(max(call["pixels"], 1) for call in calls)
    failed = bad_pixels + sum(max(c["pixels"], 1) for c, r in zip(calls, traced) if r["exit"])
    layers: dict[str, float] = {}
    for report in traced:
        for name, value in report["layers"].items():
            layers[name] = layers.get(name, 0.0) + value
    units = {"calls": "count", "sweeps": "count", "factor_solves": "count", "bytes": "bytes"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "s"))
               for name, value in layers.items()}
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall - plain_wall) / plain_wall, "%")
    return _result(failures, attempted, failed, metrics)


def _result(failures, attempted, failed, metrics, **extra) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "failures": failures,
        **extra,
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Measure one workload; scratch outputs are removed, the result is kept."""
    results = root / OUT_DIR
    out = results / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = measure_traced(root, out, workload, seed, tiny)
            for path in sorted(out.glob("*.spans.json")):
                shutil.copy(path, results / f"{workload}-seed{seed}-{path.name}")
        else:
            result = measure(root, out, workload, seed, seconds, tiny)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "henonlab" / "cli.py").is_file():
        print(f"error: no henonlab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for message in result["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
