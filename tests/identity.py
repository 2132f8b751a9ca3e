"""SHA-256 of the outputs that a change which keeps every result keeps.

    python tests/identity.py SRC_DIR

runs everything with the ``henonlab`` package found under SRC_DIR and
prints one line per output: a CLI run as ``name exit=N stdout-sha
stderr-sha``, a raster as ``name sha``.  Run it once on the parent's
``src/`` and once on the change's, then ``diff`` the two listings.  The
outputs are a set of CLI runs (twin, renorm, renorm-window, certify and
two rasters) and every ``ORACLE_CASES`` and ``EMBED_ORACLE_CASES`` raster
of ``test_atlas`` at 1, 2 and 3 workers.  A raster's digest covers its
tags and then its values, as stored.  The script is not named ``test_*``,
so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

CLI_RUNS = {
    "twin": ("twin",),
    "twin-target": ("twin", "--target", "-0.5"),
    "twin-m3": ("twin", "--m", "3", "--b-hat", "1e-3"),
    "twin-m3-negative": ("twin", "--m", "3", "--b-hat", "-0.001"),
    "renorm": ("renorm", "--a", "-1.86", "--b", "0.001"),
    "renorm-c2": ("renorm", "--a", "-1.86", "--b", "-0.002", "--word", "c2"),
    "renorm-window-b0": ("renorm-window", "--b", "0"),
    "renorm-window": ("renorm-window", "--b", "0.001"),
    "certify": ("certify", "--a", "-1.86", "--b", "0.001"),
    "embed-swallow-ppm": ("embed-swallow", "--grid", "21x21", "--a-range", "-2.1:0.4",
                          "--b-range", "-2.1:0.4", "--format", "ppm", "--workers", "1"),
    "embed-swallow-csv": ("embed-swallow", "--grid", "21x21", "--a-range", "-2.1:0.4",
                          "--b-range", "-2.1:0.4", "--format", "csv", "--workers", "2"),
    "renorm-strip": ("henon-atlas", "--kernel", "renorm-strip", "--grid", "12x10",
                     "--format", "csv", "--workers", "1"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_lines(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = []
    for name, argv in CLI_RUNS.items():
        proc = subprocess.run([sys.executable, "-m", "henonlab", *argv],
                              capture_output=True, env=env, timeout=600)
        lines.append(f"{name} exit={proc.returncode} {_sha(proc.stdout)} {_sha(proc.stderr)}")
    return lines


def raster_lines() -> list[str]:
    import test_atlas
    from henonlab.atlas import sweep

    width, height = test_atlas.TestOrbitKernelOracle.WIDTH, test_atlas.TestOrbitKernelOracle.HEIGHT
    runs = [(case.id, (case.values[0], width, height),
             {"a_range": case.values[1], "b_range": case.values[2], "params": case.values[3]})
            for case in test_atlas.ORACLE_CASES]
    runs += [(f"embed-compare-{case.id}", ("embed-compare", *case.values[:2]),
              {"a_range": case.values[2], "b_range": case.values[2], "params": case.values[3]})
             for case in test_atlas.EMBED_ORACLE_CASES]
    lines = []
    for name, args, kwargs in runs:
        for workers in (1, 2, 3):
            r = sweep(*args, workers=workers, **kwargs)
            lines.append(f"{name}-w{workers} {_sha(r.tags.tobytes() + r.values.tobytes())}")
    return lines


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC_DIR")
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    import henonlab

    if Path(henonlab.__file__).resolve().parent != src / "henonlab":
        sys.exit(f"henonlab was imported from {henonlab.__file__}, not from {src}")
    print("\n".join(cli_lines(src) + raster_lines()))


if __name__ == "__main__":
    main()
