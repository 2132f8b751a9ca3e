"""Correctness checks made apart from henonlab.

Every check recomputes what it needs with its own loops and parsers; none
imports the package or compares against a stored copy of earlier output.
Each ``check_*`` function returns a list of failure messages, empty when
the output is correct.
"""

from __future__ import annotations

import math
import random
import re

#: Payload colours of the 'class' and 'compare' colormaps.
YELLOW, GRAY, BLACK = (255, 255, 0), (128, 128, 128), (0, 0, 0)
WHITE, RED, MAGENTA = (255, 255, 255), (255, 0, 0), (255, 0, 255)
CLASS_COLOURS = {"escape": YELLOW, "wing": GRAY, "body": BLACK}

#: Orders of the words c1 and c1,bm0,bm0 are 4 and 10; a renormalized
#: attracting cycle of a word has period order + 1.
TWIN_PERIODS = (5, 11)


def pixel_center(i: int, j: int, w: int, h: int, a_range, b_range) -> tuple[float, float]:
    """Centre of pixel (row i, column j); row 0 holds the largest b."""
    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    return a_lo + (j + 0.5) * (a_hi - a_lo) / w, b_hi - (i + 0.5) * (b_hi - b_lo) / h


def sample_pixels(rng: random.Random, w: int, h: int, count: int) -> list[tuple[int, int]]:
    cells = rng.sample(range(w * h), min(count, w * h))
    return [divmod(k, w) for k in cells]


# ---------------------------------------------------------------------------
# PPM and CSV parsing
# ---------------------------------------------------------------------------

def parse_ppm(data: bytes, w: int, h: int) -> tuple[list[tuple[int, int, int]], list[str]]:
    """Pixels of a binary P6 image of the expected size, row-major."""
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    if not data.startswith(header):
        return [], [f"PPM header is not {header!r}: {data[:20]!r}"]
    if len(data) != len(header) + 3 * w * h:
        return [], [f"PPM holds {len(data)} bytes, expected {len(header) + 3 * w * h}"]
    body = data[len(header):]
    return [tuple(body[k:k + 3]) for k in range(0, len(body), 3)], []


_META = re.compile(
    r"# henonlab-raster kernel=(\S+) width=(\d+) height=(\d+) "
    r"a_lo=(\S+) a_hi=(\S+) b_lo=(\S+) b_hi=(\S+)$"
)


def parse_csv(text: str) -> dict:
    """Raster CSV as {kernel, width, height, ranges, notes, rows}; raises ValueError."""
    lines = text.split("\n")
    match = _META.match(lines[0])
    if not match:
        raise ValueError(f"bad metadata line {lines[0]!r}")
    kernel, w, h, a_lo, a_hi, b_lo, b_hi = match.groups()
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    notes = [line for line in lines[1:-1] if line.startswith("#")]
    body = [line for line in lines[1:-1] if not line.startswith("#")]
    if not body or body[0] != "a,b,payload,value":
        raise ValueError("missing column header a,b,payload,value")
    rows = []
    for line in body[1:]:
        a, b, payload, value = line.split(",")
        rows.append((float(a), float(b), payload, float(value)))
    return {
        "kernel": kernel, "width": int(w), "height": int(h),
        "a_range": (float(a_lo), float(a_hi)), "b_range": (float(b_lo), float(b_hi)),
        "notes": notes, "rows": rows,
    }


def format_csv(raster: dict) -> str:
    a_lo, a_hi = raster["a_range"]
    b_lo, b_hi = raster["b_range"]
    lines = [
        "# henonlab-raster kernel=%s width=%d height=%d a_lo=%.17g a_hi=%.17g "
        "b_lo=%.17g b_hi=%.17g" % (raster["kernel"], raster["width"],
                                   raster["height"], a_lo, a_hi, b_lo, b_hi),
        *raster["notes"],
        "a,b,payload,value",
    ]
    lines += ["%.17g,%.17g,%s,%.17g" % row for row in raster["rows"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def composed_escape(first: float, second: float, steps: int, radius: float) -> int | None:
    """Composed step at which 0 escapes under x -> x^2+first -> x^2+second."""
    x = 0.0
    for step in range(1, steps + 1):
        x = x * x + first
        if abs(x) > radius:
            return step
        x = x * x + second
        if abs(x) > radius:
            return step
    return None


def swallow_class(a: float, b: float, steps: int, radius: float) -> str:
    bounded = (composed_escape(a, b, steps, radius) is None,
               composed_escape(b, a, steps, radius) is None)
    return {2: "body", 1: "wing", 0: "escape"}[sum(bounded)]


def tangent_exponent(a: float, b: float, n: int, radius: float) -> tuple[str, float]:
    """Origin orbit of (x, y) -> (x^2 + a - b y, x) with tangent vector (0, 1).

    Returns ('lyap', mean log growth), ('escape', step) or ('error', 0).
    """
    x = y = 0.0
    vx, vy = 0.0, 1.0
    total = 0.0
    for step in range(1, n + 1):
        wx, wy = 2.0 * x * vx - b * vy, vx
        growth = math.sqrt(wx * wx + wy * wy)
        if growth == 0.0:
            return "error", 0.0
        total += math.log(growth)
        vx, vy = wx / growth, wy / growth
        x, y = x * x + a - b * y, x
        if max(abs(x), abs(y)) > radius:
            return "escape", float(step)
    return "lyap", total / n


def henon_orbit(x: float, y: float, a: float, b: float, steps: int) -> tuple[float, float]:
    for _ in range(steps):
        x, y = x * x + a - b * y, x
    return x, y


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

_NUMBER = r"(-?[\d.]+(?:e[-+]?\d+)?)"
_CYCLE = re.compile(
    rf"cycle period = (\d+), spectral radius = {_NUMBER}, point = \({_NUMBER}, {_NUMBER}\)"
)


def _field(text: str, label: str) -> float:
    match = re.search(rf"^{re.escape(label)} = {_NUMBER}$", text, re.MULTILINE)
    if not match:
        raise ValueError(f"missing line '{label} = ...'")
    return float(match.group(1))


def check_twin(text: str, target: float, rng: random.Random) -> list[str]:
    """Two distinct attracting cycles of the printed Henon map, found apart."""
    try:
        a, b = _field(text, "a"), _field(text, "b")
        abar_plus = _field(text, "abar_plus")
        drift = _field(text, "max |abar_minus| along curve")
    except ValueError as exc:
        return [str(exc)]
    failures = []
    if abs(abar_plus - target) > 1e-6:
        failures.append(f"abar_plus {abar_plus!r} is not within 1e-6 of {target!r}")
    if not drift <= 0.1:
        failures.append(f"max |abar_minus| along curve {drift!r} exceeds 0.1")
    cycles = [(int(p), float(x), float(y)) for p, _, x, y in _CYCLE.findall(text)]
    periods = tuple(sorted(p for p, _, _ in cycles))
    if periods != TWIN_PERIODS:
        return failures + [f"cycle periods {periods} are not {TWIN_PERIODS}"]
    orbits = []
    for period, x, y in cycles:
        minimal = next((p for p in range(1, 65) if max(
            abs(u - v) for u, v in zip(henon_orbit(x, y, a, b, p), (x, y))) <= 1e-9), None)
        if minimal != period:
            failures.append(f"point ({x!r}, {y!r}) returns after {minimal} steps, not {period}")
        angle = rng.uniform(0.0, 2.0 * math.pi)
        px, py = henon_orbit(x + 1e-6 * math.cos(angle), y + 1e-6 * math.sin(angle),
                             a, b, 200 * period)
        if max(abs(px - x), abs(py - y)) > 1e-9:
            failures.append(f"period-{period} cycle does not attract an orbit started 1e-6 away")
        orbits.append([henon_orbit(x, y, a, b, k) for k in range(period)])
    _, x2, y2 = cycles[1]
    if any(max(abs(u - x2), abs(v - y2)) <= 1e-6 for u, v in orbits[0]):
        failures.append("the two cycles coincide")
    return failures


_SUMMARY = re.compile(
    r"agree = (\d+), disagree = (\d+), errors = (\d+), agreement = " + _NUMBER
)


def check_embed(stdout: str, ppm: bytes, w: int, h: int) -> tuple[list[str], int]:
    """Agreement at the criterion-11 threshold, matching the written raster.

    Returns (failures, number of error pixels).
    """
    match = _SUMMARY.search(stdout)
    if not match:
        return ["missing agreement summary line"], 0
    agree, disagree, errors = (int(g) for g in match.groups()[:3])
    agreement = float(match.group(4))
    pixels, failures = parse_ppm(ppm, w, h)
    if failures:
        return failures, errors
    counts = {colour: pixels.count(colour) for colour in (WHITE, RED, MAGENTA)}
    if sum(counts.values()) != w * h:
        failures.append("raster holds colours other than agree, disagree and error")
    if (counts[WHITE], counts[RED], counts[MAGENTA]) != (agree, disagree, errors):
        failures.append(
            f"raster counts {counts[WHITE]}/{counts[RED]}/{counts[MAGENTA]} differ from "
            f"the summary {agree}/{disagree}/{errors}"
        )
    classified = agree + disagree
    if not classified or abs(agreement - agree / classified) > 1e-12:
        failures.append(f"printed agreement {agreement!r} is not agree / classified")
    elif agree / classified < 0.75:
        failures.append(f"agreement {agree / classified:.4f} is below 0.75")
    return failures, errors


def check_swallow_ppm(ppm: bytes, w: int, h: int, a_range, b_range, steps: int,
                      radius: float, rng: random.Random, samples: int) -> tuple[list[str], int]:
    """Swallow classes decoded from colours against a composed-quadratic loop."""
    pixels, failures = parse_ppm(ppm, w, h)
    if failures:
        return failures, 0
    present = set(pixels)
    for name, colour in CLASS_COLOURS.items():
        if colour not in present:
            failures.append(f"swallow raster has no {name} pixel")
    errors = pixels.count(MAGENTA)
    for i, j in sample_pixels(rng, w, h, samples):
        a, b = pixel_center(i, j, w, h, a_range, b_range)
        expected = CLASS_COLOURS[swallow_class(a, b, steps, radius)]
        if pixels[i * w + j] != expected:
            failures.append(f"pixel ({i}, {j}) at ({a!r}, {b!r}) has colour "
                            f"{pixels[i * w + j]}, expected {expected}")
    return failures, errors


def check_lyap_csv(text: str, w: int, h: int, a_range, b_range, n: int, radius: float,
                   rng: random.Random, samples: int) -> tuple[list[str], int]:
    """Henon tangent exponents against a pure-Python loop, plus a CSV round trip."""
    try:
        raster = parse_csv(text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"], 0
    failures = []
    if format_csv(raster) != text:
        failures.append("CSV does not round-trip through parse and format")
    if (raster["width"], raster["height"]) != (w, h) or len(raster["rows"]) != w * h:
        return failures + [f"CSV is not a {w}x{h} raster"], 0
    rows = raster["rows"]
    errors = sum(row[2] == "error" for row in rows)
    for i, j in sample_pixels(rng, w, h, samples):
        a, b = pixel_center(i, j, w, h, a_range, b_range)
        row_a, row_b, payload, value = rows[i * w + j]
        if abs(row_a - a) > 1e-14 * max(1.0, abs(a)) or abs(row_b - b) > 1e-14 * max(1.0, abs(b)):
            failures.append(f"row ({i}, {j}) is at ({row_a!r}, {row_b!r}), not ({a!r}, {b!r})")
            continue
        ref_payload, ref = tangent_exponent(a, b, n, radius)
        if payload != ref_payload or abs(value - ref) > 1e-9 * abs(ref):
            failures.append(f"pixel ({i}, {j}) at ({a!r}, {b!r}) is {payload} {value!r}, "
                            f"expected {ref_payload} {ref!r}")
    return failures, errors
