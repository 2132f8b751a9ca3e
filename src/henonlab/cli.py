"""Command-line frontend: every pipeline behind one executable.

Flags always take a value and may be written ``--name value`` or
``--name=value``; because values are consumed positionally, negative
numbers and ranges need no special quoting.  A flat ``key = value``
config file supplies defaults; explicit flags win over the file, the
file wins over built-in defaults, and ``--dump-config`` echoes the fully
resolved configuration in a canonical text form that parses back to the
same configuration.

Exit codes: 0 on success, 2 on configuration errors (bad flags, malformed
words, out-of-domain parameters, I/O problems), 3 on numerical failures
(solvers that do not converge, degenerate tangencies, missing crossings).

The raster modules ``atlas`` and ``embed`` are imported by the commands
that use them, not here: they load numpy, ``multiprocessing`` and
``concurrent.futures``, which ``twin`` and the other chain commands never
touch, and numpy's import is most of such a command's start-up.  The
``--colormap`` parser reads the names from ``atlas`` when it parses, which
only a raster command does.
"""

from __future__ import annotations

import os

# No henonlab code calls BLAS, and OpenBLAS would otherwise start a thread
# pool whose threads spin through numpy's import.  This module owns the
# process, so it sets this before anything can load numpy; a value the
# caller set wins, and library users keep their own.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import math
import sys
from typing import Callable, Mapping, NamedTuple, Sequence

from .crossmap import eval_cross, factorize_chain
from .errors import (
    DomainError,
    HenonLabError,
    LadderError,
    ProductError,
    WordError,
)
from .henon import MAP_NAMES, build_map, find_attractors
from .maps1d import ladder, piece_1d, special_parameters
from .renorm import (
    certify_cone_expansion,
    renorm_window,
    renormalize,
    twin_find,
)

#: Errors that mean the request itself was wrong (exit 2); every other
#: package error is a numerical failure (exit 3).
_CONFIG_ERRORS = (DomainError, WordError, LadderError, ProductError, OSError)

_LADDER_RUNGS = ("alpha", "beta", "alpha0", "alpha1", "alpha2", "alpha3", "tilde_alpha2")


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


# ---------------------------------------------------------------------------
# option values
# ---------------------------------------------------------------------------

def _parse_float(name: str, s: str) -> float:
    try:
        value = float(s)
    except ValueError:
        raise DomainError(f"--{name}: expected a number, got {s!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"--{name}: expected a finite number, got {s!r}")
    return value


def _parse_int(name: str, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise DomainError(f"--{name}: expected an integer, got {s!r}") from None


def _parse_str(name: str, s: str) -> str:
    return s


def _parse_grid(name: str, s: str) -> tuple[int, int]:
    w, sep, h = s.partition("x")
    if not sep:
        raise DomainError(f"--{name}: expected WIDTHxHEIGHT, got {s!r}")
    return _parse_int(name, w), _parse_int(name, h)


def _parse_range(name: str, s: str) -> tuple[float, float] | None:
    if s == "auto":
        return None
    lo, sep, hi = s.partition(":")
    if not sep:
        raise DomainError(f"--{name}: expected LO:HI or auto, got {s!r}")
    return _parse_float(name, lo), _parse_float(name, hi)


def _parse_pair(name: str, s: str) -> tuple[float, float]:
    x, sep, y = s.partition(",")
    if not sep:
        raise DomainError(f"--{name}: expected X,Y, got {s!r}")
    return _parse_float(name, x), _parse_float(name, y)


def _parse_auto_pair(name: str, s: str) -> tuple[float, float] | None:
    return None if s == "auto" else _parse_pair(name, s)


def _parse_auto_float(name: str, s: str) -> float | None:
    return None if s == "auto" else _parse_float(name, s)


def _parse_auto_int(name: str, s: str) -> int | None:
    return None if s == "auto" else _parse_int(name, s)


def _parse_words(name: str, s: str) -> tuple[str, ...]:
    words = tuple(w.strip() for w in s.split(";") if w.strip())
    if not words:
        raise DomainError(f"--{name}: expected semicolon-separated words, got {s!r}")
    return words


def _parse_seeds(name: str, s: str) -> tuple[tuple[float, float], ...]:
    return tuple(_parse_pair(name, part) for part in s.split(";") if part.strip())


def _parse_choice(*allowed: str) -> Callable[[str, str], str]:
    def parse(name: str, s: str) -> str:
        if s not in allowed:
            raise DomainError(f"--{name}: expected one of {allowed}, got {s!r}")
        return s

    return parse


def _parse_colormap(name: str, s: str) -> str:
    from .atlas import COLORMAPS

    return _parse_choice("auto", *sorted(COLORMAPS))(name, s)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    name: str
    parse: Callable[[str, str], object]
    default: str | None  # None marks a required option
    help: str


class Command(NamedTuple):
    name: str
    summary: str
    options: tuple[Option, ...]
    runner: Callable[[Mapping[str, object]], int]


class RunConfig(NamedTuple):
    """Fully resolved invocation: a command plus every option as text."""

    command: str
    options: tuple[tuple[str, str], ...]

    def to_text(self) -> str:
        lines = [f"command = {self.command}"]
        lines += [f"{key} = {value}" for key, value in self.options]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        command = ""
        pairs: dict[str, str] = {}
        for number, raw in enumerate(text.split("\n"), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(
                    f"config line {number}: expected 'key = value', got {raw!r}"
                )
            key = key.strip()
            value = value.strip()
            if key == "command":
                command = value
            else:
                pairs[key] = value
        return cls(command, tuple(sorted(pairs.items())))


def _read_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        parsed = RunConfig.from_text(fh.read())
    return dict(parsed.options)


# ---------------------------------------------------------------------------
# shared option blocks
# ---------------------------------------------------------------------------

_MAP_OPTIONS = (
    Option("map", _parse_choice(*MAP_NAMES), "standard", "registered map family"),
    Option("m", _parse_int, "1", "multiplicity exponent of b"),
    Option("delta", _parse_float, "0.01", "perturbation amplitude for hooked maps"),
)


#: Where a raster command's output goes, and how many processes compute it.
_OUTPUT_OPTIONS = (
    Option("format", _parse_choice("ppm", "csv"), "ppm", "output format"),
    Option("colormap", _parse_colormap, "auto", "colormap name"),
    Option("out", _parse_str, "-", "output path, - for stdout"),
    Option("workers", _parse_auto_int, "auto",
           "processes computing rows, this one included; auto = the CPUs it may use"),
)


def _raster_options(kernels: tuple[str, ...], default_kernel: str) -> tuple[Option, ...]:
    return (
        Option("kernel", _parse_choice(*kernels), default_kernel, "pixel kernel"),
        Option("grid", _parse_grid, "400x400", "raster size as WIDTHxHEIGHT"),
        Option("a-range", _parse_range, "auto", "horizontal axis as LO:HI"),
        Option("b-range", _parse_range, "auto", "vertical axis as LO:HI"),
        Option("steps", _parse_int, "2000", "escape-classification iteration cap"),
        Option("n", _parse_int, "10000", "growth-exponent iteration count"),
        Option("radius", _parse_float, "10", "escape radius"),
    ) + _OUTPUT_OPTIONS


def _build(typed: Mapping[str, object], a: float, b: float):
    return build_map(str(typed["map"]), a, b, int(typed["m"]),
                     delta=float(typed["delta"]))


def _sweep(typed: Mapping[str, object], kernel: str):
    from .atlas import check_output, sweep

    check_output(str(typed["format"]), str(typed["out"]))
    keys = ("steps", "n", "radius", "map", "m", "delta", "word", "words", "tol")
    params = {key: typed[key] for key in keys if key in typed}
    if typed.get("seed") is not None:
        params["seed"] = typed["seed"]
    width, height = typed["grid"]
    return sweep(kernel, width, height, a_range=typed["a-range"],
                 b_range=typed["b-range"], params=params, workers=typed["workers"])


def _emit_raster(typed: Mapping[str, object], raster) -> None:
    from .atlas import emit

    colormap = None if typed["colormap"] == "auto" else str(typed["colormap"])
    out = str(typed["out"])
    emit(raster, str(typed["format"]), out, colormap)
    if out != "-":
        print(f"wrote {out}: {raster.kernel} {raster.width}x{raster.height}")


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _print_cycles(cycles) -> None:
    for cycle in cycles:
        x, y = cycle.points[0]
        print(
            f"cycle period = {cycle.period}, "
            f"spectral radius = {_fmt(cycle.spectral_radius)}, "
            f"point = ({_fmt(x)}, {_fmt(y)})"
        )


def _run_special_params(typed: Mapping[str, object]) -> int:
    digits = int(typed["digits"])
    if not 0 <= digits <= 17:
        raise DomainError(f"--digits: expected 0 to 17, got {digits}")
    a1, a2 = special_parameters()
    print(f"a1 = {a1:.{digits}f}")
    print(f"a2 = {a2:.{digits}f}")
    at = typed["ladder-at"]
    a = a2 if at is None else float(at)
    lad = ladder(a)
    print(f"ladder at a = {_fmt(a)}:")
    for rung in _LADDER_RUNGS:
        value = getattr(lad, rung)
        print(f"  {rung} = " + ("absent" if value is None else _fmt(value)))
    return 0


def _run_raster(typed: Mapping[str, object]) -> int:
    _emit_raster(typed, _sweep(typed, str(typed["kernel"])))
    return 0


def _run_embed(typed: Mapping[str, object]) -> int:
    from .embed import compare_summary

    raster = _sweep(typed, "embed-compare")
    summary = compare_summary(raster)
    stream = sys.stderr if typed["out"] == "-" else sys.stdout
    print(
        "agree = %d, disagree = %d, errors = %d, agreement = %s"
        % (summary["agree"], summary["disagree"], summary["errors"],
           _fmt(summary["agreement"])),
        file=stream,
    )
    _emit_raster(typed, raster)
    return 0


def _run_crossmap(typed: Mapping[str, object]) -> int:
    samples = int(typed["samples"])
    if samples < 1:
        raise DomainError(f"--samples: expected at least 1, got {samples}")
    f = _build(typed, float(typed["a"]), float(typed["b"]))
    word = str(typed["word"])
    chain = factorize_chain(f, word)
    print(f"word = {word}, order = {chain.order}")
    if samples == 1:
        res = eval_cross(chain, float(typed["x1"]), float(typed["y0"]))
        print(f"A = {_fmt(res.A)}")
        print(f"B = {_fmt(res.B)}")
        return 0
    lo, hi = chain.piece.segment
    y0 = float(typed["y0"])
    print("x1,A,B")
    for i in range(samples):
        x1 = lo + (i + 0.5) * (hi - lo) / samples
        res = eval_cross(chain, x1, y0)
        print(f"{_fmt(x1)},{_fmt(res.A)},{_fmt(res.B)}")
    return 0


def _run_piece(typed: Mapping[str, object]) -> int:
    p = piece_1d(str(typed["word"]), float(typed["a"]))
    print(f"word = {typed['word']}")
    print(f"tokens = {','.join(p.word)}")
    print(f"order = {p.order}")
    print(f"segment = [{_fmt(p.segment[0])}, {_fmt(p.segment[1])}]")
    print(f"image = [{_fmt(p.image[0])}, {_fmt(p.image[1])}]")
    return 0


def _run_renorm(typed: Mapping[str, object]) -> int:
    f = _build(typed, float(typed["a"]), float(typed["b"]))
    rd = renormalize(f, str(typed["word"]))
    t = rd.tangency
    print(f"word = {typed['word']}")
    print(f"tokens = {rd.word}")
    print(f"M = {rd.M}")
    print(f"abar = {_fmt(rd.abar)}")
    print(f"bbar = {_fmt(rd.bbar)}")
    print(f"c = {_fmt(t.c)}")
    print(f"sigma = {_fmt(t.sigma)}")
    print(f"lambda = {_fmt(t.lam)}")
    print(f"mu = {_fmt(t.mu)}")
    print(f"q = {_fmt(t.q)}")
    print(f"det = {_fmt(t.d)}")
    return 0


def _run_renorm_window(typed: Mapping[str, object]) -> int:
    b = float(typed["b"])

    def build(a: float):
        return _build(typed, a, b)

    window = renorm_window(build, str(typed["word"]),
                           float(typed["a-lo"]), float(typed["a-hi"]))
    print(f"a_star = {_fmt(window.a_star)}")
    print(f"lo = {_fmt(window.lo)}")
    print(f"hi = {_fmt(window.hi)}")
    print(f"width = {_fmt(window.width)}")
    return 0


def _run_twin(typed: Mapping[str, object]) -> int:
    def build(a: float, b: float):
        return _build(typed, a, b)

    result = twin_find(
        build,
        k=int(typed["k"]),
        j=int(typed["j"]),
        b_hat=float(typed["b-hat"]),
        a_range=typed["a-range"],
        target=float(typed["target"]),
    )
    print(f"word_minus = {result.word_minus}")
    print(f"word_plus = {result.word_plus}")
    print(f"eta = {_fmt(result.eta)}")
    print(f"seed window = [{_fmt(result.bracket[0])}, {_fmt(result.bracket[1])}]")
    print(f"b0 = {_fmt(result.b0)}")
    print(f"a = {_fmt(result.a)}")
    print(f"b = {_fmt(result.b)}")
    print(f"abar_minus = {_fmt(result.abar_minus)}")
    print(f"abar_plus = {_fmt(result.abar_plus)}")
    drift = max(abs(v) for v in result.curve_abar_minus)
    print(f"max |abar_minus| along curve = {_fmt(drift)}")
    print(f"periods = {', '.join(str(p) for p in result.periods)}")
    _print_cycles(result.report.cycles)
    return 0


def _run_attractors(typed: Mapping[str, object]) -> int:
    f = _build(typed, float(typed["a"]), float(typed["b"]))
    report = find_attractors(
        f,
        typed["seeds"],
        max_period=int(typed["max-period"]),
        n_transient=int(typed["transient"]),
        r_esc=float(typed["radius"]),
    )
    print(f"cycles = {len(report.cycles)}")
    print(f"skipped seeds = {len(report.skipped)}")
    _print_cycles(report.cycles)
    return 0


def _run_certify(typed: Mapping[str, object]) -> int:
    f = _build(typed, float(typed["a"]), float(typed["b"]))
    cert = certify_cone_expansion(
        f,
        j=int(typed["j"]),
        grid=typed["grid"],
        r_disk=float(typed["r-disk"]),
    )
    for label in sorted(cert.counts):
        print(
            f"{label}: count = {cert.counts[label]}, "
            f"min expansion = {_fmt(cert.expansion_min[label])}, "
            f"violations = {cert.violations[label]}"
        )
    print(f"kappa = {_fmt(cert.kappa)}")
    print(f"excluded disk points = {cert.excluded_disk}")
    print(f"unclassified points = {cert.unclassified}")
    total = sum(cert.violations.values())
    print("cone condition violations = %d" % total)
    return 0


# ---------------------------------------------------------------------------
# command registry
# ---------------------------------------------------------------------------

COMMANDS: dict[str, Command] = {}


def _register(command: Command) -> None:
    COMMANDS[command.name] = command


_register(Command(
    "special-params",
    "fixed-point collision parameters and the marked-point table",
    (
        Option("digits", _parse_int, "12", "printed decimal digits, 0 to 17"),
        Option("ladder-at", _parse_auto_float, "auto",
               "parameter for the marked-point table, auto = second collision"),
    ),
    _run_special_params,
))

_register(Command(
    "swallow",
    "raster of the composed-quadratic parameter plane",
    _raster_options(("swallow-escape", "swallow-lyap"), "swallow-escape"),
    _run_raster,
))

_register(Command(
    "henon-atlas",
    "raster of the two-dimensional family's parameter plane",
    _raster_options(("henon-escape", "henon-lyap", "renorm-strip"), "henon-lyap")
    + _MAP_OPTIONS
    + (Option("word", _parse_str, "c1", "word for the renorm-strip kernel"),),
    _run_raster,
))

_register(Command(
    "crossmap",
    "cross-map probe values for one word",
    (
        Option("word", _parse_str, None, "word to factorize"),
        Option("a", _parse_float, None, "first parameter"),
        Option("b", _parse_float, None, "second parameter"),
        Option("x1", _parse_float, "0", "strip coordinate of the probe"),
        Option("y0", _parse_float, "0", "entry height of the probe"),
        Option("samples", _parse_int, "1",
               "probe count; above 1 prints a table across the segment"),
    ) + _MAP_OPTIONS,
    _run_crossmap,
))

_register(Command(
    "piece",
    "one-dimensional branch data for a word",
    (
        Option("word", _parse_str, None, "word to locate"),
        Option("a", _parse_float, None, "quadratic parameter"),
    ),
    _run_piece,
))

_register(Command(
    "renorm",
    "renormalization report at one parameter point",
    (
        Option("word", _parse_str, "c1", "word to renormalize"),
        Option("a", _parse_float, None, "first parameter"),
        Option("b", _parse_float, None, "second parameter"),
    ) + _MAP_OPTIONS,
    _run_renorm,
))

_register(Command(
    "renorm-window",
    "parameter window sweeping the full renormalized range",
    (
        Option("word", _parse_str, "c1", "word to renormalize"),
        Option("a-lo", _parse_float, "-1.8646", "bracket start"),
        Option("a-hi", _parse_float, "-1.8580", "bracket end"),
        Option("b", _parse_float, "0", "second parameter held fixed"),
    ) + _MAP_OPTIONS,
    _run_renorm_window,
))

_register(Command(
    "twin",
    "locate a parameter with two coexisting attracting cycles",
    (
        Option("k", _parse_int, "1", "cascade index of the base word"),
        Option("j", _parse_int, "0", "gap index of the long word"),
        Option("b-hat", _parse_float, "0.01",
               "crossing seed scale: |b|^m = |b-hat|*eta, b signed like b-hat"),
        Option("target", _parse_float, "-0.5", "renormalized target value"),
        Option("a-range", _parse_range, "auto", "bracket of the short word's roots as LO:HI"),
    ) + _MAP_OPTIONS,
    _run_twin,
))

_register(Command(
    "embed-swallow",
    "agreement raster between renormalized predictions and direct orbits",
    (
        Option("grid", _parse_grid, "101x101", "raster size as WIDTHxHEIGHT"),
        Option("a-range", _parse_range, "auto", "first target axis as LO:HI"),
        Option("b-range", _parse_range, "auto", "second target axis as LO:HI"),
        Option("words", _parse_words, "c1;c1,bm0,bm0",
               "semicolon-separated word pair"),
        Option("steps", _parse_int, "2000", "escape-classification iteration cap"),
        Option("radius", _parse_float, "10", "escape radius"),
        Option("tol", _parse_float, "1e-6", "target-tracking tolerance"),
        Option("seed", _parse_auto_pair, "auto", "tracking start as A,B"),
        Option("m", _parse_int, "1", "multiplicity exponent of b"),
    ) + _OUTPUT_OPTIONS,
    _run_embed,
))

_register(Command(
    "attractors",
    "attracting cycles reached from seed points",
    (
        Option("a", _parse_float, None, "first parameter"),
        Option("b", _parse_float, None, "second parameter"),
        Option("seeds", _parse_seeds, "0,0", "semicolon-separated X,Y seeds"),
        Option("max-period", _parse_int, "64", "largest period searched"),
        Option("transient", _parse_int, "5000", "settle-down iterations"),
        Option("radius", _parse_float, "10", "escape radius"),
    ) + _MAP_OPTIONS,
    _run_attractors,
))

_register(Command(
    "certify",
    "sampled cone-expansion certificate",
    (
        Option("a", _parse_float, "-1.95", "first parameter"),
        Option("b", _parse_float, "0.001", "second parameter"),
        Option("j", _parse_int, "0", "gap index of the central strip"),
        Option("grid", _parse_grid, "61x9", "sample grid as WIDTHxHEIGHT"),
        Option("r-disk", _parse_float, "0.1", "exclusion radius near tangencies"),
    ) + _MAP_OPTIONS,
    _run_certify,
))


# ---------------------------------------------------------------------------
# argument scanning and help
# ---------------------------------------------------------------------------

def _scan(argv: Sequence[str]):
    command = None
    raw: dict[str, str] = {}
    wants_help = False
    wants_dump = False
    config_path = None
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--help":
            wants_help = True
            i += 1
        elif token == "--dump-config":
            wants_dump = True
            i += 1
        elif token.startswith("--"):
            name, sep, value = token[2:].partition("=")
            if not sep:
                if i + 1 >= len(argv):
                    raise DomainError(f"flag --{name} needs a value")
                value = argv[i + 1]
                i += 2
            else:
                i += 1
            if name == "config":
                config_path = value
            else:
                raw[name] = value
        elif command is None:
            command = token
            i += 1
        else:
            raise DomainError(f"unexpected argument {token!r}")
    return command, raw, wants_help, wants_dump, config_path


def _top_help() -> str:
    lines = [
        "usage: henonlab <command> [--flag value ...]",
        "",
        "commands:",
    ]
    pad = max(len(name) for name in COMMANDS)
    for name, command in COMMANDS.items():
        lines.append(f"  {name.ljust(pad)}  {command.summary}")
    lines += [
        "",
        "global flags:",
        "  --config PATH   flat 'key = value' file supplying flag defaults",
        "  --dump-config   print the resolved configuration and exit",
        "  --help          show this message, or a command's flags",
    ]
    return "\n".join(lines) + "\n"


def _command_help(command: Command) -> str:
    lines = [
        f"usage: henonlab {command.name} [--flag value ...]",
        "",
        command.summary,
        "",
        "flags:",
    ]
    pad = max(len(option.name) for option in command.options)
    for option in command.options:
        default = "required" if option.default is None else f"default: {option.default}"
        lines.append(f"  --{option.name.ljust(pad)}  {option.help} ({default})")
    lines += [
        "",
        "global flags:",
        "  --config PATH   flat 'key = value' file supplying flag defaults",
        "  --dump-config   print the resolved configuration and exit",
        "  --help          show this message",
    ]
    return "\n".join(lines) + "\n"


def _resolve(command: Command, raw: Mapping[str, str],
             file_pairs: Mapping[str, str]) -> RunConfig:
    known = {option.name for option in command.options}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise DomainError(
            f"unknown flag --{unknown[0]} for {command.name}; see --help"
        )
    resolved = {}
    for option in command.options:
        if option.name in raw:
            value = raw[option.name]
        elif option.name in file_pairs:
            value = file_pairs[option.name]
        else:
            value = option.default
        if value is None:
            raise DomainError(f"{command.name} requires --{option.name}")
        resolved[option.name] = value
    return RunConfig(command.name, tuple(sorted(resolved.items())))


def _typed_options(command: Command, config: RunConfig) -> dict[str, object]:
    text = dict(config.options)
    return {
        option.name: option.parse(option.name, text[option.name])
        for option in command.options
    }


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one invocation; returns the exit code instead of exiting."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command_name, raw, wants_help, wants_dump, config_path = _scan(argv)
        if command_name is None:
            if wants_help:
                sys.stdout.write(_top_help())
                return 0
            sys.stderr.write(_top_help())
            return 2
        command = COMMANDS.get(command_name)
        if command is None:
            raise DomainError(
                f"unknown command {command_name!r}; run henonlab --help"
            )
        if wants_help:
            sys.stdout.write(_command_help(command))
            return 0
        file_pairs = _read_config(config_path) if config_path else {}
        config = _resolve(command, raw, file_pairs)
        if wants_dump:
            sys.stdout.write(config.to_text())
            return 0
        return command.runner(_typed_options(command, config))
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HenonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
