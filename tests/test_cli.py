"""Exit codes, config precedence, emission, and report pins for the CLI."""

import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab.atlas import sweep
from henonlab.cli import COMMANDS, RunConfig, run
from henonlab.crossmap import factorize_chain
from henonlab.henon import HenonMap
from henonlab.maps1d import special_parameters
from oracles import read_csv


def call(capsys, *args):
    rc = run(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestReports:
    def test_special_params_pins(self, capsys):
        rc, out, _ = call(capsys, "special-params")
        assert rc == 0
        a1, a2 = special_parameters()
        assert f"a1 = {a1:.12f}" in out
        assert f"a2 = {a2:.12f}" in out
        assert "a1 = -1.5437" in out.replace("-1.543689012692", "-1.5437")
        assert "beta = " in out
        assert "tilde_alpha2 = " in out

    def test_crossmap_radical_pins(self, capsys):
        rc, out, _ = call(
            capsys, "crossmap", "--word", "s-", "--a", "-2",
            "--b", "0", "--x1", "0", "--y0", "0",
        )
        assert rc == 0
        assert "A = -0.765366864" in out
        assert "B = -1.414213562" in out

    def test_crossmap_reproducible(self, capsys):
        first = call(capsys, "crossmap", "--word", "w=3", "--a", "-1.9", "--b", "0.01")
        second = call(capsys, "crossmap", "--word", "w=3", "--a", "-1.9", "--b", "0.01")
        assert first == second
        assert first[0] == 0

    def test_crossmap_sample_table(self, capsys):
        rc, out, _ = call(
            capsys, "crossmap", "--word", "s-", "--a", "-1.95",
            "--b", "0.01", "--samples", "5",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert "x1,A,B" in lines
        assert len(lines) == 2 + 5

    def test_piece_report(self, capsys):
        rc, out, _ = call(capsys, "piece", "--word", "c1", "--a", "-1.86")
        assert rc == 0
        assert "word = c1" in out
        assert "tokens = w=,s+" in out
        assert "order = 4" in out
        assert "segment = [" in out
        assert "box = " not in out

    def test_renorm_report(self, capsys):
        rc, out, _ = call(capsys, "renorm", "--a", "-1.8608", "--b", "0.001")
        assert rc == 0
        assert "word = c1" in out
        assert "M = 5" in out
        assert "bbar = 0.001" in out

    def test_twin_report_pins(self, capsys):
        rc, out, _ = call(capsys, "twin", "--target", "-0.5")
        assert rc == 0
        report = dict(line.split(" = ", 1) for line in out.splitlines()
                      if not line.startswith("cycle "))
        assert report["periods"] == "5, 11"
        assert float(report["a"]) == pytest.approx(-1.86583322066959, rel=1e-12)
        assert float(report["b"]) == pytest.approx(0.0023762018982587, rel=1e-12)
        assert float(report["abar_plus"]) == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("args", [
        ("--b-hat", "0.03"),
        ("--k", "2"),
        ("--k", "2", "--b-hat", "-0.01"),
        ("--k", "2", "--b-hat", "0.03"),
        ("--k", "2", "--b-hat", "-0.03"),
        ("--b-hat", "0.3"),
        ("--k", "2", "--j", "1", "--b-hat", "0.001"),
        ("--m", "2", "--b-hat", "0.01"),
        ("--m", "2", "--b-hat", "-0.01"),
    ])
    def test_coarse_twin_scans_keep_the_roots(self, capsys, args):
        # crossings away from the default configuration: one attracting
        # cycle per word, of period order + 1
        rc, out, err = call(capsys, "twin", *args)
        assert rc == 0, err
        report = dict(line.split(" = ", 1) for line in out.splitlines()
                      if not line.startswith("cycle "))
        m = int(dict(zip(args[::2], args[1::2])).get("--m", "1"))
        f = HenonMap(float(report["a"]), float(report["b"]), m)
        periods = sorted(factorize_chain(f, report[key]).order + 1
                         for key in ("word_minus", "word_plus"))
        assert report["periods"] == ", ".join(str(p) for p in periods)
        radii = [float(line.split("spectral radius = ")[1].split(",")[0])
                 for line in out.splitlines() if line.startswith("cycle period")]
        assert len(radii) == 2 and max(radii) < 1.0

    def test_twin_prints_the_seed_window(self, capsys):
        # the window seeds the crossing solve; here the crossing lies beyond it
        rc, out, err = call(capsys, "twin", "--m", "3", "--b-hat", "0.001")
        assert rc == 0, err
        report = dict(line.split(" = ", 1) for line in out.splitlines()
                      if not line.startswith("cycle "))
        assert "crossing bracket" not in report
        lo, hi = (float(v) for v in report["seed window"].strip("[]").split(", "))
        assert float(report["b0"]) > hi > lo > 0.0

    def test_twin_iterate_outside_the_branch_domain(self, capsys):
        # the seed carries both tangencies; the first Newton step leaves the
        # long word's branch domain, though a crossing exists at b0 = -0.1359
        rc, out, err = call(capsys, "twin", "--m", "3", "--b-hat", "-0.001")
        assert rc == 3
        assert out == ""
        assert err.startswith("error: Newton iterate (")
        assert "lies outside the branch domain of 'c1,bp0,bm0'" in err
        assert "admit no common zero" not in err

    def test_reversed_twin_window(self, capsys):
        rc, out, err = call(capsys, "twin", "--a-range", "-1.82:-1.88")
        assert rc == 0, err
        assert "periods = 5, 11" in out.splitlines()

    def test_attractors_report(self, capsys):
        rc, out, _ = call(capsys, "attractors", "--a", "-0.5", "--b", "0.1")
        assert rc == 0
        assert "cycles = 1" in out
        assert "cycle period = 1" in out

    def test_certify_report(self, capsys):
        rc, out, _ = call(capsys, "certify", "--grid", "21x5")
        assert rc == 0
        assert "K1: count = " in out
        assert "kappa = " in out
        assert "cone condition violations = 0" in out

    def test_equals_form_flags(self, capsys):
        rc, out, _ = call(capsys, "crossmap", "--word=s-", "--a=-2", "--b=0")
        assert rc == 0
        assert "A = -0.765366864" in out


class TestExitCodes:
    def test_invalid_range_is_config_error(self, capsys):
        rc, _, err = call(capsys, "swallow", "--grid", "8x8", "--out", "-",
                          "--a-range", "1:-1")
        assert rc == 2
        assert "error:" in err

    def test_unknown_command(self, capsys):
        rc, _, err = call(capsys, "no-such-thing")
        assert rc == 2
        assert "unknown command" in err

    def test_unknown_flag(self, capsys):
        rc, _, err = call(capsys, "special-params", "--bogus", "1")
        assert rc == 2
        assert "--bogus" in err

    def test_missing_required_flag(self, capsys):
        rc, _, err = call(capsys, "crossmap", "--a", "-2", "--b", "0")
        assert rc == 2
        assert "--word" in err

    def test_malformed_word_reports_position(self, capsys):
        rc, _, err = call(capsys, "piece", "--word", "c1,zz", "--a", "-1.86")
        assert rc == 2
        assert "position 3" in err

    def test_malformed_grid(self, capsys):
        rc, _, err = call(capsys, "swallow", "--grid", "big")
        assert rc == 2
        assert "WIDTHxHEIGHT" in err

    def test_unknown_colormap_lists_the_choices(self, capsys):
        # the parser reads the names from atlas only when a raster command parses
        rc, out, err = call(capsys, "swallow", "--colormap", "bogus")
        assert (rc, out) == (2, "")
        assert err == ("error: --colormap: expected one of ('auto', 'class', 'compare', "
                       "'escape', 'lyap'), got 'bogus'\n")

    def test_no_root_bracket_is_numerical_failure(self, capsys):
        rc, _, err = call(capsys, "renorm-window", "--a-lo", "-1.70",
                          "--a-hi", "-1.65")
        assert rc == 3
        assert "no root" in err

    def test_underflowing_chart_is_numerical_failure(self, capsys):
        # the fold curvature is regular but sigma underflows to 0
        rc, out, err = call(capsys, "renorm", "--a", "-1e300", "--b", "0.001")
        assert rc == 3
        assert out == ""
        assert err.startswith("error: degenerate chart") and err.count("\n") == 1

    def test_missing_config_file(self, capsys):
        rc, _, err = call(capsys, "special-params", "--config", "/no/such/file")
        assert rc == 2

    def test_bare_invocation_shows_usage(self, capsys):
        rc, out, err = call(capsys)
        assert rc == 2
        assert "usage:" in err
        assert out == ""

    def test_flag_without_value(self, capsys):
        rc, _, err = call(capsys, "special-params", "--digits")
        assert rc == 2
        assert "needs a value" in err

    @pytest.mark.parametrize("args", [
        ("renorm", "--a", "-1.86", "--b", "0.001"),
        ("crossmap", "--word", "c1", "--a", "-1.9", "--b", "0.001"),
        ("renorm-window", "--b", "0.001", "--a-lo", "-1.9", "--a-hi", "-1.85"),
        ("twin",),
    ], ids=lambda args: args[0])
    def test_unnormalized_map_is_config_error(self, capsys, args):
        rc, out, err = call(capsys, *args, "--map", "sine-perturbed")
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "xi-normalized" in err

    def test_certify_grid_too_small(self, capsys):
        rc, _, err = call(capsys, "certify", "--grid", "1x1")
        assert rc == 2
        assert "at least 2x2" in err

    @pytest.mark.parametrize("args", [
        ("renorm", "--a", "-1.86", "--b", "0.001", "--m", "0"),
        ("special-params", "--digits", "-3"),
        ("swallow", "--grid", "3x3", "--workers", "1", "--radius", "0"),
        ("swallow", "--grid", "3x3", "--workers", "1", "--radius", "-1"),
        ("swallow", "--grid", "3x3", "--workers", "0"),
        ("swallow", "--grid", "3x3", "--workers", "-3"),
        ("attractors", "--a", "-0.5", "--b", "0.1", "--radius", "-1"),
        ("attractors", "--a", "-0.5", "--b", "0.1", "--max-period", "0"),
        ("attractors", "--a", "-0.5", "--b", "0.1", "--transient", "-5"),
        ("crossmap", "--word", "s-", "--a", "-2", "--b", "0", "--samples", "-2"),
        ("embed-swallow", "--grid", "2x2", "--workers", "1", "--tol", "-1"),
        ("certify", "--r-disk", "-1"),
        ("renorm", "--a", "nan", "--b", "0.001"),
        ("embed-swallow", "--n", "10"),
        ("henon-atlas", "--kernel", "henon-escape", "--grid", "3x3", "--b-range", "-1:1",
         "--m", "-1"),
        ("henon-atlas", "--kernel", "henon-escape", "--grid", "3x3", "--m", "0"),
        ("henon-atlas", "--kernel", "renorm-strip", "--grid", "2x2", "--m", "0"),
        ("embed-swallow", "--grid", "2x2", "--m", "0"),
        ("embed-swallow", "--grid", "3x3", "--words", "c1;zz"),
        ("embed-swallow", "--grid", "3x3", "--m", "2"),
        ("henon-atlas", "--kernel", "renorm-strip", "--word", "zz"),
        ("henon-atlas", "--kernel", "renorm-strip", "--word", "e"),
        ("embed-swallow", "--grid", "3x3", "--words", "c1;e"),
        ("renorm", "--a", "-1.86", "--b", "2", "--m", "2000"),
        ("twin", "--b-hat", "0"),
        ("twin", "--b-hat", "-0"),
        ("attractors", "--a", "-0.5", "--b", "2", "--m", "2000"),
        ("twin", "--a-range", "-1.87:-1.87"),
        ("renorm-window", "--a-lo", "-1.86", "--a-hi", "-1.86"),
        ("certify", "--j", "-1"),
        ("twin", "--j", "-1"),
        ("twin", "--map", "zero"),
    ], ids=lambda args: " ".join((args[0],) + args[-2:]))
    def test_bad_input_is_config_error(self, capsys, args):
        rc, out, err = call(capsys, *args)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_swallow_negative_steps(self, capsys):
        rc, out, err = call(capsys, "swallow", "--grid", "3x3", "--steps", "-5")
        assert rc == 2
        assert out == ""
        assert "steps must be at least 1" in err

    @pytest.mark.parametrize("args", [
        ("henon-atlas", "--kernel", "henon-lyap", "--grid", "3x3", "--n"),
        ("swallow", "--grid", "3x3", "--steps"),
        ("embed-swallow", "--grid", "3x3", "--steps"),
    ], ids=lambda args: f"{args[0]} {args[-1]}")
    def test_step_counts_above_float64_integers(self, capsys, args):
        # payload steps are float64: 2**53 + 1 would not round-trip
        for count in ("100000000000000000000", str(2**53 + 1)):
            rc, out, err = call(capsys, *args, count, "--workers", "1")
            assert (rc, out) == (2, "")
            assert err == f"error: {args[-1][2:]} must be at most 2**53, got {count}\n"

    def test_step_count_bound_is_inclusive(self):
        # every orbit leaves at step 1, so 2**53 steps finish at once
        r = sweep("swallow-escape", 2, 2, (5.0, 6.0), (5.0, 6.0),
                  params={"steps": 2**53}, workers=1)
        assert r.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("args", [
        ("crossmap", "--word", "e,e", "--a", "-1.86", "--b", "0"),
        ("renorm", "--word", "e,e", "--a", "-1.86", "--b", "0.001"),
        ("henon-atlas", "--kernel", "renorm-strip", "--word", "e,e", "--grid", "2x2",
         "--out", "-"),
    ], ids=["crossmap", "renorm", "renorm-strip"])
    def test_order_zero_word_is_named_as_written(self, capsys, args):
        rc, out, err = call(capsys, *args)
        assert (rc, out, err) == (2, "", "error: word 'e,e' has no quadratic factors\n")


class TestHelp:
    def test_top_help_lists_all_commands(self, capsys):
        rc, out, _ = call(capsys, "--help")
        assert rc == 0
        for name in COMMANDS:
            assert name in out

    def test_command_help_lists_every_flag_with_default(self, capsys):
        for name, command in COMMANDS.items():
            rc, out, _ = call(capsys, name, "--help")
            assert rc == 0
            for option in command.options:
                assert f"--{option.name}" in out
                if option.default is None:
                    continue
                assert f"default: {option.default}" in out

    def test_required_flags_marked(self, capsys):
        rc, out, _ = call(capsys, "crossmap", "--help")
        assert rc == 0
        assert "(required)" in out


class TestConfig:
    def test_dump_config_round_trips(self, capsys):
        rc, out, _ = call(capsys, "twin", "--dump-config")
        assert rc == 0
        parsed = RunConfig.from_text(out)
        assert parsed.command == "twin"
        assert parsed.to_text() == out

    def test_precedence_flags_over_file_over_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("digits = 5\n")
        rc, out, _ = call(capsys, "special-params", "--config", str(cfg))
        assert rc == 0
        a1, _ = special_parameters()
        assert f"a1 = {a1:.5f}" in out

        rc, out, _ = call(capsys, "special-params", "--config", str(cfg),
                          "--digits", "7")
        assert f"a1 = {a1:.7f}" in out

        rc, out, _ = call(capsys, "special-params")
        assert f"a1 = {a1:.12f}" in out

    def test_foreign_config_keys_ignored(self, capsys, tmp_path):
        rc, dump, _ = call(capsys, "twin", "--dump-config")
        cfg = tmp_path / "twin.cfg"
        cfg.write_text(dump)
        rc, out, _ = call(capsys, "special-params", "--config", str(cfg))
        assert rc == 0
        assert "a1 = " in out

    def test_dumped_config_reproduces_invocation(self, capsys, tmp_path):
        rc, dump, _ = call(capsys, "crossmap", "--word", "s-", "--a", "-2",
                           "--b", "0", "--dump-config")
        assert rc == 0
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(dump)
        direct = call(capsys, "crossmap", "--word", "s-", "--a", "-2", "--b", "0")
        via_file = call(capsys, "crossmap", "--config", str(cfg))
        assert direct == via_file

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.from_regex(r"[a-z][a-z0-9-]{0,12}", fullmatch=True),
        options=st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9-]{0,12}", fullmatch=True).filter(
                lambda k: k != "command"
            ),
            st.text(
                alphabet=st.characters(blacklist_characters="\n\r"),
                max_size=20,
            ).filter(lambda v: v.strip() == v and not v.startswith("#")),
            max_size=6,
        ),
    )
    def test_config_text_round_trip_property(self, command, options):
        cfg = RunConfig(command, tuple(sorted(options.items())))
        assert RunConfig.from_text(cfg.to_text()) == cfg


class TestEmission:
    def test_swallow_csv_file_matches_direct_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        rc, out, _ = call(
            capsys, "swallow", "--kernel", "swallow-escape", "--grid", "4x3",
            "--steps", "50", "--format", "csv", "--out", str(out_path),
        )
        assert rc == 0
        assert f"wrote {out_path}" in out
        direct = sweep("swallow-escape", 4, 3, params={"steps": 50, "n": 10000,
                                                       "radius": 10.0})
        assert read_csv(str(out_path)) == direct

    def test_swallow_csv_to_stdout(self, capsys):
        rc, out, _ = call(capsys, "swallow", "--grid", "3x2", "--steps", "5",
                          "--format", "csv")
        assert rc == 0
        assert out.startswith("# henonlab-raster kernel=swallow-escape")

    def test_ppm_to_stdout_is_binary(self, capfdbinary):
        rc = run(["swallow", "--grid", "2x2", "--steps", "5", "--format", "ppm"])
        captured = capfdbinary.readouterr()
        assert rc == 0
        assert captured.out.startswith(b"P6\n2 2\n255\n")
        assert len(captured.out) == len(b"P6\n2 2\n255\n") + 12

    def test_ppm_to_text_only_stdout_is_config_error(self):
        # a text stream, as contextlib.redirect_stdout users pass, has no
        # byte buffer to take the image; CSV text still goes through
        argv = ["swallow", "--grid", "2x2", "--steps", "5", "--workers", "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        assert rc == 2 and out.getvalue() == ""
        assert "--out PATH" in err.getvalue() and "--format csv" in err.getvalue()
        with contextlib.redirect_stdout(out):
            assert run(argv + ["--format", "csv"]) == 0
        assert out.getvalue().startswith("# henonlab-raster kernel=swallow-escape")

    def test_henon_atlas_renorm_strip(self, capsys, tmp_path):
        out_path = tmp_path / "strip.csv"
        rc, out, _ = call(
            capsys, "henon-atlas", "--kernel", "renorm-strip", "--grid", "2x2",
            "--format", "csv", "--out", str(out_path),
        )
        assert rc == 0
        raster = read_csv(str(out_path))
        assert raster.kernel == "renorm-strip"
        assert raster.tag_set() == {"lyap"}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_renorm_strip_unnormalized_map_tags_error(self, capsys, tmp_path, workers):
        out_path = tmp_path / "strip.csv"
        rc, _, _ = call(
            capsys, "henon-atlas", "--kernel", "renorm-strip", "--grid", "2x2",
            "--map", "sine-perturbed", "--workers", workers,
            "--format", "csv", "--out", str(out_path),
        )
        assert rc == 0
        assert read_csv(str(out_path)).tag_set() == {"error"}

    def test_embed_swallow_summary(self, capsys, tmp_path):
        out_path = tmp_path / "embed.csv"
        rc, out, _ = call(
            capsys, "embed-swallow", "--grid", "3x3",
            "--a-range", "-0.8:-0.2", "--b-range", "-0.8:-0.2",
            "--format", "csv", "--out", str(out_path),
        )
        assert rc == 0
        assert "agree = 9, disagree = 0, errors = 0, agreement = 1" in out
        raster = read_csv(str(out_path))
        assert raster.tag_set() == {"agree"}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "henonlab", "special-params"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "a1 = -1.5436" in proc.stdout

    def test_embed_swallow_ppm_does_not_depend_on_workers(self, tmp_path):
        images = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"embed-{workers}.ppm"
            proc = subprocess.run(
                [sys.executable, "-m", "henonlab", "embed-swallow", "--grid", "5x5",
                 "--workers", workers, "--out", str(out_path)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            images.append(out_path.read_bytes())
        assert images[0].startswith(b"P6\n5 5\n255\n")
        assert images[0] == images[1]


# Flag values that are negative, zero, non-finite or not numbers at all.
_BAD_VALUES = st.one_of(
    st.sampled_from(["-1e300", "-7", "-1", "-0.5", "0", "-0", "nan", "inf", "-inf"]),
    st.text(alphabet="abcxyz,:;=+-", max_size=4),
)
_BAD_RANGES = st.one_of(
    _BAD_VALUES, st.sampled_from(["0:0", "1:-1", "nan:1", "-inf:0", "-1e300:0"])
)
_BAD_GRIDS = st.one_of(
    _BAD_VALUES, st.sampled_from(["4x4", "2x2", "1x1", "0x3", "-2x3", "4x"])
)

#: command -> (valid base flags, fuzzed flags); swallow stays at most 4x4
_FAST_COMMANDS = {
    "piece": (("--word", "c1", "--a", "-1.86"), ("a", "word")),
    "special-params": ((), ("digits", "ladder-at")),
    "crossmap": (("--word", "s-", "--a", "-1.95", "--b", "0.01"),
                 ("a", "b", "x1", "y0", "samples", "m", "delta")),
    "renorm": (("--a", "-1.8608", "--b", "0.001"), ("a", "b", "m", "delta", "word")),
    "attractors": (("--a", "-0.5", "--b", "0.1"),
                   ("a", "b", "seeds", "max-period", "transient", "radius", "m")),
    "swallow": (("--grid", "4x4", "--workers", "1", "--format", "csv"),
                ("grid", "steps", "n", "radius", "a-range", "b-range")),
    # flags whose values fail, or end the search, before the twin solve
    "twin": ((), ("m", "b-hat", "k", "j", "a-range")),
    "renorm-window": ((), ("a-lo", "a-hi", "b", "m", "word")),
}


@st.composite
def _fast_invocation(draw):
    name = draw(st.sampled_from(sorted(_FAST_COMMANDS)))
    base, fuzzed = _FAST_COMMANDS[name]
    flags = draw(st.lists(st.sampled_from(fuzzed), min_size=1, max_size=3, unique=True))
    argv = [name, *base]
    for flag in flags:
        strategy = {"grid": _BAD_GRIDS, "a-range": _BAD_RANGES,
                    "b-range": _BAD_RANGES}.get(flag, _BAD_VALUES)
        argv.append(f"--{flag}={draw(strategy)}")
    return argv


@st.composite
def _atlas_invocation(draw):
    """henon-atlas on at most 4x4 pixels with short orbits, any map, and
    multiplicities that are invalid, ordinary or overflow b^m."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kernel = draw(st.sampled_from(["henon-escape", "henon-lyap", "renorm-strip"]))
    b_range = draw(st.one_of(
        st.sampled_from(["1.5:2.5", "-1:1", "-0.5:0.5", "-3:-1.5", "0:1e-3"]), _BAD_RANGES
    ))
    return [
        "henon-atlas", "--workers", "1", "--format", "csv", f"--kernel={kernel}",
        f"--grid={width}x{height}", f"--b-range={b_range}",
        f"--map={draw(st.sampled_from(['standard', 'zero', 'sine-perturbed']))}",
        f"--m={draw(st.sampled_from([-2, -1, 0, 1, 2, 3, 2000]))}",
        f"--steps={draw(st.integers(-1, 30))}", f"--n={draw(st.integers(-1, 30))}",
    ]


@st.composite
def _embed_invocation(draw):
    """embed-swallow on at most 3x3 pixels with short orbits, valid and
    malformed word pairs, and tracking seeds far from the swallow."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    words = draw(st.sampled_from(
        ["c1;c1,bm0,bm0", "c1;c2", "c1;zz", "c1", "c1;;", "c1;c1,,e", "e;c1", "c1;c1;c1"]
    ))
    seed = draw(st.sampled_from(["auto", "5,5", "-30,30", "1e300,-1e300", "0,0", "-1.9,0.5"]))
    return [
        "embed-swallow", "--workers", "1", "--format", "csv", f"--grid={width}x{height}",
        f"--words={words}", f"--seed={seed}",
        f"--steps={draw(st.integers(-1, 30))}", f"--m={draw(st.integers(-1, 3))}",
    ]


@st.composite
def _twin_invocation(draw):
    """Full twin solves: targets inside and outside the attracting range,
    both orientations of b, two cascade indices, two gap indices and two
    multiplicities."""
    target = draw(st.one_of(
        st.floats(-3.0, 1.0, allow_nan=False).map(repr), _BAD_VALUES
    ))
    return [
        "twin", f"--target={target}",
        f"--b-hat={draw(st.sampled_from([1e-3, -1e-3, 1e-2, -1e-2, 3e-2]))}",
        f"--k={draw(st.sampled_from([1, 2]))}",
        f"--j={draw(st.sampled_from([0, 1]))}",
        f"--m={draw(st.sampled_from([1, 2]))}",
    ]


@st.composite
def _certify_invocation(draw):
    """certify on grids up to 3x3, gap indices on both sides of zero and
    exclusion radii that are negative, zero, ordinary or infinite."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [
        "certify", f"--grid={width}x{height}", f"--j={draw(st.integers(-2, 3))}",
        f"--r-disk={draw(st.sampled_from(['-1', '0', '0.1', 'inf']))}",
    ]


def _assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert rc in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()


@settings(max_examples=80, deadline=None)
@given(argv=_fast_invocation())
def test_fast_commands_never_crash(argv):
    _assert_clean_exit(argv)


@settings(max_examples=60, deadline=None)
@given(argv=_atlas_invocation())
def test_henon_atlas_never_crashes(argv):
    _assert_clean_exit(argv)


@settings(max_examples=40, deadline=None)
@given(argv=_embed_invocation())
def test_embed_swallow_never_crashes(argv):
    _assert_clean_exit(argv)


@settings(max_examples=20, deadline=None)
@given(argv=_twin_invocation())
def test_twin_never_crashes(argv):
    _assert_clean_exit(argv)


@settings(max_examples=40, deadline=None)
@given(argv=_certify_invocation())
def test_certify_never_crashes(argv):
    _assert_clean_exit(argv)
