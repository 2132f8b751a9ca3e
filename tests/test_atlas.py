"""Raster kernels, worker determinism, and emission round-trips."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab import atlas
from henonlab.atlas import (
    COLORMAPS,
    DEFAULT_COLORMAPS,
    KERNELS,
    TAG_AGREE,
    TAG_BODY,
    TAG_BOUNDED,
    TAG_ERROR,
    TAG_ESCAPE,
    TAG_LYAP,
    TAG_NAMES,
    TAG_WING,
    Raster,
    compare_summary,
    emit,
    parse_csv,
    read_csv,
    render_csv,
    render_ppm,
    sweep,
)
from henonlab.errors import DomainError
from henonlab.henon import HenonMap, build_map, lyapunov, orbit_escape
from henonlab.maps1d import swallow_classify
from henonlab.renorm import renormalize


def make_raster(tags, values, kernel="henon-lyap", a_range=(0.0, 1.0), b_range=(0.0, 1.0)):
    tags = np.asarray(tags, dtype=np.uint8)
    values = np.asarray(values, dtype=np.float64)
    height, width = tags.shape
    return Raster(width, height, a_range, b_range, kernel, tags, values)


class TestGeometry:
    def test_row_zero_holds_largest_b(self):
        r = sweep("swallow-escape", 4, 3, a_range=(-1.0, 1.0), b_range=(-2.0, 1.0),
                  params={"steps": 5})
        a0, b0 = r.pixel_center(0, 0)
        a_last, b_last = r.pixel_center(2, 3)
        assert b0 == pytest.approx(0.5)
        assert b_last == pytest.approx(-1.5)
        assert a0 == pytest.approx(-0.75)
        assert a_last == pytest.approx(0.75)
        assert list(r.b_centers()) == sorted(r.b_centers(), reverse=True)

    def test_centers_match_pixel_center(self):
        for width, height, a_range, b_range in [
            (3, 2, (0.0, 3.0), (0.0, 2.0)),
            # lo + (j+1/2)*((hi-lo)/w) and lo + (j+1/2)*(hi-lo)/w differ here
            (21, 21, (-2.1, 0.4), (-2.1, 0.4)),
        ]:
            r = sweep("swallow-escape", width, height, a_range=a_range, b_range=b_range,
                      params={"steps": 5})
            for i in range(height):
                for j in range(width):
                    a, b = r.pixel_center(i, j)
                    assert a == r.a_centers()[j]
                    assert b == r.b_centers()[i]

    def test_csv_prints_the_evaluated_centers(self):
        r = sweep("swallow-escape", 21, 3, a_range=(-2.1, 0.4), b_range=(-2.1, 0.4),
                  params={"steps": 5})
        rows = render_csv(r).splitlines()[3:]
        for k, line in enumerate(rows):
            i, j = divmod(k, 21)
            a, b = (float(v) for v in line.split(",")[:2])
            assert (a, b) == r.pixel_center(i, j)

    @pytest.mark.parametrize("key, value", [("steps", -5), ("steps", 0), ("n", 0)])
    def test_nonpositive_iteration_counts_rejected(self, key, value):
        with pytest.raises(DomainError):
            sweep("swallow-escape", 2, 2, params={key: value})

    def test_grid_too_small_rejected(self):
        with pytest.raises(DomainError):
            sweep("swallow-escape", 1, 8)
        with pytest.raises(DomainError):
            sweep("swallow-escape", 8, 1)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(DomainError):
            sweep("no-such-kernel", 4, 4)

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            sweep("swallow-escape", 4, 4, a_range=(1.0, -1.0))

    def test_unknown_map_rejected(self):
        with pytest.raises(DomainError):
            sweep("henon-escape", 2, 2, params={"map": "no-such-map"})


class TestSwallowKernels:
    def test_classification_matches_scalar(self):
        r = sweep("swallow-escape", 6, 5, params={"steps": 300})
        for i in range(r.height):
            for j in range(r.width):
                a, b = r.pixel_center(i, j)
                cls = swallow_classify(a, b, n_max=300)
                expected = {"escape": TAG_ESCAPE, "wing": TAG_WING, "body": TAG_BODY}
                assert r.tags[i, j] == expected[cls.tag]
                if cls.tag == "escape":
                    assert r.values[i, j] == min(cls.steps_ab, cls.steps_ba)
                elif cls.tag == "wing":
                    escaped = cls.steps_ab if cls.steps_ab is not None else cls.steps_ba
                    assert r.values[i, j] == escaped
                else:
                    assert r.values[i, j] == 0.0

    def test_origin_pixel_is_body(self):
        r = sweep("swallow-escape", 3, 3, a_range=(-1.5, 1.5), b_range=(-1.5, 1.5))
        assert r.pixel_center(1, 1) == (0.0, 0.0)
        assert r.tags[1, 1] == TAG_BODY

    def test_exponent_matches_scalar_mirror(self):
        n = 400
        r = sweep("swallow-lyap", 4, 4, a_range=(-2.0, 0.4), b_range=(-2.0, 0.4),
                  params={"n": n})

        def one_composition(first, second, x0):
            x, total = x0, 0.0
            for step in range(1, n + 1):
                for offset in (first, second):
                    total += math.log(2.0 * abs(x))
                    x = x * x + offset
                    if abs(x) > 10.0:
                        return None, step
            return total / n, None

        for i in range(r.height):
            for j in range(r.width):
                a, b = r.pixel_center(i, j)
                exp_ab, step_ab = one_composition(a, b, b)
                exp_ba, step_ba = one_composition(b, a, b)
                if exp_ab is None and exp_ba is None:
                    assert r.tags[i, j] == TAG_ESCAPE
                    assert r.values[i, j] == min(step_ab, step_ba)
                else:
                    assert r.tags[i, j] == TAG_LYAP
                    survivors = [e for e in (exp_ab, exp_ba) if e is not None]
                    assert r.values[i, j] == pytest.approx(
                        sum(survivors) / len(survivors), rel=1e-12
                    )

    def test_superstable_pixel_reports_negative_infinity(self):
        # the critical orbit of the doubly-composed map at the origin is a
        # fixed point with zero derivative, so the exponent diverges down
        r = sweep("swallow-lyap", 3, 3, a_range=(-1.5, 1.5), b_range=(-1.5, 1.5),
                  params={"n": 50})
        assert r.pixel_center(1, 1) == (0.0, 0.0)
        assert r.tags[1, 1] == TAG_LYAP
        assert r.values[1, 1] == -math.inf


class TestHenonKernels:
    def test_exponent_pixel_matches_scalar(self):
        r = sweep("henon-lyap", 5, 2, a_range=(-2.5, 2.5), b_range=(0.0, 0.4))
        assert r.pixel_center(1, 2) == (0.0, pytest.approx(0.1))
        scalar = lyapunov(HenonMap(0.0, 0.1), (0.0, 0.0), (0.0, 1.0), 10_000)
        assert r.tags[1, 2] == TAG_LYAP
        assert r.values[1, 2] == pytest.approx(scalar.value, rel=5e-12)
        assert r.values[1, 2] == pytest.approx(-1.15129, abs=1e-3)

    def test_escape_pixels_match_scalar(self):
        r = sweep("henon-escape", 5, 4, params={"steps": 200})
        for i in range(r.height):
            for j in range(r.width):
                a, b = r.pixel_center(i, j)
                _, escaped, step = orbit_escape(HenonMap(a, b), (0.0, 0.0), 200)
                if escaped:
                    assert r.tags[i, j] == TAG_ESCAPE
                    assert r.values[i, j] == step
                else:
                    assert r.tags[i, j] == TAG_BOUNDED
                    assert r.values[i, j] == 0.0

    def test_hooked_map_uses_scalar_path(self):
        params = {"map": "sine-perturbed", "delta": 0.02, "n": 500}
        r = sweep("henon-lyap", 3, 2, a_range=(-1.0, 1.0), b_range=(0.05, 0.25),
                  params=params)
        seen = set()
        for i in range(r.height):
            for j in range(r.width):
                a, b = r.pixel_center(i, j)
                f = build_map("sine-perturbed", a, b, delta=0.02)
                scalar = lyapunov(f, (0.0, 0.0), (0.0, 1.0), 500)
                seen.add(scalar.tag)
                if scalar.tag == "value":
                    assert r.tags[i, j] == TAG_LYAP
                    assert r.values[i, j] == scalar.value
                else:
                    assert scalar.tag == "escape"
                    assert r.tags[i, j] == TAG_ESCAPE
                    assert r.values[i, j] == scalar.step
        assert seen == {"value", "escape"}

    def test_zero_family_collapses_to_one_dimension(self):
        r1 = sweep("henon-escape", 4, 2, b_range=(0.1, 0.3), params={"map": "zero", "steps": 100})
        r2 = sweep("henon-escape", 4, 2, b_range=(0.5, 0.7), params={"map": "zero", "steps": 100})
        assert np.array_equal(r1.tags, r2.tags)
        assert np.array_equal(r1.values, r2.values)


class TestRenormStrip:
    def test_values_match_direct_renormalization(self):
        r = sweep("renorm-strip", 3, 2)
        for i in range(r.height):
            for j in range(r.width):
                a, b = r.pixel_center(i, j)
                assert r.tags[i, j] == TAG_LYAP
                assert r.values[i, j] == renormalize(HenonMap(a, b), "c1").abar

    def test_inadmissible_word_pixels_marked_error(self):
        r = sweep("renorm-strip", 2, 2, a_range=(-1.1, -0.9), b_range=(1e-4, 2e-4))
        assert np.all(r.tags == TAG_ERROR)
        assert np.all(r.values == 0.0)


@pytest.fixture(scope="module")
def center_patch():
    return sweep("embed-compare", 3, 3, a_range=(-0.8, -0.2), b_range=(-0.8, -0.2))


class TestEmbedCompare:
    def test_interior_patch_agrees(self, center_patch):
        assert np.all(center_patch.tags == TAG_AGREE)
        assert np.all(center_patch.values == 1.0)

    def test_summary_counts(self, center_patch):
        summary = compare_summary(center_patch)
        assert summary["agree"] == 9
        assert summary["disagree"] == 0
        assert summary["errors"] == 0
        assert summary["agreement"] == 1.0

    def test_reruns_and_worker_counts_match(self, center_patch):
        again = sweep("embed-compare", 3, 3, a_range=(-0.8, -0.2), b_range=(-0.8, -0.2))
        assert again == center_patch
        pooled = sweep("embed-compare", 3, 3, a_range=(-0.8, -0.2),
                       b_range=(-0.8, -0.2), workers=2)
        assert pooled == center_patch

    def test_word_count_validated(self):
        with pytest.raises(DomainError):
            sweep("embed-compare", 2, 2, params={"words": ("c1",)})


class TestDeterminism:
    def test_pool_matches_serial_for_vector_kernel(self):
        serial = sweep("swallow-lyap", 16, 12, params={"n": 300}, workers=1)
        pooled = sweep("swallow-lyap", 16, 12, params={"n": 300}, workers=2)
        assert serial == pooled
        assert render_ppm(serial) == render_ppm(pooled)
        assert render_csv(serial) == render_csv(pooled)

    def test_pool_matches_serial_for_scalar_kernel(self):
        serial = sweep("renorm-strip", 4, 4, workers=1)
        pooled = sweep("renorm-strip", 4, 4, workers=3)
        assert serial == pooled


    def test_pool_shut_down_when_a_row_raises(self, monkeypatch):
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.was_shut_down = False
                pools.append(self)

            def shutdown(self, *args, **kwargs):
                self.was_shut_down = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(atlas, "ProcessPoolExecutor", RecordingPool)
        with pytest.raises(DomainError):
            sweep("henon-escape", 2, 2, params={"map": "no-such-map"}, workers=2)
        assert len(pools) == 1
        assert pools[0].was_shut_down


class TestEmission:
    def test_ppm_header_and_length(self):
        r = make_raster([[TAG_ESCAPE, TAG_ESCAPE]], [[3.0, 5.0]], kernel="henon-escape")
        data = render_ppm(r)
        assert data.startswith(b"P6\n2 1\n255\n")
        assert len(data) == len(b"P6\n2 1\n255\n") + 6
        assert data[-6:] == bytes((255, 255, 0, 255, 255, 0))

    def test_exponent_color_thresholds(self):
        tags = [[TAG_LYAP, TAG_LYAP, TAG_LYAP, TAG_LYAP, TAG_ESCAPE, TAG_ERROR]]
        values = [[-0.005, -0.5, 0.5, -math.inf, 7.0, 0.0]]
        r = make_raster(tags, values)
        body = render_ppm(r, colormap="lyap")[len(b"P6\n6 1\n255\n"):]
        pixels = [tuple(body[3 * k: 3 * k + 3]) for k in range(6)]
        assert pixels[0] == (0, 0, 0)
        assert pixels[1] == (168, 0, 0)
        assert pixels[2] == (0, 0, 168)
        assert pixels[3] == (255, 0, 0)
        assert pixels[4] == (255, 255, 0)
        assert pixels[5] == (255, 0, 255)

    def test_class_and_compare_colors(self):
        r = make_raster([[TAG_BODY, TAG_WING, TAG_ESCAPE]], [[0.0, 4.0, 2.0]],
                        kernel="swallow-escape")
        body = render_ppm(r)[len(b"P6\n3 1\n255\n"):]
        assert tuple(body[0:3]) == (0, 0, 0)
        assert tuple(body[3:6]) == (128, 128, 128)
        assert tuple(body[6:9]) == (255, 255, 0)
        r2 = make_raster([[5, 6, 7]], [[1.0, 0.0, 0.0]], kernel="embed-compare")
        body2 = render_ppm(r2)[len(b"P6\n3 1\n255\n"):]
        assert tuple(body2[0:3]) == (255, 255, 255)
        assert tuple(body2[3:6]) == (255, 0, 0)
        assert tuple(body2[6:9]) == (255, 0, 255)

    def test_csv_header_and_metadata(self):
        r = sweep("swallow-escape", 2, 2, params={"steps": 5})
        lines = render_csv(r).splitlines()
        assert lines[0].startswith("# henonlab-raster kernel=swallow-escape width=2 height=2 ")
        assert lines[1].startswith("# colormap class: ")
        assert lines[2] == "a,b,payload,value"
        assert len(lines) == 3 + 4

    def test_csv_round_trip(self):
        r = sweep("henon-lyap", 3, 2, params={"n": 200})
        assert parse_csv(render_csv(r)) == r

    def test_emit_files(self, tmp_path):
        r = sweep("swallow-escape", 3, 2, params={"steps": 20})
        ppm_path = tmp_path / "out.ppm"
        csv_path = tmp_path / "out.csv"
        emit(r, "ppm", str(ppm_path))
        emit(r, "csv", str(csv_path))
        assert ppm_path.read_bytes() == render_ppm(r)
        assert read_csv(str(csv_path)) == r

    def test_unknown_format_rejected(self):
        r = make_raster([[0, 0]], [[0.0, 0.0]])
        with pytest.raises(DomainError):
            emit(r, "png", "-")

    def test_malformed_csv_rejected(self):
        with pytest.raises(DomainError):
            parse_csv("a,b,payload,value\n0,0,escape,1\n")
        good = render_csv(make_raster([[0, 0]], [[0.0, 0.0]]))
        with pytest.raises(DomainError):
            parse_csv(good.replace("bounded", "unheard-of"))
        with pytest.raises(DomainError):
            parse_csv(good + "0,0,bounded,0\n")

    def test_every_kernel_has_colormap(self):
        for kernel in KERNELS:
            assert DEFAULT_COLORMAPS[kernel] in COLORMAPS
        assert len(TAG_NAMES) == 8

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(2, 5),
        height=st.integers(2, 5),
        data=st.data(),
    )
    def test_csv_round_trip_property(self, width, height, data):
        tags = data.draw(
            st.lists(
                st.lists(st.integers(0, 7), min_size=width, max_size=width),
                min_size=height,
                max_size=height,
            )
        )
        values = data.draw(
            st.lists(
                st.lists(
                    st.floats(allow_nan=True, allow_infinity=True, width=64),
                    min_size=width,
                    max_size=width,
                ),
                min_size=height,
                max_size=height,
            )
        )
        r = make_raster(tags, values, kernel="swallow-lyap",
                        a_range=(-2.0, 0.5), b_range=(-1.0, 1.0))
        assert parse_csv(render_csv(r)) == r
