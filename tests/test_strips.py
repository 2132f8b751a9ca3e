"""Tests for leaves, boxes, 2-D strip pieces and cone verification."""

import csv
import math

import pytest

from henonlab import strips
from henonlab.crossmap import ConeSpec
from henonlab.errors import DomainError, ProductError
from henonlab.henon import HenonMap, apply_map, evaluate
from henonlab.maps1d import ladder, piece_1d
from henonlab.strips import (
    K0_LABELS,
    build_box,
    build_piece,
    export_piece_csv,
    image_unstable_boundary,
    stable_leaf_lattice,
    star_2d,
    verify_cones,
)


@pytest.fixture(scope="module")
def lattice_degenerate():
    return stable_leaf_lattice(HenonMap(-2.0, 0.0))


@pytest.fixture(scope="module")
def lattice_small_b():
    return stable_leaf_lattice(HenonMap(-2.0, 0.01))


@pytest.fixture(scope="module")
def lattice_195():
    return stable_leaf_lattice(HenonMap(-1.95, 1e-3))


@pytest.fixture(scope="module")
def lattice_195_degenerate():
    return stable_leaf_lattice(HenonMap(-1.95, 0.0))


class TestLeafLattice:
    def test_degenerate_leaves_are_vertical(self, lattice_degenerate):
        lad = ladder(-2.0)
        expected = {
            "alpha0": 1.0,
            "-alpha0": -1.0,
            "alpha1": math.sqrt(3.0),
            "beta": 2.0,
            "-beta": -2.0,
            "tilde_alpha2": lad.tilde_alpha2,
        }
        for label, value in expected.items():
            curve = lattice_degenerate.leaf(label)
            assert all(abs(v - value) <= 1e-12 for v in curve.values)

    def test_small_b_leaves_stay_close_and_flat(self, lattice_small_b):
        beta_leaf = lattice_small_b.leaf("beta")
        assert max(abs(v - 2.0) for v in beta_leaf.values) <= 0.05
        for label in K0_LABELS:
            assert lattice_small_b.leaf(label).max_slope <= 0.25

    def test_invariance_residual(self, lattice_small_b):
        assert lattice_small_b.residual <= 1e-8

    def test_forward_image_lands_on_image_leaf(self, lattice_small_b):
        f = lattice_small_b.henon
        src = lattice_small_b.leaf("alpha1")
        dst = lattice_small_b.leaf("alpha0")
        for y in (-2.5, -1.0, 0.0, 1.7, 2.9):
            w = apply_map(f, (src(y), y))
            assert abs(w[0] - dst(w[1])) <= 1e-8

    def test_requires_normalized_map(self):
        from henonlab.henon import build_map

        f = build_map("sine-perturbed", a=-2.0, b=0.01)
        with pytest.raises(DomainError):
            stable_leaf_lattice(f)


class TestBoxes:
    def test_central_box_degenerate(self, lattice_degenerate):
        box = build_box(lattice_degenerate, "e")
        assert box.phi_minus(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert box.phi_plus(0.0) == pytest.approx(1.0, abs=1e-12)
        assert box.y_range == (-3.0, 3.0)

    def test_trapping_box_height(self, lattice_small_b):
        box = build_box(lattice_small_b, "D")
        assert box.y_range == pytest.approx((-12.5, 12.5))
        assert box.phi_plus(0.0) == pytest.approx(2.0, abs=0.05)
        assert box.phi_minus(0.0) == pytest.approx(-2.0, abs=0.05)
        assert max(abs(box.phi_plus(y) - 2.0) for y in (-12.0, 12.0)) <= 1.0

    def test_boxes_span_the_lattice_height(self):
        lattice = stable_leaf_lattice(HenonMap(-1.95, 1e-3), y_extent=2.0)
        central = build_box(lattice, "e")
        strip = build_piece(lattice, "s-")
        for box in (central, strip.box):
            assert box.y_range == (-2.0, 2.0)
            for side in (box.phi_minus, box.phi_plus):
                assert (side.lo, side.hi) == (-2.0, 2.0)
        for y in (-2.0, 2.0):
            assert central.phi_minus(y) == lattice.leaf("-alpha0")(y)
            assert central.phi_plus(y) == lattice.leaf("alpha0")(y)

    def test_trapping_box_needs_nonzero_b(self, lattice_degenerate):
        with pytest.raises(DomainError):
            build_box(lattice_degenerate, "D")

    def test_word_strip_degenerate_sides(self, lattice_195_degenerate):
        piece2d = build_piece(lattice_195_degenerate, "s-")
        seg = piece_1d("s-", -1.95).segment
        for y in (-3.0, -0.7, 0.0, 2.2, 3.0):
            assert abs(piece2d.box.phi_minus(y) - seg[0]) <= 1e-9
            assert abs(piece2d.box.phi_plus(y) - seg[1]) <= 1e-9


class TestStar2D:
    def test_degenerate_star_matches_segment(self, lattice_195_degenerate):
        p = build_piece(lattice_195_degenerate, "s-")
        q = build_piece(lattice_195_degenerate, "s-")
        combined = star_2d(p, q)
        seg = piece_1d("s-,s-", -1.95).segment
        assert combined.order == 4
        for y in (-3.0, 0.0, 3.0):
            assert abs(combined.box.phi_minus(y) - seg[0]) <= 1e-9
            assert abs(combined.box.phi_plus(y) - seg[1]) <= 1e-9

    def test_sides_map_onto_leaves(self, lattice_195):
        piece2d = build_piece(lattice_195, "s-")
        f = lattice_195.henon
        lo_leaf = lattice_195.leaf("-alpha0")
        hi_leaf = lattice_195.leaf("alpha0")
        for y0 in (-2.8, -1.0, 0.3, 2.5):
            for side, leaf in ((piece2d.box.phi_minus, lo_leaf), (piece2d.box.phi_plus, hi_leaf)):
                z = (side(y0), y0)
                for _ in range(piece2d.order):
                    z = apply_map(f, z)
                assert abs(z[0] - leaf(z[1])) <= 1e-6

    def test_star_needs_overlap(self, lattice_195):
        p = build_piece(lattice_195, "bm0")
        q = build_piece(lattice_195, "w=")
        with pytest.raises(ProductError):
            star_2d(p, q)

    def test_image_unstable_boundary(self, lattice_195):
        piece2d = build_piece(lattice_195, "s-")
        bottom, top = image_unstable_boundary(piece2d)
        # exit heights equal the final interior x, which stays on the last
        # factor's branch, so the graphs are genuinely flat-ish and bounded
        for curve in (bottom, top):
            assert all(abs(v) < 3.0 for v in curve.values)


class TestVerifyCones:
    def test_return_piece_passes(self, lattice_195_degenerate):
        piece2d = build_piece(lattice_195_degenerate, "s-")
        report = verify_cones(lattice_195_degenerate.henon, piece2d.box, ConeSpec(eta=0.3))
        assert report.ok
        assert report.margin >= 3.0
        assert report.n_probes == 33 * 33

    def test_small_b_piece_passes(self, lattice_195):
        piece2d = build_piece(lattice_195, "s-")
        report = verify_cones(lattice_195.henon, piece2d.box, ConeSpec(eta=0.3))
        assert report.ok

    def test_fold_straddle_fails(self, lattice_degenerate):
        box = build_box(lattice_degenerate, "e")
        report = verify_cones(lattice_degenerate.henon, box, ConeSpec(eta=0.5))
        assert not report.ok
        assert report.margin == 0.0

    def test_reports_match_evaluate_jacobian(self, monkeypatch, lattice_195,
                                             lattice_195_degenerate, lattice_degenerate):
        cases = [(lattice_195.henon, build_piece(lattice_195, "s-").box, 0.3),
                 (lattice_195_degenerate.henon, build_piece(lattice_195_degenerate, "s-").box, 0.3),
                 (lattice_degenerate.henon, build_box(lattice_degenerate, "e"), 0.5)]
        reports = [verify_cones(f, box, ConeSpec(eta=eta)) for f, box, eta in cases]
        monkeypatch.setattr(strips, "jacobian", lambda f, z: evaluate(f, z).jacobian)
        assert [verify_cones(f, box, ConeSpec(eta=eta)) for f, box, eta in cases] == reports


class TestExport:
    def test_csv_round_trip(self, lattice_195_degenerate, tmp_path):
        piece2d = build_piece(lattice_195_degenerate, "s-")
        path = tmp_path / "piece.csv"
        export_piece_csv(piece2d, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["curve", "param", "x", "y"]
        phi_rows = [r for r in rows[1:] if r[0] == "phi_minus"]
        assert len(phi_rows) == len(piece2d.box.phi_minus.values)
        first = phi_rows[0]
        assert float(first[2]) == piece2d.box.phi_minus.values[0]
        assert float(first[3]) == piece2d.box.phi_minus.lo
