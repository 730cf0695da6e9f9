"""Tests for CSV export of experiment results."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.export import (
    points_to_csv,
    read_points_csv,
    write_points_csv,
)
from repro.experiments.runner import run_point


@pytest.fixture
def points(tiny_config):
    return [run_point("JACOBI", s, 40, tiny_config)
            for s in ("Orig", "GcdPad")]


class TestCsv:
    def test_header_and_rows(self, points):
        text = points_to_csv(points)
        lines = text.strip().splitlines()
        assert lines[0].startswith("kernel,strategy,n,")
        assert len(lines) == 3
        assert lines[1].startswith("JACOBI,Orig,40,")

    def test_roundtrip(self, points, tmp_path):
        path = write_points_csv(points, tmp_path / "out" / "pts.csv")
        back = read_points_csv(path)
        assert len(back) == 2
        orig, gcd = back
        assert orig["strategy"] == "Orig" and orig["ti"] is None
        assert gcd["ti"] == points[1].tile[0]
        assert orig["l1_rate"] == pytest.approx(points[0].l1_rate)
        assert gcd["di_p"] == points[1].di_p

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            read_points_csv(tmp_path / "nope.csv")

    def test_degraded_column_roundtrip(self, tiny_config, tmp_path):
        from repro.experiments.options import PointPolicy

        pts = [run_point("JACOBI", "Orig", 40, tiny_config),
               run_point("JACOBI", "GcdPad", 40, tiny_config,
                         policy=PointPolicy(analytic=True))]
        back = read_points_csv(write_points_csv(pts, tmp_path / "d.csv"))
        assert [r["degraded"] for r in back] == [False, True]

    def test_write_is_atomic_no_temp_leftover(self, points, tmp_path):
        write_points_csv(points, tmp_path / "pts.csv")
        assert [f.name for f in tmp_path.iterdir()] == ["pts.csv"]

    def test_write_replaces_existing_content(self, points, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("stale partial artifa")
        write_points_csv(points, path)
        assert path.read_text().startswith("kernel,strategy,")


class TestHardenedRead:
    def test_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("kernel,strategy,n\nJACOBI,Orig,40\n")
        with pytest.raises(ExperimentError, match="missing column"):
            read_points_csv(p)

    def test_malformed_numeric_cell_names_row(self, points, tmp_path):
        path = write_points_csv(points, tmp_path / "pts.csv")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("JACOBI,GcdPad,40", "JACOBI,GcdPad,oops")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError, match="row 3"):
            read_points_csv(path)

    def test_truncated_row_is_an_error_not_keyerror(self, points, tmp_path):
        path = write_points_csv(points, tmp_path / "pts.csv")
        lines = path.read_text().splitlines()
        lines[-1] = "JACOBI,GcdPad,40"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError, match="missing column"):
            read_points_csv(path)

    def test_legacy_file_without_degraded_reads_false(self, points,
                                                      tmp_path):
        path = write_points_csv(points, tmp_path / "pts.csv")
        lines = path.read_text().splitlines()
        stripped = [",".join(line.split(",")[:-1]) for line in lines]
        path.write_text("\n".join(stripped) + "\n")
        back = read_points_csv(path)
        assert all(r["degraded"] is False for r in back)

    def test_file_with_old_extrapolated_column_reads(self, points,
                                                     tmp_path):
        # Files written while extrapolation was an opt-in end with an
        # 'extrapolated' flag column; it passes through as a string.
        current = read_points_csv(write_points_csv(points,
                                                   tmp_path / "new.csv"))
        path = tmp_path / "old.csv"
        lines = points_to_csv(points).splitlines()
        path.write_text("\n".join([lines[0] + ",extrapolated"]
                                  + [line + ",1" for line in lines[1:]])
                        + "\n")
        back = read_points_csv(path)
        assert [r.pop("extrapolated") for r in back] == ["1", "1"]
        assert back == current
