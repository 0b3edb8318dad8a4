"""CSV formatting, SVG determinism, and manifests."""

import json
import platform
import sys

import numpy as np
import pytest
import scipy

from slowthink.errors import ValidationError
from slowthink.reporting import (
    emit_plot,
    fmt,
    format_csv,
    manifest_dict,
    render_plot,
    run_environment,
    write_manifest,
)


class TestCsv:
    def test_floats_use_nine_significant_digits(self):
        assert fmt(0.049787068367863944) == "0.0497870684"
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(12345678912.0) == "1.23456789e+10"

    def test_non_floats_pass_through(self):
        assert fmt(3) == "3"
        assert fmt("beam") == "beam"
        assert fmt(True) == "true"
        assert fmt(False) == "false"

    def test_table_layout(self):
        text = format_csv(("a", "b"), [(1, 0.5), (2, "x")])
        assert text == "a,b\n1,0.5\n2,x\n"


class TestSvg:
    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            render_plot([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            render_plot([([1, 2], [1])])

    def test_two_point_series_is_byte_stable(self):
        a = render_plot([([0.0, 1.0], [0.0, 2.0])], ["line"], title="t")
        b = render_plot([([0.0, 1.0], [0.0, 2.0])], ["line"], title="t")
        assert a == b
        assert a.count("<polyline") == 1
        assert "<svg" in a and "</svg>" in a

    def test_no_timestamps_or_randomness(self):
        svg = render_plot(
            [([1, 2, 3], [1, 4, 9]), ([1, 2, 3], [2, 2, 2])],
            ["squares", "flat"],
            vlines=[(1.5, "cut")],
        )
        assert "date" not in svg.lower()
        for token in ("squares", "flat", "cut", "stroke-dasharray"):
            assert token in svg

    def test_degenerate_single_point(self):
        svg = render_plot([([2.0], [5.0])], ["pt"])
        assert "<circle" in svg

    def test_emit_writes_identical_files(self, tmp_path):
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        emit_plot([([0, 1], [1, 0])], ["s"], p1, xlabel="x", ylabel="y")
        emit_plot([([0, 1], [1, 0])], ["s"], p2, xlabel="x", ylabel="y")
        assert p1.read_bytes() == p2.read_bytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = manifest_dict("calibrate", {"stats": [1, 2, 3]}, 7, "0.1.0", 0.25)
        path = tmp_path / "run.manifest.json"
        write_manifest(path, m)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["command"] == "calibrate"
        assert loaded["config"] == {"stats": [1, 2, 3]}
        assert loaded["seed"] == 7

    def test_sorted_keys_on_disk(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(path, manifest_dict("bounds", {"z": 1, "a": 2}, None, "v", 0.0))
        raw = path.read_text()
        assert raw.index('"command"') < raw.index('"config"') < raw.index('"seed"')
        json.loads(raw)

    def test_records_run_environment(self, monkeypatch):
        env = manifest_dict("bounds", {}, None, "v", 0.0)["environment"]
        assert env == {
            "machine": platform.machine(),
            "numpy": np.__version__,
            "platform": sys.platform,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        }
        monkeypatch.delitem(sys.modules, "scipy")
        assert "scipy" not in run_environment()
