"""Tests for the ``repro bench`` perf-regression gate and smoke tier."""

from __future__ import annotations

import json
import os
import platform

import pytest

from repro.harness import bench
from repro.harness.bench import (
    ABS_SLACK_S,
    MIN_COMPARABLE_S,
    SMOKE_SCALE,
    comparable_points,
    compare_to_baseline,
    _load_baseline,
)

PROVENANCE = ("git_rev", "python", "platform", "nproc")


def _point(label, key, elapsed_s, cached=False):
    return {
        "key": key,
        "label": label,
        "fingerprint": "f" * 12,
        "cached": cached,
        "elapsed_s": elapsed_s,
    }


def _artifact(points, figure="fig7"):
    return {"figure": figure, "points": points}


class TestCompareToBaseline:
    def test_large_slowdown_fails(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 2.0)])
        violations = compare_to_baseline(current, baseline)
        assert len(violations) == 1
        assert "2.000s vs baseline 1.000s" in violations[0]

    def test_within_tolerance_passes(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 1.1)])
        assert compare_to_baseline(current, baseline) == []

    def test_absolute_slack_shields_small_points(self):
        # 40% slower, but only 60 ms in absolute terms: under the slack.
        baseline = _artifact([_point("a", ["x"], 0.15)])
        current = _artifact([_point("a", ["x"], 0.21)])
        assert compare_to_baseline(current, baseline) == []
        # The same relative slowdown past the slack fails.
        baseline = _artifact([_point("a", ["x"], 1.5)])
        current = _artifact([_point("a", ["x"], 2.1)])
        assert len(compare_to_baseline(current, baseline)) == 1

    def test_boundary_is_exclusive(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        exactly = _artifact([_point("a", ["x"], 1.15 + ABS_SLACK_S)])
        assert compare_to_baseline(exactly, baseline) == []

    def test_cached_points_never_gate(self):
        baseline = _artifact([_point("a", ["x"], 1.0, cached=True)])
        current = _artifact([_point("a", ["x"], 99.0)])
        assert compare_to_baseline(current, baseline) == []
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 99.0, cached=True)])
        assert compare_to_baseline(current, baseline) == []

    def test_noise_floor_points_never_gate(self):
        tiny = MIN_COMPARABLE_S / 2
        baseline = _artifact([_point("a", ["x"], tiny)])
        current = _artifact([_point("a", ["x"], 99.0)])
        assert compare_to_baseline(current, baseline) == []

    def test_unmatched_points_are_skipped(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact(
            [_point("b", ["y"], 99.0), _point("a", ["z"], 99.0)]
        )
        assert compare_to_baseline(current, baseline) == []

    def test_custom_tolerance(self):
        baseline = _artifact([_point("a", ["x"], 10.0)])
        current = _artifact([_point("a", ["x"], 14.0)])
        assert compare_to_baseline(current, baseline, tolerance=0.15)
        assert compare_to_baseline(current, baseline, tolerance=0.5) == []

    def test_multiple_regressions_all_reported(self):
        baseline = _artifact(
            [_point("a", ["x"], 1.0), _point("b", ["y"], 2.0)]
        )
        current = _artifact(
            [_point("a", ["x"], 3.0), _point("b", ["y"], 6.0)]
        )
        assert len(compare_to_baseline(current, baseline)) == 2


class TestComparablePoints:
    def test_pairs_matched_simulated_points(self):
        baseline = _artifact(
            [_point("a", ["x"], 1.0), _point("b", ["y"], 1.0)]
        )
        current = _artifact(
            [_point("a", ["x"], 2.0), _point("c", ["z"], 2.0)]
        )
        pairs = comparable_points(current, baseline)
        assert [(p["label"], b["label"]) for p, b in pairs] == [("a", "a")]

    def test_cached_points_do_not_pair(self):
        baseline = _artifact([_point("a", ["x"], 1.0, cached=True)])
        current = _artifact([_point("a", ["x"], 2.0)])
        assert comparable_points(current, baseline) == []

    def test_provenance_fields_never_gate(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 2.0)])
        stamped = dict(
            current, git_rev="0" * 40, python="0.0", platform="x", nproc=1
        )
        assert comparable_points(stamped, baseline) == comparable_points(
            current, baseline
        )
        assert compare_to_baseline(stamped, baseline) == compare_to_baseline(
            current, baseline
        )
        assert compare_to_baseline(baseline, stamped) == compare_to_baseline(
            baseline, current
        )

    def test_missing_engine_means_scalar(self):
        # Artifacts written while runs were engine-stamped carry an
        # ``engine`` field; pairing ignores it, present or absent.
        baseline = _artifact([_point("a", ["x"], 1.0)])
        baseline["engine"] = "vectorized"
        current = _artifact([_point("a", ["x"], 2.0)])
        assert len(comparable_points(current, baseline)) == 1
        assert compare_to_baseline(current, baseline) != []


class TestLoadBaseline:
    def test_directory_resolution(self, tmp_path):
        path = tmp_path / "BENCH_fig7.json"
        path.write_text(json.dumps(_artifact([], figure="fig7")))
        data, resolved = _load_baseline(str(tmp_path), "fig7")
        assert data["figure"] == "fig7"
        assert resolved == path

    def test_missing_file(self, tmp_path):
        data, resolved = _load_baseline(str(tmp_path), "fig7")
        assert data is None
        assert resolved.name == "BENCH_fig7.json"

    def test_figure_mismatch_rejected(self, tmp_path):
        path = tmp_path / "whatever.json"
        path.write_text(json.dumps(_artifact([], figure="fig2")))
        data, _ = _load_baseline(str(path), "fig7")
        assert data is None

    def test_direct_file(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_artifact([], figure="fig7")))
        data, _ = _load_baseline(str(path), "fig7")
        assert data["figure"] == "fig7"


class TestBenchCliGate:
    """End-to-end: one real smoke run, then gate against doctored baselines."""

    @pytest.fixture(scope="class")
    def smoke_artifact(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("bench-out")
        rc = bench.main(["fig2", "-m", "smoke", "--out-dir", str(out_dir)])
        assert rc == 0
        path = out_dir / "BENCH_fig2.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def test_smoke_tier_sets_scale_and_quick(self, smoke_artifact):
        assert smoke_artifact["scale"] == SMOKE_SCALE
        assert smoke_artifact["quick"] is True
        assert smoke_artifact["simulated"] == smoke_artifact["points_total"]
        assert all(p["elapsed_s"] >= 0 for p in smoke_artifact["points"])

    def test_artifact_records_provenance(self, smoke_artifact):
        assert smoke_artifact["python"] == platform.python_version()
        assert smoke_artifact["platform"] == platform.platform()
        assert smoke_artifact["nproc"] == os.cpu_count()
        rev = smoke_artifact["git_rev"]
        assert rev is None or (len(rev) == 40 and int(rev, 16) >= 0)

    def test_baseline_without_provenance_loads_and_gates(
        self, smoke_artifact, tmp_path, capsys
    ):
        # Artifacts written before the provenance fields existed.
        baseline = {
            k: v for k, v in smoke_artifact.items() if k not in PROVENANCE
        }
        baseline["points"] = [
            dict(point, elapsed_s=point["elapsed_s"] * 100 + 10.0)
            for point in smoke_artifact["points"]
        ]
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        loaded, _ = _load_baseline(str(baseline_path), "fig2")
        assert loaded == baseline
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(baseline_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_gate_fails_against_faster_baseline(
        self, smoke_artifact, tmp_path, monkeypatch, capsys
    ):
        # Shrink the guards so the synthetic baseline gates every point
        # regardless of how fast this host is.
        monkeypatch.setattr(bench, "MIN_COMPARABLE_S", 0.0)
        monkeypatch.setattr(bench, "ABS_SLACK_S", 0.0)
        baseline = json.loads(json.dumps(smoke_artifact))
        for point in baseline["points"]:
            point["elapsed_s"] = point["elapsed_s"] / 1000 + 1e-6
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(baseline_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "perf gate FAILED" in out

    def test_gate_passes_against_slower_baseline(
        self, smoke_artifact, tmp_path, capsys
    ):
        baseline = json.loads(json.dumps(smoke_artifact))
        for point in baseline["points"]:
            point["elapsed_s"] = point["elapsed_s"] * 100 + 10.0
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(tmp_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "perf gate passed" in out

    def test_missing_baseline_is_not_gated(self, tmp_path, capsys):
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(tmp_path / "nowhere"),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert "not gated" in capsys.readouterr().out

    def test_engineless_baseline_warns_and_still_gates(
        self, smoke_artifact, tmp_path, capsys
    ):
        # Artifacts no longer carry an ``engine`` field; committed ones
        # that still do (any value) load and gate like any other.
        assert "engine" not in smoke_artifact
        baseline = json.loads(json.dumps(smoke_artifact))
        baseline["engine"] = "batched"
        for point in baseline["points"]:
            point["elapsed_s"] = point["elapsed_s"] * 100 + 10.0
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(baseline_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "perf gate passed" in out

    def test_vacuous_gate_fails(self, smoke_artifact, tmp_path, capsys):
        # A baseline whose labels match nothing pairs zero points; the
        # gate must fail loudly instead of passing without comparing.
        baseline = json.loads(json.dumps(smoke_artifact))
        for point in baseline["points"]:
            point["label"] = "renamed-" + point["label"]
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(baseline_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "compared nothing" in out


class TestEpochSpeedupGate:
    """``bench epochs`` times fused dispatch and its per-op reference."""

    @pytest.fixture(autouse=True)
    def few_blocks(self, monkeypatch):
        # Shrink the family so the test times dispatch, not the host.
        monkeypatch.setattr(bench, "EPOCH_WIDTHS", (1, 16))

    def test_artifact_pairs_fused_and_reference_points(self, tmp_path):
        rc = bench.main(["epochs", "-m", "smoke", "--out-dir", str(tmp_path)])
        assert rc == 0
        artifact = json.loads((tmp_path / "BENCH_epochs.json").read_text())
        labels = [p["label"] for p in artifact["points"]]
        assert labels == ["epoch.w1", "epoch.w16"]
        assert [p["label"] for p in artifact["reference_points"]] == labels

    def test_floor_gates_within_one_run(self, tmp_path, capsys):
        rc = bench.main(
            ["epochs", "-m", "smoke", "--speedup-floor", "1000",
             "--out-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "aggregate speedup of fused dispatch" in out
        assert "below the required floor 1000x" in out

    def test_floor_needs_the_epochs_family(self, tmp_path):
        with pytest.raises(SystemExit):
            bench.main(["fig2", "--speedup-floor", "2",
                        "--out-dir", str(tmp_path)])
