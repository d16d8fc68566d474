"""The benchmark-pairs script counts and reports dead runs, incorrect runs and failed operations."""

import json

import bench_pairs
import pytest


def finished(seed, wall, correct=True, attempted=1, failed=0):
    metrics = {"wall_ref": wall, "setup_s": 0.05, "peak_rss_mb": 50.0}
    return {
        "seed": seed, "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "machine": None
    }


def died(seed):
    return {"seed": seed, "returncode": 1, "stderr": "statistics.StatisticsError: no median for empty data"}


def test_record_counts_dead_runs_per_side():
    pairs = [("parent", finished(1, 100.0), died(1)), ("change", finished(2, 98.0), finished(2, 95.0))]
    entry = bench_pairs.record(pairs)
    assert (entry["parent"]["exited_nonzero"], entry["change"]["exited_nonzero"]) == (0, 1)
    # The dead run stays in its side's runs and out of its figures.
    assert [r["seed"] for r in entry["change"]["runs"]] == [1, 2]
    assert entry["change"]["wall_ref"]["runs"] == 1
    assert entry["change_lower"]["wall_ref"] == "1 of 1"


def test_a_run_without_a_metric_is_left_out_of_its_tally():
    partial = finished(1, 95.0)
    del partial["metrics"]["setup_s"]
    entry = bench_pairs.record([("parent", finished(1, 100.0), partial)])
    assert entry["change_lower"] == {"wall_ref": "1 of 1", "setup_s": "0 of 0", "peak_rss_mb": "0 of 1"}
    assert "setup_s" not in entry["change"]


def script_exit(tmp_path, monkeypatch, runs):
    """``main``'s exit status on one swap_scan pair of seed 1 from ``runs``, and its JSON file."""
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: rev)
    monkeypatch.setattr(bench_pairs, "run", lambda checkout, workload, seed, seconds: runs[checkout.name])
    out = tmp_path / "bench.json"
    argv = ["--parent", "p", "--change", "c", "--seeds", "1", "--workloads", "swap_scan", "--out", str(out)]
    return bench_pairs.main(argv), json.loads(out.read_text())["workloads"]["swap_scan"]


def test_a_dead_run_makes_the_script_exit_one(tmp_path, monkeypatch, capsys):
    runs = {"parent": finished(1, 100.0), "change": died(1)}
    status, entry = script_exit(tmp_path, monkeypatch, runs)
    assert status == 1
    assert "swap_scan change" in capsys.readouterr().err
    assert entry["change"]["exited_nonzero"] == 1
    runs["change"] = finished(1, 95.0)
    assert script_exit(tmp_path, monkeypatch, runs)[0] == 0


@pytest.mark.parametrize("side", ["parent", "change"])
def test_an_incorrect_run_makes_the_script_exit_one(tmp_path, monkeypatch, capsys, side):
    # run.py exits 0 when its own check fails; the pair still counts it.
    runs = {"parent": finished(1, 100.0), "change": finished(1, 95.0)}
    runs[side] = finished(1, 95.0, correct=False)
    status, entry = script_exit(tmp_path, monkeypatch, runs)
    assert status == 1
    assert f"swap_scan {side} incorrect" in capsys.readouterr().err
    assert (entry["parent"]["incorrect"], entry["change"]["incorrect"]) == ((1, 0) if side == "parent" else (0, 1))
    assert entry[side]["wall_ref"]["runs"] == 1  # an incorrect run keeps its figures


def test_a_higher_failed_share_on_the_change_makes_the_script_exit_one(tmp_path, monkeypatch, capsys):
    runs = {"parent": finished(1, 100.0, attempted=40, failed=1), "change": finished(1, 95.0, attempted=20, failed=1)}
    status, entry = script_exit(tmp_path, monkeypatch, runs)
    assert (entry["parent"]["failed_share"], entry["change"]["failed_share"]) == (0.025, 0.05)
    assert status == 1
    assert "swap_scan change failed_share" in capsys.readouterr().err
    # An equal or lower share passes, and a side with no finished run has none.
    runs["change"] = finished(1, 95.0, attempted=80, failed=2)
    assert script_exit(tmp_path, monkeypatch, runs)[0] == 0
    runs["change"] = died(1)
    status, entry = script_exit(tmp_path, monkeypatch, runs)
    assert (status, entry["change"]["failed_share"]) == (1, None)
