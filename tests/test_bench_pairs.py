"""The benchmark-pairs script counts and reports runs that exited non-zero."""

import json

import bench_pairs


def finished(seed, wall):
    metrics = {"wall_ref": wall, "setup_s": 0.05, "peak_rss_mb": 50.0}
    return {"seed": seed, "correct": 1, "attempted": 1, "failed": 0, "metrics": metrics, "machine": None}


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


def test_a_dead_run_makes_the_script_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: rev)
    runs = {("parent", 1): finished(1, 100.0), ("change", 1): died(1)}
    monkeypatch.setattr(bench_pairs, "run", lambda checkout, workload, seed, seconds: runs[(checkout.name, seed)])
    out = tmp_path / "bench.json"
    argv = ["--parent", "p", "--change", "c", "--seeds", "1", "--workloads", "swap_scan", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert "swap_scan change" in capsys.readouterr().err
    assert json.loads(out.read_text())["workloads"]["swap_scan"]["change"]["exited_nonzero"] == 1
    runs[("change", 1)] = finished(1, 95.0)
    assert bench_pairs.main(argv) == 0
