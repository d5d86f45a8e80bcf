"""``benchmarks/bench.py`` without running a suite: the committed baseline
files, the command line, the kernel regression gate and ``--update``."""

import copy
import json
import os
import shutil

import pytest

from benchmarks import bench, elastic_bench, kernels


def _doc(suite: str) -> dict:
    with open(bench.baseline_path(suite)) as fh:
        return json.load(fh)


def test_every_baseline_belongs_to_a_suite_and_has_the_envelope():
    files = [name for name in os.listdir(bench.BASELINE_DIR) if name.startswith("BENCH_")]
    assert sorted(files) == sorted(f"BENCH_{suite}.json" for suite in bench.SUITES)
    for suite in bench.SUITES:
        doc = _doc(suite)
        assert set(doc) == {"schema_version", "info", "runs"}
        assert doc["schema_version"] == bench.SCHEMA_VERSION
        assert set(doc["info"]) == {"nproc", "python", "numpy", "machine_speed_index"}
        assert doc["runs"], suite
        for metrics in doc["runs"].values():
            assert metrics and all(isinstance(v, (int, float)) for v in metrics.values())


def test_an_unknown_suite_exits_2_naming_the_valid_ones(capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["kernels", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err and all(suite in err for suite in bench.SUITES)


def test_a_kernel_slower_than_twice_its_baseline_regresses():
    runs = _doc("kernels")["runs"]
    assert kernels.regressions(runs, runs) == []
    baseline = copy.deepcopy(runs)
    baseline["sort_frame_100k"]["ref_s"] /= 100
    # Under 10 µs a kernel is gated only by its suite's ratio.
    baseline["index_lookup_100"]["ref_s"] /= 100
    problems = kernels.regressions(runs, baseline)
    assert len(problems) == 1 and problems[0].startswith("sort_frame_100k:")


def test_a_failing_run_exits_1_and_never_becomes_the_baseline(tmp_path, monkeypatch):
    shutil.copy(bench.baseline_path("elastic"), tmp_path)
    monkeypatch.setattr(bench, "BASELINE_DIR", str(tmp_path))
    path = tmp_path / "BENCH_elastic.json"
    committed = path.read_bytes()
    runs = json.loads(committed)["runs"]
    failing = copy.deepcopy(runs)
    failing["elastic_ablation"]["rows_identical"] = 0.0

    monkeypatch.setattr(elastic_bench, "run_suite", lambda: failing)
    assert bench.main(["elastic"]) == 1
    assert bench.main(["elastic", "--update"]) == 1
    assert path.read_bytes() == committed

    monkeypatch.setattr(elastic_bench, "run_suite", lambda: runs)
    assert bench.main(["elastic"]) == 0
    assert bench.main(["elastic", "--update"]) == 0
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == bench.SCHEMA_VERSION and doc["runs"] == runs
