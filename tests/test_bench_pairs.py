import importlib.util
import json
from pathlib import Path
from unittest import mock

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argv(tmp_path, *seeds):
    return ["--base", str(tmp_path), "--change", str(tmp_path), "--workload", "sample",
            "--seeds", *map(str, seeds), "--out", str(tmp_path / "pairs.json")]


def test_one_seed_rejected_before_any_run(tmp_path, capsys):
    bench_pairs = _bench_pairs()
    with mock.patch.object(bench_pairs, "run_once") as run_once, \
            pytest.raises(SystemExit) as exc:
        bench_pairs.main(_argv(tmp_path, 101))
    assert exc.value.code == 2
    run_once.assert_not_called()
    assert not (tmp_path / "pairs.json").exists()
    assert "--seeds" in capsys.readouterr().err


def test_two_seeds_summarized(tmp_path):
    bench_pairs = _bench_pairs()
    names = [m["name"] for m in json.loads(
        (SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    result = {"attempted": 1000, "metrics": {name: {"value": 1.0} for name in names}}
    with mock.patch.object(bench_pairs, "run_once", return_value=result):
        assert bench_pairs.main(_argv(tmp_path, 101, 102)) == 0
    doc = json.loads((tmp_path / "pairs.json").read_text(encoding="utf-8"))
    assert doc["sample"]["change_wins_of_pairs"]["pairs"] == 2
    assert doc["sample"]["base"]["metrics"][names[0]] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def _result():
    names = [m["name"] for m in json.loads(
        (SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    return {"attempted": 1000, "metrics": {name: {"value": 1.0} for name in names}}


def test_attempted_op_counts_summarized(tmp_path):
    # peak_rss_mb follows the op count, so each side records its spread
    bench_pairs = _bench_pairs()
    counts = iter([100, 150, 300, 200, 500, 400])  # base, change, change, base, base, change
    with mock.patch.object(bench_pairs, "run_once",
                           side_effect=lambda *args: {**_result(), "attempted": next(counts)}):
        assert bench_pairs.main(_argv(tmp_path, 101, 102, 103)) == 0
    record = json.loads((tmp_path / "pairs.json").read_text(encoding="utf-8"))["sample"]
    assert [run["attempted"] for run in record["base"]["runs"]] == [100, 200, 500]
    assert record["base"]["attempted"] == {"median": 200, "q1": 150.0, "q3": 350.0}
    assert record["change"]["attempted"] == {"median": 300, "q1": 225.0, "q3": 350.0}


def test_bytecode_state_recorded_without_warning(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    with mock.patch.object(bench_pairs, "run_once", return_value=_result()):
        assert bench_pairs.main(_argv(tmp_path, 101, 102)) == 0
    record = json.loads((tmp_path / "pairs.json").read_text(encoding="utf-8"))["sample"]
    for side in ("base", "change"):
        assert [run["bytecode"] for run in record[side]["runs"]] == \
            [{"PYTHONDONTWRITEBYTECODE": True, "pycache": False}] * 2
    assert record["warnings"] == []
    assert "warning" not in capsys.readouterr().err


def test_cached_bytecode_and_mismatched_sides_warned(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    base, change = tmp_path / "base", tmp_path / "change"
    (base / "src" / "elastica" / "__pycache__").mkdir(parents=True)
    change.mkdir()
    argv = ["--base", str(base), "--change", str(change), "--workload", "cli",
            "--seeds", "101", "102", "--out", str(tmp_path / "pairs.json")]
    with mock.patch.object(bench_pairs, "run_once", return_value=_result()):
        assert bench_pairs.main(argv) == 0
    record = json.loads((tmp_path / "pairs.json").read_text(encoding="utf-8"))["cli"]
    assert record["base"]["runs"][0]["bytecode"] == {"PYTHONDONTWRITEBYTECODE": False, "pycache": True}
    assert record["change"]["runs"][0]["bytecode"] == {"PYTHONDONTWRITEBYTECODE": False, "pycache": False}
    err = capsys.readouterr().err
    assert len(record["warnings"]) == 3
    assert "seed 101: the sides ran in different bytecode states" in err
    assert "base: seeds [101, 102] ran with cached bytecode" in err
