"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import actcovers as ac  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(capsys, workload, trace=0):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    lines, result = _run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    assert list(result["metrics"]) == list(want)
    for name, m in result["metrics"].items():
        assert m["unit"] == metrics.UNITS[name]
        assert isinstance(m["value"], (int, float))
    assert any("identical" in line for line in lines)
    assert any(line.strip().startswith("failed_frac") for line in lines)


def test_wrong_expected_value_is_counted_as_failed(capsys, monkeypatch):
    # The tiny batch scans two right-zero monoids, each checked against
    # a Bell number.
    monkeypatch.setattr(oracles, "bell", lambda n: -1)
    lines, result = _run_tiny(capsys, "congruences")
    assert result["failed"] == 2
    assert result["correct"] is False
    assert any(line.strip().startswith("failed_frac") and "(2 of" in line
               for line in lines)


def test_known_defects_are_counted_but_do_not_make_the_run_incorrect(capsys):
    _, result = _run_tiny(capsys, "cli")
    assert result["correct"] is True
    assert result["failed"] == len(workloads.KNOWN_DEFECTS)


def test_the_same_seed_gives_the_same_inputs(tmp_path):
    a = workloads.build("kruml", 3, tmp_path / "a", tiny=True)
    b = workloads.build("kruml", 3, tmp_path / "b", tiny=True)
    c = workloads.build("kruml", 4, tmp_path / "c", tiny=True)
    assert a.inputs == b.inputs != c.inputs


def test_bell_numbers():
    assert [oracles.bell(n) for n in range(1, 11)] == \
        [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_join_closure_finds_the_scanned_congruences():
    for m in (ac.qiao_wei_truncated(2, 3), ac.right_zero_adjoin_one(3)):
        want = [oracles.rgs_of_classes(c.classes) for c in ac.all_right_congruences(m)]
        assert oracles.right_congruences(m.table) == want


def test_insertion_normal_form_matches_rewriting():
    rng = random.Random(0)
    for _ in range(200):
        w = [rng.randint(0, 9) for _ in range(rng.randint(0, 30))]
        assert oracles.knormal(w) == ac.knormalize(w)


def test_strong_flatness_reference_matches_library():
    m = ac.right_zero_adjoin_one(2)
    rng = random.Random(1)
    for size in (1, 2, 3, 4, 5):
        action = workloads.rz_probe(rng, size)
        act = ac.Act(m, tuple(f"p{i}" for i in range(size)), action)
        assert oracles.strongly_flat(m.table, action) == \
            ac.is_strongly_flat(act).strongly_flat


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
