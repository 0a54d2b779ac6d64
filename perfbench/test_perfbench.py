"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, _ = run.end_to_end(workload, seed=0, seconds=0.01, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric_and_same_prices(workload):
    result, lines = run.traced(workload, seed=0, seconds=0.01, tiny=True)
    assert result["correct"] and result["failed"] == 0, lines
    _assert_metrics(result, BENCHMARK["per_layer"])
    assert not any("MISSING" in line for line in lines)
    # the hooks are gone again
    assert not hasattr(sys.modules["storage_pricer.dispatch"].solve_dispatch, "__wrapped__")


CORRUPTIONS = [(w, f) for w in ("day24", "week168") for f in ("objective", "lam", "theta", "pi")]
CORRUPTIONS += [("compare", "welfare"), ("compare", "scenario_lam")]


def _corrupt(entry, field):
    if field == "welfare":
        entry["welfare"]["system_cost"] *= 1 + 1e-4
    elif field == "objective":
        entry["objective"] *= 1 + 1e-4
    else:
        prices = np.asarray(entry[field])
        entry[field] = (prices + 1e-4 * max(1.0, np.max(np.abs(prices)))).tolist()


@pytest.mark.parametrize("workload,field", CORRUPTIONS)
def test_corrupted_reference_counts_as_failure(workload, field):
    reference = workloads.load_reference()
    for entry in reference[workload].values():
        if field in entry:
            _corrupt(entry, field)
    # theta and pi are stored only for stable instances: pick a day24 seed whose
    # tiny stream holds them
    seed = 0 if workload != "day24" else next(
        s for s in range(100)
        if all(field in reference["day24"][str(i)]
               for i in workloads.day24_stream(s, workloads.TINY_DAY24_STREAM)))
    result, lines = run.end_to_end(workload, seed=seed, seconds=0.01, tiny=True,
                                   reference=reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(field in line and "reference" in line for line in lines), lines


def test_day24_stream_keeps_three_quadratic_to_two_cubic():
    stream = workloads.day24_stream(seed=5)
    degrees = [workloads.DAY24_BLOCK_DEGREES[i % 5] for i in stream]
    assert len(set(stream)) == len(stream) == workloads.DAY24_STREAM
    for k in range(0, len(degrees), 5):
        assert degrees[k:k + 5] == [2, 2, 2, 3, 3]
    assert workloads.day24_stream(seed=5) == stream != workloads.day24_stream(seed=6)


def test_self_time_subtracts_the_union_of_children_across_threads():
    caller, pool = threading.get_ident(), -1
    recorded = [
        spans.Span(1, None, "op", caller, 0.0, 10.0),
        spans.Span(2, 1, "baseline.compare", caller, 0.0, 10.0),
        spans.Span(3, 2, "baseline.price_scenarios", caller, 1.0, 6.0),
        # two pool threads solving at once: parented to price_scenarios
        spans.Span(4, None, "dispatch.solve", pool, 1.5, 4.0),
        spans.Span(5, None, "dispatch.solve", pool - 1, 2.0, 5.5),
        spans.Span(6, 2, "baseline.clearing", caller, 7.0, 8.0),
    ]
    tree = spans.SpanTree(recorded, caller)
    assert tree.self_time("baseline.compare") == pytest.approx(10.0 - 5.0 - 1.0)
    assert tree.self_time("baseline.price_scenarios") == pytest.approx(5.0 - 4.0)
    assert len(tree.within("dispatch.solve", "baseline.price_scenarios")) == 2


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "day24", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert "machine: " in proc.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "day24", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None
