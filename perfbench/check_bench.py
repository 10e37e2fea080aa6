"""The benchmark's own tests (kept out of the package's test run).

    python3 -m pytest -q perfbench/check_bench.py

They run the benchmark from the checkout root with short runs: a smoke run
of every workload, the result schema, every metric of BENCHMARK.json
present with its unit, exact repeats of the traced counts and op records,
and the refusal to run without the sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_generator_is_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 3) == workloads.generate(w, 3)
        assert workloads.generate(w, 3) != workloads.generate(w, 4)
    catalog = workloads.generate("catalog192", 5)
    assert sorted(op.args["id"] for op in catalog) == list(range(192))
    assert any(op.args["tuple"] == workloads.README_TUPLE for op in catalog)


def _metrics_match(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    meta, result = result_of(bench("--workload", workload, "--seed", 1, "--seconds", 1, "--trace", 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    _metrics_match(result["metrics"], SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert set(meta["stamp"]) == {"git_sha", "src_sha256", "python", "numpy", "nproc"}
    assert meta["op_tail"]["samples"] >= 1
    # the seed's known defects show as failed ops with their cause
    expected = {"spectrum": {"empty", "tolerance"}, "moduli_sweep": {"raised:OverflowError"}}
    assert set(meta["failed_ops_per_pass_by_cause"]) == expected.get(workload, set())


@pytest.mark.parametrize("workload", ("tables", "moduli_sweep"))
def test_trace_repeats_exactly(workload):
    runs = []
    for _ in range(2):
        meta, result = result_of(bench("--workload", workload, "--seed", 2, "--trace", 1))
        _metrics_match(result["metrics"], SPEC["per_layer"])
        assert result["correct"] is True and meta["records_identical"] is True
        records = (ROOT / ".perfbench_out" / f"records-{workload}-seed2.jsonl").read_bytes()
        runs.append((meta["counts"], records))
    assert runs[0] == runs[1]


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "tables", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
