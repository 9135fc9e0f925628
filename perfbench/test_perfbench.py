"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("passes", "serve_read", "serve_write")


def _run(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=170,
    )


def _smoke(workload, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("REPRO_ENGINE", None)
    proc = _run(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--size", "smoke", env=env,
    )
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_and_exact_counts_ignore_the_hash_seed(workload):
    first_info, first = _smoke(workload, 1, hash_seed=1)
    second_info, second = _smoke(workload, 1, hash_seed=2)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert first_info["digest"] == second_info["digest"]
    assert first_info["counts"] == second_info["counts"]
    assert first_info["reasons"] == second_info["reasons"]
    exact = [
        name for name, spec in first["metrics"].items()
        if spec["unit"] == "count"
    ]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    declared = {
        entry["name"]: entry["unit"] for entry in _benchmark_json()[section]
    }
    for workload in WORKLOADS:
        info, result = _smoke(workload, trace, hash_seed=0)
        reported = {
            name: spec["unit"] for name, spec in result["metrics"].items()
        }
        assert reported == declared, workload
        if trace == 0:
            assert all(spec["value"] > 0 for spec in result["metrics"].values())
        else:
            # Every per-layer metric names the end-to-end metric it moves.
            assert set(info["moves"]) == set(declared)


def test_traced_time_is_claimed_by_named_layers():
    info, result = _smoke("serve_write", 1, hash_seed=0)
    assert result["correct"]
    for phase, share in info["unattributed_share"].items():
        assert 0.0 <= share <= info["accounting_tolerance"], phase
    for name in ("trace.named_share", "setup.trace.named_share"):
        assert 0.0 < result["metrics"][name]["value"] <= 1.0


def test_an_unwrapped_layer_makes_the_traced_run_incorrect(monkeypatch, capsys):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import run

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    entry_points = layers._entry_points
    monkeypatch.setattr(
        layers, "_entry_points",
        lambda: [point for point in entry_points() if point[0] != "codec.client"],
    )
    code = run.main(["--workload", "serve_read", "--seed", "5", "--seconds", "0",
                     "--trace", "1", "--size", "smoke"])
    assert code == 0
    info_line, result_line = capsys.readouterr().out.strip().splitlines()[-2:]
    info, result = json.loads(info_line), json.loads(result_line)
    assert result["failed"] == 0
    assert info["unattributed_share"]["ops"] > info["accounting_tolerance"]
    assert not result["correct"]


def test_a_wrong_expectation_counts_as_a_failure():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from inputs import build_inputs
    from workloads import Recorder, ServeRead

    inputs = build_inputs(7, "serve_read", "smoke")
    index = next(i for i, op in enumerate(inputs.read_ops) if op[0] == "query")
    op = inputs.read_ops[index]
    inputs.read_ops[index] = (*op[:-1], not op[-1])
    workload = ServeRead(inputs)
    workload.setup(Recorder(time.perf_counter))
    workload.after_setup()
    recorder = Recorder(time.perf_counter)
    try:
        workload.lap(recorder)
    finally:
        workload.close()
    assert recorder.attempted == len(inputs.read_ops)
    assert recorder.failed == 1


def test_refuses_another_engine():
    env = dict(os.environ, REPRO_ENGINE="mask")
    proc = _run("--workload", "serve_read", "--seed", "1", "--seconds", "1",
                "--trace", "0", env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "passes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
