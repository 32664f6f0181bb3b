"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Layer, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert f"{name} = " in proc.stdout


def test_wrong_expected_count_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "TINY_CENSUS_QUERIES", ((8, "op", 1),))
    code = run.main(["--workload", "census", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "census", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding_and_restores_them():
    import ortho7
    from ortho7 import canon, families, pairs, poly, verify

    orig = poly.apply_transform
    bound = (canon, families, pairs, poly, verify)
    tracer = Tracer([Layer("poly", "apply_transform", "aggregate")])
    tracer.install(ortho7)
    try:
        assert all(m.apply_transform is not orig for m in bound)
        f = poly.Poly(ortho7.field_for(11), (0, 1, 0, 0, 0, 0, 0, 1))
        canon.canonicalize(f)  # calls apply_transform through canon's binding
    finally:
        tracer.uninstall()
    assert all(m.apply_transform is orig for m in bound)
    assert tracer.calls("poly.apply_transform") >= 1
