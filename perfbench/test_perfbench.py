"""Smoke tests of the benchmark itself, at tiny sample and epoch counts.

    python3 -m pytest perfbench

Each test runs perfbench/run.py in a subprocess, as the benchmark is run,
and checks its output against the metric names and units BENCHMARK.json
declares.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import REPORTED
from workloads import WORKLOADS, make_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0",
         "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def units(proc) -> dict[str, str]:
    """name -> unit from the human-readable lines before the result."""
    table = {}
    for line in proc.stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            table[parts[0]] = parts[2]
    return table


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "conv-tape", "--trace", "0")
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1")
    out = result(proc)
    assert out["correct"], proc.stdout
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == declared("per_layer")
    printed = units(proc)
    for name, unit in {**declared("end_to_end"), **REPORTED}.items():
        assert printed.get(name) == unit, name
    assert float(proc.stdout.split("failed_fraction")[1].split()[0]) == 0.0


def test_tampered_archive_raises_failed_fraction():
    proc = bench("--workload", "conv-tape", "--trace", "0",
                 "--fault", "tamper-archive")
    out = result(proc)
    assert not out["correct"] and out["failed"] >= 1
    assert float(proc.stdout.split("failed_fraction")[1].split()[0]) > 0.0
    assert "FAILED eval fold0.ckpt" in proc.stdout


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "conv-tape", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.xfail(strict=True, reason=(
    "onnkit gradcheck reports FAIL for set 13 (cubic, median, lincut) on "
    "about one probe seed in ten, 11 among them: central-difference "
    "rounding at h=1e-6 exceeds tol=1e-4. The benchmark probes with "
    "workloads.GRADCHECK_SEED instead; see the comment there."))
def test_gradcheck_passes_every_ref_hetero_set_on_probe_seed_11(tmp_path):
    cfg = tmp_path / "gradcheck.cfg"
    cfg.write_text(make_instance("ref-hetero", 3, "tiny",
                                 gradcheck_seed=11).gradcheck_config_text)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); from onnkit import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", "gradcheck", "--config", str(cfg)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
