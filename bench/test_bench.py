"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest bench -q

The smoke runs go through ``run.py`` exactly as a measurement does, with
``--size tiny``.  The corruption tests feed each workload's checks a wrong
output and require it to be counted as a failure, so the checks can fail.
"""

import dataclasses
import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_prints_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: rec["unit"] for name, rec in result["metrics"].items()}
    assert all(isinstance(rec["value"], (int, float)) for rec in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bound_grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_bound_grid(out):
    star, bounds = out
    return dataclasses.replace(star, value=0.0), bounds


def _corrupt_blobs(out):
    rc, cert_text, pred_text = out
    doc = json.loads(cert_text)
    doc["predictions"] = doc["predictions"][1:]
    return rc, json.dumps(doc), pred_text


def _corrupt_vapnik(cert):
    return dataclasses.replace(cert, test_ids=cert.test_ids[::-1])


def _corrupt_mc(rep):
    return dataclasses.replace(rep, violations=rep.violations + 1)


CORRUPTIONS = {
    "bound_grid": _corrupt_bound_grid,
    "transduce_blobs": _corrupt_blobs,
    "transduce_vapnik": _corrupt_vapnik,
    "mc_validity": _corrupt_mc,
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_output_is_counted_as_an_error(name, tmp_path):
    unit = workloads.WORKLOADS[name](3, "tiny", tmp_path)[0]
    out = unit.run()
    assert unit.check(out, True) == []
    assert unit.check(CORRUPTIONS[name](out), True) != []


def test_reselection_check_catches_another_certificate(tmp_path):
    unit = workloads.transduce_vapnik(3, "tiny", tmp_path)[0]
    cert = unit.run()
    wrong_tau = dataclasses.replace(cert, chosen_tau=cert.chosen_tau + 1)
    assert unit.check(wrong_tau, False) == []
    assert unit.check(wrong_tau, True) != []


def test_digest_mismatch_fails_every_op_of_the_unit():
    unit = {"label": "u", "ops": 7, "digest": "aaaa", "problems": []}
    reps = [{"units": [unit]}, {"units": [dict(unit, digest="bbbb")]}]
    assert run.count_failures(reps, None)[:2] == (14, 7)
    assert run.count_failures(reps[:1], ["aaaa"])[:2] == (7, 0)
    assert run.count_failures(reps[:1], ["cccc"])[:2] == (7, 7)
