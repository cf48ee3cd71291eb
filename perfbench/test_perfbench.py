"""Tests of the benchmark itself: seeding, failure accounting, metric names
and its own oracles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bqf  # noqa: E402
import bqf.cli  # noqa: E402

import arith  # noqa: E402
import run  # noqa: E402
import stress  # noqa: E402
import tracing  # noqa: E402
from workloads import OPS, WORKLOADS, Context  # noqa: E402


def input_digest(workload: str, seed: int, count: int = 60) -> str:
    ops = OPS[workload](seed, Context(seed, workload), bqf)
    h = hashlib.sha256()
    for op in itertools.islice(ops, count):
        h.update(repr((op.kind, op.inputs)).encode())
    return h.hexdigest()


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert input_digest(workload, 7) == input_digest(workload, 7)
    assert input_digest(workload, 7) != input_digest(workload, 8)


def _wrong_reduce(f):
    res = bqf.reduction.reduce_form(f)
    r = res.reduced
    return bqf.ReductionResult(bqf.QuadraticForm(r.a, r.b, r.c + 1), res.witness, res.word, res.steps)


WRONG = {
    "forms": (bqf, "reduce_form", _wrong_reduce),
    "discriminants": (bqf, "class_number", lambda d: bqf.enumeration.class_number(d) + 1),
    "queries": (bqf.cli, "legendre", lambda v, p: -bqf.residues.legendre(v, p) or 1),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answer_raises_failed_share(workload, monkeypatch):
    def failed_share():
        ops = OPS[workload](3, Context(3, workload), bqf)
        loop = run.closed_loop(ops, seconds=30, max_ops=40)
        return loop.failed / len(loop.latencies)

    assert failed_share() == 0
    monkeypatch.setattr(*WRONG[workload])
    assert failed_share() > 0


def test_end_to_end_names_match_the_declaration():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_match_the_declaration():
    spec = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {n: run.layer_unit(n) for n in run.layer_names()} == spec
    assert len(spec) <= 128
    # the traced run assembles its metrics from exactly these parts
    produced = set(tracing.Tracer().layer_metrics())
    produced |= set(tracing.sweeps(bqf, random.Random(0)))
    produced |= {"trace.overhead_ratio"} | {f"stress.{c}.s" for c in stress.CASES}
    assert produced == set(spec)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_divisor_scan_matches_rectangle_scan():
    scan = arith.DivisorScan(1000)
    for m in range(3, 3000):
        if m % 4 in (0, 3):
            assert scan.reduced(-m) == arith.rectangle_reduced(-m)


def test_certified_primes_are_prime():
    rng = random.Random(5)
    for bits in (24, 36, 64, 127):
        p = arith.certified_prime(rng, bits)
        assert p.bit_length() == bits
        assert all(p % q for q in arith.odd_primes_below(2000))
        assert pow(3, p - 1, p) == 1
