"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs start the real benchmark for one second per workload, so
the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)

from qeuler import QPoly, cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    runs = [workloads.decks(workload, s) for s in (7, 7, 8)]
    for _ in range(3):
        first = [next(r) for r in runs]
        assert first[0] == first[1]
        assert first[0] != first[2]


@pytest.mark.parametrize("workload", ("tables", "checks"))
def test_every_drawable_argv_has_a_recorded_digest(workload):
    space = {checks.argv_key(a) for a in workloads.all_argvs(workload)}
    assert space <= DIGESTS.keys()
    stream = workloads.decks(workload, 3)
    for _ in range(5):
        for argv in next(stream):
            assert checks.argv_key(argv) in space


def test_decks_hold_the_same_mix_for_every_seed():
    def mix(deck):
        return sorted(" ".join(a[:4]) for a in deck)

    for workload in ("tables", "checks"):
        assert mix(next(workloads.decks(workload, 1))) == mix(next(workloads.decks(workload, 2)))


def test_table_formats_rotate_through_three_decks():
    stream = workloads.decks("tables", 5)
    seen = {}
    for _ in range(3):
        for argv in next(stream):
            seen.setdefault(" ".join(argv[:4]), set()).add(argv[5])
    assert all(formats == set(workloads.TABLE_FORMATS) for formats in seen.values())


def test_oracle_values():
    assert oracle.zigzag(8) == (1, 1, 1, 2, 5, 16, 61, 272, 1385)
    assert oracle.gamma_b(6)[2] == 7664
    for fam, (first, _, row, identity) in oracle.TRIANGLES.items():
        for n in range(max(first, 1), 12):
            assert identity(n, list(row(n))), (fam, n)


def test_value_at_one_parses_rendered_polynomials():
    for p in (QPoly([2, 4, 4, 4, 2]), QPoly([0, -1, 3]), QPoly([-5]), QPoly([])):
        assert checks.value_at_one(p._fmt()) == sum(p.coeffs)


ARGV = ["table", "A", "--max-n", "16", "--format", "text"]


def _plain(argv):
    return worker.forked(worker.cli_op(cli, argv, "plain", 0))


def test_corrupted_digest_counts_as_failure():
    rec = _plain(ARGV)
    assert rec["problems"] == []
    assert checks.compare_digest(ARGV, rec["sha256"], DIGESTS) == []
    corrupted = dict(DIGESTS)
    key = checks.argv_key(ARGV)
    corrupted[key] = ("0" if corrupted[key][0] != "0" else "1") + corrupted[key][1:]
    assert checks.compare_digest(ARGV, rec["sha256"], corrupted)
    assert checks.compare_digest(["table", "A", "--max-n", "99"], rec["sha256"], DIGESTS)


def test_output_checks_catch_a_wrong_value():
    text = "n=1: 1\nn=2: 1 1\nn=3: 1 4 1\nn=4: 1 11 11 2\n"
    assert checks.check_cli(["table", "A", "--max-n", "4", "--format", "text", "--q1"], 0, text.encode())
    good = text.replace("11 2", "11 1")
    assert not checks.check_cli(["table", "A", "--max-n", "4", "--format", "text", "--q1"], 0, good.encode())
    assert checks.check_cli(ARGV, 1, b"") == ["exit code 1"]
    report = {"suite": "series", "status": "fail", "counters": {"pass": 0, "fail": 1}, "items": []}
    assert checks.check_verify(json.dumps(report))


def test_session_check_catches_a_wrong_result():
    import session

    runner = session.Session()
    op = ("carlitz_entry", (3, 2))
    assert runner.check(op, runner.call(op)) is None
    assert runner.check(op, QPoly([1])) is not None
    assert runner.check(("reciprocity_A", (3,)), False) is not None


def test_traced_self_times_add_up_to_the_operation():
    argv = ["verify", "tangent", "--max-n", "5", "--format", "json"]
    rec = worker.forked(worker.cli_op(cli, argv, "traced", 0))
    assert rec["problems"] == [] and rec["missing"] == []
    total = sum(rec["trace"]["self_s"].values())
    assert total == pytest.approx(rec["dt"], rel=1e-9)
    assert rec["trace"]["calls"]["cli"] == 1
    assert rec["sha256"] == _plain(argv)["sha256"]


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    out = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    for name in ("setup_s", "ops_per_s", "op_s.p50", "op_s.p90", "fail_ratio", "peak_rss_mb"):
        assert any(line.startswith(f"{name} = ") for line in out.stdout.splitlines())


@pytest.mark.parametrize("workload", ("checks", "session"))
def test_traced_smoke_run(workload):
    out = _run("--workload", workload, "--seed", "2", "--seconds", "2", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(metrics["op.traced_s"]["value"], rel=1e-6)
    assert metrics["trace.overhead"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
