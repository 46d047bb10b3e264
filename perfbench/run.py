"""qeuler benchmark: runs one workload for one seed and prints its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``tables`` and ``checks`` fork each CLI call
cold from a process that has only imported qeuler; ``session`` makes small
public-API calls in one warm process.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run with the same inputs.  Earlier
lines give the environment stamp and every metric by name with its unit.
Full results go to ``.perfbench_out/`` in the checkout.

Run from the root of a qeuler checkout; it needs ``src/qeuler`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib.util import cache_from_source
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "qeuler"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import compare_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is short, so one sample shows only the state of the machine at that
# moment.  Each run times it in fresh processes before the main worker
# starts and while it pauses, spread over the run, and reports the median.
PRE_SETUPS = 2
RUN_SETUPS = 8
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "op_s.p90": "s",
         "fail_ratio": "ratio", "peak_rss_mb": "MB"}
# fail_ratio is 0 whenever the program is correct, so the result line
# carries it as failed / attempted rather than as a metric.
RESULT_METRICS = ("setup_s", "ops_per_s", "op_s.p50", "op_s.p90", "peak_rss_mb")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def env_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "affinity_set_by_benchmark": None,
        "loadavg_start": os.getloadavg(),
        "bytecode_cached": all(
            Path(cache_from_source(str(p))).exists()
            for p in SRC.glob("*.py")
            if p.name != "__main__.py"
        ),
    }


class Worker:
    """One worker.py process; :meth:`ready` returns the seconds from start
    until its set-up finished.  Leaving the ``with`` block ends the process
    if it is still running and waits for it."""

    def __init__(self, args, *extra: str, limit: float, stdin=None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
        # Timed starts load cached bytecode whatever the caller's environment.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT, env=env)
        self.timer = threading.Timer(limit, self.proc.kill)
        self.timer.start()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        seconds = time.perf_counter() - self.t0
        if line != "ready\n":
            self.finish()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")
        return seconds

    def results(self, on_pause) -> str:
        """Serve the worker's pauses until it prints its result line."""
        while (line := self.proc.stdout.readline()) == "pause\n":
            on_pause()
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
        self.proc.stdin.close()
        return line + self.finish()

    def finish(self) -> str:
        rest = self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return rest


def cold_results(raw: dict) -> tuple[list[float], list[str], int]:
    expected = json.loads((HERE / "digests.json").read_text())
    lat, failures, rss = [], [], 0
    for rec in raw["records"]:
        problems = list(rec.get("problems", []))
        if "error" in rec:
            problems.append(rec["error"])
        else:
            lat.append(rec["dt"])
            rss = max(rss, rec["rss_kb"])
            problems += compare_digest(rec["argv"], rec["sha256"], expected)
        if problems:
            failures.append(f"{' '.join(rec['argv'])}: {'; '.join(problems)}")
    return lat, failures, rss


def end_to_end(setups: list[float], lat: list[float], failed: int, attempted: int,
               rss_kb: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.p90": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
        "fail_ratio": failed / attempted,
        "peak_rss_mb": rss_kb / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qeuler benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file() or not (HERE / "digests.json").is_file():
        print(f"no qeuler sources under {ROOT}; run from a qeuler checkout", file=sys.stderr)
        return 2

    env = env_stamp()
    limit = 3 * args.seconds + 60
    # Untimed first start, so every timed one finds the bytecode cached.
    with Worker(args, "--setup-only", limit=limit) as w:
        w.finish()
    setups = []

    def time_setup() -> None:
        with Worker(args, "--setup-only", limit=limit) as w:
            setups.append(w.ready())
            w.finish()

    for _ in range(PRE_SETUPS):
        time_setup()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    extra = ("--spans-out", str(OUT / f"{stem}.spans.json.gz")) if args.trace else (
        "--pauses", str(RUN_SETUPS))
    with Worker(args, *extra, limit=limit, stdin=subprocess.PIPE) as w:
        setups.append(w.ready())
        raw = json.loads(w.results(time_setup).splitlines()[-1])
    env["loadavg_end"] = os.getloadavg()

    if "records" in raw:
        lat, failures, rss_kb = cold_results(raw)
        attempted = len(raw["records"])
        failed = len(failures)
    else:
        lat, rss_kb = raw["lat"], raw["rss_kb"]
        attempted, failed, failures = len(lat), raw["failed"], raw["problems"]
    if not lat:
        raise RuntimeError(f"no operation completed: {failures[:3]}")
    e2e = end_to_end(setups, lat, failed, attempted, rss_kb)

    if args.trace:
        layers = raw["layers"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in RESULT_METRICS}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_samples_s": setups,
              "end_to_end": e2e, "metrics": metrics, "attempted": attempted,
              "failed": failed, "failures": failures[:20], "missing": raw.get("missing", [])}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("env " + json.dumps(env))
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
