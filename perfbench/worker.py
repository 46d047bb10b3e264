"""One benchmark process: sets up, prints ``ready``, runs the workload for
the given seconds and prints one JSON line of raw results.

    python3 perfbench/worker.py --workload tables --seed 1 --seconds 30 --trace 0

Started by ``run.py``, which times set-up from process start to ``ready``
(``--setup-only`` stops there) and turns the raw results into metrics.
Cold workloads fork every operation from this process, which has only
imported qeuler and built the CLI parser, and time it inside the child.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import random
import resource
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

COLD = ("tables", "checks")
# tracemalloc slows these operations 5-50x, so the traced run measures the
# allocation peak on every 8th operation only, and for cold workloads only
# on operations whose plain run took at most a quarter second.
ALLOC_EVERY = 8
ALLOC_MAX_S = 0.25


def _child_main(w: int, work) -> None:
    try:
        payload = work()
    except BaseException as exc:  # the child must always report and exit
        payload = {"error": repr(exc)}
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(data)
    while view:
        view = view[os.write(w, view):]
    os.close(w)


def forked(work) -> dict:
    """Run ``work()`` in a forked child and return what it returned.  The
    bytes unpickled here come only from that child."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            _child_main(w, work)
        finally:
            os._exit(0)
    os.close(w)
    chunks = []
    with os.fdopen(r, "rb") as f:
        while chunk := f.read(1 << 16):
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if not chunks:
        return {"error": f"child ended without a result (wait status {status})"}
    return pickle.loads(b"".join(chunks))


def cli_op(cli, argv: list[str], mode: str, op_id: int):
    """One CLI call with stdout captured as the encoded bytes a terminal
    would receive.  ``mode`` is plain, traced or alloc (tracemalloc)."""

    def work() -> dict:
        import checks
        import qeuler

        tracer = None
        if mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer, qeuler)
            tracer.op_id = op_id - 1
        elif mode == "alloc":
            import tracemalloc

            tracemalloc.start()
        sink = io.BytesIO()
        out = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
        saved, sys.stdout = sys.stdout, out
        try:
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
                seconds = None
            else:
                rc, seconds = tracer.run_op(cli.main, argv)
            out.flush()
            dt = time.perf_counter() - t0
        finally:
            sys.stdout = saved
        rec = {
            "mode": mode,
            "dt": seconds if seconds is not None else dt,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if mode == "alloc":
            rec["alloc_peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        data = sink.getvalue()
        # The traced and alloc runs only need to match the plain run's digest.
        rec["problems"] = checks.check_cli(argv, rc, data) if mode == "plain" else []
        try:
            rec["sha256"] = checks.output_digest(argv, data)
        except ValueError as exc:
            rec["sha256"] = None
            rec["problems"].append(f"digest: {exc!r}")
        if tracer is not None:
            tracer.counts["serialize.bytes"] += len(data)
            rec["trace"] = tracer.summary()
            rec["spans"] = tracer.spans()
            rec["missing"] = tracer.missing
        return rec

    return work


def pause() -> None:
    """Let the controller time a fresh start while this process is idle."""
    sys.stdout.write("pause\n")
    sys.stdout.flush()
    if sys.stdin.readline() != "go\n":
        raise SystemExit("controller went away")


def run_cold(args, cli) -> dict:
    import checks  # noqa: F401  (imported once here, inherited by every child)

    records = []
    traced_total, spans = {}, {}
    missing = set()
    alloc_peak = 0
    # A traced operation runs three times, so the traced run stops mid-deck.
    for argv in workloads.schedule(args.workload, args.seed, args.seconds, not args.trace,
                                   pause, args.pauses):
        op_id = len(records)
        rec = forked(cli_op(cli, argv, "plain", op_id))
        rec["argv"] = argv
        if args.trace:
            import tracing

            traced = forked(cli_op(cli, argv, "traced", op_id))
            others = [traced]
            if op_id % ALLOC_EVERY == 0 and rec.get("dt", 1) <= ALLOC_MAX_S:
                alloc = forked(cli_op(cli, argv, "alloc", op_id))
                others.append(alloc)
                alloc_peak = max(alloc_peak, alloc.get("alloc_peak", 0))
            for other in others:
                if "error" in other:
                    rec.setdefault("problems", []).append(other["error"])
                else:
                    rec.setdefault("problems", []).extend(other["problems"])
                    if other["sha256"] != rec.get("sha256"):
                        rec["problems"].append(f"{other['mode']} output differs from the plain run")
            if "trace" in traced:
                tracing.merge(traced_total, traced["trace"])
                tracing.merge_spans(spans, traced["spans"])
                missing.update(traced["missing"])
                rec["traced_dt"] = traced["dt"]
        records.append(rec)
    out = {"records": records}
    if args.trace:
        traced = [r for r in records if "traced_dt" in r]
        out["trace"] = {
            "total": traced_total,
            "spans": spans,
            "alloc_peak": alloc_peak,
            "missing": sorted(missing),
            "ops": len(traced),
            "traced_s": sum(r["traced_dt"] for r in traced),
            "plain_s": sum(r["dt"] for r in traced),
        }
    return out


def run_session(args, session_mod, runner) -> dict:
    """Timed calls, each checked after its timer stops.  With tracing, the
    plain pass takes a third of the time; a sample of the same calls is then
    repeated under tracemalloc, and all of them traced."""
    lat, done, problems = array("d"), [], []
    failed = 0
    budget = args.seconds / 3 if args.trace else args.seconds
    clock = time.perf_counter
    for op in workloads.schedule("session", args.seed, budget, True, pause, args.pauses):
        try:
            t0 = clock()
            result = runner.call(op)
            dt = clock() - t0
            problem = runner.check(op, result)
        except Exception as exc:
            dt, problem = clock() - t0, f"{op}: {exc!r}"
        lat.append(dt)
        if args.trace:
            done.append(op)
        if problem:
            failed += 1
            if len(problems) < 10:
                problems.append(problem)
    out = {
        "lat": lat.tolist(),
        "failed": failed,
        "problems": problems,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        import tracemalloc

        import qeuler
        import tracing

        tracemalloc.start()
        alloc_peak = 0
        for op in done[::ALLOC_EVERY]:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            runner.call(op)
            alloc_peak = max(alloc_peak, tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()
        tracer = tracing.Tracer()
        tracing.install(tracer, qeuler)
        traced_runner = session_mod.Session()
        traced_s = 0.0
        for op in done:
            result, seconds = tracer.run_op(traced_runner.call, op)
            traced_s += seconds
            problem = traced_runner.check(op, result)
            if problem:
                failed += 1
                problems.append(f"traced: {problem}")
        out["failed"] = failed
        out["trace"] = {
            "total": tracer.summary(),
            "spans": tracer.spans(),
            "alloc_peak": alloc_peak,
            "missing": tracer.missing,
            "ops": len(done),
            "traced_s": traced_s,
            "plain_s": sum(lat),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0,
                    help="pause this many times during the run for set-up timing")
    ap.add_argument("--spans-out", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    import qeuler

    if Path(qeuler.__file__).resolve().parent != ROOT / "src" / "qeuler":
        print(f"qeuler imported from {qeuler.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload in COLD:
        from qeuler import cli

        cli.build_parser()
    else:
        import session

        runner = session.Session()
        runner.warm_up(workloads.session_deck(random.Random(f"warm-up:{args.seed}")))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.workload in COLD:
        out = run_cold(args, cli)
    else:
        out = run_session(args, session, runner)
    if args.trace:
        import tracing

        t = out.pop("trace")
        if args.spans_out:
            tracing.write_spans(args.spans_out, t["spans"])
        out["layers"] = tracing.layer_metrics(
            t["total"], t["spans"], t["ops"], t["traced_s"], t["plain_s"], t["alloc_peak"]
        )
        out["missing"] = t["missing"]
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
