"""The kgmarkov benchmark.

One workload, one run (what BENCHMARK.json's command runs)::

    python3 perfbench/run.py --workload query_read --seed 7 --seconds 30 --trace 0

prints metric lines and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``), and writes a
result file under ``.bench_out/``.  All workloads, untraced and traced, in
the forward and then the reversed order, plus the corrupted-output self-test
and the growth report::

    python3 perfbench/run.py --all

writes ``.bench_out/BENCH_seed<seed>.json``.  ``--self-test`` alone runs only
the self-test.  Load is one client in a closed loop: the next op starts when
the previous one has finished and been checked, and at most one CLI
subprocess runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
CALIB_REPEATS = 5
# --all runs every workload once in the forward and once in the reversed order
ROUNDS = 2


def load_kgmarkov():
    """Import the checkout's kgmarkov (not an installed copy) or exit."""
    if not (SRC / "kgmarkov" / "__init__.py").is_file():
        sys.exit(f"error: no kgmarkov sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import kgmarkov

    if SRC.resolve() not in Path(kgmarkov.__file__).resolve().parents:
        sys.exit(f"error: kgmarkov was imported from {kgmarkov.__file__}, not {SRC}")
    return kgmarkov


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def calib() -> float:
    import oracle

    return statistics.median(oracle.calib_ms() for _ in range(CALIB_REPEATS))


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def interpreter_probes(ctx) -> dict:
    """Median wall time of a bare interpreter and of one importing kgmarkov.cli."""
    def wall(code):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ctx.work, env=ctx.child_env(),
                           check=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1000)
        return statistics.median(times)

    bare = wall("pass")
    return {"cli.interpreter_ms": bare, "cli.import_ms": wall("import kgmarkov.cli") - bare}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    spec = load_spec()
    calib_before = calib()
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    ctx = workloads.Context(root=ROOT, work=work, seed=seed, tracer=tracer)
    wl = workloads.WORKLOADS[name](ctx)
    in_process = wl.in_process
    try:
        wl.prepare()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            uninstall = spans.install(tracer) if trace else None
            span = tracer.start("setup") if trace else None
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
            if trace:
                tracer.end(span)
                uninstall()

        def one_op(op, op_id, traced):
            uninstall = spans.install(tracer) if traced and in_process else None
            if traced:
                tracer.op = op_id
                span = tracer.start("op." + op.kind)
            ctx.steps.clear()
            t0 = time.perf_counter()
            try:
                out, error = wl.run(op, traced, op_id), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end(span)
                tracer.op = None
            else:
                kind_counts[op.kind] = kind_counts.get(op.kind, 0) + 1
                for step, took in (ctx.steps or {op.kind: elapsed}).items():
                    fastest[step] = min(took, fastest.get(step, took))
                timeline.append((round(t0 - loop_start, 4), op.kind, elapsed))
            if uninstall is not None:
                uninstall()
            if error is not None:
                return elapsed, [error]
            try:
                return elapsed, wl.check(op, out)
            except Exception as exc:  # a check that cannot run is a failed check
                return elapsed, [f"{op.kind} check: {type(exc).__name__}: {exc}"]

        # The garbage collector keeps its default settings: users pay its
        # cost too, and that cost grows faster than the graph, which is part
        # of what the growth report is meant to show.
        # The loop stops at the end of a round of kinds, once --seconds have
        # passed and every kind has run at least min_rounds times.
        plan = wl.plan()
        latencies, traced_latencies, problems, timeline = [], [], [], []
        kind_counts: dict[str, int] = {}
        # Other tenants slow this kind of shared host by up to 1.9x in
        # phases of a second to minutes, which moves medians, and even 10th
        # percentiles, between runs of the same code.  The fastest of many
        # runs of a step is what the code costs when the host is quiet, and
        # a quiet spell is more likely to cover a short step than a long
        # op, so ops made of long steps time each step.
        fastest: dict[str, float] = {}  # fastest untraced time of each step
        attempted = failed = failed_untraced = 0
        loop_start = time.perf_counter()
        i = 0
        while True:
            op = plan[i % len(plan)]
            for traced in ((False, True) if trace else (False,)):
                elapsed, found = one_op(op, i, traced)
                (traced_latencies if traced else latencies).append(elapsed)
                attempted += 1
                if found:
                    failed += 1
                    failed_untraced += not traced
                    problems.extend(found)
            i += 1
            if (i % len(wl.kinds) == 0 and i >= wl.min_rounds * len(wl.kinds)
                    and time.perf_counter() - loop_start >= seconds):
                break
        probes = interpreter_probes(ctx) if trace and not in_process else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_after = calib()

    if trace:
        metrics = spans.summarize(tracer.spans)
        metrics.update(dict.fromkeys(("cli.interpreter_ms", "cli.import_ms"), 0.0), **probes)
        metrics["trace.overhead_pct"] = 100.0 * statistics.median(
            t / u - 1.0 for u, t in zip(latencies, traced_latencies))
        metrics["env.calib_ms"] = (calib_before + calib_after) / 2
        wanted = spec["per_layer"]
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        metrics = {
            "quiet_round_ms": sum(fastest.values()) * 1000,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    # A host whose speed changed during the run is flagged, not corrected.
    drift = abs(calib_after - calib_before) / min(calib_before, calib_after)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": wl.sizes(),
        "environment": environment(),
        "calib_ms": {"before": calib_before, "after": calib_after},
        "noisy": drift > next(m["bound"] for m in spec["end_to_end"]
                              if m["name"] == "quiet_round_ms"),
        "setup_s_samples": setup_s,
        "op_samples": len(latencies),
        "op_samples_by_kind": kind_counts,
        "fastest_ms_by_step": {k: v * 1000 for k, v in fastest.items()},
        "samples_beyond_p90": sum(1 for x in latencies if x > percentile(latencies, 0.9)),
        # medians and tails move with the host's speed; printed, not bounded
        "unbounded": {
            "op_p50_ms": percentile(latencies, 0.5) * 1000,
            "op_p90_ms": percentile(latencies, 0.9) * 1000,
            "ops_per_s": (len(latencies) - failed_untraced) / sum(latencies),
        },
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
        "timeline": timeline,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    if name == "cli_chain":
        result["unbounded"]["chain_s"] = statistics.median(latencies)
    if trace:
        span_file = OUT / f"{name}-seed{seed}.spans.jsonl"
        span_file.unlink(missing_ok=True)
        tracer.write_jsonl(str(span_file))
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


UNBOUNDED_UNITS = {"op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s", "chain_s": "s"}


def print_result(result: dict) -> None:
    name = result["workload"]
    n = result["op_samples"]
    per_kind = min(result["op_samples_by_kind"].values())
    for metric, m in result["metrics"].items():
        if result["trace"] and m["value"] == 0:
            continue  # a layer this workload never calls
        note = f"  (fastest of >= {per_kind} ops per kind)" if metric == "quiet_round_ms" else ""
        print(f"{name:13s} {metric:36s} {m['value']:14.4f} {m['unit']}{note}")
    for metric, value in result["unbounded"].items():
        beyond = f", {result['samples_beyond_p90']} beyond p90" if metric == "op_p90_ms" else ""
        note = f"  (n={n} ops{beyond}; no bound)"
        print(f"{name:13s} {metric:36s} {value:14.4f} {UNBOUNDED_UNITS[metric]}{note}")
    print(f"{name:13s} {'fail_ratio':36s} {result['fail_ratio']:14.4f} "
          f"({result['failed']} of {result['attempted']} ops)")
    calib = result["calib_ms"]
    print(f"{name:13s} {'env.calib_ms':36s} {calib['before']:14.4f} ms before, "
          f"{calib['after']:.4f} ms after" + ("  NOISY: the host's speed changed during the run"
                                              if result["noisy"] else ""))
    for problem in result["problems"][:5]:
        print(f"{name:13s} FAILED: {problem}")


def self_test(seed: int) -> dict:
    """Show that the chain checks catch one flipped byte in a copied .nt file.

    Runs a short (100-day) CLI chain twice: the first run's files must pass
    every check; in the second, a copy of enriched.nt with one byte flipped
    stands in for the original and must fail them.
    """
    import workloads

    work = OUT / f"work-selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(root=ROOT, work=work, seed=seed)
    chain = workloads.CliChain(ctx, days=100)
    try:
        chain.prepare()
        op = chain.plan()[0]
        clean = chain.check(op, chain.run(op, False, 0))
        folder, errors = chain.run(op, False, 1)
        copy = folder / "enriched-copy.nt"
        shutil.copyfile(folder / "enriched.nt", copy)
        data = bytearray(copy.read_bytes())
        position = random.Random(seed).randrange(len(data))
        data[position] ^= 1
        copy.write_bytes(bytes(data))
        texts = chain.read_texts(folder)
        texts["enriched.nt"] = copy.read_text(encoding="utf-8")
        corrupted = errors or chain.check_texts(texts, op.state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = int(bool(clean)) + int(bool(corrupted))
    return {
        "passed": not clean and bool(corrupted),
        "flipped_byte": position,
        "attempted": 2,
        "failed": failed,
        "fail_ratio": failed / 2,
        "clean_problems": clean,
        "corrupted_problems": corrupted,
    }


def print_self_test(result: dict) -> None:
    print(f"self-test     fail_ratio {result['fail_ratio']:.4f} ({result['failed']} of "
          f"{result['attempted']} ops; byte {result['flipped_byte']} of a copied enriched.nt flipped)")
    for problem in result["corrupted_problems"][:5]:
        print(f"self-test     caught: {problem}")
    print("self-test     " + ("PASSED: the corrupted copy was caught" if result["passed"]
                              else "FAILED: " + json.dumps(result["clean_problems"][:3])))


# per-unit costs compared between 1,000 days and 10,000 days
GROWTH = (
    ("rdf.parse_us_per_triple", "us/triple"),
    ("rdf.serialize_us_per_triple", "us/triple"),
    ("ingest.us_per_day", "us/day"),
)
# a per-unit cost this many times higher at 10x the size is superlinear
SUPERLINEAR = 1.5


def growth(traced_median) -> list[dict]:
    """Per-unit cost at 1,000 days (query_read, writeback_rw) against 10,000 (cli_chain).

    traced_median(workload, metric) is the metric's median over the traced
    runs.  A per-unit cost that rises with size means the layer grows faster
    than its input.  dot is rendered only at 1,000 days, so it has no row.
    """
    report = []
    for metric, unit in GROWTH:
        small = [v for v in (traced_median(w, metric) for w in ("query_read", "writeback_rw")) if v]
        row = {"metric": metric, "unit": unit,
               "at_1000_days": statistics.median(small) if small else None,
               "at_10000_days": traced_median("cli_chain", metric) or None}
        if row["at_1000_days"] and row["at_10000_days"]:
            row["ratio"] = row["at_10000_days"] / row["at_1000_days"]
            row["superlinear"] = row["ratio"] > SUPERLINEAR
        report.append(row)
    return report


def run_all(seed: int, seconds: float) -> int:
    import workloads

    names = list(workloads.WORKLOADS)
    test = self_test(seed)
    print_self_test(test)
    runs = []
    for r in range(ROUNDS):
        # alternate the order so a slow period of the machine does not
        # always land on the same workload
        for name in (names if r % 2 == 0 else names[::-1]):
            for trace in (0, 1):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                result = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
                result["round"] = r
                runs.append(result)
                print_result(result)
    def traced_median(name, metric):
        return statistics.median(r["metrics"][metric]["value"] for r in runs
                                 if r["workload"] == name and r["trace"])

    overhead = {name: traced_median(name, "trace.overhead_pct") for name in names}
    report = growth(traced_median)
    for row in report:
        small, large = row["at_1000_days"], row["at_10000_days"]
        if small and large:
            verdict = f"x{row['ratio']:.2f}" + (" SUPERLINEAR" if row["superlinear"] else "")
        else:
            verdict = "not measured at both sizes"
        print(f"growth        {row['metric']:36s} 1k {small or 0:10.3f}  10k {large or 0:10.3f} "
              f"{row['unit']}  {verdict}")
    bench = {
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "environment": environment(),
        "self_test": test,
        "tracing_overhead_pct": overhead,
        "growth": report,
        "runs": runs,
    }
    path = OUT / f"BENCH_seed{seed}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    failed = sum(r["failed"] for r in runs)
    return 0 if test["passed"] and failed == 0 else 1


def main() -> int:
    kgmarkov = load_kgmarkov()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=kgmarkov.datagen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.self_test:
        test = self_test(args.seed)
        print_self_test(test)
        print(json.dumps(test))
        return 0 if test["passed"] else 1
    if args.workload is None:
        parser.error("one of --workload, --all or --self-test is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
