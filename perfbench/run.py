"""snfourier benchmark: `run` and `sample` latency, set-up and memory.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload infer-n7 --seed 1 --seconds 20 --trace 0

The plans come from the workload seed; the CLI sees only the plan files.
Every operation is `snfourier.cli.main(argv)` in a fresh worker process (a
closed loop with one client), and its output is checked against a
direct-space reference. `--trace 0` reports the end-to-end metrics; `--trace 1`
runs one traced worker and reports per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh workers that only measure set-up; the loop worker adds one more.
SETUP_WORKERS = 6
# Every run must end well inside the three minutes a run is allowed.
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _spawn(job: dict, tag: str, run_dir: Path, deadline: float) -> dict:
    job = dict(job, result=str(run_dir / f"result-{tag}.json"))
    job_path = run_dir / f"job-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {tag} ran past the run's time budget") from None
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.is_file():
        raise WorkerError(f"worker {tag} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _prepare(workload, seed: int, run_dir: Path) -> list[dict]:
    """Write the plan pool and its references; return the workers' plan list."""
    import oracle
    from workloads import make_pool, plan_text

    plans = []
    for index, plan in enumerate(make_pool(workload.name, seed)):
        plan_path = run_dir / f"plan{index}.json"
        plan_path.write_text(plan_text(plan), encoding="utf-8")
        expected_path = run_dir / f"expected{index}.npz"
        oracle.expected_for(plan).save(expected_path)
        out = run_dir / f"out{index}"
        plans.append({"index": index, "plan": plan, "out": str(out),
                      "expected": str(expected_path),
                      "argv": workload.argv(str(plan_path), str(out))})
    return plans


def _tail_percentile(count: int) -> float:
    """90, or the highest percentile with at least ten samples beyond it."""
    return 90.0 if count >= 100 else max(0.0, 100.0 * (1.0 - 10.0 / count))


def _measure(job, run_dir, deadline):
    results = [_spawn(dict(job, mode="setup"), f"setup{k}", run_dir, deadline)
               for k in range(SETUP_WORKERS)]
    loop = _spawn(dict(job, mode="loop"), "loop", run_dir, deadline)
    results.append(loop)
    # Failed operations count in error_rate, not in latency; only when none
    # succeeded are their times reported, so the result line stays complete.
    latencies = loop["latencies_ms"] or loop["failed_ms"]
    import numpy as np

    tail = _tail_percentile(len(latencies))
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "op_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(latencies, tail)), "ms"),
        "ops_per_s": (len(loop["latencies_ms"]) / loop["busy_s"], "1/s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(results)} fresh workers",
        "op_p50_ms": f"{len(latencies)} warm operations"
                     + ("" if loop["latencies_ms"] else ", all failed"),
        "op_p90_ms": f"p{tail:.4g} of {len(latencies)} warm operations",
    }
    # A worker whose first samples.csv differs from the first worker's has
    # failed that operation: the plan and seed were the same.
    digests = [r.get("first_samples_sha256") for r in results]
    reference = next((d for d in digests if d), None)
    for r, digest in zip(results, digests):
        if digest and digest != reference:
            r["failed"] += 1
            r["errors"].append("plan 0: samples.csv differs between worker processes")
    return results, metrics, notes, []


def _expected_counts(plan: dict, command: str) -> dict:
    """Layer call counts one operation must show, read from its plan."""
    diffusion = [s for s in plan["steps"] if s["type"] == "diffusion"]
    return {
        "transform.forward_calls": len(diffusion) + (command == "run"),
        "diffusion.walk_steps": sum(s["d"] for s in diffusion),
        "conditioning.update_calls": len(plan["steps"]) - len(diffusion),
    }


def _trace(job, run_dir, deadline, workload, plans):
    import spans

    trace_path = WORK / f"trace-{workload.name}.jsonl"
    result = _spawn(dict(job, mode="trace", trace=str(trace_path)), "trace",
                    run_dir, deadline)
    by_op: dict = {}
    for span in spans.load_spans(trace_path):
        by_op.setdefault(span["op"], []).append(span)
    fact = math.factorial(plans[0]["plan"]["n"])
    setup_spans = by_op.pop(0)
    setup = spans.op_figures(setup_spans, fact)
    warm, errors = [], []
    for op_id, op_spans in sorted(by_op.items()):
        figures = spans.op_figures(op_spans, fact)
        warm.append(figures)
        root = next(s for s in op_spans if s["name"] == "cli.command")
        for name, want in _expected_counts(plans[root["plan"]]["plan"],
                                           workload.command).items():
            if figures[name] != want:
                errors.append(f"op {op_id}: traced {name} {figures[name]} != {want} "
                              "from the plan")
    if not warm:
        raise WorkerError("the traced loop completed no operation")
    layers = spans.layer_metrics(setup, warm)
    traced, untraced = result["latencies_ms"], result["untraced_ms"]
    layers["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)
                                   if traced and untraced else 0.0)
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}

    warm_spans = [s for ops in by_op.values() for s in ops]
    run_plan_ids = {s["id"] for s in warm_spans if s["name"] == "pipeline.run_plan"}

    def total(keep):
        return sum(s["end"] - s["start"] for s in warm_spans if keep(s))

    in_run_plan = total(lambda s: s["name"].startswith("transform.")
                        and s["parent"] in run_plan_ids)
    run_plan = total(lambda s: s["id"] in run_plan_ids)
    update = total(lambda s: s["name"] == "conditioning.update")
    command = total(lambda s: s["name"] == "cli.command")
    dense = sum(1 for s in warm_spans + setup_spans
                if s["name"].split(".")[0] in ("transform", "yor", "diffusion"))
    notes = {
        "purpose": (f"transform covers {in_run_plan / run_plan:.1%} of run_plan; "
                    f"conditioning.update covers {update / command:.1%} of the "
                    f"operation; {dense} transform/yor/diffusion spans "
                    f"(set-up operation: {setup['yor.stack_build_s']:.3f} s of "
                    "stack builds)"),
        "trace.overhead_ms": (f"traced p50 over {len(result['latencies_ms'])} ops "
                              f"minus untraced p50 over {len(result['untraced_ms'])}"),
    }
    return [result], metrics, notes, errors


_UNITS = {"_s": "s", "_bytes": "bytes", "_calls": "count", "_steps": "count",
          "_mean": "prob", "_ms": "ms", ".swaps": "count", ".draws": "count",
          ".bytes_read": "bytes", ".bytes_written": "bytes"}


def _unit(name: str) -> str:
    return next(unit for suffix, unit in _UNITS.items() if name.endswith(suffix))


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "snfourier").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(args, worker: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": worker["backend"],
        "numba_imports": worker["numba"],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": args.seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "snfourier" / "cli.py").is_file():
        print(f"error: no snfourier sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import snfourier
    if Path(snfourier.__file__).resolve().parent != SRC / "snfourier":
        print(f"error: imported snfourier from {snfourier.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        plans = _prepare(workload, args.seed, run_dir)
        job = {"src": str(SRC), "command": workload.command, "count": workload.draws,
               "seconds": args.seconds, "plans": plans}
        if args.trace:
            results, metrics, notes, errors = _trace(job, run_dir, deadline,
                                                     workload, plans)
        else:
            results, metrics, notes, errors = _measure(job, run_dir, deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]] + errors
    mode = "traced per-layer run" if args.trace else "closed loop, one client"
    print(f"workload {workload.name}: snfourier {workload.command}, seed {args.seed}, "
          f"{args.seconds:g} s, {mode} -- {workload.why}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:34s} {value:14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} {'':6s}  "
          f"({failed} of {attempted} operations failed)")
    if "purpose" in notes:
        print(f"  purpose: {notes['purpose']}")
    for error in errors[:10]:
        print(f"  FAILED {error}")
    print("env " + json.dumps(_environment(args, results[-1]), sort_keys=True))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
