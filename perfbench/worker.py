"""One benchmark worker: a fresh process that runs `snfourier.cli.main`.

Usage: python3 worker.py JOB.json   (the job file is written by run.py)

The worker caps its own address space, then times from before
`import snfourier` to the end of its first operation (the set-up a CLI user
pays on every invocation). In "loop" mode it then runs a closed loop with one
client for the job's seconds; in "trace" mode it alternates traced and
untraced operations for those seconds. Every operation's output is checked against the
reference outside the timed region. The result goes to the job's result file.
"""

import contextlib
import io
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

# Far above the 226 MB peak of the largest workload, far below the 13 GB a
# dense n = 8 structure needs: such an allocation fails as a MemoryError,
# which counts as a failed operation, instead of exhausting the machine.
ADDRESS_SPACE_CAP = 2 << 30


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, job["src"])

    start = time.perf_counter()
    from snfourier import cli
    tracer = None
    if job["mode"] == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    plans = job["plans"]
    first = _run_op(cli, tracer, 0, plans[0])
    setup_s = time.perf_counter() - start

    import oracle
    checker = _Checker(oracle, job["command"], job["count"], plans[0]["plan"]["n"])
    first_error = checker.check(0, plans[0], first)
    errors = [first_error] if first_error else []
    result = {"setup_s": setup_s, "attempted": 1, "failed": int(bool(first_error))}
    if checker.sample_digests:
        result["first_samples_sha256"] = checker.sample_digests[0]

    if job["mode"] != "setup":
        # In trace mode, traced and untraced operations alternate, so drift
        # over the run cannot masquerade as tracing overhead; the parity flips
        # on each pass over the pool, so every plan is run both ways.
        if tracer is not None:
            tracer.uninstall()
        timed = {"latencies_ms": [], "untraced_ms": [], "failed_ms": []}
        busy, op_id = 0.0, 1
        deadline = time.perf_counter() + job["seconds"]
        while time.perf_counter() < deadline:
            index = op_id % len(plans)
            traced = tracer is not None and (op_id + op_id // len(plans)) % 2 == 1
            if traced:
                tracer.install()
            outcome = _run_op(cli, tracer if traced else None, op_id, plans[index])
            if traced:
                tracer.uninstall()
            busy += outcome["seconds"]
            error = checker.check(index, plans[index], outcome)
            result["attempted"] += 1
            if error:
                result["failed"] += 1
                errors.append(error)
                timed["failed_ms"].append(outcome["seconds"] * 1e3)
            elif tracer is None or traced:
                timed["latencies_ms"].append(outcome["seconds"] * 1e3)
            else:
                timed["untraced_ms"].append(outcome["seconds"] * 1e3)
            op_id += 1
        result.update(timed, busy_s=busy)
        if tracer is not None:
            tracer.write(Path(job["trace"]))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["errors"] = errors[:5]
    from snfourier import _backend
    result["backend"] = _backend.ACTIVE_BACKEND
    result["numba"] = _backend.HAS_NUMBA
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


def _run_op(cli, tracer, op_id: int, plan: dict) -> dict:
    """One timed `cli.main` call; the output files are removed first."""
    out = Path(plan["out"])
    if out.is_dir():
        for stale in out.iterdir():
            stale.unlink()
    argv = plan["argv"]
    sink = io.StringIO()
    code, crash = None, None
    begin = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_op(op_id, cli.main, argv, plan=plan["index"])
    except (Exception, SystemExit) as err:  # any escape is a failed operation
        crash = f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - begin
    return {"code": code, "crash": crash, "seconds": seconds,
            "stderr": sink.getvalue()[-300:]}


class _Checker:
    """Output checks of one operation; returns an error line or None.

    References are loaded per check, so they add nothing to the peak RSS the
    benchmark reports beyond one plan's arrays.
    """

    def __init__(self, oracle, command, count, n):
        self.oracle = oracle
        self.command = command
        self.count = count
        self.one_lines = oracle.lex_one_lines(n) if command == "run" else None
        self.sample_digests = {}

    def check(self, index, plan, outcome):
        if outcome["crash"]:
            return f"plan {index}: raised {outcome['crash']}"
        if outcome["code"] != 0:
            return f"plan {index}: exit {outcome['code']}: {outcome['stderr'].strip()}"
        out = Path(plan["out"])
        try:
            expected = self.oracle.Expected.load(Path(plan["expected"]))
            if self.command == "run":
                problems = self.oracle.check_run(out, expected, self.one_lines)
            else:
                problems = self.oracle.check_sample(out, expected, self.count)
                digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
                if self.sample_digests.setdefault(index, digest) != digest:
                    problems.append("samples.csv differs from an earlier run "
                                    "of the same plan and seed")
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems = [f"unreadable output: {type(err).__name__}: {err}"]
        return f"plan {index}: {'; '.join(problems)}" if problems else None


if __name__ == "__main__":
    main(sys.argv[1])
