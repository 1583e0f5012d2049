"""Self-tests of the benchmark: generator, reference checks, tracing, memory cap.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from snfourier import cli  # noqa: E402


def _small_plan(seed: int, diffuse: bool = True) -> dict:
    """A degree-5 plan; d varies so walk_steps is checked. Without diffusion
    the posterior keeps the prior's support, so most permutations have none."""
    rng = random.Random(seed)
    n = 5
    steps = [
        {"type": "diffusion", "p": 0.7, "d": 3},
        workloads._ranking(rng, n, 0.8),
        {"type": "diffusion", "p": 0.6, "d": 5},
        workloads._assignment(rng, n, 0.75),
    ]
    if not diffuse:
        steps = [s for s in steps if s["type"] != "diffusion"]
    return workloads._plan(rng, n, 12, steps, 3)


def _cli(tmp_path: Path, plan: dict, command: str = "run", tracer=None):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(workloads.plan_text(plan), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--plan", str(plan_path), "--out", str(out)]
    if command == "sample":
        argv += ["--count", "300", "--mode", "computational"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.run_op(1, cli.main, argv) if tracer else cli.main(argv)
    assert code == 0
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seed_dependent(name):
    texts = [workloads.plan_text(p) for p in workloads.make_pool(name, 7)]
    again = [workloads.plan_text(p) for p in workloads.make_pool(name, 7)]
    other = [workloads.plan_text(p) for p in workloads.make_pool(name, 8)]
    assert texts == again
    assert texts != other
    assert len(set(texts)) == len(texts)


def test_reference_accepts_run_output_and_rejects_a_perturbed_posterior(tmp_path):
    plan = _small_plan(1)
    expected = oracle.expected_for(plan)
    out = _cli(tmp_path, plan)
    one_lines = oracle.lex_one_lines(plan["n"])
    assert oracle.check_run(out, expected, one_lines) == []

    path = out / "posterior.csv"
    rows = path.read_text(encoding="utf-8").splitlines()
    head, _, value = rows[5].rpartition(",")
    rows[5] = f"{head},{float(value) + 1e-8!r}"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert any("posterior.csv" in e for e in oracle.check_run(out, expected, one_lines))


def test_reference_rejects_a_short_ledger(tmp_path):
    plan = _small_plan(2)
    out = _cli(tmp_path, plan)
    ledger = out / "ledger.jsonl"
    ledger.write_text("".join(ledger.read_text().splitlines(True)[1:]))
    errors = oracle.check_run(out, oracle.expected_for(plan),
                              oracle.lex_one_lines(plan["n"]))
    assert any("ledger" in e for e in errors)


def test_reference_rejects_a_draw_without_posterior_mass(tmp_path):
    plan = _small_plan(3, diffuse=False)
    expected = oracle.expected_for(plan)
    out = _cli(tmp_path, plan, "sample")
    assert oracle.check_sample(out, expected, 300) == []

    empty_rank = int((expected.posterior == 0).nonzero()[0][0])
    line = " ".join(map(str, oracle.lex_one_lines(plan["n"])[empty_rank]))
    rows = (out / "samples.csv").read_text().splitlines()
    rows[1] = f"0,{line}"
    (out / "samples.csv").write_text("\n".join(rows) + "\n")
    assert oracle.check_sample(out, expected, 300) != []


def test_traced_counts_equal_ledger_counts(tmp_path):
    plan = _small_plan(4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = _cli(tmp_path, plan, tracer=tracer)
    finally:
        tracer.uninstall()
    figures = spans.op_figures(tracer.spans, 120)
    ledger = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
    diffusion = [e for e in ledger if e["type"] == "diffusion"]
    conditioning = [e for e in ledger if e["type"] == "conditioning"]

    assert figures["transform.forward_calls"] == len(diffusion) + 1
    assert figures["transform.inverse_calls"] == len(diffusion)
    assert figures["conditioning.update_calls"] == len(conditioning)
    assert figures["diffusion.walk_steps"] == sum(e["d"] for e in diffusion) == 8
    assert figures["conditioning.swaps"] == sum(e["swaps"] for e in conditioning)
    assert figures["diffusion.success_probs"] == pytest.approx(
        [e["success_prob"] for e in diffusion], rel=1e-12)
    assert figures["conditioning.success_probs"] == pytest.approx(
        [e["success_prob"] for e in conditioning], rel=1e-12)
    assert all(figures[k] == v for k, v in run._expected_counts(plan, "run").items())


def test_uninstall_restores_every_patched_name():
    before = {(m, a): getattr(spans._owner(m), a) for m, a, *_ in spans.LAYER_SITES}
    tracer = spans.Tracer()
    tracer.install()
    assert any(getattr(spans._owner(m), a) is not f for (m, a), f in before.items())
    tracer.uninstall()
    assert all(getattr(spans._owner(m), a) is f for (m, a), f in before.items())


def test_address_space_cap_turns_the_dense_n8_stacks_into_a_memory_error():
    # the n = 8 irrep stacks hold sum_lam 8! d_lam^2 = (8!)^2 doubles, 13 GB
    script = (
        "import resource, sys, numpy as np\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({worker.ADDRESS_SPACE_CAP},) * 2)\n"
        "try:\n"
        "    np.zeros(40320 * 40320)\n"
        "except MemoryError:\n"
        "    sys.exit(0)\n"
        "sys.exit(5)\n"
    )
    assert subprocess.run([sys.executable, "-c", script], timeout=60).returncode == 0
