"""Command-line behavior: artifacts, exit codes, reproducibility."""

import hashlib
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import snfourier
from snfourier import cli
from snfourier.cli import main
from snfourier.partitions import irrep_dimension
from snfourier.pipeline import ModelState, run_plan
from snfourier.serialize import plan_from_json
from snfourier.transform import gft_forward

PLAN_N3 = """
{
  "n": 3,
  "encoding": "amplitude",
  "seed": 11,
  "steps": [
    {"type": "diffusion", "p": 0.5, "d": 1},
    {"type": "conditioning",
     "observation": {"kind": "assignment", "indices": [1], "values": [1], "s": 1.0}}
  ]
}
"""


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_four_files(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(PLAN_N3)
    out = tmp_path / "out"
    assert run_cli("run", "--plan", str(plan), "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["ledger.jsonl", "posterior.csv", "report.json", "spectrum.json"]

    posterior_lines = (out / "posterior.csv").read_text().strip().split("\n")
    assert posterior_lines[0] == "rank,one_line,probability"
    assert posterior_lines[1].startswith("0,1 2 3,0.75")

    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 3
    assert 0 < report["p_total"] <= 1
    assert len((out / "ledger.jsonl").read_text().strip().split("\n")) == 2


def test_run_is_byte_reproducible(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(PLAN_N3)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli("run", "--plan", str(plan), "--out", str(out)) == 0
        outs.append(out)
    for name in ("posterior.csv", "spectrum.json", "ledger.jsonl", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 1.23 GiB for an array with shape (40320, 64, 64)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "gft_forward", exhausted)
    plan = tmp_path / "plan.json"
    plan.write_text(PLAN_N3)
    out = tmp_path / "out"
    assert run_cli("run", "--plan", str(plan), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {message}\n"
    # posterior.csv is built before the spectrum fails, but never written
    assert list(out.glob("*")) == []


def test_run_parse_error_names_field(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"n": 3, "steps": [{"type": "diffusion"}]}')
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "steps[0].p" in err


def test_run_rejects_out_of_domain_likelihood(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"n": 3, "steps": [{"type": "conditioning", "observation":'
        ' {"kind": "ranking", "items": [1, 2], "s": 0.3}}]}'
    )
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "o")) == 2
    assert "observation.s" in capsys.readouterr().err


def test_run_malformed_json(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{this is not json")
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "o")) == 2
    assert "document" in capsys.readouterr().err


def test_run_missing_plan_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("run", "--plan", str(missing), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_guard_violation(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"n": 5}')
    code = run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "o"),
                   "--n-guard", "4")
    assert code == 3
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sample", "spectrum", "verify"])
@pytest.mark.parametrize("guard", ["0", "-1"])
def test_guard_below_1_is_a_bad_option_value(tmp_path, capsys, command, guard):
    (tmp_path / "plan.json").write_text(PLAN_N3)
    (tmp_path / "h.csv").write_text(oracles.function_csv_rows(np.full(6, 6 ** -0.5)))
    out = ["--out", str(tmp_path / "o")]
    argv = {"run": ["--plan", str(tmp_path / "plan.json"), *out],
            "sample": ["--plan", str(tmp_path / "plan.json"), *out],
            "spectrum": ["--input", str(tmp_path / "h.csv"), *out],
            "verify": ["--n-max", "3"]}[command]
    assert run_cli(command, *argv, "--n-guard", guard) == 2
    assert capsys.readouterr().err == f"error: degree guard must be >= 1, got {guard}\n"
    assert not (tmp_path / "o").exists()


def test_spectrum_and_sample_guard_violations_exit_3(tmp_path, capsys):
    (tmp_path / "plan.json").write_text(PLAN_N3)
    (tmp_path / "h.csv").write_text(oracles.function_csv_rows(np.full(6, 6 ** -0.5)))
    out = ["--out", str(tmp_path / "o"), "--n-guard", "2"]
    assert run_cli("spectrum", "--input", str(tmp_path / "h.csv"), *out) == 3
    assert run_cli("sample", "--plan", str(tmp_path / "plan.json"), *out) == 3
    assert capsys.readouterr().err == "error: n=3 exceeds dense-storage guard 2\n" * 2
    assert not (tmp_path / "o").exists()


def test_run_degree_beyond_default_guard(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"n": 12}')
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "o")) == 3


def test_run_annihilated_state(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "n": 3,
        "steps": [
            {"type": "conditioning",
             "observation": {"kind": "assignment", "indices": [1], "values": [1]}},
            {"type": "conditioning",
             "observation": {"kind": "assignment", "indices": [1], "values": [2]}},
        ],
    }))
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err.startswith("error:")


def test_run_annihilated_by_sharpening_exits_4(tmp_path, capsys):
    # every amplitude left by the walk is below 1, so its 1000th power, and
    # the sharpened norm, falls under ANNIHILATION_TOL
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "n": 4, "sharpening": 1000, "steps": [{"type": "diffusion", "p": 0.6, "d": 3}]}))
    out = tmp_path / "o"
    assert run_cli("run", "--plan", str(plan), "--out", str(out)) == 4
    assert capsys.readouterr().err == "error: sharpening left no surviving amplitude\n"
    assert not out.exists()


def test_run_annihilated_by_sharpening_on_the_support_exits_4(tmp_path, capsys):
    # no diffusion, so the 1000th powers are taken on the prior's four ranks;
    # after the soft ranking each amplitude is at most 3**-0.5, and the
    # squared norm of the powers underflows to 0
    dataset = [{"one_line": line, "count": 1}
               for line in ([1, 2, 3, 4], [2, 1, 3, 4], [1, 3, 2, 4], [4, 3, 2, 1])]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "n": 4, "encoding": "born", "sharpening": 1000,
        "initial": {"kind": "empirical", "dataset": dataset},
        "steps": [{"type": "conditioning", "observation": {
            "kind": "ranking", "items": [4, 1], "s": 0.6}}]}))
    out = tmp_path / "o"
    assert run_cli("run", "--plan", str(plan), "--out", str(out)) == 4
    assert capsys.readouterr().err == "error: sharpening left no surviving amplitude\n"
    assert not out.exists()


def _long_hard_plan(rounds):
    steps = []
    for i in range(rounds):
        steps += [{"type": "diffusion", "p": 0.6, "d": 1},
                  {"type": "conditioning", "observation": {
                      "kind": "assignment", "indices": [1], "values": [1 + i % 3]}}]
    return {"n": 3, "encoding": "born", "initial": "identity", "steps": steps}


@pytest.mark.parametrize("rounds, p_total_is_zero", [(180, False), (190, True)])
def test_plan_whose_success_product_underflows_exits_0(tmp_path, rounds,
                                                       p_total_is_zero):
    # at 180 rounds p_total is subnormal, so 1/p_total overflows; at 190 it is 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_long_hard_plan(rounds)))
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "run")) == 0
    assert run_cli("sample", "--plan", str(plan), "--out", str(tmp_path / "draws"),
                   "--count", "10") == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert (report["p_total"] == 0) == p_total_is_zero
    suffix = "; the positive product underflows double precision"
    suffix += " to 0" if p_total_is_zero else ""
    grover, fixed = report["amplification"].values()
    for cost in (grover, fixed):
        assert list(cost) == ["mode", "units", "expected_repeats", "note"]
        assert cost["expected_repeats"] is None
        assert (cost["units"] is None) == p_total_is_zero
    assert grover["note"].endswith(suffix)
    # fixed-point units stay finite unless p_total itself is 0
    assert fixed["note"].endswith(suffix) == p_total_is_zero


@pytest.mark.parametrize("plan", [
    {"n": 2, "steps": [{"type": "diffusion", "p": 0}]},
    {"n": 4, "steps": [{"type": "diffusion", "p": 1}]},
    {"n": 5, "encoding": "amplitude", "amplitude_empirical_ok": True,
     "initial": {"kind": "empirical", "dataset": [
         {"one_line": [1, 3, 4, 5, 2], "count": 4}, {"one_line": [1, 2, 4, 3, 5], "count": 3}]},
     "steps": [{"type": "conditioning", "observation": {
         "kind": "assignment", "indices": [1], "values": [1], "s": 1}}]},
], ids=["n=2,p=0", "n=4,p=1", "n=5,prior-consistent"])
def test_plan_whose_success_product_rounds_above_1_exits_0(tmp_path, plan):
    # each step keeps the whole norm, and its rounded sum of squares reads
    # 1 + 2**-52; the ledger and p_total print it as 1
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert run_cli("run", "--plan", str(tmp_path / "plan.json"),
                   "--out", str(tmp_path / "run")) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["p_total"] == 1.0
    ledger = (tmp_path / "run" / "ledger.jsonl").read_text().splitlines()
    assert [json.loads(line)["success_prob"] for line in ledger] == [1.0]
    grover, fixed = report["amplification"].values()
    assert (grover["units"], grover["expected_repeats"], fixed["units"]) == (1, 1, 8)


def _steps(d):
    return [{"type": "diffusion", "p": "1/3", "d": d}]


def _huge_count(count):
    return {"kind": "empirical", "dataset": [{"one_line": [1, 2, 3], "count": count}]}


def _address_space_cap(limit):
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_module(cwd, limit, *argv):
    """snfourier in a child process whose address space is capped at limit bytes,
    where a RuntimeWarning is an error, as in this suite."""
    src = str(Path(snfourier.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "snfourier.cli", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30, preexec_fn=_address_space_cap(limit),
    )


@pytest.mark.parametrize("plan", [
    {"n": 3, "steps": _steps(10**8)},
    {"n": 3, "steps": _steps(2**64 + 1)},
    {"n": 3, "steps": _steps(10**400)},
    {"n": 3, "encoding": "born", "initial": _huge_count(10**400)},
    {"n": 3, "sharpening": 10**400},
], ids=["d=10**8", "d=2**64+1", "d=10**400", "count=10**400", "sharpening=10**400"])
def test_run_with_huge_plan_integers_exits_cleanly(tmp_path, plan):
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    done = _run_module(tmp_path, 2 << 30, "run", "--plan", "plan.json", "--out", "out")
    assert done.returncode in (0, 2)
    assert len(done.stderr.splitlines()) == (done.returncode != 0)
    assert "Traceback" not in done.stderr


PLAN_N8 = {"n": 8, "seed": 8, "steps": [
    step for items in ([2, 5], [7, 1, 4], [3, 8]) for step in (
        {"type": "diffusion", "p": 0.7, "d": 2},
        {"type": "conditioning",
         "observation": {"kind": "ranking", "items": items, "s": 0.8}})]}


def _spectrum_energy(text):
    """Sum of the squared entries of every block of a spectrum.json text."""
    return sum(float(np.sum(np.square(rows))) for rows in json.loads(text)["blocks"].values())


def test_fourier_commands_run_at_n8_within_1_gib(tmp_path):
    (tmp_path / "plan.json").write_text(json.dumps(PLAN_N8))
    rng = np.random.default_rng(8)
    h = rng.standard_normal(math.factorial(8))
    (tmp_path / "h.csv").write_text(oracles.function_csv_rows(h / np.linalg.norm(h)))
    commands = {
        "run": (["--plan", "plan.json"],
                ["ledger.jsonl", "posterior.csv", "report.json", "spectrum.json"]),
        "spectrum": (["--input", "h.csv"], ["energies.json", "spectrum.json"]),
        "sample": (["--plan", "plan.json", "--mode", "fourier", "--count", "100"],
                   ["distribution.json", "samples.csv"]),
    }
    for command, (args, files) in commands.items():
        done = _run_module(tmp_path, 1 << 30, command, *args, "--out", command)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert sorted(p.name for p in (tmp_path / command).iterdir()) == files
        if "spectrum.json" in files:
            text = (tmp_path / command / "spectrum.json").read_text()
            assert _spectrum_energy(text) == pytest.approx(1.0, abs=1e-12)


def test_run_at_n9_within_1_gib(tmp_path):
    (tmp_path / "plan.json").write_text(json.dumps({**PLAN_N8, "n": 9, "seed": 9}))
    done = _run_module(tmp_path, 1 << 30, "run", "--plan", "plan.json", "--out", "out")
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "out" / "posterior.csv") as fh:
        assert sum(1 for _ in fh) == math.factorial(9) + 1
    text = (tmp_path / "out" / "spectrum.json").read_text()
    assert _spectrum_energy(text) == pytest.approx(1.0, abs=1e-12)


def test_sample_at_n9_within_1_gib(tmp_path):
    (tmp_path / "plan.json").write_text(json.dumps({**PLAN_N8, "n": 9, "seed": 9}))
    done = _run_module(tmp_path, 1 << 30, "sample", "--plan", "plan.json", "--out", "out",
                       "--count", "2000", "--mode", "computational")
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0] == "draw,one_line" and len(lines) == 2001
    assert all(sorted(line.split(",")[1].split()) == list("123456789")
               for line in lines[1:])


def test_conditioned_sample_at_n9_within_1_gib_draws_from_the_prior(tmp_path):
    prior = [list(line) for line in itertools.islice(
        itertools.permutations(range(1, 10)), 0, None, 7001)]
    plan = {**PLAN_N8_CONDITIONED, "n": 9, "initial": {"kind": "empirical", "dataset": [
        {"one_line": line, "count": 1 + i % 4} for i, line in enumerate(prior)]}}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    done = _run_module(tmp_path, 1 << 30, "sample", "--plan", "plan.json", "--out", "out",
                       "--count", "2000", "--mode", "computational")
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0] == "draw,one_line" and len(lines) == 2001
    assert {line.split(",")[1] for line in lines[1:]} <= {
        " ".join(map(str, line)) for line in prior}


def test_verify_passes(capsys):
    assert run_cli("verify", "--n-max", "3") == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    assert "FAIL" not in out


def test_verify_negative_seed_names_the_option(capsys):
    assert run_cli("verify", "--n-max", "3", "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed: ")
    assert len(err.splitlines()) == 1


def test_verify_beyond_guard(capsys):
    assert run_cli("verify", "--n-max", "12") == 3
    assert run_cli("verify", "--n-max", "5", "--n-guard", "4") == 3


def test_spectrum_delta_energies(tmp_path):
    csv_path = tmp_path / "delta.csv"
    delta = np.zeros(6)
    delta[0] = 1.0
    csv_path.write_text(oracles.function_csv_rows(delta))
    out = tmp_path / "out"
    assert run_cli("spectrum", "--input", str(csv_path), "--out", str(out)) == 0
    energies = json.loads((out / "energies.json").read_text())
    assert set(energies) == {"[3]", "[2,1]", "[1,1,1]"}
    assert energies["[3]"] == pytest.approx(1 / 6, abs=1e-12)
    assert energies["[2,1]"] == pytest.approx(4 / 6, abs=1e-12)
    assert energies["[1,1,1]"] == pytest.approx(1 / 6, abs=1e-12)
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["normalization"] == "unitary"


def test_spectrum_transforms_once_when_unitary(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gft_forward(*args, **kwargs)

    monkeypatch.setattr(cli, "gft_forward", counted)
    csv_path = tmp_path / "h.csv"
    csv_path.write_text(oracles.function_csv_rows(np.random.default_rng(5).standard_normal(24)))
    energies = {}
    for normalization, expected_calls in (("unitary", 1), ("plain", 2)):
        calls.clear()
        out = tmp_path / normalization
        assert run_cli("spectrum", "--input", str(csv_path), "--out", str(out),
                       "--normalization", normalization) == 0
        assert len(calls) == expected_calls
        energies[normalization] = (out / "energies.json").read_bytes()
    assert energies["unitary"] == energies["plain"]


def test_spectrum_uniform_concentrates(tmp_path):
    csv_path = tmp_path / "uniform.csv"
    csv_path.write_text(oracles.function_csv_rows(np.full(24, 1 / 24)))
    out = tmp_path / "out"
    assert run_cli("spectrum", "--input", str(csv_path), "--out", str(out)) == 0
    energies = json.loads((out / "energies.json").read_text())
    assert energies["[4]"] == pytest.approx(1.0, abs=1e-12)
    assert all(
        abs(v) < 1e-12 for key, v in energies.items() if key != "[4]"
    )


def test_spectrum_non_factorial_rows(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("rank,value\n" + "\n".join(f"{i},0.1" for i in range(7)) + "\n")
    assert run_cli("spectrum", "--input", str(csv_path), "--out", str(tmp_path / "o")) == 2
    assert "factorial" in capsys.readouterr().err


def test_spectrum_whose_transform_overflows_exits_2(tmp_path, capsys):
    # finite values whose sum leaves double range
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("rank,value\n0,1e308\n1,1e308\n")
    out = tmp_path / "out"
    assert run_cli("spectrum", "--input", str(csv_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: the transform overflowed double range\n"
    assert not out.exists()


@pytest.mark.parametrize("exponent", ["e-200", "e200"])
def test_spectrum_energies_survive_squares_out_of_double_range(tmp_path, exponent):
    # the squares of these values underflow to 0 or overflow to inf
    energies = {}
    for tag in ("", exponent):
        csv_path = tmp_path / f"h{tag}.csv"
        csv_path.write_text("rank,value\n" + "".join(
            f"{rank},{value}{tag}\n" for rank, value in enumerate((1, 2, 3, 1, 1, 1))))
        out = tmp_path / f"out{tag}"
        assert run_cli("spectrum", "--input", str(csv_path), "--out", str(out)) == 0
        energies[tag] = json.loads((out / "energies.json").read_text())
    assert energies[exponent] == pytest.approx(energies[""], abs=1e-14)


def test_spectrum_csv_format(tmp_path):
    csv_path = tmp_path / "delta.csv"
    delta = np.zeros(6)
    delta[0] = 1.0
    csv_path.write_text(oracles.function_csv_rows(delta))
    out = tmp_path / "out"
    code = run_cli("spectrum", "--input", str(csv_path), "--out", str(out),
                   "--format", "csv")
    assert code == 0
    lines = (out / "energies.csv").read_text().strip().split("\n")
    assert lines[0] == "partition,probability"
    assert len(lines) == 4
    assert lines[1].startswith("3,")


def test_sample_computational_reproducible(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(PLAN_N3)
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_cli("sample", "--plan", str(plan), "--out", str(out),
                       "--count", "200")
        assert code == 0
        texts.append((out / "samples.csv").read_text())
    assert texts[0] == texts[1]
    lines = texts[0].strip().split("\n")
    assert lines[0] == "draw,one_line"
    assert len(lines) == 201
    # the posterior is supported on the two states keeping item 1 first
    assert {line.split(",")[1] for line in lines[1:]} <= {"1 2 3", "1 3 2"}

    out_c = tmp_path / "c"
    code = run_cli("sample", "--plan", str(plan), "--out", str(out_c),
                   "--count", "200", "--seed", "999")
    assert code == 0
    assert (out_c / "samples.csv").read_text() != texts[0]


def test_sample_computational_never_builds_the_posterior(tmp_path, monkeypatch):
    # the posterior is an n!-long normalized copy that only run writes out
    def posterior(self):
        raise AssertionError("sample built the posterior")

    monkeypatch.setattr(ModelState, "posterior", posterior)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**json.loads(PLAN_N3), "sharpening": 2}))
    assert run_cli("sample", "--plan", str(plan), "--out", str(tmp_path / "out"),
                   "--count", "20", "--mode", "computational") == 0


# conditioning and sharpening only, so no BLAS call can move a probability
PLAN_N8_CONDITIONED = {
    "n": 8, "encoding": "born", "seed": 2024,
    "initial": {"kind": "empirical", "dataset": [
        {"one_line": list(line), "count": 1 + i % 5} for i, line in
        enumerate(itertools.islice(itertools.permutations(range(1, 9)), 0, None, 1000))]},
    "steps": [{"type": "conditioning", "observation": obs} for obs in (
        {"kind": "assignment", "indices": [2, 5], "values": [6, 3], "s": 0.75},
        {"kind": "ranking", "items": [7, 1, 4], "s": 0.8},
        {"kind": "assignment", "indices": [8], "values": [5], "s": 0.9})],
    "sharpening": 2,
}


def test_sample_computational_bytes_are_pinned_at_n8(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(PLAN_N8_CONDITIONED))
    out = tmp_path / "out"
    assert run_cli("sample", "--plan", str(plan), "--out", str(out), "--count", "2000",
                   "--mode", "computational") == 0
    digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
    assert digest == "6eb28762784aab00d823e43e552c2149d67ddb11b780221401bdd088e219a34a"


# plan 0 of perfbench's infer-n7 pool for seed 1; its spectrum and posterior
# pass through the FFT's BLAS products, whose kernel OpenBLAS picks per CPU,
# so the pin holds for one numpy build on one CPU family
PLAN_N7_INFER = {
    "n": 7, "encoding": "born", "seed": 2588045644,
    "initial": {"kind": "empirical", "dataset": [
        {"one_line": list(line), "count": count} for line, count in (
            ((5, 1, 7, 3, 6, 4, 2), 2),
            ((6, 4, 2, 7, 3, 1, 5), 4),
            ((3, 1, 4, 7, 6, 2, 5), 2),
            ((3, 1, 2, 5, 6, 7, 4), 1),
            ((3, 6, 2, 5, 7, 4, 1), 4),
            ((1, 3, 7, 4, 6, 5, 2), 3),
            ((3, 6, 2, 4, 5, 1, 7), 2),
            ((5, 2, 3, 6, 4, 1, 7), 1),
            ((6, 1, 5, 4, 7, 2, 3), 1),
            ((3, 1, 4, 2, 6, 7, 5), 1),
            ((7, 5, 1, 2, 6, 4, 3), 1),
            ((3, 4, 5, 6, 7, 1, 2), 1),
            ((7, 2, 6, 5, 1, 3, 4), 5),
            ((6, 5, 4, 1, 7, 3, 2), 1),
            ((6, 1, 4, 5, 7, 2, 3), 1),
            ((3, 6, 5, 2, 7, 4, 1), 5),
            ((1, 7, 3, 2, 4, 5, 6), 2),
            ((4, 3, 1, 6, 7, 5, 2), 1),
            ((1, 6, 7, 5, 3, 2, 4), 4),
            ((4, 7, 5, 6, 2, 3, 1), 1),
            ((1, 2, 6, 3, 7, 4, 5), 4))]},
    "steps": [step for items in [[3, 1, 6, 2], [6, 3, 5], [6, 5, 7, 1, 2]] for step in (
        {"type": "diffusion", "p": 0.7, "d": 2},
        {"type": "conditioning",
         "observation": {"kind": "ranking", "items": items, "s": 0.8}})],
    "sharpening": 3,
}


def test_run_bytes_are_pinned_at_n7(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(PLAN_N7_INFER))
    out = tmp_path / "out"
    assert run_cli("run", "--plan", str(plan), "--out", str(out)) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("posterior.csv", "spectrum.json", "ledger.jsonl", "report.json")}
    assert digests == {
        "posterior.csv": "589e1a8f215f6c21c91ffe09b0b05c457e81a0a4a3565682c9e2a0519f285af1",
        "spectrum.json": "2da60f80299a32db324c120ca914cbf71322a20feb8800fcacd86db15883be85",
        "ledger.jsonl": "3bda6d9d6992f3a0526029d6ff7e483c548507f6ccf0f4d9fac43fb0f9b3b379",
        "report.json": "bb771721d0c6541c46d239a9452599c2f084350e82899c0d964dacedeb970e78",
    }


def test_main_carries_no_option_into_the_next_call(tmp_path):
    (tmp_path / "plan.json").write_text(PLAN_N4_BORN)
    assert run_cli("run", "--plan", str(tmp_path / "plan.json"), "--out",
                   str(tmp_path / "first"), "--seed", "5", "--n-guard", "8") == 0
    assert run_cli("run", "--plan", str(tmp_path / "plan.json"), "--out",
                   str(tmp_path / "second")) == 0
    # the second call made alone, in a fresh process
    done = _run_module(tmp_path, 2 << 30, "run", "--plan", "plan.json", "--out", "alone")
    assert done.returncode == 0, done.stderr
    for name in ("posterior.csv", "spectrum.json", "ledger.jsonl", "report.json"):
        assert (tmp_path / "second" / name).read_bytes() == \
            (tmp_path / "alone" / name).read_bytes()
    # report.json carries the seed, so the first call's override shows there
    assert (tmp_path / "first" / "report.json").read_bytes() != \
        (tmp_path / "alone" / "report.json").read_bytes()


def test_sample_fourier_distribution(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"n": 4}')
    out = tmp_path / "out"
    code = run_cli("sample", "--plan", str(plan), "--out", str(out),
                   "--mode", "fourier", "--count", "50")
    assert code == 0
    doc = json.loads((out / "distribution.json").read_text())
    for key, prob in doc.items():
        parts = tuple(json.loads(key))
        from snfourier.partitions import Partition

        expected = irrep_dimension(Partition(parts)) ** 2 / math.factorial(4)
        assert prob == pytest.approx(expected, abs=1e-12)
    lines = (out / "samples.csv").read_text().strip().split("\n")
    assert lines[0] == "draw,partition"
    assert len(lines) == 51


PLAN_N4_BORN = json.dumps({
    "n": 4, "encoding": "born", "seed": 3,
    "initial": {"kind": "empirical", "dataset": [
        {"one_line": [2, 1, 3, 4], "count": 2}, {"one_line": [4, 3, 1, 2], "count": 1}]},
    "steps": [{"type": "diffusion", "p": 0.6, "d": 2},
              {"type": "conditioning",
               "observation": {"kind": "ranking", "items": [2, 3], "s": 0.8}}],
    "sharpening": 2,
})


@pytest.mark.parametrize("plan_text", [PLAN_N3, PLAN_N4_BORN], ids=["n3", "n4-born"])
@pytest.mark.parametrize("normalization", ["unitary", "plain"])
def test_fourier_sampling_and_spectrum_share_one_distribution(
        tmp_path, plan_text, normalization):
    plan = tmp_path / "plan.json"
    plan.write_text(plan_text)
    assert run_cli("sample", "--plan", str(plan), "--out", str(tmp_path / "s"),
                   "--mode", "fourier", "--count", "10") == 0
    state, _ = run_plan(plan_from_json(plan_text))
    csv_path = tmp_path / "state.csv"
    csv_path.write_text(oracles.function_csv_rows(state.amplitudes))
    assert run_cli("spectrum", "--input", str(csv_path), "--out", str(tmp_path / "e"),
                   "--normalization", normalization) == 0
    sampled = (tmp_path / "s" / "distribution.json").read_bytes()
    assert sampled == (tmp_path / "e" / "energies.json").read_bytes()


def test_sample_count_validation(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"n": 3}')
    code = run_cli("sample", "--plan", str(plan), "--out", str(tmp_path / "o"),
                   "--count", "0")
    assert code == 2
    assert "count" in capsys.readouterr().err
