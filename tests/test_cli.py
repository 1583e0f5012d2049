"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
import math

import numpy as np
import pytest

from snfourier import cli
from snfourier.cli import main
from snfourier.partitions import irrep_dimension
from snfourier.serialize import function_to_csv

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
    assert run_cli("run", "--plan", str(plan), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {message}\n"


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


def test_verify_passes(capsys):
    assert run_cli("verify", "--n-max", "3") == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    assert "FAIL" not in out


def test_verify_beyond_guard(capsys):
    assert run_cli("verify", "--n-max", "12") == 3
    assert run_cli("verify", "--n-max", "5", "--n-guard", "4") == 3


def test_spectrum_delta_energies(tmp_path):
    csv_path = tmp_path / "delta.csv"
    delta = np.zeros(6)
    delta[0] = 1.0
    csv_path.write_text(function_to_csv(delta))
    out = tmp_path / "out"
    assert run_cli("spectrum", "--input", str(csv_path), "--out", str(out)) == 0
    energies = json.loads((out / "energies.json").read_text())
    assert set(energies) == {"[3]", "[2,1]", "[1,1,1]"}
    assert energies["[3]"] == pytest.approx(1 / 6, abs=1e-12)
    assert energies["[2,1]"] == pytest.approx(4 / 6, abs=1e-12)
    assert energies["[1,1,1]"] == pytest.approx(1 / 6, abs=1e-12)
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["normalization"] == "unitary"


def test_spectrum_uniform_concentrates(tmp_path):
    csv_path = tmp_path / "uniform.csv"
    csv_path.write_text(function_to_csv(np.full(24, 1 / 24)))
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


def test_spectrum_csv_format(tmp_path):
    csv_path = tmp_path / "delta.csv"
    delta = np.zeros(6)
    delta[0] = 1.0
    csv_path.write_text(function_to_csv(delta))
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


def test_sample_count_validation(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"n": 3}')
    code = run_cli("sample", "--plan", str(plan), "--out", str(tmp_path / "o"),
                   "--count", "0")
    assert code == 2
    assert "count" in capsys.readouterr().err
