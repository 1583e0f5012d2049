"""File-format layer: JSON/CSV round trips and plan parsing errors."""

import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from snfourier.cli import main
from snfourier.conditioning import Observation
from snfourier.errors import ENCODINGS, DegreeGuardError, PlanValidationError
from snfourier.pipeline import (
    DiffusionStep,
    EmpiricalInitial,
    ExperimentPlan,
    run_plan,
)
from snfourier.partitions import enumerate_partitions
from snfourier.serialize import (
    _CHUNK,
    _chunks,
    _float_rows,
    _write_json,
    format_float,
    function_from_csv,
    ledger_to_jsonl,
    partition_key,
    plan_from_json,
    posterior_to_csv,
    report_to_json,
    samples_to_csv,
    spectrum_to_json,
)
from snfourier.partitions import Partition
from snfourier.transform import gft_forward

RNG = np.random.default_rng(20260814)


def test_format_float_round_trips_exactly():
    cases = [0.0, 1.0, -1.0, 1 / 3, 0.1, 1e-300, 123456789.123456789,
             math.pi, 2 ** -52, 0.8 * 0.8]
    cases += list(RNG.standard_normal(50))
    for x in cases:
        assert float(format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_spectrum_json_shape():
    h = oracles.random_probability(RNG, 24)
    text = spectrum_to_json(gft_forward(h, "unitary"))
    doc = json.loads(text)
    assert set(doc) == {"normalization", "blocks"}
    assert doc["normalization"] == "unitary"
    assert set(doc["blocks"]) == {"[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"}
    # keys carry no whitespace so they can double as dictionary lookups
    assert all(" " not in key for key in doc["blocks"])
    assert np.shape(doc["blocks"]["[3,1]"]) == (3, 3)


def test_spectrum_json_round_trip_is_exact():
    for n in (3, 4, 5):
        h = RNG.standard_normal(math.factorial(n))
        for normalization in ("plain", "unitary"):
            spec = gft_forward(h, normalization)
            doc = json.loads(spectrum_to_json(spec))
            assert doc["normalization"] == normalization
            lams = enumerate_partitions(n)
            assert list(doc["blocks"]) == [partition_key(lam) for lam in lams]
            for lam in lams:
                assert np.array_equal(doc["blocks"][partition_key(lam)], spec.blocks[lam])


def test_spectrum_json_prints_each_entry_with_format_float():
    values = [0.0, -0.0, 1e-300, 1 / 3, -2.5e17, 5e-324]
    blocks = {lam: np.array(values[:d * d]).reshape(d, d) for lam, d in
              ((Partition((3,)), 1), (Partition((2, 1)), 2), (Partition((1, 1, 1)), 1))}
    text = spectrum_to_json(oracles.spectrum_from_blocks(3, "plain", blocks))
    doc = json.loads(text)
    for block in blocks.values():
        for row in block:
            assert "[" + ", ".join(format_float(x) for x in row) + "]" in text
    assert doc["blocks"]["[2,1]"] == [[0.0, -0.0], [1e-300, 1 / 3]]
    for bad in (math.nan, math.inf, -math.inf):
        blocks[Partition((2, 1))][1, 0] = bad
        with pytest.raises(ValueError, match=f"non-finite value {bad!r}"):
            spectrum_to_json(oracles.spectrum_from_blocks(3, "plain", blocks))


def test_function_csv_round_trip():
    h = RNG.standard_normal(24)
    text = oracles.function_csv_rows(h)
    lines = text.strip().split("\n")
    assert lines[0] == "rank,value"
    assert len(lines) == 25
    assert np.array_equal(function_from_csv(text), h)


def test_function_csv_rejects_non_factorial_row_count():
    rows = "\n".join(f"{i},0.5" for i in range(7))
    with pytest.raises(ValueError, match="factorial"):
        function_from_csv("rank,value\n" + rows + "\n")


def test_function_csv_requires_each_rank_once():
    text = "rank,value\n0,0.5\n0,0.5\n"
    with pytest.raises(ValueError):
        function_from_csv(text)
    with pytest.raises(ValueError):
        function_from_csv("rank,value\n0,1.0\n3,0.0\n")


def test_function_csv_values_are_bit_equal_to_float():
    values = [repr(float(v)) for v in RNG.standard_normal(14)] + [
        "1e-3", "2.5E+10", "-7.25e-310", "+.5", "5.", "-0.0", "1E400", " 3.25 ",
        "0.1000000000000000055511151231257827", "  -4e-5"]
    ranks = RNG.permutation(24)
    rows = [f"{' ' if r % 3 == 0 else ''}{r}{' ' if r % 4 == 0 else ''},{v}"
            for r, v in zip(ranks, values)]
    text = "rank , value\r\n" + "\r\n".join(rows) + "\r\n"
    expected = np.empty(24)
    expected[ranks] = [float(v) for v in values]
    assert function_from_csv(text).tobytes() == expected.tobytes()


@pytest.mark.parametrize("cell", ['"0"', "0_0"], ids=["quoted", "underscore"])
def test_function_csv_reads_quoted_and_underscored_cells(cell):
    rows = [f"{i},{i / 8}" for i in range(5040)]
    rows[0] = f"{cell},0.0"
    rows[1000] = "1_000,125.0"
    text = "rank,value\n" + "\n".join(rows) + "\n"
    assert np.array_equal(function_from_csv(text), np.arange(5040) / 8)


@pytest.mark.parametrize("body, message", [
    ("0,1\n1,2\n1,3\n3,4\n4,5\n5,6\n", "rank 1 out of range or repeated"),
    ("0,1\n1,2\n2,3\n3,4\n4,5\n6,6\n", "rank 6 out of range or repeated"),
    ("0,1\n1,2,3\n2,3\n3,4\n4,5\n5,6\n", "malformed row ['1', '2', '3']"),
    ("0,1\n1.0,2\n2,3\n3,4\n4,5\n5,6\n",
     "invalid literal for int() with base 10: '1.0'"),
    ("0,1\n1,x\n2,3\n3,4\n4,5\n5,6\n", "could not convert string to float: 'x'"),
    ("0,1\n1,2\n\n2,3\n3,4\n", "4 rows is not a factorial, so no degree fits"),
])
def test_function_csv_errors_name_the_first_bad_row(body, message):
    with pytest.raises(ValueError) as err:
        function_from_csv("rank,value\n" + body)
    assert str(err.value) == message


def test_posterior_csv_lists_one_lines():
    posterior = np.array([0.75, 0.25, 0.0, 0.0, 0.0, 0.0])
    lines = posterior_to_csv(posterior).strip().split("\n")
    assert lines[0] == "rank,one_line,probability"
    assert lines[1] == "0,1 2 3,0.75"
    assert lines[2] == "1,1 3 2,0.25"
    assert len(lines) == 7


def test_posterior_csv_text_is_pinned():
    # zero, negative zero, a tiny value and 17-digit values, byte for byte
    text = posterior_to_csv([0.0, -0.0, 1e-300, 1 / 3, 0.5, 1 / 6])
    assert text == (
        "rank,one_line,probability\n"
        "0,1 2 3,0\n"
        "1,1 3 2,-0\n"
        "2,2 1 3,1e-300\n"
        "3,2 3 1,0.33333333333333331\n"
        "4,3 1 2,0.5\n"
        "5,3 2 1,0.16666666666666666\n"
    )


def test_posterior_csv_rejects_nan():
    posterior = np.array([0.75, np.nan, 0.25, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        posterior_to_csv(posterior)


@pytest.mark.parametrize("writer", [posterior_to_csv])
def test_csv_writers_name_the_first_non_finite_value(writer):
    with pytest.raises(ValueError, match="non-finite value -inf"):
        writer([0.5, 0.5, -math.inf, math.nan, 0.0, 0.0])


def test_posterior_csv_guards_the_degree():
    # the one-digit label layout holds for n <= 9 only
    with pytest.raises(DegreeGuardError):
        posterior_to_csv(np.zeros(math.factorial(10)))


def assert_printed_like_percent(values):
    """The float printer's row of each value is '%.17g' % value, NULs dropped."""
    values = np.asarray(values, dtype=np.float64)
    rows = _float_rows(values)
    assert rows.dtype == np.uint8 and rows.shape == (len(values), 32)
    got = [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]
    wrong = [(value, text, "%.17g" % value)
             for value, text in zip(values.tolist(), got) if text != "%.17g" % value]
    assert not wrong, wrong[:5]


def test_float_printer_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    # every biased exponent of a finite double (subnormals and zero at 0),
    # each with 50 random mantissas of either sign
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 100)
    signs = np.tile(np.repeat(np.array([0, 1], dtype=np.uint64), 50), 2047)
    mantissas = rng.integers(0, 2**52, len(exponents), dtype=np.uint64)
    bits = signs << np.uint64(63) | exponents << np.uint64(52) | mantissas
    assert len(bits) >= 200_000
    assert_printed_like_percent(bits.view(np.float64))
    # and values as a model prints them: small probabilities, normal draws
    assert_printed_like_percent(np.exp(rng.uniform(-60, 0, 20_000)))
    assert_printed_like_percent(rng.standard_normal(20_000) * 10.0 ** rng.integers(-6, 18, 20_000))


def exact_ties():
    """Doubles whose exact decimal has 18 significant digits, the last a 5.

    '%.17g' rounds them half-even. Such a double is m / 2^q for an odd m
    with m * 5^q in [10^17, 10^18), which needs 2 <= q <= 25.
    """
    ties = []
    for q in range(2, 26):
        first = -(-10**17 // 5**q) | 1
        last = (min(2**53, 10**18 // 5**q) - 1) | 1
        for m in (first, first + 2, (first + last) // 4 * 2 + 1, last - 2, last):
            if 10**17 <= m * 5**q < 10**18 and m < 2**53:
                digits = str(m * 5**q)
                assert len(digits) == 18 and digits[-1] == "5"
                ties.append(m / 2**q)
    return ties


def test_float_printer_matches_percent_on_edge_values():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    below = [float(np.nextafter(p, 0.0)) for p in powers]
    values = [0.0, 5e-324, float(np.nextafter(sys.float_info.min, 0.0)),
              sys.float_info.min, sys.float_info.max]
    values += powers + below + [float(np.nextafter(p, math.inf)) for p in powers]
    values += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    values += [1e16, 1e17, 9.9999999999999998e16, 1e-5, 1e-4]
    # the nearest double below 10^k whose 17-digit rounding carries into 10^k
    carried = [p for k, p in zip(range(-323, 309), powers)
               if Fraction(p) < Fraction(10) ** k == Fraction("%.17g" % p)]
    assert len(carried) > 10
    ties = exact_ties()
    assert len(ties) > 50
    # half-even goes both ways among the ties
    assert {Fraction("%.17g" % t) > Fraction(t) for t in ties} == {False, True}
    values += ties
    assert_printed_like_percent(values + [-value for value in values])


PLANTED = (0.0, -0.0, 5e-324, 1e-300, 1 / 3, -2.5e17, 1.0, 123.5, 2.0**-25,
           9.9999999999999998e16, 1e-5, -0.00123)


@pytest.mark.parametrize("n", range(2, 10))
def test_writers_match_row_by_row_oracles(n):
    rng = np.random.default_rng(n)
    fact = math.factorial(n)
    posterior = rng.random(fact)
    # the first ranks, both sides of each rank-width boundary below n!, and
    # both sides of each chunk boundary of the row builder and the printer
    ranks = [*range(min(fact, 6)),
             *(r for r in (9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000) if r < fact),
             *(r for lo, _ in _chunks(fact)[1:] for r in (lo - 1, lo))]
    posterior[ranks] = np.resize(PLANTED, len(ranks))
    assert posterior_to_csv(posterior) == oracles.posterior_csv_rows(posterior)

    spectrum = gft_forward(oracles.random_unit(rng, fact), "unitary")
    for i, block in enumerate(spectrum.blocks.values()):
        k = min(block.size, len(PLANTED))
        block.flat[:k] = np.roll(PLANTED, i)[:k]
    # the spectrum is printed in one call over its values
    edges = [r for lo, _ in _chunks(fact)[1:] for r in (lo - 1, lo)]
    spectrum.values[edges] = np.resize(PLANTED[::-1], len(edges))
    assert spectrum_to_json(spectrum) == oracles.spectrum_json_rows(spectrum)


def test_samples_csv():
    draws = np.array([[2, 1, 3], [1, 2, 3]], dtype=np.uint8)
    lines = samples_to_csv(draws).strip().split("\n")
    assert lines == ["draw,one_line", "0,2 1 3", "1,1 2 3"]


@pytest.mark.parametrize("n", range(1, 10))
def test_samples_csv_matches_row_by_row_oracle(n):
    rng = np.random.default_rng(n)
    # the counts end on each side of the draw-index decades, of a second
    # chunk and of a second 4-digit group
    for count in (1, 10, 11, 100, 1001, _CHUNK, _CHUNK + 1, 10001):
        draws = (np.argsort(rng.random((count, n)), axis=1) + 1).astype(np.uint8)
        assert samples_to_csv(draws) == oracles.samples_csv_rows(draws)


def test_ledger_jsonl():
    plan = ExperimentPlan(
        n=3,
        steps=(
            DiffusionStep(p=0.5, d=1),
            Observation(kind="assignment", indices=(1,), values=(1,)),
        ),
    )
    _, report = run_plan(plan)
    lines = ledger_to_jsonl(report.ledger).strip().split("\n")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["type"] == "diffusion"
    assert first["p"] == 0.5
    second = json.loads(lines[1])
    assert second["type"] == "conditioning"
    assert second["kind"] == "assignment"
    # every entry carries its measured success probability
    assert all("success_prob" in json.loads(line) for line in lines)


def test_report_json_contents():
    plan = ExperimentPlan(n=3, steps=(DiffusionStep(p=0.75, d=2),))
    _, report = run_plan(plan)
    doc = json.loads(report_to_json(plan, report))
    assert doc["n"] == 3
    assert doc["encoding"] == "amplitude"
    assert float(doc["p_total"]) == report.p_total
    assert float(doc["lower_bound"]) == report.lower_bound
    assert doc["amplification"]["grover"]["units"] >= 1
    assert doc["amplification"]["fixed_point"]["units"] >= 1


def test_report_json_null_bound():
    # p = 1/2 zeroes the alternating eigenvalue, so no lower bound exists
    plan = ExperimentPlan(n=3, steps=(DiffusionStep(p=0.5, d=1),))
    _, report = run_plan(plan)
    doc = json.loads(report_to_json(plan, report))
    assert doc["lower_bound"] is None
    assert "inapplicable" in doc["lower_bound_note"]


def test_plan_json_round_trip():
    plan = ExperimentPlan(
        n=4,
        steps=(
            DiffusionStep(p=0.6, d=2),
            Observation(kind="ranking", items=(2, 3), s=0.8),
            Observation(kind="assignment", indices=(1, 4), values=(2, 3), s=0.9),
        ),
        encoding="born",
        initial=EmpiricalInitial(entries=(((2, 1, 3, 4), 2), ((1, 2, 3, 4), 1))),
        seed=99,
        sharpening=3,
    )
    read = plan_from_json("""{
      "n": 4, "encoding": "born", "seed": 99, "sharpening": 3,
      "initial": {"kind": "empirical", "dataset": [
        {"one_line": [2, 1, 3, 4], "count": 2}, {"one_line": [1, 2, 3, 4], "count": 1}]},
      "steps": [
        {"type": "diffusion", "p": 0.6, "d": 2},
        {"type": "conditioning",
         "observation": {"kind": "ranking", "items": [2, 3], "s": 0.8}},
        {"type": "conditioning", "observation":
         {"kind": "assignment", "indices": [1, 4], "values": [2, 3], "s": 0.9}}
      ]
    }""")
    assert read == plan


def test_observation_steps_give_the_ledger_of_the_json_plan():
    plan = ExperimentPlan(
        n=4,
        steps=(
            DiffusionStep(p=0.6, d=2),
            Observation(kind="ranking", items=(2, 3), s=0.8),
            Observation(kind="assignment", indices=(1, 4), values=(2, 3), s=0.9),
        ),
        encoding="born",
        sharpening=3,
    )
    read = plan_from_json("""{
      "n": 4, "encoding": "born", "sharpening": 3,
      "steps": [
        {"type": "diffusion", "p": 0.6, "d": 2},
        {"type": "conditioning",
         "observation": {"kind": "ranking", "items": [2, 3], "s": 0.8}},
        {"type": "conditioning", "observation":
         {"kind": "assignment", "indices": [1, 4], "values": [2, 3], "s": 0.9}}
      ]
    }""")
    assert read == plan
    built_ledger = ledger_to_jsonl(run_plan(plan)[1].ledger)
    assert ledger_to_jsonl(run_plan(read)[1].ledger) == built_ledger
    assert [json.loads(line)["type"] for line in built_ledger.splitlines()] == [
        "diffusion", "conditioning", "conditioning", "sharpen"]


def test_plan_json_rational_p():
    plan = plan_from_json('{"n": 3, "steps": [{"type": "diffusion", "p": "1/3"}]}')
    step = plan.steps[0]
    assert isinstance(step.p, Fraction) and step.p == Fraction(1, 3)


def test_rational_p_keeps_bound_exact():
    # b = 3, n = 3: the rational-regime bound is exactly 4 / (b^2 n^4)
    plan = ExperimentPlan(n=3, steps=(DiffusionStep(p=Fraction(1, 3)),))
    _, report = run_plan(plan)
    assert report.lower_bound == float(Fraction(4, 729))
    entry = json.loads(ledger_to_jsonl(report.ledger).splitlines()[0])
    assert entry["p"] == "1/3"


def test_plan_json_minimal_defaults():
    plan = plan_from_json('{"n": 3}')
    assert plan == ExperimentPlan(n=3)
    assert plan.encoding == "amplitude"
    assert plan.seed == 0
    assert plan.sharpening is None


@pytest.mark.parametrize(
    "text, field",
    [
        ("[1, 2]", "document"),
        ("{not json", "document"),
        ('{"encoding": "amplitude"}', "n"),
        ('{"n": "three"}', "n"),
        ('{"n": 3, "encoding": "qubit"}', "encoding"),
        ('{"n": 3, "seed": -1}', "seed"),
        ('{"n": 3, "steps": 7}', "steps"),
        ('{"n": 3, "steps": [{"p": 0.5}]}', "steps[0].type"),
        ('{"n": 3, "steps": [{"type": "diffusion"}]}', "steps[0].p"),
        ('{"n": 3, "steps": [{"type": "diffusion", "p": 1.5}]}', "steps[0].p"),
        ('{"n": 3, "steps": [{"type": "diffusion", "p": "a/b"}]}', "steps[0].p"),
        ('{"n": 3, "steps": [{"type": "diffusion", "p": "3/2"}]}', "steps[0].p"),
        ('{"n": 3, "steps": [{"type": "conditioning"}]}', "steps[0].observation"),
        (
            '{"n": 3, "steps": [{"type": "conditioning",'
            ' "observation": {"kind": "assignment", "indices": [1],'
            ' "values": [1], "s": 0.3}}]}',
            "steps[0].observation.s",
        ),
        (
            '{"n": 3, "steps": [{"type": "conditioning",'
            ' "observation": {"kind": "sorting"}}]}',
            "steps[0].observation.kind",
        ),
        ('{"n": 3, "sharpening": 0}', "sharpening"),
        ('{"n": 3, "initial": "thermal"}', "initial"),
        ('{"n": 3, "initial": {"kind": "empirical"}}', "initial.dataset"),
        (
            '{"n": 3, "initial": {"kind": "empirical",'
            ' "dataset": [{"one_line": [1, 2, 3], "count": 0}]}}',
            "initial.dataset[0].count",
        ),
        # a float64 holds integer counts exactly only up to 2**53
        (
            '{"n": 3, "initial": {"kind": "empirical",'
            ' "dataset": [{"one_line": [1, 2, 3], "count": 9007199254740993}]}}',
            "initial.dataset[0].count",
        ),
        (
            '{"n": 3, "encoding": "born", "initial": {"kind": "empirical",'
            ' "dataset": [{"one_line": [1, 2], "count": 1}]}}',
            "initial.dataset",
        ),
        ('{"n": 3, "flavor": "mint"}', "flavor"),
        ('{"n": 1, "steps": [{"type": "diffusion", "p": 0.5}]}', "steps[0]"),
        (
            '{"n": 3, "steps": [{"type": "conditioning",'
            ' "observation": {"kind": "ranking", "items": [2, 2]}}]}',
            "steps[0].observation.items",
        ),
        # field errors come before the degree guard (exit 3)
        ('{"n": 10, "encoding": "qubit"}', "encoding"),
    ],
)
def test_plan_json_errors_name_the_field(text, field):
    with pytest.raises(PlanValidationError) as err:
        plan_from_json(text)
    assert err.value.field == field
    assert field in str(err.value)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ExperimentPlan(n=3, seed=-1), "seed"),
        (lambda: Observation(kind="ranking", items=(1, 1)), "items"),
        (lambda: DiffusionStep(p=1.5), "p"),
    ],
)
def test_plan_model_errors_name_the_field(build, field):
    with pytest.raises(ValueError) as err:
        build()
    assert err.value.field == field


def _plan_schema(odd, fault_rate):
    """Documents from the schema's keys; each value odd with chance 1/fault_rate."""

    def field(valid):
        if not fault_rate:
            return valid
        return st.integers(1, fault_rate).flatmap(lambda k: odd if k == 1 else valid)

    def obj(required, optional=None):
        return st.fixed_dictionaries(required, optional=optional)

    s = field(st.sampled_from([0.6, 1.0]))
    pairs = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=3,
                     unique_by=(lambda t: t[0], lambda t: t[1]))
    observation = field(
        pairs.flatmap(lambda ps: obj({
            "kind": field(st.just("assignment")), "s": s,
            "indices": field(st.just([i for i, _ in ps])),
            "values": field(st.just([v for _, v in ps])),
        }))
        | obj({"kind": field(st.just("ranking")), "s": s},
              {"items": field(st.lists(st.integers(1, 3), max_size=3, unique=True))})
    )
    step = field(
        obj({"type": field(st.just("diffusion")),
             "p": field(st.sampled_from([0, 0.6, 1, "1/3"]))},
            {"d": field(st.integers(1, 3))})
        | obj({"type": field(st.just("conditioning")), "observation": observation})
    )
    entry = field(obj({"one_line": field(st.permutations([1, 2, 3]).map(list)),
                       "count": field(st.integers(1, 2))}))
    empirical = obj({"kind": field(st.just("empirical")),
                     "dataset": field(st.lists(entry, min_size=1, max_size=3))})
    return obj(
        {"n": field(st.sampled_from([1, 2, 3, 3, 4, 10])),
         "steps": field(st.lists(step, min_size=1, max_size=3))},
        {
            "encoding": field(st.sampled_from(ENCODINGS)),
            "seed": field(st.integers(0, 3)),
            "initial": field(st.just("identity") | empirical),
            "sharpening": field(st.integers(1, 3)),
            "amplitude_empirical_ok": field(st.booleans()),
        },
    )


def _with_fault(doc, path, fault):
    if not path:
        return fault(doc)
    doc = doc.copy()
    doc[path[0]] = _with_fault(doc[path[0]], path[1:], fault)
    return doc


@st.composite
def _single_fault(draw, schema, odd):
    """A document in which one value is odd, or one object has an unknown key."""
    doc = draw(schema)
    # walk down from a top-level key, stopping at each level with chance 1/3
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and (
        not path or draw(st.integers(0, 2)) > 0
    ):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path, node = path + (key,), node[key]
    value = draw(odd)
    if isinstance(node, dict) and draw(st.booleans()):
        return _with_fault(doc, path, lambda node: {**node, "flavor": value})
    return _with_fault(doc, path, lambda node: value)


def faulty_plans(odd_values):
    """Documents with about one value in twelve odd, or with exactly one fault."""
    odd = st.sampled_from(odd_values)
    return _plan_schema(odd, 12) | _single_fault(_plan_schema(odd, 0), odd)


# wrong in type or range for some field; small enough for a quick run
ODD_VALUES = [None, True, -1, 0, 1, 2, 3, 10, 0.3, 1.5, float("nan"), "x", "3/2",
              "a/b", [], [1], [2, 1], [1, 1], {}, {"kind": "empirical"}]


@settings(max_examples=1000, deadline=None)
@given(doc=faulty_plans(ODD_VALUES + [2**64, -2**70, 10**400, float("inf"), "1e400"]))
def test_plan_reader_raises_only_plan_errors(doc):
    try:
        plan_from_json(json.dumps(doc))
    except (PlanValidationError, DegreeGuardError):
        pass


@settings(max_examples=200, deadline=None)
@given(doc=_plan_schema(st.nothing(), 0) | faulty_plans(ODD_VALUES + [2**64, 10**400]))
# an amplitude rounded to 1 + 2**-52 once overflowed under this exponent
@example(doc={"n": 2, "steps": [{"type": "diffusion", "p": 0}], "encoding": "amplitude",
              "sharpening": 2**64})
def test_run_exits_only_with_contract_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        plan = Path(tmp) / "plan.json"
        plan.write_text(json.dumps(doc))
        code = main(["run", "--plan", str(plan), "--out", str(Path(tmp) / "out")])
    # 4 is a hard observation that contradicts the state, not a reader fault
    assert code in (0, 2, 3, 4)


def test_plan_json_empirical_amplitude_needs_opt_in():
    text = (
        '{"n": 3, "encoding": "amplitude", "initial": {"kind": "empirical",'
        ' "dataset": [{"one_line": [2, 1, 3], "count": 1}]}}'
    )
    with pytest.raises(PlanValidationError) as err:
        plan_from_json(text)
    assert err.value.field == "initial"
    plan = plan_from_json(text[:-1] + ', "amplitude_empirical_ok": true}')
    assert plan.amplitude_empirical_ok


def test_json_floats_use_17_significant_digits():
    plan = ExperimentPlan(n=3, steps=(DiffusionStep(p=1 / 3, d=1),))
    _, report = run_plan(plan)
    assert format_float(1 / 3) in ledger_to_jsonl(report.ledger)
    assert format_float(report.p_total) in report_to_json(plan, report)


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "csv-header": (lambda: function_from_csv("r,v\n0,1\n"),
                   ValueError, "expected a rank,value header"),
    "csv-empty": (lambda: function_from_csv(""), ValueError, "expected a rank,value header"),
    # artifacts hold dicts of scalars, so a sequence is not written
    "json-list": (lambda: _write_json({"ranks": [0, 1]}), TypeError, "cannot serialize list"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
