"""JSON and CSV codecs for plans, observations, spectra, and run artifacts.

Every float is printed with 17 significant digits, enough for an IEEE double
to round-trip exactly, so golden files can be compared byte for byte. The
writers emit keys in a fixed order for the same reason.

The plan reader checks types only: what JSON itself can get wrong (syntax,
objects, arrays, integers, booleans, unknown keys), plus reading a string p
such as "1/3" as an exact Fraction. Every range rule lives in the plan model,
whose PlanValidationError names its own field; the reader puts the document
path in front of it (steps[0] + p -> steps[0].p).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from .conditioning import Observation
from .errors import PlanValidationError, check_degree
from .partitions import Partition, enumerate_partitions
from .perms import all_one_lines
from .pipeline import DiffusionStep, EmpiricalInitial, ExperimentPlan, RunReport
from .transform import FourierSpectrum, function_degree


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return f"{x:.17g}"


def _format_floats(template: str, values: np.ndarray) -> str:
    """template % values, with one %.17g field per value in C order.

    Finiteness is checked once per array; a non-finite value raises
    format_float's error, naming the first one.
    """
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values[~finite][0])
    return template % tuple(values.ravel().tolist())


def _ranked_rows(cells: np.ndarray, tail: bytes) -> str:
    r"""Lines "{rank},{cells[rank]}{tail}" from a table of ASCII bytes, no "%".

    With tail b"%.17g\n" the text is a template for one float per row; with
    b"\n" it is final. A rank has a fixed width inside each decade (0-9,
    10-99, ...), so each decade is built as one byte array.
    """
    tail = np.frombuffer(tail, dtype=np.uint8)
    decades = []
    lo, width = 0, 1
    while lo < len(cells):
        hi = min(10**width, len(cells))
        rows = np.empty((hi - lo, width + 1 + cells.shape[1] + len(tail)), dtype=np.uint8)
        ranks = np.arange(lo, hi)[:, None]
        rows[:, :width] = ranks // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")
        rows[:, width] = ord(",")
        rows[:, width + 1:-len(tail)] = cells[lo:hi]
        rows[:, -len(tail):] = tail
        decades.append(rows.tobytes())
        lo, width = hi, width + 1
    return b"".join(decades).decode("ascii")


def _write_json(obj) -> str:
    # bool is an int subclass; test it first
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Fraction):
        # exact rationals travel as strings, never as lossy floats
        return json.dumps(str(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        body = ", ".join(
            f"{json.dumps(str(key))}: {_write_json(value)}"
            for key, value in obj.items()
        )
        return "{" + body + "}"
    if isinstance(obj, np.ndarray) and obj.ndim in (1, 2) and obj.dtype.kind == "f":
        # a vector, or a whole spectrum block, is written by one % call
        row = "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]"
        if obj.ndim == 2:
            row = "[" + ", ".join([row] * len(obj)) + "]"
        return _format_floats(row, obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_write_json(value) for value in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def partition_key(lam: Partition) -> str:
    return "[" + ",".join(str(part) for part in lam.parts) + "]"


def spectrum_to_json(spectrum: FourierSpectrum) -> str:
    blocks = {
        partition_key(lam): spectrum.blocks[lam]
        for lam in enumerate_partitions(spectrum.n)
    }
    doc = {"normalization": spectrum.normalization, "blocks": blocks}
    return _write_json(doc) + "\n"


def spectrum_from_json(text: str) -> FourierSpectrum:
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"normalization", "blocks"}:
        raise ValueError("spectrum document needs exactly normalization and blocks")
    if not isinstance(doc["blocks"], dict) or not doc["blocks"]:
        raise ValueError("blocks must be a non-empty object keyed by partition")
    blocks = {}
    for key, rows in doc["blocks"].items():
        try:
            parts = json.loads(key)
        except json.JSONDecodeError:
            raise ValueError(f"bad partition key {key!r}") from None
        if not (isinstance(parts, list) and all(_plain_int(part) for part in parts)):
            raise ValueError(f"bad partition key {key!r}")
        lam = Partition(tuple(parts))
        blocks[lam] = np.asarray(rows, dtype=np.float64)
    n = next(iter(blocks)).weight
    return FourierSpectrum(n=n, normalization=doc["normalization"], blocks=blocks)


def function_to_csv(values) -> str:
    arr = np.asarray(values, dtype=np.float64)
    function_degree(arr)
    no_cells = np.empty((len(arr), 0), dtype=np.uint8)
    return "rank,value\n" + _format_floats(_ranked_rows(no_cells, b"%.17g\n"), arr)


def function_from_csv(text: str) -> np.ndarray:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [cell.strip() for cell in rows[0]] != ["rank", "value"]:
        raise ValueError("expected a rank,value header")
    body = rows[1:]
    count = len(body)
    try:
        function_degree(np.empty(count))
    except ValueError:
        raise ValueError(
            f"{count} rows is not a factorial, so no degree fits"
        ) from None
    out = np.empty(count)
    seen = np.zeros(count, dtype=bool)
    for row in body:
        if len(row) != 2:
            raise ValueError(f"malformed row {row!r}")
        rank = int(row[0])
        if not 0 <= rank < count or seen[rank]:
            raise ValueError(f"rank {rank} out of range or repeated")
        seen[rank] = True
        out[rank] = float(row[1])
    return out


def posterior_to_csv(posterior) -> str:
    arr = np.asarray(posterior, dtype=np.float64)
    n = check_degree(function_degree(arr))
    # n <= 9, so each entry of a one-line form is a single digit
    cells = np.full((len(arr), 2 * n), ord(" "), dtype=np.uint8)
    cells[:, ::2] = all_one_lines(n) + ord("0")
    cells[:, -1] = ord(",")
    return "rank,one_line,probability\n" + _format_floats(
        _ranked_rows(cells, b"%.17g\n"), arr)


def samples_to_csv(draws) -> str:
    """One "draw,one_line" row per row of a (count, n) array of one-line forms."""
    rows = np.asarray(draws)
    n = check_degree(rows.shape[1])
    # n <= 9, so each entry is a single digit
    cells = np.full((len(rows), 2 * n - 1), ord(" "), dtype=np.uint8)
    cells[:, ::2] = rows + ord("0")
    return "draw,one_line\n" + _ranked_rows(cells, b"\n")


def partition_samples_to_csv(draws) -> str:
    lines = ["draw,partition"]
    for index, lam in enumerate(draws):
        lines.append(f"{index}," + " ".join(str(part) for part in lam.parts))
    return "\n".join(lines) + "\n"


def fourier_distribution_to_json(exact: dict) -> str:
    n = next(iter(exact)).weight
    ordered = {partition_key(lam): exact[lam] for lam in enumerate_partitions(n)}
    return _write_json(ordered) + "\n"


def fourier_distribution_to_csv(exact: dict) -> str:
    n = next(iter(exact)).weight
    rows = [f"{' '.join(map(str, lam.parts))},{format_float(exact[lam])}"
            for lam in enumerate_partitions(n)]
    return "\n".join(["partition,probability", *rows]) + "\n"


def ledger_to_jsonl(ledger) -> str:
    return "".join(_write_json(entry) + "\n" for entry in ledger)


def report_to_json(plan: ExperimentPlan, report: RunReport) -> str:
    doc = {
        "n": plan.n,
        "encoding": plan.encoding,
        "seed": plan.seed,
        "steps": len(plan.steps),
        "p_total": report.p_total,
        "lower_bound": report.lower_bound,
        "lower_bound_note": report.lower_bound_note,
        "amplification": {
            mode: dict(cost._asdict())
            for mode, cost in report.amplification.items()
        },
    }
    return _write_json(doc) + "\n"


def observation_to_dict(obs: Observation) -> dict:
    if obs.kind == "assignment":
        return {
            "kind": "assignment",
            "indices": list(obs.indices),
            "values": list(obs.values),
            "s": float(obs.s),
        }
    return {"kind": "ranking", "items": list(obs.items), "s": float(obs.s)}


def plan_to_json(plan: ExperimentPlan) -> str:
    steps = []
    for step in plan.steps:
        if isinstance(step, DiffusionStep):
            steps.append({"type": "diffusion", "p": step.p, "d": step.d})
        else:
            steps.append(
                {"type": "conditioning", "observation": observation_to_dict(step)}
            )
    if isinstance(plan.initial, EmpiricalInitial):
        initial = {
            "kind": "empirical",
            "dataset": [
                {"one_line": list(one_line), "count": count}
                for one_line, count in plan.initial.entries
            ],
        }
    else:
        initial = "identity"
    doc = {
        "n": plan.n,
        "encoding": plan.encoding,
        "seed": plan.seed,
        "initial": initial,
        "steps": steps,
    }
    if plan.sharpening is not None:
        doc["sharpening"] = plan.sharpening
    if plan.amplitude_empirical_ok:
        doc["amplitude_empirical_ok"] = True
    return _write_json(doc) + "\n"


def _plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _plain_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build(path: str, cls, **fields):
    """Build a plan-model object; its error's field goes under the document path."""
    try:
        return cls(**fields)
    except PlanValidationError as err:
        raise err.under(path) from None


def _tagged(doc, path: str, tag: str, shapes: dict) -> str:
    """Check a JSON object's tag, then its keys against that tag's shape."""
    if not isinstance(doc, dict):
        raise PlanValidationError(path, "expected a JSON object")
    kind = doc.get(tag)
    if not isinstance(kind, str) or kind not in shapes:
        raise PlanValidationError(f"{path}.{tag}", f"{tag} must be {'|'.join(shapes)}")
    for key in doc:
        if key != tag and key not in shapes[kind]:
            raise PlanValidationError(f"{path}.{key}", f"unknown field for {kind}")
    return kind


def _int_array(raw, path: str) -> tuple:
    # json.loads builds exact types, so an int type, not a bool, is a plain int
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int}:
        raise PlanValidationError(path, "expected an array of integers")
    return tuple(raw)


_OBSERVATION_SHAPES = {
    "assignment": ("s", "indices", "values"),
    "ranking": ("s", "items"),
}
_STEP_SHAPES = {"diffusion": ("p", "d"), "conditioning": ("observation",)}


def _parse_observation(doc, path: str) -> Observation:
    kind = _tagged(doc, path, "kind", _OBSERVATION_SHAPES)
    s = doc.get("s", 1.0)
    if not _plain_number(s):
        raise PlanValidationError(f"{path}.s", "expected a number")
    pools = {
        key: _int_array(raw, f"{path}.{key}")
        for key, raw in doc.items() if key not in ("kind", "s")
    }
    return _build(path, Observation, kind=kind, s=s, **pools)


def _parse_step(doc, path: str):
    if _tagged(doc, path, "type", _STEP_SHAPES) == "conditioning":
        return _parse_observation(doc.get("observation"), f"{path}.observation")
    p = doc.get("p")
    if isinstance(p, str):
        # a string like "1/3" or "0.3" requests exact rational arithmetic
        try:
            p = Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise PlanValidationError(
                f"{path}.p", f"cannot read {p!r} as an exact fraction"
            ) from None
    elif not _plain_number(p):
        raise PlanValidationError(f"{path}.p", "expected a number or a fraction string")
    d = doc.get("d", 1)
    if not _plain_int(d):
        raise PlanValidationError(f"{path}.d", "expected an integer")
    return _build(path, DiffusionStep, p=p, d=d)


def _parse_initial(doc):
    if not isinstance(doc, dict):
        return doc  # "identity", or a value the plan model rejects
    _tagged(doc, "initial", "kind", {"empirical": ("dataset",)})
    dataset = doc.get("dataset")
    if not isinstance(dataset, list):
        raise PlanValidationError("initial.dataset", "expected an array")
    entries = []
    for i, item in enumerate(dataset):
        path = f"initial.dataset[{i}]"
        if not isinstance(item, dict) or set(item) != {"one_line", "count"}:
            raise PlanValidationError(path, "expected an object of one_line and count")
        if not _plain_int(item["count"]):
            raise PlanValidationError(f"{path}.count", "expected an integer")
        one_line = _int_array(item["one_line"], f"{path}.one_line")
        entries.append((one_line, item["count"]))
    return _build("initial", EmpiricalInitial, entries=tuple(entries))


_PLAN_FIELDS = (
    "n", "encoding", "seed", "initial", "steps", "sharpening",
    "amplitude_empirical_ok",
)


def plan_from_json(text: str) -> ExperimentPlan:
    """Decode a plan document; errors name the offending field."""
    try:
        doc = json.loads(text)
    except ValueError as err:  # also an integer literal beyond int's digit limit
        raise PlanValidationError("document", f"not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise PlanValidationError("document", "plan must be a JSON object")
    for key in doc:
        if key not in _PLAN_FIELDS:
            raise PlanValidationError(key, "unknown field")
    n = doc.get("n")
    if not _plain_int(n):
        raise PlanValidationError("n", "an integer degree is required")
    seed = doc.get("seed", 0)
    if not _plain_int(seed):
        raise PlanValidationError("seed", "expected an integer")
    sharpening = doc.get("sharpening")
    if sharpening is not None and not _plain_int(sharpening):
        raise PlanValidationError("sharpening", "expected an integer")
    opt_in = doc.get("amplitude_empirical_ok", False)
    if not isinstance(opt_in, bool):
        raise PlanValidationError("amplitude_empirical_ok", "expected a boolean")
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise PlanValidationError("steps", "expected an array")
    return ExperimentPlan(
        n=n,
        steps=tuple(_parse_step(item, f"steps[{i}]") for i, item in enumerate(steps)),
        encoding=doc.get("encoding", "amplitude"),
        initial=_parse_initial(doc.get("initial", "identity")),
        seed=seed,
        sharpening=sharpening,
        amplitude_empirical_ok=opt_in,
    )
