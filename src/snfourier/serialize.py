"""JSON and CSV codecs for plans, observations, spectra, and run artifacts.

Every float is printed with 17 significant digits, enough for an IEEE double
to round-trip exactly, so golden files can be compared byte for byte. The
writers emit keys in a fixed order for the same reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from .conditioning import Observation
from .errors import ENCODINGS, PlanValidationError
from .partitions import Partition, enumerate_partitions
from .perms import all_one_lines
from .pipeline import (
    ConditioningStep,
    DiffusionStep,
    EmpiricalInitial,
    ExperimentPlan,
    RunReport,
)
from .transform import FourierSpectrum, function_degree


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return f"{x:.17g}"


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
        lam = Partition(tuple(int(part) for part in parts))
        blocks[lam] = np.asarray(rows, dtype=np.float64)
    n = next(iter(blocks)).weight
    return FourierSpectrum(n=n, normalization=doc["normalization"], blocks=blocks)


def function_to_csv(values) -> str:
    arr = np.asarray(values, dtype=np.float64)
    function_degree(arr)
    lines = ["rank,value"]
    lines += [f"{rank},{format_float(value)}" for rank, value in enumerate(arr)]
    return "\n".join(lines) + "\n"


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
    n = function_degree(arr)
    lines = ["rank,one_line,probability"]
    for rank, row in enumerate(all_one_lines(n)):
        one_line = " ".join(str(int(v)) for v in row)
        lines.append(f"{rank},{one_line},{format_float(arr[rank])}")
    return "\n".join(lines) + "\n"


def samples_to_csv(draws) -> str:
    lines = ["draw,one_line"]
    for index, perm in enumerate(draws):
        lines.append(f"{index}," + " ".join(str(v) for v in perm.one_line))
    return "\n".join(lines) + "\n"


def partition_samples_to_csv(draws) -> str:
    lines = ["draw,partition"]
    for index, lam in enumerate(draws):
        lines.append(f"{index}," + " ".join(str(part) for part in lam.parts))
    return "\n".join(lines) + "\n"


def fourier_distribution_to_json(exact: dict) -> str:
    n = next(iter(exact)).weight
    ordered = {partition_key(lam): exact[lam] for lam in enumerate_partitions(n)}
    return _write_json(ordered) + "\n"


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


def observation_from_dict(doc) -> Observation:
    if not isinstance(doc, dict):
        raise ValueError("observation must be a JSON object")
    kind = doc.get("kind")
    if kind == "assignment":
        return Observation(
            kind=kind,
            s=float(doc.get("s", 1.0)),
            indices=tuple(doc.get("indices", ())),
            values=tuple(doc.get("values", ())),
        )
    if kind == "ranking":
        return Observation(
            kind=kind, s=float(doc.get("s", 1.0)), items=tuple(doc.get("items", ()))
        )
    raise ValueError(f"kind must be assignment|ranking, got {kind!r}")


def plan_to_json(plan: ExperimentPlan) -> str:
    steps = []
    for step in plan.steps:
        if isinstance(step, DiffusionStep):
            steps.append({"type": "diffusion", "p": step.p, "d": step.d})
        else:
            steps.append({
                "type": "conditioning",
                "observation": observation_to_dict(step.observation),
            })
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


def _parse_observation(doc, path: str) -> Observation:
    if not isinstance(doc, dict):
        raise PlanValidationError(path, "observation must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("assignment", "ranking"):
        raise PlanValidationError(f"{path}.kind", "kind must be assignment|ranking")
    allowed = {"kind", "s", "indices", "values"}
    if kind == "ranking":
        allowed = {"kind", "s", "items"}
    for key in doc:
        if key not in allowed:
            raise PlanValidationError(f"{path}.{key}", f"unknown field for {kind}")
    s = doc.get("s", 1.0)
    if not _plain_number(s) or not 0.5 < s <= 1:
        raise PlanValidationError(
            f"{path}.s", "likelihood weight must lie in (0.5, 1]"
        )

    def int_array(key):
        raw = doc.get(key, [])
        if not isinstance(raw, list) or not all(_plain_int(v) for v in raw):
            raise PlanValidationError(f"{path}.{key}", "expected an array of integers")
        return tuple(raw)

    try:
        if kind == "assignment":
            return Observation(
                kind=kind, s=float(s),
                indices=int_array("indices"), values=int_array("values"),
            )
        return Observation(kind=kind, s=float(s), items=int_array("items"))
    except ValueError as err:
        raise PlanValidationError(path, str(err)) from None


def _parse_step(item, path: str):
    if not isinstance(item, dict):
        raise PlanValidationError(path, "step must be a JSON object")
    kind = item.get("type")
    if kind == "diffusion":
        for key in item:
            if key not in ("type", "p", "d"):
                raise PlanValidationError(f"{path}.{key}", "unknown field for diffusion")
        p = item.get("p")
        if isinstance(p, str):
            # a string like "1/3" or "0.3" requests exact rational arithmetic
            try:
                p = Fraction(p)
            except (ValueError, ZeroDivisionError):
                raise PlanValidationError(
                    f"{path}.p", f"cannot read {p!r} as an exact fraction"
                ) from None
        elif _plain_number(p):
            p = float(p)
        else:
            raise PlanValidationError(
                f"{path}.p", "stay probability in [0, 1] is required"
            )
        if not 0 <= p <= 1:
            raise PlanValidationError(
                f"{path}.p", "stay probability in [0, 1] is required"
            )
        d = item.get("d", 1)
        if not _plain_int(d) or d < 1:
            raise PlanValidationError(f"{path}.d", "step count must be an integer >= 1")
        return DiffusionStep(p=p, d=d)
    if kind == "conditioning":
        for key in item:
            if key not in ("type", "observation"):
                raise PlanValidationError(
                    f"{path}.{key}", "unknown field for conditioning"
                )
        obs_doc = item.get("observation")
        if obs_doc is None:
            raise PlanValidationError(
                f"{path}.observation", "an observation object is required"
            )
        return ConditioningStep(_parse_observation(obs_doc, f"{path}.observation"))
    raise PlanValidationError(f"{path}.type", "type must be diffusion|conditioning")


def _parse_initial(doc, n: int, encoding: str, opt_in: bool):
    if doc == "identity":
        return "identity"
    if isinstance(doc, str):
        raise PlanValidationError("initial", f"unknown initial state {doc!r}")
    if not isinstance(doc, dict) or doc.get("kind") != "empirical":
        raise PlanValidationError(
            "initial", "initial must be 'identity' or an empirical object"
        )
    for key in doc:
        if key not in ("kind", "dataset"):
            raise PlanValidationError(f"initial.{key}", "unknown field")
    dataset = doc.get("dataset")
    if not isinstance(dataset, list) or not dataset:
        raise PlanValidationError("initial.dataset", "a non-empty array is required")
    entries = []
    for i, item in enumerate(dataset):
        if not isinstance(item, dict) or set(item) != {"one_line", "count"}:
            raise PlanValidationError(
                f"initial.dataset[{i}]", "expected an object with one_line and count"
            )
        one_line = item["one_line"]
        if not isinstance(one_line, list) or not all(_plain_int(v) for v in one_line):
            raise PlanValidationError(
                f"initial.dataset[{i}].one_line", "expected an array of integers"
            )
        count = item["count"]
        if not _plain_int(count) or count < 1:
            raise PlanValidationError(
                f"initial.dataset[{i}].count", "count must be an integer >= 1"
            )
        entries.append((tuple(one_line), count))
    try:
        initial = EmpiricalInitial(entries=tuple(entries))
    except ValueError as err:
        raise PlanValidationError("initial.dataset", str(err)) from None
    if initial.degree != n:
        raise PlanValidationError(
            "initial.dataset",
            f"dataset degree {initial.degree} differs from plan degree {n}",
        )
    if encoding == "amplitude" and not opt_in:
        raise PlanValidationError(
            "initial",
            "empirical initial expects born encoding; "
            "set amplitude_empirical_ok to override",
        )
    return initial


_PLAN_FIELDS = (
    "n", "encoding", "seed", "initial", "steps", "sharpening",
    "amplitude_empirical_ok",
)


def plan_from_json(text: str) -> ExperimentPlan:
    """Parse and validate a plan document; errors name the offending field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise PlanValidationError("document", f"not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise PlanValidationError("document", "plan must be a JSON object")
    for key in doc:
        if key not in _PLAN_FIELDS:
            raise PlanValidationError(key, "unknown field")

    n = doc.get("n")
    if not _plain_int(n) or n < 1:
        raise PlanValidationError("n", "a positive integer degree is required")
    encoding = doc.get("encoding", "amplitude")
    if encoding not in ENCODINGS:
        raise PlanValidationError("encoding", "encoding must be amplitude|born")
    seed = doc.get("seed", 0)
    if not _plain_int(seed) or not 0 <= seed < 2**64:
        raise PlanValidationError("seed", "seed must be an unsigned 64-bit integer")
    steps_doc = doc.get("steps", [])
    if not isinstance(steps_doc, list):
        raise PlanValidationError("steps", "steps must be an array")
    steps = tuple(
        _parse_step(item, f"steps[{i}]") for i, item in enumerate(steps_doc)
    )
    for i, step in enumerate(steps):
        if isinstance(step, ConditioningStep):
            try:
                step.observation.check_degree(n)
            except ValueError as err:
                raise PlanValidationError(
                    f"steps[{i}].observation", str(err)
                ) from None
    sharpening = doc.get("sharpening")
    if sharpening is not None and (not _plain_int(sharpening) or sharpening < 1):
        raise PlanValidationError("sharpening", "exponent must be an integer >= 1")
    opt_in = doc.get("amplitude_empirical_ok", False)
    if not isinstance(opt_in, bool):
        raise PlanValidationError("amplitude_empirical_ok", "must be a boolean")
    initial = _parse_initial(doc.get("initial", "identity"), n, encoding, opt_in)

    try:
        return ExperimentPlan(
            n=n, steps=steps, encoding=encoding, initial=initial, seed=seed,
            sharpening=sharpening, amplitude_empirical_ok=opt_in,
        )
    except ValueError as err:
        raise PlanValidationError("plan", str(err)) from None
