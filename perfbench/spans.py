"""Span tracing from outside the library, and the per-layer figures it yields.

`Tracer.install` wraps each layer's public functions under the names their
callers import them by (for example `pipeline.gft_forward` and
`cli.run_plan`), so no library file changes. A span records its name, start,
end, parent span and operation id; spans stay in memory until the run ends.
Table and irrep-stack builders are cached, so their wrappers keep a span only
when the call missed the cache, which is when the build happened.
"""

from __future__ import annotations

import importlib
import json
import statistics
from pathlib import Path
from time import perf_counter


# (module, attribute, span name, attrs from (args, kwargs, result))
LAYER_SITES = [
    ("snfourier.cli", "plan_from_json", "serialize.parse", None),
    ("snfourier.cli", "run_plan", "pipeline.run_plan", lambda a, k, r: {
        "swaps": sum(e.get("swaps", 0) for e in r[1].ledger)}),
    ("snfourier.cli", "gft_forward", "transform.forward", None),
    ("snfourier.pipeline", "gft_forward", "transform.forward", None),
    ("snfourier.pipeline", "gft_inverse", "transform.inverse", None),
    # the born route returns the renormalization, whose square is p_s
    ("snfourier.pipeline", "apply_diffusion_born", "diffusion.apply", lambda a, k, r: {
        "d": a[1].d, "p_s": r[1] * r[1]}),
    ("snfourier.pipeline", "apply_diffusion_spectral", "diffusion.apply",
     lambda a, k, r: {"d": a[1].d, "p_s": r[1]}),
    ("snfourier.pipeline", "reorder_update_condition", "conditioning.update",
     lambda a, k, r: {"p_s": r[1]}),
    ("snfourier.conditioning", "ranks_after_sequence", "perms.relabel", None),
    ("snfourier.pipeline", "sharpen_map", "pipeline.sharpen", None),
    ("snfourier.pipeline.EmpiricalInitial", "counts_vector", "pipeline.initial", None),
    ("snfourier.cli", "sample_computational", "pipeline.sample",
     lambda a, k, r: {"draws": len(r)}),
    ("snfourier.cli", "sample_fourier", "pipeline.sample",
     lambda a, k, r: {"draws": len(r[0])}),
] + [
    ("snfourier.cli", writer, "serialize.write",
     lambda a, k, r: {"bytes": len(r.encode("utf-8"))})
    for writer in ("posterior_to_csv", "spectrum_to_json", "ledger_to_jsonl",
                   "report_to_json", "samples_to_csv", "partition_samples_to_csv",
                   "fourier_distribution_to_json")
]

# Cached builders: (module, attribute, span name)
BUILD_SITES = [
    ("snfourier.transform", "irrep_stack", "yor.stack_build"),
] + [
    ("snfourier._backend", table, "perms.table")
    for table in ("factorial_weights", "swap_sequence", "all_digits", "all_perms0",
                  "all_inverses0")
] + [
    (module, "all_one_lines", "perms.table")
    for module in ("snfourier.conditioning", "snfourier.pipeline",
                   "snfourier.serialize", "snfourier.transform")
]


class Tracer:
    """In-memory span recorder that patches layer entry points while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.op = None

    def _open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, perf_counter()

    def _close(self, name, span_id, parent, start, attrs=None):
        end = perf_counter()
        self._stack.pop()
        self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                           "parent": parent, "op": self.op, **(attrs or {})})

    def run_op(self, op_id: int, fn, *args, **attrs):
        """Run one operation under a root span named `cli.command`."""
        self.op = op_id
        span_id, parent, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close("cli.command", span_id, parent, start, attrs)

    def _layer_wrapper(self, fn, name, extract):
        def traced(*args, **kwargs):
            span_id, parent, start = self._open()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                attrs = extract(args, kwargs, result) if extract else None
                return result
            finally:
                self._close(name, span_id, parent, start, attrs)
        return traced

    def _build_wrapper(self, fn, name):
        cached = fn.cache_info

        def traced(*args, **kwargs):
            misses = cached().misses
            span_id, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                raise
            if cached().misses > misses:
                self._close(name, span_id, parent, start,
                            {"bytes": int(getattr(result, "nbytes", 0))})
            else:
                self._stack.pop()
            return result
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, attr, name, extract in LAYER_SITES:
            owner = _owner(module)
            self._patch(owner, attr, self._layer_wrapper(getattr(owner, attr), name, extract))
        for module, attr, name in BUILD_SITES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._build_wrapper(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _owner(dotted: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _self_time(span, children) -> float:
    return (span["end"] - span["start"]) - sum(
        c["end"] - c["start"] for c in children.get(span["id"], ()))


def load_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def op_figures(spans: list[dict], fact: int) -> dict:
    """Per-layer figures of one operation from its spans; fact is n!."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in pick(name))

    forward, inverse = pick("transform.forward"), pick("transform.inverse")
    diffusion, updates = pick("diffusion.apply"), pick("conditioning.update")
    tables = pick("perms.table")
    table_ids = {s["id"] for s in tables}
    writes = pick("serialize.write")
    return {
        "yor.stack_build_s": total("yor.stack_build"),
        "yor.stack_bytes": sum(s["bytes"] for s in pick("yor.stack_build")),
        "transform.forward_calls": len(forward),
        "transform.forward_s": total("transform.forward"),
        "transform.inverse_calls": len(inverse),
        "transform.inverse_s": total("transform.inverse"),
        # the dense route reads every (n!, d, d) stack once: sum_lam n! d^2 = (n!)^2
        "transform.bytes_read": (len(forward) + len(inverse)) * fact * fact * 8,
        "diffusion.apply_calls": len(diffusion),
        "diffusion.apply_s": total("diffusion.apply"),
        "diffusion.walk_steps": sum(s["d"] for s in diffusion),
        "diffusion.success_probs": [s["p_s"] for s in diffusion],
        "conditioning.update_calls": len(updates),
        "conditioning.update_s": total("conditioning.update"),
        "conditioning.swaps": sum(s["swaps"] for s in pick("pipeline.run_plan")),
        "conditioning.success_probs": [s["p_s"] for s in updates],
        "perms.relabel_calls": len(pick("perms.relabel")),
        "perms.relabel_s": total("perms.relabel"),
        "perms.tables_s": sum(s["end"] - s["start"] for s in tables
                              if s["parent"] not in table_ids),
        "perms.table_bytes": sum(s["bytes"] for s in tables),
        "pipeline.run_plan_self_s": sum(_self_time(s, children)
                                        for s in pick("pipeline.run_plan")),
        "pipeline.initial_s": total("pipeline.initial"),
        "pipeline.sharpen_s": total("pipeline.sharpen"),
        "pipeline.sample_s": total("pipeline.sample"),
        "pipeline.draws": sum(s["draws"] for s in pick("pipeline.sample")),
        "serialize.write_s": total("serialize.write"),
        "serialize.parse_s": total("serialize.parse"),
        "serialize.bytes_written": sum(s["bytes"] for s in writes),
        "cli.self_s": sum(_self_time(s, children) for s in pick("cli.command")),
    }


# Figures paid once per process, read from the first (set-up) operation.
SETUP_FIGURES = ("yor.stack_build_s", "yor.stack_bytes", "perms.tables_s",
                 "perms.table_bytes")


def layer_metrics(setup: dict, warm: list[dict]) -> dict:
    """Per-layer metrics: set-up figures from the first operation, then the
    median per warm operation for times and the mean for counts."""
    out = {name: setup[name] for name in SETUP_FIGURES}
    for name in warm[0]:
        if name in SETUP_FIGURES:
            continue
        values = [fig[name] for fig in warm]
        if name.endswith("success_probs"):
            probs = [p for v in values for p in v]
            out[name.replace("success_probs", "success_prob_mean")] = (
                statistics.fmean(probs) if probs else 0.0)
        elif name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = statistics.fmean(values)
    return out
