"""Census: every function in src/ is reached by a CLI command or `verify`.

A call-level tracer runs `cli.main` over small plans that take every branch
of the commands, in a fresh process so that no cached table or FFT program is
already built. A module-level function or method of `snfourier` that no
command reaches must be one that perfbench/spans.py patches by name (it
becomes deletable when that monkeypatch goes) or one that an acceptance
criterion tests as a paper claim. A listed function that a command does
reach is stale and fails too. No command may import snfourier._backend,
which holds only what perfbench reads or patches.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parents[1]

# acceptance criterion -> functions it tests and no command calls
ACCEPTANCE_ONLY = {
    "5/6 irreducible representations": (
        "snfourier.yor.standard_tableaux", "snfourier.yor.irrep_of"),
    "12 block encoding": (
        "snfourier.pipeline.state_prep_unitary",
        "snfourier.pipeline.verify_posterior_block_encoding"),
    "13 Kronecker multiplicities": (
        "snfourier.partitions.kronecker_multiplicity",
        "snfourier.partitions.conjugacy_classes", "snfourier.partitions.character",
        "snfourier.partitions._class_size"),
}

# Runs each argv through cli.main under sys.settrace, then prints one JSON
# object: the exit codes, whether any command imported snfourier._backend,
# and for every module-level function and method defined in a snfourier
# module whether any command called it.
_TRACED = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys

reached = set()

def trace(frame, event, arg):
    reached.add(frame.f_code)  # only call events arrive: no local tracer is returned

sys.settrace(trace)
import snfourier
from snfourier import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
# before the walk below imports every module
backend_loaded = "snfourier._backend" in sys.modules

def defined(owner, module):
    for obj in vars(owner).values():
        obj = getattr(obj, "fget", obj)  # property
        obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
        obj = getattr(obj, "__wrapped__", obj)  # lru_cache
        if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
            yield obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ and owner is module:
            yield from defined(obj, module)

functions = {}
for info in pkgutil.iter_modules(snfourier.__path__):
    module = importlib.import_module(f"snfourier.{info.name}")
    for fn in defined(module, module):
        functions[f"{module.__name__}.{fn.__qualname__}"] = fn.__code__ in reached
print(json.dumps({"codes": codes, "backend_loaded": backend_loaded, "functions": functions}))
"""


def _plan(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _diffuse(p, d):
    return {"type": "diffusion", "p": p, "d": d}


def _observe(**observation):
    return {"type": "conditioning", "observation": observation}


def _commands(tmp: Path):
    """(argv, expected exit code) pairs whose plans take every branch."""
    dataset = [{"one_line": line, "count": 1 + i % 3}
               for i, line in enumerate(oracles.all_perms_lex(5)[::17])]
    identity_first_diffusion = _plan(tmp / "identity.json", {
        "n": 4, "seed": 3, "sharpening": 2,
        "steps": [_diffuse(0.7, 2), _observe(kind="ranking", items=[1, 3, 2], s=0.8),
                  _diffuse("1/3", 1), _observe(kind="assignment", indices=[2],
                                                values=[1], s=0.9)]})
    born_first_condition = _plan(tmp / "born.json", {
        "n": 5, "encoding": "born", "seed": 4, "sharpening": 1,
        "initial": {"kind": "empirical", "dataset": dataset},
        "steps": [_observe(kind="assignment", indices=[], values=[]),
                  _observe(kind="ranking", items=[2, 5], s=0.9), _diffuse(0.6, 1)]})
    amplitude_prior = _plan(tmp / "amplitude.json", {
        "n": 5, "amplitude_empirical_ok": True,
        "initial": {"kind": "empirical", "dataset": dataset},
        "steps": [_observe(kind="ranking", items=[4, 1], s=0.75)]})
    bad_field = _plan(tmp / "bad.json", {"n": 4, "steps": [_diffuse(1.5, 1)]})
    annihilated = _plan(tmp / "annihilated.json", {
        "n": 4, "sharpening": 1000, "steps": [_diffuse(0.6, 3)]})
    (tmp / "h.csv").write_text(oracles.function_csv_rows(
        oracles.random_unit(np.random.default_rng(6), 120)), encoding="utf-8")
    out = ["--out", str(tmp / "out")]
    return [
        (["run", "--plan", identity_first_diffusion, *out], 0),
        (["run", "--plan", born_first_condition, *out], 0),
        (["run", "--plan", amplitude_prior, *out], 0),
        (["run", "--plan", bad_field, *out], 2),
        (["run", "--plan", annihilated, *out], 4),
        (["sample", "--plan", identity_first_diffusion, *out, "--count", "50"], 0),
        (["sample", "--plan", born_first_condition, *out, "--count", "50"], 0),
        (["sample", "--plan", born_first_condition, *out, "--count", "50",
          "--mode", "fourier"], 0),
        (["spectrum", "--input", str(tmp / "h.csv"), *out], 0),
        (["spectrum", "--input", str(tmp / "h.csv"), *out, "--format", "csv",
          "--normalization", "plain"], 0),
        (["verify", "--n-max", "4"], 0),
    ]


def _patched_by_perfbench():
    """Qualified names of the functions perfbench/spans.py patches."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans_sites", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = set()
    for module, attr, *_ in spans.LAYER_SITES + spans.BUILD_SITES:
        fn = getattr(spans._owner(module), attr)
        fn = getattr(fn, "__wrapped__", fn)
        names.add(f"{fn.__module__}.{fn.__qualname__}")
    return names


def test_every_function_in_src_is_reached_or_exempt(tmp_path):
    commands = _commands(tmp_path)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _TRACED,
         json.dumps([argv for argv, _ in commands])],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    census = json.loads(done.stdout.splitlines()[-1])
    assert census["codes"] == [code for _, code in commands]
    assert not census["backend_loaded"], "a command imports snfourier._backend"

    functions = census["functions"]
    listed = {name for names in ACCEPTANCE_ONLY.values() for name in names}
    assert listed <= set(functions), f"not defined in src: {sorted(listed - set(functions))}"
    unreached = {name for name, hit in functions.items() if not hit}
    assert unreached - listed - _patched_by_perfbench() == set(), \
        "no command reaches these; delete them or move them to tests/oracles.py"
    assert listed - unreached == set(), \
        "a command now reaches these; take them off ACCEPTANCE_ONLY"
