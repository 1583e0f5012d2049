"""The README's code examples run as written."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

from snfourier.pipeline import run_plan
from snfourier.serialize import plan_from_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under a README heading."""
    section = README.split(heading + "\n", 1)[1].split("\n#", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(_block("### Library quick start", "python"), namespace)
    report = namespace["report"]
    assert np.allclose(report.posterior, [0.75, 0.25, 0, 0, 0, 0], atol=1e-12)
    assert math.prod(e["success_prob"] for e in report.ledger) == report.p_total


def test_plan_schema_example_runs():
    plan = plan_from_json(_block("### Plan schema", "json"))
    assert plan.n == 4 and len(plan.steps) == 2 and plan.sharpening == 3
    _, report = run_plan(plan)
    assert [entry["type"] for entry in report.ledger] == [
        "diffusion", "conditioning", "sharpen"]
    assert np.isclose(report.posterior.sum(), 1.0)
