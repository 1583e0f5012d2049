"""Seeded plan generators for the benchmark workloads.

Each workload turns a seed into a small pool of plan documents in the JSON
form `snfourier run|sample --plan` reads; the CLI sees only those files. The
same seed always yields the same pool, byte for byte.

The family is the Huang-Guestrin-Guibas setting ("Fourier theoretic
probabilistic inference over permutations", JMLR 2009): an empirical prior
over permutations, mixing between sparse observations, then sharpening.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Plans per run. The closed loop cycles through the pool, so one run averages
# over many plans: a pool of 4 let the seed alone move op_p50_ms by about 15%
# on condition-n8, where a plan's cost follows its swap count.
POOL_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "run" or "sample"
    why: str
    make_plan: Callable[[random.Random], dict]
    draws: int = 0          # `sample --count`; unused by `run`

    def argv(self, plan_path: str, out: str) -> list[str]:
        argv = [self.command, "--plan", plan_path, "--out", out]
        if self.command == "sample":
            argv += ["--count", str(self.draws), "--mode", "computational"]
        return argv


def _empirical(rng: random.Random, n: int, size: int) -> dict:
    seen = set()
    dataset = []
    while len(dataset) < size:
        line = list(range(1, n + 1))
        rng.shuffle(line)
        if tuple(line) in seen:
            continue
        seen.add(tuple(line))
        dataset.append({"one_line": line, "count": rng.randint(1, 5)})
    return {"kind": "empirical", "dataset": dataset}


def _ranking(rng: random.Random, n: int, s: float) -> dict:
    items = rng.sample(range(1, n + 1), rng.randint(2, n - 1))
    return {"type": "conditioning",
            "observation": {"kind": "ranking", "items": items, "s": s}}


def _assignment(rng: random.Random, n: int, s: float) -> dict:
    width = rng.randint(1, 2)
    return {"type": "conditioning", "observation": {
        "kind": "assignment",
        "indices": rng.sample(range(1, n + 1), width),
        "values": rng.sample(range(1, n + 1), width),
        "s": s,
    }}


def _plan(rng: random.Random, n: int, prior: int, steps: list,
          sharpening: int) -> dict:
    return {
        "n": n,
        "encoding": "born",
        "seed": rng.randrange(2**32),
        "initial": _empirical(rng, n, prior),
        "steps": steps,
        "sharpening": sharpening,
    }


def infer_n7(rng: random.Random) -> dict:
    n = 7
    steps = []
    for _ in range(3):
        steps.append({"type": "diffusion", "p": 0.7, "d": 2})
        steps.append(_ranking(rng, n, 0.8))
    return _plan(rng, n, 3 * n, steps, 3)


def mixing_n6(rng: random.Random) -> dict:
    n = 6
    steps = []
    for _ in range(3):
        steps.append({"type": "diffusion",
                      "p": round(rng.uniform(0.55, 0.9), 4),
                      "d": rng.randint(24, 48)})
        steps.append(_ranking(rng, n, 0.85))
    return _plan(rng, n, 3 * n, steps, 3)


def condition_n8(rng: random.Random) -> dict:
    n = 8
    steps = []
    for i in range(12):
        steps.append(_assignment(rng, n, 0.75) if i % 2 == 0
                     else _ranking(rng, n, 0.8))
    return _plan(rng, n, 50, steps, 2)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "infer-n7", "run",
            "dense Fourier route at the largest degree that fits in memory",
            infer_n7,
        ),
        Workload(
            "mixing-n6", "run",
            "same layers used differently: long walks (d 24-48) at small n",
            mixing_n6,
        ),
        Workload(
            "condition-n8", "sample",
            "conditioning and perms only; never touches transform, yor or "
            "diffusion",
            condition_n8,
            draws=2000,
        ),
    )
}


def make_pool(name: str, seed: int) -> list[dict]:
    """The seeded plan pool of one workload."""
    rng = random.Random(f"{name}:{seed}")
    return [WORKLOADS[name].make_plan(rng) for _ in range(POOL_SIZE)]


def plan_text(plan: dict) -> str:
    return json.dumps(plan, sort_keys=True) + "\n"
