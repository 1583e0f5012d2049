"""Direct-space reference results and the output checks built on them.

The reference replays a plan without the Fourier layer: conditioning chains
the public `conditioning.bayes_update`, diffusion applies
p*psi + (1-p)/C(n,2) * sum_t psi[idx_t] d times over transposition rank
tables built here, and sharpening is an entrywise power. It is computed once
per plan, before any timing starts.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from snfourier.conditioning import Observation, bayes_update

TOL = 1e-10


def lex_one_lines(n: int) -> np.ndarray:
    """(n!, n) 1-based one-line forms in lexicographic (= Lehmer rank) order."""
    return np.array(list(itertools.permutations(range(1, n + 1))),
                    dtype=np.int64).reshape(math.factorial(n), n)


def ranks_of(lines: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of 1-based one-line rows, via Lehmer digits."""
    m, n = lines.shape
    ranks = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        digit = np.sum(lines[:, i + 1:] < lines[:, i:i + 1], axis=1)
        ranks += digit * math.factorial(n - 1 - i)
    return ranks


def transposition_tables(lines: np.ndarray) -> np.ndarray:
    """Row t holds, for every rank r, the rank of sigma_r composed with t."""
    n = lines.shape[1]
    tables = []
    for i, j in itertools.combinations(range(n), 2):
        swapped = lines.copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        tables.append(ranks_of(swapped))
    return np.array(tables)


def _observation(doc: dict) -> Observation:
    if doc["kind"] == "assignment":
        return Observation("assignment", s=doc["s"], indices=tuple(doc["indices"]),
                           values=tuple(doc["values"]))
    return Observation("ranking", s=doc["s"], items=tuple(doc["items"]))


@dataclass
class Expected:
    """Reference result of one plan."""

    amplitudes: np.ndarray      # final unit state, indexed by rank
    posterior: np.ndarray
    success_probs: np.ndarray   # one per ledger entry, in order
    kinds: tuple                # ledger entry types, in order
    p_total: float

    def save(self, path: Path) -> None:
        np.savez(path, amplitudes=self.amplitudes,
                 posterior=self.posterior, success_probs=self.success_probs,
                 kinds=np.array(self.kinds), p_total=self.p_total)

    @classmethod
    def load(cls, path: Path) -> "Expected":
        with np.load(path) as data:
            return cls(data["amplitudes"], data["posterior"],
                       data["success_probs"], tuple(str(k) for k in data["kinds"]),
                       float(data["p_total"]))


def expected_for(plan: dict) -> Expected:
    n = plan["n"]
    encoding = plan.get("encoding", "amplitude")
    lines = lex_one_lines(n)
    counts = np.zeros(len(lines))
    for entry in plan["initial"]["dataset"]:
        rank = ranks_of(np.array([entry["one_line"]], dtype=np.int64))[0]
        counts[rank] += entry["count"]
    h = counts / counts.sum()
    psi = np.sqrt(h) if encoding == "born" else h / np.linalg.norm(h)

    tables = None
    probs, kinds = [], []
    for step in plan["steps"]:
        if step["type"] == "diffusion":
            if tables is None:
                tables = transposition_tables(lines)
            p, weight = float(step["p"]), (1.0 - float(step["p"])) / math.comb(n, 2)
            for _ in range(step["d"]):
                psi = p * psi + weight * psi[tables].sum(axis=0)
            p_s = float(psi @ psi)
            psi = psi / math.sqrt(p_s)
        else:
            psi, p_s = bayes_update(psi, _observation(step["observation"]), encoding)
        probs.append(p_s)
        kinds.append(step["type"])
    m = plan.get("sharpening")
    if m is not None:
        powered = psi**m
        p_s = float(powered @ powered) if m > 1 else 1.0
        psi = powered / math.sqrt(p_s)
        probs.append(p_s)
        kinds.append("sharpen")

    a = np.maximum(psi, 0.0)
    post = a if encoding == "amplitude" else a * a
    return Expected(psi, post / post.sum(), np.array(probs), tuple(kinds),
                    math.prod(probs))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=1e-300)


def check_run(out: Path, exp: Expected, one_lines: np.ndarray) -> list[str]:
    """Errors in the four `run` artifacts against the reference; [] if none.

    one_lines is `lex_one_lines(n)`, passed in so repeated checks share it.
    """
    errors = []
    rows = (out / "posterior.csv").read_text(encoding="utf-8").splitlines()
    if rows[0] != "rank,one_line,probability" or len(rows) != len(exp.posterior) + 1:
        return ["posterior.csv: wrong header or row count"]
    post = np.empty(len(exp.posterior))
    for rank, (row, line) in enumerate(zip(rows[1:], one_lines)):
        head, _, value = row.rpartition(",")
        if head != f"{rank}," + " ".join(map(str, line)):
            return [f"posterior.csv: row {rank} labels the wrong permutation"]
        post[rank] = float(value)
    worst = float(np.max(np.abs(post - exp.posterior)))
    if not worst <= TOL:
        errors.append(f"posterior.csv: off the reference by {worst:.3g}")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if not _close(report["p_total"], exp.p_total):
        errors.append(f"report.json: p_total {report['p_total']!r} != {exp.p_total!r}")

    ledger = [json.loads(line) for line in
              (out / "ledger.jsonl").read_text(encoding="utf-8").splitlines()]
    if [entry["type"] for entry in ledger] != list(exp.kinds):
        errors.append("ledger.jsonl: not one entry per plan step")
    elif not all(_close(entry["success_prob"], p)
                 for entry, p in zip(ledger, exp.success_probs)):
        errors.append("ledger.jsonl: a success_prob is off the reference")

    blocks = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))["blocks"]
    energy = sum(float(np.sum(np.square(b))) for b in blocks.values())
    n = one_lines.shape[1]
    trivial = blocks[f"[{n}]"][0][0]
    if not abs(energy - 1.0) <= TOL:
        errors.append(f"spectrum.json: total energy {energy!r} != 1")
    if not _close(trivial, float(exp.amplitudes.sum()) / math.sqrt(len(exp.posterior))):
        errors.append("spectrum.json: trivial block is off the reference")
    return errors


def check_sample(out: Path, exp: Expected, count: int) -> list[str]:
    """Errors in `sample --mode computational` output; [] if none."""
    rows = (out / "samples.csv").read_text(encoding="utf-8").splitlines()
    if rows[0] != "draw,one_line" or len(rows) != count + 1:
        return ["samples.csv: wrong header or row count"]
    n = next(k for k in range(1, 13) if math.factorial(k) == len(exp.posterior))
    lines = np.array([[int(v) for v in row.partition(",")[2].split()]
                      for row in rows[1:]], dtype=np.int64)
    if lines.shape != (count, n) or np.any(np.sort(lines, axis=1) != np.arange(1, n + 1)):
        return ["samples.csv: a draw is not a permutation of the plan's degree"]
    if not np.all(exp.posterior[ranks_of(lines)] > 0):
        return ["samples.csv: a draw has zero posterior mass"]
    return []
