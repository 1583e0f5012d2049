"""End-to-end plans: ledger, sampling, sharpening, block encoding."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import oracles
import snfourier.pipeline
from oracles import reorder_sequence
from snfourier.cli import main
from snfourier.conditioning import Observation, bayes_update
from snfourier.diffusion import kernel_as_function
from snfourier.errors import AnnihilatedStateError, DegreeGuardError, PlanValidationError
from snfourier.partitions import Partition, irrep_dimension, enumerate_partitions
from snfourier.perms import all_one_lines
from snfourier.pipeline import DiffusionStep, EmpiricalInitial, \
    ExperimentPlan, ModelState, amplification_cost, encode_distribution, run_plan, \
    sample_computational, sample_fourier, sharpen_map, state_prep_unitary, \
    verify_posterior_block_encoding
from snfourier.transform import convolve

RNG = np.random.default_rng(47)


def delta_state(n, encoding="amplitude"):
    amps = np.zeros(math.factorial(n))
    amps[0] = 1.0
    return ModelState(amplitudes=amps, encoding=encoding)


def classical_shadow(plan):
    """Dense Markov-plus-Bayes recursion, squarely independent of run_plan."""
    n = plan.n
    h = np.zeros(math.factorial(n))
    h[0] = 1.0
    for step in plan.steps:
        if isinstance(step, DiffusionStep):
            q = kernel_as_function(step, n)
            big_q = oracles.markov_matrix_oracle(n, q)
            for _ in range(step.d):
                h = big_q @ h
        else:
            obs = step
            like = np.empty_like(h)
            for r, ol in enumerate(oracles.all_perms_lex(n)):
                if obs.kind == "assignment":
                    ok = all(ol[i - 1] == j
                             for i, j in zip(obs.indices, obs.values))
                else:
                    pos = [ol[i - 1] for i in obs.items]
                    ok = all(a < b for a, b in zip(pos, pos[1:]))
                like[r] = obs.s if ok else 1.0 - obs.s
            h = like * h / np.sum(like * h)
    return h


def random_plan(n, rng, hard_ok=False):
    steps = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            steps.append(DiffusionStep(p=float(rng.uniform(0.2, 0.95)),
                                       d=int(rng.integers(1, 3))))
        else:
            s = 1.0 if (hard_ok and rng.random() < 0.3) \
                else float(rng.uniform(0.55, 0.95))
            if rng.random() < 0.5:
                k = int(rng.integers(1, 3))
                obs = Observation(
                    kind="assignment",
                    indices=tuple(int(v) for v in
                                  rng.choice(n, size=k, replace=False) + 1),
                    values=tuple(int(v) for v in
                                 rng.choice(n, size=k, replace=False) + 1),
                    s=s,
                )
            else:
                k = int(rng.integers(2, 4))
                obs = Observation(
                    kind="ranking",
                    items=tuple(int(v) for v in
                                rng.choice(n, size=k, replace=False) + 1),
                    s=s,
                )
            steps.append(obs)
    return ExperimentPlan(n=n, steps=tuple(steps))


def test_ledger_swaps_count_relabel_and_uncompute():
    rng = np.random.default_rng(4711)
    empty = (Observation(kind="assignment", s=0.8),
             Observation(kind="ranking", items=(2,), s=0.9))
    total = 0
    for _ in range(12):
        n = int(rng.integers(3, 7))
        plan = ExperimentPlan(n=n, steps=random_plan(n, rng).steps + empty)
        _, report = run_plan(plan)
        entries = [e for e in report.ledger if e["type"] == "conditioning"]
        observations = [s for s in plan.steps if isinstance(s, Observation)]
        assert len(entries) == len(observations)
        for entry, obs in zip(entries, observations):
            if obs.is_empty:
                assert entry["swaps"] == 0
                continue
            mode = "to_front" if obs.kind == "assignment" else "to_back"
            assert entry["swaps"] == 2 * len(reorder_sequence(n, obs.touched(), mode))
            total += entry["swaps"]
    assert total > 0


def test_empty_plan_is_identity():
    plan = ExperimentPlan(n=3, steps=())
    state, report = run_plan(plan)
    assert report.p_total == 1.0
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.array_equal(state.amplitudes, expected)
    assert np.array_equal(report.posterior, expected)


def test_single_story_diffuse_then_condition():
    plan = ExperimentPlan(
        n=3,
        steps=(
            DiffusionStep(p=0.5, d=1),
            Observation(
                kind="assignment", indices=(1,), values=(1,), s=1.0),
        ),
    )
    state, report = run_plan(plan)
    assert np.allclose(report.posterior, [0.75, 0.25, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(report.posterior, classical_shadow(plan), atol=1e-12)
    assert set(np.nonzero(report.posterior > 1e-12)[0]) == {0, 1}


def test_pipeline_shadow_matches_dense_oracle():
    for trial in range(20):
        n = int(RNG.integers(3, 6))
        plan = random_plan(n, RNG)
        _, report = run_plan(plan)
        assert np.allclose(report.posterior, classical_shadow(plan), atol=1e-10)


def test_ledger_product_equals_unrenormalized_norm():
    for trial in range(15):
        n = int(RNG.integers(3, 6))
        plan = random_plan(n, RNG)
        _, report = run_plan(plan)
        raw = np.zeros(math.factorial(n))
        raw[0] = 1.0
        for step in plan.steps:
            if isinstance(step, DiffusionStep):
                q = kernel_as_function(step, n)
                for _ in range(step.d):
                    raw = convolve(q, raw)
            else:
                obs = step
                like = np.array([
                    obs.s if all(ol[i - 1] == j for i, j in
                                 zip(obs.indices, obs.values))
                    else 1.0 - obs.s
                    for ol in oracles.all_perms_lex(n)
                ]) if obs.kind == "assignment" else None
                if like is None:
                    like = np.empty(math.factorial(n))
                    for r, ol in enumerate(oracles.all_perms_lex(n)):
                        pos = [ol[i - 1] for i in obs.items]
                        like[r] = obs.s if all(a < b for a, b in
                                               zip(pos, pos[1:])) else 1.0 - obs.s
                raw = like * raw
        product = 1.0
        for entry in report.ledger:
            product *= entry["success_prob"]
        assert product == pytest.approx(float(np.sum(raw * raw)), abs=1e-10)
        assert report.p_total == pytest.approx(product, abs=1e-12)


def test_p_total_dominates_paper_bound():
    count = 0
    for trial in range(30):
        n = int(RNG.integers(3, 6))
        base = random_plan(n, RNG, hard_ok=True)
        steps = tuple(
            DiffusionStep(p=float(RNG.uniform(0.55, 0.95)), d=s.d)
            if isinstance(s, DiffusionStep) else s
            for s in base.steps
        )
        uniform = EmpiricalInitial(entries=tuple(
            (ol, 1) for ol in oracles.all_perms_lex(n)))
        plan = ExperimentPlan(n=n, steps=steps, encoding="born", initial=uniform)
        _, report = run_plan(plan)
        if report.lower_bound is None:
            continue
        count += 1
        assert report.p_total >= report.lower_bound - 1e-12
    assert count >= 25


def test_lower_bound_note_names_an_underflowed_product():
    _, report = run_plan(ExperimentPlan(n=3, steps=(DiffusionStep(p=0.7, d=500),)))
    assert report.lower_bound == 0.0
    assert "underflows double precision" in report.lower_bound_note
    _, report = run_plan(ExperimentPlan(n=3, steps=(DiffusionStep(p=0.7, d=5),)))
    assert report.lower_bound == pytest.approx(0.4**10, rel=1e-12)
    assert report.lower_bound_note == \
        "diffusion bounds times measured conditioning probabilities"


def test_born_conditioning_only_plan():
    n = 4
    obs = Observation(kind="ranking", items=(2, 4, 1), s=0.8)
    uniform = EmpiricalInitial(entries=tuple(
        (ol, 1) for ol in oracles.all_perms_lex(n)))
    plan = ExperimentPlan(n=n, steps=(obs,),
                          encoding="born", initial=uniform)
    state, report = run_plan(plan)
    h = np.full(24, 1.0 / 24.0)
    like = np.empty(24)
    for r, ol in enumerate(oracles.all_perms_lex(n)):
        pos = [ol[i - 1] for i in obs.items]
        like[r] = obs.s if all(a < b for a, b in zip(pos, pos[1:])) else 0.2
    expected = like * h / np.sum(like * h)
    assert np.allclose(report.posterior, expected, atol=1e-10)
    assert np.allclose(state.amplitudes, np.sqrt(expected), atol=1e-10)


def test_run_plan_annihilation_surfaces():
    # two contradictory hard assignments
    plan = ExperimentPlan(
        n=3,
        steps=(
            Observation(
                kind="assignment", indices=(1,), values=(1,), s=1.0),
            Observation(
                kind="assignment", indices=(1,), values=(2,), s=1.0),
        ),
    )
    with pytest.raises(AnnihilatedStateError):
        run_plan(plan)


def _support_plan(n, encoding, rng):
    """A conditioning-only plan whose hard steps keep one prior permutation.

    The prior repeats entries, or is the identity; the steps mix soft and
    hard (s = 1) assignments and rankings with empty observations.
    """
    if rng.random() < 0.25:
        initial, kept = "identity", tuple(range(1, n + 1))
    else:
        lines = [tuple(int(v) for v in rng.permutation(n) + 1) for _ in range(6)]
        lines += lines[:3]
        initial = EmpiricalInitial(entries=tuple(
            (line, int(rng.integers(1, 6))) for line in lines))
        kept = lines[0]
    steps = [Observation("assignment", s=0.9), Observation("ranking", items=(n,), s=0.7)]
    for _ in range(6):
        hard = rng.random() < 0.3
        s = 1.0 if hard else round(float(rng.uniform(0.55, 0.95)), 3)
        if rng.random() < 0.5:
            slots = tuple(int(i) + 1 for i in rng.choice(n, size=min(2, n - 1),
                                                          replace=False))
            values = (tuple(kept[i - 1] for i in slots) if hard else
                      tuple(int(v) + 1 for v in rng.choice(n, size=len(slots),
                                                            replace=False)))
            steps.append(Observation("assignment", s=s, indices=slots, values=values))
        else:
            items = [int(i) + 1 for i in rng.choice(n, size=min(3, n), replace=False)]
            if hard:
                items.sort(key=lambda item: kept[item - 1])
            steps.append(Observation("ranking", s=s, items=tuple(items)))
    rng.shuffle(steps)
    return ExperimentPlan(n=n, steps=tuple(steps), encoding=encoding, initial=initial,
                          sharpening=int(rng.integers(1, 4)),
                          amplitude_empirical_ok=True)


@pytest.mark.parametrize("encoding", ["amplitude", "born"])
@pytest.mark.parametrize("n", range(3, 9))
def test_support_route_equals_dense_bayes_chain(n, encoding):
    rng = np.random.default_rng(100 * n + len(encoding))
    for _ in range(4):
        plan = _support_plan(n, encoding, rng)
        if plan.initial == "identity":
            psi = np.zeros(math.factorial(n))
            psi[0] = 1.0
        else:
            h = plan.initial.counts_vector(n)
            psi = encode_distribution(h / h.sum(), encoding)
        probs = []
        for obs in plan.steps:
            psi, p_s = bayes_update(psi, obs, encoding)
            probs.append(p_s)
        powered = psi ** plan.sharpening
        probs.append(float(powered @ powered))
        psi = powered / math.sqrt(probs[-1])

        state, report = run_plan(plan)
        assert np.array_equal(state.amplitudes == 0.0, psi == 0.0)
        worst = np.max(np.abs(state.amplitudes - psi)) / np.max(np.abs(psi))
        assert worst <= 1e-15
        measured = [entry["success_prob"] for entry in report.ledger]
        assert measured[:-1] == pytest.approx(probs[:-1], rel=1e-15, abs=0.0)
        # a sum of psi^(2m) moves m times as far as psi itself, relatively
        assert measured[-1] == pytest.approx(probs[-1], rel=plan.sharpening * 1e-15,
                                             abs=0.0)


@pytest.mark.parametrize("encoding", ["amplitude", "born"])
@pytest.mark.parametrize("n", range(3, 8))
def test_support_sharpening_matches_dense_sharpening(n, encoding):
    # p_s is summed over the support rather than over all n! entries, so only
    # its rounding, and the amplitudes divided by its root, may move
    rng = np.random.default_rng(200 * n + len(encoding))
    for _ in range(4):
        plan = dataclasses.replace(_support_plan(n, encoding, rng),
                                   sharpening=int(rng.integers(2, 7)))
        unsharpened, _ = run_plan(dataclasses.replace(plan, sharpening=None))
        expected, p_s = sharpen_map(unsharpened.amplitudes, plan.sharpening)
        state, report = run_plan(plan)
        np.testing.assert_array_max_ulp(state.amplitudes, expected, maxulp=4)
        np.testing.assert_array_max_ulp(report.ledger[-1]["success_prob"],
                                        min(p_s, 1.0), maxulp=4)


def test_run_plan_sharpens_once_on_either_route(monkeypatch):
    calls = []

    def spy(amplitudes, m):
        calls.append(len(amplitudes))
        return sharpen_map(amplitudes, m)

    monkeypatch.setattr(snfourier.pipeline, "sharpen_map", spy)
    rng = np.random.default_rng(29)
    for _ in range(6):
        plan = dataclasses.replace(_support_plan(5, "born", rng), sharpening=3)
        support = 1 if plan.initial == "identity" else len(plan.initial.support_counts()[0])
        routes = {support: plan,
                  120: dataclasses.replace(plan, steps=plan.steps + (DiffusionStep(0.7),))}
        for length, routed in routes.items():
            calls.clear()
            run_plan(routed)
            assert calls == [length]
        calls.clear()
        run_plan(dataclasses.replace(plan, sharpening=None))
        assert calls == []


def test_support_route_annihilation_message(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"n": 4, "encoding": "born", "initial": {"kind": "empirical", "dataset": '
        '[{"one_line": [1, 2, 3, 4], "count": 2}, {"one_line": [2, 1, 3, 4], "count": 1}]}, '
        '"steps": [{"type": "conditioning", "observation": '
        '{"kind": "assignment", "indices": [1], "values": [3], "s": 1.0}}]}')
    assert main(["run", "--plan", str(plan), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "error: conditioning left no surviving amplitude\n"
    assert not (tmp_path / "o").exists()


def _sampler_states(rng):
    dense = oracles.random_unit(rng, 120)
    zeros = dense.copy()
    zeros[rng.choice(120, size=70, replace=False)] = 0.0
    zeros /= np.linalg.norm(zeros)
    support = np.sort(rng.choice(5040, size=40, replace=False))
    on_support = np.zeros(5040)
    on_support[support] = oracles.random_unit(rng, 40)
    return {
        "dense": ModelState(amplitudes=dense, encoding="amplitude"),
        "exact zeros": ModelState(amplitudes=zeros, encoding="born"),
        "support": ModelState(amplitudes=on_support, encoding="born"),
    }


@pytest.mark.parametrize("kind", ["dense", "exact zeros", "support"])
def test_sampler_draws_what_generator_choice_draws(kind):
    state = _sampler_states(np.random.default_rng(5))[kind]
    for seed in (0, 7, 2**63 + 5):
        ranks = oracles.choice_ranks(state.amplitudes, 3000, seed)
        draws = sample_computational(state, 3000, seed)
        assert np.array_equal(draws, all_one_lines(state.n)[ranks])


def test_sampler_skips_negative_zeros_and_keeps_subnormals():
    # a subnormal amplitude squares to 0, so it adds nothing to the cdf, and
    # neither does -0.0; the draws are choice's over all n! ranks either way
    amps = np.zeros(120)
    amps[[4, 30, 77, 119]] = [0.6, -0.48, 0.64, 0.0]
    amps[[10, 31, 118]] = -0.0
    amps[[11, 76]] = [5e-324, -2.0**-1030]
    state = ModelState(amplitudes=amps, encoding="amplitude")
    for seed in (0, 7, 2**63 + 5):
        draws = sample_computational(state, 3000, seed)
        ranks = oracles.choice_ranks(amps, 3000, seed)
        assert np.array_equal(draws, all_one_lines(5)[ranks])
        assert set(ranks.tolist()) == {4, 30, 77}


def test_every_empirical_prior_is_built_on_its_support(monkeypatch):
    def dense(self, n):
        raise AssertionError("the prior went through the dense counts vector")

    monkeypatch.setattr(EmpiricalInitial, "counts_vector", dense)
    lines = list(itertools.permutations(range(1, 5)))
    # an amplitude prior, and a born prior whose count total is past 2**53
    for encoding, large in (("amplitude", 5), ("born", 2**53)):
        initial = EmpiricalInitial(entries=tuple((lines[rank], count) for rank, count in
                                                 [(0, 3), (1, 3), (5, 3), (6, 3),
                                                  (10, large), (12, large)]))
        ranks, counts = initial.support_counts()
        prior = np.zeros(24)
        prior[ranks] = encode_distribution(counts / counts.sum(), encoding)
        state, _ = run_plan(ExperimentPlan(n=4, encoding=encoding, initial=initial,
                                           amplitude_empirical_ok=True))
        assert state.amplitudes.tobytes() == prior.tobytes()


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(n=3, steps=(Observation(
            kind="assignment", indices=(5,), values=(1,), s=1.0),))
    with pytest.raises(ValueError):
        ExperimentPlan(n=3, steps=(), encoding="wavefunction")
    with pytest.raises(ValueError):
        DiffusionStep(p=1.4, d=1)
    with pytest.raises(ValueError):
        DiffusionStep(p=0.5, d=0)
    empirical = EmpiricalInitial(entries=(((2, 1, 3), 2),))
    with pytest.raises(ValueError):
        ExperimentPlan(n=3, steps=(), initial=empirical)  # amplitude needs opt-in
    with pytest.raises(ValueError):
        ExperimentPlan(n=4, steps=(), initial=empirical, encoding="born")
    with pytest.raises(ValueError):
        EmpiricalInitial(entries=(((2, 1, 3), 0),))


DATASET_N4 = tuple(((2, 1, 3, 4), 1 + i) for i in range(6))


@pytest.mark.parametrize("entry, field, message", [
    (((1, 1, 3, 4), 2), "dataset[3].one_line", "not a permutation of 1..4: (1, 1, 3, 4)"),
    (((2, 1, 3, 5), 2), "dataset[3].one_line", "not a permutation of 1..4: (2, 1, 3, 5)"),
    (((2, 1, 3, 4), 0), "dataset[3].count", "count must be an integer in 1..2**53"),
    (((2, 1, 3, 4), 2.5), "dataset[3].count", "count must be an integer in 1..2**53"),
    (((1.9, 2, 3, 4), 2), "dataset[3].one_line",
     "one-line values must be integers, got (1.9, 2, 3, 4)"),
    ((("2", "1", "3", "4"), 2), "dataset[3].one_line",
     "one-line values must be integers, got ('2', '1', '3', '4')"),
    (((2, 1, math.inf, 4), 2), "dataset[3].one_line",
     "one-line values must be integers, got (2, 1, inf, 4)"),
    (((2, None, 3, 4), 2), "dataset[3].one_line",
     "one-line values must be integers, got (2, None, 3, 4)"),
    ((None, 2), "dataset[3].one_line", "one-line values must be integers, got None"),
    (((2, 1, 3, 4), math.inf), "dataset[3].count", "count must be an integer in 1..2**53"),
    (((2, 1, 3, 4), None), "dataset[3].count", "count must be an integer in 1..2**53"),
])
@pytest.mark.parametrize("tail", [(), (((4, 3, 2, 1), 0),)], ids=["alone", "then-bad-count"])
def test_empirical_initial_names_the_first_bad_entry(entry, field, message, tail):
    # with a later bad entry too, the first one is still the one named
    entries = DATASET_N4[:3] + (entry,) + DATASET_N4[4:] + tail
    with pytest.raises(PlanValidationError) as err:
        EmpiricalInitial(entries=entries)
    assert (err.value.field, err.value.reason) == (field, message)


def test_empirical_initial_coerces_entries_to_ints():
    empirical = EmpiricalInitial(entries=(
        (np.array([3, 1, 2]), 2.0), ([1.0, 2, 3], np.int64(1)), ((True, 3, 2), 4)))
    assert empirical.entries == (((3, 1, 2), 2), ((1, 2, 3), 1), ((1, 3, 2), 4))
    assert all(type(v) is int for line, count in empirical.entries for v in (*line, count))
    with pytest.raises(PlanValidationError, match="share one degree"):
        EmpiricalInitial(entries=(((1, 2), 1), ((1, 2, 3), 1)))


def test_counts_vector_adds_in_entry_order():
    # past 2**53 a float64 sum depends on its order: 2**53 + 1 rounds back
    entries = (((2, 1, 3), 2**53), ((3, 1, 2), 5), ((2, 1, 3), 1), ((2, 1, 3), 1),
               ((1, 2, 3), 3))
    expected = np.zeros(6)
    for line, count in entries:
        expected[oracles.factorial_rank(oracles.inversion_digits(line))] += count
    assert expected[2] == 2**53
    assert np.array_equal(EmpiricalInitial(entries=entries).counts_vector(3), expected)


def test_empirical_initial_accumulates_counts():
    empirical = EmpiricalInitial(entries=(
        ((1, 3, 2), 2), ((2, 1, 3), 1), ((1, 3, 2), 1)))
    plan = ExperimentPlan(n=3, steps=(), initial=empirical, encoding="born")
    state, _ = run_plan(plan)
    expected = np.zeros(6)
    expected[1] = math.sqrt(0.75)  # [1,3,2]
    expected[2] = math.sqrt(0.25)  # [2,1,3]
    assert np.allclose(state.amplitudes, expected, atol=1e-12)
    opted = ExperimentPlan(n=3, steps=(), initial=empirical,
                           encoding="amplitude", amplitude_empirical_ok=True)
    state, _ = run_plan(opted)
    target = np.zeros(6)
    target[1], target[2] = 0.75, 0.25
    assert np.allclose(state.amplitudes, target / np.linalg.norm(target),
                       atol=1e-12)


def test_amplification_costs():
    grover = amplification_cost(1.0, "grover")
    assert grover.units == 1
    assert amplification_cost(0.25, "grover").units == 2
    fp1 = amplification_cost(0.25, "fixed_point", delta=1e-3)
    fp2 = amplification_cost(0.5, "fixed_point", delta=1e-3)
    fp3 = amplification_cost(0.25, "fixed_point", delta=1e-6)
    assert fp2.units <= fp1.units < fp3.units
    with pytest.raises(ValueError):
        amplification_cost(0.0, "grover")
    with pytest.raises(ValueError):
        amplification_cost(0.5, "oblivious")


def test_sampling_delta_state():
    perms = sample_computational(delta_state(3), 50, seed=1)
    assert all(tuple(row) == (1, 2, 3) for row in perms.tolist())


def test_sampling_follows_squared_amplitudes():
    n = 3
    h = np.zeros(6)
    h[0], h[1] = 0.8, 0.2
    draws = 100_000
    amp = ModelState(amplitudes=h / np.linalg.norm(h), encoding="amplitude")
    counts = Counter(map(tuple, sample_computational(amp, draws, seed=9).tolist()))
    observed = [counts[(1, 2, 3)], counts[(1, 3, 2)]]
    assert sum(counts.values()) == draws
    expected = np.array([16.0 / 17.0, 1.0 / 17.0]) * draws
    assert stats.chisquare(observed, expected).pvalue > 0.01

    born = ModelState(amplitudes=np.sqrt(h), encoding="born")
    counts = Counter(map(tuple, sample_computational(born, draws, seed=9).tolist()))
    observed = [counts[(1, 2, 3)], counts[(1, 3, 2)]]
    expected = np.array([0.8, 0.2]) * draws
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_fourier_sampling_plancherel():
    n = 4
    labels, exact = sample_fourier(delta_state(n), 20_000, seed=3)
    fact = math.factorial(n)
    for lam in enumerate_partitions(n):
        assert exact[lam] == pytest.approx(irrep_dimension(lam) ** 2 / fact,
                                           abs=1e-12)
    counts = Counter(labels)
    observed = [counts[lam] for lam in enumerate_partitions(n)]
    expected = [exact[lam] * 20_000 for lam in enumerate_partitions(n)]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_fourier_sampling_uniform_state():
    n = 3
    uniform = ModelState(amplitudes=np.full(6, 1 / math.sqrt(6)),
                         encoding="born")
    labels, exact = sample_fourier(uniform, 200, seed=5)
    assert set(labels) == {Partition((3,))}
    assert exact[Partition((3,))] == pytest.approx(1.0, abs=1e-12)


def test_sampling_reproducible():
    state = ModelState(amplitudes=oracles.random_unit(RNG, 24),
                       encoding="amplitude")
    a = sample_computational(state, 500, seed=42)
    b = sample_computational(state, 500, seed=42)
    c = sample_computational(state, 500, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sharpen_identity_power():
    amps = np.abs(oracles.random_unit(RNG, 6))
    amps /= np.linalg.norm(amps)
    state = ModelState(amplitudes=amps, encoding="born")
    out, ps = sharpen_map(state.amplitudes, 1)
    assert ps == 1.0
    assert np.allclose(out, amps, atol=1e-15)


def test_sharpen_two_point_worked_example():
    amps = np.zeros(6)
    amps[0], amps[1] = math.sqrt(0.8), math.sqrt(0.2)
    out, ps = sharpen_map(amps, 2)
    probs = out**2
    assert probs[0] == pytest.approx(0.8**2 / (0.8**2 + 0.2**2), abs=1e-12)
    assert probs[0] == pytest.approx(0.9411764705882353, abs=1e-10)
    assert ps == pytest.approx(np.sum(np.array([0.8, 0.2]) ** 2), abs=1e-12)


def test_sharpen_argmax_and_monotonicity():
    for _ in range(10):
        amps = np.abs(oracles.random_unit(RNG, 24))
        state = ModelState(amplitudes=amps / np.linalg.norm(amps),
                           encoding="born")
        top = int(np.argmax(state.amplitudes))
        prev_mode_mass = 0.0
        for m in range(1, 11):
            out, _ = sharpen_map(state.amplitudes, m)
            assert int(np.argmax(out)) == top
            mode_mass = float(out[top] ** 2)
            assert mode_mass >= prev_mode_mass - 1e-12
            prev_mode_mass = mode_mass


def test_sharpen_preserves_ties():
    amps = np.zeros(6)
    amps[2] = amps[5] = 1.0 / math.sqrt(2.0)
    out, _ = sharpen_map(amps, 5)
    assert out[2] == pytest.approx(out[5], abs=1e-15)


def test_sharpen_top_k_alignment():
    n = 4
    h = oracles.random_probability(RNG, 24)
    state = ModelState(amplitudes=np.sqrt(h), encoding="born")
    out, _ = sharpen_map(state.amplitudes, 6)
    sharp_probs = out**2
    k = 3
    assert set(np.argsort(sharp_probs)[-k:]) == set(np.argsort(h)[-k:])


@pytest.mark.parametrize("m", [3, 100, 2**53 + 1, 2**64])
def test_sharpen_clips_an_amplitude_rounded_past_1(m):
    amps = np.zeros(2)
    amps[1] = -np.nextafter(1.0, 2.0)
    out, ps = sharpen_map(amps, m)
    assert ps == 1.0
    assert np.array_equal(out, [0.0, -1.0 if m % 2 else 1.0])


def test_sharpen_underflow_annihilates():
    state = ModelState(amplitudes=np.full(6, 1.0 / math.sqrt(6.0)),
                       encoding="born")
    with pytest.raises(AnnihilatedStateError):
        sharpen_map(state.amplitudes, 1000)


def test_model_state_validation():
    with pytest.raises(ValueError):
        ModelState(amplitudes=np.ones(6), encoding="amplitude")
    with pytest.raises(ValueError):
        ModelState(amplitudes=np.zeros(5), encoding="amplitude")
    with pytest.raises(ValueError):
        ModelState(amplitudes=np.full(6, 1 / math.sqrt(6)), encoding="qubit")


def test_block_encoding_delta_and_random():
    n = 3
    fact = 6
    delta = np.zeros(fact)
    delta[0] = 1.0
    report = verify_posterior_block_encoding(state_prep_unitary(delta))
    assert np.allclose(report.diagonal, delta, atol=1e-12)
    assert report.unitary_error < 1e-10
    assert report.diagonal_error < 1e-10
    psi = np.abs(oracles.random_unit(RNG, fact))
    psi /= np.linalg.norm(psi)
    prep = state_prep_unitary(psi)
    assert np.allclose(prep @ delta, psi, atol=1e-12)
    report = verify_posterior_block_encoding(prep)
    assert np.allclose(report.diagonal, psi, atol=1e-10)
    assert report.unitary_error < 1e-10
    assert report.diagonal_error < 1e-10


def test_block_encoding_guard():
    big = np.zeros(math.factorial(5))
    big[0] = 1.0
    with pytest.raises(DegreeGuardError):
        state_prep_unitary(big)
    # the identity prepares the same state without state_prep_unitary's guard
    with pytest.raises(DegreeGuardError):
        verify_posterior_block_encoding(np.eye(math.factorial(5)))


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "empirical-empty": (lambda: EmpiricalInitial(()), PlanValidationError,
                        "dataset: empirical dataset must not be empty"),
    "plan-unknown-step": (lambda: ExperimentPlan(n=3, steps=("walk",)),
                          PlanValidationError, "steps[0]: unknown step 'walk'"),
    "amplification-delta": (lambda: amplification_cost(0.5, "fixed_point", delta=1.0),
                            ValueError, "tolerance must lie in (0, 1), got 1.0"),
    "sharpen-exponent": (lambda: sharpen_map(delta_state(3).amplitudes, 0),
                         ValueError, "exponent must be a positive integer, got 0"),
    "block-encoding-square": (lambda: verify_posterior_block_encoding(np.ones((6, 2))),
                              ValueError, "state preparation must be a square matrix"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
