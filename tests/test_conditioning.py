"""Bayesian conditioning: predicates, the update, and its window-digit oracle."""

import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import reorder_sequence
from snfourier import conditioning
from snfourier.conditioning import Observation, _consistent_mask, bayes_update, \
    reorder_update_condition, success_probability_conditioning
from snfourier.errors import AnnihilatedStateError, PlanValidationError
from snfourier.perms import Permutation, all_one_lines
from snfourier.transform import left_shift
from snfourier.verify import _window_mask

RNG = np.random.default_rng(31)


def brute_likelihood(obs, n):
    """Per-rank likelihood values computed straight off one-line forms."""
    out = np.empty(math.factorial(n))
    for r, ol in enumerate(oracles.all_perms_lex(n)):
        if obs.kind == "assignment":
            ok = all(ol[i - 1] == j for i, j in zip(obs.indices, obs.values))
        else:
            pos = [ol[i - 1] for i in obs.items]
            ok = all(a < b for a, b in zip(pos, pos[1:]))
        out[r] = obs.s if ok else 1.0 - obs.s
    return out


def uniform_amplitudes(n):
    return np.full(math.factorial(n), 1.0 / math.sqrt(math.factorial(n)))


def random_observation(n):
    if RNG.random() < 0.5:
        k = int(RNG.integers(1, min(n, 4)))
        indices = tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1)
        values = tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1)
        kwargs = dict(kind="assignment", indices=indices, values=values)
    else:
        k = int(RNG.integers(2, min(n, 4) + 1))
        items = tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1)
        kwargs = dict(kind="ranking", items=items)
    s = 1.0 if RNG.random() < 0.5 else float(RNG.uniform(0.51, 0.99))
    return Observation(s=s, **kwargs)


def test_predicate_assignment():
    obs = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)
    assert oracles.consistency_predicate(obs, Permutation((1, 3, 2)))
    assert not oracles.consistency_predicate(obs, Permutation((2, 1, 3)))
    both = Observation(kind="assignment", indices=(1, 2), values=(2, 1), s=1.0)
    assert oracles.consistency_predicate(both, Permutation((2, 1, 3)))
    assert not oracles.consistency_predicate(both, Permutation((2, 3, 1)))


def test_predicate_ranking():
    first_before_third = Observation(kind="ranking", items=(1, 3), s=1.0)
    assert not oracles.consistency_predicate(first_before_third, Permutation((3, 2, 1)))
    assert oracles.consistency_predicate(first_before_third, Permutation((1, 2, 3)))
    chain = Observation(kind="ranking", items=(2, 5, 1), s=1.0)
    for ol in oracles.all_perms_lex(5)[::5]:
        expected = ol[1] < ol[4] < ol[0]
        assert oracles.consistency_predicate(chain, Permutation(ol)) == expected


def test_assignment_consistent_counts():
    n = 5
    perms = [Permutation(ol) for ol in oracles.all_perms_lex(n)]
    for k in (1, 2, 3):
        for _ in range(5):
            idx = tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1)
            val = tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1)
            obs = Observation(kind="assignment", indices=idx, values=val, s=1.0)
            hits = sum(oracles.consistency_predicate(obs, p) for p in perms)
            assert hits == math.factorial(n - k)


def test_ranking_consistent_counts():
    n = 5
    perms = [Permutation(ol) for ol in oracles.all_perms_lex(n)]
    for size in (2, 3, 4):
        items = tuple(int(v) for v in RNG.choice(n, size=size, replace=False) + 1)
        obs = Observation(kind="ranking", items=items, s=1.0)
        hits = sum(oracles.consistency_predicate(obs, p) for p in perms)
        assert hits == math.factorial(n) // math.factorial(size)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(kind="assignment", indices=(1,), values=(1,), s=0.5)
    with pytest.raises(ValueError):
        Observation(kind="assignment", indices=(1,), values=(1,), s=1.2)
    with pytest.raises(ValueError):
        Observation(kind="assignment", indices=(1, 1), values=(1, 2), s=1.0)
    with pytest.raises(ValueError):
        Observation(kind="assignment", indices=(1, 2), values=(2, 2), s=1.0)
    with pytest.raises(ValueError):
        Observation(kind="assignment", indices=(1, 2), values=(1,), s=1.0)
    with pytest.raises(ValueError):
        Observation(kind="ranking", items=(3, 3), s=0.9)
    with pytest.raises(ValueError):
        Observation(kind="ranking", items=(0, 2), s=0.9)
    with pytest.raises(ValueError):
        Observation(kind="sorting", items=(1, 2), s=0.9)
    with pytest.raises(ValueError):
        Observation(kind="ranking", items=(1, 2), indices=(1,), values=(2,), s=0.9)


@pytest.mark.parametrize("field, fields", [
    ("indices", {"kind": "assignment", "indices": (1.9,), "values": (2,)}),
    ("values", {"kind": "assignment", "indices": (1,), "values": (2.2,)}),
    ("items", {"kind": "ranking", "items": (1, 2.5)}),
    ("indices", {"kind": "assignment", "indices": (math.inf,), "values": (2,)}),
    ("values", {"kind": "assignment", "indices": (1,), "values": (None,)}),
    ("items", {"kind": "ranking", "items": (1, -math.inf)}),
    ("items", {"kind": "ranking", "items": None}),
])
def test_observation_rejects_non_integral_entries(field, fields):
    with pytest.raises(PlanValidationError) as err:
        Observation(**fields)
    assert err.value.field == field
    assert err.value.reason.startswith("observation entries must be integers")
    # integral values of any numeric type are still coerced to ints
    obs = Observation("assignment", indices=(1.0, np.int64(2)), values=(True, 3.0))
    assert (obs.indices, obs.values) == ((1, 2), (1, 3))
    assert all(type(v) is int for v in obs.indices + obs.values)


def test_bayes_uniform_hard_worked_example():
    obs = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)
    post, ps = bayes_update(uniform_amplitudes(3), obs, "amplitude")
    assert ps == pytest.approx(1.0 / 3.0, abs=1e-12)
    expected = np.zeros(6)
    expected[0] = expected[1] = 1.0 / math.sqrt(2.0)  # [1,2,3] and [1,3,2]
    assert np.allclose(post, expected, atol=1e-12)


def test_bayes_soft_likelihood_both_encodings():
    n = 3
    obs = Observation(kind="assignment", indices=(2,), values=(3,), s=0.8)
    psi = oracles.random_unit(RNG, 6)
    like = brute_likelihood(obs, n)
    for encoding, factor in (("amplitude", like), ("born", np.sqrt(like))):
        post, ps = bayes_update(psi, obs, encoding)
        scaled = psi * factor
        assert ps == pytest.approx(np.sum(scaled**2), abs=1e-12)
        assert np.allclose(post, scaled / np.linalg.norm(scaled), atol=1e-12)


def test_bayes_annihilates_disjoint_support():
    psi = np.zeros(6)
    psi[5] = 1.0  # [3,2,1] puts item 1 at position 3
    obs = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)
    with pytest.raises(AnnihilatedStateError):
        bayes_update(psi, obs, "amplitude")


def test_bayes_rejects_bad_inputs():
    obs = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)
    with pytest.raises(ValueError):
        bayes_update(2.0 * uniform_amplitudes(3), obs, "amplitude")
    with pytest.raises(ValueError):
        bayes_update(uniform_amplitudes(3), obs, "wavefunction")
    far = Observation(kind="assignment", indices=(7,), values=(1,), s=1.0)
    with pytest.raises(ValueError):
        bayes_update(uniform_amplitudes(3), far, "amplitude")


def test_success_probability_uniform_hard():
    n = 3
    h = np.full(6, 1.0 / 6.0)
    obs = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)
    assert success_probability_conditioning(h, obs) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_success_probability_consistent_support_is_one():
    h = np.zeros(6)
    h[0] = 0.25
    h[1] = 0.75  # both consistent with item 1 at position 1
    obs = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)
    assert success_probability_conditioning(h, obs) == pytest.approx(1.0, abs=1e-12)


def test_claim3_identity_random():
    for _ in range(40):
        n = int(RNG.integers(3, 6))
        h = oracles.random_probability(RNG, math.factorial(n))
        obs = random_observation(n)
        formula = success_probability_conditioning(h, obs)
        psi = h / np.linalg.norm(h)
        measured = float(np.sum((brute_likelihood(obs, n) * psi) ** 2))
        assert formula == pytest.approx(measured, abs=1e-10)


def test_hard_posterior_is_conditional_distribution():
    for _ in range(10):
        n = 4
        h = oracles.random_probability(RNG, 24)
        obs = random_observation(n)
        if obs.s != 1.0:
            obs = Observation(kind=obs.kind, indices=obs.indices,
                              values=obs.values, items=obs.items, s=1.0)
        like = brute_likelihood(obs, n)
        post, _ = bayes_update(h / np.linalg.norm(h), obs, "amplitude")
        recovered = post / post.sum()
        brute = like * h / np.sum(like * h)
        assert np.allclose(recovered, brute, atol=1e-10)


def test_reorder_route_fig4_scenario():
    # "A appears before C" with three objects, hard likelihood
    obs = Observation(kind="ranking", items=(1, 3), s=1.0)
    psi = oracles.random_unit(RNG, 6)
    direct, ps_direct = bayes_update(psi, obs, "amplitude")
    routed, ps_routed, cost = reorder_update_condition(psi, obs, "amplitude")
    assert np.allclose(routed, direct, atol=1e-10)
    assert ps_routed == pytest.approx(ps_direct, abs=1e-12)
    assert cost.window == "back"


def test_reorder_equals_bayes_randomized():
    for _ in range(80):
        n = int(RNG.integers(3, 7))
        psi = oracles.random_unit(RNG, math.factorial(n))
        obs = random_observation(n)
        encoding = "amplitude" if RNG.random() < 0.5 else "born"
        _, _, cost = reorder_update_condition(psi, obs, encoding)
        assert np.array_equal(_window_mask(obs, n, cost.window),
                              _consistent_mask(obs, all_one_lines(n)))
        moved = len(obs.indices) if obs.kind == "assignment" else len(obs.items)
        assert cost.swaps <= moved * n


def test_reorder_equals_bayes_bitwise_at_n8():
    n = 8
    psi = oracles.random_unit(RNG, math.factorial(n))
    observations = [
        Observation(kind="assignment", s=0.8,
                    indices=tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1),
                    values=tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1))
        for k in range(1, n)
    ] + [
        Observation(kind="ranking", s=0.8,
                    items=tuple(int(v) for v in RNG.choice(n, size=k, replace=False) + 1))
        for k in range(2, n + 1)
    ]
    for obs in observations:
        window = "front" if obs.kind == "assignment" else "back"
        assert np.array_equal(_window_mask(obs, n, window),
                              _consistent_mask(obs, all_one_lines(n)))
        swaps = len(reorder_sequence(n, obs.touched(), f"to_{window}"))
        for encoding in ("amplitude", "born"):
            direct, ps_direct = bayes_update(psi, obs, encoding)
            routed, ps_routed, cost = reorder_update_condition(psi, obs, encoding)
            assert np.array_equal(routed, direct)
            assert ps_routed == ps_direct
            assert cost.swaps == swaps


def test_swap_count_is_the_plan_length():
    for n in range(2, 8):
        psi = uniform_amplitudes(n)
        for k in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), k):
                front = Observation(kind="assignment", indices=subset, values=subset)
                _, _, cost = reorder_update_condition(psi, front)
                assert cost.swaps == len(reorder_sequence(n, subset, "to_front"))
                back = Observation(kind="ranking", items=subset)
                _, _, cost = reorder_update_condition(psi, back)
                expected = 0 if k == 1 else len(reorder_sequence(n, subset, "to_back"))
                assert cost.swaps == expected


def test_reorder_route_never_relabels_the_basis(monkeypatch):
    def relabel(*args):
        raise AssertionError("the reorder route relabeled the basis")

    monkeypatch.setattr(conditioning, "ranks_after_sequence", relabel)
    psi = oracles.random_unit(RNG, 120)
    for obs in (Observation(kind="assignment", indices=(2, 5), values=(4, 1), s=0.9),
                Observation(kind="ranking", items=(3, 1, 4), s=1.0)):
        direct, ps_direct = bayes_update(psi, obs, "amplitude")
        routed, ps_routed, _ = reorder_update_condition(psi, obs, "amplitude")
        assert np.array_equal(routed, direct)
        assert ps_routed == ps_direct


def test_empty_observation_is_noop():
    psi = oracles.random_unit(RNG, 24)
    for obs in (Observation(kind="assignment", s=0.7),
                Observation(kind="ranking", items=(2,), s=0.9)):
        post, ps = bayes_update(psi, obs, "amplitude")
        assert ps == 1.0
        assert np.array_equal(post, psi)
        routed, ps_routed, cost = reorder_update_condition(psi, obs, "amplitude")
        assert ps_routed == 1.0
        assert np.array_equal(routed, psi)
        assert cost.swaps == 0


def test_conditioning_breaks_left_equivariance():
    n = 3
    obs = Observation(kind="assignment", indices=(1,), values=(2,), s=1.0)
    psi = oracles.random_unit(RNG, 6)
    found = False
    for ol in oracles.all_perms_lex(n):
        tau = Permutation(ol)
        update_then_shift = left_shift(tau, bayes_update(psi, obs, "amplitude")[0])
        shift_then_update = bayes_update(left_shift(tau, psi), obs, "amplitude")[0]
        if not np.allclose(update_then_shift, shift_then_update, atol=1e-8):
            found = True
            break
    assert found


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "assignment-with-items": (lambda: Observation("assignment", items=(1, 2)),
                              PlanValidationError, "items: assignments take no items"),
    "bayes_update-lines": (
        lambda: bayes_update(uniform_amplitudes(3), Observation("ranking", items=(1, 2)),
                             lines=all_one_lines(3)[:3]),
        ValueError, "6 values do not line up with 3 rows"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
