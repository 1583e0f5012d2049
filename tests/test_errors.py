"""The shared state rules: the unit-norm entry check, post-selection and the
degree guard."""

import math

import numpy as np
import pytest

import oracles
from snfourier.conditioning import Observation, bayes_update, reorder_update_condition
from snfourier.diffusion import DiffusionStep, apply_diffusion_spectral
from snfourier.errors import AnnihilatedStateError, DegreeGuardError, check_degree
from snfourier.perms import Permutation
from snfourier.pipeline import ModelState, sharpen_map, state_prep_unitary
from snfourier.transform import function_degree, gft_forward, left_shift

N = 3
RANKING = Observation(kind="ranking", items=(1, 3), s=0.8)
# item 1 at position 1 holds only on ranks 0 and 1
PINNED = Observation(kind="assignment", indices=(1,), values=(1,), s=1.0)

ENTRY_POINTS = {
    "ModelState": lambda psi: ModelState(amplitudes=psi, encoding="amplitude"),
    "bayes_update": lambda psi: bayes_update(psi, RANKING),
    "reorder_update_condition": lambda psi: reorder_update_condition(psi, RANKING),
    "apply_diffusion_spectral": lambda psi: apply_diffusion_spectral(
        gft_forward(psi, "unitary"), DiffusionStep(p=0.7)),
    "state_prep_unitary": state_prep_unitary,
}


def state_with_norm_sq(norm_sq):
    unit = np.full(math.factorial(N), 1.0 / math.sqrt(math.factorial(N)))
    return math.sqrt(norm_sq) * unit


@pytest.mark.parametrize("enter", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_share_the_unit_norm_tolerance(enter):
    enter(state_with_norm_sq(1.0 + 1e-10))
    with pytest.raises(ValueError):
        enter(state_with_norm_sq(1.0 + 1e-6))


@pytest.mark.parametrize("enter", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_reject_a_nan_state(enter):
    psi = state_with_norm_sq(1.0)
    psi[1] = math.nan
    with pytest.raises(ValueError):
        enter(psi)


# every entry point that takes an n!-long array reads its degree through
# function_degree, which applies the guard before any n!-sized table is built;
# test_serialize checks posterior_to_csv
GUARDED = {
    "function_degree": function_degree,
    "gft_forward": lambda h: gft_forward(h, "unitary"),
    "left_shift": lambda h: left_shift(Permutation(range(1, 11)), h),
    "bayes_update": lambda h: bayes_update(h, RANKING),
    "ModelState": lambda h: ModelState(amplitudes=h, encoding="amplitude"),
}


@pytest.mark.parametrize("enter", GUARDED.values(), ids=GUARDED.keys())
def test_entry_points_guard_the_degree(enter):
    size = math.factorial(10)
    with pytest.raises(DegreeGuardError):
        enter(np.full(size, 1.0 / math.sqrt(size)))


def _reversal():
    psi = np.zeros(math.factorial(N))
    psi[-1] = 1.0  # [3, 2, 1] puts item 1 at position 3
    return psi


def _sign_spectrum():
    signs = np.array([(-1.0) ** sum(oracles.inversion_digits(ol))
                      for ol in oracles.all_perms_lex(N)])
    return gft_forward(signs / np.linalg.norm(signs), "unitary")


POST_SELECTED = {
    "bayes_update": lambda: bayes_update(_reversal(), PINNED),
    "reorder_update_condition": lambda: reorder_update_condition(_reversal(), PINNED),
    # p = 1/2 zeroes the sign block, where the alternating state lives
    "apply_diffusion_spectral": lambda: apply_diffusion_spectral(
        _sign_spectrum(), DiffusionStep(p=0.5)),
    "sharpen_map": lambda: sharpen_map(state_with_norm_sq(1.0), 1000),
}


@pytest.mark.parametrize("step", POST_SELECTED.values(), ids=POST_SELECTED.keys())
def test_post_selected_steps_raise_when_nothing_survives(step):
    with pytest.raises(AnnihilatedStateError):
        step()


def _read_only_state():
    psi = np.random.default_rng(5).random(math.factorial(4))
    psi /= np.linalg.norm(psi)
    psi.flags.writeable = False
    return psi


# renormalized divides the array it is given, so each step must hand it a
# temporary of its own and never the caller's state
ALIASING = {
    "bayes_update": lambda psi: bayes_update(psi, RANKING, "born")[0],
    "reorder_update_condition": lambda psi: reorder_update_condition(psi, RANKING)[0],
    "sharpen_map": lambda psi: sharpen_map(psi, 3)[0],
}


@pytest.mark.parametrize("step", ALIASING.values(), ids=ALIASING.keys())
def test_post_selected_steps_leave_their_input_unchanged(step):
    psi = _read_only_state()
    before = psi.tobytes()
    out = step(psi)
    assert psi.tobytes() == before
    assert not np.shares_memory(out, psi)
    # a writable input is not divided in place either
    writable = psi.copy()
    step(writable)
    assert writable.tobytes() == before


def test_diffusion_leaves_its_input_spectrum_unchanged():
    spectrum = gft_forward(_read_only_state(), "unitary")
    spectrum.values.flags.writeable = False
    before = spectrum.values.tobytes()
    out, _ = apply_diffusion_spectral(spectrum, DiffusionStep(p=0.7, d=3))
    assert spectrum.values.tobytes() == before
    assert not np.shares_memory(out.values, spectrum.values)


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "check_degree-zero": (lambda: check_degree(0), ValueError, "degree must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
