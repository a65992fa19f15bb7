"""One label rule at every door a label sequence enters the library by."""

import numpy as np
import pytest

from convstate import storage
from convstate.controller import SessionConfig, run_session
from convstate.errors import ValidationError
from convstate.harness import align_labels
from convstate.markov import Sampled, StateSequence, count_transitions, estimate_transition
from convstate.metrics import evaluate, tpe

OTHER = [0, 1, 2, 2]


def session_text(oracle, n_states=None):
    report = run_session(oracle, SessionConfig(mode=Sampled(0), seed=3), n_states=n_states)
    return storage.json_text(storage.session_to_document(report))


ENTRY_POINTS = {
    "StateSequence": lambda x: StateSequence(labels=x, n_states=3).labels,
    "count_transitions": lambda x: count_transitions(x, 3).tolist(),
    "estimate_transition": lambda x: estimate_transition(x, 3).probs.tolist(),
    "tpe predicted": lambda x: tpe(x, OTHER),
    "tpe actual": lambda x: tpe(OTHER, x),
    "evaluate predicted": lambda x: evaluate(x, OTHER, 3),
    "evaluate actual": lambda x: evaluate(OTHER, x, 3),
    "align_labels pred": lambda x: align_labels(x, OTHER),
    "align_labels truth": lambda x: align_labels(OTHER, x),
    "run_session bootstrap": lambda x: session_text([x, OTHER]),
    "run_session bootstrap, 3 states": lambda x: session_text([x, OTHER], 3),
    "run_session later sequence": lambda x: session_text([OTHER, [1, 0, 2], x], 3),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "1", None, [0], 2**63, 2**64], ids=repr)
def test_a_bad_label_is_one_error_naming_its_index_and_value(entry, bad):
    with pytest.raises(ValidationError) as excinfo:
        ENTRY_POINTS[entry]([0, 1, bad, 2])
    message = str(excinfo.value)
    assert f"label {bad!r} at index 2 " in message
    assert "\n" not in message


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_kinds_give_the_same_results_as_python_ints(entry):
    kinds = [True, np.uint8(0), np.int64(2), np.int32(1)]
    assert ENTRY_POINTS[entry](kinds) == ENTRY_POINTS[entry]([1, 0, 2, 1])


@pytest.mark.parametrize(
    "pred, message",
    [
        ([-1, 0, 1], "predicted label -1 at index 0 is negative"),
        ([0, 1, -3], "predicted label -3 at index 2 is negative"),
        (np.array([1, -2, -1]), "predicted label -2 at index 1 is negative"),
    ],
)
def test_align_labels_rejects_a_negative_prediction(pred, message):
    with pytest.raises(ValidationError) as excinfo:
        align_labels(pred, [0, 1, 1])
    assert str(excinfo.value) == message


def test_align_labels_truth_may_hold_minus_one():
    assert align_labels([1, 0, 1], [-1, 1, 0]) == ((1, 0), [0, 1, 0])
