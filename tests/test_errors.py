"""The exception hierarchy (:mod:`repro.errors`): every class pickles."""

from __future__ import annotations

import pickle

import pytest

import repro.errors as errors

# Constructor arguments for the classes whose constructor takes more than a
# message; every other class is built from one message string.
ARGS = {
    "LexError": ("unexpected '$'", 3, 7),
    "ParseError": ("expected ';', found '}'", 12, 1),
    "ProtocolError": ("bad-shard", "samples must name at least one procedure"),
    "UnitExecutionError": (4, "ValueError: boom", "Traceback (most recent call last): ..."),
}

CLASSES = [
    name
    for name in errors.__all__
    if isinstance(getattr(errors, name), type)
    and issubclass(getattr(errors, name), BaseException)
]


def test_every_class_is_covered():
    assert set(ARGS) <= set(CLASSES)
    assert "ReproError" in CLASSES and len(CLASSES) == len(errors.__all__) - 1  # ERROR_CODES


@pytest.mark.parametrize("name", CLASSES)
def test_survives_pickling(name):
    cls = getattr(errors, name)
    original = cls(*ARGS.get(name, ("something went wrong",)))
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert str(clone) == str(original)
    assert clone.args == original.args
    assert vars(clone) == vars(original)
