"""Every error in :mod:`repro.errors` survives a pickle round trip: a
forked compile process or shard worker sends its failure to the
caller that way."""

import inspect
import pickle

import pytest

from repro import errors

#: One instance per class, built with every argument the class takes.
SAMPLES = {
    "ReproError": lambda: errors.ReproError("plain"),
    "SimulationError": lambda: errors.SimulationError("engine misuse"),
    "ProcessCrashed": lambda: errors.ProcessCrashed(
        "thread-3", ValueError("boom")
    ),
    "AbortSimulation": lambda: errors.AbortSimulation("stop"),
    "MachineCrashed": lambda: errors.MachineCrashed(1.25),
    "DeviceError": lambda: errors.DeviceError("ENOSPC", "block 7"),
    "TraceError": lambda: errors.TraceError(
        "bad line", line_number=4, line="{", byte_offset=120
    ),
    "SnapshotError": lambda: errors.SnapshotError("no root"),
    "BenchmarkError": lambda: errors.BenchmarkError("column idx"),
    "CompileError": lambda: errors.CompileError("cannot compile"),
    "ReplayError": lambda: errors.ReplayError("roster order"),
    "ReplayAborted": lambda: errors.ReplayAborted(
        "awaiting producer", members=[3, 5], context={"lag": 2}
    ),
    "CycleError": lambda: errors.CycleError([4, 9, 2]),
    "UnsupportedSyscallError": lambda: errors.UnsupportedSyscallError(
        "frobnicate"
    ),
}

CLASSES = sorted(
    name
    for name, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
)


def test_every_class_has_a_sample():
    assert sorted(SAMPLES) == CLASSES


def comparable(value):
    """Attributes compared by value; an exception held as an attribute
    (``ProcessCrashed.original``) by type and message."""
    if isinstance(value, BaseException):
        return (type(value), value.args)
    return value


@pytest.mark.parametrize("name", CLASSES)
def test_survives_pickling(name):
    error = SAMPLES[name]()
    assert type(error) is getattr(errors, name)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert {k: comparable(v) for k, v in vars(back).items()} == {
        k: comparable(v) for k, v in vars(error).items()
    }


def test_a_cycle_error_keeps_a_given_message():
    error = errors.CycleError([1, 2], message="custom")
    back = pickle.loads(pickle.dumps(error))
    assert str(back) == "custom" and back.members == [1, 2]
