"""The cyclic-collector pause around the bulk table kernels.

``theory.gc_paused`` turns the collector off while a kernel runs and
gives the caller back the state it had, on return and on exception.
"""

import gc
import importlib
import inspect
import pkgutil

import pytest

import htk
from htk.cli import FormatError, parse, serialize
from htk.constructions import deloop, theta
from htk.ordcomb import SYMMETRIC
from htk.theory import SKIP, build_theory, gc_paused
from htk.zoo import cyclic_monoid_theory

PAUSED = {"build_theory", "theta", "deloop", "parse", "convolve", "enumerate_morphisms"}


def _paused_kernels():
    """Every function in htk's modules that runs under the pause."""
    wrapper = gc_paused(len).__code__
    found = set()
    for info in pkgutil.iter_modules(htk.__path__):
        module = importlib.import_module(f"htk.{info.name}")
        found.update(f for f in vars(module).values() if getattr(f, "__code__", None) is wrapper)
    return found


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled


def test_the_kernels_are_paused_and_eager():
    kernels = _paused_kernels()
    assert {f.__name__ for f in kernels} == PAUSED
    for f in kernels:
        # a generator's body would run after the pause has ended
        assert not inspect.isgeneratorfunction(f.__wrapped__), f.__name__


def test_a_kernel_runs_with_the_collector_off():
    seen = []

    def labels(d, ar, lay, asg):
        seen.append(gc.isenabled())
        return ("x",)

    build_theory(1, SYMMETRIC, 2, ("a",), labels, lambda *site: SKIP)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_restored_after_a_normal_return():
    U = theta(cyclic_monoid_theory(2), 1)
    assert gc.isenabled()
    assert parse(serialize(U)) == U
    assert gc.isenabled()


def test_restored_after_a_format_error():
    with pytest.raises(FormatError):
        parse('{"format": "htk-theory/1", "kind": "theory"')
    assert gc.isenabled()


def test_restored_after_a_key_error():
    # no deloop support tabulated: the flattened lookups fall off V
    with pytest.raises(KeyError, match="flattening exceeds"):
        deloop(cyclic_monoid_theory(2), "*", 2)
    assert gc.isenabled()


def test_a_caller_that_turned_it_off_keeps_it_off():
    gc.disable()
    try:
        theta(cyclic_monoid_theory(2), 1)
        assert not gc.isenabled()
        with pytest.raises(FormatError):
            parse("[")
        assert not gc.isenabled()
    finally:
        gc.enable()
