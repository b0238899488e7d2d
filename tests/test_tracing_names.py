"""The benchmark's tracer (``benchmarks/tracing.py``) wraps functions and
methods of the program by name, so a rename in the program must not leave
one of its names behind: it would fail only once the benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_is_defined_in_its_module(tracing):
    missing = [f"{module.__name__}.{name}" for module, name, *_ in tracing.FUNCTIONS
               if getattr(module.__dict__.get(name), "__module__", None) != module.__name__]
    assert not missing


def test_every_method_the_tracer_wraps_is_defined_on_its_class(tracing):
    # the tracer reads a method from the class's own __dict__
    missing = [f"{cls.__qualname__}.{name}" for cls, name, *_ in tracing.METHODS
               if not callable(cls.__dict__.get(name))]
    assert not missing


def test_every_hook_of_the_tracer_belongs_to_a_wrapped_function(tracing):
    wrapped = {f"{module.__name__}.{name}" for module, name, *_ in tracing.FUNCTIONS}
    assert set(tracing._AFTER) | set(tracing._CALLBACK_ARG) <= wrapped
