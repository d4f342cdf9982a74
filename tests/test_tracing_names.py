"""perfbench's tracer wraps coxart functions by name, so a renamed function
would break only a traced benchmark run; these tests catch it here."""

import importlib
import importlib.util
import os

import coxart.suites

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_exists():
    missing = [
        (layer, name) for layer, name in _tracing().SPANNED
        if not callable(getattr(importlib.import_module("coxart." + layer), name, None))
    ]
    assert not missing


def test_traced_suites_are_the_suites():
    assert _tracing().SUITES == coxart.suites.SUITES
