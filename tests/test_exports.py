"""Every exported name resolves, in its layer module and in the package.

Tools that wrap the public functions (perfbench's tracer among them) walk each
layer's `__all__` and skip names that do not resolve, so a stale entry would
go unnoticed there.
"""

import importlib

import pytest

import permstats

LAYERS = ("core", "extremal", "stretch", "cycles", "oracle", "sampling")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_resolves(layer):
    module = importlib.import_module(f"permstats.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_all_is_the_layer_objects():
    defined = {}
    for layer in LAYERS:
        module = importlib.import_module(f"permstats.{layer}")
        defined.update((name, getattr(module, name)) for name in module.__all__)
    mismatched = [
        name for name in permstats.__all__
        if name not in defined or getattr(permstats, name, None) is not defined[name]
    ]
    assert mismatched == []
    assert len(permstats.__all__) == len(set(permstats.__all__))


def test_package_all_has_every_layer_name():
    missing = [
        name
        for layer in LAYERS
        for name in importlib.import_module(f"permstats.{layer}").__all__
        if name not in permstats.__all__
    ]
    assert missing == []
