"""The public names: every ``__all__`` entry resolves."""

import importlib

import pytest

MODULES = [
    "curvestats",
    "curvestats.acceptance",
    "curvestats.charsum",
    "curvestats.curvewin",
    "curvestats.ffield",
    "curvestats.polyff",
    "curvestats.rwalk",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.{entry}"
