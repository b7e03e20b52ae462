import importlib

import pytest

import plbvp


def test_every_export_is_its_submodules_object():
    for name, module in plbvp._EXPORTS.items():
        assert getattr(plbvp, name) is getattr(importlib.import_module(f"plbvp.{module}"), name)
    assert plbvp.__all__ == list(plbvp._EXPORTS)
    names = {}
    exec("from plbvp import *", names)
    assert {k: v for k, v in names.items() if k != "__builtins__"} == {
        name: getattr(plbvp, name) for name in plbvp.__all__}


def test_submodules_resolve_as_attributes():
    for name in plbvp._SUBMODULES:
        assert getattr(plbvp, name) is importlib.import_module(f"plbvp.{name}")
    assert "cli" not in plbvp._SUBMODULES


def test_dir_lists_every_export():
    assert set(plbvp.__all__) | plbvp._SUBMODULES <= set(dir(plbvp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        plbvp.nope
    assert not hasattr(plbvp, "nope")
    with pytest.raises(ImportError):
        exec("from plbvp import nope", {})
