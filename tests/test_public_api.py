import dataclasses
import enum
import importlib

import pytest

import sspflow

# Return types the package names only as results of its own functions;
# they stay out of sspflow.__all__ and import from where they are defined.
RETURN_TYPES = [
    ("sspflow.solver", "CostFunction"),
    ("sspflow.network", "Flow"),
    ("sspflow.analysis", "LemmaCheck"),
    ("sspflow.analysis", "LemmaReport"),
    ("sspflow.analysis", "ReconstructionCase"),
    ("sspflow.generators", "Topology"),
]


def test_all_has_no_duplicates():
    assert len(sspflow.__all__) == len(set(sspflow.__all__))


def test_all_names_name_distinct_objects():
    # an alias exported next to its original is a second name for one thing
    by_id = {}
    for name in sspflow.__all__:
        by_id.setdefault(id(getattr(sspflow, name)), []).append(name)
    assert [names for names in by_id.values() if len(names) > 1] == []


def test_all_names_resolve():
    assert [name for name in sspflow.__all__ if not hasattr(sspflow, name)] == []


@pytest.mark.parametrize("module, name", RETURN_TYPES)
def test_return_types_resolve_from_their_module(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert isinstance(cls, type) and cls.__module__ == module
    assert name not in sspflow.__all__


def _record_types():
    public = (getattr(sspflow, name) for name in sspflow.__all__)
    returned = (
        getattr(importlib.import_module(module), name)
        for module, name in RETURN_TYPES
    )
    return [
        cls
        for cls in (*public, *returned)
        if isinstance(cls, type) and not issubclass(cls, (BaseException, enum.Enum))
    ]


@pytest.mark.parametrize("cls", _record_types(), ids=lambda cls: cls.__name__)
def test_records_are_frozen_dataclasses(cls):
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen
