import logging
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from sspflow import Edge, FlowNetwork, run_ssp, transform
from sspflow import _native
from sspflow.solver import _Engine

from conftest import random_instance, two_path_network

TOOLCHAIN = (
    shutil.which(_native._CC) is not None
    and Path(sysconfig.get_paths()["include"], "Python.h").is_file()
)


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_kernel_loads_when_the_toolchain_is_present():
    # a broken C build must fail here, not fall back to the Python loops
    # and pass everything else
    kernel = _native.load()
    assert kernel is not None
    assert Path(kernel.__file__).parent == _native._CACHE_DIR
    assert _Engine(random_instance(0)).native is kernel


def test_missing_compiler_warns_once_and_falls_back(monkeypatch, caplog, tmp_path):
    inst = random_instance(3, n=8, m=20)
    want = run_ssp(inst)
    monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-such-gcc"))
    monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path)
    _native.load.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=_native.__name__):
            assert _Engine(inst).native is None
            got = run_ssp(inst)
            again = run_ssp(inst)
    finally:
        _native.load.cache_clear()
    warnings = [r for r in caplog.records if r.name == _native.__name__]
    assert len(warnings) == 1
    assert "no-such-gcc" in warnings[0].getMessage()
    assert got == want and again == want
    assert list(tmp_path.iterdir()) == []  # no temporary build left behind


@pytest.mark.parametrize("number", [Fraction, np.float64])
def test_costs_of_other_types_take_the_python_loops(number):
    # the kernel reads costs as C doubles, exact only for float and int
    net = two_path_network()
    edges = [Edge(e.tail, e.head, e.capacity, number(e.cost), e.kind) for e in net.edges]
    other = transform(FlowNetwork(edges, dict(net.balance), net.nodes, net.cost_bound))
    assert _Engine(other).native is None
    want = run_ssp(transform(net))
    got = run_ssp(other)
    assert [s.path_arcs for s in got.steps] == [s.path_arcs for s in want.steps]
    assert got.final_flow == want.final_flow


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_a_new_build_deletes_older_ones(monkeypatch, tmp_path):
    # builds of an older source pile up in the cache otherwise, as do
    # those of the kernel's first naming scheme; those of another
    # interpreter may still be in use
    stale = tmp_path / f"_search.0123456789ab{EXTENSION_SUFFIXES[0]}"
    legacy = tmp_path / "_forward-0123456789abcdef.so"
    foreign = tmp_path / "_search.0123456789ab.cpython-0-other.so"
    stale.touch()
    legacy.touch()
    foreign.touch()
    monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path)
    target = _native._build()
    assert sorted(tmp_path.iterdir()) == sorted([target, foreign])
    assert _native._build() == target and target.is_file()


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [_native._CC, *_native._FLAGS, "-Wall", "-Werror",
         f"-I{sysconfig.get_paths()['include']}",
         str(_native._SOURCE), "-o", str(tmp_path / "_search.so")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
