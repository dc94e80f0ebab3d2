"""Build and load the compiled search kernel, _search.c, on first use.

load() compiles the source with gcc into this package's __pycache__,
under a name that hashes the source, the compiler flags and the
interpreter's extension suffix, so a changed source or interpreter never
loads a stale build and an unchanged one compiles once; a new build
deletes the older ones for the same suffix. The build goes to a temporary
file that os.replace moves into place, so concurrent processes never
load a half-written library. Any failure (no compiler, no Python.h, a
read-only package directory) logs one warning, and the solver runs its
Python loops instead; both give identical traces.

The kernel computes in C doubles, so it takes exact floats only. The
solver decides that by network._floats, once per instance for a solve
(_Arrays.floats) and once per trace replay, and calls load() only then.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path

_SOURCE = Path(__file__).with_name("_search.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC = "gcc"
# No fused multiply-add and no fast-math, so every double operation
# rounds as Python's does.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _build() -> Path:
    """Path of the compiled kernel, compiled first unless cached."""
    source = _SOURCE.read_bytes()
    suffix = EXTENSION_SUFFIXES[0]
    tag = hashlib.sha256(
        b"\0".join([source, " ".join(_FLAGS).encode(), suffix.encode()])
    ).hexdigest()[:12]
    target = _CACHE_DIR / f"_search.{tag}{suffix}"
    if not target.is_file():
        _compile(target)
        for old in set(_CACHE_DIR.glob(f"_search.*{suffix}")) - {target}:
            old.unlink(missing_ok=True)
    return target


def _compile(target: Path) -> None:
    # Imported here, so that only a process that compiles pays for them.
    import subprocess
    import sysconfig

    _CACHE_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=target.suffix, dir=_CACHE_DIR)
    os.close(fd)
    try:
        done = subprocess.run(
            [_CC, *_FLAGS, f"-I{sysconfig.get_paths()['include']}",
             str(_SOURCE), "-o", tmp],
            capture_output=True, text=True,
        )
        if done.returncode:
            raise RuntimeError(
                f"{_CC} exited {done.returncode}: {done.stderr.strip()[-500:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def load():
    """The compiled kernel module, or None when it cannot be built."""
    try:
        path = str(_build())
        loader = ExtensionFileLoader("sspflow._search", path)
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    except (OSError, RuntimeError, ImportError) as exc:
        import logging  # only a failed build pays for it

        logging.getLogger(__name__).warning(
            "compiled search unavailable, using the Python loops: %s", exc
        )
        return None

