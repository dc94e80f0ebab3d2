"""Every script in demos/ runs to completion against the package source,
and prints what it printed when its digest below was recorded.

The demos import public names that no other test reads, so an API
change could break them silently; each one runs here in a subprocess.
Their output is seeded, so a change that should leave the package's
results alone leaves each demo's stdout byte for byte as it was.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The first 16 hex digits of the SHA-256 of each demo's stdout.
STDOUT_SHA256 = {
    "cost_profile": "99804d17c4c2e90a",
    "lemma_audit": "e41cea59931ce531",
    "reconstruction": "ec423b67ec983f25",
    "smoothed_sweep": "7885781cd6d025da",
    "worstcase_family": "e3a742980fa22f70",
}


def test_demos_found():
    # an empty glob would leave test_demo_runs with no cases to fail, and
    # a new demo needs its digest
    assert [p.stem for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()[:16]
    assert digest == STDOUT_SHA256[script.stem], proc.stdout
