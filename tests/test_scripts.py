"""The report scripts print the same bytes as when their outputs were recorded.

``calibrate_signs.py`` prints ``terms`` dicts verbatim, so these pins also
hold the order in which a value hands out its frames and monomials.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED_MD5 = {
    "calibrate_signs.py": "537559ede41374e487504bc8904629c7",
    "obstruction_profile.py": "65bb99cf0a06e6b8164029c30777dcc9",
}


@pytest.mark.parametrize("script", sorted(PINNED_MD5))
def test_script_output_is_pinned(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.md5(r.stdout).hexdigest() == PINNED_MD5[script], r.stdout.decode()
