"""Each narrative script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout
