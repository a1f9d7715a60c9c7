"""Smoke test: every demo script runs to completion against ./src.

Demos whose printed numbers are checks of the model also have each number
held to a bound, so a stale call site that still exits 0 is seen.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo -> (pattern of one printed number, upper bound), in print order
PRINTED_BOUNDS = {
    "03_picard_vs_rk4": [
        (r"sup-TV distance between the two trajectories: (\S+)", 1e-7),
        (r"halving dt shrinks the gap to (\S+)", 2.5e-8),
    ],
    "04_reductions": [
        (r"3-class system.*\n  sup-TV gap over \[0, 10\]: (\S+)", 1e-12),
        (r"max finite-difference discrepancy: (\S+)", 1e-6),
        (r"discrepancy vs the frequency RHS: (\S+)", 1e-6),
        (r"quasi-species .*\n  sup-TV gap over \[0, 10\]: (\S+)", 1e-12),
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for pattern, bound in PRINTED_BOUNDS.get(demo.stem, []):
        found = re.findall(pattern, proc.stdout)
        assert len(found) == 1, f"{pattern!r} printed {len(found)} times"
        assert float(found[0]) <= bound, f"{pattern!r} printed {found[0]}, above {bound:g}"
