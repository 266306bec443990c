"""Smoke run of the benchmark's self-test, which needs the CLI codec to go
through mrcodes.mrcode.encode/decode (its fault hooks patch them) and the
codec outputs to carry .value."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "selftest passed" in result.stderr
