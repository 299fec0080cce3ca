"""The repository's pytest settings, run on a probe file in a subprocess."""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_fails(n):
        assert n > 0


    def test_passes():
        pass
""")


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis's failure report warns, and "error" turns warnings into
    # errors: unless the settings ignore that warning, pytest ends with an
    # INTERNALERROR and skips every later test.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
