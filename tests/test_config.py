import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # hypothesis prints a failing example through libcst, whose import
    # warns; under the repo's warnings-as-errors config that warning must
    # not end the run in an internal error
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    cp = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_fails.py")],
                        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = cp.stdout + cp.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert cp.returncode == 1 and "1 failed" in out
