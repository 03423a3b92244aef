"""The test session under the repository's settings: a failing test is
reported, and the tests after it still run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import menet

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(i):
    assert False


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # to report a failure hypothesis imports a module whose imports warn,
    # which the DeprecationWarning error filter once turned into an
    # INTERNALERROR that ended the session at the first failing @given test
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "-rA",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in report, report[-3000:]
    assert "PASSED test_probe.py::test_after" in proc.stdout, report[-3000:]
    assert "FAILED test_probe.py::test_fails" in proc.stdout, report[-3000:]
    assert proc.returncode == 1


def test_menet_is_the_one_pythonpath_names():
    # a conftest that puts its own checkout's src/ first on sys.path would
    # test that checkout's menet, whatever PYTHONPATH names
    entries = [Path(e) for e in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if e]
    named = next((e.resolve() / "menet" for e in entries
                  if (e / "menet" / "__init__.py").is_file()), None)
    if named is None:
        pytest.skip("no PYTHONPATH entry holds a menet package")
    imported = Path(menet.__file__).resolve().parent
    assert imported == named, (f"PYTHONPATH names menet at {named}, but "
                               f"the tests imported {imported}")
