"""The bench twins name the tree that produced them.

``benchmarks/conftest.py::git_sha`` stamps every JSON twin; a copy of
that file in a throwaway git repository checks the stamp of a clean
and of a modified tree.
"""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *args],
        cwd=cwd, capture_output=True, text=True, check=True,
    ).stdout.strip()


def _load(path: Path):
    spec = importlib.util.spec_from_file_location("bench_conftest_copy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_git_sha_marks_modified_tracked_files(tmp_path):
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "data.txt").write_text("committed\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "snapshot")
    head = _git(tmp_path, "rev-parse", "--short", "HEAD")
    module = _load(tmp_path / "conftest.py")

    assert module.git_sha() == head
    # An untracked file is not part of the benchmarked code.
    (tmp_path / "notes.txt").write_text("scratch\n")
    assert module.git_sha() == head
    (tmp_path / "data.txt").write_text("edited\n")
    assert module.git_sha() == f"{head}-dirty"
    _git(tmp_path, "add", "data.txt")
    assert module.git_sha() == f"{head}-dirty"  # staged, still uncommitted


def test_git_sha_off_repo_is_unknown(tmp_path):
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    module = _load(tmp_path / "conftest.py")
    assert module.git_sha() == "unknown"
