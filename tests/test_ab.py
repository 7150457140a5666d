"""The interleaved A/B tool, ``experiments/ab.py``, run on this tree against itself."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def committed_head() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    return probe.returncode == 0


needs_git = pytest.mark.skipif(not committed_head(), reason="needs git and a commit to compare against")


@needs_git
def test_a_session_against_head_reports_every_job(tmp_path):
    out = tmp_path / "ab.json"
    args = ["HEAD", "--workload", "php-proof", "--sessions", "2", "--json", str(out)]
    run = subprocess.run([sys.executable, str(ROOT / "experiments" / "ab.py"), *args], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "ab: php-proof seed 1: 12 jobs, tree against HEAD"
    assert [line.split(":")[0] for line in lines[1:]] == ["session 1", "session 2"]
    report = json.loads(out.read_text())
    assert (report["rev"], report["workload"], report["seed"]) == ("HEAD", "php-proof", 1)
    for s in report["sessions"]:
        assert s["jobs"] == 12
        assert s["change_faster"] + s["base_faster"] <= 12
        q1, q3 = s["job_ratio_quartiles"]
        assert 0 < q1 <= s["median_job_ratio"] <= q3
        assert s["total_ratio"] == pytest.approx(s["change_s"] / s["base_s"])


@needs_git
def test_an_unknown_revision_is_one_error_line():
    run = subprocess.run(
        [sys.executable, str(ROOT / "experiments" / "ab.py"), "no-such-revision"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("ab: cannot unpack no-such-revision: ")
    assert len(run.stderr.splitlines()) == 1
