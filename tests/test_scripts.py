"""The convenience scripts run end to end."""

import os
import pathlib
import subprocess
import sys

import istruct
from istruct.cli import bundled_scenario_path, load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(istruct.__file__)))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_search_l1_structure_gives_all_three_answers():
    done = _run_script("search_l1_structure.py")
    assert done.returncode == 0, done.stderr
    # one "<label padded to 10> <tag>" line per space, then A when found
    tags = {line[:10].strip(): line[11:] for line in done.stdout.splitlines()
            if not line.startswith((" ", "["))}
    assert tags == {"l2 plane": "found", "l1 plane": "none: finite isometry group",
                    "l2 (+) l2": "found", "l1 (+) l2": "undecided"}


def test_run_paper_suite_passes():
    done = _run_script("run_paper_suite.py")
    assert done.returncode == 0, done.stderr
    assert "claims came out as expected (suite 'paper-all'" in done.stdout


def test_run_paper_suite_unwritable_report_exits_2(tmp_path):
    out = tmp_path / "absent" / "r.json"
    done = _run_script("run_paper_suite.py", "--suite", "spaces", "--out", str(out))
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write report {out}")


def test_report_digest_prints_the_same_lines_twice():
    runs = [_run_script("report_digest.py", "--seeds", "7") for _ in range(2)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [(w, s, len(d)) for w, s, d in lines] == [
        ("paper-all", "7", 64), ("exact-algebra", "7", 64), ("non-euclidean", "7", 64)]
    assert runs[1].stdout == runs[0].stdout

    # one line per claim entry, each naming its claim
    claims = [_run_script("report_digest.py", "--seeds", "7", "--per-claim")
              for _ in range(2)]
    assert all(done.returncode == 0 for done in claims), claims[0].stderr
    assert claims[1].stdout == claims[0].stdout
    ids: dict = {}
    for workload, seed, claim_id, d in (line.split() for line in claims[0].stdout.splitlines()):
        assert (seed, len(d)) == ("7", 64)
        ids.setdefault(workload, []).append(claim_id)
    assert list(ids) == ["paper-all", "exact-algebra", "non-euclidean"]
    assert ids["paper-all"] == load_scenario(bundled_scenario_path())["suites"]["paper-all"]
