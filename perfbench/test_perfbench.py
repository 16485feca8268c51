"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from corpus import SETUP_JOB, build_pool, job_key, to_vpd  # noqa: E402
from record import cross_check  # noqa: E402
from run import EXPECTED, PKG, SRC, TRACER, Job, Outcome, Runner, failed_frac, read_traces  # noqa: E402


def _expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def test_corpus_matches_recorded_graphs():
    pool = build_pool(os.path.join(PKG, "data"))
    assert {g: to_vpd(v) for g, v in pool.items()} == _expected()["graphs"]


def test_recorded_outputs_pass_the_identities():
    assert cross_check(_expected()["outputs"]) == []


def test_identities_catch_a_corrupted_value():
    outputs = dict(_expected()["outputs"])
    key = "filtered --n 2,3 prism5"
    rows = [json.loads(line) for line in outputs[key].splitlines()]
    rows[0]["ranks"][1] += 1
    outputs[key] = "".join(json.dumps(r) + "\n" for r in rows)
    assert any(p.startswith(key) for p in cross_check(outputs))


def test_failed_frac_counts_wrong_output_and_failing_exits(tmp_path):
    theta = tmp_path / "theta.vpd"
    theta.write_text(to_vpd(build_pool(os.path.join(PKG, "data"))["theta"]))
    bad = tmp_path / "bad.vpd"
    bad.write_text("G[V[1,2")
    expected = _expected()["outputs"][job_key(*SETUP_JOB)]
    args = (*SETUP_JOB[0], "--json")
    runner = Runner(str(tmp_path))

    ok = runner.run(Job("ok", (*args, str(theta)), expected))
    corrupted = runner.run(Job("corrupted", (*args, str(theta)), expected.replace('"circles": 3', '"circles": 4')))
    exit2 = runner.run(Job("exit2", (*args, str(bad)), expected))
    assert (ok.failed, ok.code) == (False, 0)
    assert (corrupted.failed, corrupted.code) == (True, 0)
    assert (exit2.failed, exit2.code) == (True, 2)

    # an invariant-suite failure: exit 3 with the expected output still fails
    failing_suite = Runner(str(tmp_path), cli=(sys.executable, "-c", f"print({expected!r}, end=''); exit(3)"))
    exit3 = failing_suite.run(Job("exit3", (*args, str(theta)), expected))
    assert (exit3.failed, exit3.code, exit3.stdout) == (True, 3, expected)

    assert failed_frac([ok, corrupted, exit2, exit3]) == 0.75


def test_tracer_survives_a_missing_layer_name(tmp_path):
    """A hooked name that vhx no longer has is reported, and the job runs."""
    theta = tmp_path / "theta.vpd"
    theta.write_text(to_vpd(build_pool(os.path.join(PKG, "data"))["theta"]))
    out = tmp_path / "trace.json"
    args = [str(out), *SETUP_JOB[0], "--json", str(theta)]
    code = (
        f"import runpy, sys; sys.path.insert(0, {SRC!r}); sys.argv = [{TRACER!r}, *{args!r}]; "
        "import vhx.cli, vhx.homology; del vhx.homology.graded_euler; "
        f"runpy.run_path({TRACER!r}, run_name='__main__')"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == _expected()["outputs"][job_key(*SETUP_JOB)]
    rec = json.loads(out.read_text())
    assert rec["missing"] == ["homology.graded_euler"]
    assert rec["spans"]["vpd.parse"][0] == 1


def test_missing_trace_record_counts_as_failed(tmp_path):
    good = tmp_path / "good.json"
    good.write_text("{}")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    outcomes = [Outcome(0.1, 0, 1, "", "", False) for _ in range(3)]
    paths = [str(good), str(bad), str(tmp_path / "absent.json")]
    assert list(read_traces([(outcomes, paths)])) == [str(good)]
    assert [o.failed for o in outcomes] == [False, True, True]
