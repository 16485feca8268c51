"""vhx benchmark: time one workload through the CLI and check every output.

Usage, from the repository root (vhx need not be installed; ``src`` is put on
PYTHONPATH of each job):

    python3 perfbench/run.py --workload statesum --seed 1 --seconds 42 --trace 0

Every job is one fresh ``python -m vhx.cli ... --json`` process, so caches
start cold as they do for a user.  Load is a closed loop: one job at a time.
Wall time, exit code and peak RSS of each job come from ``os.wait4``
(see ``launch.py``).
A job fails when it exits non-zero or prints anything but the output recorded
in ``expected.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
passes with passes whose jobs run under ``tracer.py`` and prints the
per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from corpus import SETUP_JOB, WORKLOADS, build_pool, job_key, relabel, to_vpd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "vhx")
EXPECTED = os.path.join(HERE, "expected.json")
TRACER = os.path.join(HERE, "tracer.py")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(HERE, ".work")
SETUP_PER_PASS = 3


@dataclass
class Job:
    key: str  # the expected-output key: arguments and pool graph name
    args: tuple[str, ...]  # CLI arguments; the input file is the last one
    expected: str | None


@dataclass
class Outcome:
    wall_s: float
    code: int
    maxrss_kb: int
    stdout: str
    stderr: str
    failed: bool


class Runner:
    """Runs jobs one at a time as child processes and checks their output."""

    def __init__(self, workdir: str, cli=(sys.executable, "-m", "vhx.cli")):
        self.workdir = workdir
        self.cli = list(cli)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        # jobs import vhx from cached bytecode, as an installed package does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, job: Job, trace_path: str | None = None) -> Outcome:
        if trace_path is None:
            argv = [*self.cli, *job.args]
        else:
            argv = [sys.executable, TRACER, trace_path, *job.args]
        out_path, err_path, report = (
            os.path.join(self.workdir, name) for name in ("stdout", "stderr", "report")
        )
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", LAUNCH, report, *argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            try:
                proc.wait()
            except BaseException:
                proc.terminate()  # the launcher passes it on to the job
                proc.wait()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"launcher failed (exit {proc.returncode}) for {argv}")
        with open(report) as fh:
            wall, code, maxrss_kb = fh.read().split()
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        failed = int(code) != 0 or stdout != job.expected
        return Outcome(float(wall), int(code), int(maxrss_kb), stdout, stderr, failed)


def failed_frac(outcomes) -> float:
    return sum(o.failed for o in outcomes) / len(outcomes)


def make_jobs(workload: str, seed: int, workdir: str) -> tuple[list[Job], Job]:
    """The workload's jobs and the set-up job, on seeded relabelings of the
    pool graphs written to ``workdir``.  Job order is shuffled by the seed."""
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    pool = build_pool(os.path.join(PKG, "data"))
    rng = random.Random(seed)
    paths = {}
    for name, vertices in sorted(pool.items()):
        if to_vpd(vertices) != expected["graphs"][name]:
            raise SystemExit(f"perfbench: corpus graph {name} differs from expected.json")
        paths[name] = os.path.join(workdir, f"{name}.vpd")
        with open(paths[name], "w") as fh:
            fh.write(to_vpd(relabel(vertices, rng)) + "\n")

    def job(args, graph):
        key = job_key(args, graph)
        return Job(key, (*args, "--json", paths[graph]), expected["outputs"].get(key))

    jobs = [job(args, graph) for args, graph in WORKLOADS[workload]]
    rng.shuffle(jobs)
    return jobs, job(*SETUP_JOB)


def one_pass(runner, jobs, trace_dir=None):
    """Run every job once; under ``trace_dir`` each job runs traced."""
    outcomes, traces = [], []
    for i, job in enumerate(jobs):
        path = None if trace_dir is None else os.path.join(trace_dir, f"{i}.json")
        outcomes.append(runner.run(job, trace_path=path))
        traces.append(path)
    return outcomes, traces


def repeat_until(deadline, step):
    """Call ``step`` until the next call would end after ``deadline``; at
    least once."""
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def job_medians(passes) -> list[float]:
    return [statistics.median(o.wall_s for o in col) for col in zip(*passes)]


def pass_totals(passes) -> list[float]:
    return [round(sum(o.wall_s for o in p), 3) for p in passes]


def end_to_end(runner, jobs, setup_job, seconds):
    # set-up jobs are spread through every pass, so they sample the whole run
    step = len(jobs) // SETUP_PER_PASS
    order = list(jobs)
    for i in reversed(range(SETUP_PER_PASS)):
        order.insert(i * step, setup_job)
    passes = []
    repeat_until(time.perf_counter() + seconds, lambda: passes.append(one_pass(runner, order)[0]))
    setup = [o.wall_s for p in passes for o, job in zip(p, order) if job is setup_job]
    work = [[o for o, job in zip(p, order) if job is not setup_job] for p in passes]
    med = job_medians(work)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "total_s": (sum(med), "s"),
        "largest_s": (max(med), "s"),
        "peak_rss_mb": (max(o.maxrss_kb for p in work for o in p) / 1024, "MB"),
    }
    return metrics, [o for p in passes for o in p], pass_totals(passes)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def read_traces(traced) -> dict[str, dict]:
    """Trace records by path.  A traced job whose record is missing or
    unreadable is counted as failed."""
    records = {}
    for outcomes, paths in traced:
        for o, path in zip(outcomes, paths):
            try:
                with open(path) as fh:
                    records[path] = json.load(fh)
            except (OSError, ValueError):
                o.failed = True
    return records


def per_layer(runner, jobs, seconds):
    """Pairs of a plain pass and a traced pass until the deadline; layer
    figures come from the traced pass with the median wall time.  Also
    returns the hooked names vhx no longer has."""
    plain, traced = [], []

    def pair():
        plain.append(one_pass(runner, jobs)[0])
        trace_dir = os.path.join(runner.workdir, f"trace{len(traced)}")
        os.makedirs(trace_dir)
        traced.append(one_pass(runner, jobs, trace_dir))

    repeat_until(time.perf_counter() + seconds, pair)
    records = read_traces(traced)
    outcomes, paths = sorted(traced, key=lambda t: sum(o.wall_s for o in t[0]))[len(traced) // 2]
    wall = sum(o.wall_s for o in outcomes)
    spans, counts, top_s, states, missing = {}, {}, 0.0, 0, set()
    for path in paths:
        rec = records.get(path)
        if rec is None:
            continue
        missing.update(rec["missing"])
        for name, (calls, incl, self_s) in rec["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
        top_s += rec["top_s"]
        states += rec["states"]

    def layer_self(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix + "."))

    calls = {k: v[0] for k, v in spans.items()}
    incl = {k: v[1] for k, v in spans.items()}
    own = {k: v[2] for k, v in spans.items()}
    m = {
        "vpd.parse_s": (incl["vpd.parse"], "s"),
        "vpd.trace_s": (incl["vpd.trace"], "s"),
        "vpd.trace_calls": (calls["vpd.trace"], "count"),
        "vpd.trace_calls_per_state": (_ratio(calls["vpd.trace"], states), "calls/state"),
        "vpd.self_s": (layer_self("vpd"), "s"),
        "states.decomposition_calls": (calls["states.decomposition"], "count"),
        "states.decomposition_hit_ratio": (
            _ratio(counts["decomposition_hits"], calls["states.decomposition"]),
            "ratio",
        ),
        "states.decomposition_self_s": (own["states.decomposition"], "s"),
        "poly.histogram_s": (incl["poly.histogram"], "s"),
        "poly.histogram_self_s": (own["poly.histogram"], "s"),
        "poly.states": (counts["histogram_states"], "count"),
        "poly.states_per_s": (_ratio(counts["histogram_states"], incl["poly.histogram"]), "1/s"),
        "poly.self_s": (layer_self("poly"), "s"),
        "colorings.filtered_self_s": (own["colorings.filtered"], "s"),
        "colorings.count_s": (incl["colorings.count"], "s"),
        "colorings.count_calls": (calls["colorings.count"], "count"),
        "colorings.memo_hit_ratio": (
            1 - _ratio(counts["memo_misses"], calls["colorings.count"]),
            "ratio",
        ),
        "colorings.self_s": (layer_self("colorings"), "s"),
        "homology.build_s": (incl["homology.build"], "s"),
        "homology.build_self_s": (own["homology.build"], "s"),
        "homology.emap_s": (incl["homology.emap"], "s"),
        "homology.emap_calls": (calls["homology.emap"], "count"),
        "homology.basis_dim": (counts["basis_dim"], "count"),
        "homology.nnz": (counts["nnz"], "count"),
        "homology.rank_s": (incl["homology.rank"], "s"),
        "homology.ddcheck_s": (incl["homology.ddcheck"], "s"),
        "homology.self_s": (layer_self("homology"), "s"),
        "algebra.quad_ops": (counts["quad_ops"], "count"),
        "oracles.s": (layer_self("oracles"), "s"),  # oracle spans do not nest
        "cli.self_s": (wall - top_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (
            sum(job_medians([t[0] for t in traced])) / sum(job_medians(plain)) - 1,
            "ratio",
        ),
    }
    every = plain + [t[0] for t in traced]
    return m, [o for p in every for o in p], pass_totals([t[0] for t in traced]), sorted(missing)


def environment(seed: int, passes: list[float]) -> dict:
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(PKG) for f in fs if f.endswith((".py", ".vpd"))
    )
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, PKG).encode() + b"\0" + data)
        if path.endswith(".py"):
            lines += data.count(b"\n")
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "pass_totals_s": passes,
        "python": platform.python_version(),
        "numpy": numpy,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


def _git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: stop the running job and remove the scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(PKG, "cli.py")):
        print(f"perfbench: no vhx sources at {PKG}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs, setup_job = make_jobs(args.workload, args.seed, workdir)
        runner = Runner(workdir)
        runner.run(setup_job)  # untimed warm-up: bytecode compilation
        missing = []
        if args.trace:
            metrics, outcomes, passes, missing = per_layer(runner, jobs, args.seconds)
        else:
            metrics, outcomes, passes = end_to_end(runner, jobs, setup_job, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    for o in failed[:5]:
        print(f"perfbench: failed job (exit {o.code}): {o.stderr.strip()[-300:]}", file=sys.stderr)
    if missing:
        print(f"perfbench: vhx no longer has {', '.join(missing)}; "
              "their per-layer figures read 0", file=sys.stderr)
    print("env " + json.dumps(environment(args.seed, passes)))
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>14.6g} {unit}")
    print(f"{'failed_frac':32} {failed_frac(outcomes):>14.6g} ratio")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
