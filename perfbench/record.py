"""Record the expected output of every benchmark job, and cross-check it.

Usage, from the repository root:

    python3 perfbench/record.py            # rewrite perfbench/expected.json

(``python3 -m pytest -q perfbench`` re-runs the cross-checks on the
recorded file.)  Prisms are asserted plane with ``genus_and_orientability``.

Outputs are recorded from vhx at the current sources on the canonical pool
labels, and must match on a seeded relabeling of every graph.  Before they
are written they are cross-checked with identities that tie different
commands together, and with the fixture values of tests/test_acceptance.py:

- Euler(filtered, n) = V(Gamma, n), for filtered and tm-poly outputs;
- graded Euler characteristic of homology = n-color polynomial;
- the n-color polynomial at q = 1 is V(Gamma, n);
- for plane graphs, V(Gamma, 2) = 2^(|V|/2) * #Tait;
- every ``check`` job reports ok.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

from corpus import PRISMS, SETUP_JOB, WORKLOADS, build_pool, job_key, relabel, to_vpd
from run import EXPECTED, PKG, SRC, WORK, Job, Runner


def reference_jobs(pool, jobs):
    """Extra commands whose outputs the identities need."""
    homology_graphs = {g for args, g in jobs if args[0] == "homology"}
    extra = []
    for g in sorted(pool):
        extra += [(("faces",), g), (("vertex-poly",), g), (("tait",), g)]
        if g in homology_graphs:
            extra.append((("ncolor-poly", "--n", "2,3"), g))
    extra += [
        (("filtered", "--n", "2,3,4,5"), "k33"),
        (("filtered", "--n", "2"), "theta"),
        (("homology", "--n", "2"), "theta"),
        (("homology", "--n", "2"), "p3"),
        (("ncolor-poly", "--n", "2"), "theta"),
        (("ncolor-poly", "--n", "2"), "p3"),
    ]
    return extra


def _lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _poly(obj):
    return {e: c for e, c in obj["terms"]}


def _eval(poly, x):
    return sum(c * x**e for e, c in poly.items())


def cross_check(outputs: dict[str, str]) -> list[str]:
    """Problems found by the identities and fixture values (empty if none)."""
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    vpoly, ncolor, faces, tait = {}, {}, {}, {}
    for key, text in outputs.items():
        *args, g = key.split()
        if args == ["vertex-poly"]:
            vpoly[g] = _poly(_lines(text)[0])
        elif args == ["faces"]:
            faces[g] = _lines(text)[0]
        elif args == ["tait"]:
            tait[g] = _lines(text)[0]["tait"]
        elif args[0] == "ncolor-poly":
            for obj in _lines(text):
                ncolor.setdefault(g, {})[obj["n"]] = _poly(obj)

    for key, text in outputs.items():
        *args, g = key.split()
        cmd = args[0]
        if cmd == "filtered":
            for obj in _lines(text):
                alt = sum((-1) ** i * r for i, r in enumerate(obj["ranks"]))
                need(alt == obj["euler"] == _eval(vpoly[g], obj["n"]), f"{key}: Euler != V(n)")
        elif cmd == "tm-poly":
            for row in _lines(text)[0]["rows"]:
                alt = sum((-1) ** i * r for i, r in enumerate(row["ranks"]))
                need(alt == _eval(vpoly[g], row["n"]), f"{key}: Euler != V(n)")
        elif cmd == "homology":
            for obj in _lines(text):
                euler = {}
                for i, j, r in obj["ranks"]:
                    euler[j] = euler.get(j, 0) + (-1) ** i * r
                euler = {j: c for j, c in euler.items() if c}
                need(euler == ncolor[g][obj["n"]], f"{key}: graded Euler != n-color polynomial")
        elif cmd == "ncolor-poly":
            for n, poly in ncolor[g].items():
                need(_eval(poly, 1) == _eval(vpoly[g], n), f"{key}: q=1 value != V({n})")
        elif cmd == "check":
            res = _lines(text)[0]
            need(res["ok"] and all(s == "ok" or s.startswith("skipped") for _, s in res["results"]),
                 f"{key}: invariant suite reports a failure")

    for g, f in faces.items():
        if f["orientable"] and f["genus"] == 0:
            need(_eval(vpoly[g], 2) == 2 ** (f["vertices"] // 2) * tait[g], f"{g}: V(2) != 2^(|V|/2) #Tait")
    need(all(faces[p]["orientable"] and faces[p]["genus"] == 0 for p in faces if p.startswith("prism")),
         "a prism is not plane")

    # fixture values of tests/test_acceptance.py (criteria 1 to 5 and 8)
    closed = {
        "theta": lambda n: 2 * n * (n**2 - 1),
        "thetaneg": lambda n: 2 * n * (n - 1),
        "k4": lambda n: 2 * n**2 * (n**2 - 1),
        "p3": lambda n: 2 * n**3 * (n**2 - 1),
        "k33": lambda n: 0,
    }
    for g, f in closed.items():
        need(all(_eval(vpoly[g], n) == f(n) for n in range(-6, 9)), f"{g}: vertex polynomial")
    need(ncolor["theta"][2] == {0: 1, 1: 3, 2: 3, 3: -1, 4: -2, 6: 1, 7: 3, 8: 3, 9: 1},
         "theta: n-color polynomial at n=2")
    need(ncolor["p3"][2] == {
        0: 1, 1: 5, 2: 10, 3: 4, 4: -13, 5: -17, 6: 9, 7: 33, 8: 27, 9: -11, 10: -36,
        11: -24, 12: 7, 13: 33, 14: 27, 15: 3, 16: -18, 17: -18, 18: -5, 19: 5, 20: 10,
        21: 10, 22: 5, 23: 1,
    }, "p3: n-color polynomial at n=2")
    theta_h = {(i, j): r for i, j, r in _lines(outputs["homology --n 2 theta"])[0]["ranks"]}
    need(theta_h == {(0, 0): 1, (0, 1): 3, (0, 2): 3, (1, 3): 1, (1, 4): 2,
                     (2, 6): 1, (2, 7): 3, (2, 8): 3, (2, 9): 1}, "theta: homology table at n=2")
    p3_h = {(i, j): r for i, j, r in _lines(outputs["homology --n 2 p3"])[0]["ranks"]}
    need(p3_h.get((1, 6)) == 1 and p3_h.get((2, 6)) == 10, "p3: homology ranks at n=2")
    need(_lines(outputs["filtered --n 2 theta"])[0]["ranks"] == [6, 0, 6], "theta: filtered ranks")
    for obj in _lines(outputs["filtered --n 2,3,4,5 k33"]):
        n = obj["n"]
        want = [n * (n - 1) ** 2, 4 * n * (n - 1) ** 2, n * (7 - 16 * n + 9 * n**2),
                4 * n * (2 - 5 * n + 3 * n**2), n * (7 - 16 * n + 9 * n**2),
                4 * n * (n - 1) ** 2, n * (n - 1) ** 2]
        need(obj["ranks"] == want, f"k33: filtered ranks at n={n}")
        if n == 2:
            need(obj["ranks"] == [2, 8, 22, 32, 22, 8, 2] and obj["tm"] == 96, "k33: n=2 ranks and TM")
    return problems


def record() -> int:
    sys.path.insert(0, SRC)
    from vhx.vpd import genus_and_orientability, parse_vpd

    pool = build_pool(os.path.join(PKG, "data"))
    for name in PRISMS:
        if genus_and_orientability(parse_vpd(to_vpd(pool[name]))) != (True, 0):
            raise AssertionError(f"{name} is not a plane embedding")
    jobs = sorted({job for w in WORKLOADS.values() for job in w} | {SETUP_JOB})
    jobs += reference_jobs(pool, jobs)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"record-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workdir)
    rng = random.Random(12345)
    outputs, problems = {}, []
    try:
        for name, vertices in pool.items():
            for tag, graph in (("canon", vertices), ("relabel", relabel(vertices, rng))):
                with open(os.path.join(workdir, f"{name}.{tag}.vpd"), "w") as fh:
                    fh.write(to_vpd(graph) + "\n")
        for args, g in jobs:
            key = job_key(args, g)
            seen = []
            for tag in ("canon", "relabel"):
                o = runner.run(Job(key, (*args, "--json", os.path.join(workdir, f"{g}.{tag}.vpd")), None))
                if o.code != 0:
                    problems.append(f"{key}: exit {o.code}: {o.stderr.strip()}")
                seen.append(o.stdout)
            if seen[0] != seen[1]:
                problems.append(f"{key}: output changes under relabeling")
            outputs[key] = seen[0]
            print(f"{o.wall_s:8.2f} s  {key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += cross_check(outputs)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    data = {"graphs": {g: to_vpd(v) for g, v in sorted(pool.items())}, "outputs": outputs}
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} outputs to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
