"""Seeded corpus of trivalent ribbon graphs for the benchmark.

Graphs are lists of vertex tuples of signed half-edge labels, exactly as
written in VPD: labels ``2e-1`` and ``2e`` form edge ``e`` and a minus sign on
the odd label marks a negative edge.

Every graph the benchmark runs is a *pool* graph under a seeded relabeling.
Pool graphs are fixed (planar prisms, and configuration-model graphs drawn
from fixed pool seeds), so their expected CLI outputs can be recorded once in
``expected.json``.  The run seed picks a random relabeling of each graph:
vertex order, the start of each cyclic tuple, edge numbers, and which end of
each edge carries the odd label.  These are ribbon-graph isomorphisms, so the
invariants vhx prints do not change, while the bytes vhx reads do.
"""

from __future__ import annotations

import random
import re


def to_vpd(vertices) -> str:
    return "G[" + ",".join("V[" + ",".join(map(str, v)) + "]" for v in vertices) + "]"


def _label(pairs, negative):
    """Vertex tuples from ``pairs[e] = ((v, slot), (w, slot))`` per edge."""
    nv = 1 + max(v for pair in pairs for v, _ in pair)
    vertices = [[0, 0, 0] for _ in range(nv)]
    for e, ((v, s), (w, t)) in enumerate(pairs, start=1):
        vertices[v][s] = -(2 * e - 1) if negative[e - 1] else 2 * e - 1
        vertices[w][t] = 2 * e
    return [tuple(v) for v in vertices]


def prism(k: int):
    """The plane prism C_k x K_2 (|V| = 2k), embedded with outer cycle u_i,
    inner cycle v_i and spokes u_i v_i.

    Counterclockwise rotations: u_i -> (u_{i+1}, v_i, u_{i-1}) and
    v_i -> (u_i, v_{i+1}, v_{i-1}); vertex u_i is 2i, vertex v_i is 2i+1.
    """
    if k < 3:
        raise ValueError("a prism needs k >= 3")
    u = lambda i: 2 * (i % k)  # noqa: E731
    v = lambda i: 2 * (i % k) + 1  # noqa: E731
    pairs = []
    for i in range(k):
        pairs.append(((u(i), 0), (u(i + 1), 2)))  # outer edge u_i u_{i+1}
        pairs.append(((v(i), 1), (v(i + 1), 2)))  # inner edge v_i v_{i+1}
        pairs.append(((u(i), 1), (v(i), 0)))  # spoke u_i v_i
    return _label(pairs, [False] * len(pairs))


def _connected(nv, pairs) -> bool:
    adj = {x: set() for x in range(nv)}
    for (v, _), (w, _) in pairs:
        adj[v].add(w)
        adj[w].add(v)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def random_cubic(nv: int, neg_prob: float, seed: int):
    """A connected loopless cubic ribbon graph from the configuration model.

    The three slots of each vertex are its counterclockwise order, so the
    random pairing of slots also draws a random rotation system.  Each edge
    is negative with probability ``neg_prob``.
    """
    if nv < 2 or nv % 2:
        raise ValueError("a cubic graph needs an even |V| >= 2")
    rng = random.Random(seed)
    slots = [(v, s) for v in range(nv) for s in range(3)]
    while True:
        rng.shuffle(slots)
        pairs = [(slots[i], slots[i + 1]) for i in range(0, len(slots), 2)]
        if all(a[0] != b[0] for a, b in pairs) and _connected(nv, pairs):
            break
    negative = [rng.random() < neg_prob for _ in pairs]
    return _label(pairs, negative)


def relabel(vertices, rng: random.Random):
    """An isomorphic copy: shuffled vertices, rotated tuples, renumbered edges,
    and edge ends swapped at random (the sign stays on the odd label)."""
    ne = sum(len(v) for v in vertices) // 2
    perm = list(range(1, ne + 1))
    rng.shuffle(perm)
    flip = [rng.random() < 0.5 for _ in range(ne)]
    negative = [False] * (ne + 1)
    for v in vertices:
        for h in v:
            if h < 0:
                negative[(-h + 1) // 2] = True

    def new_label(h: int) -> int:
        e = (abs(h) + 1) // 2
        odd = (abs(h) % 2 == 1) != flip[e - 1]
        f = perm[e - 1]
        return (-(2 * f - 1) if negative[e] else 2 * f - 1) if odd else 2 * f

    out = []
    for v in vertices:
        r = rng.randrange(len(v))
        out.append(tuple(new_label(h) for h in v[r:] + v[:r]))
    rng.shuffle(out)
    return out


FIXTURES = ("theta", "thetaneg", "k4", "thetab", "p3", "k33")
PRISMS = {f"prism{k}": k for k in (4, 5, 6, 7)}
# name -> (|V|, negative-edge probability); drawn once from POOL_SEED
RANDOM = {
    "rand6": (6, 0.0),
    "rand6neg": (6, 0.3),
    "rand8neg": (8, 0.3),
    "rand10": (10, 0.0),
    "rand10neg": (10, 0.3),
    "rand12": (12, 0.0),
    "rand12neg": (12, 0.3),
    "rand14neg": (14, 0.3),
}
POOL_SEED = 1

# Every workload runs its whole job list once per pass; a job is (CLI
# arguments, pool graph).  Sizes keep one pass under ~10 s on 2 cores, so a
# run holds three or more passes.
SMOKE = (("check", "--n", "2"), "theta")  # touches every layer, ~0.15 s
WORKLOADS = {
    # the 2^|V| state histogram alone
    "statesum": [
        *((("vertex-poly",), g) for g in ("prism4", "prism5", "prism6", "prism7", "rand12")),
        *((("ncolor-poly", "--n", "2,3,4"), g) for g in ("prism4", "prism6", "rand12neg", "rand14neg")),
        SMOKE,
    ],
    # chain-complex assembly and exact ranks
    "homology": [
        *((("homology", "--n", "2,3"), g) for g in (*FIXTURES, "rand6", "rand6neg")),
        *((("homology", "--n", "2"), g) for g in ("prism4", "prism5", "rand8neg")),
        *((("check", "--n", "2,3"), g) for g in ("k4", "p3", "k33")),
    ],
    # hypercube decompositions kept per n, plus coloring counts
    "filtered": [
        *((("filtered", "--n", "2,3"), g) for g in ("prism5", "rand10", "rand12neg")),
        *((("tm-poly", "--n", "2,3,4", "--two-var"), g) for g in ("prism5", "rand10neg")),
        (("filtered", "--n", "2"), "prism7"),
        SMOKE,
    ],
}
SETUP_JOB = (("faces",), "theta")  # no state sum: interpreter start, import, parse


def parse_vertices(text: str):
    """Vertex tuples of VPD text (the benchmark's own reader; vhx validates)."""
    return [
        tuple(int(h) for h in body.split(","))
        for body in re.findall(r"V\[([-\d,\s]*)\]", text)
    ]


def build_pool(data_dir) -> dict[str, list[tuple[int, ...]]]:
    """Every graph a workload can use, in canonical labels.

    Fixtures are read from vhx's bundled data.  Nothing here imports vhx:
    ``record.py`` asserts the prisms plane, and the run pins every graph to
    ``expected.json``.
    """
    pool = {}
    for name in FIXTURES:
        with open(f"{data_dir}/{name}.vpd") as fh:
            pool[name] = parse_vertices(fh.read())
    for name, k in PRISMS.items():
        pool[name] = prism(k)
    for name, (nv, neg) in RANDOM.items():
        pool[name] = random_cubic(nv, neg, POOL_SEED)
    return pool


def job_key(args, graph: str) -> str:
    return " ".join((*args, graph))
