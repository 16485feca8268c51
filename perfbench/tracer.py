"""Run one vhx CLI job with its layers timed from outside.

Usage: python perfbench/tracer.py OUT.json <vhx cli arguments...>
(with the repository's ``src`` on PYTHONPATH)

The tracer wraps the public functions of each vhx layer at every name that
binds them (``from .vpd import trace_boundary`` makes a separate binding in
``poly``, ``states``, ``homology`` and ``cli``), then calls ``vhx.cli.main``.
stdout is exactly the CLI's.  Spans are aggregated in memory per name, as
[calls, inclusive seconds, self seconds], and written to OUT.json on exit.
Self time is a span's time minus the time of the spans it called.
Only public names are hooked, except that ``vhx.colorings._memo`` is read
(never written) to count memo misses.  A hooked name that vhx no longer has
is listed under "missing" in OUT.json; the job still runs.  Nothing under
``src/`` is modified.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# span name -> (module, attribute path)
SPANS = {
    "vpd.parse": ("vpd", "parse_vpd"),
    "vpd.trace": ("vpd", "trace_boundary"),
    "vpd.genus": ("vpd", "genus_and_orientability"),
    "states.decomposition": ("states", "VertexHypercube.decomposition"),
    "poly.vertex_polynomial": ("poly", "vertex_polynomial"),
    "poly.ncolor_polynomial": ("poly", "ncolor_vertex_polynomial"),
    "poly.histogram": ("poly", "state_histogram"),
    "colorings.filtered": ("colorings", "filtered_ranks"),
    "colorings.count": ("colorings", "count_partial_colorings"),
    "homology.build": ("homology", "build_vertex_complex"),
    "homology.emap": ("homology", "elementary_tensor_map"),
    "homology.rank": ("homology", "bigraded_homology"),
    "homology.ddcheck": ("homology", "chain_condition_holds"),
    "homology.euler": ("homology", "graded_euler"),
    "oracles.matchings": ("oracles", "perfect_matchings"),
    "oracles.classify": ("oracles", "classify_matching"),
    "oracles.tait": ("oracles", "count_tait_colorings"),
    "oracles.bridges": ("oracles", "bridges"),
}
QUAD_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")
# commands that enumerate the 2^|V| vertex states of their graph
STATE_COMMANDS = {"vertex-poly", "ncolor-poly", "homology", "filtered", "tm-poly", "check"}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts = {
            "decomposition_hits": 0,
            "memo_misses": 0,
            "quad_ops": 0,
            "histogram_states": 0,
            "basis_dim": 0,
            "nnz": 0,
        }
        self.missing: list[str] = []  # hooked names vhx no longer has
        self.top_s = 0.0  # time inside outermost spans
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth = {name: 0 for name in SPANS}

    def wrap(self, name, fn):
        rec, stack, depth = self.spans[name], self._stack, self._depth

        @wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                depth[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
                rec[0] += 1
                if not depth[name]:  # inclusive time of the outermost call only
                    rec[1] += dt
                rec[2] += dt - frame[0]

        return spanned

    def count(self, key, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        import vhx
        from vhx import algebra, cli, colorings, homology, oracles, poly, states, vpd

        modules = [vhx, algebra, cli, colorings, homology, oracles, poly, states, vpd]
        layer = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

        def hook(mod, path, make):
            """Replace ``mod.path`` (a function or ``Class.method``) by
            ``make(original)``, at every module-level name bound to a function.
            A name the layer no longer has is recorded, not fatal."""
            owner = layer[mod]
            *classes, attr = path.split(".")
            try:
                for cls in classes:
                    owner = getattr(owner, cls)
                orig = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{mod}.{path}")
                return
            new = make(orig)
            if classes:
                setattr(owner, attr, new)
                return
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, new)

        for name, (mod, path) in SPANS.items():
            hook(mod, path, lambda fn, name=name: self.wrap(name, fn))

        # the counters use public names and results only, except that
        # vhx.colorings._memo is read (never written)
        counts, trace_rec, seen = self.counts, self.spans["vpd.trace"], set()

        def count_hits(fn):
            # a decomposition that traced nothing came from the hypercube's cache
            def decomposition(*args, **kwargs):
                before = trace_rec[0]
                out = fn(*args, **kwargs)
                counts["decomposition_hits"] += trace_rec[0] == before
                return out

            return decomposition

        def count_misses(fn):
            def count_partial_colorings(*args, **kwargs):
                before = len(colorings._memo)
                out = fn(*args, **kwargs)
                counts["memo_misses"] += len(colorings._memo) > before
                return out

            return count_partial_colorings

        def count_states(fn):
            # the first call per graph enumerates its states; later calls hit
            # the lru_cache
            def state_histogram(rs, *args, **kwargs):
                out = fn(rs, *args, **kwargs)
                if rs.vertices not in seen:
                    seen.add(rs.vertices)
                    counts["histogram_states"] += 1 << rs.vertex_count
                return out

            return state_histogram

        def count_complex(fn):
            def build_vertex_complex(*args, **kwargs):
                cx = fn(*args, **kwargs)
                if hasattr(cx, "bases") and hasattr(cx, "diff"):
                    counts["basis_dim"] += sum(len(b) for b in cx.bases.values())
                    counts["nnz"] += sum(len(d) for d in cx.diff.values())
                else:
                    self.missing.append("homology.ChainComplex.bases/diff")
                return cx

            return build_vertex_complex

        hook("states", "VertexHypercube.decomposition", count_hits)
        if hasattr(colorings, "_memo"):
            hook("colorings", "count_partial_colorings", count_misses)
        else:
            self.missing.append("colorings._memo")
        hook("poly", "state_histogram", count_states)
        hook("homology", "build_vertex_complex", count_complex)
        for op in QUAD_OPS:
            hook("algebra", f"QuadScalar.{op}", lambda fn: self.count("quad_ops", fn))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    with open(cli_args[-1]) as fh:  # the input file is the last argument
        nv = fh.read().count("V[")
    tracer = Tracer()
    try:
        tracer.install()
        from vhx import cli

        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "missing": sorted(set(tracer.missing)),
                    "top_s": tracer.top_s,
                    "states": (1 << nv) if cli_args[0] in STATE_COMMANDS else 0,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
