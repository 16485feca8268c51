"""Command-line front end: read .vpd files, dispatch, print text or JSON.

Exit codes: 0 success, 2 parse/usage error, 3 invariant-suite failure or
violated internal invariant.

Each command imports the layers it runs in its handler, so ``faces`` loads
only :mod:`~vhx.vpd` and a state sum only the state-sum layers.  A run that
names a command with known options is read without argparse, and its JSON
is written without json: a job loads neither.  Every command takes
``--json``; ``--cap`` goes only to the commands whose sweeps read it, so
``faces`` and ``matchings`` refuse it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import __version__
from .states import DEFAULT_STATE_CAP, InvariantError, StateSpaceError
from .vpd import VPDError, _dumps, genus_and_orientability, parse_vpd


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        msg = f"bad --n value {text!r}"
    else:
        if ns and min(ns) >= 2:
            return ns
        msg = "--n takes integers >= 2 (comma-separated)"
    import argparse

    raise argparse.ArgumentTypeError(msg)


# option -> (type, or None for a flag; default; help).  Every command takes
# --json; _COMMANDS names the others it takes, --cap where a sweep reads it.
_OPTIONS = {
    "--json": (None, False, "emit JSON"),
    "--cap": (
        int,
        DEFAULT_STATE_CAP,
        "refuse a vertex sweep that cuts more than CAP open strands, two per cut "
        "edge; homology sizes its complex with the same sweep (default %(default)s)",
    ),
    "--n": (_parse_n_list, (2,), "number of colors; accepts a comma list (default 2)"),
    "--two-var": (
        None,
        False,
        "print the rank table over all requested n (rows n, columns t-degree)",
    ),
    "--verify-paths": (None, False, "also verify independence of the six elementary-map orders"),
}


def _options(command: str) -> tuple[str, ...]:
    return ("--json", *_COMMANDS[command][2])


def _build_parser():
    import argparse

    ap = argparse.ArgumentParser(
        prog="vhx",
        description="Invariants of trivalent ribbon graphs in VPD notation.",
    )
    ap.add_argument("--version", action="version", version=f"vhx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="path to a .vpd file")
        for opt in _options(name):
            type_, default, text = _OPTIONS[opt]
            if type_ is None:
                p.add_argument(opt, action="store_true", help=text)
            else:
                p.add_argument(opt, type=type_, default=default, help=text)
    return ap


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` read as argparse reads it, when it is ``<command> <input>``
    with the command's options, each given once or more as ``--opt`` or
    ``--opt VALUE``; None for anything else."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    dests = {opt: opt[2:].replace("-", "_") for opt in _options(argv[0])}
    args = {"command": argv[0], "input": None}
    args |= {dest: _OPTIONS[opt][1] for opt, dest in dests.items()}
    tokens = iter(argv[1:])
    for tok in tokens:
        if not tok.startswith("-"):
            if args["input"] is not None:
                return None
            args["input"] = tok
        elif tok not in dests:
            return None
        elif _OPTIONS[tok][0] is None:
            args[dests[tok]] = True
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                args[dests[tok]] = _OPTIONS[tok][0](value)
            except Exception:  # int's ValueError, _parse_n_list's ArgumentTypeError
                return None
    return None if args["input"] is None else SimpleNamespace(**args)


def _parse_args(argv: list[str]):
    """The reader's namespace, or argparse's for any argv it declines: help,
    version, abbreviations, ``--opt=value`` and every usage error."""
    return _read_args(argv) or _build_parser().parse_args(argv)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        # the utf-8-sig codec would drop a byte order mark, but costs an import
        return parse_vpd(fh.read().removeprefix("\ufeff"))


def cmd_faces(rs, args) -> int:
    orientable, g = genus_and_orientability(rs)
    euler = 2 - 2 * g if orientable else 2 - g
    circles = euler - rs.vertex_count + rs.edge_count
    if args.json:
        print(
            _dumps(
                {
                    "vertices": rs.vertex_count,
                    "edges": rs.edge_count,
                    "circles": circles,
                    "euler": euler,
                    "orientable": orientable,
                    ("genus" if orientable else "crosscaps"): g,
                }
            )
        )
    else:
        kind = f"genus {g}" if orientable else f"nonorientable, {g} crosscaps"
        print(
            f"vertices {rs.vertex_count}  edges {rs.edge_count}  "
            f"boundary circles {circles}  euler {euler}  {kind}"
        )
    return 0


def _print_poly(args, n: int, poly) -> None:
    """One n's polynomial: JSON tagged with n, or text prefixed by ``n=``
    when several n were asked for."""
    if args.json:
        print(_dumps({"n": n, "var": poly.var, "terms": poly.terms()}))
    else:
        prefix = f"n={n}: " if len(args.n) > 1 else ""
        print(prefix + poly.to_text())


def cmd_ncolor_poly(rs, args) -> int:
    from .poly import ncolor_vertex_polynomial

    for n in args.n:
        _print_poly(args, n, ncolor_vertex_polynomial(rs, n, cap=args.cap))
    return 0


def cmd_vertex_poly(rs, args) -> int:
    from .poly import vertex_polynomial

    poly = vertex_polynomial(rs, cap=args.cap)
    print(poly.to_json() if args.json else poly.to_text())
    return 0


def cmd_homology(rs, args) -> int:
    from .homology import bigraded_homology, build_vertex_complex

    for n in args.n:
        table = bigraded_homology(build_vertex_complex(rs, n, cap=args.cap))
        if args.json:
            print(table.to_json())
        else:
            if len(args.n) > 1:
                print(f"n={n}:")
            print(table.to_text())
    return 0


def cmd_filtered(rs, args) -> int:
    from .colorings import filtered_ranks

    for n in args.n:
        fr = filtered_ranks(rs, n, cap=args.cap)
        if args.json:
            print(fr.to_json())
        else:
            ranks = " ".join(str(r) for r in fr.ranks)
            print(f"n={n}  ranks {ranks}  euler {fr.euler}  tm {fr.total}")
    return 0


def cmd_tm_poly(rs, args) -> int:
    from .colorings import filtered_ranks

    results = [(n, filtered_ranks(rs, n, cap=args.cap)) for n in args.n]
    if args.two_var:
        if args.json:
            print(_dumps({"rows": [{"n": n, "ranks": fr.ranks} for n, fr in results]}))
        else:
            width = max(
                (len(str(r)) for _, fr in results for r in fr.ranks), default=1
            )
            degs = len(results[0][1].ranks)
            print("n\\t |" + "".join(f"{i:>{width + 1}}" for i in range(degs)))
            for n, fr in results:
                print(f"{n:>3} |" + "".join(f"{r:>{width + 1}}" for r in fr.ranks))
    else:
        for n, fr in results:
            _print_poly(args, n, fr.tm_poly())
    return 0


def cmd_matchings(rs, args) -> int:
    from .oracles import AbstractGraph, classify_matching, perfect_matchings

    g = AbstractGraph.from_rotation_system(rs)
    pms = perfect_matchings(g)
    if args.json:
        rows = []
        for m in pms:
            even, cycles = classify_matching(g, m)
            rows.append(
                {
                    "edges": sorted(e + 1 for e in m),
                    "even": even,
                    "cycles": cycles,
                }
            )
        print(_dumps({"count": len(pms), "matchings": rows}))
    else:
        print(f"{len(pms)} perfect matching(s)")
        for m in pms:
            even, cycles = classify_matching(g, m)
            names = " ".join(f"e{e + 1}" for e in sorted(m))
            kind = "even" if even else "odd"
            print(f"  {names}  ({kind}, cycle lengths {cycles})")
    return 0


def cmd_tait(rs, args) -> int:
    from .oracles import AbstractGraph, count_tait_colorings

    g = AbstractGraph.from_rotation_system(rs)
    count = count_tait_colorings(g, args.cap)
    print(_dumps({"tait": count}) if args.json else str(count))
    return 0


def cmd_check(rs, args) -> int:
    from .colorings import filtered_ranks
    from .homology import (
        bigraded_homology,
        build_vertex_complex,
        chain_condition_holds,
        graded_euler,
    )
    from .oracles import AbstractGraph, bridges, count_perfect_matchings, count_tait_colorings
    from .poly import ncolor_vertex_polynomial, vertex_polynomial

    results: list[tuple[str, str]] = []  # (name, "ok" | "FAIL..." | "skipped")

    def record(name, ok):
        results.append((name, "ok" if ok else "FAIL"))

    g = AbstractGraph.from_rotation_system(rs)
    orientable, genus = genus_and_orientability(rs)
    plane = orientable and genus == 0
    vp = vertex_polynomial(rs, cap=args.cap)

    for n in args.n:
        fr = filtered_ranks(rs, n, cap=args.cap)
        record(f"euler(filtered, n={n}) == V(Gamma, {n})", fr.euler == vp(n))

        names = [f"delta o delta = 0 (n={n})", f"graded Euler == n-color polynomial (n={n})"]
        if args.verify_paths:
            names.insert(1, f"path independence (n={n})")
        recorded = len(results)
        try:
            cx = build_vertex_complex(rs, n, cap=args.cap, verify_paths=args.verify_paths)
            record(names[0], chain_condition_holds(cx))
            if args.verify_paths:
                record(names[1], True)  # the build raises on path dependence
            euler = graded_euler(bigraded_homology(cx))
            record(names[-1], euler == ncolor_vertex_polynomial(rs, n, cap=args.cap))
        except (InvariantError, StateSpaceError) as exc:
            # a violated invariant fails the identities it left unchecked
            # and a refused complex skips them; the suite runs on
            status = "FAIL" if isinstance(exc, InvariantError) else "skipped"
            for name in names[len(results) - recorded :]:
                results.append((name, f"{status} ({exc})"))

        if plane and n == 2:
            pms = count_perfect_matchings(g, args.cap)
            record("plane: rank0 == 2 * #PM (n=2)", fr.ranks[0] == 2 * pms)
            rank1 = 4 * pms * len(bridges(g))
            record("plane: rank1 == 4 * #PM * #bridges (n=2)", fr.ranks[1] == rank1)
            tait_euler = 2 ** (rs.vertex_count // 2) * count_tait_colorings(g, args.cap)
            record("plane: euler(filtered, n=2) == 2^(|V|/2) * #Tait", fr.euler == tait_euler)

    width = max(len(name) for name, _ in results)
    failed = any(status.startswith("FAIL") for _, status in results)
    if args.json:
        print(_dumps({"results": [[n, s] for n, s in results], "ok": not failed}))
    else:
        for name, status in results:
            print(f"{name:<{width}}  {status}")
    return 3 if failed else 0


# command -> (handler, help, its options besides --json)
_COMMANDS = {
    "faces": (cmd_faces, "boundary circles, Euler characteristic, genus", ()),
    "ncolor-poly": (cmd_ncolor_poly, "n-color vertex polynomial in q", ("--cap", "--n")),
    "vertex-poly": (cmd_vertex_poly, "vertex polynomial, symbolic in n", ("--cap",)),
    "homology": (cmd_homology, "bigraded homology rank table", ("--cap", "--n")),
    "filtered": (
        cmd_filtered,
        "filtered homology ranks, Euler characteristic, TM",
        ("--cap", "--n"),
    ),
    "tm-poly": (cmd_tm_poly, "total matching polynomial", ("--cap", "--n", "--two-var")),
    "matchings": (cmd_matchings, "perfect matchings with even/odd classification", ()),
    "tait": (cmd_tait, "number of proper 3-edge-colorings", ("--cap",)),
    "check": (cmd_check, "run the invariant suite", ("--cap", "--n", "--verify-paths")),
}


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        rs = _load(args.input)
    except (VPDError, OSError, UnicodeDecodeError) as exc:
        print(f"vhx: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][0](rs, args)
    except InvariantError as exc:
        print(f"vhx: invariant violated: {exc}", file=sys.stderr)
        return 3
    except (StateSpaceError, ValueError) as exc:
        print(f"vhx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
