"""The package surface: lazily resolved public names, the names retired
from it, and the value semantics of vhx's record classes (equality,
hashing, repr, immutability)."""

import inspect
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from reference_algebra import QuadScalar

import vhx
from vhx.colorings import FaceColoring, FilteredRanks, KernelReport, filtered_ranks
from vhx.homology import ChainComplex, RankTable
from vhx.oracles import AbstractGraph
from vhx.poly import state_histogram
from vhx.vpd import (
    Frozen,
    Record,
    RotationSystem,
    parse_vpd,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
THETA = "G[V[1,6,4],V[2,3,5]]"

# every public name `vhx` exports, by layer
EXPORTS = {
    "colorings": (
        "filtered_ranks",
        "harmonic_kernel_check",
        "induced_matching",
        "total_matching_polynomial",
    ),
    "homology": (
        "bigraded_homology",
        "build_vertex_complex",
        "chain_condition_holds",
        "delta_graded_pieces",
        "graded_euler",
    ),
    "oracles": (
        "AbstractGraph",
        "bridges",
        "classify_matching",
        "count_perfect_matchings",
        "count_tait_colorings",
        "perfect_matchings",
    ),
    "poly": ("abstract_vertex_polynomial", "ncolor_vertex_polynomial", "vertex_polynomial"),
    "vpd": (
        "RotationSystem",
        "VPDError",
        "blowup",
        "genus_and_orientability",
        "parse_vpd",
        "serialize_vpd",
    ),
}
# public names retired with the circle record (a state's circles are
# ``rs.ribbon.trace(mask)``) and with the matching complex (every complex is
# the vertex complex, and ``blowup`` gives a rotation system)
RETIRED = (
    "count_partial_colorings",
    "trace_boundary",
    "build_pm_complex",
    "bubbled_blowup",
    "PerfectMatchingDiagram",
)


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh ``python -S`` with vhx on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


# ---------------------------------------------------------------------------
# exports


def test_every_public_name_resolves_both_ways():
    import importlib

    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"vhx.{layer}")
        for name in names:
            ns: dict = {}
            exec(f"from vhx import {name}", ns)
            assert ns[name] is getattr(vhx, name) is getattr(module, name), name
            assert name in vhx.__all__
    star: dict = {}
    exec("from vhx import *", star)
    assert {name for names in EXPORTS.values() for name in names} <= set(star)


def test_import_vhx_loads_no_layer_until_asked():
    out = run_fresh(
        "import sys, vhx\n"
        "print(sorted(m for m in sys.modules if m.startswith('vhx.')))\n"
        "print(vhx.poly.vertex_polynomial(vhx.load_fixture('theta')).to_text())\n"
        "from vhx import bigraded_homology\n"
        "print(bigraded_homology.__module__, vhx.homology.__name__)\n"
    )
    assert out.splitlines() == ["[]", "2*n^3 - 2*n", "vhx.homology vhx.homology"]


def test_library_calls_never_load_fractions():
    """Off the CLI path too: the complexes, their homology (n = 4 takes the
    perfect-square fold), the graded pieces, the kernel check and the
    filtered ranks compute on integer pairs alone."""
    out = run_fresh(
        "import sys, vhx\n"
        "k4, theta = vhx.load_fixture('k4'), vhx.load_fixture('theta')\n"
        "for n in (2, 4):\n"
        "    vhx.bigraded_homology(vhx.build_vertex_complex(k4, n))\n"
        "vhx.delta_graded_pieces(theta, 2)\n"
        "assert vhx.harmonic_kernel_check(theta, 2).ok\n"
        "print(vhx.filtered_ranks(theta, 2).ranks)\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n"
    )
    assert out.splitlines() == ["[6, 0, 6]", "[]"]


def test_retired_names_are_gone():
    for name in RETIRED:
        assert name not in vhx.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(vhx, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        vhx.no_such_name
    with pytest.raises(ImportError):
        exec("from vhx import no_such_name", {})


def test_load_fixture_still_parses():
    theta = vhx.load_fixture("theta")
    assert theta == parse_vpd(THETA)
    assert vhx.fixture_text("theta").strip() == THETA
    with pytest.raises(KeyError):
        vhx.fixture_text("no-such-graph")


# ---------------------------------------------------------------------------
# value semantics, as recorded from the dataclass versions of these classes


def test_equal_parses_are_equal_keys_of_the_state_cache():
    a, b = parse_vpd(THETA), parse_vpd(" G[ V[1, 6, 4], V[2, 3, 5] ] ")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_vpd("G[V[1,4,6],V[2,3,5]]")
    assert a != a.vertices and a.__eq__(a.vertices) is NotImplemented
    first = state_histogram(a)
    before = state_histogram.cache_info()
    assert state_histogram(b) is first
    after = state_histogram.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_frozen_classes_keep_their_repr():
    theta = parse_vpd(THETA)
    assert repr(theta) == "RotationSystem(vertices=((1, 6, 4), (2, 3, 5)))"
    assert repr(QuadScalar.make(1, 2, 3)) == "(1 + 2*sqrt(3))"
    assert repr(AbstractGraph(2, ((0, 1), (0, 1)))) == (
        "AbstractGraph(n_vertices=2, edges=((0, 1), (0, 1)))"
    )
    assert repr(AbstractGraph.from_rotation_system(theta)) == (
        "AbstractGraph(n_vertices=2, edges=((0, 1), (0, 1), (0, 1)))"
    )


def test_frozen_classes_refuse_assignment():
    theta = parse_vpd(THETA)
    frozen = {
        theta: "vertices",
        QuadScalar.make(1, 2, 3): "a",
        AbstractGraph(2, ((0, 1), (0, 1))): "edges",
    }
    for obj, field in frozen.items():
        with pytest.raises(AttributeError, match=f"'{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            obj.not_a_field = None
        with pytest.raises(AttributeError):
            delattr(obj, field)
    # the compiled ribbon is still cached on the frozen system
    assert theta.ribbon is theta.ribbon


def test_frozen_classes_hash_by_value():
    theta = parse_vpd(THETA)
    pairs = [
        (QuadScalar.make(1, 2, 3), QuadScalar(1, 2, 3)),
        (AbstractGraph(2, ((0, 1),)), AbstractGraph(2, ((0, 1),))),
        (AbstractGraph.from_rotation_system(theta), AbstractGraph(2, ((0, 1),) * 3)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert QuadScalar.make(1, 2, 3) != QuadScalar.make(1, 2, 5)


def test_quadscalar_folds_a_perfect_square_root():
    zero = QuadScalar(2, -1, 4)
    assert zero == QuadScalar.of_int(0, 4) and not zero
    assert zero.b == 0 and repr(zero) == "0"


def test_mutable_records_compare_by_value_and_are_unhashable():
    theta = parse_vpd(THETA)
    records = [
        (FaceColoring((0, 0), (0, 1, 2)), "FaceColoring(state=(0, 0), colors=(0, 1, 2))"),
        (filtered_ranks(theta, 2), "FilteredRanks(n=2, ranks=[6, 0, 6])"),
        (KernelReport(2, {(0, 0): (1, 1, "ok")}), "KernelReport(n=2, per_state={(0, 0): (1, 1, 'ok')})"),
        (RankTable(2, {(0, 1): 1}), "RankTable(n=2, ranks={(0, 1): 1})"),
        (ChainComplex(2, {}, {}), "ChainComplex(n=2, dims={}, diff={}, bigrade_j=0)"),
    ]
    for obj, text in records:
        assert repr(obj) == text
        assert obj == eval(text) and obj != text
        with pytest.raises(TypeError):
            hash(obj)
    fr = FilteredRanks(2, [6, 0, 6])
    fr.ranks = [1]  # not frozen
    assert fr != filtered_ranks(theta, 2)


# constructor arguments of every Record subclass, built afresh on each call
RECORD_ARGS = {
    RotationSystem: lambda: (((1, 6, 4), (2, 3, 5)),),
    AbstractGraph: lambda: (2, ((0, 1),) * 3),
    QuadScalar: lambda: (Fraction(1), Fraction(2), 3),
    FaceColoring: lambda: ((0, 0), (0, 1, 2)),
    FilteredRanks: lambda: (2, [6, 0, 6]),
    KernelReport: lambda: (2, {(0, 0): (1, 1, "ok")}),
    RankTable: lambda: (2, {(0, 1): 1}),
    ChainComplex: lambda: (2, {(0, 0): [((0,), (0,))]}, {}, 0),
}


def test_every_record_keys_on_all_its_constructor_fields():
    """A field missing from ``_fields`` would be left out of eq, hash and
    repr; every record class in any layer must be listed above."""
    for mod in pkgutil.iter_modules(vhx.__path__):
        import_module(f"vhx.{mod.name}")
    records, todo = set(), [Record]
    while todo:
        subs = todo.pop().__subclasses__()
        records.update(subs)
        todo += subs
    assert records - {Frozen} == set(RECORD_ARGS)
    for cls, make in RECORD_ARGS.items():
        assert cls._fields == tuple(inspect.signature(cls).parameters), cls
        x, y = cls(*make()), cls(*make())
        assert x is not y and x == y, cls
        if isinstance(x, Frozen):
            assert hash(x) == hash(y), cls
        else:
            with pytest.raises(TypeError):
                hash(x)
