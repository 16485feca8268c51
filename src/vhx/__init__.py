"""vhx: vertex polynomials and vertex homology of trivalent ribbon graphs.

The public names are imported from their layer submodules on first use
(PEP 562), as are the submodules themselves when reached as attributes
(``vhx.homology``).  ``import vhx`` loads no layer, so a program, the CLI
included, loads only the layers it calls.
"""

from __future__ import annotations

__version__ = "0.1.0"

# layer submodule -> the public names it defines
_LAYERS = {
    "algebra": (),
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
    "states": (),
    "vpd": (
        "RotationSystem",
        "VPDError",
        "blowup",
        "genus_and_orientability",
        "parse_vpd",
        "serialize_vpd",
    ),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}

FIXTURES = ("theta", "thetaneg", "k4", "thetab", "p3", "k33", "dodec")

__all__ = sorted([*_EXPORTS, "FIXTURES", "fixture_text", "load_fixture"])


def __getattr__(name: str):
    layer = _EXPORTS.get(name, name if name in _LAYERS else None)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{layer}", __name__)
    if layer != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def fixture_text(name: str) -> str:
    """VPD source of a bundled fixture graph."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURES}")
    from importlib import resources

    return (resources.files("vhx") / "data" / f"{name}.vpd").read_text()


def load_fixture(name: str) -> RotationSystem:
    """Parse a bundled fixture graph by name."""
    from .vpd import parse_vpd

    return parse_vpd(fixture_text(name))
