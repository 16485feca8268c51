import ast
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ribbon import prism

from vhx import oracles
from vhx import cli
from vhx.cli import main
from vhx.poly import IntPoly
from vhx.vpd import serialize_vpd

DATA = str(Path(__file__).resolve().parent.parent / "src" / "vhx" / "data")
# the plane prism C_5 x K_2, |V| = 10
PRISM5 = (
    "G[V[1,5,26],V[6,3,28],V[7,11,2],V[12,9,4],V[13,17,8],"
    "V[18,15,10],V[19,23,14],V[24,21,16],V[25,29,20],V[30,27,22]]"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def theta_path(tmp_path):
    p = tmp_path / "theta.vpd"
    p.write_text("G[V[1,6,4],V[2,3,5]]\n")
    return str(p)


def test_vertex_poly_output(capsys, theta_path):
    code, out, _ = run(capsys, "vertex-poly", theta_path)
    assert code == 0
    assert out.strip() == "2*n^3 - 2*n"


def test_faces(capsys, theta_path):
    code, out, _ = run(capsys, "faces", theta_path)
    assert code == 0
    assert "boundary circles 3" in out and "genus 0" in out


def test_faces_json(capsys, theta_path):
    code, out, _ = run(capsys, "faces", "--json", theta_path)
    data = json.loads(out)
    assert code == 0
    assert data["circles"] == 3 and data["orientable"] is True


def test_ncolor_poly_json(capsys, theta_path):
    code, out, _ = run(capsys, "ncolor-poly", "--n", "2", "--json", theta_path)
    data = json.loads(out)
    assert code == 0
    assert data["var"] == "q"
    assert [9, 1] in data["terms"]


def test_ncolor_poly_multi_n(capsys, theta_path):
    code, out, _ = run(capsys, "ncolor-poly", "--n", "2,3", theta_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n=2: ") and lines[1].startswith("n=3: ")


def test_homology_json(capsys, theta_path):
    code, out, _ = run(capsys, "homology", "--n", "2", "--json", theta_path)
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 2
    assert [0, 0, 1] in data["ranks"] and [1, 4, 2] in data["ranks"]


def test_filtered_json(capsys, theta_path):
    code, out, _ = run(capsys, "filtered", "--n", "2", "--json", theta_path)
    data = json.loads(out)
    assert code == 0
    assert data == {"n": 2, "ranks": [6, 0, 6], "euler": 12, "tm": 12}


def test_filtered_text_k33(capsys):
    code, out, _ = run(capsys, "filtered", "--n", "2", f"{DATA}/k33.vpd")
    assert code == 0
    assert "ranks 2 8 22 32 22 8 2" in out and "euler 0" in out and "tm 96" in out


def test_tm_poly(capsys, theta_path):
    code, out, _ = run(capsys, "tm-poly", "--n", "2", theta_path)
    assert code == 0
    assert out.strip() == "6*t^2 + 6"


def test_tm_poly_multi_n(capsys):
    code, out, _ = run(capsys, "tm-poly", "--n", "2,3", f"{DATA}/k33.vpd")
    assert code == 0
    assert out.splitlines() == [
        "n=2: 2*t^6 + 8*t^5 + 22*t^4 + 32*t^3 + 22*t^2 + 8*t + 2",
        "n=3: 12*t^6 + 48*t^5 + 120*t^4 + 168*t^3 + 120*t^2 + 48*t + 12",
    ]


def test_tm_poly_multi_n_json(capsys):
    code, out, _ = run(capsys, "tm-poly", "--n", "2,3", "--json", f"{DATA}/k33.vpd")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"n": 2, "var": "t", "terms": [[6, 2], [5, 8], [4, 22], [3, 32], [2, 22], [1, 8], [0, 2]]},
        {"n": 3, "var": "t", "terms": [[6, 12], [5, 48], [4, 120], [3, 168], [2, 120], [1, 48], [0, 12]]},
    ]


def test_tm_poly_two_var(capsys):
    code, out, _ = run(capsys, "tm-poly", "--n", "2,3", "--two-var", f"{DATA}/k33.vpd")
    assert code == 0
    assert "n\\t" in out
    assert "22" in out


def test_tm_poly_two_var_json(capsys):
    code, out, _ = run(capsys, "tm-poly", "--n", "2,3", "--two-var", "--json", f"{DATA}/k33.vpd")
    assert (code, out) == (
        0,
        '{"rows": [{"n": 2, "ranks": [2, 8, 22, 32, 22, 8, 2]}, '
        '{"n": 3, "ranks": [12, 48, 120, 168, 120, 48, 12]}]}\n',
    )


HOMOLOGY_P3_2 = (
    "j\\i |    0    1    2    3    4    5    6\n"
    "----------------------------------------\n"
    " 23 |    .    .    .    .    .    .    1\n"
    " 22 |    .    .    .    .    .    .    5\n"
    " 21 |    .    .    .    .    .    .   10\n"
    " 20 |    .    .    .    .    .    .   10\n"
    " 19 |    .    .    .    .    .    .    5\n"
    " 18 |    .    .    .    .    .    6    1\n"
    " 17 |    .    .    .    .    .   18    .\n"
    " 16 |    .    .    .    .    .   18    .\n"
    " 15 |    .    .    .    .    9    6    .\n"
    " 14 |    .    .    .    .   27    .    .\n"
    " 13 |    .    .    .    .   33    .    .\n"
    " 12 |    .    .    .    3   10    .    .\n"
    " 11 |    .    .    .   24    .    .    .\n"
    " 10 |    .    .    .   36    .    .    .\n"
    "  9 |    .    .    .   11    .    .    .\n"
    "  8 |    .    .   27    .    .    .    .\n"
    "  7 |    .    .   33    .    .    .    .\n"
    "  6 |    .    1   10    .    .    .    .\n"
    "  5 |    .   17    .    .    .    .    .\n"
    "  4 |    .   13    .    .    .    .    .\n"
    "  3 |    4    .    .    .    .    .    .\n"
    "  2 |   10    .    .    .    .    .    .\n"
    "  1 |    5    .    .    .    .    .    .\n"
    "  0 |    1    .    .    .    .    .    .\n"
)

HOMOLOGY_K33_23 = (
    "n=2:\n"
    "j\\i |    0    1    2    3    4    5    6\n"
    "----------------------------------------\n"
    " 21 |    .    .    .    .    .    .    1\n"
    " 20 |    .    .    .    .    .    .    3\n"
    " 19 |    .    .    .    .    .    .    3\n"
    " 18 |    .    .    .    .    .    4    1\n"
    " 17 |    .    .    .    .    .   12    .\n"
    " 16 |    .    .    .    .    .   14    .\n"
    " 15 |    .    .    .    .    7    4    .\n"
    " 14 |    .    .    .    .   27    .    .\n"
    " 13 |    .    .    .    .   33    .    .\n"
    " 12 |    .    .    .    6    9    .    .\n"
    " 11 |    .    .    .   36    .    .    .\n"
    " 10 |    .    .    .   44    .    .    .\n"
    "  9 |    .    .    2   13    .    .    .\n"
    "  8 |    .    .   27    .    .    .    .\n"
    "  7 |    .    .   33    .    .    .    .\n"
    "  6 |    .    .   11    .    .    .    .\n"
    "  5 |    .   12    .    .    .    .    .\n"
    "  4 |    .   14    .    .    .    .    .\n"
    "  3 |    .    5    .    .    .    .    .\n"
    "  2 |    3    .    .    .    .    .    .\n"
    "  1 |    3    .    .    .    .    .    .\n"
    "  0 |    1    .    .    .    .    .    .\n"
    "n=3:\n"
    "j\\i |    0    1    2    3    4    5    6\n"
    "----------------------------------------\n"
    " 21 |    .    .    .    .    .    .    1\n"
    " 20 |    .    .    .    .    .    .    3\n"
    " 19 |    .    .    .    .    .    .    6\n"
    " 18 |    .    .    .    .    .    2    5\n"
    " 17 |    .    .    .    .    .    8    2\n"
    " 16 |    .    .    .    .    .   23    .\n"
    " 15 |    .    .    .    .    2   22    .\n"
    " 14 |    .    .    .    .   14   13    .\n"
    " 13 |    .    .    .    .   50    2    .\n"
    " 12 |    .    .    .    1   54    .    .\n"
    " 11 |    .    .    .   15   39    .    .\n"
    " 10 |    .    .    .   61    8    .    .\n"
    "  9 |    .    .    .   74    .    .    .\n"
    "  8 |    .    .    8   61    .    .    .\n"
    "  7 |    .    .   39   15    .    .    .\n"
    "  6 |    .    .   54    1    .    .    .\n"
    "  5 |    .    2   50    .    .    .    .\n"
    "  4 |    .   13   14    .    .    .    .\n"
    "  3 |    .   22    2    .    .    .    .\n"
    "  2 |    .   23    .    .    .    .    .\n"
    "  1 |    2    8    .    .    .    .    .\n"
    "  0 |    5    2    .    .    .    .    .\n"
    " -1 |    6    .    .    .    .    .    .\n"
    " -2 |    3    .    .    .    .    .    .\n"
    " -3 |    1    .    .    .    .    .    .\n"
)


def test_homology_text_pinned(capsys):
    """The rank table as text: one row per j, one column per i, and an
    ``n=...:`` header over each table when several n are asked."""
    assert run(capsys, "homology", "--n", "2", f"{DATA}/p3.vpd") == (0, HOMOLOGY_P3_2, "")
    assert run(capsys, "homology", "--n", "2,3", f"{DATA}/k33.vpd") == (0, HOMOLOGY_K33_23, "")


def test_matchings(capsys, theta_path):
    code, out, _ = run(capsys, "matchings", theta_path)
    assert code == 0
    assert "3 perfect matching(s)" in out and "even" in out


def test_tait(capsys):
    code, out, _ = run(capsys, "tait", f"{DATA}/dodec.vpd")
    assert code == 0
    assert out.strip() == "60"


def test_tait_of_prism50(capsys, tmp_path):
    """The 100-vertex plane prism: past any backtracking, not past the sweep."""
    p = tmp_path / "prism50.vpd"
    p.write_text(serialize_vpd(prism(50)))
    code, out, _ = run(capsys, "tait", str(p))
    assert code == 0
    assert out == "1125899906842632\n"


def test_tait_refuses_a_wide_cut_as_the_state_sum_does(capsys):
    """The edge-label sweep walks the vertex sweep's order and refuses its cut."""
    code, out, err = run(capsys, "tait", "--cap", "4", f"{DATA}/k33.vpd")
    assert (code, out) == (2, "")
    assert (code, out, err) == run(capsys, "vertex-poly", "--cap", "4", f"{DATA}/k33.vpd")


DODEC_REFUSAL = "skipped (the complex needs 12722176 basis elements, more than 262144)"


def test_check_passes(capsys, theta_path):
    code, out, _ = run(capsys, "check", "--n", "2,3", "--verify-paths", theta_path)
    assert code == 0
    assert "FAIL" not in out and "ok" in out


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "k4",  # filtered ranks ran: the Tait row reads their Euler characteristic
            "euler(filtered, n=2) == V(Gamma, 2)               ok\n"
            "delta o delta = 0 (n=2)                           ok\n"
            "graded Euler == n-color polynomial (n=2)          ok\n"
            "plane: rank0 == 2 * #PM (n=2)                     ok\n"
            "plane: rank1 == 4 * #PM * #bridges (n=2)          ok\n"
            "plane: euler(filtered, n=2) == 2^(|V|/2) * #Tait  ok\n"
        ),
        (
            "dodec",  # the complex is refused by its exact size; the sweeps count the rest
            "euler(filtered, n=2) == V(Gamma, 2)               ok\n"
            "delta o delta = 0 (n=2)                           " + DODEC_REFUSAL + "\n"
            "graded Euler == n-color polynomial (n=2)          " + DODEC_REFUSAL + "\n"
            "plane: rank0 == 2 * #PM (n=2)                     ok\n"
            "plane: rank1 == 4 * #PM * #bridges (n=2)          ok\n"
            "plane: euler(filtered, n=2) == 2^(|V|/2) * #Tait  ok\n"
        ),
    ],
)
def test_check_text_pinned(capsys, name, expected):
    code, out, _ = run(capsys, "check", "--n", "2", f"{DATA}/{name}.vpd")
    assert code == 0
    assert out == expected


def test_check_counts_every_plane_row_and_sizes_every_complex(capsys, tmp_path):
    """A plane prism with |V| = 26 and |E| = 39: the edge-label sweeps count
    its perfect matchings and Tait colorings within the state sum's cap, so
    every plane row runs, and each n's homology rows are skipped with the
    complex's exact size, in text and in JSON."""
    p = tmp_path / "prism13.vpd"
    p.write_text(serialize_vpd(prism(13)))
    refusal = "skipped (the complex needs {} basis elements, more than 262144)"
    rows = [
        ["euler(filtered, n=2) == V(Gamma, 2)", "ok"],
        ["delta o delta = 0 (n=2)", refusal.format(4071686144)],
        ["graded Euler == n-color polynomial (n=2)", refusal.format(4071686144)],
        ["plane: rank0 == 2 * #PM (n=2)", "ok"],
        ["plane: rank1 == 4 * #PM * #bridges (n=2)", "ok"],
        ["plane: euler(filtered, n=2) == 2^(|V|/2) * #Tait", "ok"],
        ["euler(filtered, n=3) == V(Gamma, 3)", "ok"],
        ["delta o delta = 0 (n=3)", refusal.format(125935858416)],
        ["graded Euler == n-color polynomial (n=3)", refusal.format(125935858416)],
    ]
    code, out, _ = run(capsys, "check", "--n", "2,3", str(p))
    assert code == 0
    width = max(len(name) for name, _ in rows)
    assert out == "".join(f"{name:<{width}}  {status}\n" for name, status in rows)
    code, out, _ = run(capsys, "check", "--n", "2,3", "--json", str(p))
    assert code == 0
    assert json.loads(out) == {"results": rows, "ok": True}


def test_check_skips_a_refused_complex_and_keeps_the_other_rows(capsys, tmp_path):
    """prism4 (|V| = 8) passes the homology gate, but at n = 8 its complex
    needs more than MAX_BASIS basis elements: that n's homology rows are
    skipped with the refusal, and the n = 2 rows computed before it stay,
    in text and in JSON."""
    p = tmp_path / "prism4.vpd"
    p.write_text(serialize_vpd(prism(4)))
    refusal = "skipped (the complex needs 758272 basis elements, more than 262144)"
    rows = [
        ["euler(filtered, n=2) == V(Gamma, 2)", "ok"],
        ["delta o delta = 0 (n=2)", "ok"],
        ["graded Euler == n-color polynomial (n=2)", "ok"],
        ["plane: rank0 == 2 * #PM (n=2)", "ok"],
        ["plane: rank1 == 4 * #PM * #bridges (n=2)", "ok"],
        ["plane: euler(filtered, n=2) == 2^(|V|/2) * #Tait", "ok"],
        ["euler(filtered, n=8) == V(Gamma, 8)", "ok"],
        ["delta o delta = 0 (n=8)", refusal],
        ["graded Euler == n-color polynomial (n=8)", refusal],
    ]
    code, out, err = run(capsys, "check", "--n", "2,8", str(p))
    assert code == 0 and err == ""
    width = max(len(name) for name, _ in rows)
    assert out == "".join(f"{name:<{width}}  {status}\n" for name, status in rows)
    code, out, err = run(capsys, "check", "--n", "2,8", "--json", str(p))
    assert code == 0 and err == ""
    assert json.loads(out) == {"results": rows, "ok": True}


def test_check_reports_invariant_failure_and_runs_on(capsys, theta_path, monkeypatch):
    from vhx import homology

    # an impossible rank makes some homology rank negative
    monkeypatch.setattr(homology, "matrix_rank", lambda block: 10**9)
    code, out, _ = run(capsys, "check", "--n", "2", theta_path)
    assert code == 3
    rows = out.splitlines()
    failed = [i for i, row in enumerate(rows) if "FAIL" in row]
    assert failed and "negative homology rank" in rows[failed[0]]
    # the identities after the failed one still ran
    assert any(row.startswith("plane: rank0") and row.endswith("ok") for row in rows[failed[0] :])
    code, out, _ = run(capsys, "check", "--n", "2", "--json", theta_path)
    data = json.loads(out)
    assert code == 3 and data["ok"] is False
    assert any(status.startswith("FAIL") for _, status in data["results"])


def test_homology_preflight_refuses_dodec(capsys):
    import time

    t0 = time.perf_counter()
    code, _, err = run(capsys, "homology", "--n", "2", f"{DATA}/dodec.vpd")
    assert code == 2
    assert "basis elements" in err
    assert time.perf_counter() - t0 < 10


def test_homology_preflight_admits_prism5(capsys, tmp_path):
    p = tmp_path / "prism5.vpd"
    p.write_text(PRISM5)
    code, out, _ = run(capsys, "homology", "--n", "2", "--json", str(p))
    assert code == 0
    assert json.loads(out)["ranks"]


@pytest.mark.parametrize(
    "command",
    [
        ("vertex-poly",),
        ("ncolor-poly", "--n", "2"),
        ("check", "--n", "2"),
        ("filtered", "--n", "2"),
        ("tm-poly", "--n", "2"),
    ],
)
def test_state_sum_refuses_a_wide_cut(capsys, command):
    """k33's sweep cuts 5 edges, 10 open strands: over a cap of 8."""
    code, out, err = run(capsys, *command, "--cap", "8", f"{DATA}/k33.vpd")
    assert code == 2 and out == ""
    assert "10 open strands" in err and "cap 8" in err
    code, _, _ = run(capsys, *command, "--cap", "10", f"{DATA}/k33.vpd")
    assert code == 0


def test_vertex_poly_of_a_26_vertex_prism(capsys, tmp_path):
    """A plane prism with |V| = 26: V(2) = 2^13 #Tait."""
    rs = prism(13)
    p = tmp_path / "prism13.vpd"
    p.write_text(serialize_vpd(rs))
    code, out, _ = run(capsys, "vertex-poly", "--json", str(p))
    assert code == 0
    poly = IntPoly(dict(json.loads(out)["terms"]))
    assert poly(2) == 2**13 * oracles.count_tait_colorings(oracles.AbstractGraph.from_rotation_system(rs))


def test_filtered_of_a_26_vertex_prism(capsys, tmp_path):
    """A plane prism with |V| = 26: euler = 2^13 #Tait and rank0 =
    2 #PM."""
    rs = prism(13)
    p = tmp_path / "prism13.vpd"
    p.write_text(serialize_vpd(rs))
    code, out, _ = run(capsys, "filtered", "--n", "2", "--json", str(p))
    assert code == 0
    fr = json.loads(out)
    g = oracles.AbstractGraph.from_rotation_system(rs)
    assert fr["euler"] == 2**13 * oracles.count_tait_colorings(g) == 67_092_480
    assert fr["ranks"][0] == 2 * len(oracles.perfect_matchings(g)) == 1042


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.vpd"
    bad.write_text("G[V[1,2]]")
    code, _, err = run(capsys, "faces", str(bad))
    assert code == 2
    assert "vhx:" in err


def test_oversized_label_exit_2(capsys, tmp_path):
    """A label too long for int() is refused as bad input, without a traceback."""
    bad = tmp_path / "bad.vpd"
    bad.write_text("G[V[1,6,4],V[2,3," + "9" * 5000 + "]]")
    code, out, err = run(capsys, "faces", str(bad))
    assert (code, out, err) == (2, "", "vhx: half-edge label too long at line 1, column 18\n")


def test_undecodable_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.vpd"
    bad.write_bytes(b"G[V[1,2,3\xff]]")
    code, _, err = run(capsys, "faces", str(bad))
    assert code == 2
    assert err.startswith("vhx:") and "utf-8" in err


def test_byte_order_mark_is_skipped(capsys, theta_path, tmp_path):
    """A file saved with a UTF-8 byte order mark reads like one without."""
    bom = tmp_path / "bom.vpd"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(theta_path).read_bytes())
    assert run(capsys, "faces", str(bom)) == run(capsys, "faces", theta_path)


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "faces", "no-such-file.vpd")
    assert code == 2


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run(capsys, "homology", "--n", "2", "--cap", "4", f"{DATA}/k33.vpd")
    assert code == 2
    assert "cap" in err


def test_bad_n_rejected(capsys, theta_path):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--n", "1", theta_path])
    assert exc.value.code == 2
    capsys.readouterr()


def test_json_deterministic(capsys, theta_path):
    _, out1, _ = run(capsys, "homology", "--n", "2", "--json", theta_path)
    _, out2, _ = run(capsys, "homology", "--n", "2", "--json", theta_path)
    assert out1 == out2


def test_invariant_violation_exit_3(capsys, theta_path, monkeypatch):
    from vhx import homology
    from vhx.states import InvariantError

    # a usage-error handler catching ValueError must not swallow it
    assert not issubclass(InvariantError, ValueError)
    # an impossible rank makes some homology rank negative
    monkeypatch.setattr(homology, "matrix_rank", lambda block: 10**9)
    code, out, err = run(capsys, "homology", "--n", "2", theta_path)
    assert code == 3
    assert out == ""
    assert "negative homology rank" in err


# modules the CLI's import and its faces and state-sum commands must not load
COLD_START_UNLOADED = (
    "dataclasses",
    "inspect",
    "typing",
    "fractions",
    "decimal",
    "numpy",
    "importlib.resources",
    "vhx.homology",
    "vhx.colorings",
    "vhx.oracles",
    "argparse",
    "gettext",
    "locale",
    "json",
)


def test_cold_start_loads_only_the_layers_a_command_runs():
    """Under ``python -S`` (no site preloads), importing the CLI and running
    faces, vertex-poly and ncolor-poly loads no heavy standard-library module
    and none of the layers those commands do not run."""
    import os
    import subprocess
    import sys

    theta = f"{DATA}/theta.vpd"
    code = (
        "import sys\n"
        "import vhx.cli\n"
        f"unloaded = {COLD_START_UNLOADED!r}\n"
        "loaded = [[m for m in unloaded if m in sys.modules]]\n"
        f"for argv in (['faces', {theta!r}], ['vertex-poly', {theta!r}],\n"
        f"             ['ncolor-poly', '--n', '2,3', {theta!r}]):\n"
        "    assert vhx.cli.main(argv) == 0\n"
        "    loaded.append([m for m in unloaded if m in sys.modules])\n"
        "print(repr(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(DATA).parent.parent))
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("vertices 2") and lines[1] == "2*n^3 - 2*n"
    assert ast.literal_eval(lines[-1]) == [[], [], [], []]


def test_commands_and_the_kernel_check_run_without_numpy():
    """Under ``python -S``, homology, filtered, check, matchings and tait on
    theta, and the harmonic kernel check after them, never load numpy; nor,
    since homology computes on integers, ``fractions`` or ``decimal`` (at
    n = 4, a perfect square, too); nor, reading their argv and writing their
    output, ``argparse`` or ``json``."""
    import os
    import subprocess
    import sys

    theta = f"{DATA}/theta.vpd"
    code = (
        "import sys\n"
        "import vhx, vhx.cli\n"
        f"for argv in (['homology', '--n', '2,4', {theta!r}], ['filtered', '--n', '2', {theta!r}],\n"
        f"             ['check', '--n', '2,4', {theta!r}], ['matchings', {theta!r}],\n"
        f"             ['tait', {theta!r}]):\n"
        "    assert vhx.cli.main(argv) == 0, argv\n"
        "assert vhx.harmonic_kernel_check(vhx.load_fixture('theta'), 2).ok\n"
        "assert vhx.harmonic_kernel_check(vhx.load_fixture('theta'), 4).ok\n"
        "print([m for m in ('fractions', 'decimal', 'argparse', 'json') if m in sys.modules])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(DATA).parent.parent))
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["[]", "False"]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, theta_path, name):
    """A run naming a command parses with that command's parser alone; its
    help, its usage errors (a bad --n, a missing or unknown argument), a
    missing input file and a good run print byte for byte what the full
    parser prints, with the same exit codes."""
    cases = [["--help"], [], ["--json"], [theta_path, "extra"], [theta_path, "--bogus"]]
    cases += [["--cap", "x", theta_path], [str(Path(theta_path).parent / "missing.vpd")]]
    if cli._COMMANDS[name][2]:
        cases += [["--n", "1", theta_path], ["--n", "a,b", theta_path], ["--n"]]
    cases += [["--json", theta_path]]
    argvs = [[name, *rest] for rest in cases] + [["--help"], ["--version"], ["nope", theta_path]]
    fast = [_outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert [_outcome(capsys, argv) for argv in argvs] == fast
    assert [code for code, _, _ in fast] == [0] + [2] * (len(cases) - 2) + [0, 0, 0, 2]


# pieces of a command line: a command's own options with good values, and
# any command's options with bad ones, and what only argparse reads
_GOOD = {
    "--cap": st.sampled_from(["24", " 5", "5_0", "+7", "0"]),
    "--n": st.sampled_from(["2", "2,3", "3,2,4", " 2, 3 ", "2,,3,"]),
}
_BAD = st.sampled_from(["1", "a,b", "", "x", "-1", "-5_0", "--json"])
_OTHER = st.one_of(
    st.sampled_from([["--two-var"], ["--verify-paths"], ["--n", "2"]]),
    st.tuples(st.sampled_from(["--cap", "--n"]), _BAD).map(list),
    st.sampled_from(["--cap", "--n", "--cap=8", "--n=2", "--js", "--two", "-h", "--", "-", "x"]).map(
        lambda tok: [tok]
    ),
)


@st.composite
def _argvs(draw):
    """A command, then pieces with the input path among them (or not, or
    twice)."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    own = st.sampled_from(cli._options(command)).flatmap(
        lambda opt: _GOOD[opt].map(lambda v: [opt, v]) if opt in _GOOD else st.just([opt])
    )
    pieces = draw(st.lists(st.one_of(own, own, own, _OTHER), max_size=4))
    rest = [tok for piece in pieces for tok in piece]
    for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
        rest.insert(draw(st.integers(0, len(rest))), f"{DATA}/theta.vpd")
    return [command, *rest]


def _parsed(parse, argv):
    """What ``parse(argv)`` returns (its attributes) or exits with, and the
    bytes it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@given(_argvs())
@settings(max_examples=400, deadline=None)
def test_argv_reader_matches_argparse(argv):
    """An argv the reader accepts gives argparse's attributes; one it
    declines reaches argparse, which prints and exits as it always did."""
    full = _parsed(lambda argv: cli._build_parser().parse_args(argv), argv)
    read = cli._read_args(argv)
    if read is not None:
        assert (vars(read), "", "") == full
    else:
        assert _parsed(cli._parse_args, argv) == full


def test_argv_reader_reads_real_calls():
    """The argv real calls use never reaches argparse."""
    theta = f"{DATA}/theta.vpd"
    for argv in (
        ["faces", "--json", theta],
        ["homology", theta, "--n", "2,3", "--cap", "20", "--json"],
        ["tm-poly", "--two-var", "--n", "2,3,4", theta],
        ["check", "--n", "2", "--verify-paths", theta, "--json"],
    ):
        assert cli._read_args(argv) is not None, argv


@pytest.mark.parametrize("command", ["faces", "matchings"])
def test_cap_is_taken_only_by_the_commands_whose_sweeps_read_it(capsys, command):
    """faces and matchings run no vertex sweep, so they take no --cap: the
    reader declines it, and argparse refuses it as unrecognized."""
    theta = f"{DATA}/theta.vpd"
    argv = [command, "--cap", "4", theta]
    assert cli._read_args(argv) is None
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"\nvhx: error: unrecognized arguments: --cap {theta}\n")
    capped = [name for name in cli._COMMANDS if "--cap" in cli._options(name)]
    assert capped == ["ncolor-poly", "vertex-poly", "homology", "filtered", "tm-poly", "tait", "check"]
