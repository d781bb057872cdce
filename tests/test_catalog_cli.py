import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import vknot
from vknot import cli
from vknot.catalog import (
    CatalogEntry,
    CatalogError,
    builtin_catalog,
    find_entry,
    load_catalog,
    loads_catalog,
    verify_entry,
)
from vknot.cli import main
from vknot.diagram import is_mod_p_numberable, serialize_gauss_code
from vknot.enumeration import enumerate_all_diagrams, enumerate_diagrams


def test_builtin_catalog_loads():
    entries = builtin_catalog()
    names = [e.name for e in entries]
    for expected in ("unknot", "trefoil", "figure-eight", "virtual-trefoil", "4.90", "6.87548"):
        assert expected in names
    assert find_entry("trefoil").expect("det") == 3
    assert find_entry("missing") is None


def test_mutating_the_builtin_catalog_changes_no_later_lookup():
    entries = builtin_catalog()
    names = [e.name for e in entries]
    trefoil = find_entry("trefoil").code
    entries.insert(0, CatalogEntry("trefoil", "O1+U1+"))
    entries.append(CatalogEntry("extra", "O1+U1+"))
    del entries[1:4]
    assert find_entry("trefoil").code == trefoil
    assert find_entry("extra") is None
    assert [e.name for e in builtin_catalog()] == names
    assert builtin_catalog() is not builtin_catalog()


def test_golden_values_rederive():
    for entry in builtin_catalog():
        problems = verify_entry(entry)
        assert problems == [], problems


def test_mismatch_reports_provenance():
    entries = loads_catalog("fake\tO1+U2+O3+U1+O2+U3+\tdet=4,source=made-up\n")
    problems = verify_entry(entries[0])
    assert len(problems) == 1
    assert "made-up" in problems[0] and "det" in problems[0]
    # an expected value the code cannot have is reported, never raised or skipped
    entries = loads_catalog(
        "vt\tO1+O2+U1+U2+\tdet=1,source=made-up\n"
        "split\tO1+O2+;U1+U2+\tdet=1,source=made-up\n"
        "hopf\tO1+U2+;O2+U1+\tc2=7,warp=3,v2_mod2=1,source=made-up\n"
    )
    expected = {
        "vt": (["det"], "diagram is not colorable"),
        "split": (["det"], "component 0 has no under-passage"),
        "hopf": (["c2", "v2_mod2", "warp"], "one-circle codes only"),
    }
    for entry in entries:
        keys, fragment = expected[entry.name]
        problems = verify_entry(entry)
        assert [problem.split(" expected ")[0] for problem in problems] == [entry.name + ": " + key for key in keys]
        assert all(fragment in problem and "made-up" in problem for problem in problems), problems


def test_every_key_reports_its_mismatch():
    # the trefoil is colorable mod 0, 2 and 3, with c2 = 1, warping degree 1 and det 3
    [entry] = loads_catalog(
        "seven\tO1+U2+O3+U1+O2+U3+\t"
        "det=4,warp=2,v2_mod2=0,c2=2,colorable_p3=false,colorable_p2=false,colorable_p0=false,source=made-up\n"
    )
    assert verify_entry(entry) == [
        "seven: %s expected %r got %r (source: made-up)" % mismatch
        for mismatch in (
            ("colorable_p0", False, True),
            ("colorable_p2", False, True),
            ("colorable_p3", False, True),
            ("c2", 2, 1),
            ("v2_mod2", 0, 1),
            ("warp", 2, 1),
            ("det", 4, 3),
        )
    ]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x\tO1+U1+\tdet=1,unknown=3\n", "unknown field"),
        ("x\tO1+U1+\tdet=yes\n", "integer"),
        ("x\tO1+U1-\tdet=1\n", "bad code"),
        ("x\tO1+U1+\tdet=1\nx\tO1+U1+\tdet=1\n", "duplicate"),
        ("justaname\n", "expected name"),
        ("x\tO1+U1+\tcolorable_p2=maybe\n", "true/false"),
        ("x\tO1+U1+\tdet3\n", "bad key=value"),
    ],
)
def test_catalog_errors_carry_line_numbers(text, fragment):
    with pytest.raises(CatalogError) as err:
        loads_catalog(text)
    assert "line" in str(err.value)
    assert fragment in str(err.value)


def test_catalog_comments_run_to_the_end_of_the_line():
    text = ("# header\n  # indented\nx\tO1+U1+\tdet=1  # note\n"
            "y\tO1+U2+O3+U1+O2+U3+\tdet=3,source=a # b\nz\tO1+U1+ # no fields\n")
    entries = loads_catalog(text)
    assert [(e.name, e.code, e.expected) for e in entries] == [
        ("x", "O1+U1+", (("det", 1),)),
        ("y", "O1+U2+O3+U1+O2+U3+", (("det", 3), ("source", "a"))),
        ("z", "O1+U1+", ()),
    ]


def test_external_catalog_file(tmp_path):
    path = tmp_path / "mine.txt"
    path.write_text("myknot\tO1+U2+O3+U1+O2+U3+\tdet=3,source=local\nplain\tO1+U1+\n")
    assert main(["invariants", "myknot", "--catalog", str(path)]) == 0
    # a line of two fields names a code and expects nothing
    entries = load_catalog(path)
    assert [(e.name, e.expected) for e in entries] == [("myknot", (("det", 3), ("source", "local"))), ("plain", ())]
    assert main(["invariants", "plain", "--catalog", str(path)]) == 0


def test_catalog_parse_error_names_the_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x\tO1+U1+\tdet=yes\n")
    with pytest.raises(CatalogError, match=re.escape("%s: line 1: " % path)):
        load_catalog(path)
    assert main(["invariants", "trefoil", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: line 1: det expects an integer, got 'yes'\n" % path


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_unreadable_catalog_file(capsys, tmp_path, kind):
    path = tmp_path / "mine.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"trefoil\tO1+U2+O3+U1+O2+U3+\tsource=caf\xe9\n")
    with pytest.raises(CatalogError, match=re.escape(str(path))):
        load_catalog(path)
    assert main(["invariants", "trefoil", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [message] = captured.err.splitlines()
    assert message.startswith("error: ") and str(path) in message


def test_repeated_main_calls_do_not_leak_state(capsys, tmp_path):
    # One parser and one catalog serve every call; no call's options or
    # catalog file may reach the next.
    assert main(["invariants", "trefoil", "-p", "3"]) == 0
    assert "mod 3 numberable: yes" in capsys.readouterr().out
    assert main(["invariants", "trefoil", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["colorable"]) == ["2"] and list(data["v2"]) == ["2"]
    path = tmp_path / "mine.txt"
    path.write_text("myknot\tO1+U2+O3+U1+O2+U3+\tdet=3,source=local\n")
    assert main(["invariants", "myknot", "--catalog", str(path), "--degree", "0"]) == 0
    assert "name: myknot" in capsys.readouterr().out
    assert main(["invariants", "myknot"]) == 1
    assert "parse error" in capsys.readouterr().err
    assert main(["invariants", "trefoil", "--json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == data and again["ascending"] == [[0, 1], [2, 1]]


def test_parser_and_catalog_are_built_on_first_use():
    code = (
        "import vknot.catalog as catalog, vknot.cli as cli, vknot.moves as moves\n"
        "assert cli._build_parser.cache_info().currsize == 0\n"
        "assert catalog._builtin_entries.cache_info().currsize == 0\n"
        "assert moves._r3_keys.cache_info().currsize == 0\n"
    )
    src = os.path.dirname(os.path.dirname(vknot.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_cli_invariants_trefoil(capsys):
    assert main(["invariants", "trefoil"]) == 0
    out = capsys.readouterr().out
    assert "determinant: 3" in out
    assert "v2 mod 2: 1" in out
    assert "+-3 mod 8 (consistent)" in out


def test_cli_refuses_determinant_of_noncolorable(capsys):
    assert main(["invariants", "O1+O2+U1+U2+", "-p", "2"]) == 2
    out = capsys.readouterr().out
    assert "mod 2 numberable: no" in out
    assert "determinant refused" in out


def test_cli_parse_error_exit_code(capsys):
    assert main(["invariants", "O1+X"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_unknown_check(capsys):
    assert main(["verify", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err
    assert main(["verify", "cor-det", "bogus", "--max-chords", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unknown check 'bogus'; available: cor-det, det-asc, main-theorem, skein, warp-smooth"
    ]


def test_cli_json_is_stable(capsys):
    assert main(["invariants", "6.87548", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["invariants", "6.87548", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["determinant"] == 1
    assert data["c2"] == -2
    assert data["mod8_class"] == "+-1 mod 8"
    assert data["mod8_consistent"] is True


def test_cli_verify_json(capsys):
    assert main(["verify", "cor-det", "--max-chords", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["check"] == "cor-det"
    assert data[0]["failures"] == 0


def test_cli_verify_text(capsys):
    assert main(["verify", "cor-det", "skein", "--max-chords", "2", "--samples", "20"]) == 0
    reports = [block.splitlines() for block in capsys.readouterr().out.split("\n\n")]
    assert [lines[:4] for lines in reports] == [
        ["check: cor-det", "population: 37", "passes: 37", "failures: 0"],
        ["check: skein", "population: 20", "passes: 20", "failures: 0"],
    ]
    assert all(len(lines) == 5 and lines[4].startswith("elapsed_ms: ") for lines in reports)


@pytest.mark.parametrize(
    "code,status,text,refusals",
    [
        ("O1+U2+;O2+U1+", 0, ["mod 2 numberable: yes", "determinant: 2"], []),
        ("O1-U2-U3+;O2-O3+U1-", 2, ["mod 2 numberable: no"],
         ["determinant refused: diagram O1-U2-U3+;O2-O3+U1- is not checkerboard colorable"]),
    ],
    ids=["colorable", "refused"],
)
def test_cli_invariants_of_a_link(capsys, code, status, text, refusals):
    assert main(["invariants", code]) == status
    chords = code.count("O")
    assert capsys.readouterr().out.splitlines() == ["code: " + code, "circles: 2  chords: %d" % chords] + text + refusals
    assert main(["invariants", code, "--json", "-p", "2", "-p", "3"]) == status
    assert json.loads(capsys.readouterr().out) == {
        "chords": chords,
        "circles": 2,
        "code": code,
        "colorable": {"2": status == 0, "3": status == 0},
        "determinant": 2 if status == 0 else None,
        "name": None,
        "refusals": refusals,
    }


@pytest.mark.parametrize(
    "argv,lines,sha256",
    [
        (["enumerate", "3", "--colorable", "2"], 384,
         "0139b36b28ea7eb9da2fd90eb68c590eb42b096b90badb1741892d21601d75f2"),
        (["conway", "--degree", "4"], 90, "a3a05a2a45b0160ce74f34096e5065e312a316bf150d9822f9df150f64d9b9ae"),
    ],
    ids=["enumerate-colorable", "conway"],
)
def test_cli_output_hashes(capsys, argv, lines, sha256):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_cli_enumerate(capsys):
    assert main(["enumerate", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert main(["enumerate", "2", "--colorable", "2", "--limit", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["enumerate", "2", "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("options", [[], ["--canonical"], ["--limit", "50"], ["--canonical", "--limit", "50"]])
def test_cli_enumerate_colorable_mod_2_matches_filtered_census(capsys, monkeypatch, options):
    # mod 2 the colorable words are generated, so no diagram is built only to be filtered out
    want = [serialize_gauss_code(G) for G in enumerate_diagrams(4, canonical="--canonical" in options)
            if is_mod_p_numberable(G, 2)]
    if "--limit" in options:
        want = want[:50]
    filtered = []
    monkeypatch.setattr(cli, "is_mod_p_numberable", lambda G, p: filtered.append(G) or is_mod_p_numberable(G, p))
    assert main(["enumerate", "4", "--colorable", "2", *options]) == 0
    assert capsys.readouterr().out.splitlines() == want
    assert filtered == []
    assert main(["enumerate", "3", "--colorable", "3", *options]) == 0  # other moduli still filter
    assert len(filtered) > 0


def test_cli_conway_export(capsys):
    assert main(["conway", "--degree", "2", "--variant", "ascending"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "1\tascending\tU1;O1" in lines
    assert "2\tascending\tU1O2O1U2" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main-theorem", "-p", "-1", "--max-chords", "2"],
        ["verify", "warp-smooth", "-p", "-3", "--max-chords", "1"],
        ["invariants", "O1+U2+O3+U1+O2+U3+", "-p", "-1"],
        ["enumerate", "2", "--colorable", "-1"],
    ],
    ids=["verify-main-theorem", "verify-warp-smooth", "invariants", "enumerate"],
)
def test_cli_negative_modulus_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [message] = captured.err.splitlines()
    assert message.startswith("error: modulus must be >= 0")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-1"],
        ["verify", "cor-det", "--max-chords", "-1"],
        ["verify", "skein", "--samples", "-5"],
        ["enumerate", "2", "--limit", "-1"],
        ["invariants", "O1+U2+O3+U1+O2+U3+", "--degree", "-1"],
        ["conway", "--degree", "-1"],
        ["verify", "cor-det", "--workers", "-1"],
    ],
    ids=["enumerate", "verify-max-chords", "verify-samples", "enumerate-limit", "invariants-degree",
         "conway-degree", "verify-workers"],
)
def test_cli_negative_count_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [message] = captured.err.splitlines()
    assert message.startswith("error: count must be >= 0")


def test_cli_knot_colorability_matches_numberability():
    # on a knot `invariants` reads colorability from the chord indices
    census = [G for k in range(4) for G in enumerate_all_diagrams(k)]
    census += list(enumerate_all_diagrams(4))[::23]
    moduli = (0, 2, 3, 5)
    argv = [flag for p in moduli for flag in ("-p", str(p))]
    counts = dict.fromkeys(moduli, 0)
    for G in census:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["invariants", str(G), "--json", *argv])
        colorable = json.loads(out.getvalue())["colorable"]
        for p in moduli:
            assert colorable[str(p)] == is_mod_p_numberable(G, p), (str(G), p)
            counts[p] += colorable[str(p)]
    # every modulus sees both answers
    assert all(0 < counts[p] < len(census) for p in moduli), counts
