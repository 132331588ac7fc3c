import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis import identities, spaces
from doubleeis.cli import build_parser, run
from doubleeis.elements import G1, GP, FormalElement, MixedSpaceError
from doubleeis.expressions import ExpressionSyntaxError, parse_expression
from doubleeis.spaces import enumerate_generators


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression parsing -------------------------------------------------------

def test_parse_two_terms():
    e = parse_expression("G(2;0) - G(1;1)")
    assert e.weight == 2 and len(e) == 2


def test_parse_coefficients():
    e = parse_expression("5/2*G(4;0) - P(2,2;0,0) - G(3;1)")
    assert e == FormalElement(
        [(G1(4, 0), Fraction(5, 2)), (GP(2, 2, 0, 0), -1), (G1(3, 1), -1)]
    )


def test_parse_matches_identity_constructor():
    from doubleeis.identities import relprodandg

    assert parse_expression("5/2*G(4;0) - P(2,2;0,0) - G(3;1)") == relprodandg(1, 3)


def test_parse_whitespace_insensitive():
    assert parse_expression("  2 * Z( 2 ) + Z(2) ") == parse_expression("3*Z(2)")


def test_parse_zeta_generators():
    e = parse_expression("ZP(1,2) - Z(1,2) - Z(2,1) - Z(3)")
    assert e.weight == 3 and e.space == "Z"


def test_parse_mixed_space_error():
    with pytest.raises(MixedSpaceError):
        parse_expression("G(2;0) + Z(2)")


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("G(2;0) + @")
    assert info.value.position == 9
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("3 G(2;0)")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")


def test_roundtrip_through_text():
    e = FormalElement([(G1(4, 0), Fraction(5, 2)), (GP(2, 2, 0, 0), -1)])
    assert parse_expression(e.to_text()) == e


@st.composite
def _elements(draw):
    """A nonzero element of E or Z of weight at most 8, with coefficients
    +1, -1 and p/q of either sign, the first term's included."""
    gens = enumerate_generators(draw(st.sampled_from(["E", "Z"])), draw(st.integers(1, 8)))
    chosen = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=6, unique=True))
    coefficient = st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1)]),
        st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12)),
    )
    return FormalElement([(g, draw(coefficient)) for g in chosen])


@settings(max_examples=200, deadline=None)
@given(_elements())
def test_expression_text_roundtrip(e):
    assert parse_expression(e.to_text()) == e


# -- subcommands ---------------------------------------------------------------

def test_dimension_csv(capsys):
    code, out, _ = invoke(capsys, "dimension", "--space", "E", "--weights", "1..6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "weight,dimension", "1,1", "2,2", "3,5", "4,8", "5,15", "6,22",
    ]


def test_dimension_json(capsys):
    code, out, _ = invoke(capsys, "dimension", "--space", "Z", "--weights", "2,4,11", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"weight": 2, "dimension": 1},
        {"weight": 4, "dimension": 2},
        {"weight": 11, "dimension": 6},
    ]


def test_relations_csv(capsys):
    code, out, _ = invoke(capsys, "relations", "--space", "E", "--weight", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("G(2;0),G(1;1)")


def test_relations_reduced(capsys):
    code, out, _ = invoke(capsys, "relations", "--space", "E", "--weight", "2", "--reduced", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 2
    assert data["rows"][0][0] == "1"  # pivot entry normalized


def test_reduce_to_zero(capsys):
    code, out, _ = invoke(capsys, "reduce", "--expr", "G(2;0) - G(1;1)")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_json(capsys):
    code, out, _ = invoke(capsys, "reduce", "--expr", "G(2;0) - G(1;1)", "--format", "json")
    data = json.loads(out)
    assert data[0]["is_zero"] is True


def test_map_pi(capsys):
    code, out, _ = invoke(capsys, "map", "--which", "pi", "--expr", "G(3;0)")
    assert code == 0
    assert out.strip() == "Z(3)"


def test_realize_kronecker(capsys):
    code, out, _ = invoke(capsys, "realize", "--gen", "G(2;0)", "--q-order", "3")
    assert code == 0
    assert "-1/24 + 1*q + 3*q^2 + 4*q^3 + O(q^4)" in out


def test_realize_check_closed_form(capsys):
    code, out, _ = invoke(
        capsys, "realize", "--gen", "G(4,4;0,0)", "--q-order", "8",
        "--check-closed-form", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["matches"] is True


def test_realize_bernoulli(capsys):
    code, out, _ = invoke(capsys, "realize", "--kind", "bernoulli", "--gen", "G(2;0)")
    assert code == 0
    assert out.strip().endswith("-1/24")


def test_recognize_command(capsys):
    code, out, _ = invoke(capsys, "recognize", "--gen", "G(8;0)", "--q-order", "25", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["quasimodular"] is True
    assert data[0]["monomials"] == [{"exponents": [0, 2, 0], "coefficient": "6/7"}]


def test_recognize_leaves_a_coefficient_to_check(capsys):
    # at q-order 6 the seven weight-12 monomials take all seven coefficients
    code, out, err = invoke(capsys, "recognize", "--gen", "G(1,11;0,0)", "--q-order", "6")
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    # the control: one coefficient more is checked and the output is as before
    code, out, _ = invoke(capsys, "recognize", "--gen", "G(1,11;0,0)", "--q-order", "7")
    assert code == 0
    assert out == "G(1,11;0,0) = -1/2 * G2^0 G4^0 G6^2 + -6/7 * G2^0 G4^3 G6^0 + -10/11 * G2^1 G4^1 G6^1\n"


def test_fay_check_command(capsys):
    code, out, _ = invoke(capsys, "fay-check", "--degree", "6", "--q-order", "6")
    assert code == 0
    assert "verified" in out
    code, _, _ = invoke(capsys, "fay-check", "--polar-only", "--degree", "6")
    assert code == 0


def test_wplus_check_command(capsys):
    code, out, _ = invoke(capsys, "wplus-check", "--candidate", "polar", "--degree", "6")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("fay-check", "--polar-only", "--degree", "6", "--q-order", "4"),
    ("wplus-check", "--candidate", "polar", "--degree", "6", "--q-order", "4"),
])
def test_polar_checks_take_no_q_order(capsys, argv):
    # the polar part has rational coefficients, so a q-order would bound nothing
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: --q-order") and err.count("\n") == 1
    # the control: the Kronecker function takes the flag
    code, out, _ = invoke(capsys, "fay-check", "--degree", "6", "--q-order", "4")
    assert code == 0
    assert out == "Fay identity for the Kronecker function at degree 6, q-order 4: verified\n"


@pytest.mark.parametrize("argv, certified, last_line", [
    (("fay-check", "--degree", "9"), 4, "Fay identity for the Kronecker function at degree 9, q-order 4: verified"),
    (("wplus-check", "--candidate", "kronecker", "--degree", "6"), 3, "kronecker candidate in the bi-period space: yes"),
    (("realize", "--gen", "G(1,11;0,0)", "--check-closed-form"), 6, "matches: True"),
])
def test_checks_refuse_a_q_order_that_decides_nothing(capsys, argv, certified, last_line):
    # the cleared Fay sum at degree 9 holds series of weight up to 10, the W+
    # numerator at degree 6 up to 8, and the closed form of G(1,11;0,0) has
    # weight 12: independent monomials need q-orders 4, 3 and 6
    for q in (0, certified - 1):
        code, out, err = invoke(capsys, *argv, "--q-order", str(q))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{argv[0]} " in err and f"needs --q-order >= {certified}" in err
    # the control: at the certified order the check runs and holds
    code, out, _ = invoke(capsys, *argv, "--q-order", str(certified))
    assert code == 0 and out.splitlines()[-1] == last_line


def test_polar_checks_report_no_q_order(capsys):
    # no q-order bounds a polar check, so its row and line name none
    code, out, _ = invoke(capsys, "fay-check", "--polar-only", "--degree", "8")
    assert code == 0 and out == "Fay identity for the polar part at degree 8: verified\n"
    code, out, _ = invoke(capsys, "fay-check", "--polar-only", "--degree", "8", "--format", "json")
    assert code == 0 and json.loads(out) == [{"candidate": "polar part", "degree": 8, "holds": True}]
    code, out, _ = invoke(capsys, "wplus-check", "--candidate", "polar", "--degree", "4", "--format", "csv")
    assert code == 0 and out == "candidate,degree,member\npolar,4,True\n"
    # the control: the Kronecker rows keep the q-order that bounds them
    code, out, _ = invoke(capsys, "fay-check", "--degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"candidate": "Kronecker function", "degree": 4, "holds": True, "q_order": 30}]
    code, out, _ = invoke(capsys, "wplus-check", "--candidate", "kronecker", "--degree", "4", "--format", "csv")
    assert code == 0 and out == "candidate,degree,q_order,member\nkronecker,4,30,True\n"


def test_verify_ramanujan(capsys):
    code, out, _ = invoke(capsys, "verify", "--identity", "ramanujan", "--q-order", "20")
    assert code == 0
    assert "all verified" in out


def test_verify_ramanujan_checks_only_the_weights_within_the_bound(capsys):
    code, out, _ = invoke(capsys, "verify", "--identity", "ramanujan", "--max-weight", "6", "--q-order", "10")
    assert code == 0
    assert out == "ramanujan G2: ok\nramanujan G4: ok\n2 instances, all verified\n"
    # the control: without the flag all three equations, weights 4, 6 and 8
    code, out, _ = invoke(capsys, "verify", "--identity", "ramanujan", "--q-order", "10")
    assert code == 0
    assert out == "ramanujan G2: ok\nramanujan G4: ok\nramanujan G6: ok\n3 instances, all verified\n"


@pytest.mark.parametrize("family, below, certified, last_line", [
    ("mfprod", "0", "6", "9 instances, all verified"),
    ("ramanujan", "0", "3", "3 instances, all verified"),
    ("sum-formula", "0", "4", "45 instances, all verified"),
    ("diagram", "1", "5", "diagram weight 8: ok"),
])
def test_verify_refuses_a_q_order_that_decides_nothing(capsys, family, below, certified, last_line):
    # the weight-k monomials in G2, G4, G6 are independent from q-order
    # N_k = dim QM_k - 1 on; the largest weights are 12 (mfprod), 8
    # (ramanujan) and 10 (sum-formula), and the diagram compares weight-10
    # images through q-order - 1; below that order nothing is verified
    for q in (below, str(int(certified) - 1)):
        code, out, err = invoke(capsys, "verify", "--identity", family, "--q-order", q)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"needs --q-order >= {certified}" in err
    # the control: at the certified order every instance is checked
    code, out, _ = invoke(capsys, "verify", "--identity", family, "--q-order", certified)
    assert code == 0 and out.splitlines()[-1] == last_line


def test_verify_sum_formula_small(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--identity", "sum-formula", "--max-weight", "5", "--q-order", "10"
    )
    assert code == 0
    assert "all verified" in out


def test_verify_diagram_small(capsys):
    code, out, _ = invoke(capsys, "verify", "--identity", "diagram", "--max-weight", "3", "--q-order", "8")
    assert code == 0


def test_usage_errors_exit_two(capsys):
    code, _, err = invoke(capsys, "reduce", "--expr", "G(2;0) + Z(2)")
    assert code == 2 and "error" in err
    code, _, err = invoke(capsys, "reduce", "--expr", "G(2;0) + ???")
    assert code == 2
    code, _, err = invoke(capsys, "realize", "--gen", "G(2;0)", "--kind", "bernoulli", "--check-closed-form")
    assert code == 2


@pytest.mark.parametrize("text", ["G(1_2;0)", "G(+3;0)", "G(\u0663;0)", "P(1;0)", "G(3;0)x"])
def test_gen_rejects_what_expr_rejects(capsys, text):
    for argv in (("realize", "--gen", text), ("recognize", "--gen", text), ("reduce", "--expr", text)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("weights", ["1_0", "\u0663", "a..b", "1..x", "+3"])
def test_weights_take_ascii_digits_only(capsys, weights):
    code, out, err = invoke(capsys, "dimension", "--weights", weights)
    assert (code, out) == (2, "")
    assert err == f"error: bad weight range {weights!r}\n"
    # the control
    code, out, _ = invoke(capsys, "dimension", "--weights", "1..3,5")
    assert code == 0
    assert out == "dim E_1 = 1\ndim E_2 = 2\ndim E_3 = 5\ndim E_5 = 15\n"


@pytest.mark.parametrize("argv", [
    ("dimension", "--weights", "1..4"),
    ("reduce", "--expr", "G(1,2;0,0) + G(2,1;0,0)"),
    ("map", "--which", "pi", "--expr", "G(1,2;0,0)", "--reduce"),
    ("realize", "--gen", "G(2,2;0,0)", "--q-order", "3"),
    ("realize", "--kind", "bernoulli", "--gen", "G(1,3;0,0)"),
    ("recognize", "--gen", "G(2,2;0,0)", "--q-order", "10"),
    ("fay-check", "--degree", "2", "--q-order", "3"),
    ("wplus-check", "--degree", "2", "--q-order", "2"),
    ("verify", "--identity", "ramanujan", "--q-order", "10"),
    ("verify", "--identity", "parity", "--max-weight", "3", "--q-order", "5"),
    ("verify", "--identity", "diagram", "--max-weight", "2", "--q-order", "5"),
    ("cache", "status"),
])
def test_csv_output_reads_back_as_the_json_table(capsys, argv):
    _, out, _ = invoke(capsys, *argv, "--format", "csv")
    _, js, _ = invoke(capsys, *argv, "--format", "json")
    header, *rows = csv.reader(io.StringIO(out))
    records = json.loads(js)
    assert sorted(header) == sorted(records[0]) and len(rows) == len(records)
    for row, record in zip(rows, records):
        assert len(row) == len(header)
        for key, field in zip(header, row):
            value = record[key]
            if isinstance(value, (dict, list)):
                assert json.loads(field) == value
            else:
                assert field == str(value)


def test_relations_csv_reads_back_as_the_json_rows(capsys):
    _, out, _ = invoke(capsys, "relations", "--weight", "3", "--format", "csv")
    _, js, _ = invoke(capsys, "relations", "--weight", "3", "--format", "json")
    header, *rows = csv.reader(io.StringIO(out))
    data = json.loads(js)
    assert header == data["basis"] and rows == data["rows"]


def test_verify_ramanujan_realizes_each_element_once(capsys, monkeypatch):
    realized = []
    realize = identities.realize_element
    monkeypatch.setattr(identities, "realize_element",
                        lambda element, q_order: realized.append(element) or realize(element, q_order))
    code, out, _ = invoke(capsys, "verify", "--identity", "ramanujan", "--q-order", "10")
    assert code == 0 and out.endswith("3 instances, all verified\n")
    assert len(realized) == 3


def test_unknown_subcommand_exits_two(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def test_cache_commands(tmp_path, capsys):
    code, out, _ = invoke(capsys, "dimension", "--space", "E", "--weights", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = invoke(capsys, "cache", "status", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "relations_E_2.json" in out
    code, out, _ = invoke(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "removed 1" in out


def test_cache_commands_in_every_format(tmp_path, capsys):
    d = str(tmp_path)
    invoke(capsys, "dimension", "--weights", "2", "--cache-dir", d)
    size = (tmp_path / "relations_E_2.json").stat().st_size
    status = {"cache_dir": d, "files": ["relations_E_2.json"], "total_bytes": size}
    code, out, _ = invoke(capsys, "cache", "status", "--cache-dir", d)
    assert code == 0 and out == json.dumps(status, indent=2) + "\n"  # the text form
    code, out, _ = invoke(capsys, "cache", "status", "--cache-dir", d, "--format", "json")
    assert code == 0 and json.loads(out) == [status]
    code, out, _ = invoke(capsys, "cache", "status", "--cache-dir", d, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["cache_dir", "files", "total_bytes"],
                                                  [d, '["relations_E_2.json"]', str(size)]]
    cleared = {
        "text": lambda out: out == f"removed 1 cache file(s) from {d}\n",
        "json": lambda out: json.loads(out) == [{"cache_dir": d, "removed": 1}],
        "csv": lambda out: list(csv.reader(io.StringIO(out))) == [["cache_dir", "removed"], [d, "1"]],
    }
    for fmt, check in cleared.items():
        invoke(capsys, "dimension", "--weights", "2", "--cache-dir", d)  # writes the file again
        code, out, _ = invoke(capsys, "cache", "clear", "--cache-dir", d, "--format", fmt)
        assert code == 0 and check(out)
        assert not (tmp_path / "relations_E_2.json").exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "sum-formula", "--max-weight", "3", "--q-order", "4"),
    ("relations", "--weight", "3", "--reduced"),
])
def test_cache_dir_reaches_the_relation_systems(tmp_path, capsys, argv):
    code, _, _ = invoke(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "relations_E_3.json").exists()


@pytest.mark.parametrize("argv, env, path", [
    (("dimension", "--weights", "3", "--cache-dir", "{file}"), None, "{file}"),
    (("dimension", "--weights", "3", "--cache-dir", "{file}/sub"), None, "{file}/sub"),
    (("reduce", "--expr", "G(2;0)"), "{file}", "{file}"),
    (("dimension", "--weights", "3", "--cache-dir", "{dir}"), None, "{dir}/relations_E_3.json"),
    (("cache", "clear", "--cache-dir", "{dir}"), None, "{dir}/relations_E_3.json"),
    (("cache", "status", "--cache-dir", "{file}"), None, "{file}"),
    (("cache", "clear", "--cache-dir", "{file}"), None, "{file}"),
], ids=["file-as-dir", "below-a-file", "env-file-as-dir", "dir-as-file", "clear-dir-as-file",
        "status-file-as-dir", "clear-file-as-dir"])
def test_unusable_cache_location_is_one_error_line(tmp_path, capsys, monkeypatch, argv, env, path):
    # a regular file where the cache directory should be, a path below it, and
    # a directory where a cache file should be
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "relations_E_3.json").mkdir(parents=True)
    places = {"file": tmp_path / "file", "dir": tmp_path / "dir"}
    monkeypatch.setattr(spaces, "_MEMO", {})  # a fresh process holds no system yet
    if env is not None:
        monkeypatch.setenv("DOUBLEEIS_CACHE_DIR", env.format(**places))
    code, out, err = invoke(capsys, *(a.format(**places) for a in argv))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.format(**places) in err


def test_directory_at_a_cache_file_path_is_an_error_on_a_memo_hit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spaces, "_MEMO", {})
    code, out, _ = invoke(capsys, "dimension", "--weights", "3", "--cache-dir", str(tmp_path))
    assert code == 0 and out == "dim E_3 = 5\n"
    # a memo hit makes one stat call, on the cache file
    stats = []
    real_stat = os.stat
    monkeypatch.setattr(os, "stat", lambda *a, **k: stats.append(a[0]) or real_stat(*a, **k))
    spaces.relation_system("E", 3, cache_dir=tmp_path)
    monkeypatch.setattr(os, "stat", real_stat)
    assert stats == [os.path.join(tmp_path, "relations_E_3.json")]
    # the system stays in memory while a directory takes its file's place
    path = tmp_path / "relations_E_3.json"
    path.unlink()
    path.mkdir()
    code, out, err = invoke(capsys, "dimension", "--weights", "3", "--cache-dir", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    # control: a deleted file is written through again
    path.rmdir()
    code, _, _ = invoke(capsys, "dimension", "--weights", "3", "--cache-dir", str(tmp_path))
    assert code == 0 and path.is_file()


def test_a_closed_stdout_ends_the_command_quietly(tmp_path):
    # as in `doubleeis relations --weight 10 --format json | head -c 10`: the
    # output (over 1 MB) outgrows the pipe, so the reader closes it mid-write
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), DOUBLEEIS_CACHE_DIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "doubleeis.cli", "relations", "--weight", "10", "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head == b'{\n  "space'
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("dimension", "--weights", "2", "--q-order", "5"),
    ("reduce", "--expr", "G(2;0)", "--degree", "4"),
    ("realize", "--gen", "G(2;0)", "--cache-dir", "unused"),
    ("recognize", "--gen", "G(4;0)", "--degree", "4"),
    ("verify", "--identity", "ramanujan", "--degree", "4"),
    ("act", "--matrix", "1+T^-1"),
    ("realize", "--kind", "bernoulli", "--gen", "G(2,2;0,0)", "--q-order", "3"),
])
def test_flags_and_commands_without_effect_are_usage_errors(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 2 and not out


def test_bernoulli_realization_takes_no_q_order(capsys):
    code, out, err = invoke(capsys, "realize", "--kind", "bernoulli", "--gen", "G(12;0)", "--q-order", "30")
    assert code == 2 and not out
    assert err.startswith("error: --q-order") and err.count("\n") == 1
    # the control: without the flag the command runs as before
    code, out, _ = invoke(capsys, "realize", "--kind", "bernoulli", "--gen", "G(12;0)")
    assert code == 0
    assert out == "G(12;0) -> 691/2615348736000\n"


def test_the_diagram_check_takes_no_cache_dir(tmp_path, capsys):
    code, out, err = invoke(capsys, "verify", "--identity", "diagram", "--max-weight", "2",
                            "--cache-dir", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: --cache-dir") and err.count("\n") == 1
    # the control: an identity that reduces its instances takes the flag
    code, out, _ = invoke(capsys, "verify", "--identity", "ramanujan", "--max-weight", "4",
                          "--cache-dir", str(tmp_path))
    assert code == 0 and out


def test_one_parser_gives_each_command_its_own_defaults(capsys):
    assert build_parser() is build_parser()
    code, out, _ = invoke(capsys, "realize", "--gen", "G(2;0)", "--q-order", "3")
    assert code == 0 and "O(q^4)" in out
    # no --q-order is left over from the command before
    code, out, _ = invoke(capsys, "realize", "--kind", "bernoulli", "--gen", "G(12;0)")
    assert code == 0 and out == "G(12;0) -> 691/2615348736000\n"
    code, out, _ = invoke(capsys, "realize", "--gen", "G(2;0)")
    assert code == 0 and "O(q^31)" in out
    code, out, _ = invoke(capsys, "dimension", "--space", "Z", "--weights", "3", "--format", "csv")
    assert code == 0 and out.splitlines() == ["weight,dimension", "3,2"]
    code, out, _ = invoke(capsys, "dimension", "--format", "csv")
    assert code == 0 and out.splitlines()[1:] == [f"{w},{d}" for w, d in enumerate(
        (1, 2, 5, 8, 15, 22, 35, 48, 69, 90, 121, 152), 1)]


def test_determinism(capsys):
    a = invoke(capsys, "dimension", "--space", "E", "--weights", "1..5", "--format", "json")[1]
    b = invoke(capsys, "dimension", "--space", "E", "--weights", "1..5", "--format", "json")[1]
    assert a == b


@pytest.mark.parametrize("value", ["10", "1_0", "\u0663", "+10", "1e1"])
@pytest.mark.parametrize("argv", [
    ("realize", "--gen", "G(2;0)", "--q-order"),
    ("fay-check", "--q-order", "4", "--degree"),  # degree 10 needs q-order 4
    ("verify", "--identity", "sum-formula", "--q-order", "4", "--max-weight"),
    ("relations", "--space", "Z", "--weight"),
])
def test_integer_flags_take_ascii_digits_only(capsys, argv, value):
    code, out, err = invoke(capsys, *argv, value)
    if value == "10":  # the control
        assert code == 0 and out and not err
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {argv[-1]} must be an integer >= 0 in ASCII digits, got {value!r}\n"


@pytest.mark.parametrize("argv", [
    ("realize", "--gen", "G(2,2;0,0)", "--q-order", "-1"),
    ("recognize", "--gen", "G(4;0)", "--q-order", "-3"),
    ("fay-check", "--degree", "-1"),
    ("verify", "--identity", "ramanujan", "--q-order", "-1"),
    ("wplus-check", "--degree", "-1"),
])
def test_negative_bounds_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("fay-check", "--degree", "0"),
    ("fay-check", "--polar-only", "--degree", "0"),
    ("verify", "--identity", "sum-formula", "--max-weight", "1"),
    ("verify", "--identity", "parity", "--max-weight", "2"),
    ("verify", "--identity", "diagram", "--max-weight", "0"),
    ("verify", "--identity", "ramanujan", "--max-weight", "2"),
])
def test_checks_over_nothing_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and "verified" not in out and ": ok" not in out
    assert err.startswith("error: ")


def test_fay_check_reaches_degree_twelve_at_q_order_fifty(capsys):
    code, out, _ = invoke(capsys, "fay-check", "--degree", "12", "--q-order", "50")
    assert code == 0
    assert out == "Fay identity for the Kronecker function at degree 12, q-order 50: verified\n"


def test_smallest_checks_still_run(capsys):
    # the controls for the cases above: one degree, one instance
    code, out, _ = invoke(capsys, "fay-check", "--degree", "1", "--q-order", "2")
    assert code == 0 and out.rstrip().endswith("verified")
    code, out, _ = invoke(capsys, "verify", "--identity", "sum-formula", "--max-weight", "2", "--q-order", "4")
    assert code == 0 and out.splitlines()[-1] == "1 instances, all verified"
    code, out, _ = invoke(capsys, "verify", "--identity", "diagram", "--max-weight", "1", "--q-order", "4")
    assert code == 0 and out == "diagram weight 1: ok\n"


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "doubleeis.cli", "dimension", "--weights", "1..3"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout == "dim E_1 = 1\ndim E_2 = 2\ndim E_3 = 5\n"
