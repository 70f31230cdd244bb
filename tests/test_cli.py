import argparse
import json
import os
import subprocess
import sys

import pytest

import kch
from kch.cli import _build_parser, main

TREFOIL_PD = "X[1,5,2,4];X[5,3,6,2];X[3,1,4,6]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dga_check_unknot(capsys):
    code, out, _ = run(capsys, "dga", "check", "unknot")
    assert code == 0
    assert "d(c) = 1 - X - P + Q*X*P" in out
    assert "d^2 = 0: ok" in out


def test_dga_check_json(capsys):
    code, out, _ = run(capsys, "dga", "check", "unknot", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees_ok"] is True
    assert payload["d_squared_ok"] is True
    assert payload["differentials"]["c"] == "1 - X - P + Q*X*P"


def test_dga_check_failure_exits_one(tmp_path, capsys):
    doc = {
        "name": "broken",
        "torus_variables": ["X"],
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
        "differential": {
            "a": [{"coefficient": "1 - X", "word": []}],
            "b": [{"coefficient": "1", "word": ["a"]}],
        },
    }
    path = tmp_path / "broken.dga.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "dga", "check", str(path))
    assert code == 1
    assert "FAILED" in out


def test_dga_check_unknown_name(capsys):
    code, _, err = run(capsys, "dga", "check", "no_such_algebra")
    assert code == 2
    assert "error:" in err


def test_aug_poly_text_and_json(capsys):
    code, out, _ = run(capsys, "aug", "poly", "unknot")
    assert code == 0
    assert "polynomial: 1 - X - P + Q*X*P" in out

    code, out, _ = run(capsys, "aug", "poly", "unknot", "--json")
    payload = json.loads(out)
    assert payload == {
        "principal": True,
        "polynomial": "1 - X - P + Q*X*P",
        "generators": ["1 - X - P + Q*X*P"],
    }


def test_aug_exists(capsys):
    code, out, _ = run(capsys, "aug", "exists", "unknot", "--at", "Q=1,X=2,P=1")
    assert code == 0 and "exists: yes" in out
    code, out, _ = run(capsys, "aug", "exists", "unknot", "--at", "Q=2,X=1,P=1")
    assert code == 0 and "exists: no" in out
    code, out, _ = run(
        capsys, "aug", "exists", "unknot", "--at", "Q=2,X=1,P=1", "--json"
    )
    assert json.loads(out) == {"exists": False}


def test_aug_exists_bad_point(capsys):
    code, _, err = run(capsys, "aug", "exists", "unknot", "--at", "Q=1")
    assert code == 1  # domain error: missing coordinates
    code, _, err = run(capsys, "aug", "exists", "unknot", "--at", "garbage")
    assert code == 2


@pytest.mark.parametrize(
    "name", ["X\u3000", "", "1X", "i"], ids=["ideographic-space", "empty", "digit-first", "i"]
)
def test_point_names_follow_the_name_rule(capsys, name):
    # a malformed name is a parse error, not a missing torus variable
    code, _, err = run(capsys, "aug", "exists", "unknot", "--at", f"Q=1,{name}=2,P=1")
    assert code == 2
    assert err == f"error: invalid coordinate name {name!r} in point assignment\n"


def test_feynman_scalar_table(capsys):
    code, out, _ = run(
        capsys,
        "feynman",
        "scalar",
        "--n", "1",
        "--q", "[[1]]",
        "--c", "[[[1]]]",
        "--order", "4",
    )
    assert code == 0
    assert "15/2" in out and "3465/8" in out
    lines = [line for line in out.splitlines() if line and not line.startswith("order")]
    assert all(line.rstrip().endswith("yes") for line in lines)


def test_feynman_scalar_json(capsys):
    code, out, _ = run(
        capsys,
        "feynman",
        "scalar",
        "--n", "2",
        "--q", '[[2, 1], [1, 1]]',
        "--c", '[[[1, 0], [0, 2]], [[0, 2], [2, 1]]]',
        "--order", "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(row["match"] for row in payload["orders"])


def test_feynman_scalar_rational_entries(capsys):
    code, out, _ = run(
        capsys,
        "feynman",
        "scalar",
        "--n", "1",
        "--q", '[["1/2"]]',
        "--c", '[[["1/3"]]]',
        "--order", "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orders"][2]["match"]


def test_feynman_scalar_rejects_floats(capsys):
    code, _, err = run(
        capsys,
        "feynman", "scalar", "--n", "1", "--q", "[[0.5]]", "--c", "[[[1]]]", "--order", "2",
    )
    assert code == 2
    assert "rational" in err


def test_feynman_scalar_dimension_mismatch(capsys):
    code, _, err = run(
        capsys,
        "feynman", "scalar", "--n", "2", "--q", "[[1]]", "--c", "[[[1]]]", "--order", "2",
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--q", "[[1", "--q: invalid JSON: Expecting ',' delimiter: line 1 column 4 (char 3)"),
        ("--q", "5", "--q: expected a JSON array of arrays"),
        ("--q", "[[1], 2]", "--q: expected a JSON array of arrays"),
        ("--q", '[["x"]]', "--q[0][0]: 'x' is not a rational"),
        ("--q", "[[1, true]]", "--q[0][1]: entries must be integers or rational strings"),
        ("--c", "[[[1", "--c: invalid JSON: Expecting ',' delimiter: line 1 column 5 (char 4)"),
        ("--c", "[5]", "--c: expected a triply nested JSON array"),
        ("--c", "[[5]]", "--c: expected a triply nested JSON array"),
        ("--c", "[[[1]], 5]", "--c: expected a triply nested JSON array"),
        ("--c", '[[["1/0"]]]', "--c[0][0][0]: '1/0' is not a rational"),
        ("--c", "[[[1, [2]]]]", "--c[0][0][1]: entries must be integers or rational strings"),
    ],
)
def test_feynman_scalar_array_messages(capsys, flag, text, message):
    arrays = {"--q": "[[1]]", "--c": "[[[1]]]", flag: text}
    argv = ["feynman", "scalar", "--n", "1", "--order", "2"]
    code, out, err = run(capsys, *argv, "--q", arrays["--q"], "--c", arrays["--c"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_feynman_matrix(capsys):
    code, out, _ = run(capsys, "feynman", "matrix", "--N", "2", "--order", "2")
    assert code == 0
    assert "6*N^3" in out.replace(" ", "") or "6*N^3" in out
    assert "(g=0,h=3) x 12" in out
    assert "(g=1,h=1) x 3" in out


def test_feynman_matrix_json(capsys):
    code, out, _ = run(capsys, "feynman", "matrix", "--N", "3", "--order", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["N"] == 3
    order2 = payload["orders"][2]
    assert order2["match"] and order2["evaluated"] == order2["oracle"]


def test_feynman_ribbon(capsys):
    code, out, _ = run(capsys, "feynman", "ribbon", "--order", "2")
    assert code == 0
    assert "15 pairings, 15 connected" in out
    code, out, _ = run(capsys, "feynman", "ribbon", "--order", "2", "--json")
    payload = json.loads(out)
    assert payload["classes"] == [
        {"g": 0, "h": 3, "count": 12},
        {"g": 1, "h": 1, "count": 3},
    ]


RIBBON_ORDER_4_TEXT = """\
order 4: 10395 pairings, 9720 connected
  (g=0, h=4): 5184
  (g=1, h=2): 4536
  disconnected pairings: 675
"""

ORDER_4_CENSUS = [
    {"g": 0, "h": 4, "count": 5184},
    {"g": 1, "h": 2, "count": 4536},
]

MATRIX_ORDER_4_TEXT = """\
order  graph-sum                at N=2       oracle  match
0      1                        1            1       yes
1      0                        0            0       yes
2      3/2*N + 6*N^3            51           51      yes
3      0                        0            0       yes
4      1521/8*N^2 + 225*N^4 + 18*N^6 11025/2      11025/2 yes

ribbon census (connected pairings, standard rotations):
  order 2: (g=0,h=3) x 12, (g=1,h=1) x 3
  order 4: (g=0,h=4) x 5184, (g=1,h=2) x 4536, disconnected pairings: 675
"""


def test_feynman_ribbon_order_four_is_frozen(capsys):
    assert run(capsys, "feynman", "ribbon", "--order", "4") == (0, RIBBON_ORDER_4_TEXT, "")
    expected = {
        "order": 4,
        "pairings": 10395,
        "classes": ORDER_4_CENSUS,
        "disconnected_pairings": 675,
    }
    code, out, _ = run(capsys, "feynman", "ribbon", "--order", "4", "--json")
    assert code == 0 and out == json.dumps(expected, indent=2) + "\n"


def test_feynman_matrix_order_four_is_frozen(capsys):
    argv = ("feynman", "matrix", "--N", "2", "--order", "4")
    assert run(capsys, *argv) == (0, MATRIX_ORDER_4_TEXT, "")
    polynomials = ["1", "0", "3/2*N + 6*N^3", "0", "1521/8*N^2 + 225*N^4 + 18*N^6"]
    values = ["1", "0", "51", "0", "11025/2"]
    expected = {
        "N": 2,
        "orders": [
            {"order": m, "polynomial": poly, "evaluated": value, "oracle": value, "match": True}
            for m, (poly, value) in enumerate(zip(polynomials, values))
        ],
        "census": [
            {
                "order": 2,
                "classes": [{"g": 0, "h": 3, "count": 12}, {"g": 1, "h": 1, "count": 3}],
                "disconnected_pairings": 0,
            },
            {"order": 4, "classes": ORDER_4_CENSUS, "disconnected_pairings": 675},
        ],
    }
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and out == json.dumps(expected, indent=2) + "\n"


def test_homfly_bundled_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "homfly", "--pd", "right_trefoil")
    assert code == 0
    assert "P = -a^-4 + 2*a^-2 + a^-2*z^2" in out

    path = tmp_path / "knot.pd"
    path.write_text(TREFOIL_PD)
    code, out_file, _ = run(capsys, "homfly", "--pd", str(path))
    assert code == 0
    assert "P = -a^-4 + 2*a^-2 + a^-2*z^2" in out_file


def test_homfly_inline_and_json(capsys):
    code, out, _ = run(capsys, "homfly", "--pd", "UNKNOT", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["homfly"] == "1"
    assert payload["components"] == 1


def test_homfly_resolution_flag(capsys):
    base = run(capsys, "homfly", "--pd", "right_trefoil")[1]
    rotated = run(capsys, "homfly", "--pd", "right_trefoil", "--resolution", "2")[1]
    assert base == rotated


def test_homfly_max_crossings_exit(capsys):
    code, _, err = run(
        capsys, "homfly", "--pd", "right_trefoil", "--max-crossings", "1"
    )
    assert code == 1
    assert "error:" in err


def test_homfly_parse_error(capsys):
    code, _, err = run(capsys, "homfly", "--pd", "X[1,2]")
    assert code == 2


def test_wilson(capsys):
    code, out, _ = run(capsys, "wilson", "--pd", "unknot", "--N", "2", "--k", "3")
    assert code == 0
    assert out.startswith("W = 1.618033988750")
    code, out, _ = run(
        capsys, "wilson", "--pd", "unknot", "--N", "2", "--k", "3", "--json"
    )
    payload = json.loads(out)
    assert abs(payload["re"] - 1.618033988750) < 1e-9
    assert payload["N"] == 2 and payload["k"] == 3


def test_stats_add_the_skein_work_of_the_call(capsys):
    # the trefoil's skein recursion: the root and its 2 smoothings, no switch;
    # the second smoothing is a kink, which the moves take out
    skein = {"crossings_removed": 1, "nodes": 2, "memo_hits": 0, "smoothings": 2, "switches": 0}
    homfly_payload = {
        "homfly": "-a^-4 + 2*a^-2 + a^-2*z^2",
        "crossings": 3,
        "components": 1,
        "writhe": 3,
    }
    for argv, payload in (
        (("homfly", "--pd", "right_trefoil"), homfly_payload),
        (("wilson", "--pd", "right_trefoil", "--N", "2", "--k", "3"), None),
    ):
        code, plain, _ = run(capsys, *argv, "--json")
        assert code == 0
        payload = payload or json.loads(plain)
        assert plain == json.dumps(payload, indent=2) + "\n"
        code, out, _ = run(capsys, *argv, "--json", "--stats")
        assert code == 0
        assert out == json.dumps({**payload, "skein": skein}, indent=2) + "\n"
        # each call counts only its own work, and --stats needs --json
        assert run(capsys, *argv, "--stats")[1] == run(capsys, *argv)[1]


def test_stats_count_the_crossings_the_moves_removed(capsys):
    code, out, _ = run(capsys, "homfly", "--pd", "kinked_right_trefoil", "--json", "--stats")
    assert code == 0
    assert json.loads(out)["skein"] == {
        "crossings_removed": 2, "nodes": 2, "memo_hits": 0, "smoothings": 2, "switches": 0
    }


@pytest.mark.parametrize(
    "argv", [("homfly",), ("wilson", "--N", "2", "--k", "3")], ids=["homfly", "wilson"]
)
def test_a_pd_code_that_is_not_planar_exits_1(capsys, argv):
    code, out, err = run(capsys, argv[0], "--pd", "X[1,2,1,2]", *argv[1:])
    assert (code, out) == (1, "")
    assert "not planar" in err


def test_wilson_domain_error(capsys):
    code, _, err = run(capsys, "wilson", "--pd", "unknot", "--N", "2", "--k", "-2")
    assert code == 1


@pytest.mark.parametrize(
    "order",
    ["\u0663", "\uff12", "1_0", "3.0", "", "4" * 5000],
    ids=["arabic-indic-3", "fullwidth-2", "underscore", "point", "empty", "too-long"],
)
def test_integer_options_are_ascii(capsys, order):
    code, out, err = run(capsys, "symtrace", "--eigs", "1,1/2", "--order", order)
    assert (code, out) == (2, "")
    assert "error: argument --order: " in err


def test_integer_options_take_a_sign_and_ascii_space(capsys):
    assert run(capsys, "symtrace", "--eigs", "1,1/2", "--order", " +4\n") == run(
        capsys, "symtrace", "--eigs", "1,1/2", "--order", "4"
    )
    assert run(capsys, "wilson", "--pd", "unknot", "--N", "2", "--k", "-7")[0] == 0


@pytest.mark.parametrize("raw", ["1_000", " \u0663 "], ids=["underscore", "arabic-indic-3"])
def test_a_step_cap_not_in_ascii_digits_exits_1(capsys, monkeypatch, raw):
    # the environment cap is read by the same integer rule as the options
    monkeypatch.setenv("KCH_MAX_STEPS", raw)
    code, out, err = run(capsys, "homfly", "--pd", "right_trefoil")
    assert (code, out) == (1, "")
    assert err == f"error: KCH_MAX_STEPS must be an integer, got {raw!r}\n"


def test_symtrace(capsys):
    code, out, _ = run(capsys, "symtrace", "--eigs", "1,1/2", "--order", "4")
    assert code == 0
    assert "1 + 3/2*t + 7/4*t^2 + 15/8*t^3 + 31/16*t^4 + O(t^5)" in out
    code, out, _ = run(
        capsys, "symtrace", "--eigs", "(2+3i),1", "--order", "2", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"][0] == "1"
    assert payload["coefficients"][1] == "3+3i"


def test_symtrace_splits_eigenvalues_at_every_comma(capsys):
    code, out, _ = run(capsys, "symtrace", "--eigs", " (2+3i) ,, 1 ", "--order", "2", "--json")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "3+3i", "-2+15i"]
    code, _, err = run(capsys, "symtrace", "--eigs", "(1,2)", "--order", "2")
    assert (code, err) == (2, "error: invalid scalar literal '(1'\n")


@pytest.mark.parametrize(
    "entry, accepted",
    [('"-1/2"', True), ('"(3)"', True), ('"1.5"', False), ('"1e3"', False), ('"1_000"', False), ('"i"', False)],
)
def test_feynman_scalar_string_entries_follow_the_literal_grammar(capsys, entry, accepted):
    argv = ["feynman", "scalar", "--n", "1", "--q", f"[[{entry}]]", "--c", "[[[0]]]", "--order", "1"]
    code, _, err = run(capsys, *argv)
    if accepted:
        assert code == 0
    else:
        assert (code, err) == (2, f"error: --q[0][0]: {json.loads(entry)!r} is not a rational\n")


def test_symtrace_rejects_zero_eigenvalue(capsys):
    code, _, err = run(capsys, "symtrace", "--eigs", "1,0", "--order", "3")
    assert code == 1


def test_mirror_branch(capsys):
    code, out, _ = run(
        capsys, "mirror", "branch", "--poly", "1 - X - P + Q*X*P", "--order", "5"
    )
    assert code == 0
    assert "on-curve check: ok through X^5" in out
    assert "dW/dx reproduces p: yes" in out


def test_mirror_branch_numeric_q(capsys):
    code, out, _ = run(
        capsys,
        "mirror", "branch", "--poly", "1 - X - P + Q*X*P", "--order", "4", "--Q", "2",
    )
    assert code == 0
    assert "1 + X + 2*X^2 + 4*X^3 + 8*X^4" in out


def test_mirror_branch_json(capsys):
    code, out, _ = run(
        capsys,
        "mirror", "branch", "--poly", "1 - X - P + Q*X*P", "--order", "3", "--json",
    )
    payload = json.loads(out)
    assert payload["on_curve"] is True
    assert payload["derivative_matches_p"] is True
    assert payload["first_failure"] is None


def test_mirror_branch_from_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("1 - X - P + Q*X*P\n")
    code, out, _ = run(capsys, "mirror", "branch", "--poly", str(path), "--order", "3")
    assert code == 0


def test_mirror_branch_bad_base(capsys):
    code, _, err = run(
        capsys, "mirror", "branch", "--poly", "1 - X - P + Q*X*P", "--order", "3",
        "--base", "5",
    )
    assert code == 1


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "homfly")[0] == 2  # missing --pd
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "feynman", "--help")[0] == 0


def leaves(parser, path=()):
    """(path, parser) of every command below ``parser`` that has no subcommands."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), parser
    for group in groups:
        for name, child in group.choices.items():
            yield from leaves(child, (*path, name))


def test_every_subcommand_takes_json_last_and_has_a_handler():
    commands = dict(leaves(_build_parser()))
    assert sorted(commands) == [
        "aug exists", "aug poly", "dga check", "feynman matrix", "feynman ribbon",
        "feynman scalar", "homfly", "mirror branch", "symtrace", "wilson",
    ]
    for path, parser in commands.items():
        dests = [action.dest for action in parser._actions]
        # ``--json`` follows the command's own options; only ``--stats`` may follow it
        tail = ["json", "stats"] if path in ("homfly", "wilson") else ["json"]
        assert dests[-len(tail):] == tail, path
        assert "--json" in parser._option_string_actions, path
        assert callable(parser.get_default("handler")), path


def test_repeated_runs_are_identical(capsys):
    argv = ["mirror", "branch", "--poly", "1 - X - P + Q*X*P", "--order", "6"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def python_process(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kch.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


def run_process(*argv):
    # run as a process so an escaping exception would show as a traceback
    return python_process("-m", "kch.cli", *argv)


def test_import_builds_no_census_and_loads_no_lazy_module():
    # set-up cost of every stream: ``import kch`` must stay cheap
    script = (
        "import sys, kch; "
        "print(sorted(m for m in ('kch._packed', 'kch.cli') if m in sys.modules), "
        "sys.modules['kch.feynman']._pairing_census.cache_info().currsize)"
    )
    proc = python_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


HUGE = "7" * 5000  # past Python's int conversion limit
SCALAR_ARGS = ("feynman", "scalar", "--n", "1", "--order", "2")
# N = 10^400 is past a float, and k + N = 5
RANK_PAST_FLOAT = ("--N", str(10**400), "--k", str(5 - 10**400))
# how the output of each command with a row that exits 0 begins
VALID_STDOUT = {
    "homfly": "diagram: crossings 0, components 40, writhe 0\nP = ",
    "wilson": "W = 0.000000000000 + 0.000000000000i\n(exact cyclotomic arithmetic in Q(zeta_10)",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(("aug", "exists", "unknot", "--at", "Q=1/0,X=1,P=1"), 2, id="zero-denominator"),
        pytest.param(("aug", "exists", "unknot", "--at", f"Q={HUGE},X=1,P=1"), 2, id="at-huge"),
        pytest.param(("aug", "exists", "unknot", "--at", "Q=1,Q=2,X=2,P=3"), 2, id="at-repeated"),
        pytest.param(("symtrace", "--eigs", f"1,{HUGE}", "--order", "2"), 2, id="eigs-huge"),
        pytest.param((*SCALAR_ARGS, "--q", f"[[{HUGE}]]", "--c", "[[[1]]]"), 2, id="q-huge-int"),
        pytest.param((*SCALAR_ARGS, "--q", f'[["{HUGE}"]]', "--c", "[[[1]]]"), 2, id="q-huge-string"),
        pytest.param((*SCALAR_ARGS, "--q", "[[1]]", "--c", '[[["1e10000000"]]]'), 2, id="c-exponent"),
        pytest.param(("homfly", "--pd", f"X[1,{HUGE},2,4]"), 2, id="pd-huge-label"),
        pytest.param(("homfly", "--pd", "{undecodable}"), 2, id="pd-undecodable"),
        pytest.param(("mirror", "branch", "--order", "2", "--poly", "{undecodable}"), 2, id="poly-undecodable"),
        pytest.param(("dga", "check", "{undecodable}"), 2, id="dga-undecodable"),
        # the grammars are ASCII: no other digit or space
        pytest.param(("symtrace", "--eigs", "1,\u3000", "--order", "2"), 2, id="eigs-ideographic-space"),
        pytest.param(("homfly", "--pd", "X[\u0661,\u0662,\u0662,\u0661]"), 2, id="pd-arabic-digits"),
        pytest.param(
            ("mirror", "branch", "--order", "2", "--poly", "1 - X - P + Q*X*P\u3000"), 2,
            id="poly-ideographic-space",
        ),
        pytest.param(("homfly", "--pd", ";".join(["UNKNOT"] * 40)), 0, id="pd-long-inline"),
        pytest.param(("wilson", "--pd", "right_trefoil", *RANK_PAST_FLOAT), 0, id="wilson-huge-rank"),
    ],
)
def test_cli_input_exits_without_traceback(argv, code, tmp_path):
    # malformed input exits 2 with an error line; the rows that exit 0 are valid input
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"\xff\xfeX[1,1,2,2]")
    proc = run_process(*(str(undecodable) if a == "{undecodable}" else a for a in argv))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error:")
    else:
        assert proc.stdout.startswith(VALID_STDOUT[argv[0]])


@pytest.mark.parametrize(
    "argv",
    [
        ("wilson", "--pd", "unknot", "--N", "2", "--k", "4000"),
        ("mirror", "branch", "--poly", "1 - X - P + Q*X*P", "--order", "3000"),
        ("feynman", "scalar", "--n", "1", "--q", "[[1]]", "--c", "[[[1]]]", "--order", "6"),
        ("feynman", "matrix", "--N", "2", "--order", "6"),
        ("feynman", "ribbon", "--order", "6"),
        ("symtrace", "--eigs", "1,1/2", "--order", "5000"),
    ],
)
def test_over_cap_exits_one_without_traceback(argv):
    proc = run_process(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert "cap" in proc.stderr
