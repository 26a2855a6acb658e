import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import caloop
from caloop import cli, symbolic
from caloop.calculus import NucleusKind
from caloop.cli import build_parser, main
from caloop.quotient import QuotientLoop, validate_table_file
from caloop.words import MAX_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "assoc(x,x,y)")
    assert code == 0
    assert out.splitlines() == ["u1", "coords: [0, 0, 1, 0, 0, 0, 0, 0]"]


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "(x*y)*x", "--json")
    assert code == 0
    assert json.loads(out) == {
        "canonical": "(x^2 y . u1^-1)",
        "coords": [2, 1, -1, 0, 0, 0, 0, 0],
    }


def test_eval_warns_on_chains(capsys):
    code, out, err = run(capsys, "eval", "x*y*x")
    assert code == 0
    assert "warning" in err and "grouped from the left" in err


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "x*y*z")
    assert code == 2
    assert "unknown identifier" in err


def test_eval_refuses_a_law_variable(capsys):
    # the catalog's law texts parse a, b, ... as variables; eval does not
    assert run(capsys, "eval", "a") == (2, "", "error: position 1: unknown identifier 'a'\n")


def test_mul_inv_assoc_inner(capsys):
    code, out, _ = run(capsys, "mul", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]")
    assert code == 0 and "coords: [1, 1, 0, 0, 0, 0, 0, 0]" in out

    code, out, _ = run(capsys, "inv", "[1,1,0,0,0,0,0,0]")
    assert code == 0 and "coords: [-1, -1, 0, 0, 0, 0, 0, 0]" in out

    code, out, _ = run(
        capsys, "assoc", "[1,0,0,0,0,0,0,0]", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"
    )
    assert code == 0 and "u1" in out

    code, out, _ = run(
        capsys, "inner", "[1,0,0,0,0,0,0,0]", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"
    )
    assert code == 0 and "coords: [0, 1, -1, 0, 0, -2, 0, 0]" in out


def test_bad_coords_exit_2(capsys):
    code, _, err = run(capsys, "mul", "[1,2]", "[1,2,3,4,5,6,7,8]")
    assert code == 2 and "8 coordinates" in err


# str.isdigit() accepts '²' and '١', and int() accepts '١' and '1_0'; the
# coordinate lists take only an optional sign and ASCII 0-9, as eval does
@pytest.mark.parametrize("head", ["\u00b2", "\u0661", "1_0"])
def test_coords_take_ascii_digits_only(capsys, head):
    text = "[" + head + ",0,0,0,0,0,0,0]"
    code, out, err = run(capsys, "mul", text, "[0,0,0,0,0,0,0,0]")
    assert code == 2 and out == ""
    assert err == f"error: bad coordinate list {text!r}; expected [i1,...,i8]\n"


def test_big_coordinates_become_strings_in_json(capsys):
    big = str(2 ** 70)
    coords = f"[{big},0,0,0,0,0,0,0]"
    code, out, _ = run(capsys, "mul", coords, "[0,0,0,0,0,0,0,0]", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coords"][0] == big  # decimal string, exact
    assert doc["coords"][1] == 0


def test_member_true(capsys):
    code, out, _ = run(capsys, "member", "--kind", "center", "[0,0,0,0,9,9,9,9]")
    assert code == 0 and out.strip() == "true"


def test_member_false_prints_witness(capsys):
    code, out, _ = run(capsys, "member", "--kind", "center", "[0,0,1,0,0,0,0,0]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "false"
    assert "witness" in lines[1] and "!= 1" in lines[1]


def test_member_json(capsys):
    code, out, _ = run(
        capsys, "member", "--kind", "middle", "[1,0,0,0,0,0,0,0]", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is False
    assert doc["witness"]["slot"] == "middle"


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "L-automorphism")
    assert code == 0
    assert out.startswith("PASS L-automorphism")


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "commutativity", "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1
    assert set(docs[0]) == {"name", "pass", "residual_term_counts", "max_degree", "millis"}


def test_verify_unknown_identity_exit_2(capsys):
    # an input error like any other: one `error:` line naming the known
    # identities, not argparse's usage text
    assert main(["verify", "--identity", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: unknown identity 'nope'; known identities: identity-element, ")


def test_verify_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "caloop.symbolic.verify_all",
        lambda: [
            symbolic.IdentityReport(
                name="broken",
                passed=False,
                residual_term_counts=(1,) * 8,
                max_degree=5,
                millis=1,
                variables=16,
            )
        ],
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL broken" in out


def test_table_and_check_quotient(capsys, tmp_path):
    path = str(tmp_path / "m2.csv")
    code, out, _ = run(capsys, "table", "--mod", "2", "--out", path)
    assert code == 0
    assert validate_table_file(path).passed

    code, out, _ = run(capsys, "check-quotient", "--mod", "2", "--level", "axioms")
    assert code == 0 and "PASS latin-rows" in out

    code, out, _ = run(
        capsys, "check-quotient", "--mod", "5", "--level", "automorphic-sampled",
        "--trials", "50", "--seed", "-3", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["counts"]["quadruples-checked"] == 50


# Runs in a fresh interpreter: the commands before check-quotient must not
# load numpy, and check-quotient must still work once they have run.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from caloop.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--identity", "commutativity"]), main(["eval", "x*y"]),
             main(["mul", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"])]
numpy_before = "numpy" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(main(["check-quotient", "--mod", "2", "--json"]))
print(json.dumps({"codes": codes, "numpy_before": numpy_before, "out": out.getvalue()}))
"""


def test_only_the_quotient_commands_load_numpy(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(caloop.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    result = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["codes"] == [0, 0, 0, 0]
    assert probe["numpy_before"] is False
    code, out, _ = run(capsys, "check-quotient", "--mod", "2", "--json")
    assert code == 0
    fresh, here = json.loads(probe["out"]), json.loads(out)
    assert fresh.pop("millis") >= 0 and here.pop("millis") >= 0
    assert fresh == here


# Runs in a fresh interpreter: importing the CLI and running the word
# commands loads neither the prover nor numpy, nor dataclasses and inspect,
# which the word nodes, named tuples, do not need.
_PROVER_PROBE = """
import contextlib, io, json, sys
import caloop.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [caloop.cli.main(["eval", "x*y"]),
             caloop.cli.main(["mul", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"])]
loaded = [m for m in ("caloop.symbolic", "caloop.poly", "numpy", "dataclasses", "inspect")
          if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_word_commands_load_neither_the_prover_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(caloop.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    result = subprocess.run([sys.executable, "-c", _PROVER_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [0, 0], "loaded": []}


def test_check_quotient_full_m2(capsys):
    code, out, _ = run(
        capsys, "check-quotient", "--mod", "2", "--level", "automorphic-full", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["counts"]["quadruples-checked"] == 4294967296
    assert doc["counts"]["distinct-inner-maps"] == 43
    # the work behind those counts: 16 central elements leave 16 coset
    # representatives, so 16 * 16 maps are computed, not 65 536
    assert doc["counts"]["central-elements"] == 16
    assert doc["counts"]["inner-maps-computed"] == 256


# each whole check-quotient --json text, millis masked as _outcome masks it,
# so that every check, every count and their order are pinned
_CHECK_QUOTIENT_TEXTS = [
    (["--mod", "2", "--level", "axioms"],
     '{"checks":{"center-matches-coordinate-description":true,"commutative":true,'
     '"identity-column":true,"identity-row":true,"latin-columns":true,"latin-rows":true},'
     '"counts":{"center-size":16,"products-checked":65536},"level":"axioms",<ms>,'
     '"modulus":2,"order":256,"pass":true}\n'),
    (["--mod", "2", "--level", "automorphic-full"],
     '{"checks":{"automorphism-full":true},"counts":{"central-elements":16,'
     '"distinct-inner-maps":43,"inner-maps-computed":256,"law-pairs-checked":187136,'
     '"quadruples-checked":4294967296},"level":"automorphic-full",<ms>,"modulus":2,'
     '"order":256,"pass":true}\n'),
    # 4097 trials cross the 4096-trial chunk of the int32 columns at m = 5
    (["--mod", "5", "--level", "automorphic-sampled", "--trials", "4097", "--seed", "11"],
     '{"checks":{"automorphism-sampled":true},"counts":{"quadruples-checked":4097},'
     '"level":"automorphic-sampled",<ms>,"modulus":5,"order":390625,"pass":true}\n'),
]


@pytest.mark.parametrize("argv, text", _CHECK_QUOTIENT_TEXTS,
                         ids=["m2-axioms", "m2-automorphic-full", "m5-automorphic-sampled"])
def test_check_quotient_json_texts_are_pinned(capsys, argv, text):
    assert _outcome(capsys, ["check-quotient", *argv, "--json"]) == (0, text, "")


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + "x" + ")" * 3000, "*".join(["x"] * 5000)],
    ids=["nested-parentheses", "long-chain"],
)
def test_eval_over_deep_word_exit_2(capsys, expr):
    code, out, err = run(capsys, "eval", expr)
    assert code == 2 and out == ""
    assert err.startswith("error: position ") and "nested deeper" in err


def test_eval_huge_exponents(capsys):
    code, out, _ = run(capsys, "eval", "x^100000000")
    assert code == 0 and out == "x^100000000\ncoords: [100000000, 0, 0, 0, 0, 0, 0, 0]\n"
    n = 10 ** 100
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", f"x^{n}", "--json")
    assert code == 0 and json.loads(out)["coords"] == [str(n), 0, 0, 0, 0, 0, 0, 0]
    code, out, _ = run(capsys, "eval", f"(x*y)^{n + 7}", "--json")
    assert code == 0
    coords = [int(c) for c in json.loads(out)["coords"]]
    assert coords[:3] == [n + 7, n + 7, -((n + 7) ** 3 - (n + 7)) // 3]
    assert time.perf_counter() - start < 0.5


def test_eval_huge_value_exit_2(capsys):
    text = "x*y"
    for _ in range(20):
        text = f"({text})^{10 ** 50}"
    code, out, err = run(capsys, "eval", text)
    assert code == 2 and out == ""
    assert err.startswith("error: value too large: ") and err.count("\n") == 1


def _coords(*head):
    return "[" + ",".join(head + ("0",) * (8 - len(head))) + "]"


# 4 000 nines are 13 288 bits, within the bound; what they make passes it
_BIG = "9" * 4000
_PAST = str(1 << MAX_BITS)  # 14 001 bits
_GRAND = _coords(_BIG, _BIG, _BIG)


@pytest.mark.parametrize(
    "argv",
    [
        ("mul", _coords(_BIG, _BIG), _coords(_BIG, _BIG)),
        ("mul", _coords(_PAST), "[1,2,3,4,5,6,7,8]"),
        ("mul", _coords("9" * 5000), "[1,2,3,4,5,6,7,8]"),  # past int()'s digit limit
        ("inv", _coords("-" + _PAST)),
        ("inv", _coords("+" + "9" * 5000)),
        ("assoc", _GRAND, "[1,2,3,4,5,6,7,8]", _coords(_BIG, "1")),
        ("assoc", "[1,2,3,4,5,6,7,8]", _coords(_PAST), _GRAND),
        ("inner", _coords(_BIG, _BIG), _coords(_BIG, "1"), _coords("1", _BIG)),
        ("inner", _coords(_PAST), "[1,2,3,4,5,6,7,8]", "[1,0,0,0,0,0,0,0]"),
        ("member", "--kind", "center", _coords(_BIG, _BIG)),
        ("member", "--kind", "full", _coords("0", "0", _PAST)),
    ],
    ids=lambda argv: " ".join(a if len(a) < 20 else f"<{len(a)} chars>" for a in argv),
)
def test_coordinate_commands_hold_the_bit_bound(capsys, argv):
    # oversized inputs and results end as one error line naming the bound
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: value too large: ") and err.count("\n") == 1
        assert f"passes the {MAX_BITS}-bit bound" in err


def test_coordinate_commands_accept_values_at_the_bound(capsys):
    top = str((1 << MAX_BITS) - 1)
    code, out, _ = run(capsys, "inv", _coords(top, "-" + top), "--json")
    assert code == 0 and json.loads(out)["coords"][:2] == [str(-int(top)), top]
    code, out, _ = run(capsys, "mul", _coords(_BIG), _coords(_BIG), "--json")
    assert code == 0 and json.loads(out)["coords"][0] == str(2 * int(_BIG))


def test_coordinate_commands_skip_leading_zeros(capsys):
    # zeros in front do not count toward int()'s digit limit
    pad = "0" * 5000
    padded = _coords(pad, "-" + pad + "7", "+" + pad + _BIG, "-" + pad)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "inv", padded, *extra)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, "inv", _coords("0", "-7", _BIG, "0"), *extra)
    # and a loop word's integers skip them alike
    padded = _coords(pad, "-" + pad + "7", pad + _BIG, "-" + pad)
    assert run(capsys, "eval", f"inv(elem{padded})") == run(capsys, "inv", padded)


# each element command and the eval word it must print exactly as
_WORD_OF = {"mul": "{}*{}", "inv": "inv({})", "assoc": "assoc({},{},{})", "inner": "innL({},{},{})"}
# str.strip() skips these, int() not all of them ('\x1c'-'\x1f')
_whitespace = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1f\x85\u00a0\u2003", max_size=2)
_coord = st.one_of(st.integers(-9, 9), st.integers(-(10 ** 40), 10 ** 40))


@st.composite
def _written_coords(draw):
    """(8 coordinates, a text _parse_coords reads them from)."""
    coords = draw(st.lists(_coord, min_size=8, max_size=8))
    parts = []
    for c in coords:
        sign = "-" if c < 0 else draw(st.sampled_from(["", "+", "-"] if c == 0 else ["", "+"]))
        parts.append(draw(_whitespace) + sign + str(abs(c)) + draw(_whitespace))
    body = ",".join(parts)
    if draw(st.booleans()):
        body = "[" + body + "]"
    return coords, draw(_whitespace) + body + draw(_whitespace)


def _eval_word(command, literals):
    return _WORD_OF[command].format(*(f"elem{text}" for text in literals))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_written_coords(), min_size=3, max_size=3))
def test_element_commands_print_what_eval_prints(capsys, drawn):
    for command, template in _WORD_OF.items():
        arity = template.count("{}")
        texts = [text for _, text in drawn[:arity]]
        word = _eval_word(command, (f"[{','.join(map(str, c))}]" for c, _ in drawn[:arity]))
        for extra in ((), ("--json",)):
            # '--' ends the options, so an unbracketed list may start with '-'
            got = run(capsys, command, *extra, "--", *texts)
            assert got == run(capsys, "eval", word, *extra)
            assert got[0] == 0 and got[2] == ""


_ONE_TO_EIGHT = "[1,2,3,4,5,6,7,8]"


def _bound_cases():
    for command, template in _WORD_OF.items():
        arity = template.count("{}")
        for i in range(arity):  # an input past the bound, in each place
            args = [_ONE_TO_EIGHT] * arity
            args[i] = _coords("0", "-" + _PAST) if i % 2 else _coords(_PAST)
            yield command, args
    # inputs within the bound, results past it
    yield "mul", [_coords(_BIG, _BIG), _coords(_BIG, _BIG)]
    yield "assoc", [_GRAND, _ONE_TO_EIGHT, _coords(_BIG, "1")]
    yield "inner", [_coords(_BIG, _BIG), _coords(_BIG, "1"), _coords("1", _BIG)]


@pytest.mark.parametrize(
    "command, args", list(_bound_cases()),
    ids=lambda v: v if isinstance(v, str) else " ".join(
        a if len(a) < 20 else f"<{len(a)} chars>" for a in v),
)
def test_element_commands_hold_the_bound_as_eval_does(capsys, command, args):
    # refused at the node eval refuses, with eval's one error line
    for extra in ((), ("--json",)):
        got = run(capsys, command, *args, *extra)
        assert got == run(capsys, "eval", _eval_word(command, args), *extra)
        code, out, err = got
        assert code == 2 and out == ""
        assert err.startswith("error: value too large: ") and err.count("\n") == 1
        assert f"passes the {MAX_BITS}-bit bound" in err


def test_table_to_missing_directory_exit_2(capsys, tmp_path):
    path = tmp_path / "missing" / "t.csv"
    code, out, err = run(capsys, "table", "--mod", "2", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_verify_power_recurrence(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "power-recurrence", "--json")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["name"] == "power-recurrence" and doc["pass"] is True
    assert doc["residual_term_counts"] == [0] * 8


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_quotient_nonpositive_trials_exit_2(capsys, trials):
    code, out, err = run(
        capsys, "check-quotient", "--mod", "5", "--level", "automorphic-sampled",
        "--trials", trials, "--json",
    )
    assert code == 2 and out == ""
    assert err == f"error: trials must be at least 1, got {trials}\n"


def test_check_quotient_budget_exit_2(capsys):
    code, _, err = run(capsys, "check-quotient", "--mod", "4", "--level", "automorphic-full")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("--mod", "7", "--level", "automorphic-full"),
    ("--mod", "5", "--level", "automorphic-sampled", "--trials", "100000000000"),
])
def test_check_quotient_refuses_past_budget_before_any_trial(capsys, monkeypatch, argv):
    def no_trials(*_):
        raise AssertionError("sampled trials ran past the budget")

    monkeypatch.setattr(QuotientLoop, "_sampled_failures", no_trials)
    code, out, err = run(capsys, "check-quotient", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check-quotient", "--level", "axioms"),
    ("check-quotient", "--level", "automorphic-sampled"),
    ("check-quotient", "--level", "automorphic-full"),
    ("table", "--out", "unused.csv"),
], ids=["axioms", "automorphic-sampled", "automorphic-full", "table"])
def test_a_1001_digit_modulus_is_a_short_budget_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv[0], "--mod", str(10 ** 1000), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and ("budget" in err or "int64" in err)
    assert len(err) < 300 and not list(tmp_path.iterdir())


# every subcommand but check-quotient, with valid arguments
_COMMAND_ARGS = {
    "eval": ["x"],
    "mul": ["[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"],
    "inv": ["[1,0,0,0,0,0,0,0]"],
    "assoc": ["[1,0,0,0,0,0,0,0]"] * 3,
    "inner": ["[1,0,0,0,0,0,0,0]"] * 3,
    "member": ["--kind", "center", "[1,0,0,0,0,0,0,0]"],
    "verify": [],
    "table": ["--mod", "2", "--out", "unused.csv"],
}


@pytest.mark.parametrize("flag", ["--seed", "--trials"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_only_check_quotient_takes_seed_and_trials(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command, *_COMMAND_ARGS[command], flag, "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag} 1" in err


def test_check_quotient_mod3_exit_2(capsys):
    code, _, err = run(capsys, "check-quotient", "--mod", "3")
    assert code == 2 and "divisible by 3" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("caloop ")


# one argv of every subcommand; the report lines' timings are masked
_EVERY_COMMAND = [
    ["eval", "x*y*x"],  # a warning on stderr too
    ["mul", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"],
    ["inv", "[1,2,3,4,5,6,7,8]", "--json"],
    ["assoc", "[1,0,0,0,0,0,0,0]", "[1,0,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]"],
    ["inner", "[1,2,0,0,0,0,0,0]", "[0,1,0,0,0,0,0,0]", "[1,1,0,0,0,0,0,0]"],
    ["member", "--kind", "center", "[1,0,0,0,0,0,0,0]"],
    ["verify", "--identity", "commutativity"],
    ["table", "--mod", "2", "--out", "table.csv", "--json"],
    ["check-quotient", "--mod", "2", "--level", "axioms"],
    ["check-quotient", "--mod", "5", "--level", "automorphic-sampled", "--trials", "50", "--json"],
    ["eval", "x*"],  # a parse error, exit 2
]
_USAGE_ERROR = ["inv", "[1,0,0,0,0,0,0,0]", "--seed", "1"]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, with timings masked."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'\b\d+ ms\b|"millis":\d+', "<ms>", out), err


def test_main_parses_every_call_as_its_first(capsys, tmp_path, monkeypatch):
    # main keeps the parser of its first call; every later call, also after
    # a usage error or --version, prints what the first one printed
    monkeypatch.chdir(tmp_path)
    cli._parser.cache_clear()
    first = [_outcome(capsys, argv) for argv in _EVERY_COMMAND]
    assert [code for code, _, _ in first] == [0] * 10 + [2]
    usage = _outcome(capsys, _USAGE_ERROR)
    assert usage[0] == 2 and "error: unrecognized arguments: --seed 1" in usage[2]
    version = _outcome(capsys, ["--version"])
    assert version == (0, f"caloop {caloop.__version__}\n", "")
    for argv, outcome in zip(_EVERY_COMMAND, first):
        assert _outcome(capsys, argv) == outcome
        assert _outcome(capsys, _USAGE_ERROR) == usage
        assert _outcome(capsys, argv) == outcome
        assert _outcome(capsys, ["--version"]) == version
        assert _outcome(capsys, argv) == outcome


def test_build_parser_is_fresh_and_main_reuses_one():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()


def test_json_output_deterministic(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "assoc", "[1,2,3,4,5,6,7,8]", "[2,3,4,5,6,7,8,9]",
                        "[3,4,5,6,7,8,9,10]", "--json")
        outs.add(out)
    assert len(outs) == 1


_fuzz_int = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 1300, 10 ** 1300))
_fuzz_coords = st.one_of(
    st.lists(_fuzz_int, min_size=8, max_size=8), st.lists(_fuzz_int, max_size=9)
).map(lambda xs: "[" + ",".join(map(str, xs)) + "]")
_fuzz_garbage = st.one_of(st.text(alphabet="[]0123456789,+-xyuv*.^() ", max_size=30),
                          st.text(max_size=12))
_fuzz_word = st.one_of(
    st.sampled_from(["assoc(x,x,y)", "innL(x,y,x*y)", "pow(x,-3)", "inv(u1)", "x^2 y . u1^-1",
                     "elem[1,2,3,4,5,6,7,8]", "pow(x*y,10^400)"]),
    _fuzz_garbage,
)
# positional arguments of each fuzzed command
_FUZZ_ARITY = {"mul": 2, "inv": 1, "assoc": 3, "inner": 3, "member": 1, "eval": 1}
_fuzz_kind = st.sampled_from([k.value for k in NucleusKind] + ["bogus"])


def _fuzz_command(command):
    arity = _FUZZ_ARITY[command]
    # coordinate commands get coordinate lists twice as often as garbage
    arg = _fuzz_word if command == "eval" else st.one_of(_fuzz_coords, _fuzz_coords, _fuzz_garbage)
    kind = _fuzz_kind.map(lambda k: [f"--kind={k}"]) if command == "member" else st.just([])
    return st.tuples(
        st.just([command]),
        kind,
        st.lists(st.just("--json"), max_size=1),
        st.lists(arg, min_size=arity, max_size=arity),
        # one argument too many, one time in eight
        st.integers(0, 7).flatmap(lambda k: st.lists(arg, min_size=k // 7, max_size=k // 7)),
    ).map(lambda parts: sum(parts, []))


_fuzz_argv = st.sampled_from(sorted(_FUZZ_ARITY)).flatmap(_fuzz_command)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_argv)
def test_argv_fuzz_exits_cleanly(capsys, argv):
    # any argv ends in a result (exit 0) or an error: line (exit 2); argparse
    # reports its usage errors by raising SystemExit(2)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    _, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert any("error:" in line for line in err.splitlines())
