import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caloop.core import Elem8, mul_coords
from caloop.words import (
    MAX_BITS,
    MAX_DEPTH,
    Assoc,
    Generator,
    ParseError,
    Power,
    Product,
    evaluate,
    format_canonical,
    parse,
    parse_with_warnings,
)

from support import GOLDEN_WORDS, make_rng, random_coords

coords8 = st.tuples(*[st.integers(min_value=-50, max_value=50)] * 8)


def test_parse_shapes():
    assert parse("assoc(x,x,y)") == Assoc(Generator("x"), Generator("x"), Generator("y"))
    assert parse("(x*y)*x") == Product(Product(Generator("x"), Generator("y")), Generator("x"))
    assert parse("x^3") == Power(Generator("x"), 3)
    assert parse("pow(x,-2)") == Power(Generator("x"), -2)


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'z'"):
        parse("x*y*z")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x*",
        "(x*y",
        "assoc(x,y)",
        "pow(x)",
        "elem[1,2,3]",
        "x^y",
        "2",
        "x^^2",
        "inv()",
        "x&y",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_error_position_reported():
    with pytest.raises(ParseError) as info:
        parse("x*y*z")
    assert info.value.position == 5


@pytest.mark.parametrize(
    "text, position",
    [("x^\u00b2", 3), ("x^\u0663", 3), ("elem[1,2,3,4,5,6,7,\u0968]", 20)],
)
def test_only_ascii_digits_are_integers(text, position):
    # '\u00b2' (superscript two), '\u0663' (Arabic-Indic three) and '\u0968'
    # (Devanagari two) are digits to str.isdigit() but not to the grammar
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse(text)
    assert info.value.position == position


def test_overlong_integer_is_a_parse_error():
    text = "x^" + "9" * 5000
    with pytest.raises(ParseError, match="too long") as info:
        parse(text)
    assert info.value.position == 3


# Texts over the grammar's own characters, plus some that are not in it:
# each one parses and evaluates, or is refused with a ParseError or the
# size-bound ValueError, never anything else.
_WORD_CHARS = "xyuv1234567890-^*.()[], elmasocinLpw\u00b2\u0663\u00e9&"


@settings(max_examples=400)
@given(st.one_of(st.text(max_size=40), st.text(alphabet=_WORD_CHARS, max_size=80)))
def test_parse_fuzz_parses_or_raises_parse_error(text):
    try:
        expr = parse(text)
    except ParseError as exc:
        assert 1 <= exc.position <= len(text) + 1
        return
    try:
        evaluate(expr)
    except ValueError as exc:
        assert f"{MAX_BITS}-bit bound" in str(exc)


def test_nested_powers_are_refused_quickly():
    text = "x*y"
    for _ in range(20):
        text = f"({text})^{10 ** 50}"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"passes the {MAX_BITS}-bit bound"):
        evaluate(parse(text))
    assert time.perf_counter() - start < 1.0


def test_nested_products_of_large_literals_are_refused():
    big = 10 ** 1000
    text = f"elem[{big},{big},0,0,0,0,0,0]"
    for _ in range(5):
        text = f"({text})*({text})"
    with pytest.raises(ValueError, match=f"{MAX_BITS}-bit bound"):
        evaluate(parse(text))


def test_values_up_to_the_bit_bound_are_accepted():
    top = 2 ** MAX_BITS - 1
    assert evaluate(parse(f"elem[0,0,0,0,0,0,0,{top}]"))[7] == top
    assert evaluate(parse(f"elem[0,0,0,0,0,0,0,-{top}]"))[7] == -top
    with pytest.raises(ValueError, match=f"{MAX_BITS + 1} bits"):
        evaluate(parse(f"elem[0,0,0,0,0,0,0,{top + 1}]"))


def test_deep_parentheses_are_refused_at_the_limit():
    # the error points at the (MAX_DEPTH + 1)-th open parenthesis
    with pytest.raises(ParseError, match="nested deeper") as info:
        parse("(" * 3000 + "x" + ")" * 3000)
    assert info.value.position == MAX_DEPTH + 1
    depth = MAX_DEPTH
    assert evaluate(parse("(" * depth + "x" + ")" * depth)) == evaluate(parse("x"))


def test_long_chains_are_refused_at_the_limit():
    # x*x*...*x with n factors is a left-grouped tree n - 1 levels deep
    with pytest.raises(ParseError, match="nested deeper") as info:
        parse("*".join(["x"] * 5000))
    assert info.value.position == 2 * (MAX_DEPTH + 1)  # the '*' before factor MAX_DEPTH + 2
    value = evaluate(parse("*".join(["x"] * (MAX_DEPTH + 1))))
    assert value == Elem8((MAX_DEPTH + 1, 0, 0, 0, 0, 0, 0, 0))


def test_nested_calls_count_toward_the_depth():
    def nested(levels):
        text = "x"
        for _ in range(levels):
            text = f"assoc({text}, x, y)"
        return text

    evaluate(parse(nested(MAX_DEPTH)))
    with pytest.raises(ParseError, match="nested deeper"):
        parse(nested(MAX_DEPTH + 1))
    # a call or a power around a chain is one level above the chain
    parse("inv(" + "*".join(["x"] * MAX_DEPTH) + ")")
    with pytest.raises(ParseError, match="nested deeper"):
        parse("inv(" + "*".join(["x"] * (MAX_DEPTH + 1)) + ")")
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" + "*".join(["x"] * (MAX_DEPTH + 1)) + ")^2")


def test_golden_words():
    for text, coords, canonical in GOLDEN_WORDS:
        value = evaluate(parse(text))
        assert tuple(value) == coords, text
        if canonical is not None:
            assert format_canonical(value) == canonical, text


def test_parenthesization_matters():
    left = evaluate(parse("(x*x)*y"))
    right = evaluate(parse("x*(x*y)"))
    assert left != right
    # their left quotient is exactly the first associator generator
    assert right.left_divide(left) == Elem8((0, 0, 1, 0, 0, 0, 0, 0))


def test_product_node_is_homomorphic():
    rng = make_rng(60)
    for _ in range(200):
        a, b = random_coords(rng), random_coords(rng)
        expr = Product(parse(f"elem[{','.join(map(str, a))}]"),
                       parse(f"elem[{','.join(map(str, b))}]"))
        assert tuple(evaluate(expr)) == mul_coords(a, b)


def test_chain_warning():
    _, warnings = parse_with_warnings("x*y*x")
    assert len(warnings) == 1 and "grouped from the left" in warnings[0]
    _, warnings = parse_with_warnings("(x*y)*x")
    assert warnings == []
    _, warnings = parse_with_warnings("x * y")
    assert warnings == []


def test_whitespace_insensitive():
    assert evaluate(parse("  assoc( x , x , y )  ")) == evaluate(parse("assoc(x,x,y)"))


def test_dot_and_juxtaposition_products():
    assert evaluate(parse("x . y")) == evaluate(parse("x*y"))
    assert evaluate(parse("x y")) == evaluate(parse("x*y"))


@given(coords8)
def test_format_round_trip(coords):
    elem = Elem8(coords)
    assert evaluate(parse(format_canonical(elem))) == elem


def test_format_examples():
    assert format_canonical(Elem8((0,) * 8)) == "1"
    assert format_canonical(Elem8((2, 1, -1, 0, 0, 0, 0, 0))) == "(x^2 y . u1^-1)"
    assert format_canonical(Elem8((0, 0, 0, 0, 0, 0, 1, 0))) == "v3"
