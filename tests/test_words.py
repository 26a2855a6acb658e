import copy
import pickle
import re
import sys
import time
from array import array
from itertools import compress
from operator import not_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caloop import words
from caloop.core import Elem8, mul_coords
from caloop.words import (
    MAX_BITS,
    MAX_DEPTH,
    Assoc,
    Generator,
    InnerL,
    Inverse,
    LeftDiv,
    Literal,
    ParseError,
    Power,
    Product,
    evaluate,
    format_canonical,
    parse,
    parse_with_warnings,
)

from support import GOLDEN_WORDS, count_checks, make_rng, random_coords

coords8 = st.tuples(*[st.integers(min_value=-50, max_value=50)] * 8)


def test_parse_shapes():
    assert parse("assoc(x,x,y)") == Assoc(Generator("x"), Generator("x"), Generator("y"))
    assert parse("(x*y)*x") == Product(Product(Generator("x"), Generator("y")), Generator("x"))
    assert parse("x^3") == Power(Generator("x"), 3)
    assert parse("pow(x,-2)") == Power(Generator("x"), -2)
    assert parse("ldiv(x, y*x)") == LeftDiv(
        Generator("x"), Product(Generator("y"), Generator("x"))
    )


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'z'"):
        parse("x*y*z")


def test_variables_parse_as_generators_that_evaluate_refuses():
    expr, _ = parse_with_warnings("assoc(a, b * x, a)", variables=("a", "b"))
    assert expr == Assoc(Generator("a"), Product(Generator("b"), Generator("x")), Generator("a"))
    with pytest.raises(ValueError, match="^unknown generator 'a'$"):
        evaluate(expr)
    with pytest.raises(ParseError, match="position 1: unknown identifier 'a'"):
        parse("a")  # no variables unless they are listed
    with pytest.raises(ParseError, match="position 5: unknown identifier 'c'"):
        parse_with_warnings("a * c", variables=("a",))


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


_LIT7 = "elem[1,2,3,4,5,6,7,"  # a literal's first seven coordinates, 19 characters


# The parse-error contract: each malformed word with its exact message and
# position.  The whole text is lexed before any parsing, so a lexical error
# anywhere wins over the nesting check, which wins over every syntax error.
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("x^^2 &", "position 6: unexpected character '&'", id="lexical-wins"),
        pytest.param(_LIT7 + "9" * 5000 + "]",
                     "position 20: integer of 5000 characters is too long",
                     id="overlong-int-in-literal"),
        pytest.param(_LIT7 + "9" * 5000 + "] &",
                     "position 20: integer of 5000 characters is too long",
                     id="overlong-int-before-bad-char"),
        pytest.param("9" * 5000, "position 1: integer of 5000 characters is too long",
                     id="overlong-int"),
        pytest.param("elem[" + "9" * 5000 + ",0,0,0,0,0,0,0]",
                     "position 6: integer of 5000 characters is too long",
                     id="overlong-first-coordinate"),
        pytest.param("elem[1, -" + "0" * 10 + "9" * 4400 + " ,3,4,5,6,7,8]",
                     "position 9: integer of 4411 characters is too long",
                     id="overlong-zero-padded-coordinate"),
        pytest.param("x * elem [0,0,0,-" + "8" * 4301 + ",0,0,0,0]^2",
                     "position 17: integer of 4302 characters is too long",
                     id="coordinate-one-past-the-digit-limit"),
        pytest.param(_LIT7 + "8,9]", "position 21: expected ']', found ','",
                     id="nine-coordinates"),
        pytest.param(_LIT7 + "-]", "position 20: dangling '-'", id="dangling-minus-in-literal"),
        pytest.param("x - y", "position 3: dangling '-'", id="dangling-minus"),
        pytest.param("x^-\u0663", "position 3: dangling '-'", id="minus-non-ascii-digit"),
        pytest.param("elemx[1,2,3,4,5,6,7,8]", "position 1: unknown identifier 'elemx'",
                     id="elemx"),
        pytest.param("elem", "position 5: expected '[', found end of input", id="bare-elem"),
        pytest.param("elem [1,2,3,4,5,6,7]", "position 20: expected ',', found ']'",
                     id="seven-coordinates"),
        pytest.param(_LIT7 + "8", "position 21: expected ']', found end of input",
                     id="unclosed-literal"),
        pytest.param(_LIT7 + "8]" + _LIT7 + "x]",
                     "position 41: expected integer coordinate, found 'x'",
                     id="literal-after-literal"),
        pytest.param("x^" + _LIT7 + "8]", "position 3: expected integer exponent, found 'elem'",
                     id="literal-as-exponent"),
        pytest.param(_LIT7 + "8] &", "position 23: unexpected character '&'",
                     id="bad-char-after-literal"),
        pytest.param("x _y", "position 3: unexpected character '_'", id="underscore"),
        pytest.param("x \u00b2", "position 3: unexpected character '\u00b2'", id="superscript"),
        pytest.param("\u00b2x", "position 1: unexpected character '\u00b2'",
                     id="superscript-name-start"),
        pytest.param("x*", "position 3: unexpected end of input", id="dangling-star"),
        pytest.param("", "position 1: unexpected end of input", id="empty"),
        pytest.param("   ", "position 4: unexpected end of input", id="blank"),
        pytest.param("(x", "position 3: expected ')', found end of input", id="unclosed-paren"),
        pytest.param("x)", "position 2: unexpected ')' after expression", id="stray-paren"),
        pytest.param("x^2^3", "position 4: unexpected '^' after expression", id="power-chain"),
        pytest.param("x . . y", "position 5: unexpected '.'", id="double-dot"),
        pytest.param("2", "position 1: unexpected integer literal 2", id="integer"),
        pytest.param("pow(x 2)", "position 7: unexpected integer literal 2", id="pow-no-comma"),
        pytest.param("pow(x, y)", "position 8: expected integer exponent, found 'y'",
                     id="pow-of-name"),
        pytest.param("assoc(x,y)", "position 10: expected ',', found ')'", id="assoc-two-args"),
        pytest.param("innL(x, y)", "position 10: expected ',', found ')'", id="innL-two-args"),
        pytest.param("innL(x, y, u1, u2)", "position 14: expected ')', found ','",
                     id="innL-four-args"),
        pytest.param("inv(x, y)", "position 6: expected ')', found ','", id="inv-two-args"),
        pytest.param("pow(x)", "position 6: expected ',', found ')'", id="pow-one-arg"),
        pytest.param("pow(x, 2, 3)", "position 9: expected ')', found ','", id="pow-three-args"),
        pytest.param("pow(x, 2 3)", "position 10: expected ')', found 3", id="pow-two-integers"),
        pytest.param("inv()", "position 5: unexpected ')'", id="empty-call"),
        pytest.param("ldiv", "position 5: expected '(', found end of input", id="bare-ldiv"),
        pytest.param("ldiv(", "position 6: unexpected end of input", id="ldiv-open"),
        pytest.param("ldiv(x)", "position 7: expected ',', found ')'", id="ldiv-one-arg"),
        pytest.param("ldiv(x, y, x)", "position 10: expected ')', found ','",
                     id="ldiv-three-args"),
        pytest.param("ldiv x", "position 6: expected '(', found 'x'", id="ldiv-no-paren"),
        pytest.param("x^01 q", "position 6: unknown identifier 'q'", id="unknown-after-power"),
        pytest.param("(" * 300 + "x" + ")" * 300,
                     f"position {MAX_DEPTH + 1}: expression nested deeper than {MAX_DEPTH} levels",
                     id="parens-300"),
        pytest.param("(" * 3000 + "x" + ")" * 3000,
                     f"position {MAX_DEPTH + 1}: expression nested deeper than {MAX_DEPTH} levels",
                     id="parens-3000"),
        pytest.param("(" * 300 + "x &" + ")" * 300, "position 303: unexpected character '&'",
                     id="lexical-beats-nesting"),
        pytest.param("((x) ^^ 2" + "(" * 300,
                     f"position 209: expression nested deeper than {MAX_DEPTH} levels",
                     id="nesting-beats-syntax"),
        pytest.param("*".join(["x"] * 5000),
                     f"position {2 * (MAX_DEPTH + 1)}: expression nested deeper than "
                     f"{MAX_DEPTH} levels", id="chain-5000"),
        pytest.param("x*" * 5000 + "-", "position 10001: dangling '-'",
                     id="lexical-beats-chain"),
    ],
)
def test_parse_error_messages_and_positions(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.position == int(message.split(":")[0].split()[1])


def test_a_spaced_literal_parses_as_one_atom():
    assert parse("elem [ 1 , 2 ,3,4,5,6,7, 8 ] ^2") == Power(Literal((1, 2, 3, 4, 5, 6, 7, 8)), 2)
    assert parse("elem\t[\n1,2,3,4,5,6,7,8 ]") == Literal((1, 2, 3, 4, 5, 6, 7, 8))


def test_a_literal_takes_every_whitespace_character_around_its_coordinates():
    # int() strips less than str.isspace() skips: not '\x1c'-'\x1f'
    assert parse("elem[1\x1c,2,3,4,5,6,7,8]") == Literal((1, 2, 3, 4, 5, 6, 7, 8))
    for c in filter(str.isspace, map(chr, range(sys.maxunicode + 1))):
        text = f"elem{c}[{c}-1{c},{c}2{c},3,4,5,6,7,{c}8{c}]{c}^{c}2"
        assert parse(text) == Power(Literal((-1, 2, 3, 4, 5, 6, 7, 8)), 2), repr(c)


def _text(codes) -> str:
    return array("I", codes).tobytes().decode("utf-32-le", "surrogatepass")


# every character the lexer's \s matches, the whitespace a literal may have
# between its tokens
_SPACES = "".join(re.findall(r"\s", _text(range(sys.maxunicode + 1))))
_gap = st.text(alphabet=_SPACES, max_size=3)
_coordinate = st.tuples(_gap, st.sampled_from(("", "-")), st.text("0123456789", min_size=1,
                                                                   max_size=8), _gap)


@settings(max_examples=300)
@given(_gap, _gap, st.lists(_coordinate, min_size=8, max_size=8))
def test_text_of_the_literal_shape_lexes_as_one_token(before, inside, coordinates):
    # 'elem' '[' int, ... x8 ']' with any whitespace, signs and digits is one
    # token, so the parser's elem rule only ever meets malformed literals
    cells = [lead + sign + digits + trail for lead, sign, digits, trail in coordinates]
    text = "elem" + before + "[" + inside + ",".join(cells) + "]"
    assert words._TOKEN.findall(text) == [text]
    assert parse(text) == Literal(tuple(int(sign + digits) for _, sign, digits, _ in coordinates))


def test_lexer_character_classes_match_the_str_predicates():
    # Every code point goes through the lexer's own regex and lexical-error
    # rule, with a few regex calls over long strings rather than one per code
    # point (about 1 s on a 2-CPU x86_64 host)
    lexer = words._TOKEN
    every = _text(range(sys.maxunicode + 1))
    in_name = list(map(str.isalnum, every))
    in_name[ord("_")] = True
    # a name runs over every str.isalnum() or '_' character ...
    assert lexer.fullmatch("a" + "".join(compress(every, in_name)))
    # ... and over no other: with an 'a' on each side, each other character
    # is skipped if str.isspace() and is a token of its own if not, so the
    # a's stay tokens of their own (no name starts at the character either)
    others = array("I", compress(range(sys.maxunicode + 1), map(not_, in_name)))
    between = array("I", [ord("a")]) * (2 * len(others) + 1)
    between[1::2] = others
    spaces = "".join(filter(str.isspace, every))
    rest, count = lexer.subn("", _text(between))
    assert rest == spaces
    assert count == 1 + 2 * len(others) - len(spaces)
    # among the name characters, a name with no lexical error starts exactly
    # at the str.isalpha() ones ('²' starts a name in the regex, which the
    # lexical-error rule then refuses), and an integer only at ASCII digits
    word = "".join(compress(every, in_name))
    heads = [lexer.match(c + "a").group() for c in word]
    assert [len(h) == 2 and words._token_fault(h) is None for h in heads] == [
        c.isalpha() for c in word
    ]
    assert [h for h in heads if words._is_int(h)] == list("0123456789")


def test_leading_zeros_do_not_count_toward_the_digit_limit():
    # int() refuses more than 4300 digits; only the significant ones count
    pad = "0" * 5000
    assert evaluate(parse(f"elem[{pad},0,0,0,0,0,0,0]")) == Elem8((0,) * 8)
    assert evaluate(parse(f"x^{pad}2")) == Elem8((2, 0, 0, 0, 0, 0, 0, 0))
    assert evaluate(parse(f"elem[-{pad}7, {pad}5,0,0,0,0,0,-{pad}]")) == Elem8(
        (-7, 5, 0, 0, 0, 0, 0, 0)
    )
    assert parse(f"pow(y, -{pad}3)") == Power(Generator("y"), -3)
    assert parse(f"{pad}1") == parse("1")
    with pytest.raises(ParseError, match="position 1: unexpected integer literal 0"):
        parse(pad)


def test_overlong_integer_is_a_parse_error():
    text = "x^" + "9" * 5000
    with pytest.raises(ParseError, match="too long") as info:
        parse(text)
    assert info.value.position == 3


# Texts over the grammar's own characters, plus some that are not in it:
# each one parses and evaluates, or is refused with a ParseError or the
# size-bound ValueError, never anything else.
_WORD_CHARS = "xyuv1234567890-^*.()[], elmasocinLpw\u00b2\u0663\u00e9&\x1c\u3000"


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
    # each call form, or a power, around a chain is one level above the chain;
    # one too deep is refused at the call's name, or at the power's '^'
    for call in ("assoc(x, y, {})", "innL({}, x, y)", "ldiv(x, {})", "inv({})", "pow({}, 2)",
                 "({})^2"):
        parse("  " + call.format("*".join(["x"] * MAX_DEPTH)))
        text = "  " + call.format("*".join(["x"] * (MAX_DEPTH + 1)))
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse(text)
        assert info.value.position == (text.index("^") + 1 if "^" in text else 3), call


@pytest.mark.parametrize(
    "expr",
    [
        Generator("u2"),
        Literal((1, 2, 3, 4, 5, 6, 7, 8)),
        Product(Generator("x"), Generator("y")),
        Power(Generator("x"), 3),
        Inverse(Generator("y")),
        Assoc(Generator("x"), Generator("x"), Generator("y")),
        InnerL(Generator("x"), Generator("y"), Generator("u1")),
        LeftDiv(Generator("x"), Generator("y")),
    ],
    ids=lambda expr: type(expr).__name__,
)
def test_evaluate_returns_an_elem8_for_every_node_kind(expr, monkeypatch):
    checks = count_checks(monkeypatch)
    value = evaluate(expr)
    assert type(value) is Elem8 and checks == []  # built unchecked (see Elem8)
    assert value == evaluate(parse(format_canonical(value)))


_X, _Y, _U1 = Generator("x"), Generator("y"), Generator("u1")


# Each node kind, as the parser builds it from the text and as the public
# constructors build it.
@pytest.mark.parametrize(
    "text, built",
    [
        pytest.param("u2", Generator("u2"), id="Generator"),
        pytest.param("elem[1,2,3,4,5,6,7,8]", Literal((1, 2, 3, 4, 5, 6, 7, 8)), id="Literal"),
        pytest.param("1", Literal((0,) * 8), id="Literal-one"),
        pytest.param("x*y", Product(_X, _Y), id="Product"),
        pytest.param("x^3", Power(_X, 3), id="Power"),
        pytest.param("pow(x, -2)", Power(_X, -2), id="Power-call"),
        pytest.param("inv(y)", Inverse(_Y), id="Inverse"),
        pytest.param("assoc(x,x,y)", Assoc(_X, _X, _Y), id="Assoc"),
        pytest.param("innL(x,y,u1)", InnerL(_X, _Y, _U1), id="InnerL"),
        pytest.param("ldiv(x,y)", LeftDiv(_X, _Y), id="LeftDiv"),
    ],
)
def test_parsed_nodes_are_the_constructors_nodes(text, built):
    parsed = parse(text)
    assert type(parsed) is type(built)
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    for node in (parsed, built):
        for name in node._fields:
            with pytest.raises(AttributeError):
                setattr(node, name, getattr(node, name))
        with pytest.raises(AttributeError):
            node.extra = None
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(twin) is type(built)
            assert twin == built and hash(twin) == hash(built) and repr(twin) == repr(built)


# Nodes of different kinds with the same fields, and the plain tuple of
# those fields: no two of them are equal.
@pytest.mark.parametrize(
    "one, other, fields",
    [
        pytest.param(Product(_X, _Y), LeftDiv(_X, _Y), (_X, _Y), id="Product-LeftDiv"),
        pytest.param(Assoc(_X, _Y, _U1), InnerL(_X, _Y, _U1), (_X, _Y, _U1), id="Assoc-InnerL"),
        pytest.param(Inverse(_X), Literal(_X), (_X,), id="Inverse-Literal"),
        pytest.param(Inverse(_X), Generator(_X), (_X,), id="Inverse-Generator"),
        pytest.param(Literal(_X), Generator(_X), (_X,), id="Literal-Generator"),
    ],
)
def test_nodes_of_different_kinds_are_unequal(one, other, fields):
    assert not one == other and not other == one
    assert one != other and other != one
    for node in (one, other):
        assert not node == fields and not fields == node
        assert node != fields and fields != node
        assert hash(node) == hash(fields)  # a node hashes as its fields' tuple


_SMALL = st.integers(min_value=-3, max_value=3)


def _literal(coords):
    return f"elem[{','.join(map(str, coords))}]", Literal(coords)


def _compound(words):
    """Every node kind above the leaves, with ``words`` as its children."""
    def binary(node, form):
        return st.tuples(words, words).map(
            lambda p: (form.format(p[0][0], p[1][0]), node(p[0][1], p[1][1])))

    def ternary(node, name):
        return st.tuples(words, words, words).map(lambda p: (
            f"{name}({p[0][0]}, {p[1][0]}, {p[2][0]})", node(p[0][1], p[1][1], p[2][1])))

    return st.one_of(
        binary(Product, "({}) * ({})"),
        binary(Product, "({}).({})"),
        binary(Product, "({}) ({})"),
        binary(LeftDiv, "ldiv({}, {})"),
        st.tuples(words, _SMALL).map(lambda p: (f"({p[0][0]})^{p[1]}", Power(p[0][1], p[1]))),
        st.tuples(words, _SMALL).map(lambda p: (f"pow({p[0][0]}, {p[1]})", Power(p[0][1], p[1]))),
        words.map(lambda p: (f"inv({p[0]})", Inverse(p[1]))),
        ternary(Assoc, "assoc"),
        ternary(InnerL, "innL"),
    )


# (text, the tree the public constructors build for it), over every node kind
_words = st.recursive(
    st.one_of(
        st.sampled_from(list(words._GENERATORS)).map(lambda name: (name, Generator(name))),
        st.just(("1", Literal((0,) * 8))),
        st.tuples(*[_SMALL] * 8).map(_literal),
    ),
    _compound,
    max_leaves=24,
)


@settings(max_examples=200)
@given(_words)
def test_parse_builds_the_tree_the_constructors_build(word):
    text, built = word
    parsed = parse(text)
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    try:
        expected = evaluate(built)
    except ValueError as exc:  # a value past the bit bound, refused on both trees
        with pytest.raises(ValueError) as info:
            evaluate(parsed)
        assert str(info.value) == str(exc)
        return
    assert evaluate(parsed) == expected


@pytest.mark.parametrize(
    "coords",
    [(True, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1.0), (1, 2, 3), (0,) * 9],
    ids=["bool", "float", "short", "long"],
)
def test_a_hand_built_literal_must_hold_8_ints(coords):
    with pytest.raises(ValueError, match="exactly 8 integers"):
        evaluate(Literal(coords))
    with pytest.raises(ValueError, match="exactly 8 integers"):
        evaluate(Product(Generator("x"), Literal(coords)))


def test_an_unknown_node_is_a_type_error():
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate("x")
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate(Inverse(Product(Generator("x"), (1, 0, 0, 0, 0, 0, 0, 0))))


@pytest.mark.parametrize("name", ["z", "X", "u3", ""])
def test_an_unknown_generator_is_a_value_error(name):
    # the parser never builds one, but a caller can
    with pytest.raises(ValueError, match=f"^unknown generator {name!r}$"):
        evaluate(Generator(name))
    with pytest.raises(ValueError, match=f"^unknown generator {name!r}$"):
        evaluate(InnerL(Generator("x"), Generator(name), Generator("y")))


def test_golden_words():
    for text, coords, canonical in GOLDEN_WORDS:
        value = evaluate(parse(text))
        assert tuple(value) == coords, text
        if canonical is not None:
            assert format_canonical(value) == canonical, text


def test_golden_left_divisions_solve_their_equation():
    # ldiv(p, q) is the b with p * b = q
    divisions = [parse(text) for text, _, _ in GOLDEN_WORDS if text.startswith("ldiv(")]
    assert len(divisions) == 7
    for expr in divisions:
        assert evaluate(expr.left) * evaluate(expr) == evaluate(expr.right)


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


@pytest.mark.parametrize("coords", [(), tuple(range(1, 8)), tuple(range(1, 10))],
                         ids=["0", "7", "9"])
def test_format_refuses_a_tuple_of_other_than_8_coordinates(coords):
    with pytest.raises(ValueError, match=f"expected 8 coordinates, got {len(coords)}"):
        format_canonical(coords)
