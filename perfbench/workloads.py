"""The benchmark's workloads: seeded inputs, operations, and their checks.

Every workload is a closed loop with one caller: each operation starts only
after the previous one returned.  A pass is a fixed list of operations built
from (seed, pass index); building it is not timed.  Each operation runs
through caloop's public API or CLI entry point and checks its own result,
returning ``OK`` or a short reason.  Operations marked hostile probe known
weak spots (deep nesting, malformed input, bad table files, unsupported
moduli); their outcomes count as attempted and failed operations but their
time is kept out of the end-to-end timings, so that a fix which makes them
succeed slowly is not read as a slowdown of the regular work.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import caloop
import caloop.words

OK = "ok"


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], str]
    hostile: bool = False


def _rng(name: str, seed: int, index: int) -> random.Random:
    # String seeds hash with SHA-512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(f"{name}/{seed}/{index}")


def _cli(argv) -> tuple:
    """Run ``caloop.cli.main`` in-process; returns (exit code, stdout)."""
    from caloop import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


# -- prove ------------------------------------------------------------------

# The 25 catalog entries at the time the benchmark was defined, and the ones
# the mutated product must break.  Entries added later are verified too but
# are not pinned.
CATALOG = (
    "identity-element", "commutativity", "division-round-trip", "aip",
    "flexibility", "reversal", "swap-expansion", "compounded-reversal",
    "compounded-middle-expansion", "double-compounded-middle-right",
    "double-compounded-left-right", "double-compounded-left-middle",
    "inner-map-closed-form", "product-expansion-left", "product-expansion-right",
    "product-expansion-middle", "middle-nucleus-contains", "middle-nucleus-pins",
    "compounded-central-left", "compounded-central-middle",
    "compounded-central-right", "center-contains", "center-pins",
    "projection-homomorphism", "L-automorphism",
)
MUTATION_FLIPS = frozenset({
    "product-expansion-left", "product-expansion-right",
    "product-expansion-middle", "center-pins", "L-automorphism",
})


class Prove:
    """``caloop verify --json``, then the mutated-product catalog run."""

    name = "prove"
    calibration = "table"
    stages = {"stage.verify_s": ("verify",), "stage.mutation_s": ("mutation",)}

    def __init__(self):
        self.flipped = 0

    def setup(self, out_dir: Path) -> None:
        import caloop.cli  # noqa: F401  (imports every layer the pass uses)

    def make_pass(self, seed: int, index: int) -> list:
        # The catalog is deterministic; the seed is recorded but unused.
        return [Op("verify", self._verify), Op("mutation", self._mutation)]

    def _verify(self) -> str:
        code, out = _cli(["verify", "--json"])
        if code != 0:
            return f"verify exited {code}"
        docs = json.loads(out)
        names = [d["name"] for d in docs]
        missing = set(CATALOG) - set(names)
        if missing:
            return f"catalog lacks {sorted(missing)}"
        failed = [d["name"] for d in docs if not d["pass"] or any(d["residual_term_counts"])]
        return f"identities fail: {failed}" if failed else OK

    def _mutation(self) -> str:
        from caloop import symbolic

        reports = symbolic.verify_all(product=symbolic.mutated_product_polys)
        flipped = {r.name for r in reports if not r.passed}
        self.flipped = len(flipped)
        pinned = flipped & set(CATALOG)
        if pinned != MUTATION_FLIPS:
            return f"mutation flips {sorted(pinned)}, expected {sorted(MUTATION_FLIPS)}"
        return OK


# -- quotient-m2 ------------------------------------------------------------

SAMPLED_TRIALS = 2000
ORDER = 256
SPOT_CHECKS = 32


# Lexicographic element indexing mod 2, written here rather than taken from
# QuotientLoop so that the spot checks do not trust the code they check.
def _index(coords) -> int:
    idx = 0
    for c in coords:
        idx = idx * 2 + c % 2
    return idx


def _coords(index: int) -> tuple:
    return tuple((index >> (7 - k)) & 1 for k in range(8))


class QuotientM2:
    """Table export and brute-force checks on (Z/2)^8, each on a fresh loop."""

    name = "quotient-m2"
    calibration = "concurrent"  # one 20-30 s numpy scan: brackets cannot follow it
    stages = {
        "stage.table_s": ("table-bin", "table-csv"),
        "stage.axioms_s": ("axioms",),
        "stage.full_check_s": ("automorphic-full",),
        "stage.sampled_check_s": ("automorphic-sampled",),
    }

    def __init__(self, trials: int = SAMPLED_TRIALS, full: bool = True):
        self.trials = trials
        self.full = full

    def setup(self, out_dir: Path) -> None:
        import caloop.cli  # noqa: F401
        import caloop.quotient  # noqa: F401

        self.dir = out_dir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.bad_header = self.dir / "no-modulus.csv"
        self.bad_header.write_text("caloop-table n=2 order=256 ordering=lex\n0,1\n1,0\n")

    def make_pass(self, seed: int, index: int) -> list:
        rng = _rng(self.name, seed, index)
        pairs = [(rng.randrange(ORDER), rng.randrange(ORDER)) for _ in range(SPOT_CHECKS)]
        ops = [
            Op("table-bin", partial(self._table, "bin", pairs)),
            Op("table-csv", partial(self._table, "csv", pairs)),
            Op("axioms", self._axioms),
        ]
        if self.full:
            ops.append(Op("automorphic-full", self._full))
        ops += [
            Op("automorphic-sampled", partial(self._sampled, seed)),
            Op("bad-header", self._bad_header, hostile=True),
            Op("mod-3", partial(self._rejected, ["--mod", "3"]), hostile=True),
            Op("mod-7-full", partial(
                self._rejected, ["--mod", "7", "--level", "automorphic-full"]), hostile=True),
        ]
        return ops

    def _table(self, fmt: str, pairs) -> str:
        from caloop import quotient
        from caloop.core import mul_coords

        path = self.dir / f"table.{fmt}"
        code, out = _cli(["table", "--mod", "2", "--out", str(path), "--format", fmt, "--json"])
        if code != 0:
            return f"table exited {code}"
        doc = json.loads(out)
        if (doc["modulus"], doc["order"], doc["format"]) != (2, ORDER, fmt):
            return f"table reported {doc}"
        report = quotient.validate_table_file(str(path))
        if not (report.passed and report.modulus == 2 and report.order == ORDER):
            return f"{fmt} table does not validate: {report}"
        # Latin, symmetric and unital is not enough: spot-check entries too.
        if fmt == "bin":
            data = path.read_bytes()
            entry = lambda i, j: int.from_bytes(
                data[8 + 4 * (i * ORDER + j):12 + 4 * (i * ORDER + j)], "little")
        else:
            rows = path.read_text().splitlines()[1:]
            entry = lambda i, j: int(rows[i].split(",")[j])
        for i, j in pairs:
            if entry(i, j) != _index(mul_coords(_coords(i), _coords(j))):
                return f"{fmt} table entry ({i}, {j}) is wrong"
        return OK

    def _check(self, argv, counts: dict) -> str:
        code, out = _cli(["check-quotient", *argv, "--json"])
        if code != 0:
            return f"check-quotient {' '.join(argv)} exited {code}"
        doc = json.loads(out)
        if not doc["pass"]:
            return f"checks fail: {doc['checks']}"
        for key, want in counts.items():
            if doc["counts"].get(key) != want:
                return f"{key} = {doc['counts'].get(key)}, expected {want}"
        return OK

    def _axioms(self) -> str:
        return self._check(
            ["--mod", "2", "--level", "axioms"],
            {"products-checked": ORDER * ORDER, "center-size": 16},
        )

    def _full(self) -> str:
        return self._check(
            ["--mod", "2", "--level", "automorphic-full"],
            {"quadruples-checked": ORDER ** 4},
        )

    def _sampled(self, seed: int) -> str:
        return self._check(
            ["--mod", "5", "--level", "automorphic-sampled",
             "--seed", str(seed), "--trials", str(self.trials)],
            {"quadruples-checked": self.trials},
        )

    def _bad_header(self) -> str:
        from caloop import quotient

        try:
            quotient.validate_table_file(str(self.bad_header))
        except ValueError:
            return OK
        return "accepted a table header without m="

    def _rejected(self, argv) -> str:
        code, _ = _cli(["check-quotient", *argv, "--json"])
        return OK if code == 2 else f"check-quotient {' '.join(argv)} exited {code}, expected 2"


# -- laws -------------------------------------------------------------------

SMALL_SPAN = 4
BIG_SPAN = 10 ** 6
POWER_SPAN = 64  # m, n in power-associativity
SINGLE_POWER_SPAN = 6  # n in the single-power law


def _division(a, b):
    return a * a.left_divide(b) == b


def _aip(a, b):
    return ~(a * b) == ~a * ~b


def _flexible(a, b):
    return (a * b) * a == a * (b * a)


def _automorphic(a, b, c, d):
    inner_l = caloop.inner_l
    return inner_l(a, b, c * d) == inner_l(a, b, c) * inner_l(a, b, d)


def _power_associative(a, m, n):
    return a ** m * a ** n == a ** (m + n)


def _single_power(a, b, c, n):
    """(a^n, b, c) = ((t^n (t,a,a)^alpha(n)) (t,a,b)^beta(n)) (t,a,c)^beta(n), t = (a,b,c)."""
    alpha, associator, beta = caloop.alpha, caloop.associator, caloop.beta
    t = associator(a, b, c)
    rhs = (
        t ** n
        * associator(t, a, a) ** alpha(n)
        * associator(t, a, b) ** beta(n)
        * associator(t, a, c) ** beta(n)
    )
    return associator(a ** n, b, c) == rhs


# (kind, law, number of elements, exponent spans)
LAWS = (
    ("division", _division, 2, ()),
    ("aip", _aip, 2, ()),
    ("flexibility", _flexible, 2, ()),
    ("automorphic", _automorphic, 4, ()),
    ("power-associative", _power_associative, 1, (POWER_SPAN, POWER_SPAN)),
    ("single-power", _single_power, 3, (SINGLE_POWER_SPAN,)),
)


def _law(law, args) -> str:
    return OK if law(*args) else f"fails at {args}"


class Laws:
    """The loop laws, checked through the public API on seeded random elements.

    Checks cycle through the laws, so every pass has the same mix.  One
    workload per coordinate scale keeps the scales apart in every metric.
    """

    def __init__(self, scale: str, checks: int):
        self.name = f"laws-{scale}"
        self.calibration = "arithmetic"
        self.span = SMALL_SPAN if scale == "small" else BIG_SPAN
        self.checks = checks
        self.stages: dict = {}

    def setup(self, out_dir: Path) -> None:
        pass

    def make_pass(self, seed: int, index: int) -> list:
        Elem8 = caloop.Elem8
        rng = _rng(self.name, seed, index)
        span = self.span
        ops = []
        for i in range(self.checks):
            kind, law, elems, exps = LAWS[i % len(LAWS)]
            args = [Elem8([rng.randint(-span, span) for _ in range(8)]) for _ in range(elems)]
            args += [rng.randint(-e, e) for e in exps]
            ops.append(Op(kind, partial(_law, law, tuple(args))))
        return ops


# -- words ------------------------------------------------------------------

GENERATORS = ("x", "y", "u1", "u2", "v1", "v2", "v3", "v4")
MAX_DEPTH = 6
LITERAL_SPAN = 30
WORD_POWER_SPAN = 6
HOSTILE_SHARE = 0.02
# Deep words are nested 300-3000 parentheses deep, in steps of 100: each
# depth stays far from the interpreter's recursion limit, so the one extra
# frame a traced call adds cannot change a verdict.  Every pass takes the
# same depths (cycling through this range, in seeded order), so a pass's
# outcome counts do not depend on the seed or the pass index, and two runs
# that fit different numbers of passes into their time report the same
# failure ratio.
DEEP_DEPTHS = range(300, 3001, 100)
MALFORMED = ("dangling-star", "unbalanced-paren", "unknown-identifier", "power-of-name")


def _word(rng: random.Random, depth: int) -> tuple:
    """A random loop word: (text, value, level).

    ``level`` is how tightly the text binds: 'atom' may take '^n' directly,
    'unit' may stand as a factor, and 'product' needs parentheses as a factor.
    """
    if depth >= MAX_DEPTH or rng.random() < depth / MAX_DEPTH:
        r = rng.random()
        if r < 0.75:
            k = rng.randrange(8)
            return GENERATORS[k], caloop.basis(k + 1), "atom"
        if r < 0.85:
            return "1", caloop.IDENTITY, "atom"
        coords = [rng.randint(-LITERAL_SPAN, LITERAL_SPAN) for _ in range(8)]
        return f"elem[{','.join(map(str, coords))}]", caloop.Elem8(coords), "atom"
    kind = rng.choices(
        ("mul", "power", "inv", "assoc", "innL", "paren"), weights=(40, 20, 10, 10, 10, 10)
    )[0]
    if kind == "mul":
        lt, lv, _ = _word(rng, depth + 1)
        rt, rv, rl = _word(rng, depth + 1)
        sep = rng.choice(("*", " * ", ".", " . ", " "))
        return f"{lt}{sep}{rt if rl != 'product' else f'({rt})'}", lv * rv, "product"
    if kind == "power":
        t, v, level = _word(rng, depth + 1)
        n = rng.randint(-WORD_POWER_SPAN, WORD_POWER_SPAN)
        if rng.random() < 0.5:
            return f"pow({t}, {n})", v ** n, "atom"
        return f"{t if level == 'atom' else f'({t})'}^{n}", v ** n, "unit"
    if kind == "inv":
        t, v, _ = _word(rng, depth + 1)
        return f"inv({t})", ~v, "atom"
    if kind == "paren":
        t, v, _ = _word(rng, depth + 1)
        return f"({t})", v, "atom"
    (at, av, _), (bt, bv, _), (ct, cv, _) = (_word(rng, depth + 1) for _ in range(3))
    fn = caloop.associator if kind == "assoc" else caloop.inner_l
    return f"{kind}({at}, {bt}, {ct})", fn(av, bv, cv), "atom"


_GENERATOR_POWER = re.compile(r"\b(x|y|u1|u2|v1|v2|v3|v4)\^(-?\d+)")


def _literal_powers(text: str) -> str:
    """Rewrite each generator power g^n as the literal with n in g's slot.

    A generator's powers are its multiples (x^n = elem[n,0,0,0,0,0,0,0]), so
    this keeps the value.  It keeps the round trip's cost independent of the
    printed exponents, which grow with the coordinates and which the
    iterated-multiplication powers would evaluate in |n| products each.
    """
    def literal(match):
        coords = [0] * 8
        coords[GENERATORS.index(match.group(1))] = int(match.group(2))
        return f"elem[{','.join(map(str, coords))}]"

    return _GENERATOR_POWER.sub(literal, text)


def _round_trip(text: str, expected) -> str:
    """Parse, evaluate, format, and parse and evaluate the formatted text."""
    words = caloop.words
    value = words.evaluate(words.parse_with_warnings(text)[0])
    shown = words.format_canonical(value)
    again = words.evaluate(words.parse_with_warnings(_literal_powers(shown))[0])
    if value != expected:
        return f"{text!r} evaluates to {tuple(value)}, expected {tuple(expected)}"
    if again != value:
        return f"{text!r} prints as {shown!r}, which evaluates to {tuple(again)}"
    return OK


def _deep(text: str, expected) -> str:
    try:
        return _round_trip(text, expected)
    except ValueError:  # a clean ParseError (or other ValueError) is a valid refusal
        return OK


def _malformed(text: str) -> str:
    words = caloop.words
    try:
        words.parse_with_warnings(text)
    except words.ParseError:
        return OK
    return f"accepted malformed word {text!r}"


class Words:
    """Seeded grammar-generated loop words, each with its expected value."""

    name = "words"
    calibration = "arithmetic"
    stages: dict = {}

    def __init__(self, count: int):
        self.count = count

    def setup(self, out_dir: Path) -> None:
        pass

    def make_pass(self, seed: int, index: int) -> list:
        basis = caloop.basis
        rng = _rng(self.name, seed, index)
        hostile = rng.sample(range(self.count), round(HOSTILE_SHARE * self.count))
        deep = set(hostile[: len(hostile) // 2])
        malformed = {pos: MALFORMED[k % len(MALFORMED)]
                     for k, pos in enumerate(hostile[len(hostile) // 2:])}
        depths = [DEEP_DEPTHS[k % len(DEEP_DEPTHS)] for k in range(len(deep))]
        rng.shuffle(depths)
        ops = []
        for i in range(self.count):
            if i in deep:
                k = rng.randrange(8)
                d = depths.pop()
                ops.append(Op("deep", partial(
                    _deep, "(" * d + GENERATORS[k] + ")" * d, basis(k + 1)), hostile=True))
            elif i in malformed:
                text = _word(rng, 1)[0]
                kind = malformed[i]
                bad = {
                    "dangling-star": f"{text} *",
                    "unbalanced-paren": f"({text}",
                    "unknown-identifier": f"{text} q",
                    "power-of-name": f"({text})^y",
                }[kind]
                ops.append(Op(kind, partial(_malformed, bad), hostile=True))
            else:
                text, value, _ = _word(rng, 0)
                ops.append(Op("word", partial(_round_trip, text, value)))
        return ops


NAMES = ("prove", "quotient-m2", "laws-small", "laws-big", "words")
LAW_CHECKS = 2400  # checks per pass
WORD_COUNT = 4000  # words per pass


def build(name: str, smoke: bool = False):
    """The named workload, at benchmark size or at a tiny smoke-test size."""
    if name == "prove":
        return Prove()
    if name == "quotient-m2":
        return QuotientM2(trials=20, full=False) if smoke else QuotientM2()
    if name in ("laws-small", "laws-big"):
        return Laws(name.split("-")[1], checks=12 if smoke else LAW_CHECKS)
    if name == "words":
        return Words(count=100 if smoke else WORD_COUNT)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

