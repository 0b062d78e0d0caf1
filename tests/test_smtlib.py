"""Tests for SMT-LIB ingestion: parsing, canonicalization, dedup, JSONL."""

import hashlib
import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadaug.cli import main
from cadaug.poly import VARIABLES, Polynomial, X1, X2, X3
from cadaug.smtlib import (
    ConstantAtomError,
    ExponentOverflowError,
    IngestError,
    ParseError,
    ProblemInstance,
    UnsupportedConstructError,
    VariableCountError,
    dedup_syntactic,
    ingest_directory,
    instance_from_json,
    instance_to_json,
    parse_script,
    poly_to_smt,
    read_instances_jsonl,
    render_script,
    write_instances_jsonl,
)

x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)

DECLS = "(declare-fun x () Real)(declare-fun y () Real)(declare-fun z () Real)"


def test_basic_script():
    script = DECLS + "(assert (> (* x x) y))(assert (= (* z z z) 1))"
    inst = parse_script(script, "demo")
    assert inst.id == "demo"
    assert inst.polynomials == frozenset({x1**2 - x2, x3**3 - 1})
    assert dict(inst.variable_map) == {"x": X1, "y": X2, "z": X3}


def test_duplicate_atom_stored_once():
    script = DECLS + "(assert (> (* x x) y))(assert (> (* x x) y))(assert (< z 2))"
    inst = parse_script(script)
    assert len(inst.polynomials) == 2


def test_two_variables_error():
    script = "(declare-fun x () Real)(declare-fun y () Real)(assert (> x y))"
    with pytest.raises(VariableCountError):
        parse_script(script)


def test_four_used_variables_error():
    script = DECLS + "(declare-fun w () Real)(assert (> (+ x y z w) 0))"
    with pytest.raises(VariableCountError):
        parse_script(script)


def test_declared_but_unused_variable_is_ignored():
    script = DECLS + "(declare-fun w () Real)(assert (> (+ x y z) 0))"
    inst = parse_script(script)
    assert "w" not in dict(inst.variable_map)
    assert dict(inst.variable_map) == {"x": X1, "y": X2, "z": X3}


def test_canonicalization_follows_declaration_order():
    script = (
        "(declare-fun a () Real)(declare-fun b () Real)(declare-fun c () Real)"
        "(assert (> (+ a b c) 0))"
    )
    assert dict(parse_script(script).variable_map) == {"a": X1, "b": X2, "c": X3}
    script = (
        "(declare-fun z () Real)(declare-fun y () Real)(declare-fun x () Real)"
        "(assert (> (+ z y x) 0))"
    )
    inst = parse_script(script)
    assert dict(inst.variable_map) == {"z": X1, "y": X2, "x": X3}
    # declaration order, not alphabetical: z got x1
    assert inst.variable_map[0] == ("z", X1)


def test_reparse_is_stable():
    script = DECLS + "(assert (>= (* x y) (- z (/ 1 2))))"
    a = parse_script(script, "s")
    b = parse_script(script, "s")
    assert a == b


def test_atom_normalization_sign():
    # (> x y) gives x - y, whose graded-lex leading monomial is x2 with
    # coefficient -1; normalization flips it to y - x
    script = DECLS + "(assert (> x y))(assert (> z 1))"
    inst = parse_script(script)
    assert x2 - x1 in inst.polynomials
    assert x3 - 1 in inst.polynomials


def test_atom_normalization_clears_denominators_only():
    # coefficients are multiplied through but common integer content stays
    script = DECLS + "(assert (> (* 2 x) (* 2 y)))(assert (> (/ z 2) 1))"
    inst = parse_script(script)
    assert 2*x2 - 2*x1 in inst.polynomials
    assert x3 - 2 in inst.polynomials


def test_atoms_clear_denominators():
    # an atom p / d is read as p // gcd(d, content(p)): the atom times the
    # lcm of its coefficients' denominators
    script = DECLS + "(assert (> (+ (/ x 2) (/ y 3)) 0))(assert (> z 0))"
    assert 3*x1 + 2*x2 in parse_script(script).polynomials
    script = DECLS + "(assert (> (/ (* 4 x) 6) (* 0.5 0.5 y)))(assert (> z 0))"
    # 2/3 x - 1/4 y clears to 8x - 3y; the leading x2 term's sign flips
    assert 3*x2 - 8*x1 in parse_script(script).polynomials
    script = DECLS + "(assert (> (/ (+ x y) (- 2)) (/ z (/ 4 6))))"
    # -(x + y)/2 - 3z/2 clears to -x - y - 3z, then flips
    assert parse_script(script).polynomials == frozenset({3*x3 + x2 + x1})


@pytest.mark.parametrize("numeral", ["\u0663", "\uff15.\uff15", "1.\u0665", "\u0661\u0662"])
def test_numerals_are_ascii_digits(numeral):
    # int() reads any script's digits; a numeral must be ASCII, so these
    # are unknown symbols rather than 3, 5.5, 1.5 or 12
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_script(DECLS + f"(assert (> (+ x y z) {numeral}))")


def test_decimal_numerals_are_exact():
    script = DECLS + "(assert (> (+ x y) 1.25))(assert (> z 0.5))"
    inst = parse_script(script)
    # 4(x + y) - 5 after clearing 1.25 = 5/4
    assert 4*x1 + 4*x2 - 5 in inst.polynomials
    assert 2*x3 - 1 in inst.polynomials


def test_unary_minus_and_subtraction_chain():
    script = DECLS + "(assert (= (- x) (- y z 1)))"
    inst = parse_script(script)
    # -x - (y - z - 1) = -x - y + z + 1; leading coefficient (on x3) is
    # already positive, so no sign flip
    assert inst.polynomials == frozenset({x3 - x2 - x1 + 1})


def test_chained_relation():
    script = DECLS + "(assert (< x y z))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset({x2 - x1, x3 - x2})


def test_distinct_pairs():
    script = DECLS + "(assert (distinct x y z))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset({x2 - x1, x3 - x1, x3 - x2})


def test_boolean_structure_is_flattened():
    script = DECLS + "(assert (and (or (> x 1) (not (< y 2))) (=> (> z 3) (> x 4))))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset(
        {x1 - 1, x2 - 2, x3 - 3, x1 - 4}
    )


def test_term_level_let():
    script = DECLS + "(assert (> (let ((t (* x x))) (+ t y)) z))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset({x1**2 + x2 - x3})


def test_let_shadows_declaration():
    # the let-bound x shadows the declared x, so only 2 of the declared
    # variables are used
    script = DECLS + "(assert (> (let ((x (* y y))) (+ x z)) 0))"
    with pytest.raises(VariableCountError):
        parse_script(script)


def test_dead_let_binding_does_not_count_usage():
    script = (
        DECLS
        + "(declare-fun w () Real)"
        + "(assert (> (let ((t (* w w))) (+ x y z)) 0))"
    )
    inst = parse_script(script)
    assert "w" not in dict(inst.variable_map)


def test_let_bound_boolean_rejected():
    script = DECLS + "(assert (let ((b (> x 0))) (and b (> (+ y z) 0))))"
    with pytest.raises(UnsupportedConstructError):
        parse_script(script)


def test_division_by_constant_expression():
    script = DECLS + "(assert (> (/ x (+ 1 1)) (+ y z)))"
    inst = parse_script(script)
    # x/2 - y - z clears to x - 2y - 2z, then flips so the x3 term is positive
    assert inst.polynomials == frozenset({2*x3 + 2*x2 - x1})


def test_division_by_variable_rejected():
    script = DECLS + "(assert (> (/ x y) z))"
    with pytest.raises(UnsupportedConstructError):
        parse_script(script)


def test_division_by_zero_rejected():
    script = DECLS + "(assert (> (/ x 0) (+ y z)))"
    with pytest.raises(UnsupportedConstructError):
        parse_script(script)


def test_constant_atom_errors():
    with pytest.raises(ConstantAtomError):
        parse_script(DECLS + "(assert (> 1 0))(assert (> (+ x y z) 0))")
    with pytest.raises(ConstantAtomError):
        parse_script(DECLS + "(assert (= x x))(assert (> (+ x y z) 0))")


def test_cancellation_losing_a_variable_errors():
    # y cancels out of its only atom, so the final set has two variables
    script = DECLS + "(assert (> (+ x y) y))(assert (> z 0))"
    with pytest.raises(VariableCountError):
        parse_script(script)


def test_unsupported_constructs():
    for snippet in [
        "(assert (forall ((w Real)) (> w 0)))",
        "(assert (> (sin x) 0))",
        "(push 1)",
        "(define-fun f ((a Real)) Real (* a a))",
        "(declare-fun q (Real) Real)",
        "(declare-fun q () Int)",
    ]:
        with pytest.raises(UnsupportedConstructError):
            parse_script(DECLS + snippet + "(assert (> (+ x y z) 0))")


def squaring_chain(k):
    """A script asserting x^(2^k) + y + z > 0 through k nested let squarings."""
    lets = "".join(
        f"(let ((a{i} (* {p} {p}))) " for i, p in enumerate(["x"] + [f"a{j}" for j in range(k - 1)])
    )
    return DECLS + "(assert (> (* x y z) 1))(assert " + lets + f"(> (+ a{k - 1} y z) 0)" + ")" * (k + 1)


def test_exponent_overflow_rejected():
    inst = parse_script(squaring_chain(20))
    assert x1**2**20 + x2 + x3 in inst.polynomials
    # x^(2^21) does not fit 21 exponent bits; unchecked, it carried into
    # the x2 field and was ingested as x3 + 2*x2.
    with pytest.raises(ExponentOverflowError) as exc:
        parse_script(squaring_chain(21))
    assert isinstance(exc.value, IngestError)
    assert "x1" in str(exc.value)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_script("(declare-fun x () Real\n(assert (> x 0))")
    assert "unbalanced" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_script(DECLS + "\n(assert (> nosuch 0))")
    assert exc.value.line == 2
    assert "nosuch" in str(exc.value)


def test_comments_strings_and_options_ignored():
    script = (
        "; a comment\n"
        '(set-info :source |multi\nline source|)\n'
        '(set-info :status "unknown")\n'
        "(set-logic QF_NRA)\n" + DECLS + "\n"
        "(assert (> (+ x y z) 0)) ; trailing comment\n"
        "(check-sat)\n(exit)\n"
    )
    inst = parse_script(script)
    assert inst.polynomials == frozenset({x1 + x2 + x3})


def test_declare_const_supported():
    script = (
        "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
        "(assert (> (* x y) z))"
    )
    assert parse_script(script).polynomials == frozenset({x1*x2 - x3})


def test_redeclaration_rejected():
    script = "(declare-fun x () Real)(declare-fun x () Real)"
    with pytest.raises(ParseError):
        parse_script(script + "(assert (> x 0))")


# -- dedup ----------------------------------------------------------------


def make_instance(id_, polys):
    return ProblemInstance(id_, frozenset(polys), (("x", X1), ("y", X2), ("z", X3)))


def test_dedup_identical_sets():
    a = make_instance("a", [x1 + x2 + x3])
    b = make_instance("b", [x1 + x2 + x3])
    c = make_instance("c", [x1*x2 - x3])
    assert dedup_syntactic([a, b, c]) == [a, c]
    # the smaller id survives regardless of position
    assert dedup_syntactic([b, a, c]) == [a, c]


def test_dedup_keeps_role_variants():
    a = make_instance("a", [x1**2 - x2, x3 - 1])
    b = make_instance("b", [x2**2 - x1, x3 - 1])
    assert dedup_syntactic([a, b]) == [a, b]


def test_dedup_empty():
    assert dedup_syntactic([]) == []


# -- rendering and round trip ---------------------------------------------


def test_poly_to_smt_roundtrip():
    assert poly_to_smt(Polynomial.constant(7)) == "7"
    assert poly_to_smt(Polynomial.zero()) == "0"
    for p in [x1**2 - x2, 3*x1*x2*x3 + 1, -2*x1 + 5, -4*x1**3 + 6*x2]:
        full = (
            "(declare-fun x1 () Real)(declare-fun x2 () Real)(declare-fun x3 () Real)"
            f"(assert (> {poly_to_smt(p)} 0))(assert (> (* x1 x2 x3) 0))"
        )
        inst = parse_script(full)
        assert p.sign_normalized() in inst.polynomials


def test_render_script_roundtrip():
    script = DECLS + "(assert (> (* x x) y))(assert (= (* z z z) 1))(assert (< x z))"
    inst = parse_script(script, "orig")
    again = parse_script(render_script(inst), "again")
    assert again.polynomials == inst.polynomials


# -- fuzzing --------------------------------------------------------------

_SYMBOLS = ["x", "y", "z", "w", "a", "true", "false", "Real", "Int", "|x|", '"s"']
_NUMERALS = ["0", "1", "2", "-3", "00", "0.5", "1.25"]
_OPERATORS = ["+", "-", "*", "/", "<", "<=", ">", ">=", "=", "distinct",
              "and", "or", "not", "=>", "xor", "let", "forall", "sin"]
_COMMANDS = ["assert", "declare-fun", "declare-const", "set-logic", "check-sat", "push"]

_token_soups = st.lists(
    st.sampled_from(_SYMBOLS + _NUMERALS + _OPERATORS + _COMMANDS + ["(", ")", "()", ";c\n"]),
    max_size=40,
).map(" ".join)

_sexprs = st.recursive(
    st.sampled_from(_SYMBOLS + _NUMERALS + _OPERATORS + _COMMANDS),
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "(" + " ".join(xs) + ")"),
    max_leaves=20,
)

# Well-typed arithmetic over x, y, z, so that some scripts parse.
_terms = st.recursive(
    st.sampled_from(["x", "y", "z"] + _NUMERALS),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), st.lists(inner, min_size=2, max_size=3))
        .map(lambda t: f"({t[0]} {' '.join(t[1])})"),
        inner.map(lambda t: f"(- {t})"),
        st.tuples(inner, inner).map(lambda t: f"(let ((a {t[0]})) (* a {t[1]}))"),
    ),
    max_leaves=12,
)
_atoms = st.tuples(st.sampled_from(["<", ">=", "=", "distinct"]), _terms, _terms).map(
    lambda t: f"({t[0]} {t[1]} {t[2]})"
)


def _script(asserted):
    return DECLS + "".join(f"(assert {x})" for x in asserted)


_scripts = st.one_of(
    _token_soups,
    st.lists(_sexprs, max_size=4).map(" ".join),
    st.lists(st.one_of(_sexprs, _atoms), min_size=1, max_size=4).map(_script),
    # The first atom uses all three variables, so many of these parse.
    st.lists(_atoms, max_size=3).map(lambda xs: _script(["(> (* x y z) 1)"] + xs)),
)


@settings(max_examples=150, deadline=None)
@given(_scripts)
def test_parse_script_accepts_or_rejects_any_script(text):
    try:
        inst = parse_script(text)
    except IngestError:
        return
    assert parse_script(render_script(inst)).polynomials == inst.polynomials


# -- a fixed corpus of rational scripts -----------------------------------


def _numeral_text(rng):
    """A random integer or decimal numeral, possibly negative, and its value."""
    whole = str(rng.randint(0, 30))
    sign = "-" if rng.random() < 0.2 else ""
    if rng.random() < 0.5:
        return sign + whole, Fraction(int(sign + whole))
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3)))
    return f"{sign}{whole}.{digits}", Fraction(f"{sign}{whole}.{digits}")


def _constant_text(rng, depth):
    """A random constant expression and its value: numerals combined by +,
    -, * and division by a non-zero constant, nested up to ``depth``."""
    if depth == 0 or rng.random() < 0.4:
        return _numeral_text(rng)
    op = rng.choice("+-*/")
    a, va = _constant_text(rng, depth - 1)
    if op == "-" and rng.random() < 0.3:
        return f"(- {a})", -va
    while True:
        b, vb = _constant_text(rng, depth - 1)
        if op != "/" or vb:
            break
    value = {"+": va + vb, "-": va - vb, "*": va * vb, "/": va / vb if vb else 0}[op]
    return f"({op} {a} {b})", value


def _rational_term(rng, depth, env):
    """A random term over x, y, z and the let-bound names in ``env`` (name
    -> degree bound) and a bound on its total degree."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.4:
            return rng.choice("xyz"), 1
        if kind < 0.6 and env:
            name = rng.choice(sorted(env))
            return name, env[name]
        return _numeral_text(rng)[0], 0
    op = rng.choice(["+", "-", "neg", "*", "/", "/", "let"])
    if op == "+":
        args = [_rational_term(rng, depth - 1, env) for _ in range(rng.randint(2, 3))]
        return "(+ " + " ".join(t for t, _ in args) + ")", max(d for _, d in args)
    if op in ("-", "neg"):
        a, da = _rational_term(rng, depth - 1, env)
        if op == "neg":
            return f"(- {a})", da
        b, db = _rational_term(rng, depth - 1, env)
        return f"(- {a} {b})", max(da, db)
    if op == "*":
        # a product of a term and a small factor, often a rational constant
        a, da = _rational_term(rng, depth - 1, env)
        if rng.random() < 0.5:
            return f"(* {_constant_text(rng, 2)[0]} {a})", da
        b, db = _rational_term(rng, 0, env)
        return f"(* {a} {b})", da + db
    if op == "/":
        a, da = _rational_term(rng, depth - 1, env)
        while True:
            c, value = _constant_text(rng, 2)
            if value:
                return f"(/ {a} {c})", da
    name = f"r{depth}"
    value, dv = _rational_term(rng, depth - 1, env)
    body, db = _rational_term(rng, depth - 1, {**env, name: dv})
    return f"(let (({name} {value})) {body})", db


def _rational_atom(rng, env):
    """A relation between two random terms plus a term of higher degree in
    x, y and z: it cannot cancel, so every atom is a non-constant
    polynomial in all three variables."""
    lhs, dl = _rational_term(rng, 3, env)
    rhs, dr = _rational_term(rng, 2, env)
    while True:
        coeff, value = _constant_text(rng, 1)
        if value:
            break
    guard = "(* " + " ".join([coeff, "x", "y", "z"] + ["x"] * (max(dl, dr) - 2)) + ")"
    parts = [lhs, guard] if rng.random() < 0.5 else [guard, lhs]
    rel = rng.choice(["<", "<=", ">", ">=", "="])
    return f"({rel} (+ {' '.join(parts)}) {rhs})"


def _rational_script(rng):
    asserts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            # a formula-level let binding a rational term
            value, dv = _rational_term(rng, 2, {})
            formula = f"(let ((q {value})) {_rational_atom(rng, {'q': dv})})"
        elif rng.random() < 0.3:
            formula = f"(and {_rational_atom(rng, {})} (not {_rational_atom(rng, {})}))"
        else:
            formula = _rational_atom(rng, {})
        asserts.append(f"(assert {formula})")
    return DECLS + "".join(asserts)


def test_rational_scripts_read_to_pinned_bytes(tmp_path):
    # decimals, division by constant expressions, nested division, products
    # of rationals, unary minus and let-bound rational terms: the JSONL text
    # of their parse is pinned, so a change to how the reader clears
    # denominators that alters any polynomial fails here
    rng = random.Random(20240817)
    scripts = [_rational_script(rng) for _ in range(300)]
    assert sum("." in s for s in scripts) > 200 and sum("(/ " in s for s in scripts) > 200
    path = tmp_path / "rational.jsonl"
    write_instances_jsonl([parse_script(s, f"r{i}") for i, s in enumerate(scripts)], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "227d5bd5b079d51b3b88717ae6a104daeadcefbe034efb67259b352d0038a3a7"
    )


# -- JSONL ----------------------------------------------------------------


def test_json_roundtrip():
    inst = parse_script(DECLS + "(assert (>= (* x y) (- z (/ 1 2))))", "j1")
    obj = instance_to_json(inst)
    assert obj["id"] == "j1"
    assert obj["varmap"] == {"x": "x1", "y": "x2", "z": "x3"}
    # integers serialized as decimal strings
    for poly in obj["polys"]:
        for num, den, exps in poly:
            assert isinstance(num, str) and isinstance(den, str)
            assert len(exps) == 3
    assert instance_from_json(obj) == inst


def test_instance_from_json_rejects_exponent_overflow():
    # x1^(2^21)*x3 + x1 used to be read as x2*x3 + x1.
    obj = {"id": "o", "polys": [[["1", "1", [2**21, 0, 1]], ["1", "1", [1, 0, 0]]]],
           "varmap": {"x": "x1", "y": "x2", "z": "x3"}}
    with pytest.raises(ValueError):
        instance_from_json(obj)


def test_jsonl_file_roundtrip(tmp_path):
    insts = [
        parse_script(DECLS + "(assert (> (* x x) y))(assert (> z 0))", "a"),
        parse_script(DECLS + "(assert (< (+ x y 1) (* z z)))", "b"),
    ]
    path = tmp_path / "instances.jsonl"
    write_instances_jsonl(insts, path)
    assert read_instances_jsonl(path) == insts



def test_read_instances_jsonl_names_the_bad_record(tmp_path):
    good = parse_script(DECLS + "(assert (> (* x x) y))(assert (> z 0))", "a")
    bad = {"id": "o", "polys": [[["1", "1", [2**21, 0, 1]]]],
           "varmap": {"x": "x1", "y": "x2", "z": "x3"}}
    path = tmp_path / "instances.jsonl"
    write_instances_jsonl([good], path)
    with open(path, "a") as fh:
        fh.write("\n" + json.dumps(bad) + "\n")
    with pytest.raises(IngestError) as info:
        read_instances_jsonl(path)
    message = str(info.value)
    assert message.startswith(f"{path} line 3 (id 'o'): ")
    assert message.endswith("exponent 2097152 outside 0..2097151")
    path.write_text("{not json\n")
    with pytest.raises(IngestError, match="line 1 \\(id None\\)"):
        read_instances_jsonl(path)


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "a", "varmap": {}}, "missing key 'polys'"),
        ({"id": "a", "polys": 5, "varmap": {}}, "'polys' is not an array"),
        ({"id": "a", "polys": [5], "varmap": {}}, "polynomial 5 is not a list of terms"),
        ({"id": "a", "polys": [[["1", "1"]]], "varmap": {}}, "is not [numerator, denominator"),
        ({"id": "a", "polys": [[[1, "1", [1, 0, 0]]]], "varmap": {}},
         "numerator 1 is not an integer string"),
        ({"id": "a", "polys": [[["1.5", "1", [1, 0, 0]]]], "varmap": {}},
         "numerator '1.5' is not an integer string"),
        ({"id": "a", "polys": [[["1", "2", [1, 0, 0]]]], "varmap": {}},
         "denominator '2' is not \"1\""),
        ({"id": "a", "polys": [[["1", "1", [1, 0]]]], "varmap": {}},
         "exponents [1, 0] are not three integers"),
        ({"id": "a", "polys": [[["1", "1", [1.0, 0, 0]]]], "varmap": {}},
         "exponents [1.0, 0, 0] are not three integers"),
        ({"id": "a", "polys": [[["1", "1", [1, 1, 1]]]]}, "missing key 'varmap'"),
        ({"id": "a", "polys": [[["1", "1", [1, 1, 1]]]], "varmap": ["x"]},
         "'varmap' is not an object"),
        ({"id": "a", "polys": [[["1", "1", [1, 1, 1]]]], "varmap": {"v": "x"}},
         "varmap value 'x' is not x1, x2 or x3"),
        ({"id": "a", "polys": [[["1", "1", [1, 1, 1]]]], "varmap": {"p": "x1", "q": "x1"}},
         "varmap {'p': 'x1', 'q': 'x1'} does not name each of x1, x2 and x3 once"),
        ({"id": "a", "polys": [[["1", "1", [1, 1, 1]]]],
          "varmap": {"p": "x1", "q": "x2", "r": "x3", "s": "x3"}}, "x3 once"),
    ],
    ids=["no-polys", "polys-not-array", "poly-not-array", "short-term", "int-numerator",
         "decimal-numerator", "denominator-2", "two-exponents", "float-exponent", "no-varmap",
         "varmap-not-object", "varmap-value-x", "varmap-x1-twice", "varmap-x3-twice"],
)
def test_read_instances_jsonl_names_a_malformed_record(tmp_path, record, message):
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(IngestError) as info:
        read_instances_jsonl(path)
    assert str(info.value).startswith(f"{path} line 1 (id 'a'): ")
    assert message in str(info.value)
    # a data error for the command line, not an internal one
    assert main(["label", "--instances", str(path), "--out", str(tmp_path / "l.csv")]) == 2


def test_read_instances_jsonl_refuses_a_repeated_id(tmp_path):
    # a labels CSV written from such a file would hold the id twice, and
    # its reader refuses that
    first = parse_script(DECLS + "(assert (> (* x x) y))(assert (> z 0))", "a")
    second = parse_script(DECLS + "(assert (< (+ x y 1) (* z z)))", "a")
    path = tmp_path / "instances.jsonl"
    path.write_text(f"{json.dumps(instance_to_json(first))}\n\n"
                    f"{json.dumps(instance_to_json(second))}\n")
    with pytest.raises(IngestError) as info:
        read_instances_jsonl(path)
    assert str(info.value) == f"{path} line 3: id 'a' repeats line 1"
    out = tmp_path / "labels.csv"
    assert main(["label", "--instances", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\rb", 7])
def test_instance_ids_must_be_csv_fields(tmp_path, bad_id):
    with pytest.raises(IngestError, match="is not a string without commas or line breaks"):
        parse_script(DECLS + "(assert (> (* x x) (+ y z)))", bad_id)
    record = instance_to_json(parse_script(DECLS + "(assert (> (* x x) (+ y z)))", "a"))
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps({**record, "id": bad_id}) + "\n")
    with pytest.raises(IngestError) as info:
        read_instances_jsonl(path)
    assert f"line 1 (id {bad_id!r}): id {bad_id!r} is not a string" in str(info.value)


# -- directory ingestion --------------------------------------------------


def test_ingest_directory(tmp_path, caplog):
    (tmp_path / "b_good.smt2").write_text(DECLS + "(assert (> (* x x) (+ y z)))")
    (tmp_path / "a_good.smt2").write_text(DECLS + "(assert (> (+ x y) z))")
    (tmp_path / "c_bad.smt2").write_text("(declare-fun x () Real)(assert (> x 0))")
    (tmp_path / "d_dup.smt2").write_text(DECLS + "(assert (> (+ x y) z))")
    (tmp_path / "notes.txt").write_text("not an smt2 file")
    with caplog.at_level(logging.WARNING, logger="cadaug.ingest"):
        instances = ingest_directory(tmp_path)
    assert [i.id for i in instances] == ["a_good", "b_good"]
    assert any("c_bad" in rec.getMessage() for rec in caplog.records)
    without_dedup = ingest_directory(tmp_path, deduplicate=False)
    assert [i.id for i in without_dedup] == ["a_good", "b_good", "d_dup"]


def test_ingest_directory_skips_files_that_are_not_utf8(tmp_path, caplog):
    (tmp_path / "a_latin1.smt2").write_bytes(b"; caf\xe9\n" + DECLS.encode() + b"(assert (> x y))")
    (tmp_path / "b_good.smt2").write_text(DECLS + "(assert (> (+ x y) z))")
    with caplog.at_level(logging.WARNING, logger="cadaug.ingest"):
        instances = ingest_directory(tmp_path)
    assert [i.id for i in instances] == ["b_good"]
    messages = [rec.getMessage() for rec in caplog.records]
    assert len(messages) == 1 and messages[0].startswith("skipping a_latin1: 'utf-8' codec")


def test_ingest_directory_skips_entries_it_cannot_read(tmp_path, caplog):
    (tmp_path / "a_good.smt2").write_text(DECLS + "(assert (> (+ x y) z))")
    (tmp_path / "sub.smt2").mkdir()
    with caplog.at_level(logging.WARNING, logger="cadaug.ingest"):
        instances = ingest_directory(tmp_path)
    assert [i.id for i in instances] == ["a_good"]
    messages = [rec.getMessage() for rec in caplog.records]
    assert len(messages) == 1 and messages[0].startswith("skipping sub: ")


def test_ingest_directory_ids_are_relative_paths(tmp_path, caplog):
    for sub, body in (("a", "(+ x y)"), ("b", "(* x y)")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "p.smt2").write_text(DECLS + f"(assert (> {body} z))")
    (tmp_path / "b" / "bad.smt2").write_text("(declare-fun x () Real)(assert (> x 0))")
    (tmp_path / "top.smt2").write_text(DECLS + "(assert (> (* x x) (+ y z)))")
    with caplog.at_level(logging.WARNING, logger="cadaug.ingest"):
        instances = ingest_directory(tmp_path)
    assert [i.id for i in instances] == ["a/p", "b/p", "top"]
    assert any("b/bad" in rec.getMessage() for rec in caplog.records)


def test_ingest_directory_skips_deep_nesting(tmp_path, caplog):
    deep = "(+ x " * 3000 + "y" + ")" * 3000
    (tmp_path / "a_deep.smt2").write_text(DECLS + f"(assert (> {deep} z))")
    (tmp_path / "b_good.smt2").write_text(DECLS + "(assert (> (+ x y) z))")
    with caplog.at_level(logging.WARNING, logger="cadaug.ingest"):
        instances = ingest_directory(tmp_path)
    assert [i.id for i in instances] == ["b_good"]
    assert any("a_deep" in rec.getMessage() and "nested too deeply" in rec.getMessage()
               for rec in caplog.records)


def test_instance_invariants():
    with pytest.raises(IngestError):
        ProblemInstance("e", frozenset(), ())
    with pytest.raises(ConstantAtomError):
        make_instance("z", [Polynomial.zero(), x1 + x2 + x3])
    with pytest.raises(VariableCountError):
        make_instance("v", [x1 + x2])
