"""Tests for SMT-LIB ingestion: parsing, canonicalization, dedup, JSONL."""

import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadaug.poly import Polynomial, X1, X2, X3
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

P = Polynomial.parse

DECLS = "(declare-fun x () Real)(declare-fun y () Real)(declare-fun z () Real)"


def test_basic_script():
    script = DECLS + "(assert (> (* x x) y))(assert (= (* z z z) 1))"
    inst = parse_script(script, "demo")
    assert inst.id == "demo"
    assert inst.polynomials == frozenset({P("x1^2 - x2"), P("x3^3 - 1")})
    assert inst.varmap_dict() == {"x": X1, "y": X2, "z": X3}


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
    assert "w" not in inst.varmap_dict()
    assert inst.varmap_dict() == {"x": X1, "y": X2, "z": X3}


def test_canonicalization_follows_declaration_order():
    script = (
        "(declare-fun a () Real)(declare-fun b () Real)(declare-fun c () Real)"
        "(assert (> (+ a b c) 0))"
    )
    assert parse_script(script).varmap_dict() == {"a": X1, "b": X2, "c": X3}
    script = (
        "(declare-fun z () Real)(declare-fun y () Real)(declare-fun x () Real)"
        "(assert (> (+ z y x) 0))"
    )
    inst = parse_script(script)
    assert inst.varmap_dict() == {"z": X1, "y": X2, "x": X3}
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
    assert P("x2 - x1") in inst.polynomials
    assert P("x3 - 1") in inst.polynomials


def test_atom_normalization_clears_denominators_only():
    # coefficients are multiplied through but common integer content stays
    script = DECLS + "(assert (> (* 2 x) (* 2 y)))(assert (> (/ z 2) 1))"
    inst = parse_script(script)
    assert P("2*x2 - 2*x1") in inst.polynomials
    assert P("x3 - 2") in inst.polynomials


def test_decimal_numerals_are_exact():
    script = DECLS + "(assert (> (+ x y) 1.25))(assert (> z 0.5))"
    inst = parse_script(script)
    # 4(x + y) - 5 after clearing 1.25 = 5/4
    assert P("4*x1 + 4*x2 - 5") in inst.polynomials
    assert P("2*x3 - 1") in inst.polynomials


def test_unary_minus_and_subtraction_chain():
    script = DECLS + "(assert (= (- x) (- y z 1)))"
    inst = parse_script(script)
    # -x - (y - z - 1) = -x - y + z + 1; leading coefficient (on x3) is
    # already positive, so no sign flip
    assert inst.polynomials == frozenset({P("x3 - x2 - x1 + 1")})


def test_chained_relation():
    script = DECLS + "(assert (< x y z))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset({P("x2 - x1"), P("x3 - x2")})


def test_distinct_pairs():
    script = DECLS + "(assert (distinct x y z))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset({P("x2 - x1"), P("x3 - x1"), P("x3 - x2")})


def test_boolean_structure_is_flattened():
    script = DECLS + "(assert (and (or (> x 1) (not (< y 2))) (=> (> z 3) (> x 4))))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset(
        {P("x1 - 1"), P("x2 - 2"), P("x3 - 3"), P("x1 - 4")}
    )


def test_term_level_let():
    script = DECLS + "(assert (> (let ((t (* x x))) (+ t y)) z))"
    inst = parse_script(script)
    assert inst.polynomials == frozenset({P("x1^2 + x2 - x3")})


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
    assert "w" not in inst.varmap_dict()


def test_let_bound_boolean_rejected():
    script = DECLS + "(assert (let ((b (> x 0))) (and b (> (+ y z) 0))))"
    with pytest.raises(UnsupportedConstructError):
        parse_script(script)


def test_division_by_constant_expression():
    script = DECLS + "(assert (> (/ x (+ 1 1)) (+ y z)))"
    inst = parse_script(script)
    # x/2 - y - z clears to x - 2y - 2z, then flips so the x3 term is positive
    assert inst.polynomials == frozenset({P("2*x3 + 2*x2 - x1")})


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
    assert P(f"x1^{2**20} + x2 + x3") in inst.polynomials
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
    assert inst.polynomials == frozenset({P("x1 + x2 + x3")})


def test_declare_const_supported():
    script = (
        "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
        "(assert (> (* x y) z))"
    )
    assert parse_script(script).polynomials == frozenset({P("x1*x2 - x3")})


def test_redeclaration_rejected():
    script = "(declare-fun x () Real)(declare-fun x () Real)"
    with pytest.raises(ParseError):
        parse_script(script + "(assert (> x 0))")


# -- dedup ----------------------------------------------------------------


def make_instance(id_, polys):
    return ProblemInstance(id_, frozenset(polys), (("x", X1), ("y", X2), ("z", X3)))


def test_dedup_identical_sets():
    a = make_instance("a", [P("x1 + x2 + x3")])
    b = make_instance("b", [P("x1 + x2 + x3")])
    c = make_instance("c", [P("x1*x2 - x3")])
    assert dedup_syntactic([a, b, c]) == [a, c]
    # the smaller id survives regardless of position
    assert dedup_syntactic([b, a, c]) == [a, c]


def test_dedup_keeps_role_variants():
    a = make_instance("a", [P("x1^2 - x2"), P("x3 - 1")])
    b = make_instance("b", [P("x2^2 - x1"), P("x3 - 1")])
    assert dedup_syntactic([a, b]) == [a, b]


def test_dedup_empty():
    assert dedup_syntactic([]) == []


# -- rendering and round trip ---------------------------------------------


def test_poly_to_smt_roundtrip():
    assert poly_to_smt(P("7")) == "7"
    assert poly_to_smt(Polynomial.zero()) == "0"
    for text in ["x1^2 - x2", "3*x1*x2*x3 + 1", "-2*x1 + 5", "1/2*x1^3 - 3/4*x2"]:
        p = P(text)
        full = (
            "(declare-fun x1 () Real)(declare-fun x2 () Real)(declare-fun x3 () Real)"
            f"(assert (> {poly_to_smt(p)} 0))(assert (> (* x1 x2 x3) 0))"
        )
        inst = parse_script(full)
        cleared = p.cleared_denominators().sign_normalized()
        assert cleared in inst.polynomials


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
        make_instance("z", [Polynomial.zero(), P("x1 + x2 + x3")])
    with pytest.raises(VariableCountError):
        make_instance("v", [P("x1 + x2")])
