"""Ingestion of SMT-LIB 2 scripts (QF_NRA fragment) into ProblemInstance values.

A script is reduced to the set of polynomials appearing in its asserted
atoms: every atom ``lhs <rel> rhs`` contributes ``lhs - rhs`` with numeric
denominators multiplied through and the sign chosen so the leading
coefficient under the graded-lex order is positive.  Boolean structure is
discarded.  The three real variables are renamed x1, x2, x3 in order of
first declaration; the original names are kept in ``variable_map``.

Rationals occur only here: the term evaluator holds each term as an
integer polynomial p over a positive integer d, and an atom p / d becomes
p // gcd(d, content(p)), so every ``Polynomial`` has integer coefficients.

Supported term language: +, -, *, unary -, division with a constant
divisor, integer and decimal numerals, and term-level ``let``.  Anything
else (quantifiers, Boolean ``let`` values, transcendental functions,
push/pop, define-fun) raises UnsupportedConstructError rather than being
silently dropped, and a product whose degree in a variable does not fit a
packed exponent raises ExponentOverflowError rather than aliasing another
monomial.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

from cadaug import kernels
from cadaug.jsonfields import json_field
from cadaug.poly import Polynomial, Variable, VARIABLES

logger = logging.getLogger("cadaug.ingest")


# -- errors ---------------------------------------------------------------


class IngestError(Exception):
    """Base class for everything that can go wrong while ingesting a script."""


class ParseError(IngestError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class UnsupportedConstructError(ParseError):
    """The script uses a construct outside the supported QF_NRA fragment."""


class ExponentOverflowError(ParseError):
    """A product's degree in some variable exceeds what a packed exponent
    key holds (``kernels.EXP_MASK``); multiplying anyway would carry into
    the next variable's field and alias a different monomial."""


class VariableCountError(IngestError):
    """The script does not use exactly three real variables."""


class ConstantAtomError(IngestError):
    """An asserted atom reduced to a numeric constant."""


# -- tokenizer and reader -------------------------------------------------


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


Form = Union[Token, list]

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<lparen>\() | (?P<rparen>\)) |
    (?P<string>"(?:[^"]|"")*") |
    (?P<quoted>\|[^|]*\|) |
    (?P<atom>[^\s()";|]+)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Split a script into tokens; strings and |quoted symbols| may span
    lines, comments run to end of line."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        if ch == ";":
            end = text.find("\n", pos)
            pos = n if end == -1 else end
            continue
        m = _TOKEN_PATTERN.match(text, pos)
        if m is None:
            raise ParseError(f"cannot tokenize {ch!r}", line, pos - line_start + 1)
        tokens.append(Token(m.group(0), line, pos - line_start + 1))
        newlines = m.group(0).count("\n")
        if newlines:
            line += newlines
            line_start = pos + m.group(0).rfind("\n") + 1
        pos = m.end()
    return tokens


def read_forms(tokens: Sequence[Token]) -> list[Form]:
    forms: list[Form] = []
    stack: list[list] = []
    for tok in tokens:
        if tok.text == "(":
            stack.append([])
        elif tok.text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", tok.line, tok.col)
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        else:
            (stack[-1] if stack else forms).append(tok)
    if stack:
        raise ParseError("unbalanced '(': unclosed form at end of script")
    return forms


def _loc(form: Form) -> tuple[int | None, int | None]:
    while isinstance(form, list):
        if not form:
            return (None, None)
        form = form[0]
    return (form.line, form.col)


def _head(form: list) -> str:
    if not form or not isinstance(form[0], Token):
        line, col = _loc(form)
        raise ParseError("expected an operator", line, col)
    return form[0].text


# ASCII digits only: \d alone also matches other scripts' digits
_INT_RE = re.compile(r"-?\d+", re.ASCII)
_DEC_RE = re.compile(r"-?\d+\.\d+", re.ASCII)

RELATIONS = {"<", "<=", ">", ">=", "=", "distinct"}
LOGICAL = {"and", "or", "not", "=>", "xor"}
ARITH = {"+", "-", "*", "/"}
_IGNORED_COMMANDS = {
    "set-logic",
    "set-info",
    "set-option",
    "check-sat",
    "check-sat-assuming",
    "get-model",
    "get-info",
    "get-value",
    "get-assertions",
    "echo",
    "exit",
}


def _numeral(token: Token) -> tuple[int, int] | None:
    """(numerator, denominator) of an integer or decimal numeral, None for
    any other token."""
    if _INT_RE.fullmatch(token.text):
        return int(token.text), 1
    if _DEC_RE.fullmatch(token.text):
        whole, frac = token.text.split(".")
        return int(whole + frac), 10 ** len(frac)
    return None


# -- problem instances ----------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    """A canonicalized three-variable polynomial problem.

    ``variable_map`` lists (original name, canonical variable) pairs in
    declaration order.  An instance carries no label or timings: those
    are looked up by ``id`` in a timings or labels CSV.
    """

    id: str
    polynomials: frozenset[Polynomial]
    variable_map: tuple[tuple[str, Variable], ...]

    def __post_init__(self):
        # ids are written unquoted as the first field of CSV rows
        if not isinstance(self.id, str) or any(c in self.id for c in ",\n\r"):
            raise IngestError(f"id {self.id!r} is not a string without commas or line breaks")
        if not self.polynomials:
            raise IngestError(f"{self.id}: empty polynomial set")
        if any(p.is_zero() for p in self.polynomials):
            raise ConstantAtomError(f"{self.id}: zero polynomial in instance")
        present: set[Variable] = set()
        for p in self.polynomials:
            present |= p.variables()
        if present != set(VARIABLES):
            raise VariableCountError(
                f"{self.id}: polynomial set uses {len(present)} variables, need 3"
            )

    @property
    def sorted_polynomials(self) -> list[Polynomial]:
        """Polynomials in a deterministic canonical order."""
        return sorted(self.polynomials, key=lambda p: p.sort_key())


def normalize_atom(p: Polynomial) -> Polynomial:
    """Canonical form of an atom polynomial: positive leading coefficient."""
    return p.sign_normalized()


def canonicalize_variables(
    declared_in_order: Sequence[str], used_names: Iterable[str]
) -> dict[str, Variable]:
    """Assign x1, x2, x3 to the used variables in declaration order."""
    used = set(used_names)
    ordered = [name for name in declared_in_order if name in used]
    if len(ordered) != 3:
        raise VariableCountError(
            f"script uses {len(ordered)} real variables, need exactly 3"
        )
    return {name: VARIABLES[i] for i, name in enumerate(ordered)}


# -- the parser -----------------------------------------------------------


def parse_script(text: str, instance_id: str = "unnamed") -> ProblemInstance:
    """Parse one SMT-LIB 2 script into a canonical ProblemInstance."""
    forms = read_forms(tokenize(text))
    declared: list[str] = []
    asserts: list[Form] = []

    for form in forms:
        if not isinstance(form, list) or not form:
            line, col = _loc(form)
            raise ParseError("expected a command form", line, col)
        head = _head(form)
        if head in ("declare-fun", "declare-const"):
            declared.append(_parse_declaration(form, head, declared))
        elif head == "assert":
            if len(form) != 2:
                raise ParseError("assert takes one argument", *_loc(form))
            asserts.append(form[1])
        elif head in _IGNORED_COMMANDS:
            continue
        else:
            raise UnsupportedConstructError(f"unsupported command '{head}'", *_loc(form))

    declared_set = set(declared)
    used: dict[str, None] = {}
    atom_polys: list[Polynomial] = []
    # Both passes recurse once or more per nesting level; lazily bound let
    # chains can need several frames per level.  A term too deep for the
    # interpreter's stack rejects this one script, not the whole run.
    try:
        for formula in asserts:
            _scan_formula(formula, {}, declared_set, used)
        varmap = canonicalize_variables(declared, used)
        for formula in asserts:
            _eval_formula(formula, {}, varmap, atom_polys)
    except RecursionError:
        raise ParseError("terms nested too deeply to evaluate") from None

    normalized: list[Polynomial] = []
    for p in atom_polys:
        q = normalize_atom(p)
        if q.is_constant():
            raise ConstantAtomError(
                f"{instance_id}: atom reduces to the constant {q.constant_value()}"
            )
        normalized.append(q)

    ordered_map = tuple((name, varmap[name]) for name in declared if name in varmap)
    return ProblemInstance(instance_id, frozenset(normalized), ordered_map)


def _parse_declaration(form: list, head: str, declared: list[str]) -> str:
    if head == "declare-fun":
        if len(form) != 4:
            raise ParseError("declare-fun needs name, arguments, sort", *_loc(form))
        name_tok, args, sort = form[1], form[2], form[3]
        if not isinstance(args, list) or args:
            raise UnsupportedConstructError(
                "only arity-0 declarations are supported", *_loc(form)
            )
    else:  # declare-const
        if len(form) != 3:
            raise ParseError("declare-const needs name and sort", *_loc(form))
        name_tok, sort = form[1], form[2]
    if not isinstance(name_tok, Token):
        raise ParseError("declaration name must be a symbol", *_loc(form))
    if not (isinstance(sort, Token) and sort.text == "Real"):
        raise UnsupportedConstructError(
            f"only Real declarations are supported, got {sort.text if isinstance(sort, Token) else '(...)'}",
            *_loc(form),
        )
    name = name_tok.text
    if name in declared:
        raise ParseError(f"variable '{name}' declared twice", name_tok.line, name_tok.col)
    return name


def _parse_let_bindings(form: list) -> list[tuple[Token, Form]]:
    if len(form) != 3 or not isinstance(form[1], list):
        raise ParseError("malformed let", *_loc(form))
    bindings = []
    for binding in form[1]:
        if not (isinstance(binding, list) and len(binding) == 2 and isinstance(binding[0], Token)):
            raise ParseError("malformed let binding", *_loc(form))
        bindings.append((binding[0], binding[1]))
    return bindings


def _is_boolean_form(form: Form) -> bool:
    if isinstance(form, Token):
        return form.text in ("true", "false")
    return bool(form) and isinstance(form[0], Token) and form[0].text in (RELATIONS | LOGICAL)


# Pass 1: free-variable scan.  env maps let-bound names to the free-variable
# set of their value, so shadowed declarations are not counted as used.


def _scan_formula(form: Form, env: dict[str, set[str]], declared: set[str], used: dict[str, None]):
    if isinstance(form, Token):
        if form.text in ("true", "false"):
            return
        raise ParseError(f"expected a Boolean expression, got '{form.text}'", form.line, form.col)
    head = _head(form)
    if head in LOGICAL:
        if head == "not" and len(form) != 2:
            raise ParseError("not takes one argument", *_loc(form))
        for sub in form[1:]:
            _scan_formula(sub, env, declared, used)
    elif head in RELATIONS:
        if len(form) < 3:
            raise ParseError(f"relation '{head}' needs at least two arguments", *_loc(form))
        for term in form[1:]:
            for name in _scan_term(term, env, declared):
                used[name] = None
    elif head == "let":
        new_env = dict(env)
        for name_tok, value in _parse_let_bindings(form):
            if _is_boolean_form(value):
                raise UnsupportedConstructError(
                    "let-bound Boolean expressions are not supported",
                    name_tok.line,
                    name_tok.col,
                )
            new_env[name_tok.text] = _scan_term(value, env, declared)
        _scan_formula(form[2], new_env, declared, used)
    elif head in ("forall", "exists"):
        raise UnsupportedConstructError(f"quantifier '{head}' is not supported", *_loc(form))
    else:
        raise UnsupportedConstructError(f"unsupported operator '{head}'", *_loc(form))


def _scan_term(form: Form, env: dict[str, set[str]], declared: set[str]) -> set[str]:
    if isinstance(form, Token):
        if _numeral(form) is not None:
            return set()
        if form.text in env:
            return env[form.text]
        if form.text in declared:
            return {form.text}
        raise ParseError(f"unknown symbol '{form.text}'", form.line, form.col)
    head = _head(form)
    if head in ARITH:
        if len(form) < 2 or (head != "-" and len(form) < 3):
            raise ParseError(f"'{head}' needs more arguments", *_loc(form))
        out: set[str] = set()
        for sub in form[1:]:
            out |= _scan_term(sub, env, declared)
        return out
    if head == "let":
        new_env = dict(env)
        for name_tok, value in _parse_let_bindings(form):
            new_env[name_tok.text] = _scan_term(value, env, declared)
        return _scan_term(form[2], new_env, declared)
    raise UnsupportedConstructError(f"unsupported function '{head}'", *_loc(form))


# Pass 2: atom collection.  env maps let-bound names to lazily evaluated
# bindings so that dead bindings (never referenced, so their variables do
# not count as used) are never evaluated.  A term's value is a _Ratio
# (p, d): the integer polynomial p over the positive integer d.

_Ratio = tuple[Polynomial, int]


def _sum(a: _Ratio, b: _Ratio) -> _Ratio:
    (p, d), (q, e) = a, b
    if d == e:
        return p + q, d
    m = math.lcm(d, e)
    return p * (m // d) + q * (m // e), m


def _negated(a: _Ratio) -> _Ratio:
    return -a[0], a[1]


def _cleared(a: _Ratio) -> Polynomial:
    """The integer multiple of p / d by the lcm of its coefficients'
    denominators: p // gcd(d, content(p))."""
    p, d = a
    g = math.gcd(d, *p.raw.values())
    return p if g == 1 else Polynomial({k: c // g for k, c in p.raw.items()})


class _Binding:
    __slots__ = ("form", "env", "value")

    def __init__(self, form: Form, env: dict):
        self.form = form
        self.env = env
        self.value: _Ratio | None = None

    def get(self, varmap: dict[str, Variable]) -> _Ratio:
        if self.value is None:
            self.value = _eval_term(self.form, self.env, varmap)
        return self.value


def _eval_formula(form: Form, env: dict[str, _Binding], varmap: dict[str, Variable], out: list[Polynomial]):
    if isinstance(form, Token):
        return  # true / false, validated in pass 1
    head = _head(form)
    if head in LOGICAL:
        for sub in form[1:]:
            _eval_formula(sub, env, varmap, out)
    elif head in RELATIONS:
        args = [_eval_term(t, env, varmap) for t in form[1:]]
        if head == "distinct":
            pairs = [(i, j) for i in range(len(args)) for j in range(i + 1, len(args))]
        else:
            pairs = [(i, i + 1) for i in range(len(args) - 1)]
        for i, j in pairs:
            out.append(_cleared(_sum(args[i], _negated(args[j]))))
    elif head == "let":
        new_env = dict(env)
        for name_tok, value in _parse_let_bindings(form):
            new_env[name_tok.text] = _Binding(value, env)
        _eval_formula(form[2], new_env, varmap, out)


def _eval_term(form: Form, env: dict[str, _Binding], varmap: dict[str, Variable]) -> _Ratio:
    if isinstance(form, Token):
        value = _numeral(form)
        if value is not None:
            return Polynomial.constant(value[0]), value[1]
        if form.text in env:
            return env[form.text].get(varmap)
        return Polynomial.variable(varmap[form.text]), 1
    head = _head(form)
    args = form[1:]
    if head == "+":
        total = _eval_term(args[0], env, varmap)
        for a in args[1:]:
            total = _sum(total, _eval_term(a, env, varmap))
        return total
    if head == "*":
        total, d = _eval_term(args[0], env, varmap)
        for a in args[1:]:
            factor, e = _eval_term(a, env, varmap)
            for v in VARIABLES:
                degree = total.degree_in(v) + factor.degree_in(v)
                if degree > kernels.EXP_MASK:
                    raise ExponentOverflowError(
                        f"product has degree {degree} in {v}, above the limit {kernels.EXP_MASK}",
                        *_loc(a),
                    )
            total, d = total * factor, d * e
        return total, d
    if head == "-":
        first = _eval_term(args[0], env, varmap)
        if len(args) == 1:
            return _negated(first)
        for a in args[1:]:
            first = _sum(first, _negated(_eval_term(a, env, varmap)))
        return first
    if head == "/":
        total, d = _eval_term(args[0], env, varmap)
        for a in args[1:]:
            divisor, e = _eval_term(a, env, varmap)
            if not divisor.is_constant():
                raise UnsupportedConstructError(
                    "division requires a constant divisor", *_loc(a)
                )
            c = divisor.constant_value()
            if c == 0:
                raise UnsupportedConstructError("division by zero", *_loc(a))
            # (p / d) / (c / e) = (p * e * sign(c)) / (d * |c|)
            total, d = total * (e if c > 0 else -e), d * abs(c)
        return total, d
    if head == "let":
        new_env = dict(env)
        for name_tok, value in _parse_let_bindings(form):
            new_env[name_tok.text] = _Binding(value, env)
        return _eval_term(form[2], new_env, varmap)
    raise UnsupportedConstructError(f"unsupported function '{head}'", *_loc(form))


# -- deduplication --------------------------------------------------------


def dedup_syntactic(instances: list[ProblemInstance]) -> list[ProblemInstance]:
    """Among instances with identical polynomial sets, keep the one with the
    smallest id; output preserves input order."""
    survivors: dict[frozenset, ProblemInstance] = {}
    for inst in instances:
        prior = survivors.get(inst.polynomials)
        if prior is None or inst.id < prior.id:
            survivors[inst.polynomials] = inst
    keep = {id(survivors[key]) for key in survivors}
    return [inst for inst in instances if id(inst) in keep]


# -- script rendering (inverse of parse, used by the generator) -----------


def _coeff_to_smt(c: int) -> str:
    return str(c) if c >= 0 else f"(- {-c})"


def poly_to_smt(p: Polynomial) -> str:
    """Render a polynomial as an SMT-LIB term that parses back exactly."""
    if p.is_zero():
        return "0"
    rendered = []
    for exponents, coeff in p.terms():
        factors = []
        for i, e in enumerate(exponents, start=1):
            factors.extend([f"x{i}"] * e)
        if not factors:
            rendered.append(_coeff_to_smt(coeff))
        elif coeff == 1:
            rendered.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
        else:
            rendered.append("(* " + " ".join([_coeff_to_smt(coeff)] + factors) + ")")
    if len(rendered) == 1:
        return rendered[0]
    return "(+ " + " ".join(rendered) + ")"


def render_script(instance: ProblemInstance) -> str:
    """An SMT-LIB script whose parse has the same polynomial set."""
    lines = ["(set-logic QF_NRA)"]
    for v in VARIABLES:
        lines.append(f"(declare-fun {v.name} () Real)")
    for p in instance.sorted_polynomials:
        lines.append(f"(assert (> {poly_to_smt(p)} 0))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# -- JSONL dataset format -------------------------------------------------


# A record is {"id": ..., "polys": [[term, ...], ...], "varmap": {...}}: each
# term is [numerator, denominator, [e1, e2, e3]] with the coefficient as a
# decimal string over the denominator "1", and each varmap value names a
# canonical variable.


def instance_to_json(instance: ProblemInstance) -> dict:
    return {
        "id": instance.id,
        "polys": [
            [[str(coeff), "1", list(exponents)] for exponents, coeff in p.terms()]
            for p in instance.sorted_polynomials
        ],
        "varmap": {name: var.name for name, var in instance.variable_map},
    }


def _term_from_json(term) -> tuple[tuple[int, int, int], int]:
    if not (isinstance(term, list) and len(term) == 3):
        raise IngestError(f"term {term!r} is not [numerator, denominator, exponents]")
    num, den, exps = term
    if not (isinstance(num, str) and _INT_RE.fullmatch(num)):
        raise IngestError(f"numerator {num!r} is not an integer string")
    if den != "1":
        raise IngestError(f'denominator {den!r} is not "1": coefficients are integers')
    if not (isinstance(exps, list) and len(exps) == 3 and all(type(e) is int for e in exps)):
        raise IngestError(f"exponents {exps!r} are not three integers")
    return tuple(exps), int(num)


def instance_from_json(obj) -> ProblemInstance:
    """The instance of one record; a record of another shape raises
    IngestError or ValueError naming what is wrong."""
    polys = []
    for terms in json_field(obj, "polys", list, "instance record"):
        if not isinstance(terms, list):
            raise IngestError(f"polynomial {terms!r} is not a list of terms")
        polys.append(Polynomial.from_terms(map(_term_from_json, terms)))
    varmap = []
    names = json_field(obj, "varmap", dict, "instance record")
    for name, canonical in names.items():
        match = [v for v in VARIABLES if v.name == canonical]
        if not match:
            raise IngestError(f"varmap value {canonical!r} is not x1, x2 or x3")
        varmap.append((name, match[0]))
    if sorted(names.values()) != [v.name for v in VARIABLES]:
        raise IngestError(f"varmap {names!r} does not name each of x1, x2 and x3 once")
    return ProblemInstance(obj.get("id"), frozenset(polys), tuple(varmap))


def write_instances_jsonl(instances: Iterable[ProblemInstance], path: str | Path):
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_json(inst)) + "\n")


def read_instances_jsonl(path: str | Path) -> list[ProblemInstance]:
    """Read one instance per line; a bad record raises IngestError naming
    the path, the line number and the record's id, and so does an id
    that an earlier line already holds, naming both lines."""
    out = []
    lines: dict[str, int] = {}  # id -> the line that holds it
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record_id = None
            try:
                obj = json.loads(line)
                record_id = obj.get("id") if isinstance(obj, dict) else None
                out.append(instance_from_json(obj))
            except (IngestError, ValueError) as err:
                raise IngestError(f"{path} line {line_no} (id {record_id!r}): {err}") from err
            first = lines.setdefault(out[-1].id, line_no)
            if first != line_no:
                raise IngestError(f"{path} line {line_no}: id {out[-1].id!r} repeats line {first}")
    return out


# -- directory ingestion --------------------------------------------------


def ingest_directory(root: str | Path, deduplicate: bool = True) -> list[ProblemInstance]:
    """Parse every .smt2 file under root (lexicographic order), skipping and
    logging files the parser rejects, files that are not UTF-8 text and
    entries that cannot be read (a directory named ``*.smt2``, say).

    An instance's id is its path relative to root without the suffix, as a
    POSIX path: ``p`` for ``root/p.smt2``, ``a/p`` for ``root/a/p.smt2``.
    """
    root = Path(root)
    instances: list[ProblemInstance] = []
    for path in sorted(root.rglob("*.smt2"), key=lambda p: p.as_posix()):
        instance_id = path.relative_to(root).with_suffix("").as_posix()
        try:
            instances.append(parse_script(path.read_text(), instance_id))
        except (IngestError, UnicodeDecodeError, OSError) as err:
            logger.warning("skipping %s: %s", instance_id, err)
    if deduplicate:
        instances = dedup_syntactic(instances)
    return instances
