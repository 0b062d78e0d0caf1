"""Tests for the descriptor grammar, its filter, and the permutation action."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distinct_reference
import writer_reference
from feature_reference import evaluate_descriptor, permute_values
from cadaug import features, kernels
from cadaug.features import (
    Descriptor,
    FeatureSchema,
    all_shapes,
    featurize,
    featurize_exact,
    fit_distinct_filter,
    read_features_csv,
    write_features_csv,
)
from cadaug.poly import Polynomial, X1, X2, X3, VARIABLES
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import ALL_PERMUTATIONS, IDENTITY, Permutation

x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)


def make_instance(id_, polys):
    return ProblemInstance(id_, frozenset(polys), (("x", X1), ("y", X2), ("z", X3)))


def random_instance(rng, id_="r"):
    while True:
        polys = []
        for _ in range(rng.randint(1, 4)):
            terms = []
            for _ in range(rng.randint(1, 5)):
                e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                terms.append((e, rng.randint(-6, 6)))
            p = Polynomial.from_terms(terms)
            if not p.is_zero():
                polys.append(p)
        covered = set()
        for p in polys:
            covered |= p.variables()
        if polys and covered == set(VARIABLES):
            return ProblemInstance(
                id_, frozenset(polys), (("x", X1), ("y", X2), ("z", X3))
            )


class FakeInstance:
    """Bare container for evaluate_descriptor tests that need polynomial
    sets outside the three-variable invariant."""

    def __init__(self, polys):
        self.sorted_polynomials = sorted(polys, key=lambda p: p.sort_key())


# -- grammar cardinality --------------------------------------------------


def test_shape_and_descriptor_counts():
    shapes = all_shapes()
    assert len(shapes) == 128
    assert len(set(shapes)) == 128
    schema = FeatureSchema.raw()
    assert len(schema) == 384
    descriptors = schema.descriptors()
    assert len(descriptors) == 384
    assert len({d.name for d in descriptors}) == 384
    # variable-major blocks: first 128 belong to x1, and so on
    assert all(d.variable == X1 for d in descriptors[:128])
    assert all(d.variable == X2 for d in descriptors[128:256])
    assert all(d.variable == X3 for d in descriptors[256:])


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Descriptor(X1, "cubed", "max", False, "sum", False)
    with pytest.raises(ValueError):
        Descriptor(X1, "degree", "median", False, "sum", False)


# -- worked examples ------------------------------------------------------

WORKED = make_instance("worked", [x2**2 - x2*x1, x3**3*x1 - x1**2 + 1])


def test_worked_example_three_halves():
    d = Descriptor(X1, "degree", "avg", False, "sum", False)
    # first polynomial: x1 degrees (0, 1), average 1/2
    # second polynomial: x1 degrees (1, 2, 0), average 1 (constant counts)
    assert evaluate_descriptor(WORKED, d) == Fraction(3, 2)


def test_worked_example_one():
    d = Descriptor(X2, "degree", "sum", True, "sum", False)
    # x2 degree sums per polynomial are 3 and 0; signs 1 and 0; total 1
    assert evaluate_descriptor(WORKED, d) == 1


def test_absent_variable_gives_zero():
    inst = FakeInstance([x3**3 - 1])
    d = Descriptor(X1, "degree", "sum", False, "sum", False)
    assert evaluate_descriptor(inst, d) == 0
    d = Descriptor(X1, "gated_degree", "avg_nonzero", False, "avg", False)
    assert evaluate_descriptor(inst, d) == 0


def test_gated_degree_base():
    inst = FakeInstance([x1**2*x2 + x3])
    # monomials: x1^2*x2 (total degree 3, contains x1), x3 (no x1)
    d = Descriptor(X1, "gated_degree", "sum", False, "sum", False)
    assert evaluate_descriptor(inst, d) == 3
    d = Descriptor(X1, "gated_degree", "avg", False, "sum", False)
    assert evaluate_descriptor(inst, d) == Fraction(3, 2)
    d = Descriptor(X1, "gated_degree", "avg_nonzero", False, "sum", False)
    assert evaluate_descriptor(inst, d) == 3


def test_featurize_matches_descriptor_loop():
    rng = random.Random(3)
    # a schema file may list any subset of the shapes, in any order
    subset = FeatureSchema(tuple(reversed(all_shapes()[::5])))
    for schema in (FeatureSchema.raw(), subset):
        for _ in range(3):
            inst = random_instance(rng)
            batched = featurize_exact(inst, schema)
            direct = [evaluate_descriptor(inst, d) for d in schema.descriptors()]
            assert batched == direct


def test_featurize_float_vector():
    fv = featurize(WORKED)
    assert len(fv) == 384
    exact = featurize_exact(WORKED)
    assert fv == [float(v) for v in exact]
    assert all(type(v) is float for v in fv)


@st.composite
def polynomial_lists(draw):
    """Polynomials with exponents up to 2^21 - 1, or small ones; often one
    monomial; some variables absent from every polynomial; up to 20 of
    them."""
    exponent = st.integers(0, kernels.EXP_MASK if draw(st.booleans()) else 3)
    absent = draw(st.sets(st.integers(0, 2), max_size=2))
    polys = []
    for _ in range(draw(st.integers(1, 20))):
        monomials = draw(st.lists(st.tuples(exponent, exponent, exponent), min_size=1, max_size=5))
        polys.append(Polynomial.from_terms(
            (tuple(0 if i in absent else e for i, e in enumerate(m)), 1) for m in monomials
        ))
    return polys


@settings(max_examples=60, deadline=None)
@given(polynomial_lists())
def test_featurize_is_the_correctly_rounded_descriptor_value(polys):
    inst = FakeInstance(polys)
    schema = FeatureSchema.raw()
    assert [a.dtype for a in features._feature_pairs(inst, schema)] == [np.int64] * 2
    exact = [evaluate_descriptor(inst, d) for d in schema.descriptors()]
    assert [v.hex() for v in featurize(inst, schema)] == [float(v).hex() for v in exact]
    assert featurize_exact(inst, schema) == exact


def test_featurize_falls_back_to_the_descriptor_loop(monkeypatch):
    rng = random.Random(5)
    instances = [WORKED] + [random_instance(rng, f"g{k}") for k in range(4)]
    subset = FeatureSchema(tuple(reversed(all_shapes()[::3])))
    expected = [
        (featurize(inst, schema), featurize_exact(inst, schema))
        for inst in instances
        for schema in (FeatureSchema.raw(), subset)
    ]
    monkeypatch.setattr(features, "_EXACT_BOUND", 1)
    for inst in instances:
        assert [a.dtype for a in features._feature_pairs(inst, subset)] == [object] * 2
    assert [
        (featurize(inst, schema), featurize_exact(inst, schema))
        for inst in instances
        for schema in (FeatureSchema.raw(), subset)
    ] == expected


def test_featurize_beyond_the_packed_exponent_field():
    # x3^(2^21) carries out of the 63 bits of packed keys, which Python
    # ints still unpack exactly
    inst = FakeInstance([x3 ** (1 << 21) * x1 + x2, x1 - 1])
    schema = FeatureSchema.raw()
    assert [a.dtype for a in features._feature_pairs(inst, schema)] == [object] * 2
    exact = [evaluate_descriptor(inst, d) for d in schema.descriptors()]
    assert [v.hex() for v in featurize(inst, schema)] == [float(v).hex() for v in exact]
    assert featurize_exact(inst, schema) == exact


# ten distinct monomial counts among these primes have an lcm of at
# least 2*3*5*...*29 > 2^32
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def past_the_bound(draw):
    """Ten polynomials with distinct prime monomial counts and one
    monomial of degree at least 2^13, which take the features past 2^53;
    sometimes with an x3 exponent past its packed field."""
    exponent = st.integers(0, kernels.EXP_MASK if draw(st.booleans()) else 7)
    polys = []
    for count in draw(st.sets(st.sampled_from(PRIMES), min_size=10, max_size=10)):
        monomials = draw(st.lists(
            st.tuples(exponent, exponent, exponent), min_size=count, max_size=count, unique=True
        ))
        polys.append(Polynomial.from_terms((m, 1) for m in monomials))
    top = x1 ** draw(st.integers(1 << 13, kernels.EXP_MASK))
    if draw(st.booleans()):
        top = top * x3 ** draw(st.integers(1 << 21, 1 << 22))
    return polys + [top]


@settings(max_examples=10, deadline=None)
@given(past_the_bound())
def test_featurize_past_the_bound_is_the_correctly_rounded_descriptor_value(polys):
    inst = FakeInstance(polys)
    schema = FeatureSchema.raw()
    assert [a.dtype for a in features._feature_pairs(inst, schema)] == [object] * 2
    exact = [evaluate_descriptor(inst, d) for d in schema.descriptors()]
    assert [v.hex() for v in featurize(inst, schema)] == [float(v).hex() for v in exact]
    assert featurize_exact(inst, schema) == exact


# both zeros, subnormal, small, large and inexact values, negatives, nan, inf
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -2.5, -7.0, float("nan"),
                  float("inf"), float("-inf")]


def special_matrix(rows, columns, seed=7):
    matrix = np.random.default_rng(seed).choice(SPECIAL_VALUES, size=(rows, columns))
    matrix[:2, 0] = [-0.0, 0.0]
    return matrix


def test_feature_csv_matches_the_per_value_writer(tmp_path):
    schema = FeatureSchema(all_shapes()[:2])
    matrix = special_matrix(30, len(schema))
    ids = [f"i{k}" for k in range(len(matrix))]
    labels = [k % 6 if k % 5 else None for k in range(len(matrix))]
    writer_reference.write_features_csv(tmp_path / "want.csv", ids, labels, matrix.tolist(), schema)
    want = (tmp_path / "want.csv").read_bytes()
    assert b"-0," in want and b",0," in want
    for given_matrix in (matrix, matrix.tolist()):
        write_features_csv(tmp_path / "got.csv", ids, labels, given_matrix, schema)
        assert (tmp_path / "got.csv").read_bytes() == want
    write_features_csv(tmp_path / "empty.csv", [], [], [], schema)
    writer_reference.write_features_csv(tmp_path / "want.csv", [], [], [], schema)
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_feature_csv_ragged_row_names_the_row(tmp_path):
    schema = FeatureSchema(all_shapes()[:1])
    rows = [[1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 2.0, 3.0]]
    with pytest.raises(ValueError, match=r"^b: row length 2 != 3$"):
        write_features_csv(tmp_path / "f.csv", ["a", "b", "c"], [0, 1, 2], rows, schema)


def test_feature_vector_requires_finite(tmp_path):
    schema = FeatureSchema(all_shapes()[:1])
    for bad in (float("inf"), float("nan")):
        path = tmp_path / "f.csv"
        write_features_csv(path, ["a", "b"], [0, 1], [[1.0, 2.0, 3.0], [1.0, bad, 3.0]], schema)
        with pytest.raises(ValueError, match="row for b: f001 is .*not a finite number"):
            read_features_csv(path)


def test_feature_csv_label_must_be_an_integer(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,label,f000\na,0,1.0\nb,x,2.0\n")
    with pytest.raises(ValueError, match="row for b: label is 'x', not an integer"):
        read_features_csv(path)


def test_feature_csv_value_must_be_a_number(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,label,f000,f001\na,0,1.0,2.0\nb,1,3.0,x\n")
    with pytest.raises(ValueError, match="row for b: f001 is 'x', not a number"):
        read_features_csv(path)


# -- permutation action and equivariance ----------------------------------


def test_permute_identity_and_inverse():
    schema = FeatureSchema.raw()
    fv = featurize(WORKED, schema)
    assert permute_values(fv, IDENTITY, schema) == fv
    for sigma in ALL_PERMUTATIONS:
        back = permute_values(permute_values(fv, sigma, schema), sigma.inverse(), schema)
        assert back == fv


def test_permute_length_mismatch():
    schema = FeatureSchema.raw()
    with pytest.raises(ValueError):
        permute_values([1.0, 2.0], Permutation.swap(1, 2), schema)


def test_equivariance_exact_raw_schema():
    rng = random.Random(11)
    schema = FeatureSchema.raw()
    for _ in range(8):
        inst = random_instance(rng)
        base = featurize_exact(inst, schema)
        for sigma in ALL_PERMUTATIONS:
            renamed = ProblemInstance(
                inst.id,
                frozenset(p.rename(sigma) for p in inst.polynomials),
                inst.variable_map,
            )
            lhs = featurize_exact(renamed, schema)
            rhs = permute_values(base, sigma, schema)
            assert lhs == rhs


def test_equivariance_exact_filtered_schema():
    rng = random.Random(12)
    instances = [random_instance(rng, f"i{k}") for k in range(40)]
    rows = [featurize_exact(i) for i in instances]
    filtered = fit_distinct_filter(rows)
    for inst in instances[:5]:
        base = featurize_exact(inst, filtered)
        for sigma in ALL_PERMUTATIONS:
            renamed = ProblemInstance(
                inst.id,
                frozenset(p.rename(sigma) for p in inst.polynomials),
                inst.variable_map,
            )
            assert featurize_exact(renamed, filtered) == permute_values(base, sigma, filtered)


def test_polynomial_order_does_not_matter():
    polys = [x1**2 - x2, x3 - 1, x1*x2*x3 + 2]
    a = make_instance("s", polys)
    b = make_instance("s", list(reversed(polys)))
    assert featurize_exact(a) == featurize_exact(b)


# -- distinct filter ------------------------------------------------------


def test_filter_drops_duplicated_shape():
    rng = random.Random(21)
    # max over polynomials of the max degree: varies across random instances
    shape = ("degree", "max", False, "max", False)
    schema = FeatureSchema((shape, shape))
    rows = [featurize_exact(random_instance(rng, f"i{k}"), schema) for k in range(20)]
    filtered = fit_distinct_filter(rows, schema)
    assert filtered.shapes == (shape,)


def test_filter_drops_sum_avg_pair_on_constant_monomial_count():
    # every polynomial has exactly two monomials, so sum = 2 * avg
    rng = random.Random(22)
    instances = []
    while len(instances) < 25:
        polys = []
        for _ in range(rng.randint(1, 3)):
            e1 = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            e2 = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            if e1 == e2:
                continue
            polys.append(Polynomial.from_terms([(e1, 1), (e2, rng.choice([-1, 1, 2]))]))
        covered = set()
        for p in polys:
            covered |= p.variables()
        if polys and covered == set(VARIABLES) and all(len(p.raw) == 2 for p in polys):
            instances.append(make_instance(f"c{len(instances)}", polys))
    rows = [featurize_exact(i) for i in instances]
    filtered = fit_distinct_filter(rows)
    sum_shape = ("degree", "sum", False, "sum", False)
    avg_shape = ("degree", "avg", False, "sum", False)
    assert not (sum_shape in filtered.shapes and avg_shape in filtered.shapes)


def test_filter_output_properties():
    rng = random.Random(23)
    instances = [random_instance(rng, f"i{k}") for k in range(60)]
    rows = [featurize_exact(i) for i in instances]
    filtered = fit_distinct_filter(rows)
    assert 0 < len(filtered) <= 384
    assert len(filtered) % 3 == 0
    assert len(filtered) == 3 * len(filtered.shapes)
    # canonical order is preserved
    order = {s: i for i, s in enumerate(all_shapes())}
    indices = [order[s] for s in filtered.shapes]
    assert indices == sorted(indices)
    # determinism
    again = fit_distinct_filter(rows)
    assert again == filtered


def test_filter_soundness_dropped_columns_reconstructible():
    rng = random.Random(24)
    instances = [random_instance(rng, f"i{k}") for k in range(50)]
    rows = [featurize_exact(i) for i in instances]
    filtered = fit_distinct_filter(rows)
    matrix = np.array([[float(v) for v in row] for row in rows])
    raw = FeatureSchema.raw()
    kept_set = set(filtered.shapes)
    kept_cols = [
        matrix[:, raw.position(v, i)]
        for i, s in enumerate(raw.shapes)
        if s in kept_set
        for v in VARIABLES
    ]
    design = np.column_stack(kept_cols + [np.ones(len(matrix))])
    for i, s in enumerate(raw.shapes):
        if s in kept_set:
            continue
        for v in VARIABLES:
            target = matrix[:, raw.position(v, i)]
            coef, *_ = np.linalg.lstsq(design, target, rcond=None)
            residual = target - design @ coef
            assert np.linalg.norm(residual) < 1e-6 * max(1.0, np.linalg.norm(target))


@pytest.mark.parametrize("n_rows, seed", [(20, 0), (45, 1), (80, 2), (200, 3), (200, 4)])
def test_filter_equals_per_vector_gram_schmidt(n_rows, seed):
    # 12 of the 40 shapes have every column an affine combination of
    # earlier shapes' columns, some of them constant; with fewer rows than
    # columns the rank runs out, and every later shape is dropped too
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(tuple(all_shapes()[:40]))
    matrix = rng.integers(-3, 4, size=(n_rows, len(schema))).astype(np.float64)
    planted = np.sort(rng.choice(np.arange(4, 40), size=12, replace=False))
    for shape_index in planted:
        for v in VARIABLES:
            sources = [
                schema.position(u, int(i))
                for u, i in zip(rng.choice(VARIABLES, size=3), rng.integers(0, shape_index, size=3))
            ]
            weights = rng.integers(-2, 3, size=3) * rng.integers(0, 2)  # zero: a constant
            matrix[:, schema.position(v, shape_index)] = (
                matrix[:, sources] @ weights + rng.integers(-5, 6)
            )
    kept = fit_distinct_filter(matrix, schema).shapes
    assert kept == distinct_reference.kept_shapes(matrix, schema)
    assert kept and not {schema.shapes[i] for i in planted} & set(kept)


def test_filter_requires_rows():
    with pytest.raises(ValueError):
        fit_distinct_filter([])
    with pytest.raises(ValueError):
        fit_distinct_filter([featurize_exact(WORKED)])


def test_filter_rejects_wrong_width():
    with pytest.raises(ValueError):
        fit_distinct_filter([[1.0, 2.0], [3.0, 4.0]])


# -- schema and CSV serialization -----------------------------------------


def test_schema_json_roundtrip(tmp_path):
    rng = random.Random(31)
    rows = [featurize_exact(random_instance(rng, f"i{k}")) for k in range(30)]
    filtered = fit_distinct_filter(rows)
    path = tmp_path / "schema.json"
    filtered.save(path)
    assert FeatureSchema.load(path) == filtered
    obj = filtered.to_json()
    assert obj["feature_count"] == len(filtered)
    assert len(obj["descriptors"]) == len(filtered)


def test_feature_csv_roundtrip(tmp_path):
    rng = random.Random(32)
    schema = FeatureSchema.raw()
    instances = [random_instance(rng, f"i{k}") for k in range(5)]
    matrix = [featurize(i, schema) for i in instances]
    ids = [i.id for i in instances]
    labels = [0, 3, None, 5, 2]
    path = tmp_path / "features.csv"
    write_features_csv(path, ids, labels, matrix, schema)
    header = path.read_text().splitlines()[0]
    assert header.startswith("id,label,f000,f001,")
    assert header.endswith("f383")
    got_ids, got_labels, got_matrix = read_features_csv(path)
    assert got_ids == ids
    assert got_labels == labels
    assert got_matrix.shape == (5, 384)
    assert np.array_equal(got_matrix, np.array([[float(v) for v in r] for r in matrix]))


def test_feature_csv_17_digit_precision(tmp_path):
    schema = FeatureSchema(all_shapes()[:1])
    path = tmp_path / "f.csv"
    value = 1.0 / 3.0
    write_features_csv(path, ["a"], [0], [[value, value, value]], schema)
    _, _, matrix = read_features_csv(path)
    assert matrix[0, 0] == value  # bit-exact through text
