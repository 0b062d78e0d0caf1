"""Tests for the descriptor grammar, its filter, and the permutation action."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cadaug.features import (
    AGGREGATIONS,
    BASES,
    Descriptor,
    FeatureSchema,
    all_shapes,
    evaluate_descriptor,
    featurize,
    featurize_exact,
    fit_distinct_filter,
    permute_values,
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
    schema = FeatureSchema.raw()
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
