"""Tests for ordering labels, timing records, and the sotd proxy oracle."""

import random

import pytest

from cadaug.labelling import (
    BudgetExceededError,
    MissingOrderingError,
    ORDERINGS,
    Ordering,
    ProjectionBudget,
    TimingRecord,
    label_by_sotd,
    label_from_timings,
    mccallum_projection,
    ordering_from_triple,
    projection_chain,
    read_labels_csv,
    read_timings_csv,
    sotd,
    sotd_scores,
    write_labels_csv,
    write_timings_csv,
)
from cadaug.poly import Polynomial, X1, X2, X3, VARIABLES
from cadaug.symmetry import ALL_PERMUTATIONS

P = Polynomial.parse


def sigma_image(ordering, sigma):
    """The ordering obtained by renaming this ordering's variables by sigma."""
    return ordering_from_triple([sigma.apply_index(v.index) for v in ordering.triple])


# -- ordering encoding ----------------------------------------------------


def test_ordering_table():
    expected = [
        (X1, X2, X3),
        (X1, X3, X2),
        (X2, X1, X3),
        (X2, X3, X1),
        (X3, X1, X2),
        (X3, X2, X1),
    ]
    assert [o.triple for o in ORDERINGS] == expected
    assert ORDERINGS[0].name == "x1 > x2 > x3"
    assert ORDERINGS[2].name == "x2 > x1 > x3"
    assert ORDERINGS[5].name == "x3 > x2 > x1"


def test_ordering_bijection():
    seen = {o.triple for o in ORDERINGS}
    assert len(seen) == 6
    for o in ORDERINGS:
        assert ordering_from_triple([v.index for v in o.triple]) == o


def test_ordering_validation():
    with pytest.raises(ValueError):
        Ordering(6)
    with pytest.raises(ValueError):
        Ordering(-1)


# -- timing labels --------------------------------------------------------


def test_label_from_timings_argmin():
    rec = TimingRecord("a", (1.2, None, 0.5, 3.0, 7.0, 9.0))
    assert label_from_timings(rec) == Ordering(2)


def test_label_from_timings_all_timeout():
    rec = TimingRecord("a", (None,) * 6)
    assert label_from_timings(rec) is None


def test_label_from_timings_tie_breaks_low():
    rec = TimingRecord("a", (0.5, 0.5, 1.0, 1.0, 1.0, 1.0))
    assert label_from_timings(rec) == Ordering(0)


def test_label_from_timings_threshold():
    rec = TimingRecord("a", (61.0, 59.0, None, None, None, None))
    assert label_from_timings(rec, timeout=60.0) == Ordering(1)
    assert label_from_timings(rec, timeout=30.0) is None


def test_timing_record_validation():
    with pytest.raises(MissingOrderingError):
        TimingRecord("a", (1.0, 2.0))
    with pytest.raises(ValueError):
        TimingRecord("a", (0.0, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_timings_csv_roundtrip(tmp_path):
    records = [
        TimingRecord("a", (1.5, None, 0.25, 3.0, 59.9, 60.1)),
        TimingRecord("b", (None,) * 6),
    ]
    path = tmp_path / "timings.csv"
    write_timings_csv(records, path)
    got = read_timings_csv(path)
    assert got == {"a": records[0], "b": records[1]}
    text = path.read_text()
    assert text.splitlines()[0] == "instance_id,ordering,seconds"
    assert "TIMEOUT" in text


def test_timings_csv_missing_ordering(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("instance_id,ordering,seconds\na,0,1.0\na,1,2.0\n")
    with pytest.raises(MissingOrderingError):
        read_timings_csv(path)


def test_timings_csv_duplicate(tmp_path):
    path = tmp_path / "bad.csv"
    rows = "".join(f"a,{i},1.0\n" for i in range(6))
    path.write_text("instance_id,ordering,seconds\n" + rows + "a,0,2.0\n")
    with pytest.raises(ValueError):
        read_timings_csv(path)


def test_timings_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,ord,sec\n")
    with pytest.raises(ValueError):
        read_timings_csv(path)



@pytest.mark.parametrize("seconds", ["nan", "inf", "-inf", "0", "-1.5"])
def test_timings_csv_rejects_non_finite_or_non_positive_seconds(tmp_path, seconds):
    # unchecked, nan for ordering 0 beat the 2.0 s of ordering 1
    path = tmp_path / "bad.csv"
    rows = "".join(f"a,{i},{i + 1}.0\n" for i in range(1, 6))
    path.write_text(f"instance_id,ordering,seconds\na,0,{seconds}\n" + rows)
    with pytest.raises(ValueError, match="line 2: seconds"):
        read_timings_csv(path)


@pytest.mark.parametrize("row, field", [("a,x,1.0", "ordering"), ("a,0,fast", "seconds")])
def test_timings_csv_names_the_line_of_an_unparsable_field(tmp_path, row, field):
    path = tmp_path / "bad.csv"
    path.write_text(f"instance_id,ordering,seconds\nb,0,1.0\n{row}\n")
    with pytest.raises(ValueError, match=f"line 3: .*{field}"):
        read_timings_csv(path)


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv([("a", 0), ("b", 5), ("c", 3)], path)
    assert path.read_text() == "instance_id,label\na,0\nb,5\nc,3\n"
    assert read_labels_csv(path) == {"a": 0, "b": 5, "c": 3}


@pytest.mark.parametrize("row", ["b,7", "b,-1", "b,x", "b", "b,1,2", "a,2"])
def test_labels_csv_rejects_bad_lines(tmp_path, row):
    path = tmp_path / "labels.csv"
    path.write_text(f"instance_id,label\na,1\n{row}\n")
    with pytest.raises(ValueError, match="line 3"):
        read_labels_csv(path)


def test_labels_csv_bad_header(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,label\na,1\n")
    with pytest.raises(ValueError):
        read_labels_csv(path)

# -- projection -----------------------------------------------------------


def test_projection_known_values():
    assert mccallum_projection({P("x1^2 - x2")}, X1) == {P("x2")}
    assert mccallum_projection({P("x3^3 - 1")}, X1) == {P("x3^3 - 1")}
    assert mccallum_projection({P("x1 - x2"), P("x1 + x2")}, X1) == {P("x2")}


def test_projection_drops_constants_and_normalizes():
    # coefficient -4x2^2 and discriminant -16x2^2 both normalize to x2^2;
    # the constant coefficient 1 is dropped
    out = mccallum_projection({P("x1^2 - 4*x2^2")}, X1)
    assert out == {P("x2^2")}


def test_projection_chain_levels():
    chain = projection_chain({P("x1^2 - x2")}, Ordering(0))
    assert chain[0] == {P("x1^2 - x2")}
    assert chain[1] == {P("x2")}
    assert chain[2] == set()


def test_projection_monotone_in_variables():
    rng = random.Random(17)
    for _ in range(10):
        polys = set()
        while len(polys) < 2:
            terms = [
                ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            ]
            p = Polynomial.from_terms(terms)
            if not p.is_constant():
                polys.add(p)
        for ordering in ORDERINGS:
            greatest, middle, least = ordering.triple
            chain = projection_chain(polys, ordering)
            for p in chain[1]:
                assert not p.contains(greatest)
            for p in chain[2]:
                assert not p.contains(greatest)
                assert not p.contains(middle)
                assert p.variables() <= {least}


def test_sotd_known_value():
    assert sotd([{P("x1^2 - x2")}, {P("x2")}]) == 4


def test_sotd_constants_only():
    assert sotd([set(), set()]) == 0
    assert sotd([{P("5")}]) == 0


def test_sotd_set_semantics():
    a = {P("x1*x2 - 1")}
    b = {P("x1*x2 - 1"), P("x1*x2 - 1")}  # same element, still one
    assert len(b) == 1
    assert sotd([a]) == sotd([b])


# -- the proxy labeller ---------------------------------------------------


def test_symmetric_instance_ties_to_zero():
    assert label_by_sotd({P("x1 + x2 + x3")}) == Ordering(0)


def test_budget_discard():
    tiny = ProjectionBudget(max_polys=0, max_total_degree=200)
    assert label_by_sotd({P("x1 + x2 + x3")}, tiny) is None
    assert sotd_scores({P("x1 + x2 + x3")}, tiny) == [None] * 6


def test_degree_budget():
    tiny = ProjectionBudget(max_polys=512, max_total_degree=2)
    with pytest.raises(BudgetExceededError):
        projection_chain({P("x1^3 - x2")}, Ordering(0), tiny)


def random_polyset(rng):
    polys = set()
    target = rng.randint(1, 3)
    while len(polys) < target:
        terms = [
            ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        ]
        p = Polynomial.from_terms(terms)
        if not p.is_constant():
            polys.add(p)
    return polys


def test_sotd_scores_equivariant():
    # sotd of P under o equals sotd of rename(P, sigma) under the
    # sigma-image of o, exactly, including the budget-failure pattern
    rng = random.Random(31)
    for _ in range(8):
        polys = random_polyset(rng)
        scores = sotd_scores(polys)
        for sigma in ALL_PERMUTATIONS:
            renamed = {p.rename(sigma) for p in polys}
            renamed_scores = sotd_scores(renamed)
            for o in ORDERINGS:
                assert renamed_scores[sigma_image(o, sigma).index] == scores[o.index]


def test_argmin_set_equivariance():
    rng = random.Random(32)
    for _ in range(8):
        polys = random_polyset(rng)
        scores = sotd_scores(polys)
        finite = [s for s in scores if s is not None]
        if not finite:
            continue
        best = min(finite)
        argmins = {o for o, s in zip(ORDERINGS, scores) if s == best}
        for sigma in ALL_PERMUTATIONS:
            renamed = {p.rename(sigma) for p in polys}
            renamed_scores = sotd_scores(renamed)
            renamed_argmins = {
                o for o, s in zip(ORDERINGS, renamed_scores) if s == best
            }
            assert renamed_argmins == {sigma_image(o, sigma) for o in argmins}


def test_unique_argmin_label_equivariance():
    rng = random.Random(33)
    checked = 0
    while checked < 5:
        polys = random_polyset(rng)
        scores = sotd_scores(polys)
        finite = [s for s in scores if s is not None]
        if not finite:
            continue
        best = min(finite)
        if sum(1 for s in scores if s == best) != 1:
            continue
        checked += 1
        label = label_by_sotd(polys)
        for sigma in ALL_PERMUTATIONS:
            renamed = {p.rename(sigma) for p in polys}
            assert label_by_sotd(renamed) == sigma_image(label, sigma)
