"""Tests for ordering labels, timing records, and the sotd proxy oracle."""

import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadaug import labelling
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
    projection_chain,
    read_labels_csv,
    read_timings_csv,
    sotd,
    sotd_scores,
    write_labels_csv,
    write_timings_csv,
)
from cadaug.poly import Polynomial, X1, X2, X3, VARIABLES
from cadaug.resultants import discriminant, resultant, total_degree_bound
from cadaug.smtlib import ingest_directory
from cadaug.symmetry import ALL_PERMUTATIONS, Permutation
from cadaug.synth import synthesize_corpus

x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)

# labels of the acceptance corpus (450 instances, seed 20240817) by
# label_by_sotd; see test_acceptance_corpus_labels_are_pinned
ACCEPTANCE_LABELS_SHA256 = "96198a52fbc311dbe545292ab61424eb2c24927fcb0defb774a5ea3a3cf5b036"


def ordering_of(indices):
    """The ordering whose variables, greatest first, have these indices."""
    return ORDERINGS[ALL_PERMUTATIONS.index(Permutation(tuple(indices)))]


def sigma_image(ordering, sigma):
    """The ordering obtained by renaming this ordering's variables by sigma."""
    return ordering_of(sigma.apply_index(v.index) for v in ordering.triple)


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
        assert ordering_of(v.index for v in o.triple) == o


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
    with pytest.raises(ValueError, match=re.escape(f"{path}: unexpected timings CSV header")):
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
    with pytest.raises(ValueError, match=re.escape(f"{path}: unexpected labels CSV header")):
        read_labels_csv(path)

# -- projection -----------------------------------------------------------


def test_projection_known_values():
    assert mccallum_projection({x1**2 - x2}, X1) == {x2}
    assert mccallum_projection({x3**3 - 1}, X1) == {x3**3 - 1}
    assert mccallum_projection({x1 - x2, x1 + x2}, X1) == {x2}


def test_projection_drops_constants_and_normalizes():
    # coefficient -4x2^2 and discriminant -16x2^2 both normalize to x2^2;
    # the constant coefficient 1 is dropped
    out = mccallum_projection({x1**2 - 4*x2**2}, X1)
    assert out == {x2**2}


def test_projection_chain_levels():
    chain = projection_chain({x1**2 - x2}, Ordering(0))
    assert chain[0] == {x1**2 - x2}
    assert chain[1] == {x2}
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
    assert sotd([{x1**2 - x2}, {x2}]) == 4


def test_sotd_constants_only():
    assert sotd([set(), set()]) == 0
    assert sotd([{Polynomial.constant(5)}]) == 0


def test_sotd_set_semantics():
    a = {x1*x2 - 1}
    b = {x1*x2 - 1, x1*x2 - 1}  # same element, still one
    assert len(b) == 1
    assert sotd([a]) == sotd([b])


# -- the proxy labeller ---------------------------------------------------


def test_symmetric_instance_ties_to_zero():
    assert label_by_sotd({x1 + x2 + x3}) == Ordering(0)


def test_budget_discard():
    tiny = ProjectionBudget(max_polys=0, max_total_degree=200)
    assert label_by_sotd({x1 + x2 + x3}, tiny) is None
    assert sotd_scores({x1 + x2 + x3}, tiny) == [None] * 6


def test_degree_budget():
    tiny = ProjectionBudget(max_polys=512, max_total_degree=2)
    with pytest.raises(BudgetExceededError):
        projection_chain({x1**3 - x2}, Ordering(0), tiny)


def test_projection_degree_bound_cap():
    # disc_x1(x1^3 - x2) = -27 x2^2 has total-degree bound 2*3 + 3*2 - 3*2 = 6
    p = x1**3 - x2
    assert mccallum_projection({p}, X1, ProjectionBudget(max_degree_bound=6)) == {x2, x2**2}
    with pytest.raises(BudgetExceededError):
        mccallum_projection({p}, X1, ProjectionBudget(max_degree_bound=5))


def test_sparse_high_degree_instance_is_discarded_before_packing(monkeypatch):
    # disc_v(x1^100 + x2^100 + x3^100) has total-degree bound 9900: packed,
    # it would take about 10^8 slots of 104 bytes.  Every ordering must be
    # abandoned before any resultant or discriminant over the cap starts.
    cap = ProjectionBudget().max_degree_bound
    bounds = []

    def bound(p, q, v):
        return total_degree_bound(p.degree_in(v), q.degree_in(v), p.total_degree, q.total_degree)

    def recording_resultant(p, q, v):
        bounds.append(bound(p, q, v))
        return resultant(p, q, v)

    def recording_discriminant(p, v):
        bounds.append(bound(p, p.derivative(v), v))
        return discriminant(p, v)

    monkeypatch.setattr(labelling, "resultant", recording_resultant)
    monkeypatch.setattr(labelling, "discriminant", recording_discriminant)
    polys = {x1**100 + x2**100 + x3**100, x1 + x2 + x3}
    assert sotd_scores(polys) == [None] * 6
    assert label_by_sotd(polys) is None
    assert all(b <= cap for b in bounds)


def test_sotd_scores_share_first_levels_and_match_each_chain(tmp_path, monkeypatch):
    # the first 20 instances of the acceptance corpus: each score is the
    # sotd of that ordering's own chain, or None where the chain overruns,
    # from three first projection levels and six second ones
    walks = []
    projection = labelling._projection

    def counting_projection(polys, v, budget):
        walks.append(polys)
        return projection(polys, v, budget)

    for inst in synthesize_corpus(tmp_path, 20, seed=20240817):
        monkeypatch.setattr(labelling, "_projection", counting_projection)
        walks.clear()
        scores = sotd_scores(inst)
        monkeypatch.undo()
        assert len(walks) <= 9
        try:
            labelling._check_budget(inst.polynomials, labelling.DEFAULT_BUDGET)
        except BudgetExceededError:
            assert walks == []
        else:
            # a first level walks the input set itself; a second level, a new set
            assert sum(polys is inst.polynomials for polys in walks) == 3
        for ordering in ORDERINGS:
            try:
                expect = sotd(projection_chain(inst, ordering))
            except BudgetExceededError:
                expect = None
            assert scores[ordering.index] == expect


def test_first_level_overrun_scores_none_for_its_two_orderings_only():
    # eliminating x1 first gives {x2, x3, x3^2 - x2}, one polynomial over
    # the cap of 2; every level of the other four chains holds at most two
    polys = {x1**2 - x2, x1 - x3}
    budget = ProjectionBudget(max_polys=2)
    scores = sotd_scores(polys, budget)
    assert scores[:2] == [None, None]
    for ordering in ORDERINGS[:2]:
        with pytest.raises(BudgetExceededError):
            projection_chain(polys, ordering, budget)
    for ordering in ORDERINGS[2:]:
        assert scores[ordering.index] == sotd(projection_chain(polys, ordering, budget))
        assert scores[ordering.index] is not None


def test_projection_does_not_depend_on_input_order():
    # a set, its sort_key order and the reverse of that give the same level
    rng = random.Random(41)
    for _ in range(12):
        polys = set()
        while len(polys) < 4:
            terms = [
                ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-5, 5))
                for _ in range(rng.randint(1, 4))
            ]
            p = Polynomial.from_terms(terms)
            if not p.is_constant():
                polys.add(p)
        ordered = sorted(polys, key=lambda p: p.sort_key())
        for v in VARIABLES:
            expect = mccallum_projection(polys, v)
            assert mccallum_projection(ordered, v) == expect
            assert mccallum_projection(ordered[::-1], v) == expect


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


# -- the branch-and-bound labeller ----------------------------------------

# the tight budget discards about a tenth of a synthetic corpus
TIGHT = ProjectionBudget(max_polys=12, max_total_degree=14, max_degree_bound=40)
BUDGETS = [labelling.DEFAULT_BUDGET, TIGHT]

terms = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4))
nonconstant = (
    st.lists(terms, min_size=1, max_size=4)
    .map(Polynomial.from_terms)
    .filter(lambda p: not p.is_constant())
)
poly_sets = st.lists(nonconstant, min_size=1, max_size=3).map(frozenset)
# a set joined with its image under a renaming scores the orderings that
# renaming swaps alike, so tied scores are common
symmetric_sets = st.builds(
    lambda polys, sigma: polys | {p.rename(sigma) for p in polys},
    poly_sets,
    st.sampled_from(ALL_PERMUTATIONS),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(poly_sets, symmetric_sets), st.sampled_from(BUDGETS))
@example(frozenset({x1 + x2 + x3}), labelling.DEFAULT_BUDGET)  # six tied scores
@example(frozenset({x1**2 - x2, x1 - x3}), ProjectionBudget(max_polys=2))  # two overrun
@example(frozenset({x1**100 + x2**100 + x3**100}), labelling.DEFAULT_BUDGET)  # all overrun
def test_label_by_sotd_is_the_lowest_score(polys, budget):
    assert label_by_sotd(polys, budget) == labelling._lowest(sotd_scores(polys, budget))


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("budget", BUDGETS, ids=["default", "tight"])
def test_label_by_sotd_is_the_lowest_score_on_a_corpus(tmp_path, seed, budget):
    for inst in synthesize_corpus(tmp_path, 60, seed=seed):
        assert label_by_sotd(inst, budget) == labelling._lowest(sotd_scores(inst, budget))


def test_label_by_sotd_abandons_orderings_that_cannot_win(tmp_path, monkeypatch):
    calls = {"resultant": 0, "discriminant": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    monkeypatch.setattr(labelling, "resultant", counted("resultant", resultant))
    monkeypatch.setattr(labelling, "discriminant", counted("discriminant", discriminant))
    instances = synthesize_corpus(tmp_path, 60, seed=1)
    made = {}
    for name, labeller in (("scores", sotd_scores), ("label", label_by_sotd)):
        for kind in calls:
            calls[kind] = 0
        for inst in instances:
            labeller(inst)
        made[name] = dict(calls)
    for kind in calls:
        assert 0 < made["label"][kind] < made["scores"][kind]


def test_acceptance_corpus_labels_are_pinned(tmp_path):
    # the 450 instances of the acceptance experiment, labelled directly:
    # sha256 of the sorted `id,label` lines, an empty label for a discard
    synthesize_corpus(tmp_path, 450, seed=20240817)
    lines = []
    for inst in ingest_directory(tmp_path):
        label = label_by_sotd(inst)
        lines.append(f"{inst.id},{'' if label is None else label.index}\n")
    digest = hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()
    assert digest == ACCEPTANCE_LABELS_SHA256
