"""Acceptance suite: nine go/no-go checks on the assembled system.

Each test covers one acceptance criterion and prints exactly one verdict
line (``criterion N (<name>): PASS`` or ``... FAIL``) outside pytest's
capture, so the verdicts are visible in any test log.  Numeric tolerances
are pinned next to the assertions they govern; everything without a
stated tolerance is an exact comparison.

The experiment check (criterion 7) runs the full pipeline once on a
450-instance synthetic corpus with frozen seeds; it is the slow test in
this file (8.7–9.5 s on a 2-vCPU host with its trees grown on two worker
processes, 14.9–15.6 s in one process) and its fixture is module-scoped
so the run happens only once.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from feature_reference import evaluate_descriptor, permute_values
from cadaug.augment import augment_full, balance, permute_ordering_label
from cadaug.cli import EXIT_OK, main
from cadaug.dataset import Dataset
from cadaug.features import (
    Descriptor,
    FeatureSchema,
    all_shapes,
    featurize_exact,
    fit_distinct_filter,
)
from cadaug.labelling import (
    ORDERINGS,
    Ordering,
    TimingRecord,
    label_by_sotd,
    label_from_timings,
    projection_chain,
    sotd,
)
from cadaug.ml import CVPlan, accuracy, train
from cadaug.ml.baseline import RandomBaseline
from cadaug.pipeline import ExperimentConfig, run_pipeline
from cadaug.poly import Polynomial, VARIABLES, X1, X2, X3
from cadaug.resultants import discriminant, resultant
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import ALL_PERMUTATIONS, IDENTITY, Permutation
from cadaug.synth import synthesize_corpus

import random

x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)

# the skewed six-class profile (1019 rows) used by the bookkeeping checks
PROFILE = (406, 93, 135, 51, 202, 132)

TINY = FeatureSchema((("degree", "max", False, "max", False),))

SCHEMA_12 = FeatureSchema(tuple(all_shapes()[:4]))  # 12 columns


def _announce(number, name, status, capfd):
    with capfd.disabled():
        print(f"\ncriterion {number} ({name}): {status}", flush=True)


@contextmanager
def verdict(capfd, number, name):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        _announce(number, name, status, capfd)


def _info(capfd, message):
    with capfd.disabled():
        print(f"\n  {message}", flush=True)


def _varmap():
    return (("x", X1), ("y", X2), ("z", X3))


def _profile_dataset():
    labels = [cls for cls, count in enumerate(PROFILE) for _ in range(count)]
    ids = [f"p{i:04d}" for i in range(len(labels))]
    X = [(float(i), i / 2.0, i / 3.0) for i in range(len(labels))]
    return Dataset(ids, X, labels, TINY, "unbalanced", "all")


# -- criterion 1 ----------------------------------------------------------


def test_criterion_1_worked_descriptor_examples(capfd):
    with verdict(capfd, 1, "worked descriptor examples"):
        inst = ProblemInstance(
            "worked",
            frozenset({x2**2 - x2*x1, x3**3*x1 - x1**2 + 1}),
            _varmap(),
        )
        d_avg = Descriptor(X1, "degree", "avg", False, "sum", False)
        d_sign = Descriptor(X2, "degree", "sum", True, "sum", False)
        # exact rational values, no tolerance
        assert evaluate_descriptor(inst, d_avg) == Fraction(3, 2)
        assert evaluate_descriptor(inst, d_sign) == 1
        # speed: both evaluations within 1 ms (best of five after a warmup)
        evaluate_descriptor(inst, d_avg)
        evaluate_descriptor(inst, d_sign)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            evaluate_descriptor(inst, d_avg)
            evaluate_descriptor(inst, d_sign)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3


# -- criterion 2 ----------------------------------------------------------


def test_criterion_2_feature_grammar(capfd, tmp_path):
    with verdict(capfd, 2, "feature grammar"):
        schema = FeatureSchema.raw()
        # exactly 384 descriptors, all distinct by name
        assert len(schema) == 384
        assert len({d.name for d in schema.descriptors()}) == 384
        # the essentially-distinct filter keeps a data-dependent subset;
        # report it and require a nonempty multiple of three (the filter
        # closes over the three variable blocks) of at most 384
        instances = synthesize_corpus(tmp_path, 60, seed=5)
        rows = [featurize_exact(inst) for inst in instances]
        kept = len(fit_distinct_filter(rows))
        assert 0 < kept <= 384
        assert kept % 3 == 0
        _info(capfd, f"realized essentially-distinct descriptors: {kept} of 384")


# -- criterion 3 ----------------------------------------------------------


def _random_instance(rng, k):
    while True:
        polys = []
        for _ in range(rng.randint(1, 5)):
            terms = []
            for _ in range(rng.randint(1, 5)):
                e1 = rng.randint(0, 4)
                e2 = rng.randint(0, 4 - e1)
                e3 = rng.randint(0, 4 - e1 - e2)
                terms.append(((e1, e2, e3), rng.randint(-9, 9)))
            poly = Polynomial.from_terms(terms)
            if not poly.is_zero():
                polys.append(poly)
        covered = set()
        for poly in polys:
            covered |= poly.variables()
        if polys and covered == set(VARIABLES):
            return ProblemInstance(f"e{k:04d}", frozenset(polys), _varmap())


def test_criterion_3_feature_equivariance(capfd):
    with verdict(capfd, 3, "feature equivariance"):
        rng = random.Random(20240817)
        schema = FeatureSchema.raw()
        start = time.perf_counter()
        for k in range(500):
            inst = _random_instance(rng, k)
            base = featurize_exact(inst, schema)
            for sigma in ALL_PERMUTATIONS:
                renamed = ProblemInstance(
                    inst.id,
                    frozenset(p.rename(sigma) for p in inst.polynomials),
                    inst.variable_map,
                )
                # exact equality of rational feature values
                assert featurize_exact(renamed, schema) == permute_values(
                    base, sigma, schema
                )
        elapsed = time.perf_counter() - start
        # 500 instances x 6 permutations within 60 s
        assert elapsed < 60.0
        _info(capfd, f"500 instances x 6 permutations in {elapsed:.1f}s")


# -- criterion 4 ----------------------------------------------------------


def test_criterion_4_label_group_action(capfd):
    with verdict(capfd, 4, "label group action"):
        swap12 = Permutation.swap(1, 2)
        assert permute_ordering_label(2, swap12) == 0
        for label in range(6):
            assert permute_ordering_label(label, IDENTITY) == label
            orbit = {permute_ordering_label(label, s) for s in ALL_PERMUTATIONS}
            assert orbit == set(range(6))
        for a in ALL_PERMUTATIONS:
            for b in ALL_PERMUTATIONS:
                for label in range(6):
                    two_steps = permute_ordering_label(
                        permute_ordering_label(label, a), b
                    )
                    assert two_steps == permute_ordering_label(label, b.compose(a))


# -- criterion 5 ----------------------------------------------------------


def test_criterion_5_balancing_and_augmentation(capfd):
    with verdict(capfd, 5, "balancing and augmentation"):
        start = time.perf_counter()
        ds = _profile_dataset()
        assert ds.class_counts() == list(PROFILE)

        balanced = balance(ds, mode="exact", seed=0)
        counts = balanced.class_counts()
        # 1019 rows cannot split evenly; the gap must be at most one row
        assert sum(counts) == 1019
        assert sorted(counts) == [169, 170, 170, 170, 170, 170]

        augmented = augment_full(ds)
        assert len(augmented.ids) == 6114
        assert augmented.class_counts() == [1019] * 6
        assert len(set(augmented.ids)) == 6114
        elapsed = time.perf_counter() - start
        # both transforms on the 1019-row profile within 5 s
        assert elapsed < 5.0


# -- criterion 6 ----------------------------------------------------------


def test_criterion_6_labeller_semantics(capfd):
    with verdict(capfd, 6, "labeller semantics"):
        # timings: fastest ordering wins; exceeding the timeout disqualifies
        rec = TimingRecord("a", (3.0, 1.5, 2.0, 9.0, 30.0, 4.0))
        assert label_from_timings(rec) == Ordering(1)
        assert label_from_timings(TimingRecord("b", (None,) * 6)) is None
        over = TimingRecord("c", (61.0, 59.0, None, None, None, None))
        assert label_from_timings(over, timeout=60.0) == Ordering(1)

        # projection-based proxy: pinned chain cost and tie-break
        chain = projection_chain({x1**2 - x2}, ORDERINGS[0])
        assert sotd(chain) == 4
        assert label_by_sotd({x1 + x2 + x3}) == Ordering(0)

        # algebra underneath the projection operator
        assert resultant(x1**2 - 1, x1 - 1, X1).is_zero()
        assert discriminant(x1**2 + x2*x1 + x3, X1) == 4*x3 - x2**2


# -- criterion 7 ----------------------------------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """One full experiment on a frozen 450-instance corpus."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus = root / "corpus"
    synthesize_corpus(corpus, 450, seed=20240817)
    config = ExperimentConfig(
        input_dir=corpus,
        out_dir=root / "experiment",
        seed=42,
        balance_mode="exact",
    )
    start = time.perf_counter()
    matrix = run_pipeline(config)
    return matrix, time.perf_counter() - start


def test_criterion_7_augmentation_experiment(capfd, experiment):
    matrix, elapsed = experiment
    with verdict(capfd, 7, "augmentation experiment"):
        # full experiment within 600 s
        assert elapsed < 600.0
        cells = []
        for model in matrix.models:
            unb = matrix.cell(model, "unbalanced", "balanced")
            bal = matrix.cell(model, "balanced", "balanced")
            aug = matrix.cell(model, "augmented", "balanced")
            cells.append(f"{model} {unb:.3f}/{bal:.3f}/{aug:.3f}")
            # monotone chain on the balanced test set, slack 0.02 on the
            # two adjacent steps, strict improvement end to end
            assert aug >= bal - 0.02, model
            assert bal >= unb - 0.02, model
            assert aug > unb, model
            # every cell clearly above the 1/6 chance rate (floor 0.17)
            assert min(unb, bal, aug) > 0.17, model
        _info(
            capfd,
            f"run {elapsed:.1f}s; balanced-test accuracy unb/bal/aug: "
            + "; ".join(cells),
        )


# -- criterion 8 ----------------------------------------------------------


def _blobs(n_per_class, seed, sep=50.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, sep, size=(6, 12))
    X = np.vstack(
        [centers[c] + rng.normal(size=(n_per_class, 12)) for c in range(6)]
    )
    y = np.repeat(np.arange(6), n_per_class)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def test_criterion_8_model_sanity(capfd):
    with verdict(capfd, 8, "model sanity"):
        X, y = _blobs(100, seed=2)
        ids = [f"b{i:04d}" for i in range(len(y))]
        labels = [int(v) for v in y]
        train_ds = Dataset(
            ids[:480], X[:480], labels[:480], SCHEMA_12, "unbalanced", "train"
        )
        test_ds = Dataset(
            ids[480:], X[480:], labels[480:], SCHEMA_12, "unbalanced", "test"
        )
        for kind in ("knn", "dt", "rf"):
            model = train(kind, train_ds, CVPlan(seed=1))
            # well-separated clusters: holdout accuracy at least 0.9
            assert accuracy(model, test_ds) >= 0.9, kind

        # the random baseline sits at chance on class-balanced data,
        # tolerance 0.03 around 1/6 on 6114 rows
        balanced = augment_full(_profile_dataset())
        Xb = balanced.X
        yb = balanced.y
        baseline = RandomBaseline(seed=11).fit(Xb, yb)
        acc = float((baseline.predict(Xb) == yb).mean())
        assert abs(acc - 1 / 6) <= 0.03


# -- criterion 9 ----------------------------------------------------------


def test_criterion_9_deterministic_replay(capfd, tmp_path):
    with verdict(capfd, 9, "deterministic replay"):
        corpus = tmp_path / "corpus"
        synthesize_corpus(corpus, 60, seed=7)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "knn": [{"k": 3}],
                    "dt": [{"max_depth": 8, "min_leaf": 1}],
                    "rf": [{"n_trees": 10, "max_depth": 8}],
                }
            )
        )
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = [
                "run",
                "--input", str(corpus),
                "--out", str(out),
                "--seed", "13",
                "--cv-folds", "3",
                "--grid", str(grid_path),
            ]
            assert main(argv) == EXIT_OK
            outputs.append((out / "matrix.csv").read_bytes())
        # byte-identical result matrices across independent runs
        assert outputs[0] == outputs[1]
