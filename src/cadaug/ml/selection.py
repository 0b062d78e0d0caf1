"""Cross-validated hyperparameter selection and the trained-model wrapper."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..dataset import Dataset
from ..jsonfields import json_field, object_head, read_json
from ..seeding import derive_seed
from .forest import RandomForestClassifier
from .knn import KNNClassifier
from .scaling import Standardizer
from .tree import DecisionTreeClassifier, SharedGrowth

__all__ = [
    "MODEL_KINDS",
    "DEFAULT_GRIDS",
    "DegenerateDataError",
    "CVPlan",
    "CrossValidation",
    "TrainedModel",
    "train",
    "accuracy",
]

# each model kind's classifier, which declares its hyperparameter names
# (``parameters``, its constructor keywords other than ``seed``) and the one
# of them it can also predict for at any smaller value (``bounded``, see
# ``predict_bounded``); an unset hyperparameter takes the constructor default
CLASSIFIERS = {
    cls.kind: cls for cls in (KNNClassifier, DecisionTreeClassifier, RandomForestClassifier)
}

MODEL_KINDS = tuple(CLASSIFIERS)

DEFAULT_GRIDS: dict[str, list[dict[str, Any]]] = {
    "knn": [{"k": k} for k in (1, 3, 5, 11, 21)],
    "dt": [
        {"max_depth": depth, "min_leaf": leaf}
        for depth in (4, 8, 16, None)
        for leaf in (1, 5)
    ],
    "rf": [
        {"n_trees": 100, "max_depth": depth, "max_features": subset}
        for depth in (8, 16, None)
        for subset in ("sqrt", "third")
    ],
}


class DegenerateDataError(ValueError):
    """Training data cannot support model selection (too few rows/classes)."""


@dataclass(frozen=True)
class CVPlan:
    """A cross-validation plan: fold count, per-kind grids, master seed."""

    folds: int = 5
    grids: Mapping[str, Sequence[Mapping[str, Any]]] = field(
        default_factory=lambda: DEFAULT_GRIDS
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        for kind, grid in self.grids.items():
            if kind not in MODEL_KINDS:
                raise ValueError(f"grid for unknown model kind {kind!r}")
            if not isinstance(grid, (list, tuple)):
                raise ValueError(f"{kind} grid {grid!r} is not a list of grid points")
            if not grid:
                raise ValueError(f"empty hyperparameter grid for {kind!r}")
            for params in grid:
                if not isinstance(params, Mapping):
                    raise ValueError(f"{kind} grid point {params!r} is not an object")
                if kind == "knn" and "k" not in params:
                    raise ValueError("every knn grid point needs 'k'")
                expected = CLASSIFIERS[kind].parameters
                unknown = sorted(set(params) - set(expected))
                if unknown:
                    raise ValueError(
                        f"unknown {kind} hyperparameters {unknown}; "
                        f"expected some of {list(expected)}"
                    )
                try:
                    _make_classifier(kind, params, 0)
                except (TypeError, ValueError) as err:
                    raise ValueError(f"{kind} grid point {dict(params)}: {err}") from err


def _make_classifier(kind: str, params: Mapping[str, Any], seed: int):
    seeded = {"seed": seed} if kind == "rf" else {}
    return CLASSIFIERS[kind](**params, **seeded)


@dataclass
class TrainedModel:
    """A fitted classifier plus the record of how it was chosen."""

    kind: str
    hyperparameters: dict[str, Any]
    classifier: Any
    cv_results: list[dict[str, Any]]

    @property
    def stats(self) -> Standardizer | None:
        return getattr(self.classifier, "stats", None)

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.classifier.n_features:
            raise ValueError(
                f"expected {self.classifier.n_features} columns, "
                f"got shape {matrix.shape}"
            )
        return self.classifier.predict(matrix)

    def to_json(self) -> dict:
        return {**self._head(), "payload": self.classifier.to_payload()}

    def _head(self) -> dict:
        """The model file's fields other than ``payload``, in file order."""
        stats = self.stats
        return {
            "format": "cadaug-model",
            "version": 1,
            "kind": self.kind,
            "hyperparameters": self.hyperparameters,
            "stats": stats.to_json() if stats is not None else None,
            "cv": self.cv_results,
        }

    def save(self, path: str | Path) -> None:
        """Write ``json.dumps(self.to_json()) + "\\n"``, the payload in the
        pieces of the classifier's ``payload_text``: a forest one tree at
        a time, knn one row of ``X`` at a time."""
        with open(path, "w") as fh:
            fh.write(object_head(self._head(), "payload"))
            fh.writelines(self.classifier.payload_text())
            fh.write("}\n")

    @classmethod
    def from_json(cls, data: dict) -> "TrainedModel":
        header = (data.get("format"), data.get("version")) if isinstance(data, dict) else None
        if header != ("cadaug-model", 1):
            raise ValueError("not a version-1 cadaug model file")
        kind = json_field(data, "kind", str, "model file")
        payload = json_field(data, "payload", dict, "model file")
        hyperparameters = json_field(data, "hyperparameters", dict, "model file")
        cv = json_field(data, "cv", list, "model file")
        if kind not in CLASSIFIERS:
            raise ValueError(f"unknown model kind: {kind!r}")
        try:
            if kind == "knn":
                stats = Standardizer.from_json(json_field(data, "stats", dict, "model file"))
                classifier: Any = KNNClassifier.from_payload(payload, stats)
            else:
                classifier = CLASSIFIERS[kind].from_payload(payload)
        except KeyError as err:
            raise ValueError(f"model file: {kind} payload lacks key {err}") from None
        except TypeError as err:
            raise ValueError(f"model file: {kind} payload: {err}") from None
        return cls(kind, dict(hyperparameters), classifier, list(cv))

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        return cls.from_json(read_json(path, "model file"))


# stacked root rows that one tree growth may take: a grid group grows the
# trees of consecutive folds together while their roots stay within this,
# which bounds the memory that a growth and its fold models hold
_GROWTH_ROWS = 1 << 16


class CrossValidation:
    """The k-fold cross-validation of one ``train`` call.

    The rows of ``dataset`` are dealt into ``plan.folds`` folds by a
    generator on ``derive_seed(plan.seed, "cv-folds")``.  Grid points
    that differ only in the kind's bounded hyperparameter (the
    ``bounded`` attribute of its classifier) form a group, keyed by
    ``rest``, the repr of their other parameters, sorted.  On fold ``fi``,
    each group fits one model at its largest bound (an unbounded depth,
    ``None``, is the largest) on the rows outside the fold, with seed
    ``derive_seed(plan.seed, f"{kind}:{rest}:{fi}")``, which only rf uses.

    The fold models are planned in batches as ``predictions`` fits them
    (see ``_fold_models``), so one batch's trees are held at a time.
    ``growths`` plans every batch at once instead, so that their growths
    can start elsewhere (``SharedGrowth.start``) before the first fit;
    ``train(kind, cv)`` then trains on the planned CV.
    """

    def __init__(self, kind: str, dataset: Dataset, plan: CVPlan) -> None:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind: {kind!r}")
        X, y = dataset.X, dataset.y
        n = len(y)
        if n < plan.folds:
            raise DegenerateDataError(f"{n} rows cannot fill {plan.folds} folds")
        if np.unique(y).size < 2:
            raise DegenerateDataError("training data has fewer than two classes")
        self.grid = list(plan.grids[kind])
        order = np.random.default_rng(derive_seed(plan.seed, "cv-folds")).permutation(n)
        self.folds = np.array_split(order, plan.folds)
        bounded = CLASSIFIERS[kind].bounded
        self._points: list[tuple[str, Any]] = []
        groups: dict[str, tuple[dict[str, Any], list[Any]]] = {}
        for params in self.grid:
            others = {name: value for name, value in params.items() if name != bounded}
            rest = repr(tuple(sorted(others.items())))
            bound = params.get(bounded)
            bounds = groups.setdefault(rest, (others, []))[1]
            if bound not in bounds:
                bounds.append(bound)
            self._points.append((rest, bound))
        self._fit_rows = []
        for fold in self.folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            self._fit_rows.append(np.flatnonzero(mask))
        self.kind, self.dataset, self.plan = kind, dataset, plan
        self._batches = (
            (rest, bounds, batch)
            for rest, (others, bounds) in groups.items()
            for batch in _fold_models(
                kind,
                {**others, bounded: None if None in bounds else max(bounds)},
                rest,
                plan.seed,
                X,
                y,
                self._fit_rows,
            )
        )

    def growths(self) -> list[SharedGrowth]:
        """Plan every batch of fold models now; their growths, in the
        order ``predictions`` asks for their trees."""
        batches = deque(self._batches)
        self._batches = _drain(batches)
        return [growth for _, _, (growth, _) in batches if growth is not None]

    def predictions(self) -> list[list[np.ndarray]]:
        """Test predictions of every grid point on every fold.

        Each group's fold models are fitted through their own ``fit``,
        and ``predict_bounded`` scores every bound of the group on the
        fold from that model alone: knn votes over a prefix of one
        neighbour order, and trees are cut at each depth, a cut node
        predicting the majority recorded when it was grown.  That equals
        fitting each point alone with the same seed.  A batch's growth is
        released once its folds are predicted.
        """
        X, y, fit_rows = self.dataset.X, self.dataset.y, self._fit_rows
        predictions: dict[tuple[str, Any, int], np.ndarray] = {}
        for rest, bounds, (_, batch) in self._batches:
            for fi, model, hook in batch:
                model.fit(X[fit_rows[fi]], y[fit_rows[fi]], **hook)
                for bound, predicted in zip(bounds, model.predict_bounded(X[self.folds[fi]], bounds)):
                    predictions[rest, bound, fi] = predicted
        n_folds = len(self.folds)
        return [[predictions[rest, bound, fi] for fi in range(n_folds)] for rest, bound in self._points]


def _drain(queue: deque) -> Iterator:
    """The items of ``queue``, each removed as it is yielded."""
    while queue:
        yield queue.popleft()


def _fold_models(
    kind: str,
    params: dict[str, Any],
    rest: str,
    seed: int,
    X: np.ndarray,
    y: np.ndarray,
    fit_rows: list[np.ndarray],
) -> Iterator[tuple[SharedGrowth | None, list[tuple[int, Any, dict[str, Any]]]]]:
    """Each fold's unfitted model of one grid group, with the keywords
    its ``fit`` takes, in batches, each with the growth its trees share
    (None for knn, which grows no trees).

    A dt or rf batch takes consecutive folds whose trees grow with one
    ``tree.grow`` call (``SharedGrowth``), on roots that index ``X``
    itself, while their root rows together stay within ``_GROWTH_ROWS``:
    a batch is yielded when the next fold's roots, drawn already, would
    overflow it.  A split depends only on the rows in its node, so each
    tree equals the tree its model grows alone.  A knn batch is one fold.
    """
    batch: list[tuple[int, Any, dict[str, Any]]] = []
    growth, batch_rows = SharedGrowth(X, y), 0
    for fi, rows in enumerate(fit_rows):
        model = _make_classifier(kind, params, derive_seed(seed, f"{kind}:{rest}:{fi}"))
        if not hasattr(model, "growth"):  # knn grows no trees
            yield None, [(fi, model, {})]
            continue
        trees = model.growth(rows, X.shape[1])
        if batch and batch_rows + trees.root_rows > _GROWTH_ROWS:
            yield growth, batch
            batch, growth, batch_rows = [], SharedGrowth(X, y), 0
        batch.append((fi, model, {"grown": growth.add(trees)}))
        batch_rows += trees.root_rows
    if batch:
        yield growth, batch


def train(
    kind: str, dataset: Dataset | CrossValidation, plan: CVPlan | None = None
) -> TrainedModel:
    """Select hyperparameters by k-fold CV and refit on the full dataset.

    The grid point with the best mean fold accuracy wins; ties go to the
    earliest point in grid order.  On each fold, the grid points of a
    kind that differ only in ``k`` (knn) or ``max_depth`` (dt, rf) share
    one fit at their largest value, and every value is scored from it:
    the trees are cut at each depth, and knn votes over a prefix of one
    neighbour order, and the trees of a group's folds are grown together
    (see ``CrossValidation``).  The results equal fitting each point
    on its own.  The winner is refitted on all rows,
    an rf winner with seed ``derive_seed(plan.seed, "rf:final")``.

    ``train(kind, cv)`` takes a ``CrossValidation`` of ``kind`` planned
    ahead, so that its growths could start elsewhere, in place of
    ``train(kind, cv.dataset, cv.plan)``, which plans it here and grows
    its trees in this process.
    """
    if not isinstance(dataset, CrossValidation):
        cv = CrossValidation(kind, dataset, plan)
    elif dataset.kind != kind or plan is not None:
        raise ValueError(f"train({kind!r}, cv) takes a {kind} cross-validation and no plan")
    else:
        cv = dataset
    X, y = cv.dataset.X, cv.dataset.y
    fold_accuracies = [
        [float((predicted == y[fold]).mean()) for predicted, fold in zip(point, cv.folds)]
        for point in cv.predictions()
    ]
    results: list[dict[str, Any]] = []
    best_index = 0
    best_mean = -1.0
    for gi, (params, accuracies) in enumerate(zip(cv.grid, fold_accuracies)):
        mean = sum(accuracies) / len(accuracies)
        results.append(
            {
                "params": dict(params),
                "fold_accuracies": accuracies,
                "mean_accuracy": mean,
            }
        )
        if mean > best_mean:
            best_mean = mean
            best_index = gi
    winner = dict(cv.grid[best_index])
    final = _make_classifier(kind, winner, derive_seed(cv.plan.seed, f"{kind}:final"))
    final.fit(X, y)
    return TrainedModel(kind, winner, final, results)


def accuracy(model: Any, dataset: Dataset) -> float:
    """Fraction of dataset rows the model (anything with ``predict``,
    a ``TrainedModel`` or a fitted ``RandomBaseline``) labels correctly."""
    if len(dataset) == 0:
        raise ValueError("cannot score an empty dataset")
    return float((model.predict(dataset.X) == dataset.y).mean())
