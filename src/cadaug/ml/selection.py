"""Cross-validated hyperparameter selection and the trained-model wrapper."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..dataset import Dataset
from ..seeding import derive_seed
from .forest import RandomForestClassifier
from .knn import KNNClassifier
from .scaling import Standardizer
from .tree import DecisionTreeClassifier

__all__ = [
    "MODEL_KINDS",
    "DEFAULT_GRIDS",
    "DegenerateDataError",
    "CVPlan",
    "TrainedModel",
    "train",
    "accuracy",
]

MODEL_KINDS = ("knn", "dt", "rf")

# the hyperparameters `_make_classifier` reads for each model kind
_PARAMETERS = {
    "knn": ("k",),
    "dt": ("max_depth", "min_leaf"),
    "rf": ("n_trees", "max_depth", "min_leaf", "max_features", "bootstrap"),
}

# per kind, the hyperparameter a fitted model can also predict for at any
# smaller value (``predict_bounded``)
_BOUNDED = {"knn": "k", "dt": "max_depth", "rf": "max_depth"}

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
            if not grid:
                raise ValueError(f"empty hyperparameter grid for {kind!r}")
            for params in grid:
                if not isinstance(params, Mapping):
                    raise ValueError(f"{kind} grid point {params!r} is not an object")
                if kind == "knn" and "k" not in params:
                    raise ValueError("every knn grid point needs 'k'")
                unknown = sorted(set(params) - set(_PARAMETERS[kind]))
                if unknown:
                    raise ValueError(
                        f"unknown {kind} hyperparameters {unknown}; "
                        f"expected some of {list(_PARAMETERS[kind])}"
                    )
                try:
                    _make_classifier(kind, params, 0)
                except (TypeError, ValueError) as err:
                    raise ValueError(f"{kind} grid point {dict(params)}: {err}") from err


def _make_classifier(kind: str, params: Mapping[str, Any], seed: int):
    if kind == "knn":
        return KNNClassifier(k=params["k"])
    if kind == "dt":
        return DecisionTreeClassifier(
            max_depth=params.get("max_depth"), min_leaf=params.get("min_leaf", 1)
        )
    if kind == "rf":
        return RandomForestClassifier(
            n_trees=params.get("n_trees", 100),
            max_depth=params.get("max_depth"),
            min_leaf=params.get("min_leaf", 1),
            max_features=params.get("max_features", "sqrt"),
            bootstrap=params.get("bootstrap", True),
            seed=seed,
        )
    raise ValueError(f"unknown model kind: {kind!r}")


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
        stats = self.stats
        return {
            "format": "cadaug-model",
            "version": 1,
            "kind": self.kind,
            "hyperparameters": self.hyperparameters,
            "stats": stats.to_json() if stats is not None else None,
            "cv": self.cv_results,
            "payload": self.classifier.to_payload(),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json()) + "\n")

    @classmethod
    def from_json(cls, data: dict) -> "TrainedModel":
        if data.get("format") != "cadaug-model" or data.get("version") != 1:
            raise ValueError("not a version-1 cadaug model file")
        kind = data["kind"]
        payload = data["payload"]
        if kind == "knn":
            stats = Standardizer.from_json(data["stats"])
            classifier: Any = KNNClassifier.from_payload(payload, stats)
        elif kind == "dt":
            classifier = DecisionTreeClassifier.from_payload(payload)
        elif kind == "rf":
            classifier = RandomForestClassifier.from_payload(payload)
        else:
            raise ValueError(f"unknown model kind: {kind!r}")
        return cls(kind, dict(data["hyperparameters"]), classifier, list(data["cv"]))

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        return cls.from_json(json.loads(Path(path).read_text()))


def _fold_predictions(
    kind: str,
    grid: Sequence[Mapping[str, Any]],
    X_fit: np.ndarray,
    y_fit: np.ndarray,
    X_test: np.ndarray,
    seed: int,
    fold: int,
) -> list[np.ndarray]:
    """Test predictions of every grid point on one fold, one fit per group.

    Grid points that differ only in the kind's bounded hyperparameter
    (``_BOUNDED``) form a group, keyed by ``rest``, the repr of their
    other parameters, sorted.  Each group fits one model at its largest
    bound (an unbounded depth, ``None``, is the largest) with seed
    ``derive_seed(seed, f"{kind}:{rest}:{fold}")``, which only rf uses,
    and ``predict_bounded`` scores every bound of the group from it.
    That equals fitting each point alone with the same seed.
    """
    bounded = _BOUNDED[kind]
    points = []
    groups: dict[str, tuple[dict[str, Any], list[Any]]] = {}
    for params in grid:
        others = {name: value for name, value in params.items() if name != bounded}
        rest = repr(tuple(sorted(others.items())))
        bound = params.get(bounded)
        bounds = groups.setdefault(rest, (others, []))[1]
        if bound not in bounds:
            bounds.append(bound)
        points.append((rest, bound))
    predictions: dict[tuple[str, Any], np.ndarray] = {}
    for rest, (others, bounds) in groups.items():
        largest = None if None in bounds else max(bounds)
        model = _make_classifier(
            kind, {**others, bounded: largest}, derive_seed(seed, f"{kind}:{rest}:{fold}")
        ).fit(X_fit, y_fit)
        for bound, predicted in zip(bounds, model.predict_bounded(X_fit, y_fit, X_test, bounds)):
            predictions[rest, bound] = predicted
    return [predictions[point] for point in points]


def train(kind: str, dataset: Dataset, plan: CVPlan) -> TrainedModel:
    """Select hyperparameters by k-fold CV and refit on the full dataset.

    The grid point with the best mean fold accuracy wins; ties go to the
    earliest point in grid order.  On each fold, the grid points of a
    kind that differ only in ``k`` (knn) or ``max_depth`` (dt, rf) share
    one fit at their largest value, and every value is scored from it:
    the trees are cut at each depth, and knn votes over a prefix of one
    neighbour order (see ``_fold_predictions``).  The results equal
    fitting each point on its own.  The winner is refitted on all rows,
    an rf winner with seed ``derive_seed(plan.seed, "rf:final")``.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    X = dataset.matrix()
    y = np.asarray(dataset.labels(), dtype=np.int64)
    n = len(y)
    if n < plan.folds:
        raise DegenerateDataError(f"{n} rows cannot fill {plan.folds} folds")
    if np.unique(y).size < 2:
        raise DegenerateDataError("training data has fewer than two classes")
    grid = list(plan.grids[kind])
    order = np.random.default_rng(derive_seed(plan.seed, "cv-folds")).permutation(n)
    folds = np.array_split(order, plan.folds)
    fold_accuracies: list[list[float]] = [[] for _ in grid]
    for fi, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        predictions = _fold_predictions(kind, grid, X[mask], y[mask], X[fold], plan.seed, fi)
        for accuracies, predicted in zip(fold_accuracies, predictions):
            accuracies.append(float((predicted == y[fold]).mean()))
    results: list[dict[str, Any]] = []
    best_index = 0
    best_mean = -1.0
    for gi, (params, accuracies) in enumerate(zip(grid, fold_accuracies)):
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
    winner = dict(grid[best_index])
    final = _make_classifier(kind, winner, derive_seed(plan.seed, f"{kind}:final"))
    final.fit(X, y)
    return TrainedModel(kind, winner, final, results)


def accuracy(model: Any, dataset: Dataset) -> float:
    """Fraction of dataset rows the model (anything with ``predict``,
    a ``TrainedModel`` or a fitted ``RandomBaseline``) labels correctly."""
    if len(dataset) == 0:
        raise ValueError("cannot score an empty dataset")
    predictions = model.predict(dataset.matrix())
    return float((predictions == np.asarray(dataset.labels())).mean())
