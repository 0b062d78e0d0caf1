"""The result matrix (``matrix.json``) and its reports: markdown tables,
the flat accuracy CSV, dataset counts."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Optional

from .dataset import PROVENANCES
from .jsonfields import json_field, read_json

__all__ = [
    "IMPROVEMENTS", "ResultMatrix", "improvement_summary", "render_improvement",
    "render_matrix_csv", "render_report_md", "write_report",
]

_ACC = "{:.6f}"

# each improvement figure's key in ``ResultMatrix.improvements``, and the
# training set it compares with the unbalanced one
IMPROVEMENTS = {
    "balanced_vs_unbalanced_pct": "balanced",
    "augmented_vs_unbalanced_pct": "augmented",
}


@dataclass
class ResultMatrix:
    """Every accuracy cell plus the bookkeeping the report needs."""

    models: tuple[str, ...]
    accuracy: dict[tuple[str, str, str], float]  # (model, trained_on, tested_on)
    dataset_summary: dict[str, dict[str, Any]]  # dataset name -> rows/class counts
    baseline: dict[str, float]  # tested_on -> uniform-random accuracy
    feature_counts: dict[str, int]  # raw and essentially-distinct widths
    improvements: dict[str, Optional[float]]
    seed: int
    labeller: str

    def cell(self, model: str, trained_on: str, tested_on: str) -> float:
        return self.accuracy[(model, trained_on, tested_on)]

    def to_json(self) -> dict:
        return {
            "format": "cadaug-matrix",
            "version": 1,
            "models": list(self.models),
            "accuracy": [
                {"model": m, "trained_on": tr, "tested_on": te, "accuracy": acc}
                for (m, tr, te), acc in self.accuracy.items()
            ],
            "dataset_summary": self.dataset_summary,
            "baseline": self.baseline,
            "feature_counts": self.feature_counts,
            "improvements": self.improvements,
            "seed": self.seed,
            "labeller": self.labeller,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResultMatrix":
        header = (data.get("format"), data.get("version")) if isinstance(data, dict) else None
        if header != ("cadaug-matrix", 1):
            raise ValueError("not a version-1 cadaug matrix file")

        def get(key: str, kind: type) -> Any:
            return json_field(data, key, kind, "matrix file")

        cell = "matrix accuracy cell"
        accuracy = {
            tuple(json_field(c, key, str, cell) for key in ("model", "trained_on", "tested_on")):
                json_field(c, "accuracy", float, cell)
            for c in get("accuracy", list)
        }
        models = tuple(get("models", list))
        for key in product(models, PROVENANCES, PROVENANCES):
            # a cell's model is a string, and a list would not hash
            if not isinstance(key[0], str) or key not in accuracy:
                raise ValueError(f"matrix file: no accuracy cell {key}")
        if len(set(models)) < len(models):
            raise ValueError(f"matrix file: models {list(models)} list a kind twice")
        # every other key the report reads
        summary, baseline, counts, improvements = (
            get(key, dict)
            for key in ("dataset_summary", "baseline", "feature_counts", "improvements")
        )
        for name in (f"{role}_{p}" for role in ("train", "test") for p in PROVENANCES):
            info = json_field(summary, name, dict, "matrix file dataset_summary")
            json_field(info, "rows", int, f"matrix file dataset_summary {name}")
            json_field(info, "class_counts", list, f"matrix file dataset_summary {name}")
        for provenance in PROVENANCES:
            json_field(baseline, provenance, float, "matrix file baseline")
        for key in ("raw", "distinct"):
            json_field(counts, key, int, "matrix file feature_counts")
        for key, value in improvements.items():
            if value is not None:
                json_field(improvements, key, float, "matrix file improvements")
        return cls(
            models=models,
            accuracy=accuracy,
            dataset_summary=dict(summary),
            baseline=dict(baseline),
            feature_counts=dict(counts),
            improvements=dict(improvements),
            seed=get("seed", int),
            labeller=get("labeller", str),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ResultMatrix":
        return cls.from_json(read_json(path, "matrix file"))


def improvement_summary(matrix: ResultMatrix) -> dict[str, Optional[float]]:
    """Average relative accuracy change, in percent, on the balanced test set.

    Compares balanced-trained and augmented-trained models against the
    unbalanced-trained ones.  Models whose unbalanced-trained accuracy is
    zero cannot be compared relatively and are skipped; when every model
    is skipped the aggregate is None.
    """
    out: dict[str, Optional[float]] = {}
    for name, trained_on in IMPROVEMENTS.items():
        changes = []
        for model in matrix.models:
            base = matrix.cell(model, "unbalanced", "balanced")
            if base == 0.0:
                continue
            changes.append(100.0 * (matrix.cell(model, trained_on, "balanced") - base) / base)
        out[name] = sum(changes) / len(changes) if changes else None
    return out


def render_improvement(value: Optional[float]) -> str:
    """An improvement figure as the reports print it: ``n/a`` or ``+x.x%``."""
    return "n/a" if value is None else f"{value:+.1f}%"


def render_matrix_csv(matrix: ResultMatrix) -> str:
    """One row per (model, trained_on, tested_on) cell, in canonical order."""
    lines = ["model,trained_on,tested_on,accuracy"]
    for model in matrix.models:
        for trained_on in PROVENANCES:
            for tested_on in PROVENANCES:
                acc = matrix.cell(model, trained_on, tested_on)
                lines.append(f"{model},{trained_on},{tested_on},{_ACC.format(acc)}")
    return "\n".join(lines) + "\n"


def _accuracy_table(matrix: ResultMatrix, trained_on: str) -> list[str]:
    header = "| model | " + " | ".join(f"{p} test" for p in PROVENANCES) + " |"
    rule = "|---" * (len(PROVENANCES) + 1) + "|"
    best = {
        tested_on: max(matrix.cell(m, trained_on, tested_on) for m in matrix.models)
        for tested_on in PROVENANCES
    }
    lines = [header, rule]
    for model in matrix.models:
        cells = []
        for tested_on in PROVENANCES:
            acc = matrix.cell(model, trained_on, tested_on)
            text = _ACC.format(acc)
            if acc == best[tested_on]:
                text = f"**{text}**"
            cells.append(text)
        lines.append(f"| {model} | " + " | ".join(cells) + " |")
    return lines


def render_report_md(matrix: ResultMatrix) -> str:
    lines = [
        "# CAD variable-ordering experiment",
        "",
        f"- labeller: {matrix.labeller}",
        f"- master seed: {matrix.seed}",
        f"- features: {matrix.feature_counts['raw']} raw, "
        f"{matrix.feature_counts['distinct']} essentially distinct",
        "",
        "## Datasets",
        "",
        "| dataset | rows | " + " | ".join(f"class {c}" for c in range(6)) + " |",
        "|---" * 8 + "|",
    ]
    for role in ("train", "test"):
        for provenance in PROVENANCES:
            name = f"{role}_{provenance}"
            info = matrix.dataset_summary[name]
            counts = " | ".join(str(c) for c in info["class_counts"])
            lines.append(f"| {name} | {info['rows']} | {counts} |")
    for trained_on in PROVENANCES:
        lines += [
            "",
            f"## Accuracy — models trained on the {trained_on} dataset",
            "",
            *_accuracy_table(matrix, trained_on),
        ]
    lines += [
        "",
        "## Uniform-random baseline",
        "",
        "| tested on | accuracy |",
        "|---|---|",
    ]
    for tested_on in PROVENANCES:
        lines.append(f"| {tested_on} test | {_ACC.format(matrix.baseline[tested_on])} |")
    lines += [
        "",
        "## Improvement on the balanced test set (average over models)",
        "",
    ]
    for key, trained_on in IMPROVEMENTS.items():
        rendered = render_improvement(matrix.improvements.get(key))
        lines.append(f"- {trained_on}-trained vs unbalanced-trained: {rendered}")
    return "\n".join(lines) + "\n"


def write_report(matrix: ResultMatrix, out_dir: str | Path) -> None:
    """Emit report.md, matrix.csv, and datasets.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "matrix.csv").write_text(render_matrix_csv(matrix))
    (out / "report.md").write_text(render_report_md(matrix))
    payload = {
        "datasets": matrix.dataset_summary,
        "feature_counts": matrix.feature_counts,
        "baseline": matrix.baseline,
    }
    (out / "datasets.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
