"""Command-line interface.

Every pipeline stage is an independently runnable verb reading and
writing the documented file formats, plus ``run`` for the full
experiment.  Exit codes: 0 success, 1 configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback
from pathlib import Path

from . import __version__
from .augment import augment_full, balance, split
from .dataset import load_dataset, save_dataset
from .features import FeatureSchema, featurize, fit_distinct_filter, write_features_csv
from .jsonfields import read_json
from .labelling import (
    DEFAULT_TIMEOUT,
    LabellingError,
    read_labels_csv,
    write_labels_csv,
    write_timings_csv,
)
from .ml import CVPlan, DEFAULT_GRIDS, DegenerateDataError, MODEL_KINDS, TrainedModel, accuracy, train
from .pipeline import LABELLERS, ExperimentConfig, PipelineError, label_instances, run_pipeline
from .report import IMPROVEMENTS, ResultMatrix, render_improvement, write_report
from .smtlib import IngestError, ingest_directory, read_instances_jsonl, write_instances_jsonl
from .synth import synthesize_corpus, timings_from_sotd

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class ConfigError(Exception):
    """Bad flags, bad flag values, or missing referenced files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


def _existing_dir(value: str) -> Path:
    path = Path(value)
    if not path.is_dir():
        raise ConfigError(f"not a directory: {value}")
    return path


def _existing_file(value: str) -> Path:
    path = Path(value)
    if not path.is_file():
        raise ConfigError(f"no such file: {value}")
    return path


def _load_grids(path: Path | None):
    if path is None:
        return DEFAULT_GRIDS
    try:
        loaded = read_json(path, "grid file")
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: grid file must be a JSON object")
    return {**DEFAULT_GRIDS, **loaded}


def _load_labelled_dataset(data: Path, schema_path: Path):
    dataset, _meta = load_dataset(data, FeatureSchema.load(schema_path))
    return dataset


# -- verb implementations -------------------------------------------------


def _cmd_synth(args) -> int:
    instances = synthesize_corpus(args.out, args.count, args.seed)
    print(f"wrote {len(instances)} instances under {args.out}")
    if args.timings is not None:
        write_timings_csv(timings_from_sotd(instances), args.timings)
        print(f"wrote proxy timings to {args.timings}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    instances = ingest_directory(args.input, deduplicate=not args.keep_duplicates)
    if not instances:
        print(f"no usable instances under {args.input}", file=sys.stderr)
        return EXIT_DATA
    write_instances_jsonl(instances, args.out)
    print(f"ingested {len(instances)} instances -> {args.out}")
    return EXIT_OK


def _cmd_featurize(args) -> int:
    instances = read_instances_jsonl(args.instances)
    if args.schema is not None and args.fit_distinct:
        raise ConfigError("--schema and --fit-distinct are mutually exclusive")
    labels = None if args.labels is None else read_labels_csv(args.labels)
    keep = [k for k, inst in enumerate(instances) if labels is None or inst.id in labels]
    if args.fit_distinct:
        # fit on every instance, then narrow the raw rows to the kept shapes
        raw_schema = FeatureSchema.raw()
        raw_rows = [featurize(inst, raw_schema) for inst in instances]
        schema = fit_distinct_filter(raw_rows)
        columns = schema.columns_in(raw_schema)
        rows = [[raw_rows[k][c] for c in columns] for k in keep]
    else:
        schema = FeatureSchema.raw() if args.schema is None else FeatureSchema.load(args.schema)
        rows = [featurize(instances[k], schema) for k in keep]
    if args.schema_out is not None:
        schema.save(args.schema_out)
    ids = [instances[k].id for k in keep]
    out_labels = [None if labels is None else labels[i] for i in ids]
    write_features_csv(args.out, ids, out_labels, rows, schema)
    print(f"featurized {len(ids)} instances ({len(schema)} columns) -> {args.out}")
    return EXIT_OK


def _cmd_label(args) -> int:
    if args.labeller == "timings" and args.timings is None:
        raise ConfigError("--labeller timings requires --timings")
    instances = read_instances_jsonl(args.instances)
    labelled = label_instances(instances, args.labeller, args.timings, args.timeout)
    write_labels_csv(((inst.id, label) for inst, label in labelled), args.out)
    discarded = len(instances) - len(labelled)
    print(f"labelled {len(labelled)} instances ({discarded} discarded) -> {args.out}")
    return EXIT_OK


def _cmd_split(args) -> int:
    dataset = _load_labelled_dataset(args.data, args.schema)
    train_ds, test_ds = split(dataset, args.test_fraction, args.seed)
    save_dataset(train_ds, args.out_train, seed=args.seed)
    save_dataset(test_ds, args.out_test, seed=args.seed)
    print(f"split {len(dataset)} rows -> {len(train_ds)} train / {len(test_ds)} test")
    return EXIT_OK


def _cmd_balance(args) -> int:
    dataset = _load_labelled_dataset(args.data, args.schema)
    out = balance(dataset, args.mode, args.seed)
    save_dataset(out, args.out, seed=args.seed, mode=args.mode)
    print(f"balanced {len(out)} rows ({args.mode}) -> {args.out}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    dataset = _load_labelled_dataset(args.data, args.schema)
    out = augment_full(dataset)
    save_dataset(out, args.out)
    print(f"augmented {len(dataset)} rows to {len(out)} -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = _load_labelled_dataset(args.data, args.schema)
    try:
        plan = CVPlan(folds=args.cv_folds, grids=_load_grids(args.grid), seed=args.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    model = train(args.model, dataset, plan)
    model.save(args.out)
    best = model.hyperparameters
    print(f"trained {args.model} on {len(dataset)} rows; selected {best} -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dataset = _load_labelled_dataset(args.data, args.schema)
    model = TrainedModel.load(args.model)
    print(f"accuracy {accuracy(model, dataset):.6f}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        config = ExperimentConfig(
            input_dir=args.input,
            out_dir=Path(args.out),
            labeller=args.labeller,
            timings_csv=args.timings,
            timeout=args.timeout,
            test_fraction=args.test_fraction,
            balance_mode=args.balance_mode,
            seed=args.seed,
            models=tuple(args.models.split(",")),
            cv_folds=args.cv_folds,
            grids=_load_grids(args.grid),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    matrix = run_pipeline(config)
    for name in ("train_unbalanced", "test_unbalanced", "train_augmented"):
        info = matrix.dataset_summary[name]
        print(f"{name}: {info['rows']} rows")
    print(
        f"features: {matrix.feature_counts['raw']} raw, "
        f"{matrix.feature_counts['distinct']} essentially distinct"
    )
    for key, trained_on in IMPROVEMENTS.items():
        rendered = render_improvement(matrix.improvements.get(key))
        print(f"{trained_on}-trained vs unbalanced-trained on balanced test: {rendered}")
    print(f"report written under {config.out_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    matrix = ResultMatrix.load(args.matrix)
    write_report(matrix, args.out)
    print(f"report written under {args.out}")
    return EXIT_OK


# -- argument wiring ------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cadaug", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cadaug {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    # flag groups that several verbs share
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", type=_existing_file, required=True)
    data.add_argument("--schema", type=_existing_file, required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    labeller = argparse.ArgumentParser(add_help=False)
    labeller.add_argument("--labeller", choices=LABELLERS, default="sotd")
    labeller.add_argument("--timings", type=_existing_file)
    labeller.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    cv = argparse.ArgumentParser(add_help=False)
    cv.add_argument("--cv-folds", type=int, default=5)
    cv.add_argument("--grid", type=_existing_file, help="JSON grid overrides")

    p = sub.add_parser("synth", parents=[seed], help="generate a synthetic .smt2 corpus")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--timings", type=Path, help="also write a proxy timings CSV here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse .smt2 files into canonical instances")
    p.add_argument("--input", type=_existing_dir, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--keep-duplicates", action="store_true")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("featurize", help="compute feature vectors")
    p.add_argument("--instances", type=_existing_file, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--schema", type=_existing_file, help="use a saved schema")
    p.add_argument(
        "--fit-distinct",
        action="store_true",
        help="fit the essentially-distinct filter on these instances",
    )
    p.add_argument("--schema-out", type=Path, help="save the schema used")
    p.add_argument("--labels", type=_existing_file, help="attach labels from a labels CSV")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("label", parents=[labeller], help="label instances with the best ordering")
    p.add_argument("--instances", type=_existing_file, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("split", parents=[data, seed], help="split a labelled dataset by instance id")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--out-train", type=Path, required=True)
    p.add_argument("--out-test", type=Path, required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("balance", parents=[data, seed], help="rebalance labels via random renamings")
    p.add_argument("--mode", choices=("random", "exact"), default="random")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("augment", parents=[data], help="apply all six renamings to every row")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", parents=[data, seed, cv], help="cross-validate and fit one model")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[data], help="score a saved model on a dataset")
    p.add_argument("--model", type=_existing_file, required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", parents=[labeller, seed, cv], help="run the full experiment")
    p.add_argument("--input", type=_existing_dir, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--balance-mode", choices=("random", "exact"), default="random")
    p.add_argument("--models", default="knn,dt,rf")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="re-render report files from a saved matrix")
    p.add_argument("--matrix", type=_existing_file, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, LabellingError, DegenerateDataError, PipelineError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
