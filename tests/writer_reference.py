"""The per-value artifact writers, kept as the oracle for the library's.

``cadaug.features.write_features_csv`` and ``TrainedModel.save`` format
each distinct value of a column once and write a model's payload in
pieces.  The functions here are the direct forms they replaced: the CSV
formats every value with ``.17g`` as it writes its row, and a model file
is ``json.dumps`` of the whole ``to_json`` object.  The library's files
must equal these byte for byte.
"""

from __future__ import annotations

import json


def write_features_csv(path, ids, labels, matrix, schema):
    names = schema.column_names()
    with open(path, "w") as fh:
        fh.write("id,label," + ",".join(names) + "\n")
        for row_id, label, row in zip(ids, labels, matrix):
            if len(row) != len(names):
                raise ValueError(f"{row_id}: row length {len(row)} != {len(names)}")
            rendered = ",".join(f"{float(v):.17g}" for v in row)
            fh.write(f"{row_id},{'' if label is None else label},{rendered}\n")


def model_text(model) -> str:
    """The text of a ``TrainedModel``'s file."""
    return json.dumps(model.to_json()) + "\n"
