"""The benchmark's traced run patches stage functions on ``cadaug.pipeline``.

``perfbench/tracing.py`` replaces module attributes such as
``cadaug.pipeline.label_from_timings`` with timing wrappers.  These tests
fail if the labelling loop stops looking those names up there (a dropped
import, or a direct call into ``cadaug.labelling``), which would otherwise
only show up as missing spans or a ``KeyError`` in ``--trace 1`` runs.
"""

import importlib
from pathlib import Path

import pytest

from cadaug import pipeline
from cadaug.labelling import TimingRecord, write_timings_csv
from cadaug.poly import Polynomial, X1, X2, X3
from cadaug.smtlib import ProblemInstance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
P = Polynomial.parse


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _instances(n):
    varmap = (("x", X1), ("y", X2), ("z", X3))
    polys = [frozenset({P(f"x1^{k + 1} + x2*x3 - {k + 1}"), P("x1*x2 + x3")}) for k in range(n)]
    return [ProblemInstance(f"i{k}", p, varmap) for k, p in enumerate(polys)]


def test_timings_labelling_is_traced(tracing, tmp_path):
    instances = _instances(3)
    timings = tmp_path / "timings.csv"
    write_timings_csv(
        [
            TimingRecord("i0", (3.0, 1.0, 2.0, 4.0, 5.0, 6.0)),
            TimingRecord("i1", (None,) * 6),
        ],
        timings,
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        labelled = pipeline.label_instances(instances, "timings", timings, 60.0)
    assert [(inst.id, label) for inst, label in labelled] == [("i0", 1)]
    assert tracer.count("labelling.read_timings_csv") == 1
    assert tracer.count("labelling.label_from_timings") == 2  # i2 has no records
    assert tracer.counts["labelling.instances"] == 2
    assert tracer.counts["labelling.discarded"] == 1
    assert pipeline.label_from_timings.__module__ == "cadaug.labelling"  # restored


def test_sotd_labelling_is_traced(tracing):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        labelled = pipeline.label_instances(_instances(2), "sotd", None, 60.0)
    assert len(labelled) == 2
    assert tracer.count("labelling.label_by_sotd") == 2
    assert tracer.count("resultants.resultant") > 0
