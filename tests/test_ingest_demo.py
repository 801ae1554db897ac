"""The end-to-end demo script ``scripts/run_ingest_demo.py``."""

import importlib.util
from pathlib import Path

import numpy as np

from bayes_cpd import RawSeries
from bayes_cpd.io import write_raw_series_csv

_SPEC = importlib.util.spec_from_file_location(
    "run_ingest_demo",
    Path(__file__).resolve().parent.parent / "scripts" / "run_ingest_demo.py")
demo = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(demo)


def test_day_at_a_time_raw_writer_matches_io(tmp_path):
    demo.write_raw_csv(tmp_path / "demo.csv", demo.synthesize(4, 3, 1, 50))
    t, v = (np.concatenate(c) for c in zip(*demo.synthesize(4, 3, 1, 50)))
    write_raw_series_csv(tmp_path / "io.csv", RawSeries(t, v))
    assert (tmp_path / "demo.csv").read_bytes() == (tmp_path / "io.csv").read_bytes()
