"""The statistical-record script ``scripts/study.py``."""

import importlib.util
from pathlib import Path

from bayes_cpd import simlab
from bayes_cpd.errors import DegenerateInputError

_SPEC = importlib.util.spec_from_file_location(
    "study", Path(__file__).resolve().parent.parent / "scripts" / "study.py")
study = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(study)

SMALL = dict(grid_nodes=64, mc_samples=100)


def test_no_change_arm_has_no_quartiles():
    arm = study.experiment_arm(dict(generator="model1", n=20, k_star=20, compare_l2=False,
                                    **SMALL), 3, 5, 1)
    assert list(arm["methods"]) == ["bayes-clr"]
    entry = arm["methods"]["bayes-clr"]
    assert (entry["count"], entry["errored"]) == (3, 0)
    assert entry["abs_error_quartiles"] is None
    assert sum(entry["L_histogram"].values()) == 3


def test_single_arm_errors_counted(monkeypatch):
    calls = []
    detect_statistic = simlab._detect_statistic

    def first_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DegenerateInputError("nothing to detect")
        return detect_statistic(*args, **kwargs)

    monkeypatch.setattr(simlab, "_detect_statistic", first_call_fails)
    arm = study.experiment_arm(dict(generator="model2", n=30, k_star=15, compare_l2=False,
                                    **SMALL), 3, 5, 1)
    entry = arm["methods"]["bayes-clr"]
    assert (entry["count"], entry["errored"]) == (2, 1)
    assert entry["L_histogram"]["error"] == 1
    assert entry["abs_error_quartiles"] is not None
