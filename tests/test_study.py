"""The statistical-record script ``scripts/study.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

from bayes_cpd import simlab
from bayes_cpd.errors import DegenerateInputError

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("study", ROOT / "scripts" / "study.py")
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


def _stats(names, share=0.05):
    """A study file whose data arms all read 1 rejection in 10 and whose
    limit-law arms read ``share``."""
    entry = {"count": 10, "errored": 0, "rejections": 1, "rate": 0.1, "se": 0.095,
             "abs_error_quartiles": None, "L_histogram": {"1": 10}}
    limit = {"samples": 4000, "point": 1.8, "share": share, "target": 0.05,
             "se": 0.0034, "normals_drawn": 0}
    return {"arms": {name: limit if name in study.LIMIT_ARMS else
                     {"replicates": 10, "normals_drawn": 0, "methods": {"bayes-clr": entry}}
                     for name in names}}


def test_arm_only_in_new_is_shown_and_not_judged(capsys):
    old = _stats([name for name in study.ARMS if name != "null_n40"])
    new = _stats(study.ARMS)
    assert study.compare(old, new) == []
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("null_n40")]
    assert row.split()[1:3] == ["bayes-clr", "new"]


def test_arm_missing_from_new_fails():
    old = _stats(study.ARMS)
    new = _stats([name for name in study.ARMS if name != "null_n40"])
    assert study.compare(old, new) == ["null_n40: arm missing"]


def test_limit_arm_only_in_new_is_judged(capsys):
    old = _stats([name for name in study.ARMS if name != "limit_law_l3"])
    assert study.compare(old, _stats(study.ARMS)) == []
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("limit_law_l3")]
    assert row.split()[1:5] == ["L", "=", "3", "new"]
    assert study.compare(old, _stats(study.ARMS, share=0.07)) == [
        f"{name}: share 0.0700 is 5.88 SE from 0.05" for name in study.LIMIT_ARMS]


def test_limit_arm_at_its_point_and_size():
    arm = study.limit_arm((0.6, 0.3, 0.1), 1.2, 400, 50, 5, 1)
    assert (arm["eigenvalues"], arm["samples"], arm["point"]) == ([0.6, 0.3, 0.1], 50, 1.2)
    assert arm["se"] == pytest.approx((0.05 * 0.95 * (1 / 50 + 1 / 400)) ** 0.5)
    assert arm["normals_drawn"] == 50 * 3 * (study.DEFAULT_BRIDGE_NODES - 1)


def test_committed_arms_are_a_prefix_of_the_table():
    # an arm's seed is its position in ARMS: moving one re-seeds every arm after it
    latest = max(ROOT.glob("STATS_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    committed = list(json.loads(latest.read_text(encoding="utf-8"))["arms"])
    assert committed == list(study.ARMS)[:len(committed)]
