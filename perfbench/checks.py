"""Output checks against the committed reference outputs.

The checks are built to survive a legitimate change of the Monte Carlo
draw order: everything that does not depend on the draws is compared
exactly or to a tight relative tolerance, and the p-value is compared
within a band of Monte Carlo standard errors.  Each function returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for the CUSUM statistic and the retained eigenvalues.
REL_TOL = 1e-8
#: Standard errors of the pooled p-value allowed between output and reference.
#: Two independent estimates differ by sqrt(2) standard errors of one, so 6
#: standard errors is about 4.2 standard deviations of the difference.
P_VALUE_SE = 6.0
#: Largest clr-norm distance allowed between an ingested density and its
#: reference.  Consecutive days of the ingest inputs are 0.2-1.1 apart in
#: this norm, so a density from the wrong window fails by a wide margin.
CLR_TOL = 1e-2

DETECT_EXIT_OK = (0, 1)


def p_value_band(p: float, p_ref: float, mc_samples: int) -> float:
    """Allowed |p - p_ref|: P_VALUE_SE pooled standard errors plus 1/M."""
    pooled = 0.5 * (p + p_ref)
    return P_VALUE_SE * math.sqrt(pooled * (1.0 - pooled) / mc_samples) + 1.0 / mc_samples


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def check_detect(code: int, out: dict | None, ref: dict) -> list[str]:
    if code not in DETECT_EXIT_OK:
        return [f"exit code {code}"]
    if out is None:
        return ["no result JSON"]
    problems = []
    for key in ("k_hat", "L", "degenerate", "method", "mc_samples"):
        if out.get(key) != ref[key]:
            problems.append(f"{key} {out.get(key)!r} != reference {ref[key]!r}")
    if not _close(out["statistic"], ref["statistic"], abs(ref["statistic"])):
        problems.append(f"statistic {out['statistic']!r} != reference {ref['statistic']!r}")
    evals, ref_evals = out.get("eigenvalues", []), ref["eigenvalues"]
    if len(evals) != len(ref_evals):
        problems.append(f"{len(evals)} eigenvalues != reference {len(ref_evals)}")
    elif ref_evals:
        lead = abs(ref_evals[0])
        if not all(_close(a, b, lead) for a, b in zip(evals, ref_evals)):
            problems.append("retained eigenvalues differ from reference")
    band = p_value_band(out["p_value"], ref["p_value"], ref["mc_samples"])
    if abs(out["p_value"] - ref["p_value"]) > band:
        problems.append(f"p_value {out['p_value']} outside {ref['p_value']} +/- {band:.4f}")
    # The decision is only pinned where the reference p is clear of alpha.
    if abs(ref["p_value"] - ref["alpha"]) > band and out["reject_null"] != ref["reject_null"]:
        problems.append(f"reject_null {out['reject_null']} != reference {ref['reject_null']}")
    if out["reject_null"] != (code == 0):
        problems.append(f"exit code {code} disagrees with reject_null {out['reject_null']}")
    return problems


def check_experiment(report: dict, ref: dict) -> tuple[int, list[str]]:
    """Returns (failed replicates, problems).

    A replicate fails when any of its records errored (method "error") or
    reports a k_hat other than the reference, per method.
    """
    problems, failed = [], set()
    got: dict[int, dict[str, int]] = {}
    for rec in report["replicates"]:
        if rec["method"] == "error" or rec.get("error") is not None:
            failed.add(rec["replicate"])
            problems.append(f"replicate {rec['replicate']} errored: {rec.get('error')}")
            continue
        got.setdefault(rec["replicate"], {})[rec["method"]] = rec["k_hat"]
    for r, methods in ref["k_hat"].items():
        r = int(r)
        if r in failed:
            continue
        if got.get(r) != methods:
            failed.add(r)
            problems.append(f"replicate {r} k_hat {got.get(r)} != reference {methods}")
    return len(failed), problems


def clr_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    logs = np.log(values)
    return logs - (logs @ weights)[:, None]


def trapezoid_weights(m: int) -> np.ndarray:
    w = np.full(m, 1.0 / (m - 1))
    w[0] = w[-1] = 0.5 / (m - 1)
    return w


def clr_distances(values: np.ndarray, ref_clr: np.ndarray) -> np.ndarray:
    """clr-norm distance of each density row to its reference clr row."""
    w = trapezoid_weights(values.shape[1])
    diff = clr_rows(values, w) - ref_clr
    return np.sqrt(np.maximum((diff * diff) @ w, 0.0))


REPORT_FIELDS = ("segments_total", "segments_dropped", "scalar_outliers_removed",
                 "clamped_values", "support", "bandwidth_per_segment")


def check_ingest(code: int, report: dict | None, values: np.ndarray | None,
                 ref: dict) -> tuple[list[str], float | None]:
    """Returns (problems, max clr distance to the reference densities).

    The distance is None when there are no densities of the right shape.
    """
    if code != 0:
        return [f"exit code {code}"], None
    if report is None or values is None:
        return ["missing ingest outputs"], None
    problems = [
        f"{key} {report.get(key)!r} != reference {ref['report'][key]!r}"
        for key in REPORT_FIELDS if report.get(key) != ref["report"][key]
    ]
    ref_clr = np.asarray(ref["clr"], dtype=np.float64)
    if values.shape != ref_clr.shape:
        return problems + [f"densities shape {values.shape} != reference {ref_clr.shape}"], None
    dist = float(clr_distances(values, ref_clr).max())
    if not dist <= CLR_TOL:
        problems.append(f"max clr distance {dist:.3g} > {CLR_TOL}")
    return problems, dist
