"""Seeded benchmark inputs: fixed pools of input specs and their files.

Every input the benchmark feeds the program comes from a fixed pool of
specs whose reference outputs are committed under ``refs/``.  The workload
seed only chooses which pool entries a run uses and in which order, so any
seed maps to inputs that have references, and the same seed always gives
the same inputs.  The program sees nothing but the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("sim1", "model1", "model2", "model3")
KINDS = ("break", "null")
METHODS = ("bayes-clr", "l2-raw")
DETECT_CLASSES = ("n100", "n300", "hetero")


@dataclass(frozen=True)
class Profile:
    """Input sizes and program flags of one benchmark scale."""

    name: str
    grid_nodes: int
    sizes: dict            # detect class -> sequence length n
    pool_depth: int        # data seeds per (class, family, kind) and per hetero
    hetero_per_run: int    # distinct hetero inputs one run cycles through
    detect_flags: tuple    # extra detect flags; empty = program defaults
    exp_n: int
    exp_k: int
    exp_replicates: int
    exp_contamination: int
    exp_pool_depth: int
    exp_flags: tuple
    ingest_window_s: int   # seconds per window, sampled at 1 Hz
    ingest_pool_depth: int
    ingest_flags: tuple


FULL = Profile(
    name="full", grid_nodes=512, sizes={"n100": 100, "n300": 300, "hetero": 100},
    pool_depth=6, hetero_per_run=4, detect_flags=(),
    exp_n=100, exp_k=50, exp_replicates=4, exp_contamination=20, exp_pool_depth=8,
    exp_flags=(),
    ingest_window_s=86400, ingest_pool_depth=4, ingest_flags=(),
)

SMOKE = Profile(
    name="smoke", grid_nodes=64, sizes={"n100": 16, "n300": 24, "hetero": 16},
    pool_depth=2, hetero_per_run=2,
    detect_flags=("--mc-samples", "200", "--bridge-nodes", "101"),
    exp_n=24, exp_k=12, exp_replicates=2, exp_contamination=4, exp_pool_depth=2,
    exp_flags=("--mc-samples", "200", "--bridge-nodes", "101", "--grid-nodes", "64"),
    ingest_window_s=600, ingest_pool_depth=2,
    ingest_flags=("--window-seconds", "600", "--grid-nodes", "64"),
)

PROFILES = {p.name: p for p in (FULL, SMOKE)}

#: Days of raw data in an ingest input: two before the switch, one missing
#: window, two after it.  ``None`` marks the missing window.
INGEST_LAYOUT = ("pre", "pre", None, "post", "post")
INGEST_T0 = 1_700_000_000.0
INGEST_SPIKE_SHARE = 0.001


def _rng(seed: int) -> np.random.Generator:
    """Generator for a workload seed; any integer, negative ones included."""
    return np.random.default_rng(seed % 2**64)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def detect_pool(profile: Profile) -> list[dict]:
    """Every detect pool entry: key, class, data seed, MC seed, method."""
    out = []
    for ci, cls in enumerate(("n100", "n300")):
        for fi, fam in enumerate(FAMILIES):
            for ki, kind in enumerate(KINDS):
                for j in range(profile.pool_depth):
                    seed = 10_000 * (ci + 1) + 1000 * fi + 100 * ki + j
                    out.append(dict(key=f"{cls}/{fam}/{kind}/{j}", cls=cls, family=fam,
                                    kind=kind, data_seed=seed, mc_seed=seed,
                                    method="bayes-clr"))
    for j in range(profile.pool_depth * 2):
        seed = 30_000 + j
        for method in METHODS:
            out.append(dict(key=f"hetero/{j}/{method}", cls="hetero", family="hetero",
                            kind="null", data_seed=seed, mc_seed=seed, method=method))
    return out


def detect_plan(profile: Profile, seed: int) -> dict[str, list[dict]]:
    """The pool entries one run cycles through, per class, in run order.

    n100 and n300 take one data seed for each (family, kind) pair, so every
    run has the same family mix; hetero takes ``hetero_per_run`` inputs and
    runs each with both methods back to back.
    """
    rng = _rng(seed)
    pool = detect_pool(profile)
    plan: dict[str, list[dict]] = {}
    for cls in ("n100", "n300"):
        picked = []
        for fam in FAMILIES:
            for kind in KINDS:
                j = int(rng.integers(profile.pool_depth))
                picked.append(next(e for e in pool if e["key"] == f"{cls}/{fam}/{kind}/{j}"))
        plan[cls] = [picked[i] for i in rng.permutation(len(picked))]
    hetero_js = rng.choice(profile.pool_depth * 2, size=profile.hetero_per_run, replace=False)
    plan["hetero"] = [
        next(e for e in pool if e["key"] == f"hetero/{int(j)}/{method}")
        for j in hetero_js for method in METHODS
    ]
    return plan


def experiment_pool(profile: Profile) -> list[dict]:
    return [
        dict(key=f"{fam}/{j}", family=fam, campaign_seed=100_000 + 1000 * fi + j)
        for fi, fam in enumerate(FAMILIES) for j in range(profile.exp_pool_depth)
    ]


def experiment_plan(profile: Profile, seed: int) -> list[list[dict]]:
    """Campaign rounds: round r runs one campaign per family, in family order."""
    rng = _rng(seed)
    pool = experiment_pool(profile)
    orders = {fam: rng.permutation(profile.exp_pool_depth) for fam in FAMILIES}
    return [
        [next(e for e in pool if e["key"] == f"{fam}/{int(orders[fam][r])}") for fam in FAMILIES]
        for r in range(profile.exp_pool_depth)
    ]


def experiment_argv(profile: Profile, entry: dict, threads: int, out_dir: Path) -> list[str]:
    argv = ["experiment", "--generator", entry["family"], "--n", str(profile.exp_n),
            "--k-star", str(profile.exp_k), "--replicates", str(profile.exp_replicates),
            "--seed", str(entry["campaign_seed"]), "--threads", str(threads),
            "--compare-l2", "--out-dir", str(out_dir), *profile.exp_flags]
    if entry["family"] != "sim1":
        argv += ["--contamination-count", str(profile.exp_contamination), "--clean"]
    return argv


def ingest_pool(profile: Profile) -> list[dict]:
    return [dict(key=f"raw/{j}", data_seed=50_000 + j) for j in range(profile.ingest_pool_depth)]


def ingest_plan(profile: Profile, seed: int) -> dict:
    pool = ingest_pool(profile)
    return pool[int(_rng(seed).integers(len(pool)))]


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def _fmt_rows(rows) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)


def write_density_file(path: Path, nodes: np.ndarray, values: np.ndarray) -> None:
    """Density CSV: the grid row, then one row per density."""
    path.write_text(_fmt_rows([nodes]) + _fmt_rows(values), encoding="utf-8")


def detect_values(profile: Profile, entry: dict) -> np.ndarray:
    """The (n, m) density matrix of a detect pool entry."""
    import bayes_cpd as bc

    grid = bc.Grid(profile.grid_nodes)
    n = profile.sizes[entry["cls"]]
    if entry["cls"] == "hetero":
        return _hetero_values(grid, np.random.default_rng(entry["data_seed"]), n)
    gen = getattr(bc, "gen_" + entry["family"])
    if entry["kind"] == "break":
        return gen(n, n // 2, entry["data_seed"], grid).values_matrix()
    # Null input: the first n densities of a 2n sequence whose break is at n.
    return gen(2 * n, n, entry["data_seed"], grid).values_matrix()[:n]


def _hetero_values(grid, rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixed Beta and Beta-mixture densities, built from the public API."""
    import bayes_cpd as bc

    rows = []
    for _ in range(n):
        if rng.uniform() < 0.5:
            f = bc.beta_density(grid, rng.uniform(2.0, 30.0), rng.uniform(2.0, 30.0))
        else:
            v = 0.5 * bc.beta_density(grid, rng.uniform(5, 30), rng.uniform(5, 30)).values \
                + 0.5 * bc.beta_density(grid, rng.uniform(2, 10), rng.uniform(2, 10)).values
            f = bc.DensityFunction(grid, v)
        rows.append(bc.zero_avoid(f).values)
    return np.vstack(rows)


def write_detect_input(profile: Profile, entry: dict, path: Path) -> None:
    import bayes_cpd as bc

    write_density_file(path, bc.Grid(profile.grid_nodes).nodes, detect_values(profile, entry))


def detect_argv(profile: Profile, entry: dict, path: Path, out: Path) -> list[str]:
    return ["detect", str(path), "--seed", str(entry["mc_seed"]), "--method", entry["method"],
            "--threads", "1", "--out", str(out), *profile.detect_flags]


def ingest_series(profile: Profile, entry: dict) -> tuple[np.ndarray, np.ndarray]:
    """1 Hz ``timestamp, value`` samples in ``INGEST_LAYOUT`` windows.

    Pre-switch windows draw from one Beta per window, post-switch windows
    from a two-Beta mixture; a share ``INGEST_SPIKE_SHARE`` of samples are
    spikes far outside the range for the boxplot filter to remove.
    """
    rng = np.random.default_rng(entry["data_seed"])
    w = profile.ingest_window_s
    ts, vals = [], []
    for day, regime in enumerate(INGEST_LAYOUT):
        if regime is None:
            continue
        if regime == "pre":
            x = rng.beta(rng.uniform(10, 15), rng.uniform(10, 15), w)
        else:
            pick = rng.uniform(size=w) < 0.5
            x = np.where(pick, rng.beta(rng.uniform(25, 40), rng.uniform(15, 20), w),
                         rng.beta(rng.uniform(2, 4), rng.uniform(4, 6), w))
        ts.append(INGEST_T0 + day * w + np.arange(w, dtype=np.float64))
        vals.append(2.0 + 2.0 * x)
    t, v = np.concatenate(ts), np.concatenate(vals)
    spikes = rng.choice(v.size, size=max(1, int(INGEST_SPIKE_SHARE * v.size)), replace=False)
    v[spikes] += rng.choice([-1.0, 1.0], size=spikes.size) * rng.uniform(5.0, 10.0, spikes.size)
    return t, v


def ingest_days(profile: Profile) -> int:
    """Windows of raw data in an ingest input, the missing one not counted.

    A window is a day in the full profile, so per-day metrics divide by this.
    """
    return sum(regime is not None for regime in INGEST_LAYOUT)


def write_ingest_input(profile: Profile, entry: dict, path: Path) -> None:
    t, v = ingest_series(profile, entry)
    body = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist()))
    path.write_text("timestamp,value\n" + body, encoding="utf-8")


def ingest_argv(profile: Profile, raw: Path, out: Path, report: Path) -> list[str]:
    return ["ingest", str(raw), "--timestamp-format", "epoch", "--threads", "1",
            "--out", str(out), "--report", str(report), *profile.ingest_flags]


def read_density_file(path: Path) -> np.ndarray:
    """Density rows of a density CSV (grid row dropped)."""
    return np.loadtxt(path, delimiter=",", ndmin=2)[1:]
