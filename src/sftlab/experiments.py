"""Monte Carlo harness: emptiness, entropy, and orbit-presence experiments over
the random-SFT ensemble, with deterministic per-trial streams, static worker
partitioning, and order-independent aggregation (identical output bytes for
any worker count).
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DomainError
from . import analysis
from .ensemble import EnsembleParams, sample, sample_bits_batch, unpack_lanes
from .orbits import orbit_window_table
from .patterns import window_table_size
from .zeta import independence_upper_bound, zeta_inverse
from . import __version__

VERDICT_EMPTY, VERDICT_NONEMPTY, VERDICT_UNKNOWN = 0, 1, 2

DEFAULT_ZETA_JMAX = {1: 20, 2: 4, 3: 3}


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    alphabet: int
    n: int
    alphas: tuple
    trials: int
    seed: int
    k: int = 0                 # entropy window
    k_max: int = 0             # emptiness existence cutoff (d >= 2)
    torus_max: int = 0         # wraparound search cutoff (d >= 2)
    orbit_max: int = 8
    boundary_samples: int = 256
    zeta_j_max: int = 0        # 0 = per-dimension default
    epsilons: tuple = (0.05, 0.1, 0.2)
    workers: int = 1

    def __post_init__(self):
        window_table_size(self.alphabet, self.d, self.n)
        if self.trials < 1:
            raise DomainError("need at least one trial")
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise DomainError(f"alpha {a} outside [0, 1]")

    @property
    def effective_zeta_j_max(self) -> int:
        return self.zeta_j_max or DEFAULT_ZETA_JMAX[self.d]

    def echo(self) -> dict:
        out = asdict(self)
        out["alphas"] = list(self.alphas)
        out["epsilons"] = list(self.epsilons)
        return out


@dataclass
class ExperimentResult:
    kind: str
    config: dict
    rows: list = field(default_factory=list)

    def write_csv(self, path) -> None:
        if not self.rows:
            raise DomainError("no rows to write")
        cols = list(self.rows[0].keys())
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(cols) + "\n")
            for row in self.rows:
                f.write(",".join(_fmt(row[c]) for c in cols) + "\n")

    def write_json(self, path) -> None:
        payload = {
            "experiment": self.kind,
            "version": __version__,
            "config": self.config,
            "rows": self.rows,
        }
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(_json_safe(payload), f, indent=2, sort_keys=False)
            f.write("\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_safe(v):
    """Non-finite floats, at any depth, as their repr strings: valid JSON."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def max_workers_from_env(requested: int) -> int:
    cap = os.environ.get("SFTLAB_THREADS")
    if not cap:
        return max(1, requested)
    try:
        return max(1, min(requested, int(cap)))
    except ValueError:
        raise DomainError(f"SFTLAB_THREADS={cap!r} is not an integer") from None


def _chunks_per_alpha(fn, cfg: ExperimentConfig, *extra):
    """fn over every (alpha, trial range) of the experiment, in one process
    pool; per alpha, the list of chunk results in trial order.  A chunk's
    args are (alphabet, d, n, alpha, seed, lo, hi, *extra)."""
    workers = max_workers_from_env(cfg.workers)
    per = (cfg.trials + workers - 1) // workers
    ranges = [(lo, min(lo + per, cfg.trials)) for lo in range(0, cfg.trials, per)]
    argses = [(cfg.alphabet, cfg.d, cfg.n, alpha, cfg.seed, lo, hi, *extra)
              for alpha in cfg.alphas for lo, hi in ranges]
    if workers <= 1 or len(argses) <= 1:
        parts = [fn(a) for a in argses]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(fn, argses))
    return [parts[i:i + len(ranges)] for i in range(0, len(parts), len(ranges))]


# ---------------------------------------------------------------------------
# chunk workers (top level for pickling)

def _verdicts_for(params: EnsembleParams, lo: int, k_max: int, torus_max: int,
                  bits, certify=False):
    """Verdict codes of trials lo, lo+1, ..., one per row of bits (row i is
    sample(params, lo + i)), and per trial whether a nonempty verdict carries
    a finite orbit.  d = 1 verdicts come from pruning, and only the nonempty
    rows marked in certify (a bool or a row mask) go on to decide_empty_batch
    for their orbit; for d >= 2 every row does."""
    certified = np.ones(len(bits), dtype=bool)
    codes = {"empty": VERDICT_EMPTY, "nonempty": VERDICT_NONEMPTY, "unknown": VERDICT_UNKNOWN}
    if params.d == 1:
        nonempty = analysis.prune_rows(bits, params.n, params.alphabet).any(axis=1)
        out = np.where(nonempty, VERDICT_NONEMPTY, VERDICT_EMPTY).astype(np.uint8)
        rows = np.flatnonzero(nonempty & certify).tolist()
    else:
        out = np.empty(len(bits), dtype=np.uint8)
        rows = range(len(bits))
    omegas = [analysis.AllowedSet(params.d, params.n, params.alphabet, bits[i], params.seed,
                                  lo + i) for i in rows]
    for i, v in zip(rows, analysis.decide_empty_batch(omegas, k_max, torus_max)):
        out[i] = codes[v.verdict]
        certified[i] = v.verdict != "nonempty" or v.certificate_orbit is not None
    return out, certified


def _emptiness_chunk(args):
    (alphabet, d, n, alpha, seed, lo, hi, k_max, torus_max) = args
    params = EnsembleParams(alphabet, d, n, alpha, seed)
    bits = sample_bits_batch(params, range(lo, hi))
    return _verdicts_for(params, lo, k_max, torus_max, bits)[0]


def _orbit_chunk(args):
    (alphabet, d, n, alpha, seed, lo, hi, k_max, torus_max, orbit_max) = args
    params = EnsembleParams(alphabet, d, n, alpha, seed)
    _, masks, _ = orbit_window_table(alphabet, d, n, orbit_max)
    bits = sample_bits_batch(params, range(lo, hi))
    # one lane row: the trials in which some orbit is allowed
    small = np.bitwise_or.reduce(analysis.allowed_orbit_lanes(bits, masks), axis=0)
    any_small = unpack_lanes(small[None, :], len(bits))[:, 0]
    # small-orbit trials are certified by the orbit found here
    verdicts, has_cert = _verdicts_for(params, lo, k_max, torus_max, bits, ~any_small)
    nonempty_no_small = (verdicts == VERDICT_NONEMPTY) & ~any_small
    gn_candidate = nonempty_no_small & ~has_cert
    return verdicts, any_small, nonempty_no_small, gn_candidate


def _entropy_chunk(args):
    (alphabet, d, n, alpha, seed, lo, hi, k, boundary_samples) = args
    params = EnsembleParams(alphabet, d, n, alpha, seed)
    pattern_counts = np.empty(hi - lo, dtype=np.float64)
    periodic_counts = np.empty(hi - lo, dtype=np.float64)
    for i, t in enumerate(range(lo, hi)):
        omega = sample(params, t)
        pattern_counts[i] = float(analysis.count_patterns(omega, k))
        pc = analysis.count_periodic_fillins(omega, k, boundary_samples)
        periodic_counts[i] = pc.count
    return pattern_counts, periodic_counts


# ---------------------------------------------------------------------------
# experiments

def run_emptiness_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per alpha: verdict frequencies against the truncated zeta product.
    d = 1 rows are exact decisions (no Unknown)."""
    rows = []
    per_alpha = _chunks_per_alpha(_emptiness_chunk, cfg, cfg.k_max, cfg.torus_max)
    for alpha, parts in zip(cfg.alphas, per_alpha):
        verdicts = np.concatenate(parts)
        n_empty = int((verdicts == VERDICT_EMPTY).sum())
        n_nonempty = int((verdicts == VERDICT_NONEMPTY).sum())
        n_unknown = int((verdicts == VERDICT_UNKNOWN).sum())
        resolved = n_empty + n_nonempty
        zt = zeta_inverse(cfg.alphabet, cfg.d, alpha, cfg.effective_zeta_j_max)
        p_emp = n_empty / resolved if resolved else math.nan
        sigma = (
            math.sqrt(max(zt.value * (1.0 - zt.value), 1e-12) / resolved)
            if resolved else math.nan
        )
        rows.append({
            "alpha": alpha,
            "trials": cfg.trials,
            "empty": n_empty,
            "nonempty": n_nonempty,
            "unknown": n_unknown,
            "unknown_frac": n_unknown / cfg.trials,
            "empty_frac_resolved": p_emp,
            "theory_empty": zt.value,
            "theory_tail_log": zt.tail_bound,
            "theory_j_max": zt.j_max,
            "theory_divergent": zt.divergent,
            "binom_sigma": sigma,
            "abs_dev": abs(p_emp - zt.value) if resolved else math.nan,
        })
    return ExperimentResult("emptiness", cfg.echo(), rows)


def run_entropy_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per alpha: distribution of the entropy upper bound and the periodic
    lower bound over trials, with deviation frequencies on the epsilon grid.

    Reporting rule for the target log+(alpha*|A|): when the target is 0, a
    trial with zero pattern count counts as meeting it (empty-or-zero-entropy);
    when the target is positive, zero-count trials count as deviations.
    """
    if cfg.k < cfg.n:
        raise DomainError("entropy experiment needs k >= n")
    vol = cfg.k ** cfg.d
    rows = []
    per_alpha = _chunks_per_alpha(_entropy_chunk, cfg, cfg.k, cfg.boundary_samples)
    for alpha, parts in zip(cfg.alphas, per_alpha):
        pattern_counts = np.concatenate([p[0] for p in parts])
        periodic_counts = np.concatenate([p[1] for p in parts])
        target = max(0.0, math.log(alpha * cfg.alphabet)) if alpha > 0 else 0.0
        with np.errstate(divide="ignore"):
            h_upper = np.where(pattern_counts > 0,
                               np.log(np.maximum(pattern_counts, 1e-300)) / vol,
                               -np.inf)
            h_per = np.where(periodic_counts > 0,
                             np.log(np.maximum(periodic_counts, 1e-300)) / vol,
                             -np.inf)
        nonzero = pattern_counts > 0
        row = {
            "alpha": alpha,
            "trials": cfg.trials,
            "k": cfg.k,
            "boundary_samples": cfg.boundary_samples,
            "target": target,
            "empty_trials": int((~nonzero).sum()),
            "h_upper_mean": float(h_upper[nonzero].mean()) if nonzero.any() else math.nan,
            "h_upper_median": float(np.median(h_upper[nonzero])) if nonzero.any() else math.nan,
            "h_upper_std": float(h_upper[nonzero].std()) if nonzero.any() else math.nan,
            "h_per_mean": float(h_per[nonzero].mean()) if nonzero.any() else math.nan,
            "h_per_median": float(np.median(h_per[nonzero])) if nonzero.any() else math.nan,
        }
        for eps in cfg.epsilons:
            dev_upper = np.where(nonzero, np.abs(h_upper - target) >= eps, target > 0)
            below_per = np.where(periodic_counts > 0, h_per < target - eps, target > 0)
            row[f"frac_h_upper_dev_{eps:g}"] = float(dev_upper.mean())
            row[f"frac_h_per_below_{eps:g}"] = float(below_per.mean())
        rows.append(row)
    return ExperimentResult("entropy", cfg.echo(), rows)


def run_orbit_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per alpha: frequency of 'no allowed orbit up to orbit_max' and of
    candidate nonempty-but-orbit-free trials.  A candidate needs a nonempty
    verdict, no enumerated allowed orbit, and no orbit certificate attached to
    the verdict; in d = 1 every nonempty verdict carries a cycle-derived orbit,
    so the candidate count is structurally zero."""
    rows = []
    per_alpha = _chunks_per_alpha(_orbit_chunk, cfg, cfg.k_max, cfg.torus_max,
                                  cfg.orbit_max)
    for alpha, parts in zip(cfg.alphas, per_alpha):
        verdicts = np.concatenate([p[0] for p in parts])
        any_small = np.concatenate([p[1] for p in parts])
        no_small_nonempty = np.concatenate([p[2] for p in parts])
        gn = np.concatenate([p[3] for p in parts])
        n_unknown = int((verdicts == VERDICT_UNKNOWN).sum())
        rows.append({
            "alpha": alpha,
            "trials": cfg.trials,
            "orbit_max": cfg.orbit_max,
            "empty": int((verdicts == VERDICT_EMPTY).sum()),
            "nonempty": int((verdicts == VERDICT_NONEMPTY).sum()),
            "unknown": n_unknown,
            "per_empty_frac": float((~any_small).mean()),
            "independence_ub": independence_upper_bound(cfg.alphabet, cfg.d, alpha, cfg.n),
            "nonempty_no_small": int(no_small_nonempty.sum()),
            "nonempty_no_small_frac": float(no_small_nonempty.mean()),
            "gn_candidates": int(gn.sum()),
        })
    return ExperimentResult("orbits", cfg.echo(), rows)


RUNNERS = {
    "emptiness": run_emptiness_experiment,
    "entropy": run_entropy_experiment,
    "orbits": run_orbit_experiment,
}


def check_thresholds(result: ExperimentResult, checks: dict):
    """Configured acceptance thresholds -> list of failure strings (empty = pass).

    Supported checks: max_unknown_frac, zeta_sigma (empirical emptiness within
    this many binomial sigmas of theory), per_empty_sigma (orbit experiment:
    empirical no-orbit frequency at most the independence product plus this
    many sigmas)."""
    failures = []
    for row in result.rows:
        alpha = row["alpha"]
        if "max_unknown_frac" in checks and "unknown_frac" in row:
            if row["unknown_frac"] > checks["max_unknown_frac"]:
                failures.append(
                    f"alpha={alpha}: unknown_frac {row['unknown_frac']} > "
                    f"{checks['max_unknown_frac']}")
        if "zeta_sigma" in checks and "abs_dev" in row and not row.get("theory_divergent"):
            limit = checks["zeta_sigma"] * row["binom_sigma"]
            if not (row["abs_dev"] <= limit):
                failures.append(
                    f"alpha={alpha}: |empirical-theory| {row['abs_dev']} > {limit}")
        if "per_empty_sigma" in checks and "per_empty_frac" in row:
            p = row["independence_ub"]
            sig = math.sqrt(max(p * (1 - p), 1e-12) / row["trials"])
            if row["per_empty_frac"] > p + checks["per_empty_sigma"] * sig:
                failures.append(
                    f"alpha={alpha}: per_empty_frac {row['per_empty_frac']} above "
                    f"independence bound {p} + {checks['per_empty_sigma']} sigma")
    return failures
