import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from sftlab import experiments as X
from sftlab.errors import DomainError


def tiny_cfg(**kw):
    base = dict(d=1, alphabet=2, n=2, alphas=(0.3,), trials=2000, seed=321)
    base.update(kw)
    return X.ExperimentConfig(**base)


def exact_tiny_empty_probability(alpha):
    """Oracle for d=1, |A|=2, n=2: enumerate all 16 window subsets; the SFT is
    nonempty exactly when a constant window survives or both alternating
    windows survive.  Weight each subset by alpha^|set| (1-alpha)^(4-|set|)."""
    total = 0.0
    for mask in range(16):
        bits = [(mask >> b) & 1 for b in range(4)]
        nonempty = bits[0b00] or bits[0b11] or (bits[0b01] and bits[0b10])
        if not nonempty:
            w = sum(bits)
            total += (alpha ** w) * ((1 - alpha) ** (4 - w))
    return total


def test_emptiness_matches_exact_tiny_oracle():
    for alpha in (0.3, 0.7):
        cfg = tiny_cfg(alphas=(alpha,), trials=20000)
        row = X.run_emptiness_experiment(cfg).rows[0]
        p = exact_tiny_empty_probability(alpha)
        emp = row["empty_frac_resolved"]
        sigma = math.sqrt(p * (1 - p) / cfg.trials)
        assert abs(emp - p) <= 3 * sigma
        assert row["unknown"] == 0  # d = 1 decides everything


def test_emptiness_row_schema_and_theory_columns():
    cfg = tiny_cfg()
    r = X.run_emptiness_experiment(cfg)
    row = r.rows[0]
    for col in ("alpha", "trials", "empty", "nonempty", "unknown",
                "unknown_frac", "empty_frac_resolved", "theory_empty",
                "theory_tail_log", "binom_sigma", "abs_dev"):
        assert col in row
    assert row["empty"] + row["nonempty"] + row["unknown"] == cfg.trials


def test_reproducibility_bytes_and_worker_invariance(tmp_path):
    cfg = tiny_cfg(trials=3000)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    X.run_emptiness_experiment(cfg).write_csv(a)
    X.run_emptiness_experiment(cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    X.run_emptiness_experiment(dataclasses.replace(cfg, workers=3)).write_csv(c)
    assert a.read_bytes() == c.read_bytes()
    ja, jc = tmp_path / "a.json", tmp_path / "c.json"
    X.run_emptiness_experiment(cfg).write_json(ja)
    X.run_emptiness_experiment(dataclasses.replace(cfg, workers=3)).write_json(jc)
    assert json.loads(ja.read_text())["rows"] == json.loads(jc.read_text())["rows"]


def test_entropy_rows_alpha_one_exact():
    cfg = X.ExperimentConfig(d=1, alphabet=2, n=2, alphas=(1.0,), trials=20,
                             seed=5, k=12, boundary_samples=0)
    row = X.run_entropy_experiment(cfg).rows[0]
    assert row["h_upper_mean"] == pytest.approx(math.log(2))
    assert row["h_upper_std"] == 0.0
    assert row["empty_trials"] == 0
    assert row["frac_h_upper_dev_0.05"] == 0.0


def test_entropy_subcritical_empty_trials_count_as_target_zero():
    cfg = X.ExperimentConfig(d=1, alphabet=2, n=2, alphas=(0.2,), trials=300,
                             seed=6, k=8, boundary_samples=0)
    row = X.run_entropy_experiment(cfg).rows[0]
    assert row["target"] == 0.0
    assert row["empty_trials"] > 0
    # an empty trial never counts as a deviation when the target is 0
    assert row["frac_h_upper_dev_0.2"] <= 1.0 - row["empty_trials"] / 300


def test_entropy_requires_k():
    with pytest.raises(DomainError):
        X.run_entropy_experiment(tiny_cfg(k=0))


def test_orbit_experiment_bounds_and_structural_zero():
    cfg = X.ExperimentConfig(d=1, alphabet=2, n=6, alphas=(0.3, 0.8),
                             trials=8000, seed=7, orbit_max=8)
    rows = X.run_orbit_experiment(cfg).rows
    for row in rows:
        assert row["gn_candidates"] == 0  # d=1: certificates are orbits
        p = row["independence_ub"]
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / row["trials"])
        assert row["per_empty_frac"] <= p + 3 * sigma
    assert rows[1]["per_empty_frac"] < rows[0]["per_empty_frac"]


def test_orbit_experiment_alpha_one_all_present():
    cfg = X.ExperimentConfig(d=1, alphabet=2, n=4, alphas=(1.0,), trials=5,
                             seed=8, orbit_max=4)
    row = X.run_orbit_experiment(cfg).rows[0]
    assert row["per_empty_frac"] == 0.0
    assert row["nonempty_no_small"] == 0


def test_d2_experiment_runs_with_unknowns_reported():
    cfg = X.ExperimentConfig(d=2, alphabet=2, n=2, alphas=(0.1,), trials=400,
                             seed=9, k_max=6, torus_max=4, zeta_j_max=4)
    row = X.run_emptiness_experiment(cfg).rows[0]
    assert row["unknown_frac"] <= 0.05
    assert 0.0 <= row["empty_frac_resolved"] <= 1.0


def test_check_thresholds():
    cfg = tiny_cfg(n=8, trials=5000, zeta_j_max=20)
    res = X.run_emptiness_experiment(cfg)
    assert X.check_thresholds(res, {"zeta_sigma": 4.0, "max_unknown_frac": 0.05}) == []
    # absurdly tight sigma must fail
    assert X.check_thresholds(res, {"zeta_sigma": 1e-6})


def test_csv_float_format_round_trips(tmp_path):
    cfg = tiny_cfg(trials=500)
    res = X.run_emptiness_experiment(cfg)
    path = tmp_path / "r.csv"
    res.write_csv(path)
    header, line = path.read_text().strip().split("\n")
    cols = header.split(",")
    vals = line.split(",")
    got = dict(zip(cols, vals))
    assert float(got["theory_empty"]) == res.rows[0]["theory_empty"]


def test_config_validation():
    with pytest.raises(DomainError):
        tiny_cfg(trials=0)
    with pytest.raises(DomainError):
        tiny_cfg(alphas=(1.2,))


def test_entropy_experiment_d2_path():
    cfg = X.ExperimentConfig(d=2, alphabet=2, n=2, alphas=(1.0,), trials=3,
                             seed=13, k=4, boundary_samples=0)
    row = X.run_entropy_experiment(cfg).rows[0]
    assert row["h_upper_mean"] == pytest.approx(math.log(2))
    # periodic count at alpha=1 is 2^(ell^2) = 2^9 -> (1/16) log
    assert row["h_per_mean"] == pytest.approx(math.log(2 ** 9) / 16)


def test_orbit_chunk_mask_path_agrees_with_direct_checks():
    from sftlab.ensemble import EnsembleParams, sample, orbit_allowed
    from sftlab.orbits import enumerate_orbits
    params = EnsembleParams(2, 1, 6, 0.5, 77)
    cfg = X.ExperimentConfig(d=1, alphabet=2, n=6, alphas=(0.5,), trials=64,
                             seed=77, orbit_max=6)
    row = X.run_orbit_experiment(cfg).rows[0]
    orbs = enumerate_orbits(2, 1, 6)
    direct = 0
    for t in range(64):
        omega = sample(params, t)
        if not any(orbit_allowed(omega, o) for o in orbs):
            direct += 1
    assert row["per_empty_frac"] == pytest.approx(direct / 64)


def test_orbit_experiment_d2_branch():
    cfg = X.ExperimentConfig(d=2, alphabet=2, n=2, alphas=(0.12,), trials=300,
                             seed=23, k_max=6, torus_max=4, orbit_max=4)
    row = X.run_orbit_experiment(cfg).rows[0]
    # every nonempty verdict carries a torus-derived orbit certificate
    assert row["gn_candidates"] == 0
    assert 0.0 <= row["per_empty_frac"] <= 1.0
    p = row["independence_ub"]
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / row["trials"])
    assert row["per_empty_frac"] <= p + 4 * sigma


def test_orbit_experiment_worker_invariance(tmp_path):
    cfg = X.ExperimentConfig(d=2, alphabet=2, n=2, alphas=(0.1,), trials=200,
                             seed=29, k_max=6, torus_max=4, orbit_max=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    X.run_orbit_experiment(cfg).write_csv(a)
    X.run_orbit_experiment(dataclasses.replace(cfg, workers=3)).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_orbit_experiment_1d_certificates_are_checked(monkeypatch):
    # d = 1 rows with no small orbit are certified by decide_empty_batch,
    # whose orbits are checked against the draw: a forged check is refused
    from sftlab import analysis
    from sftlab.errors import CertificateError
    cfg = X.ExperimentConfig(d=1, alphabet=2, n=3, alphas=(0.5,), trials=200,
                             seed=41, orbit_max=1)
    row = X.run_orbit_experiment(cfg).rows[0]
    assert row["nonempty_no_small"] > 0 and row["gn_candidates"] == 0
    monkeypatch.setattr(analysis, "_orbits_allowed",
                        lambda omegas, orbits: np.zeros(len(orbits), dtype=bool))
    with pytest.raises(CertificateError):
        X.run_orbit_experiment(cfg)


def test_verdicts_for_1d_certifies_only_marked_nonempty_rows(monkeypatch):
    from sftlab import analysis
    from sftlab.ensemble import EnsembleParams, sample_bits_batch
    params = EnsembleParams(2, 1, 3, 0.4, 5)
    bits = sample_bits_batch(params, range(100))
    decided = []
    real = analysis.decide_empty_batch

    def spy(omegas, k_max, torus_max):
        decided.extend(o.trial for o in omegas)
        return real(omegas, k_max, torus_max)

    monkeypatch.setattr(analysis, "decide_empty_batch", spy)
    verdicts, certified = X._verdicts_for(params, 10, 0, 0, bits)
    assert decided == [] and certified.all()
    mark = np.arange(100) % 2 == 0
    verdicts2, certified = X._verdicts_for(params, 10, 0, 0, bits, mark)
    assert verdicts2.tolist() == verdicts.tolist() and certified.all()
    nonempty = verdicts == X.VERDICT_NONEMPTY
    assert decided == [10 + i for i in np.flatnonzero(nonempty & mark)]


# SHA-256 of run_entropy_experiment CSVs, recorded before the clamped walk
# started after its head: the d1-entropy bench parameters at four trials, a
# sampled d = 2 case and an exact one
ENTROPY_GOLDEN = {
    "d1-entropy": (dict(d=1, alphabet=2, n=10, alphas=(0.75,), trials=4, seed=20260809, k=40,
                        boundary_samples=256, epsilons=(0.05, 0.1, 0.15, 0.2)),
                   "f0cda4b96cf3f36e9183c727ce6ed6e50870bff04d5f5e3934f7d945dbbf50c5"),
    "d2-sampled": (dict(d=2, alphabet=2, n=2, alphas=(0.8, 0.95), trials=6, seed=7, k=7,
                        boundary_samples=64),
                   "86221aaa65dabf21f757f40cc39098ba7e827efa70ef413858ed2a3bfb4c6432"),
    "exact": (dict(d=2, alphabet=2, n=2, alphas=(0.6, 0.85), trials=8, seed=11, k=5,
                   boundary_samples=0),
              "4ef578659b80aa17ae4d198bd49c405c48a3ee2b3c5042b1d38a960a72a4af5a"),
}


@pytest.mark.parametrize("name", sorted(ENTROPY_GOLDEN))
def test_entropy_csv_matches_golden(name, tmp_path):
    kw, digest = ENTROPY_GOLDEN[name]
    path = tmp_path / "entropy.csv"
    X.run_entropy_experiment(X.ExperimentConfig(**kw)).write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
