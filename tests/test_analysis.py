import functools
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftlab import analysis as A
from sftlab import patterns as P
from sftlab.ensemble import (AllowedSet, EnsembleParams, orbit_allowed, pack_lanes, sample,
                             unpack_lanes)
from sftlab.errors import CertificateError, DomainError, ResourceBudgetError
from sftlab.orbits import enumerate_orbits, orbit_from_config, orbit_window_table

# deterministic property tests, no example database left behind
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def golden_mean():
    bits = np.ones(4, dtype=bool)
    bits[3] = False
    return AllowedSet(1, 2, 2, bits)


def brute_count_1d(bits, n, k):
    cnt = 0
    for w in range(2 ** k):
        word = [(w >> i) & 1 for i in range(k)][::-1]
        codes = [P.encode_window(word[i : i + n], 2) for i in range(k - n + 1)]
        cnt += all(bits[c] for c in codes)
    return cnt


def brute_count_2d(bits, k):
    cnt = 0
    for w in range(2 ** (k * k)):
        arr = [(w >> i) & 1 for i in range(k * k)]
        ok = True
        for i in range(k - 1):
            for j in range(k - 1):
                code = (arr[i * k + j] * 8 + arr[i * k + j + 1] * 4
                        + arr[(i + 1) * k + j] * 2 + arr[(i + 1) * k + j + 1])
                if not bits[code]:
                    ok = False
                    break
            if not ok:
                break
        cnt += ok
    return cnt


# ---------------------------------------------------------------------------
# 1-d decisions

def test_decide_empty_1d_examples():
    v = A.decide_empty_1d(AllowedSet(1, 2, 2, np.ones(4, bool)))
    assert v.is_nonempty and v.certificate_orbit.size == 1
    v = A.decide_empty_1d(AllowedSet(1, 2, 2, np.zeros(4, bool)))
    assert v.is_empty and v.certificate_k == 2
    bits = np.zeros(4, bool)
    bits[0b01] = bits[0b10] = True
    v = A.decide_empty_1d(AllowedSet(1, 2, 2, bits))
    assert v.is_nonempty and v.certificate_orbit.size == 2


def kahn_longest_path_edges(allowed, alphabet):
    """Longest path (edge count) in the acyclic allowed-window graph by Kahn's
    walk; -1 with no window."""
    s = len(allowed) // alphabet
    verts = [v for v in range(len(allowed)) if allowed[v]]
    if not verts:
        return -1

    def succ(v):
        return [(v % s) * alphabet + a for a in range(alphabet)]

    indeg = {v: 0 for v in verts}
    for v in verts:
        for t in succ(v):
            if t in indeg:
                indeg[t] += 1
    stack = [v for v in verts if indeg[v] == 0]
    dist = {v: 0 for v in verts}
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for t in succ(v):
            if t in indeg:
                dist[t] = max(dist[t], dist[v] + 1)
                indeg[t] -= 1
                if indeg[t] == 0:
                    stack.append(t)
    if seen != len(verts):
        raise CertificateError("pruned-empty window graph has a cycle")
    return max(dist.values())


def oracle_decide_empty_1d(omega):
    """The one-trial d = 1 decision: Kahn's walk for an empty row's
    certificate, orbit_from_config of the shortest cycle for a nonempty one."""
    alive = A.prune_rows(omega.bits[None, :], omega.n, omega.alphabet)[0]
    if alive.any():
        word = A.shortest_allowed_cycle(alive, omega.n, omega.alphabet)
        orbit = orbit_from_config(((len(word),),), word, omega.alphabet)
        assert orbit_allowed(omega, orbit)
        return A.EmptinessVerdict("nonempty", certificate_orbit=orbit,
                                  effort={"cycle_length": len(word)})
    edges = kahn_longest_path_edges(omega.bits, omega.alphabet)
    k_cert = omega.n if edges < 0 else omega.n + edges + 1
    return A.EmptinessVerdict("empty", certificate_k=k_cert,
                              effort={"longest_path_edges": edges})


@pytest.mark.parametrize("trials", [0, 1, 63, 65, 300])
@pytest.mark.parametrize("n, alphabet, alpha", [(2, 2, 0.5), (3, 3, 0.15), (4, 2, 0.45),
                                                (8, 2, 0.4)])
def test_decide_empty_batch_1d_matches_one_trial_oracle(trials, n, alphabet, alpha):
    omegas = [sample(EnsembleParams(alphabet, 1, n, alpha, 17), t) for t in range(trials)]
    got = A.decide_empty_batch(omegas, 0, 0)
    assert len(got) == trials
    for omega, v in zip(omegas, got):
        assert _summary(v) == _summary(oracle_decide_empty_1d(omega))
        assert _summary(A.decide_empty_1d(omega)) == _summary(v)
        assert v.certificate_k is None or type(v.certificate_k) is int
        assert all(type(x) is int for x in v.effort.values())
    if trials >= 63:
        assert {v.verdict for v in got} == {"empty", "nonempty"}


def _prune_empty_rows(rows, n, alphabet):
    """Clear the least surviving window of each row until pruning leaves none."""
    rows = rows.copy()
    while True:
        alive = A.prune_rows(rows, n, alphabet)
        live = alive.any(axis=1)
        if not live.any():
            return rows
        rows[np.flatnonzero(live), alive[live].argmax(axis=1)] = False


@settings(PROPERTY, max_examples=40)
@given(st.data(), st.sampled_from([(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)]))
def test_peel_matches_kahn_on_prune_empty_rows(data, n_alphabet):
    n, alphabet = n_alphabet
    w = alphabet ** n
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=w, max_size=w),
                              min_size=1, max_size=20))
    rows = _prune_empty_rows(np.array(rows, dtype=bool), n, alphabet)
    rounds = A._peel_rounds(rows, alphabet)
    assert [r - 1 for r in rounds.tolist()] == [kahn_longest_path_edges(r, alphabet)
                                                for r in rows]


def test_peel_refuses_a_cycle():
    with pytest.raises(CertificateError):
        A._peel_rounds(np.ones((3, 4), dtype=bool), 2)


# the bool-row d = 1 paths that trial lanes replaced, kept as oracles

def oracle_has_successor(alive, alphabet):
    s = alive.shape[1] // alphabet
    return np.tile(alive.reshape(len(alive), s, alphabet).any(axis=2), alphabet)


def oracle_prune_rows(bits, n, alphabet):
    alive = np.array(bits, dtype=bool, copy=True)
    w = alive.shape[1]
    s = w // alphabet
    prefix_idx = np.arange(w) // alphabet
    while True:
        by_suffix = alive.reshape(-1, alphabet, s).any(axis=1)
        nxt = alive & oracle_has_successor(alive, alphabet) & by_suffix[:, prefix_idx]
        if np.array_equal(nxt, alive):
            return nxt
        alive = nxt


def oracle_peel_rounds(bits, alphabet):
    alive = np.array(bits, dtype=bool, copy=True)
    rounds = np.zeros(len(alive), dtype=np.int64)
    for _ in range(alive.shape[1] + 1):
        live = alive.any(axis=1)
        if not live.any():
            return rounds
        rounds += live
        alive &= oracle_has_successor(alive, alphabet)
    raise CertificateError("pruned-empty window graph has a cycle")


def oracle_allowed_orbit_mask(bits, masks):
    hits = np.asarray(bits, dtype=np.float32) @ masks.T.astype(np.float32)
    return hits == masks.sum(axis=1).astype(np.float32)


LANE_ROWS = [1, 63, 64, 65, 130]


def _random_rows(seed, count, w):
    """count rows of w windows, each retained with a density drawn per row."""
    rng = np.random.default_rng(seed)
    return rng.random((count, w)) < rng.random((count, 1))


@settings(PROPERTY, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(LANE_ROWS), st.integers(2, 6),
       st.sampled_from([2, 3]))
def test_lane_pruning_and_peel_match_bool_rows(seed, count, n, alphabet):
    rows = _random_rows(seed, count, alphabet ** n)
    alive = oracle_prune_rows(rows, n, alphabet)
    got = A.prune_rows(rows, n, alphabet)
    assert got.dtype == bool and np.array_equal(got, alive)
    # without the windows that survive pruning, no row has a cycle left
    acyclic = rows & ~alive
    assert np.array_equal(A._peel_rounds(acyclic, alphabet),
                          oracle_peel_rounds(acyclic, alphabet))


@settings(PROPERTY, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(LANE_ROWS), st.integers(2, 6),
       st.sampled_from([2, 3]), st.integers(0, 6))
def test_lane_orbit_mask_matches_matmul(seed, count, n, alphabet, orbit_max):
    """orbit_max 0 stands for random masks, some rows with no window at all."""
    rows = _random_rows(seed, count, alphabet ** n)
    if orbit_max:
        masks = orbit_window_table(alphabet, 1, n, orbit_max)[1]
    else:
        masks = (np.random.default_rng(seed + 1).random((50, alphabet ** n)) < 0.02
                 ).astype(np.uint8)
    got = A.allowed_orbit_mask(rows, masks)
    assert got.shape == (count, len(masks))
    assert np.array_equal(got, oracle_allowed_orbit_mask(rows, masks))


def test_decide_empty_1d_requires_d1():
    with pytest.raises(DomainError):
        A.decide_empty_1d(AllowedSet(2, 2, 2, np.ones(16, bool)))


def test_certificate_soundness_random_battery():
    params = EnsembleParams(2, 1, 4, 0.35, 4242)
    empties = nonempties = 0
    for t in range(300):
        omega = sample(params, t)
        v = A.decide_empty_1d(omega)
        if v.is_empty:
            empties += 1
            # in-budget exhaustive recheck at the certified size
            if v.certificate_k <= 14:
                assert brute_count_1d(omega.bits, 4, v.certificate_k) == 0
            assert not A.pattern_exists(omega, v.certificate_k)
            if v.certificate_k > omega.n:
                assert A.pattern_exists(omega, v.certificate_k - 1)
        else:
            nonempties += 1
            assert orbit_allowed(omega, v.certificate_orbit)
    assert empties and nonempties


def test_nonempty_iff_orbit_present_1d():
    # structural d=1 equivalence, with the certificate supplying the orbit size
    params = EnsembleParams(2, 1, 4, 0.4, 11)
    for t in range(100):
        omega = sample(params, t)
        v = A.decide_empty_1d(omega)
        if v.is_nonempty:
            assert A.periodic_orbits_present(omega, max(8, v.certificate_orbit.size))
        else:
            assert not A.periodic_orbits_present(omega, 8)


# ---------------------------------------------------------------------------
# counting

def test_count_patterns_1d_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        bits = rng.random(8) < rng.random()
        omega = AllowedSet(1, 3, 2, bits)
        for k in (3, 5, 8):
            assert A.count_patterns(omega, k) == brute_count_1d(bits, 3, k)


def test_count_patterns_examples():
    assert A.count_patterns(golden_mean(), 4) == 8
    full = AllowedSet(1, 2, 2, np.ones(4, bool))
    assert A.count_patterns(full, 9) == 2 ** 9
    full2 = AllowedSet(2, 2, 2, np.ones(16, bool))
    assert A.count_patterns(full2, 3) == 2 ** 9


def test_count_patterns_growth_rate_golden_mean():
    # ratio of consecutive counts approaches the golden ratio
    gm = golden_mean()
    phi_k = [A.count_patterns(gm, k) for k in (20, 21)]
    assert phi_k[1] / phi_k[0] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-3)


def test_count_patterns_1d_fast_matches_exact():
    rng = np.random.default_rng(6)
    for _ in range(10):
        bits = rng.random(16) < 0.7
        omega = AllowedSet(1, 4, 2, bits)
        for k in (4, 9, 15):
            assert A.count_patterns_1d_fast(bits, 4, 2, k) == A.count_patterns(omega, k)


def test_count_patterns_2d_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(8):
        bits = rng.random(16) < 0.8
        omega = AllowedSet(2, 2, 2, bits)
        for k in (2, 3, 4):
            assert A.count_patterns(omega, k) == brute_count_2d(bits, k)
            assert A.pattern_exists(omega, k) == (brute_count_2d(bits, k) > 0)


# ---------------------------------------------------------------------------
# periodic-boundary counts

def test_periodic_count_alpha_one_identity():
    full = AllowedSet(1, 2, 2, np.ones(4, bool))
    for k in (4, 6, 9):
        ell = k - 2 + 1
        assert A.count_periodic_fillins(full, k).count == 2 ** ell
    full2 = AllowedSet(2, 2, 2, np.ones(16, bool))
    for k in (4, 5):
        ell = k - 2 + 1
        assert A.count_periodic_fillins(full2, k).count == 2 ** (ell * ell)


def test_periodic_count_golden_mean_k6():
    # oracle: enumerate all words with the periodic boundary (u5 == u0)
    cnt = 0
    for w in range(64):
        u = [(w >> i) & 1 for i in range(6)]
        if u[5] != u[0]:
            continue
        if all(not (u[i] and u[i + 1]) for i in range(5)):
            cnt += 1
    pc = A.count_periodic_fillins(golden_mean(), 6)
    assert pc.exact and pc.count == cnt == 11
    assert pc.boundary_pool == 8


def test_periodic_count_le_pattern_count():
    rng = np.random.default_rng(8)
    for _ in range(10):
        bits = rng.random(8) < 0.7
        omega = AllowedSet(1, 3, 2, bits)
        for k in (5, 8):
            assert A.count_periodic_fillins(omega, k).count <= A.count_patterns(omega, k)


def test_periodic_count_d2_boundary_sum_oracle():
    # k=5, n=2: one free interior cell; enumerate boundary words x interior
    from itertools import product as iproduct
    rng = np.random.default_rng(9)
    bits = rng.random(16) < 0.85
    omega = AllowedSet(2, 2, 2, bits)
    free, owners = A._boundary_cell_owners(2, 2, 5)
    interior = [(i, j) for i in range(2, 3) for j in range(2, 3)]
    expect = 0
    for word in iproduct((0, 1), repeat=len(free)):
        for ival in iproduct((0, 1), repeat=len(interior)):
            arr = np.zeros((5, 5), dtype=np.uint8)
            for cell, idx in owners.items():
                arr[cell] = word[idx]
            for cell, v in zip(interior, ival):
                arr[cell] = v
            ok = True
            for i in range(4):
                for j in range(4):
                    code = arr[i, j] * 8 + arr[i, j + 1] * 4 + arr[i + 1, j] * 2 + arr[i + 1, j + 1]
                    if not bits[code]:
                        ok = False
                        break
                if not ok:
                    break
            expect += ok
    assert A.count_periodic_fillins(omega, 5).count == expect


def test_periodic_count_monte_carlo_near_exact():
    omega = AllowedSet(1, 3, 2, np.ones(8, bool) ^ (np.arange(8) == 5),
                       seed=3, trial=1)
    exact = A.count_periodic_fillins(omega, 12).count
    mc = A.count_periodic_fillins(omega, 12, boundary_samples=400)
    assert not mc.exact and mc.samples == 400
    spread = max(mc.stderr, 1e-9)
    assert abs(mc.count - exact) <= 5 * spread


def test_periodic_count_needs_k_ge_n():
    with pytest.raises(DomainError):
        A.count_periodic_fillins(golden_mean(), 1)


# ---------------------------------------------------------------------------
# entropy estimates and orbit presence

def test_entropy_estimate_alpha_one():
    full = AllowedSet(1, 2, 2, np.ones(4, bool))
    est = A.entropy_estimate(full, 10)
    assert est.h_upper == pytest.approx(math.log(2))
    assert est.h_per_lower <= est.h_upper


def test_entropy_estimate_empty_is_minus_inf():
    none = AllowedSet(1, 2, 2, np.zeros(4, bool))
    est = A.entropy_estimate(none, 6)
    assert est.pattern_count == 0 and est.h_upper == -math.inf
    assert est.periodic_count == 0 and est.h_per_lower == -math.inf


def test_entropy_lower_chain():
    rng = np.random.default_rng(10)
    for _ in range(10):
        bits = rng.random(8) < 0.8
        omega = AllowedSet(1, 3, 2, bits)
        est = A.entropy_estimate(omega, 9)
        if est.pattern_count > 0 and est.periodic_count > 0:
            assert est.h_per_lower <= est.h_upper + 1e-12


def test_periodic_orbits_present_examples():
    full = AllowedSet(1, 2, 2, np.ones(4, bool))
    assert len(A.periodic_orbits_present(full, 4)) == 2 + 1 + 2 + 3
    none = AllowedSet(1, 2, 2, np.zeros(4, bool))
    assert A.periodic_orbits_present(none, 4) == []


# ---------------------------------------------------------------------------
# d >= 2 decisions

def test_decide_empty_d2_examples():
    full = AllowedSet(2, 2, 2, np.ones(16, bool))
    v = A.decide_empty(full, 8, 6)
    assert v.is_nonempty and v.certificate_orbit.size == 1
    consts = np.zeros(16, bool)
    consts[0] = consts[15] = True
    v = A.decide_empty(AllowedSet(2, 2, 2, consts), 8, 6)
    assert v.is_nonempty and v.certificate_orbit.size == 1
    v = A.decide_empty(AllowedSet(2, 2, 2, np.zeros(16, bool)), 8, 6)
    assert v.is_empty and v.certificate_k == 2
    # checkerboard windows only -> a size-2 orbit
    bits = np.zeros(16, bool)
    bits[0b0110] = bits[0b1001] = True
    v = A.decide_empty(AllowedSet(2, 2, 2, bits), 8, 6)
    assert v.is_nonempty and v.certificate_orbit.size == 2


REAL_ORBITS_ALLOWED = A._orbits_allowed


def _forged(omegas, orbits):
    """The per-lattice certificate check, forged to refuse trial 2."""
    return REAL_ORBITS_ALLOWED(omegas, orbits) & np.array([o.trial != 2 for o in omegas])


def test_forged_certificate_raises(monkeypatch):
    # a nonempty verdict whose orbit fails the window check is refused
    monkeypatch.setattr(A, "_orbits_allowed",
                        lambda omegas, orbits: np.zeros(len(orbits), dtype=bool))
    with pytest.raises(CertificateError):
        A.decide_empty(AllowedSet(2, 2, 2, np.ones(16, bool)), 4, 2)
    with pytest.raises(CertificateError):
        A.decide_empty_1d(AllowedSet(1, 2, 2, np.ones(4, bool)))


def test_forged_cycle_in_a_1d_batch_raises(monkeypatch):
    # one forged row among five d = 1 rows with the same cycle length is refused
    full = [AllowedSet(1, 2, 2, np.ones(4, bool), trial=t) for t in range(5)]
    monkeypatch.setattr(A, "_orbits_allowed", _forged)
    with pytest.raises(CertificateError):
        A.decide_empty_batch(full, 0, 0)
    assert all(v.is_nonempty for v in A.decide_empty_batch(full[:2] + full[3:], 0, 0))


def test_forged_certificate_in_a_batch_raises(monkeypatch):
    # one forged row among five certified at the same shape is refused
    full = [AllowedSet(2, 2, 2, np.ones(16, bool), trial=t) for t in range(5)]
    monkeypatch.setattr(A, "_orbits_allowed", _forged)
    with pytest.raises(CertificateError):
        A.decide_empty_batch(full, 4, 2)
    assert all(v.is_nonempty for v in A.decide_empty_batch(full[:2] + full[3:], 4, 2))


def test_forged_certificate_in_a_two_lattice_batch_raises(monkeypatch):
    # five d = 2 sets first certified on the (2, 2) torus: the checkerboard
    # ones (even trials) by an orbit on the lattice ((2, 1), (0, 1)), the
    # others by the orbit of [[0, 0], [0, 1]] on diag(2, 2)
    checker, corner = np.zeros(16, bool), np.zeros(16, bool)
    checker[[0b0110, 0b1001]] = True
    corner[[0b0001, 0b0010, 0b0100, 0b1000]] = True
    omegas = [AllowedSet(2, 2, 2, corner if t % 2 else checker, trial=t) for t in range(5)]
    verdicts = A.decide_empty_batch(omegas, 4, 2)
    assert [v.certificate_orbit.lattice for v in verdicts[:2]] == [((2, 1), (0, 1)),
                                                                   ((2, 0), (0, 2))]
    assert all(v.effort["torus_shape"] == (2, 2) for v in verdicts)
    # the real check refuses a config its own set forbids, wherever it sits
    cfgs = np.array([[0, 1, 1, 0], [0, 0, 0, 1]] * 2 + [[0, 1, 1, 0]], dtype=np.uint8)
    assert len(A._torus_orbits(omegas, (2, 2), cfgs)) == 5
    cfgs[2] = [0, 0, 0, 1]
    with pytest.raises(CertificateError):
        A._torus_orbits(omegas, (2, 2), cfgs)
    monkeypatch.setattr(A, "_orbits_allowed", _forged)
    with pytest.raises(CertificateError):
        A.decide_empty_batch(omegas, 4, 2)
    assert all(v.is_nonempty for v in A.decide_empty_batch(omegas[:2] + omegas[3:], 4, 2))


def test_forged_certificate_raises_under_python_O():
    script = "\n".join([
        "import numpy as np",
        "from sftlab import analysis as A",
        "from sftlab.ensemble import AllowedSet",
        "from sftlab.errors import CertificateError",
        "real = A._orbits_allowed",
        "A._orbits_allowed = lambda omegas, orbits: (",
        "    real(omegas, orbits) & np.array([o.trial != 2 for o in omegas]))",
        "full = [AllowedSet(2, 2, 2, np.ones(16, bool), trial=t) for t in range(5)]",
        "checker, corner = np.zeros(16, bool), np.zeros(16, bool)",
        "checker[[6, 9]] = corner[[1, 2, 4, 8]] = True",
        "mixed = [AllowedSet(2, 2, 2, corner if t % 2 else checker, trial=t) for t in range(5)]",
        "print(__debug__)",
        "for call in (lambda: A.decide_empty(full[2], 4, 2),",
        "             lambda: A.decide_empty_batch(full, 4, 2),",
        "             lambda: A.decide_empty_batch(mixed, 4, 2),",
        "             lambda: A.decide_empty_1d(AllowedSet(1, 2, 2, np.ones(4, bool), trial=2)),",
        "             lambda: A.decide_empty_batch(",
        "                 [AllowedSet(1, 2, 2, np.ones(4, bool), trial=t) for t in range(5)], 0, 0)):",
        "    try:",
        "        call()",
        "    except CertificateError:",
        "        print('raised')",
    ])
    src = str(Path(A.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"] + ["raised"] * 5


@settings(PROPERTY, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(1, 3, 2, 6), (1, 2, 3, 4), (2, 2, 2, 4), (2, 1, 3, 3), (3, 1, 2, 2)]))
def test_batched_certificate_check_matches_orbit_allowed(seed, case):
    # orbits on every lattice up to the size, each row with its own bits
    d, n, alphabet, top = case
    rng = np.random.default_rng(seed)
    pool = enumerate_orbits(alphabet, d, top)
    orbits = [pool[i] for i in rng.integers(len(pool), size=40)]
    width = alphabet ** (n ** d)
    omegas = [AllowedSet(d, n, alphabet, rng.random(width) < 0.9, trial=t) for t in range(40)]
    assert A._orbits_allowed(omegas, orbits).tolist() == [
        orbit_allowed(omega, o) for omega, o in zip(omegas, orbits)]


def test_decide_empty_d2_verdicts_sound():
    params = EnsembleParams(2, 2, 2, 0.12, 99)
    unknown = 0
    for t in range(300):
        omega = sample(params, t)
        v = A.decide_empty(omega, 6, 4)
        if v.is_empty:
            assert A.count_patterns(omega, v.certificate_k) == 0
        elif v.is_nonempty:
            assert orbit_allowed(omega, v.certificate_orbit)
        else:
            unknown += 1
            # unknown trials really do have patterns at the cutoff
            assert A.pattern_exists(omega, 6)
    assert unknown <= 10


def test_decide_empty_unknown_when_cutoffs_tiny():
    # nonempty system, but searches not allowed to run
    full = AllowedSet(2, 2, 2, np.ones(16, bool))
    v = A.decide_empty(full, 0, 0)
    assert v.verdict == "unknown"


def torus_direct(omega, shape):
    """The direct torus search on a batch of one."""
    found, cfgs = A._torus_direct_lanes(pack_lanes(omega.bits[None, :]), 1, shape,
                                        omega.n, omega.alphabet)
    return tuple(cfgs[0].tolist()) if found[0] else None


def test_torus_transfer_matches_direct():
    rng = np.random.default_rng(11)
    for _ in range(30):
        bits = rng.random(16) < rng.random()
        omega = AllowedSet(2, 2, 2, bits)
        for shape in ((2, 2), (2, 3), (3, 2), (3, 3)):
            assert torus_direct(omega, shape) == A._torus_transfer(omega, shape)


def test_decide_empty_budget_clips_to_unknown():
    # n=3 frontier states blow the budget past k=9; the verdict degrades to
    # an honest unknown instead of raising
    bits = np.ones(2 ** 9, dtype=bool)
    bits[0] = bits[-1] = False  # no constant fill, keep it undecided-ish
    rng = np.random.default_rng(1)
    bits &= rng.random(512) < 0.6
    omega = AllowedSet(2, 3, 2, bits)
    v = A.decide_empty(omega, 40, 1)
    assert v.verdict in ("empty", "nonempty", "unknown")
    if v.verdict == "unknown":
        assert "budget_clipped" in v.effort


def test_entropy_upper_bound_decreases_to_golden_mean_rate():
    # (1/k) log(count) decreases in k toward log((1+sqrt(5))/2)
    gm = golden_mean()
    target = math.log((1 + math.sqrt(5)) / 2)
    hs = [math.log(A.count_patterns(gm, k)) / k for k in (5, 10, 20, 40)]
    assert all(a >= b - 1e-12 for a, b in zip(hs, hs[1:]))
    assert hs[-1] == pytest.approx(target, abs=0.02)
    assert all(h >= target for h in hs)


def torus_brute_search(bits, shape, n, alphabet=2):
    # the first config in lex order whose every wrapped window is allowed
    reads = P.window_cells(shape, n)
    for digs in product(range(alphabet), repeat=math.prod(shape)):
        if all(bits[P.encode_window([digs[i] for i in row], alphabet)] for row in reads):
            return digs
    return None


def test_torus_transfer_n3_matches_brute_force():
    rng = np.random.default_rng(0)
    for t in range(5):
        bits = rng.random(512) < 0.75
        omega = AllowedSet(2, 3, 2, bits)
        brute = torus_brute_search(bits, (3, 5), 3)
        got = A._torus_transfer(omega, (3, 5))
        assert (brute is None) == (got is None), t
        if got is not None:
            reads = P.window_cells((3, 5), 3)
            codes = [sum(got[i] * (2 ** (9 - 1 - s)) for s, i in enumerate(row))
                     for row in reads]
            assert all(bits[c] for c in codes)


def brute_count_3d_k2(bits):
    cnt = 0
    for w in range(256):
        digs = np.array([(w >> i) & 1 for i in range(8)], dtype=np.uint8).reshape(2, 2, 2)
        code = 0
        for s in digs.reshape(-1):
            code = code * 2 + int(s)
        cnt += bool(bits[code])
    return cnt


def test_count_patterns_d3():
    rng = np.random.default_rng(1)
    for _ in range(5):
        bits = rng.random(256) < 0.9
        omega = AllowedSet(3, 2, 2, bits)
        bc = brute_count_3d_k2(bits)
        assert A.count_patterns(omega, 2) == bc
        assert A.pattern_exists(omega, 2) == (bc > 0)
    full = AllowedSet(3, 2, 2, np.ones(256, bool))
    assert A.count_patterns(full, 3) == 2 ** 27


def test_periodic_count_d2_monte_carlo_near_exact():
    rng = np.random.default_rng(2)
    omega = AllowedSet(2, 2, 2, rng.random(16) < 0.9, seed=17, trial=2)
    exact = A.count_periodic_fillins(omega, 5).count
    mc = A.count_periodic_fillins(omega, 5, boundary_samples=500)
    assert abs(mc.count - exact) <= 5 * max(mc.stderr, 1.0)


def test_decide_empty_d3_tiny():
    full = AllowedSet(3, 2, 2, np.ones(256, bool))
    v = A.decide_empty(full, 3, 2)
    assert v.is_nonempty and v.certificate_orbit.size == 1
    v = A.decide_empty(AllowedSet(3, 2, 2, np.zeros(256, bool)), 3, 2)
    assert v.is_empty and v.certificate_k == 2


# ---------------------------------------------------------------------------
# trial lanes against the one-trial searches

def oracle_torus(omega, shape):
    """The one-trial torus search: a bool gather over every config of a small
    shape, the slab transfer past TORUS_DIRECT_BUDGET."""
    vol, a = math.prod(shape), omega.alphabet
    if a ** vol > A.TORUS_DIRECT_BUDGET:
        return A._torus_transfer(omega, shape)
    ok = omega.bits[A._torus_table(tuple(shape), omega.n, a, vol)].all(axis=1)
    if not ok.any():
        return None
    first = int(np.argmax(ok))
    return tuple(first // a ** (vol - 1 - c) % a for c in range(vol))


def oracle_decide_empty(omega, k_max, torus_max):
    """The one-trial stage schedule, with existence by the float64 count
    frontier and each certificate by orbit_from_config."""
    n, d, a = omega.n, omega.d, omega.alphabet
    shapes = sorted(
        product(*(range(1, torus_max + 1),) * d),
        key=lambda s: (max(s), math.prod(s), s),
    ) if torus_max >= 1 else []
    checked_k = tori_tried = 0
    clipped = []
    k_ceiling, torus_ceiling = k_max, torus_max
    step = 0
    while True:
        k = n + step
        progress = False
        if k <= k_ceiling:
            try:
                progress = True
                checked_k = k
                if not A._frontier_weights(omega.bits, d, n, a, k, np.float64).any():
                    return A.EmptinessVerdict(
                        "empty", certificate_k=k,
                        effort={"k_checked": k, "tori_tried": tori_tried})
            except ResourceBudgetError:
                k_ceiling = checked_k = k - 1
                clipped.append(f"k>{k - 1}")
        for shape in shapes:
            if max(shape) != step + 1 or max(shape) > torus_ceiling:
                continue
            progress = True
            try:
                tori_tried += 1
                cfg = oracle_torus(omega, shape)
            except ResourceBudgetError:
                torus_ceiling = max(shape) - 1
                clipped.append(f"torus>{max(shape) - 1}")
                break
            if cfg is not None:
                H = tuple(tuple(shape[i] if i == j else 0 for j in range(d))
                          for i in range(d))
                orbit = orbit_from_config(H, cfg, a)
                assert orbit_allowed(omega, orbit)
                return A.EmptinessVerdict(
                    "nonempty", certificate_orbit=orbit,
                    effort={"k_checked": checked_k, "tori_tried": tori_tried,
                            "torus_shape": shape})
        if not progress:
            effort = {"k_checked": checked_k, "tori_tried": tori_tried}
            if clipped:
                effort["budget_clipped"] = clipped
            return A.EmptinessVerdict("unknown", effort=effort)
        step += 1


def _summary(v):
    return v.verdict, v.certificate_k, v.certificate_orbit, v.effort


# (d, n, |A|, alpha, trials, k_max, torus_max); no trial count is a multiple
# of 64.  d = 2, |A| = 3 certifies some trials on (3, 3) through the slab
# transfer, and d = 3, |A| = 3 clips the existence search past k = 2.
LANE_CASES = [
    (2, 2, 2, 0.25, 130, 6, 4),
    (2, 3, 2, 0.25, 65, 6, 4),
    (2, 2, 3, 0.2, 90, 5, 3),
    (3, 2, 2, 0.15, 63, 3, 2),
    (3, 2, 3, 0.3, 70, 3, 1),
]


@pytest.mark.parametrize("d, n, alphabet, alpha, trials, k_max, torus_max", LANE_CASES)
def test_decide_empty_batch_matches_one_trial_oracle(d, n, alphabet, alpha, trials,
                                                     k_max, torus_max):
    omegas = [sample(EnsembleParams(alphabet, d, n, alpha, 31), t) for t in range(trials)]
    got = A.decide_empty_batch(omegas, k_max, torus_max)
    want = [oracle_decide_empty(o, k_max, torus_max) for o in omegas]
    assert [_summary(v) for v in got] == [_summary(v) for v in want]
    assert [_summary(A.decide_empty(o, k_max, torus_max)) for o in omegas[:3]] == \
        [_summary(v) for v in want[:3]]
    assert len({v.verdict for v in got}) >= 2


def test_decide_empty_batch_reports_budget_clips():
    omegas = [sample(EnsembleParams(3, 3, 2, 0.5, 31), t) for t in range(70)]
    clipped = [v for v in A.decide_empty_batch(omegas, 3, 1) if v.verdict == "unknown"]
    assert clipped and all(v.effort["budget_clipped"] == ["k>2"] for v in clipped)


def test_decide_empty_batch_split_anywhere():
    omegas = [sample(EnsembleParams(2, 2, 2, 0.3, 5), t) for t in range(130)]
    whole = [_summary(v) for v in A.decide_empty_batch(omegas, 6, 3)]
    for cut in (0, 1, 63, 64, 65, 129, 130):
        parts = (A.decide_empty_batch(omegas[:cut], 6, 3)
                 + A.decide_empty_batch(omegas[cut:], 6, 3))
        assert [_summary(v) for v in parts] == whole, cut


def test_decide_empty_batch_needs_one_parameter_set():
    with pytest.raises(DomainError):
        A.decide_empty_batch([AllowedSet(2, 2, 2, np.ones(16, bool)),
                              AllowedSet(2, 1, 2, np.ones(2, bool))], 3, 1)
    assert A.decide_empty_batch([], 3, 1) == []


@functools.lru_cache(maxsize=None)
def _brute_exists_2d(row, k):
    return brute_count_2d(row, k) > 0


@settings(PROPERTY, max_examples=20)
@given(st.lists(st.integers(0, 2 ** 16 - 1), min_size=1, max_size=70),
       st.sampled_from([2, 3]))
def test_lane_existence_matches_brute_force(masks, k):
    rows = np.array([[(m >> c) & 1 for c in range(16)] for m in masks], dtype=bool)
    words = A._exists_lanes(pack_lanes(rows), 2, 2, 2, k)
    got = unpack_lanes(words[None, :], len(rows))[:, 0]
    assert got.tolist() == [_brute_exists_2d(tuple(r), k) for r in rows.tolist()]


@settings(PROPERTY, max_examples=30)
@given(st.data(), st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 2), (2, 3)]),
       st.sampled_from([(1, 2), (1, 3), (2, 2)]))
def test_lane_direct_torus_is_first_hit_of_brute_force(data, shape, n_alphabet):
    n, alphabet = n_alphabet
    w = alphabet ** (n * n)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=w, max_size=w),
                              min_size=1, max_size=70))
    rows = np.array(rows, dtype=bool)
    found, cfgs = A._torus_direct_lanes(pack_lanes(rows), len(rows), shape, n, alphabet)
    for row, f, cfg in zip(rows, found, cfgs):
        want = torus_brute_search(row, shape, n, alphabet)
        assert (tuple(cfg.tolist()) if f else None) == want


# ---------------------------------------------------------------------------
# the shared frontier recursion at its edges

def test_d1_fill_counts_sum_to_closed_walk_count():
    # every boundary of the pool, folded through the clamped frontier, against
    # the independent closed-walk trace; small k also per boundary by brute force
    from itertools import product as iproduct
    rng = np.random.default_rng(12)
    for n in (2, 3):
        for k in range(2 * n, 2 * n + 4):
            for _ in range(4):
                bits = rng.random(2 ** n) < rng.uniform(0.4, 0.95)
                omega = AllowedSet(1, n, 2, bits)
                free, owners = A._boundary_cell_owners(1, n, k)
                syms = np.array(list(iproduct((0, 1), repeat=len(free))), dtype=np.int64)
                fills = A._fill_counts(omega, k, syms)
                assert fills.sum() == A.count_periodic_fillins(omega, k).count
                if k > 8:
                    continue
                expect = {}
                for word in iproduct((0, 1), repeat=k):
                    if all(word[c] == word[free[i][0]] for (c,), i in owners.items()) and all(
                            bits[P.encode_window(word[i : i + n], 2)]
                            for i in range(k - n + 1)):
                        key = tuple(word[p[0]] for p in free)
                        expect[key] = expect.get(key, 0) + 1
                got = {tuple(s): f for s, f in zip(syms.tolist(), fills.tolist())}
                assert all(got[key] == expect.get(key, 0) for key in got)


def test_d2_n1_decides_and_counts():
    # n = 1 windows are single cells: the frontier is one cell wide
    rng = np.random.default_rng(13)
    for alphabet in (2, 3):
        for _ in range(4):
            bits = rng.random(alphabet) < 0.6
            omega = AllowedSet(2, 1, alphabet, bits)
            v = A.decide_empty(omega, 3, 2)
            assert v.verdict == ("nonempty" if bits.any() else "empty")
            for k in (1, 2, 3, 4):
                assert A.count_patterns(omega, k) == int(bits.sum()) ** (k * k)
                assert A.pattern_exists(omega, k) == bool(bits.any())


# the full clamped walk that the clamped head start and the one-branch clamps
# replaced, kept as an oracle: every cell from the first, all |A| branches
# written and then multiplied by the row's clamp mask

def oracle_walk(omega, k, dtype, syms=None):
    d, n, a_ = omega.d, omega.n, omega.alphabet
    m, codes = A._frontier_tables(d, n, a_, k)
    owners = {} if syms is None else A._boundary_cell_owners(d, n, k)[1]
    batch, sub = 1 if syms is None else len(syms), a_ ** (m - 1)
    check = omega.bits[codes].reshape(a_, sub)
    w = np.zeros((batch, a_, sub), dtype=dtype)
    w[:, 0, 0] = 1
    for cell in product(range(k), repeat=d):
        old = w.reshape(batch, sub, a_)
        agg = old[:, :, 0].copy()
        for a in range(1, a_):
            agg = agg + old[:, :, a]
        clamp = owners.get(cell)
        for a in range(a_):
            w[:, a] = agg * check[a] if min(cell) >= n - 1 else agg
            if clamp is not None:
                w[:, a] = w[:, a] * (syms[:, clamp] == a)[:, None]
    return w.reshape(batch, -1).sum(axis=1)


FILL_CASES = [(d, n, a, k) for d in (1, 2, 3) for n in (1, 2, 3) for a in (2, 3)
              for k in range(2 * n, 2 * n + 4) if a ** A._span(d, n, k) <= 1 << 14]


def _omega_for(kind, d, n, alphabet, rng):
    """All windows allowed, all but one, or a random share of them."""
    bits = np.ones(alphabet ** (n ** d), dtype=bool)
    if kind == "one-removed":
        bits[rng.integers(len(bits))] = False
    elif kind == "random":
        bits = rng.random(len(bits)) < rng.uniform(0.5, 1.0)
    return AllowedSet(d, n, alphabet, bits)


@settings(PROPERTY, max_examples=60)
@given(st.data(), st.sampled_from(FILL_CASES),
       st.sampled_from(["all", "one-removed", "random"]), st.integers(0, 2 ** 32 - 1))
def test_fill_counts_match_full_clamped_walk(data, case, kind, seed):
    # a 2^14-weight pass budget puts the chunk seams of _fill_counts at a few
    # rows for the widest frontiers; every batch size sits on or past a seam
    d, n, alphabet, k = case
    rng = np.random.default_rng(seed)
    omega = _omega_for(kind, d, n, alphabet, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "FRONTIER_BUDGET_BITS", 14)
        chunk = max(1, (1 << 14) // alphabet ** A._span(d, n, k))
        rows = data.draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3]))
        syms = rng.integers(0, alphabet, (max(rows, 1), len(A._free_boundary_cells(d, n, k))))
        got = A._fill_counts(omega, k, syms)
    assert got.dtype == A._exact_dtype(alphabet, (k - 2 * n) ** d)
    want = oracle_walk(omega, k, np.float64, syms)  # exact: at most 3^27 < 2^52
    assert [int(x) for x in got] == [int(x) for x in want]


def test_fill_counts_cross_the_pass_budget_of_a_wide_frontier():
    # d = 2, n = 3, k = 6: 2^15 states, so a pass holds 128 boundaries
    rng = np.random.default_rng(17)
    omega = _omega_for("one-removed", 2, 3, 2, rng)
    syms = rng.integers(0, 2, (130, len(A._free_boundary_cells(2, 3, 6))))
    syms[126:] = 0  # the all-zero boundary, on both sides of the seam
    got = A._fill_counts(omega, 6, syms)
    seam = [0, 126, 127, 128, 129]
    assert got[seam].tolist() == oracle_walk(omega, 6, np.float64, syms[seam]).tolist()
    assert got[128] > 0


# the exactness guard at its edges: 2^24 (float32 | float64) and 2^52
# (float64 | exact ints), against exact ints, on all-allowed and one-removed
# allowed sets

def exact_periodic_count_n2(bits, alphabet, ell):
    # d = 1, n = 2: the ell-periodic points are the trace of T^ell, where
    # T[x][y] = bits[xy], in Python ints
    T = [[int(bits[x * alphabet + y]) for y in range(alphabet)] for x in range(alphabet)]
    power = T
    for _ in range(ell - 1):
        power = [[sum(power[x][z] * T[z][y] for z in range(alphabet)) for y in range(alphabet)]
                 for x in range(alphabet)]
    return sum(power[x][x] for x in range(alphabet))


GUARD_EDGES = [(2, 24, np.float32), (2, 25, np.float64), (3, 15, np.float32),
               (3, 16, np.float64), (2, 52, np.float64), (2, 53, object)]


@pytest.mark.parametrize("alphabet, free, dtype", GUARD_EDGES)
def test_exactness_guard_edges(alphabet, free, dtype):
    assert A._exact_dtype(alphabet, free) is dtype
    n = 2
    full = AllowedSet(1, n, alphabet, np.ones(alphabet ** n, dtype=bool))
    cut = AllowedSet(1, n, alphabet, np.arange(alphabet ** n) != alphabet + 1)  # forbid "11"
    # fill counts with free interior cells, k - 2n of them
    k = free + 2 * n
    syms = np.array([[0, 1, 0], [1, 1, 1], [0, 0, 0]])  # cells 0, 1 and k-2
    got = A._fill_counts(full, k, syms)
    assert got.dtype == dtype and all(int(x) == alphabet ** free for x in got)
    got = A._fill_counts(cut, k, syms)
    want = oracle_walk(cut, k, object, syms)
    assert got.dtype == dtype and [int(x) for x in got] == want.tolist()
    assert 0 < want[0] < alphabet ** free
    # pattern counts over k = free cells
    assert A.count_patterns(full, free) == alphabet ** free
    assert A.count_patterns(cut, free) == oracle_walk(cut, free, object)[0]
    # the exact periodic count over free = ell torus cells
    ell = free
    assert A.count_periodic_fillins(full, ell + n - 1).count == float(alphabet ** ell)
    assert (A.count_periodic_fillins(cut, ell + n - 1).count
            == float(exact_periodic_count_n2(cut.bits, alphabet, ell)))


# ---------------------------------------------------------------------------
# the cyclic slab transfer: exact periodic counts against the torus itself

def brute_torus_count(omega, shape):
    # every config on the wraparound shape, each window read directly
    A_, vol = omega.alphabet, math.prod(shape)
    digs = np.array(list(np.ndindex(*(A_,) * vol)), dtype=np.int64).reshape(-1, vol)
    weights = A_ ** np.arange(omega.n ** omega.d - 1, -1, -1, dtype=np.int64)
    ok = np.ones(len(digs), dtype=bool)
    for row in P.window_cells(shape, omega.n):
        ok &= omega.bits[digs[:, row] @ weights]
    return int(ok.sum())


def test_periodic_count_matches_torus_brute_force():
    rng = np.random.default_rng(14)
    cases = ([(1, n, a, ell) for n in (1, 2, 3, 4) for a in (2, 3) for ell in range(1, 11)
              if a ** ell <= 1 << 12]
             + [(2, n, 2, ell) for n in (2, 3) for ell in (1, 2, 3, 4)]
             + [(2, 2, 3, ell) for ell in (1, 2, 3)]
             + [(3, 2, 2, 2)])
    for d, n, alphabet, ell in cases:
        for _ in range(2):
            bits = rng.random(alphabet ** (n ** d)) < rng.uniform(0.5, 0.95)
            omega = AllowedSet(d, n, alphabet, bits)
            pc = A.count_periodic_fillins(omega, ell + n - 1)
            assert pc.exact
            assert pc.count == brute_torus_count(omega, (ell,) * d), (d, n, alphabet, ell)


def test_periodic_count_alpha_one_identity_d2_large_pool():
    # boundary pools of 2^21 and 2^32: the count is the torus volume's power
    full2 = AllowedSet(2, 2, 2, np.ones(16, bool))
    for k in (6, 7):
        ell = k - 2 + 1
        assert A.count_periodic_fillins(full2, k).count == 2 ** (ell * ell)


def test_torus_direct_is_first_hit_of_brute_force():
    # lex-least config by plain enumeration, d = 2 and 3, hits and misses
    rng = np.random.default_rng(16)
    cases = ([(2, n, a, s) for n in (1, 2) for a in (2, 3)
              for s in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 3))]
             + [(3, 2, 2, s) for s in ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 2))])
    hits = misses = 0
    for d, n, alphabet, shape in cases:
        for _ in range(3):
            bits = rng.random(alphabet ** (n ** d)) < rng.uniform(0.3, 0.95)
            omega = AllowedSet(d, n, alphabet, bits)
            got = torus_direct(omega, shape)
            assert got == torus_brute_search(bits, shape, n, alphabet), (d, n, alphabet, shape)
            hits += got is not None
            misses += got is None
    assert hits and misses


def test_torus_transfer_d3_matches_direct():
    rng = np.random.default_rng(15)
    for _ in range(10):
        bits = rng.random(256) < rng.uniform(0.5, 0.95)
        omega = AllowedSet(3, 2, 2, bits)
        for shape in ((1, 2, 2), (2, 1, 3), (2, 2, 2), (3, 2, 2)):
            assert A._torus_transfer(omega, shape) == torus_direct(omega, shape)


def test_torus_transfer_n1_skips_a_forbidden_symbol():
    # n = 1 keeps no slabs in the state, so the config comes from the slabs
    # appended along the walk: here the lex-least one avoids symbol 0
    omega = AllowedSet(2, 1, 3, np.array([False, True, True]))
    for shape in ((2, 2), (2, 3), (3, 3), (4, 4)):
        vol = math.prod(shape)
        assert A._torus_transfer(omega, shape) == (1,) * vol
        assert A.torus_config(omega, shape) == (1,) * vol
