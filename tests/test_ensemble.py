import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sftlab import patterns as P
from sftlab.ensemble import (TAG_WINDOW_BITS, AllowedSet, EnsembleParams,
                             bernoulli_threshold, is_locally_allowed, orbit_allowed,
                             pack_lanes, sample, sample_bits_batch, stream_words,
                             unpack_lanes)
from sftlab.errors import DomainError
from sftlab.orbits import enumerate_orbits, orbit_windows


def test_degenerate_alphas():
    full = sample(EnsembleParams(2, 1, 3, 1.0, 7), 0)
    assert full.bits.all()
    none = sample(EnsembleParams(2, 1, 3, 0.0, 7), 0)
    assert not none.bits.any()


def test_threshold_exactness():
    assert bernoulli_threshold(1.0) == 2 ** 53
    assert bernoulli_threshold(0.0) == 0
    assert bernoulli_threshold(0.5) == 2 ** 52
    with pytest.raises(DomainError):
        bernoulli_threshold(1.5)


def test_determinism_and_trial_separation():
    params = EnsembleParams(2, 1, 8, 0.37, 123456789)
    a = sample(params, 5)
    b = sample(params, 5)
    c = sample(params, 6)
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)
    # batch agrees with per-trial sampling
    batch = sample_bits_batch(params, range(4, 8))
    assert np.array_equal(batch[1], a.bits)


def test_bit_frequency_within_3_sigma():
    alpha = 0.31
    params = EnsembleParams(2, 1, 8, alpha, 99)
    bits = sample_bits_batch(params, range(400))  # 102400 draws
    n = bits.size
    assert abs(bits.mean() - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / n)


def test_monotone_coupling_in_alpha():
    seed = 31337
    lo = sample(EnsembleParams(2, 1, 6, 0.25, seed), 3)
    hi = sample(EnsembleParams(2, 1, 6, 0.75, seed), 3)
    assert not (lo.bits & ~hi.bits).any()  # lo <= hi bitwise
    # hence anything locally allowed under lo stays allowed under hi
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = P.Pattern.from_array((rng.random(10) < 0.5).astype(np.uint8), 2)
        if is_locally_allowed(lo, u):
            assert is_locally_allowed(hi, u)


def test_is_locally_allowed_golden_mean():
    bits = np.ones(4, dtype=bool)
    bits[3] = False  # forbid the all-ones window
    omega = AllowedSet(1, 2, 2, bits)
    u_ok = P.Pattern.from_array(np.array([0, 1, 0, 1], dtype=np.uint8), 2)
    u_bad = P.Pattern.from_array(np.array([0, 1, 1, 0], dtype=np.uint8), 2)
    assert is_locally_allowed(omega, u_ok)
    assert not is_locally_allowed(omega, u_bad)
    assert is_locally_allowed(AllowedSet(1, 2, 2, np.ones(4, bool)), u_bad)
    assert not is_locally_allowed(AllowedSet(1, 2, 2, np.zeros(4, bool)), u_ok)


def test_orbit_allowed_examples():
    orbs = enumerate_orbits(2, 1, 2)
    fixed0 = next(o for o in orbs if o.size == 1 and o.symbols == (0,))
    two = next(o for o in orbs if o.size == 2)
    n = 4
    w_fixed = sorted(orbit_windows(fixed0, n))
    assert w_fixed == [0]
    w_two = sorted(orbit_windows(two, n))
    assert w_two == [0b0101, 0b1010]
    bits = np.zeros(16, dtype=bool)
    bits[0b0101] = True
    omega = AllowedSet(1, 4, 2, bits)
    assert not orbit_allowed(omega, two)
    bits[0b1010] = True
    assert orbit_allowed(AllowedSet(1, 4, 2, bits), two)


def test_orbit_allow_probability_matches_window_count():
    # empirical frequency of a size-2 orbit being allowed ~ alpha^2
    alpha = 0.6
    params = EnsembleParams(2, 1, 6, alpha, 2024)
    orb = next(o for o in enumerate_orbits(2, 1, 2) if o.size == 2)
    codes = sorted(orbit_windows(orb, 6))
    assert len(codes) == 2
    trials = 20000
    bits = sample_bits_batch(params, range(trials))
    hits = bits[:, codes].all(axis=1).mean()
    p = alpha ** 2
    assert abs(hits - p) <= 3 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize("d", [1, 2])
def test_disjoint_windows_small_orbits(d):
    # distinct orbits of size at most n/2 never share a window
    for n in range(2, 7):
        max_size = n // 2
        if max_size < 1:
            continue
        orbs = enumerate_orbits(2, d, max_size)
        wins = [orbit_windows(o, n) for o in orbs]
        for i in range(len(orbs)):
            assert len(wins[i]) == orbs[i].size  # full window count below n/2
            for j in range(i + 1, len(orbs)):
                assert not (wins[i] & wins[j]), (d, n, i, j)


def test_save_load_round_trip(tmp_path):
    params = EnsembleParams(2, 2, 2, 0.4, 555)
    omega = sample(params, 9)
    path = tmp_path / "omega.bin"
    omega.save(path)
    back = AllowedSet.load(path)
    assert back == omega
    assert (back.seed, back.trial) == (555, 9)


def test_stream_golden_values():
    # pins the documented stream so upstream generator changes are caught
    words = stream_words(42, TAG_WINDOW_BITS, (1, 8, 2), 7, 4)
    assert [int(x) for x in words] == [
        0xA073FF38FD3F4273, 0xB92BA06561266033,
        0x34B6E42DFDE6CC0C, 0x34B32B2B4FA55CDA]
    omega = sample(EnsembleParams(2, 1, 3, 0.37, 123), 5)
    assert omega.bits.astype(int).tolist() == [1, 0, 0, 0, 1, 1, 0, 0]


@pytest.mark.parametrize("trials", [
    [9, 0, 9, 4, 2, 4],                    # unsorted, repeated
    [2 ** 63, 2 ** 64 - 1, 0, 2 ** 64 - 1],  # the top of the 64-bit counter word
    [],
    range(130),                            # past two blocks of thresholded words
])
def test_batch_rows_are_the_thresholded_streams(trials):
    params = EnsembleParams(3, 1, 3, 0.37, 2024)
    thr = np.uint64(bernoulli_threshold(params.alpha))
    got = sample_bits_batch(params, trials)
    assert got.shape == (len(trials), 27) and got.dtype == bool
    for row, t in zip(got, trials):
        words = stream_words(params.seed, TAG_WINDOW_BITS, (1, 3, 3), t, 27)
        assert np.array_equal(row, (words >> np.uint64(11)) < thr)


def test_batch_golden_digest():
    # recorded with one Philox per trial, before the batch shared one
    bits = sample_bits_batch(EnsembleParams(3, 1, 3, 0.37, 2024),
                             [9, 0, 2 ** 63, 2 ** 64 - 1, 9, 4])
    assert hashlib.sha256(bits.tobytes()).hexdigest() == (
        "e1a48fe666a7b9a9d933c806d6e31d84a7994292cd79663eb30cf9ac87482fcc")


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(st.tuples(st.integers(1, 200), st.integers(1, 40)).flatmap(
    lambda shape: arrays(bool, shape)))
def test_lanes_round_trip(rows):
    lanes = pack_lanes(rows)
    count, w = rows.shape
    assert lanes.dtype == np.uint64 and lanes.shape == (w, -(-count // 64))
    assert np.array_equal(unpack_lanes(lanes, count), rows)
    # bit r of word [w, g] is trial 64 g + r; lanes past the last trial are 0
    r, col = count - 1, w - 1
    assert (int(lanes[col, r // 64]) >> (r % 64)) & 1 == rows[r, col]
    assert not unpack_lanes(lanes, lanes.shape[1] * 64)[count:].any()
