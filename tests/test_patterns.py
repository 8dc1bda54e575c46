from itertools import product

import numpy as np
import pytest

from sftlab import patterns as P
from sftlab.errors import DomainError, ResourceBudgetError
from sftlab.geometry import Cube, PointSet


def brute_histogram(alphabet, n, k):
    """Independent 1-d oracle: enumerate all words, count distinct n-windows
    via plain slicing."""
    out = {}
    for w in range(alphabet ** k):
        word = []
        x = w
        for _ in range(k):
            word.append(x % alphabet)
            x //= alphabet
        word.reverse()
        j = len({tuple(word[i : i + n]) for i in range(k - n + 1)})
        out[j] = out.get(j, 0) + 1
    return out


def test_codec_round_trip_exhaustive():
    for (a, d, n) in [(2, 1, 4), (2, 2, 2), (3, 1, 2)]:
        for code in range(a ** (n ** d)):
            u = P.decode_window(code, n, d, a)
            assert P.encode_window(u.symbols, a) == code


def test_codec_rejects_out_of_range():
    with pytest.raises(DomainError):
        P.decode_window(16, 2, 1, 2)


def test_restrict_examples():
    u = P.Pattern.from_array(np.array([0, 1, 0, 1], dtype=np.uint8), 2)
    sub = u.restrict(Cube((1,), 2))
    assert sub.symbols.tolist() == [1, 0]
    const = P.Pattern.from_array(np.full((3, 3), 1, dtype=np.uint8), 2)
    assert const.restrict(Cube((1, 1), 2)).symbols.tolist() == [1, 1, 1, 1]
    # composition
    s1 = u.restrict(Cube((1,), 3))
    assert s1.restrict(Cube((1,), 2)) == u.restrict(Cube((2,), 2))


def test_translation_invariant_equality():
    a = P.Pattern(Cube((5,), 3), [0, 1, 1], 2)
    b = P.Pattern(Cube((0,), 3), [0, 1, 1], 2)
    assert a == b and hash(a) == hash(b)


def test_windows_examples():
    abab = P.Pattern.from_array(np.array([0, 1, 0, 1], dtype=np.uint8), 2)
    assert P.windows(abab, 2) == frozenset({0b01, 0b10})
    const = P.Pattern.from_array(np.zeros((4, 4), dtype=np.uint8), 2)
    assert len(P.windows(const, 2)) == 1
    with pytest.raises(DomainError):
        P.windows(abab, 5)


def _slicing_oracle_cases():
    rng = np.random.default_rng(0)
    for _ in range(25):
        yield (rng.random((7, 7)) < 0.5).astype(np.uint8), 2, 2
    # codes past 62 bits, in d = 1..3; the tiled ones repeat their windows
    yield rng.integers(0, 2, 90).astype(np.uint8), 70, 2
    yield np.tile(rng.integers(0, 2, (3, 4)), (4, 3)).astype(np.uint8), 9, 2
    yield rng.integers(0, 3, (6, 6, 6)).astype(np.uint8), 4, 3


def test_windows_match_slicing_oracle():
    for arr, n, a in _slicing_oracle_cases():
        u = P.Pattern.from_array(arr, a)
        anchors = product(range(arr.shape[0] - n + 1), repeat=arr.ndim)
        expect = [P.encode_window(arr[tuple(slice(i, i + n) for i in anchor)].reshape(-1), a)
                  for anchor in anchors]
        assert [c for _, c in P.window_positions(u, n)] == expect
        assert P.windows(u, n) == set(expect)


def test_windows_of_tiled_pattern_contain_tile():
    rng = np.random.default_rng(1)
    tile = (rng.random((3, 3)) < 0.5).astype(np.uint8)
    big = np.zeros((9, 9), dtype=np.uint8)
    for i in range(9):
        for j in range(9):
            big[i, j] = tile[i % 3, j % 3]
    u = P.Pattern.from_array(big, 2)
    assert P.encode_window(tile.reshape(-1), 2) in P.windows(u, 3)


def triple_loop_window_cells(shape, n):
    """Oracle: per anchor and per window cell, the wrapped point's flat index."""
    d = len(shape)
    idx = []
    for anchor in product(*(range(s) for s in shape)):
        row = []
        for rel in product(range(n), repeat=d):
            p = tuple((a + r) % s for a, r, s in zip(anchor, rel, shape))
            flat = 0
            for i in range(d):
                flat = flat * shape[i] + p[i]
            row.append(flat)
        idx.append(row)
    return np.asarray(idx, dtype=np.int64)


def test_window_cells_match_triple_loop():
    # sides 1..5 in every d, so some windows wrap more than once around an axis
    for d in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for shape in product(range(1, 6), repeat=d):
                got = P.window_cells(shape, n)
                assert np.array_equal(got, triple_loop_window_cells(shape, n)), (shape, n)


def test_id_window_codes_match_encode_window():
    rng = np.random.default_rng(3)
    for alphabet, cells in ((2, 1), (2, 12), (3, 7)):
        ids = rng.integers(0, alphabet ** cells, 50)
        reads = rng.integers(0, cells, (6, 4))
        got = P.id_window_codes(ids, cells, reads, alphabet)
        for i, row in zip(ids.tolist(), got.tolist()):
            digs = [i // alphabet ** (cells - 1 - c) % alphabet for c in range(cells)]
            assert row == [P.encode_window([digs[c] for c in r], alphabet) for r in reads]


def test_complexity_histogram_frozen_and_oracle():
    # frozen oracle values for the tiny case used by the moment identity
    hist = P.complexity_histogram(2, 1, 2, 4)
    assert hist == {1: 2, 2: 6, 3: 8}
    assert hist == brute_histogram(2, 2, 4)
    # mass and range checks on another case
    h2 = P.complexity_histogram(2, 1, 3, 5)
    assert sum(h2.values()) == 2 ** 5
    assert h2 == brute_histogram(2, 3, 5)
    assert all(1 <= j <= 3 for j in h2)
    # constants are the only single-window patterns
    assert h2[1] == 2


def test_complexity_histogram_d2():
    h = P.complexity_histogram(2, 2, 2, 3)
    assert sum(h.values()) == 2 ** 9
    assert all(1 <= j <= 4 for j in h)
    assert h[1] == 2


def test_complexity_histogram_budget():
    with pytest.raises(ResourceBudgetError):
        P.complexity_histogram(2, 2, 2, 6)


def test_window_table_guard():
    with pytest.raises(ResourceBudgetError):
        P.window_table_size(2, 2, 6)


def test_text_io_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    for arr in [
        (rng.random(7) < 0.5).astype(np.uint8),
        (rng.random((5, 5)) * 3).astype(np.uint8),
    ]:
        u = P.Pattern.from_array(arr, 3)
        path = tmp_path / "pat.txt"
        P.save_text(path, u)
        assert P.load_text(path) == u


def test_window_indices_io(tmp_path):
    path = tmp_path / "w.bin"
    codes = [5, 1, 2 ** 40]
    P.write_window_indices(path, codes)
    assert P.read_window_indices(path) == sorted(codes)
    assert path.read_bytes()[:8] == (1).to_bytes(8, "little")


def test_codec_round_trip_full_16_bit_table():
    # the largest exhaustive codec case the guard allows at 2^16 codes
    n, d, a = 4, 2, 2
    for code in range(a ** (n ** d)):
        u = P.decode_window(code, n, d, a)
        assert P.encode_window(u.symbols, a) == code
