import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftlab import orbits as O
from sftlab import patterns as P
from sftlab.errors import DomainError, ResourceBudgetError


def brute_necklace_counts(alphabet, max_j):
    """Oracle: classify every word by the least period of its cyclic extension;
    orbits of size j = aperiodic necklaces of length j."""
    counts = {j: 0 for j in range(1, max_j + 1)}
    for j in range(1, max_j + 1):
        seen = set()
        for w in range(alphabet ** j):
            word = []
            x = w
            for _ in range(j):
                word.append(x % alphabet)
                x //= alphabet
            word = tuple(word)
            if any(all(word[i] == word[(i + p) % j] for i in range(j))
                   for p in range(1, j)):
                continue  # not least period j
            canon = min(tuple(word[(i + r) % j] for i in range(j)) for r in range(j))
            seen.add(canon)
        counts[j] = len(seen)
    return counts


def brute_torus_counts_d2(alphabet, max_j):
    """Oracle: all j x j torus configurations, classified by exact stabilizer
    index inside Z^2."""
    counts = {}
    for j in range(1, max_j + 1):
        with_index_j = 0
        for w in range(alphabet ** (j * j)):
            cfg = {}
            x = w
            for i in range(j):
                for l in range(j):
                    cfg[(i, l)] = x % alphabet
                    x //= alphabet
            stab = [v for v in ((a, b) for a in range(j) for b in range(j))
                    if all(cfg[((i + v[0]) % j, (l + v[1]) % j)] == cfg[(i, l)]
                           for i in range(j) for l in range(j))]
            index = j * j // len(stab)
            if index == j:
                with_index_j += 1
        counts[j] = with_index_j // j
    return counts


def test_sublattice_counts():
    assert len(O.sublattices(1, 5)) == 1
    assert O.sublattices(1, 5)[0] == ((5,),)
    # d=2: number of index-j sublattices is the divisor sum
    def sigma(j):
        return sum(i for i in range(1, j + 1) if j % i == 0)
    for j in range(1, 13):
        assert len(O.sublattices(2, j)) == sigma(j)
    assert len(O.sublattices(3, 2)) == 7
    assert len(O.sublattices(3, 3)) == 13


def test_sublattice_membership_and_reduction():
    for H in O.sublattices(2, 6):
        cols = O.matrix_columns(H)
        for c in cols:
            assert O.lattice_contains(H, c)
        dom = O.fundamental_domain(H)
        assert len(dom) == 6
        # reduction lands in the domain and is idempotent
        for p in [(7, -3), (0, 0), (-5, 11)]:
            r = O.reduce_point(H, p)
            assert r in dom
            assert O.reduce_point(H, r) == r
            diff = tuple(a - b for a, b in zip(p, r))
            assert O.lattice_contains(H, diff)


def test_count_orbits_d1_matches_brute_force():
    for alphabet in (2, 3):
        brute = brute_necklace_counts(alphabet, 10)
        for j in range(1, 11):
            assert O.count_orbits(alphabet, 1, j).count == brute[j]


def test_count_orbits_d1_known_values():
    assert [O.count_orbits(2, 1, j).count for j in range(1, 7)] == [2, 1, 2, 3, 6, 9]


def test_count_orbits_d2_matches_torus_brute_force():
    brute = brute_torus_counts_d2(2, 3)
    for j in range(1, 4):
        assert O.count_orbits(2, 2, j).count == brute[j]
    assert O.count_orbits(2, 2, 1).count == 2
    assert O.count_orbits(2, 2, 2).count == 3


def test_count_orbits_bounds():
    for (a, d, top) in [(2, 1, 14), (3, 1, 9), (2, 2, 6), (2, 3, 3)]:
        for j in range(1, top + 1):
            c = O.count_orbits(a, d, j).count
            assert c <= (j ** (d + 1)) * (a ** j)
            assert 2 * j * c >= a ** j


def test_count_orbits_budget():
    with pytest.raises(ResourceBudgetError):
        O.count_orbits(2, 3, 100)


def test_enumerate_matches_counts_and_examples():
    orbs = O.enumerate_orbits(2, 1, 2)
    assert [o.size for o in orbs] == [1, 1, 2]
    orbs2 = O.enumerate_orbits(2, 2, 2)
    assert len(orbs2) == 5
    # canonical representatives pairwise distinct (as values)
    assert len(set(orbs2)) == 5
    for j in range(1, 7):
        got = sum(1 for o in O.enumerate_orbits(2, 1, 8) if o.size == j)
        assert got == O.count_orbits(2, 1, j).count


def test_enumeration_checks_against_count_orbits(monkeypatch):
    # a local import, so this module, golden digests included, also loads on
    # older trees that have no CertificateError
    from sftlab.errors import CertificateError
    real = O.count_orbits
    monkeypatch.setattr(O, "count_orbits",
                        lambda a, d, j: O.OrbitCount(j, real(a, d, j).count + (j == 3)))
    assert len(O.enumerate_orbits(2, 1, 2)) == 3
    with pytest.raises(CertificateError):
        O.enumerate_orbits(2, 1, 3)


def test_orbit_windows_counts():
    for o in O.enumerate_orbits(2, 1, 6):
        for n in (4, 6, 8, 12):
            w = O.orbit_windows(o, n)
            assert len(w) <= o.size
            if 2 * o.size <= n:
                assert len(w) == o.size
    fixed = next(o for o in O.enumerate_orbits(2, 1, 1) if o.symbols == (1,))
    assert O.orbit_windows(fixed, 3) == {0b111}
    with pytest.raises(DomainError):
        O.orbit_windows(fixed, 0)


def test_orbit_from_config_canonicalizes():
    # period-4 word that is really period 2
    orb = O.orbit_from_config(((4,),), (0, 1, 0, 1), 2)
    assert orb.size == 2
    # d=2 constant on a (2,2) box
    H = ((2, 0), (0, 2))
    orb2 = O.orbit_from_config(H, (1, 1, 1, 1), 2)
    assert orb2.size == 1


def test_orbit_from_config_long_words_span_several_passes():
    # words this long are canonicalised over several chunks of translates
    rng = np.random.default_rng(7)
    for period, repeats in ((4100, 1), (1500, 3)):
        base = bytes(rng.integers(0, 2, period).tolist())
        orb = O.orbit_from_config(((period * repeats,),), list(base * repeats), 2)
        assert orb.lattice == ((period,),)
        twice = base * 2
        assert bytes(orb.symbols) == min(twice[i:i + period] for i in range(period))


def test_extract_orbit_constant_and_periodic():
    const = P.Pattern.from_array(np.zeros(25, dtype=np.uint8), 2)
    orb = O.extract_orbit(const, 6)
    assert orb.size == 1
    word = np.array([(0, 0, 1)[i % 3] for i in range(25)], dtype=np.uint8)
    u = P.Pattern.from_array(word, 2)
    orb3 = O.extract_orbit(u, 6)
    assert orb3.size == 3
    assert O.orbit_windows(orb3, 6) <= P.windows(u, 6)


def test_extract_orbit_d2():
    f = np.array([[0, 1, 1]], dtype=np.uint8)
    arr = np.zeros((25, 25), dtype=np.uint8)
    for i in range(25):
        for j in range(25):
            arr[i, j] = f[0, j % 3]
    orb = O.extract_orbit(P.Pattern.from_array(arr, 2), 6)
    assert orb.size == 3
    assert O.orbit_windows(orb, 6) <= P.windows(P.Pattern.from_array(arr, 2), 6)
    # periods (2,3): six windows, which exceeds n/2 at n=6 -> no extraction
    g = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    arr2 = np.zeros((25, 25), dtype=np.uint8)
    for i in range(25):
        for j in range(25):
            arr2[i, j] = g[i % 2, j % 3]
    assert O.extract_orbit(P.Pattern.from_array(arr2, 2), 6) is None
    # at n=12 (k=50) the same texture extracts a size-6 orbit
    arr3 = np.zeros((50, 50), dtype=np.uint8)
    for i in range(50):
        for j in range(50):
            arr3[i, j] = g[i % 2, j % 3]
    u3 = P.Pattern.from_array(arr3, 2)
    orb6 = O.extract_orbit(u3, 12)
    assert orb6.size == 6
    assert orb6.size % 1 == 0 and 6 % orb6.size == 0
    assert O.orbit_windows(orb6, 12) <= P.windows(u3, 12)


def test_extract_orbit_requires_large_cube():
    u = P.Pattern.from_array(np.zeros(20, dtype=np.uint8), 2)
    with pytest.raises(DomainError):
        O.extract_orbit(u, 5)


def test_word_periodicity_examples():
    assert O.word_periodicity([0] * 12, 3) == 1
    with pytest.raises(DomainError):
        O.word_periodicity([0] * 9, 3)


def test_word_periodicity_exhaustive_small_window():
    # every length-10 binary word with at most 3 distinct 3-windows has a
    # middle segment of period at most that count (asserted inside the op)
    hits = 0
    for w in range(1024):
        word = [(w >> i) & 1 for i in range(10)]
        j = len({tuple(word[i : i + 3]) for i in range(8)})
        p = O.word_periodicity(word, 3)
        if j <= 3:
            hits += 1
            assert p is not None and p <= j
    assert hits > 0


def test_fine_wilf_consistency():
    # any word with periods p and q and length >= p + q has period gcd(p, q)
    import math as m
    for p in range(1, 6):
        for q in range(1, 6):
            L = p + q + 2
            for w in range(2 ** L):
                word = [(w >> i) & 1 for i in range(L)]
                has_p = all(word[i] == word[i + p] for i in range(L - p))
                has_q = all(word[i] == word[i + q] for i in range(L - q))
                if has_p and has_q:
                    g = m.gcd(p, q)
                    assert all(word[i] == word[i + g] for i in range(L - g))


def test_least_period():
    assert O.least_period([1, 2, 1, 2, 1]) == 2
    assert O.least_period([1, 2, 3]) == 3
    assert O.least_period([5]) == 1


def test_orbit_from_config_non_diagonal_stabilizer():
    # checkerboard seeded on the (2,2) box: true stabilizer is the index-2
    # lattice spanned by (2,0) and (1,1)
    orb = O.orbit_from_config(((2, 0), (0, 2)), (0, 1, 1, 0), 2)
    assert orb.size == 2
    assert orb.lattice == ((2, 1), (0, 1))
    assert O.lattice_contains(orb.lattice, (1, 1))
    assert O.lattice_contains(orb.lattice, (2, 0))


def _superlattice_config(rng, H, lattices, alphabet):
    """Symbols on H's domain of a config drawn periodic under a random
    superlattice of H, so its stabilizer is often coarser than H."""
    cols = O.matrix_columns(H)
    supers = [L for L in lattices if all(O.lattice_contains(L, c) for c in cols)]
    L = supers[int(rng.integers(len(supers)))]
    base = rng.integers(0, alphabet, O.lattice_index(L))
    return base[O.reduce_points(L, O.fundamental_domain(H))].tolist()


def test_stabilizer_from_fixers_properties():
    # the stabilizer is an HNF lattice containing H, and a domain point of H
    # lies in it exactly when it is a fixer (its translate reproduces the config)
    rng = np.random.default_rng(3)
    coarser = 0
    for d, top in ((1, 12), (2, 8), (3, 4)):
        lattices = [H for j in range(1, top + 1) for H in O.sublattices(d, j)]
        for _ in range(100):
            H = lattices[int(rng.integers(len(lattices)))]
            syms = _superlattice_config(rng, H, lattices, 2)
            S = O.orbit_from_config(H, syms, 2).lattice
            coarser += S != H
            for i in range(d):
                assert S[i][i] > 0 and all(S[i][j] == 0 for j in range(i))
                assert all(0 <= S[i][j] < S[i][i] for j in range(i + 1, d))
            assert all(O.lattice_contains(S, c) for c in O.matrix_columns(H))
            dom = O.fundamental_domain(H)
            for v in dom:
                moved = [syms[O.reduce_points(H, [tuple(a + b for a, b in zip(p, v))])[0]]
                         for p in dom]
                assert O.lattice_contains(S, v) == (moved == syms)
    assert 0 < coarser < 300  # both exact and coarser stabilizers occur


def box_orbit_windows(orbit, n):
    """Oracle: the window codes of the orbit's periodic extension to the box
    H[i][i] + n - 1 per axis, whose window anchors are the domain, read with
    sliding_window_view."""
    H = orbit.lattice
    box = np.indices(tuple(H[i][i] + n - 1 for i in range(len(H))))
    arr = np.asarray(orbit.symbols, dtype=np.uint8)[O.reduce_points(H, np.moveaxis(box, 0, -1))]
    return frozenset(P.cube_window_codes(arr, n, orbit.alphabet).tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", [(1, 8), (2, 8), (3, 4)], ids=["d1", "d2", "d3"])
@settings(deadline=None, derandomize=True, database=None, max_examples=4)
@given(data=st.data(), alphabet=st.integers(2, 3))
def test_window_gather_matches_box_oracle(case, n, data, alphabet):
    # every lattice up to the index, with random (not canonical) symbols; the
    # gather runs once for all of them, each orbit also as a batch of one
    d, top = case
    orbits = [O.Orbit(H, tuple(data.draw(st.lists(st.integers(0, alphabet - 1),
                                                  min_size=j, max_size=j))), alphabet)
              for j in range(1, top + 1) for H in O.sublattices(d, j)]
    batched = {}
    for at, codes in O.lattice_window_codes(orbits, n):
        assert codes.shape == (len(at), O.lattice_index(orbits[at[0]].lattice))
        batched.update((int(i), frozenset(row)) for i, row in zip(at, codes.tolist()))
    assert sorted(batched) == list(range(len(orbits)))
    for i, o in enumerate(orbits):
        assert batched[i] == O.orbit_windows(o, n) == box_orbit_windows(o, n)


def test_window_gather_past_62_bits_matches_box_oracle():
    # d = 2, n = 8: 64-cell windows, coded as Python integers
    rng = np.random.default_rng(5)
    orbits = [O.Orbit(H, tuple(rng.integers(0, 2, j).tolist()), 2)
              for j in (1, 4, 6) for H in O.sublattices(2, j)]
    wins = [O.orbit_windows(o, 8) for o in orbits]
    assert wins == [box_orbit_windows(o, 8) for o in orbits]
    assert any(max(w) >= 1 << 63 for w in wins)


def test_orbit_window_table_matches_direct_checks():
    from sftlab.orbits import orbit_window_table, orbit_windows
    orbs, masks, sizes = orbit_window_table(2, 1, 6, 6)
    assert list(sizes) == [o.size for o in orbs]
    for i, o in enumerate(orbs):
        assert set(np.nonzero(masks[i])[0].tolist()) == set(orbit_windows(o, 6))


# ---------------------------------------------------------------------------
# golden digests: every orbit list, window mask and canonical orbit below was
# recorded with the per-word Python implementation that preceded the array
# canonical form, and must never change

def _golden_enumerations():
    for args in ((2, 1, 12), (3, 1, 8), (2, 2, 6), (2, 3, 4)):
        for o in O.enumerate_orbits(*args):
            yield repr((args, o.lattice, o.symbols, o.alphabet)).encode()


def _golden_tables():
    for args in ((2, 1, 8, 12), (2, 2, 3, 4)):
        orbs, masks, sizes = O.orbit_window_table(*args)
        yield repr((args, [(o.lattice, o.symbols) for o in orbs], masks.shape,
                    sizes.tolist())).encode()
        yield masks.tobytes()


def _golden_configs():
    """200 seeded configs per d, on lattices drawn from all those up to index
    8, 6 and 4; half repeat a drawn superlattice, so their stabilizer is
    often coarser than H."""
    rng = np.random.default_rng(2026)
    for d, top in ((1, 8), (2, 6), (3, 4)):
        lattices = [H for j in range(1, top + 1) for H in O.sublattices(d, j)]
        for _ in range(200):
            H = lattices[int(rng.integers(len(lattices)))]
            alphabet = int(rng.integers(2, 4))
            dom = O.fundamental_domain(H)
            if rng.random() < 0.5:
                cols = O.matrix_columns(H)
                supers = [L for L in lattices
                          if all(O.lattice_contains(L, c) for c in cols)]
                L = supers[int(rng.integers(len(supers)))]
                ldom = O.fundamental_domain(L)
                base = rng.integers(0, alphabet, len(ldom)).tolist()
                syms = tuple(base[ldom.index(O.reduce_point(L, p))] for p in dom)
            else:
                syms = tuple(rng.integers(0, alphabet, len(dom)).tolist())
            yield H, syms, alphabet


def _golden_from_config():
    for H, syms, alphabet in _golden_configs():
        o = O.orbit_from_config(H, syms, alphabet)
        yield repr((H, syms, alphabet, o.lattice, o.symbols, o.alphabet)).encode()


GOLDEN = {
    "enumerate_orbits": (
        _golden_enumerations,
        "8b1dc44992fbf6c3b6c6ed5cb2f7fd49c032b2fa091753078994a44161961809"),
    "orbit_window_table": (
        _golden_tables,
        "eeac17de36a274271ae7eae32c171f427e45dca3335e066b218e2465400ecb28"),
    "orbit_from_config": (
        _golden_from_config,
        "f596bd71b78c21e66b34bde3d208f9fbff73008d807aad02ce6ee526a1c18b1f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_orbits_match_golden(name):
    items, digest = GOLDEN[name]
    h = hashlib.sha256()
    for blob in items():
        h.update(blob)
        h.update(b"\n")
    assert h.hexdigest() == digest
