"""Finite orbits of the full Z^d shift: sublattice enumeration in Hermite
normal form, exact orbit counting by Mobius inversion over the sublattice
poset, canonical orbit enumeration, window sets, and extraction of a small
orbit from a low-complexity pattern.

An orbit is stored as (HNF lattice, fundamental-domain symbols): the lattice is
upper triangular in column style (basis vectors are the columns, zeros below
the diagonal, row entries reduced modulo the diagonal), its determinant is the
orbit size, and the fundamental domain is {x : 0 <= x_i < H[i][i]} read in lex
order.  The stored symbols are the lex-least among all domain translates, so
orbit equality is plain tuple comparison.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import CertificateError, DomainError, ResourceBudgetError
from . import patterns as pt

ENUM_BUDGET = 1 << 22   # max configurations per enumeration, symbol entries per pass
COUNT_BUDGET = {1: 400, 2: 40, 3: 12}


# ---------------------------------------------------------------------------
# Hermite normal form (column-style, upper triangular)

def hnf_from_columns(cols, d: int):
    """HNF of the lattice generated by the given column vectors.

    Requires full rank (the generated lattice has finite index).
    """
    work = [list(c) for c in cols]

    def col_sub(a, b, q):  # a -= q*b
        for i in range(d):
            a[i] -= q * b[i]

    result = [None] * d
    for row in range(d - 1, -1, -1):
        cand = [c for c in work if any(c[i] for i in range(row + 1)) or c[row]]
        cand = [c for c in cand if all(c[i] == 0 for i in range(row + 1, d))]
        live = [c for c in cand if c[row] != 0]
        if not live:
            raise DomainError("generators do not span a finite-index lattice")
        # gcd elimination on this row
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            a, b = live[0], live[1]
            q = b[row] // a[row]
            col_sub(b, a, q)
            live = [c for c in live if c[row] != 0]
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        for c in work:
            if c is not piv and all(c[i] == 0 for i in range(row + 1, d)) and c[row]:
                q = c[row] // piv[row]
                col_sub(c, piv, q)
        result[row] = list(piv)
        work = [c for c in work if c is not piv and any(c)]
    # off-diagonal reduction: 0 <= H[i][l] < H[i][i] for l > i
    for l in range(d):
        for i in range(l - 1, -1, -1):
            q = result[l][i] // result[i][i]
            if q:
                for r in range(d):
                    result[l][r] -= q * result[i][r]
    cols_out = tuple(tuple(c) for c in result)
    return _cols_to_matrix(cols_out, d)


def _cols_to_matrix(cols, d: int):
    """Columns -> row-major matrix tuple H with H[i][j] = cols[j][i]."""
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def matrix_columns(H):
    d = len(H)
    return [tuple(H[i][j] for i in range(d)) for j in range(d)]


def lattice_index(H) -> int:
    out = 1
    for i in range(len(H)):
        out *= H[i][i]
    return out


def lattice_contains(H, v) -> bool:
    """Solve H x = v over the integers (H upper triangular)."""
    d = len(H)
    x = [0] * d
    for i in range(d - 1, -1, -1):
        rhs = v[i] - sum(H[i][j] * x[j] for j in range(i + 1, d))
        if rhs % H[i][i]:
            return False
        x[i] = rhs // H[i][i]
    return True


def reduce_points(H, pts) -> np.ndarray:
    """Flat lex indices, in the box fundamental domain, of points (..., d)
    modulo the lattice."""
    d = len(H)
    x = np.array(pts, dtype=np.int64)
    for j in range(d - 1, -1, -1):
        q = x[..., j] // H[j][j]
        for i in range(j + 1):
            x[..., i] -= q * H[i][j]
    diag = _diagonal(H)
    return x @ np.array([math.prod(diag[i + 1:]) for i in range(d)], dtype=np.int64)


def reduce_point(H, p):
    """Canonical representative of p modulo the lattice: 0 <= x_i < H[i][i]."""
    flat = reduce_points(H, [p])[0]
    return tuple(int(x) for x in np.unravel_index(flat, _diagonal(H)))


def _diagonal(H):
    return tuple(H[i][i] for i in range(len(H)))


def fundamental_domain(H):
    """Lex-ordered points of the box fundamental domain."""
    return list(product(*(range(H[i][i]) for i in range(len(H)))))


def _domain_array(H) -> np.ndarray:
    """The fundamental domain as an (index, d) array, lex order."""
    return np.array(fundamental_domain(H), dtype=np.int64).reshape(-1, len(H))


@lru_cache(maxsize=None)
def sublattices(d: int, index: int):
    """All finite-index sublattices of Z^d with the given index, as HNF
    matrices, no duplicates, deterministic order."""
    if d < 1 or d > 3:
        raise DomainError("sublattice enumeration supports d in [1, 3]")
    if index < 1:
        raise DomainError("index must be >= 1")
    out = []

    def diagonals(rem, i, cur):
        if i == d - 1:
            yield cur + [rem]
            return
        for a in range(1, rem + 1):
            if rem % a == 0:
                yield from diagonals(rem // a, i + 1, cur + [a])

    for diag in diagonals(index, 0, []):
        # free entries H[i][l] for l > i, each in [0, diag[i])
        slots = [(i, l) for i in range(d) for l in range(i + 1, d)]
        for vals in product(*(range(diag[i]) for i, _ in slots)):
            H = [[0] * d for _ in range(d)]
            for i in range(d):
                H[i][i] = diag[i]
            for (i, l), v in zip(slots, vals):
                H[i][l] = v
            out.append(tuple(tuple(r) for r in H))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _superlattices(H):
    """Lattices strictly between H and Z^d (H excluded, Z^d included)."""
    d = len(H)
    idx = lattice_index(H)
    cols = matrix_columns(H)
    out = []
    for i in range(1, idx):
        if idx % i:
            continue
        for L in sublattices(d, i):
            if all(lattice_contains(L, c) for c in cols):
                out.append(L)
    return tuple(out)


@lru_cache(maxsize=None)
def _exact_stabilizer_count(H, alphabet: int) -> int:
    """Configurations whose translation stabilizer is exactly H
    (inclusion-exclusion down from |A|^index fixed configurations)."""
    total = alphabet ** lattice_index(H)
    for L in _superlattices(H):
        total -= _exact_stabilizer_count(L, alphabet)
    return total


@dataclass(frozen=True)
class OrbitCount:
    j: int
    count: int


def count_orbits(alphabet: int, d: int, j: int) -> OrbitCount:
    """Exact number of finite orbits of cardinality j in the full shift."""
    if j < 1:
        raise DomainError("orbit size must be >= 1")
    if j > COUNT_BUDGET.get(d, 0):
        raise ResourceBudgetError(f"orbit size {j} beyond counting budget for d={d}")
    total = 0
    for H in sublattices(d, j):
        total += _exact_stabilizer_count(H, alphabet)
    if total % j:
        raise CertificateError(f"{total} index-{j} configurations are not a multiple of {j}")
    count = total // j
    # sanity against the coarse two-sided bounds
    if count > (j ** (d + 1)) * (alphabet ** j) or 2 * j * count < alphabet ** j:
        raise CertificateError(f"orbit count {count} of size {j} outside its bounds")
    return OrbitCount(j, count)


# ---------------------------------------------------------------------------
# Orbits as values

@dataclass(frozen=True)
class Orbit:
    lattice: tuple    # HNF matrix, row-major
    symbols: tuple    # fundamental-domain symbols, lex point order, canonical
    alphabet: int

    @property
    def size(self) -> int:
        return lattice_index(self.lattice)

    @property
    def d(self) -> int:
        return len(self.lattice)


def _canonical_rows(H, rows):
    """(fixed, canon) for uint8 symbol rows (R, index) on H's fundamental
    domain: fixed[r, v] marks the domain translates v that reproduce row r
    (v = 0 always does, so the stabilizer of row r is exactly H iff no other
    does), and canon[r] is the lex-least translate of row r.  Rows compare as
    bytes.  A pass holds at most ENUM_BUDGET symbol entries when
    2 * R * index does; longer rows are walked in chunks of translates."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    count, j = rows.shape
    dom = _domain_array(H)
    fixed = np.empty((count, j), dtype=bool)
    canon = rows
    step = max(1, ENUM_BUDGET // (count * j) - 1)
    for v0 in range(0, j, step):
        moved = rows[:, reduce_points(H, dom[v0:v0 + step, None] + dom[None])]
        fixed[:, v0:v0 + step] = (moved == rows[:, None, :]).all(axis=2)
        cands = np.concatenate([canon[:, None, :], moved], axis=1).view((np.void, j))
        least = np.sort(cands[..., 0], axis=1)[:, 0]
        canon = np.frombuffer(least.tobytes(), dtype=np.uint8).reshape(count, j)
    return fixed, canon


def orbit_from_config(H, symbols, alphabet: int) -> Orbit:
    """Canonical orbit of the H-periodic configuration given by fundamental
    symbols, H in HNF (the true stabilizer may be coarser than H)."""
    row = np.asarray(symbols, dtype=np.uint8)[None, :]
    fixed, canon = _canonical_rows(H, row)
    if not fixed[0, 1:].any():  # only the zero translate fixes it: H is the stabilizer
        return Orbit(H, tuple(canon[0].tolist()), alphabet)
    fixers = [v for v, f in zip(fundamental_domain(H), fixed[0]) if f][1:]
    stab = hnf_from_columns(matrix_columns(H) + fixers, len(H))
    if stab != H:
        _, canon = _canonical_rows(stab, row[:, reduce_points(H, _domain_array(stab))])
    return Orbit(stab, tuple(canon[0].tolist()), alphabet)


def enumerate_orbits(alphabet: int, d: int, max_size: int):
    """One canonical representative per orbit of size <= max_size, sorted by
    (size, lattice, symbols) by construction; per-size counts match count_orbits."""
    work = 0
    for j in range(1, max_size + 1):
        work += len(sublattices(d, j)) * alphabet ** j
        if work > ENUM_BUDGET:
            raise ResourceBudgetError(f"orbit enumeration up to {max_size} over budget")
    out = []
    for j in range(1, max_size + 1):
        digits = alphabet ** np.arange(j - 1, -1, -1, dtype=np.int64)
        step = max(1, ENUM_BUDGET // (j * (j + 1)))
        start = len(out)
        for H in sublattices(d, j):
            reps = []
            for lo in range(0, alphabet ** j, step):
                ids = np.arange(lo, min(lo + step, alphabet ** j), dtype=np.int64)
                words = (ids[:, None] // digits % alphabet).astype(np.uint8)
                fixed, canon = _canonical_rows(H, words)
                reps.append(canon[~fixed[:, 1:].any(axis=1)])
            reps = np.unique(np.concatenate(reps), axis=0)
            out.extend(Orbit(H, tuple(r), alphabet) for r in reps.tolist())
        expected = count_orbits(alphabet, d, j).count
        got = len(out) - start
        if got != expected:
            raise CertificateError(f"size-{j} enumeration {got} != count {expected}")
    return out


def orbit_windows(orbit: Orbit, n: int) -> frozenset:
    """Side-n window codes of the periodic configuration: the codes of its
    box H[i][i] + n - 1 per axis, whose window anchors are the domain."""
    H = orbit.lattice
    box = np.indices(tuple(h + n - 1 for h in _diagonal(H)))
    arr = np.asarray(orbit.symbols, dtype=np.uint8)[reduce_points(H, np.moveaxis(box, 0, -1))]
    return frozenset(pt.cube_window_codes(arr, n, orbit.alphabet).tolist())


@lru_cache(maxsize=None)
def orbit_window_table(alphabet: int, d: int, n: int, max_size: int):
    """(orbits, mask matrix, sizes): mask row o marks W_n of orbit o in the
    window-code table.  Cached; read-only after creation."""
    orbs = enumerate_orbits(alphabet, d, max_size)
    w = pt.window_table_size(alphabet, d, n)
    masks = np.zeros((len(orbs), w), dtype=np.uint8)
    for i, o in enumerate(orbs):
        masks[i, list(orbit_windows(o, n))] = 1
    sizes = np.array([o.size for o in orbs], dtype=np.int64)
    masks.setflags(write=False)
    sizes.setflags(write=False)
    return tuple(orbs), masks, sizes


# ---------------------------------------------------------------------------
# Words: least periods, periodicity of low-complexity words

def least_period(seq) -> int:
    """Smallest p >= 1 with seq[i] == seq[i+p] for all valid i (p = len if none
    smaller); standard prefix-function computation."""
    s = list(seq)
    m = len(s)
    if m == 0:
        raise DomainError("empty word has no period")
    pi = [0] * m
    k = 0
    for i in range(1, m):
        while k and s[i] != s[k]:
            k = pi[k - 1]
        if s[i] == s[k]:
            k += 1
        pi[i] = k
    return m - pi[-1]


def word_periodicity(w, n: int):
    """Least period of the middle segment w[n : len(w)-n] (inclusive ends).

    If the word has at most n distinct length-n windows the returned period is
    guaranteed <= that window count; returns None when the middle segment is
    aperiodic (least period equals its length).
    """
    w = list(w)
    k = len(w)
    if k <= 3 * n:
        raise DomainError(f"need |w| > 3n, got |w|={k}, n={n}")
    mid = w[n : k - n + 1]
    p = least_period(mid)
    j = len({tuple(w[i : i + n]) for i in range(k - n + 1)})
    if j <= n:
        if p > j:
            raise CertificateError(f"middle period {p} exceeds window count {j}")
        return p
    return p if p < len(mid) else None


def extract_orbit(u: pt.Pattern, n: int):
    """From a side-k cube pattern with at most n/2 distinct side-n windows,
    build a finite orbit whose windows all appear in u and whose size is at
    most n/2; None when the window count is too large.

    Construction: per-axis hyperplane-slice words over the middle segment give
    least periods r_i; the orbit is the diag(r)-periodic extension of u read at
    offset n in every axis.
    """
    if not u.is_cube():
        raise DomainError("orbit extraction requires a cube-shaped pattern")
    k, d = u.shape.side, u.d
    if k <= 4 * n:
        raise DomainError(f"need k > 4n, got k={k}, n={n}")
    wins = pt.windows(u, n)
    if 2 * len(wins) > n:
        return None
    arr = u.as_array()
    periods = []
    for axis in range(d):
        # slice words: f(m) = restriction to the thickness-1 slab at offset m
        moved = np.moveaxis(arr, axis, 0)
        slabs = [moved[m].tobytes() for m in range(k)]
        mid = slabs[n : k - n + 1]
        periods.append(least_period(mid))
    if any(2 * r > n for r in periods):
        raise CertificateError(f"slice periods {periods} exceed n/2 = {n / 2}")
    H = tuple(
        tuple(periods[i] if i == j else 0 for j in range(d)) for i in range(d)
    )
    syms = arr[tuple((n + _domain_array(H)).T)]
    orbit = orbit_from_config(H, syms, u.alphabet)
    if not orbit_windows(orbit, n) <= wins:
        raise CertificateError("extracted orbit shows a window absent from the pattern")
    if 2 * orbit.size > n:
        raise CertificateError(f"extracted orbit of size {orbit.size} exceeds n/2")
    return orbit
