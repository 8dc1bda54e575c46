"""Per-realization analyses: emptiness decision with checkable certificates,
exact allowed-pattern counting, periodic-boundary pattern counting (exact or
Monte Carlo), entropy bounds, and allowed-orbit presence.

Dimension 1 is decided exactly on the window-overlap digraph.  For d >= 2 the
decision is a semi-decision: an exact existence search over growing cube sides
(failure certifies emptiness) interleaved with a periodic-torus search over
growing shapes (success certifies nonemptiness via a finite orbit); both may
exhaust their cutoffs, leaving an honest Unknown.

Existence, pattern counts and periodic fill-in counts all run one recursion,
`_frontier_weights`: it walks the side-k cube cell by cell in row-major order,
carrying a weight for each content of the last m cells (m = n for d = 1), with
optional per-cell clamps and a batch axis for many boundaries at once.  Its
dtype picks the semiring: bool (or, and) for existence, float64 or exact
Python ints (+, *) for counts.  Budgets: the frontier holds at most
2^FRONTIER_BUDGET_BITS states, or 2^COUNT_STATE_BUDGET_BITS with exact ints;
the one exactness guard uses float64 only while |A|^(free cells) <= 2^52
(free cells k^d, or max(0, k-2n)^d with the boundary clamped).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DomainError, ResourceBudgetError
from .ensemble import AllowedSet, orbit_allowed, stream_words, TAG_BOUNDARY
from .orbits import Orbit, enumerate_orbits, orbit_from_config

FRONTIER_BUDGET_BITS = 22
COUNT_STATE_BUDGET_BITS = 18
TORUS_DIRECT_BUDGET = 4096
EXACT_BOUNDARY_BUDGET = 1 << 16


@dataclass
class EmptinessVerdict:
    verdict: str                      # "empty" | "nonempty" | "unknown"
    certificate_k: int | None = None  # empty: no allowed side-k pattern exists
    certificate_orbit: Orbit | None = None  # nonempty: an allowed finite orbit
    effort: dict = field(default_factory=dict)

    @property
    def is_empty(self):
        return self.verdict == "empty"

    @property
    def is_nonempty(self):
        return self.verdict == "nonempty"


@dataclass
class EntropyEstimate:
    k: int
    pattern_count: int | float        # allowed side-k patterns
    h_upper: float                    # log(pattern_count) / k^d, -inf at zero
    periodic_count: float             # allowed periodic-boundary patterns
    periodic_count_stderr: float
    periodic_count_exact: bool
    h_per_lower: float                # log(periodic_count) / k^d, -inf at zero
    boundary_pool: int                # number of distinct periodic boundaries


# ---------------------------------------------------------------------------
# d = 1: window-overlap digraph

def prune_rows(bits: np.ndarray, n: int, alphabet: int) -> np.ndarray:
    """Batch fixpoint pruning: rows are trials, columns window codes.  A window
    survives while it has a surviving successor (overlap n-1 to the right) and
    predecessor; the SFT is nonempty exactly when anything survives."""
    alive = np.array(bits, dtype=bool, copy=True)
    w = alive.shape[1]
    s = w // alphabet
    suffix_idx = np.arange(w) % s
    prefix_idx = np.arange(w) // alphabet
    while True:
        by_prefix = alive.reshape(-1, s, alphabet).any(axis=2)   # some window starts with x
        by_suffix = alive.reshape(-1, alphabet, s).any(axis=1)   # some window ends with x
        nxt = alive & by_prefix[:, suffix_idx] & by_suffix[:, prefix_idx]
        if np.array_equal(nxt, alive):
            return nxt
        alive = nxt


def _out_neighbors(code: int, s: int, alphabet: int):
    base = (code % s) * alphabet
    return [base + a for a in range(alphabet)]


def shortest_allowed_cycle(alive: np.ndarray, n: int, alphabet: int):
    """Lex-least shortest cycle in the surviving overlap graph, as the list of
    appended symbols (the period word); None when the graph is empty."""
    w = len(alive)
    s = w // alphabet
    verts = np.nonzero(alive)[0]
    best = None
    for v0 in verts:
        # BFS for the shortest path v0 -> v0
        prev = {int(v0): None}
        frontier = [int(v0)]
        found = None
        depth = 0
        while frontier and found is None:
            depth += 1
            if best is not None and depth > len(best):
                break
            nxt = []
            for u in frontier:
                for t in _out_neighbors(u, s, alphabet):
                    if not alive[t]:
                        continue
                    if t == v0:
                        found = u
                        break
                    if t not in prev:
                        prev[t] = u
                        nxt.append(t)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        path = [int(v0)]
        u = found
        while u != v0:
            path.append(u)
            u = prev[u]
        path.reverse()  # v0, ..., found; edges close back to v0
        word = tuple((path[(i + 1) % len(path)]) % alphabet for i in range(len(path)))
        if best is None or (len(word), word) < (len(best), best):
            best = word
    return best


def _longest_path_edges(allowed: np.ndarray, alphabet: int) -> int:
    """Longest path (edge count) in the acyclic allowed-window graph."""
    w = len(allowed)
    s = w // alphabet
    verts = [v for v in range(w) if allowed[v]]
    if not verts:
        return -1
    indeg = {v: 0 for v in verts}
    for v in verts:
        for t in _out_neighbors(v, s, alphabet):
            if t in indeg:
                indeg[t] += 1
    stack = [v for v in verts if indeg[v] == 0]
    dist = {v: 0 for v in verts}
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for t in _out_neighbors(v, s, alphabet):
            if t in indeg:
                dist[t] = max(dist[t], dist[v] + 1)
                indeg[t] -= 1
                if indeg[t] == 0:
                    stack.append(t)
    assert seen == len(verts), "graph has a cycle; not a DAG"
    return max(dist.values())


def decide_empty_1d(omega: AllowedSet) -> EmptinessVerdict:
    """Exact decision for d = 1 with a checkable certificate either way."""
    if omega.d != 1:
        raise DomainError("decide_empty_1d requires d = 1")
    alive = prune_rows(omega.bits[None, :], omega.n, omega.alphabet)[0]
    if alive.any():
        word = shortest_allowed_cycle(alive, omega.n, omega.alphabet)
        orbit = orbit_from_config(((len(word),),), word, omega.alphabet)
        assert orbit_allowed(omega, orbit)
        return EmptinessVerdict("nonempty", certificate_orbit=orbit,
                                effort={"cycle_length": len(word)})
    edges = _longest_path_edges(omega.bits, omega.alphabet)
    k_cert = omega.n if edges < 0 else omega.n + edges + 1
    return EmptinessVerdict("empty", certificate_k=k_cert,
                            effort={"longest_path_edges": edges})


# ---------------------------------------------------------------------------
# The rolling-frontier recursion behind every existence and count query

@lru_cache(maxsize=None)
def _frontier_tables(d: int, n: int, alphabet: int, k: int):
    """State digits cover the last m cells of the side-k cube in row-major
    order, m = the span of one window plus the rows/planes between (m = n for
    d = 1); the newest cell is the most significant digit.  Returns (m,
    per-state window-code table for the window completed by the newest cell)."""
    m = (n - 1) * sum(k ** i for i in range(d)) + 1
    if m * math.log2(alphabet) > FRONTIER_BUDGET_BITS:
        raise ResourceBudgetError(
            f"frontier state space {alphabet}^{m} over budget for d={d}, n={n}, k={k}"
        )
    size = alphabet ** m
    ids = np.arange(size, dtype=np.int64)
    codes = np.zeros(size, dtype=np.int64)
    total = n ** d
    for rank, rel in enumerate(product(range(n), repeat=d)):
        # newest cell holds rel = (n-1, ..., n-1); offset back in row-major order
        delta = 0
        for i in range(d):
            delta = delta * k + (n - 1 - rel[i])
        digit = (ids // (alphabet ** (m - 1 - delta))) % alphabet
        codes += digit * (alphabet ** (total - 1 - rank))
    codes.setflags(write=False)
    return m, codes


def _exact_dtype(alphabet: int, free_cells: int):
    """The exactness guard: float64 while every count is at most
    |A|^free_cells <= 2^52, exact Python ints beyond."""
    return np.float64 if free_cells * math.log2(alphabet) <= 52 else object


def _frontier_weights(bits, d: int, n: int, alphabet: int, k: int, dtype,
                      owners=None, syms=None) -> np.ndarray:
    """Walk the side-k cube cell by cell in row-major order, carrying a weight
    per frontier state and batch row; returns them shaped (batch, states).

    dtype picks the semiring: bool is (or, and) for existence; float64 and
    object (exact Python ints, held to COUNT_STATE_BUDGET_BITS) are (+, *) for
    counts.  Clamps: owners maps a cell to the column of syms, shaped (batch,
    free cells), that holds the symbol the cell is fixed to in each row."""
    if k < n:
        raise DomainError("need k >= n")
    A = alphabet
    m, codes = _frontier_tables(d, n, A, k)
    if dtype is object and m * math.log2(A) > COUNT_STATE_BUDGET_BITS:
        raise ResourceBudgetError("exact counting state space over budget")
    add, mul = (np.logical_or, np.logical_and) if dtype is bool else (np.add, np.multiply)
    sub = A ** (m - 1)  # contents of the m-1 older cells
    check = bits[codes].reshape(A, sub)
    batch = 1 if syms is None else len(syms)
    w = np.zeros((batch, A, sub), dtype=dtype)
    w[:, 0, 0] = 1  # warm-up digits are never read before m real cells exist
    for cell in product(range(k), repeat=d):
        old = w.reshape(batch, sub, A)  # oldest digit last
        agg = old[:, :, 0].copy()
        for a in range(1, A):
            add(agg, old[:, :, a], out=agg)
        checked = min(cell) >= n - 1
        clamp = owners.get(cell) if owners else None
        for a in range(A):
            if checked:
                mul(agg, check[a], out=w[:, a])
            else:
                w[:, a] = agg
            if clamp is not None:
                mul(w[:, a], (syms[:, clamp] == a)[:, None], out=w[:, a])
    return w.reshape(batch, A * sub)


def pattern_exists(omega: AllowedSet, k: int) -> bool:
    """Exact: is there a side-k pattern all of whose windows are allowed?"""
    return bool(_frontier_weights(omega.bits, omega.d, omega.n, omega.alphabet,
                                  k, bool).any())


def count_patterns_1d_fast(bits: np.ndarray, n: int, alphabet: int, k: int) -> float:
    """Float64 line count; exact while the count stays below 2^53."""
    if _exact_dtype(alphabet, k) is object:
        raise ResourceBudgetError("count may exceed exact float range; use count_patterns")
    return float(_frontier_weights(bits, 1, n, alphabet, k, np.float64).sum())


def count_patterns(omega: AllowedSet, k: int):
    """Exact number of allowed side-k patterns (arbitrary precision)."""
    dtype = _exact_dtype(omega.alphabet, k ** omega.d)
    return int(_frontier_weights(omega.bits, omega.d, omega.n, omega.alphabet,
                                 k, dtype).sum())


# ---------------------------------------------------------------------------
# Torus search (d >= 2)

def _torus_window_codes(shape, n: int, alphabet: int):
    """For each anchor in the fundamental box, the flat fundamental indices of
    the window's cells (reads wrap around the shape)."""
    d = len(shape)
    anchors = list(product(*(range(s) for s in shape)))
    rels = list(product(range(n), repeat=d))
    idx = []
    for a in anchors:
        row = []
        for rel in rels:
            p = tuple((ai + ri) % si for ai, ri, si in zip(a, rel, shape))
            flat = 0
            for i in range(d):
                flat = flat * shape[i] + p[i]
            row.append(flat)
        idx.append(row)
    return np.asarray(idx, dtype=np.int64)


def _torus_direct(omega: AllowedSet, shape):
    """Lex-least allowed config on the wraparound shape, by direct enumeration."""
    A = omega.alphabet
    vol = 1
    for s in shape:
        vol *= s
    total = A ** vol
    reads = _torus_window_codes(shape, omega.n, A)
    weights = (A ** np.arange(omega.n ** omega.d - 1, -1, -1, dtype=np.int64))
    ids = np.arange(total, dtype=np.int64)
    digs = np.empty((total, vol), dtype=np.int64)
    rem = ids.copy()
    for c in range(vol - 1, -1, -1):
        digs[:, c] = rem % A
        rem //= A
    codes = digs[:, reads.reshape(-1)].reshape(total, reads.shape[0], reads.shape[1])
    codes = codes @ weights
    ok = omega.bits[codes].all(axis=1)
    hits = np.nonzero(ok)[0]
    if len(hits) == 0:
        return None
    return tuple(int(x) for x in digs[hits[0]])


@lru_cache(maxsize=None)
def _cyclic_block_codes(width: int, n: int, alphabet: int):
    """Window codes of an n-row cyclic block of rows with the given width:
    entry [block_id, c] is the window anchored at column c (columns wrap)."""
    nrows = n
    size = alphabet ** (nrows * width)
    if math.log2(size) > FRONTIER_BUDGET_BITS:
        raise ResourceBudgetError("cyclic block table over budget")
    ids = np.arange(size, dtype=np.int64)
    # digit of row r, column c (row 0 oldest = most significant)
    def digit(r, c):
        pos = (nrows - 1 - r) * width + (width - 1 - c)
        return (ids // (alphabet ** pos)) % alphabet

    out = np.zeros((size, width), dtype=np.int64)
    total = n * n
    for c in range(width):
        code = np.zeros(size, dtype=np.int64)
        rank = 0
        for t0 in range(n):
            for t1 in range(n):
                code += digit(t0, (c + t1) % width) * (alphabet ** (total - 1 - rank))
                rank += 1
        out[:, c] = code
    out.setflags(write=False)
    return out


def _torus_transfer(omega: AllowedSet, shape):
    """d=2 wraparound search by cyclic row transfer along axis 0.  Returns the
    lex-least allowed config (as flat symbols) or None."""
    n, A = omega.n, omega.alphabet
    b, a = shape
    codes = _cyclic_block_codes(a, n, A)
    rows = A ** a
    s_states = A ** ((n - 1) * a)
    ok = omega.bits[codes].all(axis=1)  # over n-row blocks
    M = np.zeros((s_states, s_states), dtype=bool)
    blocks = np.arange(A ** (n * a), dtype=np.int64)
    s_from = blocks // rows
    s_to = blocks % s_states
    M[s_from[ok], s_to[ok]] = True
    # closed walks of length b
    reach = [np.eye(s_states, dtype=bool)]
    Mf = M.astype(np.float32)
    acc = np.eye(s_states, dtype=np.float32)
    for _ in range(b):
        reach.append((acc @ Mf) > 0)
        acc = reach[-1].astype(np.float32)
    closed = np.nonzero(np.diag(reach[b]))[0]
    if len(closed) == 0:
        return None
    s0 = int(closed[0])
    # rebuild one closed walk greedily (lex-least successor at each step)
    walk = [s0]
    cur = s0
    for step in range(1, b):
        nxts = np.nonzero(M[cur] & reach[b - step][:, s0])[0]
        cur = int(nxts[0])
        walk.append(cur)
    # state walk[i] stacks rows i..i+n-2 oldest-first; row i is its top digit
    if n == 2:
        rows_seq = [walk[i] for i in range(b)]
    else:
        rows_seq = [walk[i] // (A ** ((n - 2) * a)) for i in range(b)]
    syms = []
    for r in rows_seq:
        syms.extend((r // A ** (a - 1 - c)) % A for c in range(a))
    return tuple(int(x) for x in syms)


def torus_config(omega: AllowedSet, shape):
    """An allowed wraparound config on the shape (flat, lex order) or None."""
    A = omega.alphabet
    vol = 1
    for s in shape:
        vol *= s
    if A ** vol <= TORUS_DIRECT_BUDGET:
        return _torus_direct(omega, shape)
    if omega.d == 2:
        return _torus_transfer(omega, shape)
    raise ResourceBudgetError(f"torus shape {shape} over budget for d={omega.d}")


def decide_empty(omega: AllowedSet, k_max: int, torus_max: int) -> EmptinessVerdict:
    """Semi-decision: existence search over k = n..k_max (failure => empty with
    certificate k) interleaved with wraparound searches over shapes with sides
    up to torus_max (success => nonempty with an orbit certificate).  Unknown
    when both exhaust."""
    if omega.d == 1:
        return decide_empty_1d(omega)
    n, d, A = omega.n, omega.d, omega.alphabet
    shapes = sorted(
        product(*(range(1, torus_max + 1),) * d),
        key=lambda s: (max(s), math.prod(s), s),
    ) if torus_max >= 1 else []
    checked_k = 0
    tori_tried = 0
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
                if not pattern_exists(omega, k):
                    return EmptinessVerdict(
                        "empty", certificate_k=k,
                        effort={"k_checked": k, "tori_tried": tori_tried})
            except ResourceBudgetError:
                # existence search exhausted early; keep the torus search going
                k_ceiling = k - 1
                checked_k = k - 1
                clipped.append(f"k>{k - 1}")
        for shape in shapes:
            if max(shape) != step + 1 or max(shape) > torus_ceiling:
                continue
            progress = True
            try:
                tori_tried += 1
                cfg = torus_config(omega, shape)
            except ResourceBudgetError:
                torus_ceiling = max(shape) - 1
                clipped.append(f"torus>{max(shape) - 1}")
                break
            if cfg is not None:
                H = tuple(tuple(shape[i] if i == j else 0 for j in range(d))
                          for i in range(d))
                orbit = orbit_from_config(H, cfg, A)
                assert orbit_allowed(omega, orbit)
                return EmptinessVerdict(
                    "nonempty", certificate_orbit=orbit,
                    effort={"k_checked": checked_k, "tori_tried": tori_tried,
                            "torus_shape": shape})
        if not progress:
            effort = {"k_checked": checked_k, "tori_tried": tori_tried}
            if clipped:
                effort["budget_clipped"] = clipped
            return EmptinessVerdict("unknown", effort=effort)
        step += 1


# ---------------------------------------------------------------------------
# Periodic-boundary pattern counting

def boundary_pool_size(d: int, n: int, alphabet: int, k: int) -> int:
    """Number of distinct periodic boundary patterns (period k-n+1 per axis)."""
    ell = k - n + 1
    inner = max(0, k - 2 * n)
    return alphabet ** (ell ** d - inner ** d)


def _free_boundary_cells(d: int, n: int, k: int):
    """Fundamental cells of the boundary: the period box minus the interior."""
    ell = k - n + 1
    out = []
    for p in product(*(range(ell) for _ in range(d))):
        if not all(n <= x < k - n for x in p):
            out.append(p)
    return out


def _count_closed_walks_1d(bits: np.ndarray, n: int, alphabet: int, ell: int):
    """Number of length-ell cyclic symbol sequences whose windows are all
    allowed: closed walks in the overlap graph."""
    s = alphabet ** (n - 1)
    # V[i, j] = walks i -> j of current length; update appends one edge
    V = np.eye(s, dtype=np.float64)
    idx = np.arange(s * alphabet, dtype=np.int64)
    ok = bits[idx].astype(np.float64)
    for _ in range(ell):
        contrib = V[:, :, None] * ok.reshape(1, s, alphabet)
        V = contrib.reshape(-1, alphabet, s).sum(axis=1)
    total = float(np.trace(V))
    if total >= 2.0 ** 52:
        raise ResourceBudgetError("closed-walk count exceeds exact float range")
    return int(round(total))


def _boundary_cell_owners(d: int, n: int, k: int):
    """Map each boundary cell of the cube to the index of the fundamental free
    cell it copies (period k-n+1 per axis)."""
    ell = k - n + 1
    free = _free_boundary_cells(d, n, k)
    owners = {}
    for idx, p in enumerate(free):
        for q in product(*(range(0, (k - x + ell - 1) // ell) for x in p)):
            tgt = tuple(x + mult * ell for x, mult in zip(p, q))
            if all(t < k for t in tgt) and not all(n <= t < k - n for t in tgt):
                owners[tgt] = idx
    return free, owners


def _fill_counts(omega: AllowedSet, k: int, syms: np.ndarray) -> np.ndarray:
    """Exact fill-in counts for a batch of boundaries (rows of free-cell
    symbols) by the clamped frontier recursion, at most 2^22 weights a pass."""
    n, d, A = omega.n, omega.d, omega.alphabet
    dtype = _exact_dtype(A, max(0, k - 2 * n) ** d)
    m, _ = _frontier_tables(d, n, A, k)
    _, owners = _boundary_cell_owners(d, n, k)
    chunk = max(1, (1 << 22) // A ** m)
    return np.concatenate([
        _frontier_weights(omega.bits, d, n, A, k, dtype, owners,
                          syms[lo : lo + chunk]).sum(axis=1)
        for lo in range(0, len(syms), chunk)
    ])


def _count_boundary_sum_exact(omega: AllowedSet, k: int):
    """Sum of fill-in counts over every periodic boundary (d >= 2 exact path;
    the interior cells are free, so this enumerates the boundary pool)."""
    n, d, A = omega.n, omega.d, omega.alphabet
    free = _free_boundary_cells(d, n, k)
    pool = A ** len(free)
    if pool > EXACT_BOUNDARY_BUDGET:
        raise ResourceBudgetError(
            f"{A}^{len(free)} boundaries; use Monte Carlo sampling instead")
    ids = np.arange(pool, dtype=np.int64)
    syms = np.empty((pool, len(free)), dtype=np.int64)
    rem = ids.copy()
    for c in range(len(free) - 1, -1, -1):
        syms[:, c] = rem % A
        rem //= A
    return int(_fill_counts(omega, k, syms).sum())


def _sample_boundaries(omega: AllowedSet, k: int, count: int):
    """Uniform boundary samples from the counter-based stream (tag distinct
    from window sampling), shaped (count, free cells)."""
    free = _free_boundary_cells(omega.d, omega.n, k)
    words = stream_words(
        omega.seed, TAG_BOUNDARY,
        (omega.d, omega.n, omega.alphabet, k), omega.trial, count * len(free),
    )
    syms = ((words >> np.uint64(11)) % np.uint64(omega.alphabet)).astype(np.int64)
    return syms.reshape(count, len(free)), free


@dataclass
class PeriodicCount:
    count: float
    exact: bool
    stderr: float
    boundary_pool: int
    samples: int


def count_periodic_fillins(omega: AllowedSet, k: int,
                           boundary_samples: int = 0) -> PeriodicCount:
    """Number of allowed side-k patterns whose thickness-n boundary is periodic
    with period k-n+1 per axis; equivalently the number of (k-n+1)-periodic
    points of the SFT.  Exact when boundary_samples == 0, else an unbiased
    Monte Carlo estimate (pool size times the mean fill count over uniformly
    sampled boundaries) with its standard error."""
    n, d = omega.n, omega.d
    ell = k - n + 1
    if ell < 1:
        raise DomainError("need k >= n")
    pool = boundary_pool_size(d, n, omega.alphabet, k)
    if boundary_samples <= 0:
        if d == 1:
            # every periodic-boundary word is the restriction of an ell-periodic
            # sequence, so the sum is a closed-walk count
            cnt = _count_closed_walks_1d(omega.bits, n, omega.alphabet, ell)
        else:
            cnt = _count_boundary_sum_exact(omega, k)
        return PeriodicCount(float(cnt), True, 0.0, pool, 0)
    if k < 2 * n:
        raise DomainError("Monte Carlo boundary sampling needs k >= 2n")
    bnds, free = _sample_boundaries(omega, k, boundary_samples)
    fills = _fill_counts(omega, k, bnds).astype(np.float64)
    mean = float(fills.mean())
    sd = float(fills.std(ddof=1)) if boundary_samples > 1 else 0.0
    return PeriodicCount(pool * mean, False,
                         pool * sd / math.sqrt(boundary_samples),
                         pool, boundary_samples)


def entropy_estimate(omega: AllowedSet, k: int,
                     boundary_samples: int = 0) -> EntropyEstimate:
    """Upper bound on entropy from the pattern count; certified lower bound on
    periodic entropy from the periodic-boundary count.  Zero counts report -inf
    rather than raising."""
    phi = count_patterns(omega, k)
    vol = k ** omega.d
    h_upper = math.log(phi) / vol if phi > 0 else -math.inf
    pc = count_periodic_fillins(omega, k, boundary_samples)
    h_per = math.log(pc.count) / vol if pc.count > 0 else -math.inf
    if pc.exact:
        assert pc.count <= phi
    return EntropyEstimate(k, phi, h_upper, pc.count, pc.stderr, pc.exact,
                           h_per, pc.boundary_pool)


def periodic_orbits_present(omega: AllowedSet, max_size: int):
    """All allowed orbits of size <= max_size, plus an exhaustiveness flag."""
    orbs = enumerate_orbits(omega.alphabet, omega.d, max_size)
    present = [o for o in orbs if orbit_allowed(omega, o)]
    return present, True
