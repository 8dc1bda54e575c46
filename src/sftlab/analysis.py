"""Per-realization analyses: emptiness decision with checkable certificates,
exact allowed-pattern counting, periodic-boundary pattern counting (exact or
Monte Carlo), entropy bounds, and allowed-orbit presence.

Batches of trials run in trial lanes: 64 trials packed into one uint64 word
(`ensemble.pack_lanes`), bit r being trial r, so that one (or, and) pass
answers 64 trials.  Dimension 1 is decided exactly on the window-overlap
digraph, a batch at a time: one pruning of every row, a longest-path peel for
an empty row's certificate k, both run on the lanes of the window words, and a
shortest cycle for a nonempty row.  Orbit presence (`allowed_orbit_lanes`)
ANDs the lanes of each orbit's windows.  Every certificate orbit, a d = 1
cycle or a d >= 2 torus config, is built in `_torus_orbits` and checked by
`_orbits_allowed`, one window gather per lattice.  For d >= 2 the decision is a semi-decision: an exact
existence search over growing cube sides (failure certifies emptiness)
interleaved with a periodic-torus search over growing shapes (success
certifies nonemptiness via a finite orbit); both may exhaust their cutoffs,
leaving an honest Unknown.  `decide_empty_batch` runs this stage schedule once
for many trials in lanes; `decide_empty` and `decide_empty_1d` are its
batches of one.

Existence, pattern counts and periodic fill-in counts all run one recursion,
`_frontier_weights`: it walks the side-k cube cell by cell in row-major order,
carrying a weight for each content of the last m cells (m = n for d = 1), with
a batch axis for many boundaries at once.  A walk clamped to a periodic
boundary starts after its head, the first n slabs along axis 0: they are all
boundary cells and hold the last m cells, so each row starts in one state,
weighted by the AND of the windows inside the head; at every later clamped
cell only the row's branch is written.  The dtype picks the semiring: the
uint64 lane semiring (or, and) for existence, one word of 64 trials per walk,
float32, float64 or exact Python ints (+, *) for counts.  Budgets: the
frontier holds at most 2^FRONTIER_BUDGET_BITS states, or
2^COUNT_STATE_BUDGET_BITS with exact ints.  The one exactness guard,
`_exact_dtype`, serves every count: each weight and partial sum is a
nonnegative integer at most |A|^(free cells), so counts run in float32 while
that is at most 2^24, in float64 while at most 2^52, and in exact ints beyond
(free cells k^d, or max(0, k-2n)^d with the boundary clamped).

Torus search and exact periodic counts run one cyclic slab transfer,
`_slab_walk`: a config on the wraparound shape (b, *cross) is a closed walk of
length b over states of n-1 stacked slabs of the cyclic cross-section (one
cell for d = 1), a step allowed when every window of its n-slab block is.  The
dtype picks the semiring: bool (or, and) finds the lex-least torus config, and
the ell-periodic point count is the trace on the ell^d torus, exact by the
same guard with free cells ell^d.  Budgets: the block table and each pass hold
at most 2^FRONTIER_BUDGET_BITS entries, or 2^COUNT_STATE_BUDGET_BITS with
exact ints, and a walk from every state takes at most 2^(22 - 18) = 16 passes.
A shape with at most TORUS_DIRECT_BUDGET configs is searched directly instead,
by ANDing the trial lanes over the cached `_torus_table` of every config's
window codes, the cache that also holds the slab transfer's block tables;
`_torus_hits` makes that choice for every torus search.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product

import numpy as np

from . import patterns as pt
from .errors import CertificateError, DomainError, ResourceBudgetError
from .ensemble import AllowedSet, pack_lanes, stream_words, unpack_lanes, TAG_BOUNDARY
from .orbits import (Orbit, _canonical_rows, lattice_window_codes, orbit_from_config,
                     orbit_window_table)

FRONTIER_BUDGET_BITS = 22
COUNT_STATE_BUDGET_BITS = 18
TORUS_DIRECT_BUDGET = 4096


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
    pattern_count: int                # allowed side-k patterns, exact
    h_upper: float                    # log(pattern_count) / k^d, -inf at zero
    periodic_count: float             # allowed periodic-boundary patterns
    periodic_count_stderr: float
    periodic_count_exact: bool
    h_per_lower: float                # log(periodic_count) / k^d, -inf at zero
    boundary_pool: int                # number of distinct periodic boundaries


# ---------------------------------------------------------------------------
# d = 1: window-overlap digraph

def _has_successor(lanes: np.ndarray, alphabet: int) -> np.ndarray:
    """Per window of (windows, G) trial lanes, the lanes in which a window of
    the same trial extends it by one symbol (overlap n-1 to the right)."""
    s = len(lanes) // alphabet
    by_prefix = np.bitwise_or.reduce(lanes.reshape(s, alphabet, -1), axis=1)  # some window starts with x
    return np.tile(by_prefix, (alphabet, 1))  # window c's successors start with its suffix c % s


def prune_rows(bits: np.ndarray, n: int, alphabet: int) -> np.ndarray:
    """Batch fixpoint pruning: rows are trials, columns window codes.  A window
    survives while it has a surviving successor (overlap n-1 to the right) and
    predecessor; the SFT is nonempty exactly when anything survives.  The
    fixpoint runs on the trial lanes of the rows."""
    alive = pack_lanes(bits)
    s = len(alive) // alphabet
    while True:
        by_suffix = np.bitwise_or.reduce(alive.reshape(alphabet, s, -1), axis=0)  # some window ends with x
        nxt = alive & _has_successor(alive, alphabet) & np.repeat(by_suffix, alphabet, axis=0)
        if np.array_equal(nxt, alive):
            return unpack_lanes(nxt, len(bits))
        alive = nxt


def _peel_rounds(bits: np.ndarray, alphabet: int) -> np.ndarray:
    """Per row of an acyclic window graph, the rounds that peeling the windows
    without a surviving successor takes to empty it: a longest path of e edges
    lasts e + 1 rounds, a row with no window 0.  Anything alive after W + 1
    rounds lies on a cycle.  The peel runs on the trial lanes of the rows."""
    alive = pack_lanes(bits)
    rounds = np.zeros(len(bits), dtype=np.int64)
    for _ in range(len(alive) + 1):
        live = np.bitwise_or.reduce(alive, axis=0)
        if not live.any():
            return rounds
        rounds += unpack_lanes(live[None, :], len(bits))[:, 0]
        alive &= _has_successor(alive, alphabet)
    raise CertificateError("pruned-empty window graph has a cycle")


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
                base = (u % s) * alphabet
                for t in range(base, base + alphabet):
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


def decide_empty_1d(omega: AllowedSet) -> EmptinessVerdict:
    """Exact decision for d = 1 with a checkable certificate either way: the
    batch of one of decide_empty_batch."""
    if omega.d != 1:
        raise DomainError("decide_empty_1d requires d = 1")
    return decide_empty_batch([omega], 0, 0)[0]


# ---------------------------------------------------------------------------
# The rolling-frontier recursion behind every existence and count query

def _span(d: int, n: int, k: int) -> int:
    """Frontier width m: the span of one window plus the rows/planes between,
    in row-major cells of the side-k cube (m = n for d = 1)."""
    return (n - 1) * sum(k ** i for i in range(d)) + 1


@lru_cache(maxsize=None)
def _frontier_tables(d: int, n: int, alphabet: int, k: int):
    """State digits cover the last m cells of the side-k cube in row-major
    order; the newest cell is the most significant digit.  Returns (m,
    per-state window-code table for the window completed by the newest cell)."""
    m = _span(d, n, k)
    if m * math.log2(alphabet) > FRONTIER_BUDGET_BITS:
        raise ResourceBudgetError(
            f"frontier state space {alphabet}^{m} over budget for d={d}, n={n}, k={k}"
        )
    # the newest cell closes the window anchored m-1 cells back in row-major
    # order, so the window cell at offset f from the anchor is state digit
    # m-1-f, counted from the newest (most significant) one
    deltas = m - 1 - pt.window_cells((k,) * d, n)[:1]
    codes = pt.id_window_codes(np.arange(alphabet ** m, dtype=np.int64), m, deltas,
                               alphabet)[:, 0]
    codes.setflags(write=False)
    return m, codes


@lru_cache(maxsize=None)
def _clamp_tables(d: int, n: int, k: int):
    """Index arrays of the walk clamped to a periodic boundary (period k-n+1
    per axis, k >= 2n), as columns of the free boundary cells: (head, owner,
    state_cols, window_cols).  The first n slabs along axis 0, the first head
    cells in row-major order, are all boundary cells and hold the last m of
    them, so the walk starts after the head in one state per row: the cells
    state_cols, newest first, weighted by the AND of the windows inside the
    head, whose cells in lex point order are the rows of window_cols.
    owner[t] is the column that row-major cell t is clamped to, -1 for an
    interior cell.  Cached; read-only."""
    shape = (k,) * d
    _, owners = _boundary_cell_owners(d, n, k)
    owner = np.full(k ** d, -1, dtype=np.int64)
    for cell, col in owners.items():
        owner[np.ravel_multi_index(cell, shape)] = col
    head = n * k ** (d - 1)  # at least m, since n <= k
    state_cols = owner[head - _span(d, n, k) : head][::-1].copy()
    inside = (slice(0, 1),) + (slice(0, k - n + 1),) * (d - 1)
    window_cols = owner[pt.window_cells(shape, n).reshape(shape + (-1,))[inside]
                        .reshape(-1, n ** d)]
    for table in (owner, state_cols, window_cols):
        table.setflags(write=False)
    return head, owner, state_cols, window_cols


def _exact_dtype(alphabet: int, free_cells: int):
    """The exactness guard: every weight and partial sum of a count is a
    nonnegative integer at most |A|^free_cells, so the count runs in float32
    while that is at most 2^24, in float64 while at most 2^52, and in exact
    Python ints beyond."""
    top = alphabet ** free_cells
    return np.float32 if top <= 1 << 24 else np.float64 if top <= 1 << 52 else object


def _frontier_weights(bits, d: int, n: int, alphabet: int, k: int, dtype,
                      syms=None) -> np.ndarray:
    """Walk the side-k cube cell by cell in row-major order, carrying a weight
    per frontier state and batch row; returns them shaped (batch, states).

    dtype picks the semiring: uint64 is the lane semiring (or, and) for
    existence, where bits is one word of trial lanes per window and bit r of
    a weight is trial r; float32, float64 and object (exact Python ints, held
    to COUNT_STATE_BUDGET_BITS) are (+, *) for counts.  Clamps: syms, shaped
    (batch, free cells), fixes each row's boundary cells to a periodic
    boundary (period k-n+1 per axis, k >= 2n), as _boundary_cell_owners maps
    them; the walk then starts after the clamped head (_clamp_tables) and
    writes only the row's branch at every later clamped cell."""
    if k < n:
        raise DomainError("need k >= n")
    A = alphabet
    m, codes = _frontier_tables(d, n, A, k)
    if dtype is object and m * math.log2(A) > COUNT_STATE_BUDGET_BITS:
        raise ResourceBudgetError("exact counting state space over budget")
    if dtype is np.uint64:
        add, mul, one = np.bitwise_or, np.bitwise_and, ~np.uint64(0)
    else:
        add, mul, one = np.add, np.multiply, 1
    sub = A ** (m - 1)  # contents of the m-1 older cells
    check = bits[codes].reshape(A, sub)
    batch = 1 if syms is None else len(syms)
    w = np.zeros((batch, A, sub), dtype=dtype)
    if syms is None:
        start, owner = 0, None
        w[:, 0, 0] = one  # warm-up digits are never read before m real cells exist
    else:
        start, owner, state_cols, window_cols = _clamp_tables(d, n, k)
        rows = np.arange(batch)
        state = syms[:, state_cols] @ A ** np.arange(m - 1, -1, -1)
        head_codes = syms[:, window_cols] @ A ** np.arange(n ** d - 1, -1, -1)
        w.reshape(batch, A * sub)[rows, state] = bits[head_codes].all(axis=1)
    for t, cell in enumerate(islice(product(range(k), repeat=d), start, None), start):
        old = w.reshape(batch, sub, A)  # oldest digit last
        agg = add(old[:, :, 0], old[:, :, 1])
        for a in range(2, A):
            add(agg, old[:, :, a], out=agg)
        checked = min(cell) >= n - 1
        if owner is not None and owner[t] >= 0:
            sym = syms[:, owner[t]]  # each row's clamped symbol, its one branch
            w.fill(0)
            w[rows, sym] = mul(agg, check[sym]) if checked else agg
        else:
            for a in range(A):
                if checked:
                    mul(agg, check[a], out=w[:, a])
                else:
                    w[:, a] = agg
    return w.reshape(batch, A * sub)


def _exists_lanes(lanes: np.ndarray, d: int, n: int, alphabet: int, k: int) -> np.ndarray:
    """Per word of (windows, G) trial lanes, the lanes whose trial has a
    side-k pattern all of whose windows are allowed: (G,) uint64.  The
    frontier walks one 64-trial word at a time."""
    return np.array([
        np.bitwise_or.reduce(_frontier_weights(lanes[:, g], d, n, alphabet, k, np.uint64),
                             axis=None)
        for g in range(lanes.shape[1])
    ], dtype=np.uint64)


def pattern_exists(omega: AllowedSet, k: int) -> bool:
    """Exact: is there a side-k pattern all of whose windows are allowed?"""
    lanes = pack_lanes(omega.bits[None, :])
    return bool(_exists_lanes(lanes, omega.d, omega.n, omega.alphabet, k)[0])


def count_patterns_1d_fast(bits: np.ndarray, n: int, alphabet: int, k: int) -> float:
    """Float line count; exact while |A|^k <= 2^52."""
    dtype = _exact_dtype(alphabet, k)
    if dtype is object:
        raise ResourceBudgetError("count may exceed exact float range; use count_patterns")
    return float(_frontier_weights(bits, 1, n, alphabet, k, dtype).sum())


def count_patterns(omega: AllowedSet, k: int):
    """Exact number of allowed side-k patterns (arbitrary precision)."""
    dtype = _exact_dtype(omega.alphabet, k ** omega.d)
    return int(_frontier_weights(omega.bits, omega.d, omega.n, omega.alphabet,
                                 k, dtype).sum())


# ---------------------------------------------------------------------------
# Torus search and exact periodic counts: the cyclic slab transfer

@lru_cache(maxsize=None)
def _torus_table(shape, n: int, alphabet: int, anchors: int) -> np.ndarray:
    """Window codes of every config on the wraparound shape, shaped (configs,
    anchors): config c is the id of its flat symbols (first cell most
    significant) and column a the window at the a-th anchor in C order.  The
    slab transfer reads the anchors of the oldest slab of (n, *cross); the
    direct search reads all of them.  Cached; read-only."""
    vol = math.prod(shape)
    reads = pt.window_cells(shape, n)[:anchors]
    out = pt.id_window_codes(np.arange(alphabet ** vol, dtype=np.int64), vol, reads, alphabet)
    out.setflags(write=False)
    return out


def _torus_direct_lanes(lanes: np.ndarray, count: int, shape, n: int, alphabet: int):
    """Lex-least allowed config on the wraparound shape for each of the count
    trials in (windows, G) lanes: (found, configs), configs shaped (count,
    volume) as uint8 flat symbols, 0 where nothing was found.  The cached
    table of every config is ANDed into (configs, G) lanes one anchor column
    at a time; a trial's config is the first one whose bit is set."""
    vol = math.prod(shape)
    table = _torus_table(tuple(shape), n, alphabet, vol)
    ok = lanes[table[:, 0]]
    for a in range(1, vol):
        ok &= lanes[table[:, a]]
    hits = unpack_lanes(ok, count)
    first = hits.argmax(axis=1)[:, None]
    digits = alphabet ** np.arange(vol - 1, -1, -1, dtype=np.int64)
    return hits.any(axis=1), (first // digits % alphabet).astype(np.uint8)


def _walk_budget(dtype) -> int:
    return 1 << (COUNT_STATE_BUDGET_BITS if dtype is object else FRONTIER_BUDGET_BITS)


def _slab_gate(omega: AllowedSet, cross, dtype) -> np.ndarray:
    """Allowed steps, shaped (states, slab values): a state is n-1 stacked
    slabs, and state s appending slab x is allowed when every window of the
    block s * slab values + x is; it moves to that block minus its oldest slab.
    Budget, for walks in dtype: the block table holds at most
    2^FRONTIER_BUDGET_BITS blocks, or 2^COUNT_STATE_BUDGET_BITS with exact
    ints, and a walk from every state takes at most 2^(FRONTIER_BUDGET_BITS -
    COUNT_STATE_BUDGET_BITS) passes of _slab_walk."""
    X = omega.alphabet ** math.prod(cross)
    S = X ** (omega.n - 1)
    budget = _walk_budget(dtype)
    if S * X > budget or S * S > budget << (FRONTIER_BUDGET_BITS - COUNT_STATE_BUDGET_BITS):
        raise ResourceBudgetError(f"slab transfer over budget: {S} states, {S * X} blocks")
    table = _torus_table((omega.n, *cross), omega.n, omega.alphabet, math.prod(cross))
    ok = omega.bits[table].all(axis=1)
    return ok.reshape(S, X)


def _slab_walk(gate: np.ndarray, starts, ends, steps: int, dtype) -> np.ndarray:
    """Weight of the length-`steps` walks from each start state to its end
    state.  dtype picks the semiring: bool is (or, and), run as float32 0/1
    weights saturated at 1 after each step; float64 and object are (+, *).
    Each pass walks a batch of starts holding at most 2^FRONTIER_BUDGET_BITS
    weights, or 2^COUNT_STATE_BUDGET_BITS with exact ints."""
    S, X = gate.shape
    H = min(S, X)  # values of the oldest slab, which a step drops (none if n = 1)
    work = np.float32 if dtype is bool else dtype
    by_kept = gate.reshape(H, S // H, X).transpose(1, 0, 2).astype(work)
    chunk = _walk_budget(dtype) // S
    out = []
    for lo in range(0, len(starts), chunk):
        rows = np.arange(len(starts[lo : lo + chunk]))
        w = np.zeros((len(rows), S), dtype=work)
        w[rows, starts[lo : lo + chunk]] = 1
        for _ in range(steps):
            nxt = np.matmul(w.reshape(len(rows), H, S // H).transpose(2, 0, 1), by_kept)
            w = nxt.transpose(1, 0, 2).reshape(len(rows), -1, S).sum(axis=1)
            if dtype is bool:
                np.minimum(w, 1, out=w)
        out.append(w[rows, ends[lo : lo + chunk]].astype(dtype))
    return np.concatenate(out)


def _torus_transfer(omega: AllowedSet, shape):
    """Lex-least allowed config on the wraparound shape (flat symbols) by the
    slab transfer along axis 0, or None."""
    n, A, b = omega.n, omega.alphabet, shape[0]
    vol = math.prod(shape[1:])
    gate = _slab_gate(omega, shape[1:], bool)
    S, X = gate.shape
    states = np.arange(S)
    closed = np.nonzero(_slab_walk(gate, states, states, b, bool))[0]
    if len(closed) == 0:
        return None
    s0 = cur = int(closed[0])
    slabs = [s0 // X ** (n - 2 - i) % X for i in range(n - 1)]
    # append the least slab from which a walk still closes at s0
    for t in range(1, b - n + 2):
        xs = np.nonzero(gate[cur])[0]
        nxt = (cur * X + xs) % S
        back = _slab_walk(gate, nxt, np.full(len(nxt), s0), b - t, bool)
        x = int(xs[np.argmax(back)])
        cur = (cur * X + x) % S
        slabs.append(x)
    return tuple(v // A ** (vol - 1 - c) % A for v in slabs[:b] for c in range(vol))


def _torus_hits(omegas, lanes: np.ndarray, shape):
    """Lex-least allowed config on the wraparound shape for each allowed set,
    given their (windows, G) trial lanes: (found, configs) as from
    _torus_direct_lanes.  A shape with at most TORUS_DIRECT_BUDGET configs is
    searched directly in the lanes, a larger one by the slab transfer per set."""
    n, A, vol = omegas[0].n, omegas[0].alphabet, math.prod(shape)
    if A ** vol <= TORUS_DIRECT_BUDGET:
        return _torus_direct_lanes(lanes, len(omegas), shape, n, A)
    hits = [_torus_transfer(o, shape) for o in omegas]
    return (np.array([c is not None for c in hits]),
            np.array([c or (0,) * vol for c in hits], dtype=np.uint8))


def torus_config(omega: AllowedSet, shape):
    """An allowed wraparound config on the shape (flat, lex order) or None."""
    found, cfgs = _torus_hits([omega], pack_lanes(omega.bits[None, :]), shape)
    return tuple(cfgs[0].tolist()) if found[0] else None


def _orbits_allowed(omegas, orbits) -> np.ndarray:
    """Per orbit, whether its allowed set retains every window of it: one
    gather of window codes per lattice, each row against its own bits."""
    bits = np.stack([o.bits for o in omegas])
    ok = np.empty(len(orbits), dtype=bool)
    for at, codes in lattice_window_codes(orbits, omegas[0].n):
        ok[at] = bits[at[:, None], codes].all(axis=1)
    return ok


def _torus_orbits(omegas, shape, cfgs: np.ndarray):
    """Certificate orbits of the configs (rows of flat symbols) found on the
    wraparound shape, one per allowed set.  The rows are canonicalised in one
    batch; a row that a nontrivial translate fixes has a coarser stabilizer
    and goes through orbit_from_config.  The orbits are checked against their
    allowed sets' windows by _orbits_allowed."""
    d = len(shape)
    H = tuple(tuple(shape[i] if i == j else 0 for j in range(d)) for i in range(d))
    fixed, canon = _canonical_rows(H, cfgs)
    out = [orbit_from_config(H, cfg, omega.alphabet) if fix[1:].any()
           else Orbit(H, tuple(row.tolist()), omega.alphabet)
           for omega, cfg, fix, row in zip(omegas, cfgs, fixed, canon)]
    if not _orbits_allowed(omegas, out).all():
        raise CertificateError(f"torus config on {shape} shows a forbidden window")
    return out


def decide_empty_batch(omegas, k_max: int, torus_max: int) -> list:
    """Semi-decision for allowed sets of one (d, n, |A|): existence search
    over k = n..k_max (failure => empty with certificate k) interleaved with
    wraparound searches over shapes with sides up to torus_max (success =>
    nonempty with an orbit certificate).  Unknown when both exhaust.

    The stage schedule and its budget clips depend only on (d, n, |A|, k,
    shape), so it is walked once for the whole batch: the trials still
    undecided are packed into lanes, each stage answers all of them, and the
    lanes are repacked once a stage decides some.  Every verdict, certificate
    and effort dict is the one the trial gets alone.  d = 1 is decided
    exactly, after one pruning of the whole batch, with the cutoffs unused."""
    omegas = list(omegas)
    if not omegas:
        return []
    d, n, A = omegas[0].d, omegas[0].n, omegas[0].alphabet
    if any((o.d, o.n, o.alphabet) != (d, n, A) for o in omegas):
        raise DomainError("a batch needs one (d, n, alphabet)")
    bits = np.stack([o.bits for o in omegas])
    out = [None] * len(omegas)
    if d == 1:
        # an empty row is certified by the longest path of its window graph,
        # a nonempty one by the orbit of its shortest cycle: a config on the
        # torus (p,), certified with the other rows of its cycle length p
        alive = prune_rows(bits, n, A)
        nonempty = alive.any(axis=1)
        empty = np.flatnonzero(~nonempty)
        for i, rounds in zip(empty, _peel_rounds(bits[empty], A).tolist()):
            out[i] = EmptinessVerdict("empty", certificate_k=n + rounds,
                                      effort={"longest_path_edges": rounds - 1})
        by_length = {}
        for i in np.flatnonzero(nonempty):
            word = shortest_allowed_cycle(alive[i], n, A)
            by_length.setdefault(len(word), []).append((i, word))
        for p, hits in sorted(by_length.items()):
            cfgs = np.array([word for _, word in hits], dtype=np.uint8)
            orbits = _torus_orbits([omegas[i] for i, _ in hits], (p,), cfgs)
            for (i, _), orbit in zip(hits, orbits):
                out[i] = EmptinessVerdict("nonempty", certificate_orbit=orbit,
                                          effort={"cycle_length": p})
        return out
    shapes = sorted(
        product(*(range(1, torus_max + 1),) * d),
        key=lambda s: (max(s), math.prod(s), s),
    ) if torus_max >= 1 else []
    live = np.arange(len(omegas))
    lanes = pack_lanes(bits)

    def retire(done):
        """The live trials and their lanes once the done ones leave."""
        return live[~done], pack_lanes(bits[live[~done]]) if done.any() else lanes

    checked_k = 0
    tori_tried = 0
    clipped = []
    k_ceiling, torus_ceiling = k_max, torus_max
    step = 0
    while len(live):
        k = n + step
        progress = False
        if k <= k_ceiling:
            progress = True
            checked_k = k
            try:
                words = _exists_lanes(lanes, d, n, A, k)
            except ResourceBudgetError:
                # existence search exhausted early; keep the torus search going
                k_ceiling = checked_k = k - 1
                clipped.append(f"k>{k - 1}")
            else:
                empty = ~unpack_lanes(words[None, :], len(live))[:, 0]
                for i in live[empty]:
                    out[i] = EmptinessVerdict(
                        "empty", certificate_k=k,
                        effort={"k_checked": k, "tori_tried": tori_tried})
                live, lanes = retire(empty)
        for shape in shapes:
            if max(shape) != step + 1 or max(shape) > torus_ceiling or not len(live):
                continue
            progress = True
            tori_tried += 1
            try:
                found, cfgs = _torus_hits([omegas[i] for i in live], lanes, shape)
            except ResourceBudgetError:
                torus_ceiling = max(shape) - 1
                clipped.append(f"torus>{max(shape) - 1}")
                break
            if found.any():
                rows = live[found]
                orbits = _torus_orbits([omegas[i] for i in rows], shape, cfgs[found])
                for i, orbit in zip(rows, orbits):
                    out[i] = EmptinessVerdict(
                        "nonempty", certificate_orbit=orbit,
                        effort={"k_checked": checked_k, "tori_tried": tori_tried,
                                "torus_shape": shape})
                live, lanes = retire(found)
        if not progress:
            for i in live:
                effort = {"k_checked": checked_k, "tori_tried": tori_tried}
                if clipped:
                    effort["budget_clipped"] = list(clipped)
                out[i] = EmptinessVerdict("unknown", effort=effort)
            break
        step += 1
    return out


def decide_empty(omega: AllowedSet, k_max: int, torus_max: int) -> EmptinessVerdict:
    """The semi-decision of decide_empty_batch for one allowed set (exact for
    d = 1)."""
    return decide_empty_batch([omega], k_max, torus_max)[0]


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
    chunk = max(1, (1 << FRONTIER_BUDGET_BITS) // A ** m)
    return np.concatenate([
        _frontier_weights(omega.bits, d, n, A, k, dtype, syms[lo : lo + chunk]).sum(axis=1)
        for lo in range(0, len(syms), chunk)
    ])


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
        # ell-periodic points are the closed length-ell walks of the slab
        # transfer on the ell^d torus
        dtype = _exact_dtype(omega.alphabet, ell ** d)
        gate = _slab_gate(omega, (ell,) * (d - 1), dtype)
        states = np.arange(len(gate))
        cnt = _slab_walk(gate, states, states, ell, dtype).sum()
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
    if pc.exact and pc.count > phi:
        raise CertificateError(f"periodic count {pc.count} exceeds pattern count {phi}")
    return EntropyEstimate(k, phi, h_upper, pc.count, pc.stderr, pc.exact,
                           h_per, pc.boundary_pool)


def allowed_orbit_lanes(bits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(orbits, G) uint64 trial lanes: bit r of row j is set when every window
    of orbit j, a row of the orbit window masks, is retained in row r of bits.
    Each orbit ANDs the trial lanes of its windows, one window slot of every
    orbit at a time; an orbit with fewer windows than the widest fills its
    slots with all-ones lanes."""
    lanes = np.vstack([pack_lanes(bits), np.full((1, -(-len(bits) // 64)), ~np.uint64(0))])
    counts = np.count_nonzero(masks, axis=1)
    orbit, window = np.nonzero(masks)  # orbit by orbit
    slot = np.arange(len(orbit)) - np.repeat(np.cumsum(counts) - counts, counts)
    slots = np.full((len(masks), counts.max(initial=1)), len(lanes) - 1)
    slots[orbit, slot] = window
    ok = lanes[slots[:, 0]]
    for j in range(1, slots.shape[1]):
        ok &= lanes[slots[:, j]]
    return ok


def allowed_orbit_mask(bits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(rows, orbits) bool: whether every window of each orbit, a row of the
    orbit window masks, is retained in each row of bits."""
    return unpack_lanes(allowed_orbit_lanes(bits, masks), len(bits))


def periodic_orbits_present(omega: AllowedSet, max_size: int):
    """All allowed orbits of size <= max_size: those whose windows are all
    retained, counted against the cached orbit window masks."""
    orbs, masks, _ = orbit_window_table(omega.alphabet, omega.d, omega.n, max_size)
    present = allowed_orbit_mask(omega.bits[None, :], masks)[0]
    return [o for o, ok in zip(orbs, present) if ok]
