"""Patterns on finite shapes, window extraction, integer window codecs, codecs and IO.

A window code is the base-|A| integer whose digits are the window's symbols in
lexicographic (row-major) point order, first point most significant.  This is
the bijection used for allowed-set bitsets and for the little-endian binary
window format.
"""

import math
import struct
from itertools import product

import numpy as np

from .errors import CertificateError, DomainError, ResourceBudgetError
from .geometry import Cube, PointSet, check_dim, cubes_in, full_cube

MAX_WINDOW_TABLE_BITS = 28  # refuse |A|^(n^d) > 2^28 window tables
HISTOGRAM_BUDGET = 2 ** 24


def window_table_size(alphabet: int, d: int, n: int) -> int:
    """Number of distinct side-n windows, guarded to 2^28; the one check of
    (d, n, |A|): d in [1, 3], n >= 1 and 2 <= |A| <= 256 (uint8 symbols)."""
    if not (1 <= d <= 3 and n >= 1 and 2 <= alphabet <= 256):
        raise DomainError(f"need d in [1, 3], n >= 1 and 2 <= alphabet <= 256, "
                          f"got d {d}, n {n}, alphabet {alphabet}")
    count = alphabet ** (n ** d)
    if count > 2 ** MAX_WINDOW_TABLE_BITS:
        raise ResourceBudgetError(
            f"window table {alphabet}^{n**d} exceeds 2^{MAX_WINDOW_TABLE_BITS}"
        )
    return count


def _shape_points(shape):
    if isinstance(shape, Cube):
        return shape.points()
    return list(shape)


def _normalize_shape(shape):
    """Translate so the lex-minimal point sits at the origin."""
    if isinstance(shape, Cube):
        m = shape.origin
        if all(x == 0 for x in m):
            return shape, m
        return Cube((0,) * shape.d, shape.side), m
    if not len(shape):
        return shape, ()
    m = shape.min_point()
    if all(x == 0 for x in m):
        return shape, m
    moved = PointSet(tuple(x - o for x, o in zip(p, m)) for p in shape)
    return moved, m


class Pattern:
    """Symbols on a finite shape (Cube or PointSet), defined up to translation.

    Stored normalized: the shape's lex-minimal point is the origin, and
    `symbols` lists the symbols in lex order of the shape's points.
    """

    __slots__ = ("shape", "symbols", "alphabet", "_index")

    def __init__(self, shape, symbols, alphabet: int):
        shape, _ = _normalize_shape(shape)
        symbols = np.asarray(symbols, dtype=np.uint8)
        pts = _shape_points(shape)
        if symbols.ndim != 1 or len(symbols) != len(pts):
            raise DomainError("symbol count does not match shape size")
        if len(symbols) and int(symbols.max()) >= alphabet:
            raise DomainError("symbol out of alphabet range")
        self.shape = shape
        self.symbols = symbols
        self.alphabet = alphabet
        self._index = None

    @classmethod
    def from_array(cls, arr, alphabet: int) -> "Pattern":
        arr = np.asarray(arr, dtype=np.uint8)
        check_dim(arr.ndim)
        side = arr.shape[0]
        if any(s != side for s in arr.shape):
            raise DomainError("array pattern must be a hypercube")
        return cls(Cube((0,) * arr.ndim, side), arr.reshape(-1), alphabet)

    @property
    def d(self) -> int:
        if isinstance(self.shape, Cube):
            return self.shape.d
        return len(self.shape.min_point())

    def points(self):
        return _shape_points(self.shape)

    def is_cube(self) -> bool:
        return isinstance(self.shape, Cube)

    def as_array(self) -> np.ndarray:
        if not self.is_cube():
            raise DomainError("as_array requires a cube-shaped pattern")
        k = self.shape.side
        return self.symbols.reshape((k,) * self.shape.d)

    def _point_index(self):
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.points())}
        return self._index

    def at(self, p) -> int:
        return int(self.symbols[self._point_index()[tuple(p)]])

    def restrict(self, S) -> "Pattern":
        """Subpattern on S (translated into this pattern's coordinates)."""
        idx = self._point_index()
        if isinstance(S, (Cube, PointSet)):
            pts = _shape_points(S)
        else:
            pts = [tuple(p) for p in S]
        try:
            sel = [idx[p] for p in pts]
        except KeyError as e:
            raise DomainError(f"restriction target not inside shape: {e}") from None
        sub_shape = S if isinstance(S, (Cube, PointSet)) else PointSet(pts)
        return Pattern(sub_shape, self.symbols[sel], self.alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        if self.alphabet != other.alphabet:
            return False
        if self.is_cube() != other.is_cube():
            return self.points() == other.points() and np.array_equal(
                self.symbols, other.symbols
            )
        if self.is_cube():
            if (self.shape.side, self.shape.d) != (other.shape.side, other.shape.d):
                return False
        elif self.shape != other.shape:
            return False
        return np.array_equal(self.symbols, other.symbols)

    def __hash__(self) -> int:
        key = tuple(self.points()) if not self.is_cube() else (self.shape.side, self.shape.d)
        return hash((key, self.symbols.tobytes(), self.alphabet))

    def __repr__(self) -> str:
        return f"Pattern(d={self.d}, |shape|={len(self.symbols)}, A={self.alphabet})"


def encode_window(symbols, alphabet: int) -> int:
    """Base-|A| code of a symbol list in lex point order (first = most significant)."""
    code = 0
    for s in symbols:
        code = code * alphabet + int(s)
    return code


def decode_window(code: int, n: int, d: int, alphabet: int) -> Pattern:
    total = n ** d
    syms = np.empty(total, dtype=np.uint8)
    for i in range(total - 1, -1, -1):
        syms[i] = code % alphabet
        code //= alphabet
    if code:
        raise DomainError("window code out of range")
    return Pattern(full_cube(n, d), syms, alphabet)


def row_codes(rows: np.ndarray, alphabet: int) -> np.ndarray:
    """Codes of symbol rows (..., cells), each a window in lex point order:
    int64 up to 62 bits, past that Python integers in an object array."""
    cells = rows.shape[-1]
    if cells * math.log2(alphabet) <= 62:
        return rows.astype(np.int64) @ alphabet ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    codes = [encode_window(row, alphabet) for row in rows.reshape(-1, cells)]
    return np.array(codes, dtype=object).reshape(rows.shape[:-1])


def cube_window_codes(arr: np.ndarray, n: int, alphabet: int):
    """Codes of every side-n window of a box pattern, anchor-ordered (C order)."""
    if n < 1 or any(s < n for s in arr.shape):
        raise DomainError(f"no side-{n} cube fits in the pattern")
    view = np.lib.stride_tricks.sliding_window_view(arr, (n,) * arr.ndim)
    return row_codes(view.reshape(-1, n ** arr.ndim), alphabet)


def windows(u: Pattern, n: int) -> frozenset:
    """Set of side-n window codes appearing in u."""
    codes = frozenset(code for _, code in window_positions(u, n))
    if not codes:
        raise DomainError("no side-n cube fits in the pattern")
    return codes


def window_positions(u: Pattern, n: int):
    """(anchor, code) for every side-n cube in u, in lex anchor order."""
    if u.is_cube():
        k = u.shape.side
        codes = cube_window_codes(u.as_array(), n, u.alphabet).tolist()
        anchors = list(product(range(k - n + 1), repeat=u.d))
        return list(zip(anchors, codes))
    out = []
    for c in cubes_in(u.shape, n):
        out.append((c.origin, encode_window(u.restrict(c).symbols, u.alphabet)))
    return out


def window_cells(shape, n: int) -> np.ndarray:
    """Flat cell indices of every side-n window on the periodic box `shape`,
    shaped (anchors, n^d): row a is the window anchored at the a-th cell in C
    order, its cells in lex point order, reads wrapping around every axis."""
    cells = np.arange(math.prod(shape), dtype=np.int64).reshape(shape)
    wrapped = np.pad(cells, [(0, n - 1)] * len(shape), mode="wrap")
    view = np.lib.stride_tricks.sliding_window_view(wrapped, (n,) * len(shape))
    return view.reshape(-1, n ** len(shape))


def id_window_codes(ids, cells: int, reads, alphabet: int) -> np.ndarray:
    """Window codes of configurations given by id, shaped (ids, windows): an id
    is the base-|A| number of its `cells` symbols, cell 0 most significant, and
    row w of reads lists the cells of window w in lex point order.  Built one
    window column at a time."""
    out = np.zeros((len(ids), len(reads)), dtype=np.int64)
    for w, row in enumerate(reads):
        for cell in row:
            out[:, w] = out[:, w] * alphabet + ids // alphabet ** (cells - 1 - int(cell)) % alphabet
    return out


def complexity_histogram(alphabet: int, d: int, n: int, k: int) -> dict:
    """Exhaustive: bucket all side-k patterns by their number of distinct
    side-n windows.  Masses sum to |A|^(k^d)."""
    if n > k:
        raise DomainError("need n <= k")
    total = alphabet ** (k ** d)
    if total > HISTOGRAM_BUDGET:
        raise ResourceBudgetError(f"{alphabet}^{k**d} patterns exceed budget 2^24")
    window_table_size(alphabet, d, n)
    # the anchors whose windows do not wrap around the side-k box
    inside = (slice(0, k - n + 1),) * d
    reads = window_cells((k,) * d, n).reshape((k,) * d + (-1,))[inside].reshape(-1, n ** d)
    hist: dict = {}
    chunk = 1 << 18
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        for row in id_window_codes(ids, k ** d, reads, alphabet):
            j = len(set(row.tolist()))
            hist[j] = hist.get(j, 0) + 1
    if sum(hist.values()) != total:
        raise CertificateError(f"histogram masses sum to {sum(hist.values())}, not {total}")
    return hist


# ---------------------------------------------------------------------------
# IO: text patterns and binary window indices

def save_text(path, u: Pattern) -> None:
    """Text format: header 'd side alphabet', then symbol rows (one row per
    trailing-axis line, blank line between higher-dimensional blocks)."""
    if not u.is_cube():
        raise DomainError("text format covers cube-shaped patterns")
    arr = u.as_array()
    k, d = u.shape.side, u.d
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{d} {k} {u.alphabet}\n")
        if d == 1:
            f.write(" ".join(str(int(x)) for x in arr) + "\n")
        elif d == 2:
            for row in arr:
                f.write(" ".join(str(int(x)) for x in row) + "\n")
        else:
            for block in arr:
                for row in block:
                    f.write(" ".join(str(int(x)) for x in row) + "\n")
                f.write("\n")


def _ints(tokens, what):
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise DomainError(f"pattern {what} holds a token that is not an integer") from None


def load_text(path) -> Pattern:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 3:
            raise DomainError("bad pattern header, expected 'd side alphabet'")
        d, k, alphabet = _ints(header, "header")
        vals = _ints((tok for line in f for tok in line.split()), "symbols")
    if k < 1 or alphabet > 256:
        raise DomainError(f"need side >= 1 and alphabet <= 256 (uint8 symbols), "
                          f"got side {k}, alphabet {alphabet}")
    if len(vals) != k ** d:
        raise DomainError(f"expected {k**d} symbols, got {len(vals)}")
    bad = [v for v in vals if not 0 <= v < alphabet]
    if bad:
        raise DomainError(f"symbol {bad[0]} outside [0, {alphabet})")
    return Pattern.from_array(np.asarray(vals, dtype=np.uint8).reshape((k,) * d), alphabet)


def write_window_indices(path, codes) -> None:
    """Window codes as little-endian unsigned 64-bit integers."""
    with open(path, "wb") as f:
        for c in sorted(int(x) for x in codes):
            f.write(struct.pack("<Q", c))


def read_window_indices(path):
    out = []
    with open(path, "rb") as f:
        while True:
            b = f.read(8)
            if not b:
                break
            if len(b) != 8:
                raise DomainError("truncated window index file")
            out.append(struct.unpack("<Q", b)[0])
    return out
