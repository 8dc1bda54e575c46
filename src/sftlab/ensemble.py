"""The product probability space over window subsets and the induced random SFT.

Sampling is counter-based: a Philox stream keyed by (seed, stream tag, d, n,
|A|) with the trial index in the counter, one 64-bit word per window bit.  A
window is retained when the word's top 53 bits fall below round-down(alpha *
2^53), so identical (seed, trial) give identical draws on every platform, and
draws for different alphas are coupled monotonically (same uniforms, different
threshold).
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import patterns as pt
from .orbits import Orbit, orbit_windows

TAG_WINDOW_BITS = 0x57494E44  # window-retention stream
TAG_BOUNDARY = 0x42445259     # periodic-boundary sampling stream

_MAGIC = b"SFTOMEGA"
_SAMPLE_BLOCK = 64  # trials whose raw words are thresholded at once


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _mix_key(*vals) -> int:
    h = 0
    for v in vals:
        h = _splitmix64(h ^ (int(v) & 0xFFFFFFFFFFFFFFFF))
    return h


def _stream_key(seed: int, tag: int, context) -> np.ndarray:
    """The Philox key of the (seed, tag, context) stream."""
    return np.array([_mix_key(seed, tag, *context),
                     _mix_key(tag, seed, *context, 0xA5A5A5A5)], dtype=np.uint64)


def stream_words(seed: int, tag: int, context, trial: int, count: int) -> np.ndarray:
    """`count` raw 64-bit words from the (seed, tag, context; trial) stream:
    Philox with the trial in the last counter word, the others 0."""
    counter = np.array([0, 0, 0, int(trial) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    bg = np.random.Philox(key=_stream_key(seed, tag, context), counter=counter)
    return bg.random_raw(count)


def bernoulli_threshold(alpha: float) -> int:
    """Exact integer threshold: a 53-bit uniform below this has probability
    round-down(alpha * 2^53) / 2^53."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    return int(alpha * 2.0 ** 53)


@dataclass(frozen=True)
class EnsembleParams:
    alphabet: int
    d: int
    n: int
    alpha: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")
        pt.window_table_size(self.alphabet, self.d, self.n)

    @property
    def n_windows(self) -> int:
        return self.alphabet ** (self.n ** self.d)


class AllowedSet:
    """Bitset over all side-n windows; set bit = window retained.  The SFT it
    defines forbids exactly the windows with clear bits."""

    __slots__ = ("d", "n", "alphabet", "bits", "seed", "trial")

    def __init__(self, d, n, alphabet, bits, seed=0, trial=0):
        w = pt.window_table_size(alphabet, d, n)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (w,):
            raise DomainError(f"bitset must have length {w}")
        self.d, self.n, self.alphabet = d, n, alphabet
        self.bits = bits
        self.seed, self.trial = seed, trial

    @property
    def n_windows(self) -> int:
        return len(self.bits)

    def allowed_codes(self, codes) -> np.ndarray:
        return self.bits[np.asarray(codes, dtype=np.int64)]

    def __eq__(self, other):
        return (
            isinstance(other, AllowedSet)
            and (self.d, self.n, self.alphabet) == (other.d, other.n, other.alphabet)
            and np.array_equal(self.bits, other.bits)
        )

    def save(self, path) -> None:
        """Header (d, n, |A|, seed, trial) + raw little-endian bitset."""
        packed = np.packbits(self.bits, bitorder="little")
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<QQQqq", self.d, self.n, self.alphabet,
                                self.seed, self.trial))
            f.write(packed.tobytes())

    @classmethod
    def load(cls, path) -> "AllowedSet":
        with open(path, "rb") as f:
            if f.read(8) != _MAGIC:
                raise DomainError("not an allowed-set file")
            header = f.read(40)
            if len(header) < 40:
                raise DomainError("truncated allowed-set header")
            d, n, alphabet, seed, trial = struct.unpack("<QQQqq", header)
            raw = np.frombuffer(f.read(), dtype=np.uint8)
        w = pt.window_table_size(alphabet, d, n)
        bits = np.unpackbits(raw, bitorder="little")[:w].astype(bool)
        return cls(d, n, alphabet, bits, seed, trial)


def sample(params: EnsembleParams, trial: int) -> AllowedSet:
    """Retain each window independently with probability alpha; deterministic
    in (seed, trial).  The batch of one of sample_bits_batch."""
    bits = sample_bits_batch(params, [trial])[0]
    return AllowedSet(params.d, params.n, params.alphabet, bits, params.seed, trial)


def sample_bits_batch(params: EnsembleParams, trials) -> np.ndarray:
    """(len(trials), n_windows) boolean matrix; row i is sample(params,
    trials[i]).  One Philox serves the batch: before each trial it is set back
    to its fresh state, buffer empty, with the counter stream_words starts
    that trial at, so the words are the same."""
    thr = np.uint64(bernoulli_threshold(params.alpha))
    w = params.n_windows
    bg = np.random.Philox(key=_stream_key(params.seed, TAG_WINDOW_BITS,
                                          (params.d, params.n, params.alphabet)))
    state = bg.state
    counter = state["state"]["counter"]
    out = np.empty((len(trials), w), dtype=bool)
    words = np.empty((max(1, min(len(trials), _SAMPLE_BLOCK)), w), dtype=np.uint64)
    for lo in range(0, len(trials), len(words)):
        block = trials[lo : lo + len(words)]
        for i, t in enumerate(block):
            counter[3] = int(t) & 0xFFFFFFFFFFFFFFFF
            bg.state = state
            words[i] = bg.random_raw(w)
        np.less(words[: len(block)] >> np.uint64(11), thr, out=out[lo : lo + len(block)])
    return out


def pack_lanes(rows: np.ndarray) -> np.ndarray:
    """Trial lanes of boolean rows (trials, windows): a (windows, G) uint64
    array, G = ceil(trials / 64), whose word [w, g] holds rows[64 g + r, w] in
    bit r.  Lanes past the last trial are 0."""
    rows = np.asarray(rows, dtype=bool)
    count, w = rows.shape
    groups = -(-count // 64)
    padded = np.zeros((groups * 64, w), dtype=np.uint8)
    padded[:count] = rows
    by_byte = padded.reshape(groups * 8, 8, w)  # byte b of a word: rows 8 b .. 8 b + 7
    packed = by_byte[:, 0].copy()
    for r in range(1, 8):
        packed |= by_byte[:, r] << r
    words = np.ascontiguousarray(packed.reshape(groups, 8, w).transpose(2, 0, 1)).view("<u8")
    return words.reshape(w, groups).astype(np.uint64, copy=False)


def unpack_lanes(lanes: np.ndarray, count: int) -> np.ndarray:
    """The boolean rows (count, columns) of (columns, G) trial lanes; the
    inverse of pack_lanes."""
    raw = np.ascontiguousarray(lanes, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw.reshape(len(lanes), -1, 8), axis=2, bitorder="little")
    return bits.reshape(len(lanes), -1)[:, :count].T.astype(bool)


def is_locally_allowed(omega: AllowedSet, u: pt.Pattern) -> bool:
    """True when every side-n window of u is retained."""
    codes = pt.windows(u, omega.n)
    return bool(omega.allowed_codes(sorted(codes)).all())


def orbit_allowed(omega: AllowedSet, orbit: Orbit) -> bool:
    """True when every window of the periodic configuration is retained; this
    holds with probability alpha^(#windows)."""
    codes = orbit_windows(orbit, omega.n)
    return bool(omega.allowed_codes(sorted(codes)).all())
