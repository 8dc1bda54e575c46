"""Integer geometry of Z^d: hypercubes, faces, skeletons, boundaries, cube enumeration.

Coordinates are 0-based everywhere: the side-k hypercube is [0, k)^d and a face
anchors its restricted coordinates at 0 or k-1.  Points are plain int tuples and
compare lexicographically (Python tuple order), which is the ordering used for
all "lexicographically minimal" constructions in the library.

Regions (interiors, boundaries, thickenings, cube anchors) are computed on a
boolean grid over the bounding box of the set, by separable box filters.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CertificateError, DegenerateGeometryError, DomainError

MAX_DIM = 3          # desk-scale guard
MAX_POINTSET = 10**6

Point = tuple


def check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise DomainError(f"dimension must be in [1, {MAX_DIM}], got {d}")


@dataclass(frozen=True)
class Cube:
    """Axis-aligned hypercube: origin + [0, side)^d."""

    origin: Point
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise DomainError(f"cube side must be >= 1, got {self.side}")
        check_dim(len(self.origin))

    @property
    def d(self) -> int:
        return len(self.origin)

    @property
    def volume(self) -> int:
        return self.side ** self.d

    def points(self):
        """All points in lexicographic order."""
        return [tuple(p) for p in product(*(range(o, o + self.side) for o in self.origin))]

    def min_point(self) -> Point:
        return self.origin

    def contains_point(self, p: Point) -> bool:
        return all(o <= x < o + self.side for o, x in zip(self.origin, p))


class PointSet:
    """Explicit finite subset of Z^d, stored sorted (lex) and deduplicated."""

    __slots__ = ("points", "_set")

    def __init__(self, points):
        pts = sorted(set(tuple(p) for p in points))
        if pts:
            d = len(pts[0])
            if any(len(p) != d for p in pts):
                raise DomainError("mixed-dimension points")
            if len(pts) > MAX_POINTSET:
                raise DomainError(f"point set exceeds {MAX_POINTSET} points")
        self.points = pts
        self._set = frozenset(pts)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._set

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} pts)"

    @classmethod
    def from_grid(cls, grid, lo) -> "PointSet":
        """The set cells of a boolean grid whose first cell sits at point lo."""
        return cls(map(tuple, (np.argwhere(grid) + lo).tolist()))

    def min_point(self) -> Point:
        if not self.points:
            raise DomainError("empty point set has no minimum")
        return self.points[0]

    def issubset(self, other) -> bool:
        if isinstance(other, PointSet):
            return self._set <= other._set
        if isinstance(other, Cube):
            return all(other.contains_point(p) for p in self.points)
        o = set(tuple(p) for p in other)
        return self._set <= o


def as_pointset(E) -> PointSet:
    if isinstance(E, PointSet):
        return E
    if isinstance(E, Cube):
        return PointSet(E.points())
    return PointSet(E)


@dataclass(frozen=True)
class Face:
    """Face of the side-k cube [0,k)^d: coordinates in `restricted` are pinned
    to `anchor` values (each 0 or k-1), the rest range over [0, k)."""

    d: int
    side: int
    restricted: tuple  # sorted axis indices
    anchor: tuple      # anchored value per restricted axis

    def __post_init__(self):
        check_dim(self.d)
        if self.side < 1:
            raise DomainError("face side must be >= 1")
        if len(self.restricted) != len(self.anchor):
            raise DomainError("restricted/anchor length mismatch")
        if tuple(sorted(self.restricted)) != self.restricted:
            raise DomainError("restricted axes must be sorted")
        for a in self.anchor:
            if a not in (0, self.side - 1):
                raise DomainError("anchor values must be 0 or side-1")

    @property
    def dimension(self) -> int:
        return self.d - len(self.restricted)

    def anchor_of(self, axis: int) -> int:
        return self.anchor[self.restricted.index(axis)]

    def points(self):
        ranges = []
        for i in range(self.d):
            if i in self.restricted:
                ranges.append((self.anchor_of(i),))
            else:
                ranges.append(range(self.side))
        return [tuple(p) for p in product(*ranges)]


def full_cube(k: int, d: int) -> Cube:
    return Cube((0,) * d, k)


def faces_of_dim(k: int, d: int, ell: int):
    """All faces of dimension ell of the side-k cube, deterministically ordered.

    There are exactly 2^(d-ell) * C(d, ell) of them.
    """
    check_dim(d)
    if not 0 <= ell <= d:
        raise DomainError(f"face dimension must be in [0, {d}], got {ell}")
    out = []
    for restricted in combinations(range(d), d - ell):
        for anchor in product((0, k - 1), repeat=d - ell):
            out.append(Face(d, k, tuple(restricted), tuple(anchor)))
    if len(out) != face_count(d, ell):
        raise CertificateError(f"{len(out)} faces of dimension {ell}, not {face_count(d, ell)}")
    return out


def face_count(d: int, ell: int) -> int:
    """Number of ell-dimensional faces of a d-cube: 2^(d-ell) * C(d, ell)."""
    return (2 ** (d - ell)) * comb(d, ell)


def all_faces(k: int, d: int):
    out = []
    for ell in range(d + 1):
        out.extend(faces_of_dim(k, d, ell))
    return out


def skeleton(k: int, d: int, ell: int) -> PointSet:
    """Union of all faces of dimension ell."""
    pts = []
    for f in faces_of_dim(k, d, ell):
        pts.extend(f.points())
    return PointSet(pts)


def thickened_interior(face: Face, n: int) -> PointSet:
    """Points of the cube within n of the face along its restricted axes and
    n-deep in the interior along its free axes.  Over all faces these sets
    partition the cube when side > 2n."""
    k = face.side
    if k <= 2 * n:
        raise DegenerateGeometryError(f"need side > 2n, got side={k}, n={n}")
    ranges = []
    for i in range(face.d):
        if i in face.restricted:
            # the n layers nearest the anchored side; width n, so that over all
            # faces the sets tile the cube (widths n + (k-2n) + n per axis)
            a = face.anchor_of(i)
            lo, hi = (0, n - 1) if a == 0 else (k - n, k - 1)
            ranges.append(range(lo, hi + 1))
        else:
            ranges.append(range(n, k - n))
    return PointSet(product(*ranges))


def ball_points(p: Point, r: int):
    return [tuple(q) for q in product(*(range(x - r, x + r + 1) for x in p))]


def _check_cells(shape) -> None:
    cells = prod(int(x) for x in shape)
    if cells > MAX_POINTSET:
        raise DomainError(f"grid of {cells} cells exceeds {MAX_POINTSET}")


def _grid(E):
    """E as a boolean grid over its bounding box, with the box's lower corner;
    None for the empty set."""
    if isinstance(E, Cube):
        _check_cells((E.side,) * E.d)
        return np.ones((E.side,) * E.d, dtype=bool), np.array(E.origin)
    ps = as_pointset(E)
    if not len(ps):
        return None
    pts = np.array(ps.points)
    lo = pts.min(axis=0)
    shape = pts.max(axis=0) - lo + 1
    _check_cells(shape)
    g = np.zeros(shape, dtype=bool)
    g[tuple((pts - lo).T)] = True
    return g, lo


def _box_reduce(g, side: int, reduce, pad: int = 0):
    """reduce (np.all or np.any) over every side-`side` box of g, after
    padding g with `pad` empty cells on every side; indexed by each box's
    lower corner.  One sliding window per axis, so each axis loses side-1."""
    _check_cells([x + 2 * pad for x in g.shape])
    g = np.pad(g, pad)
    for axis in range(g.ndim):
        g = reduce(sliding_window_view(g, side, axis=axis), axis=-1)
    return g


def _radius_region(E, r: int, f) -> PointSet:
    """The points of f(grid, lower corner) -> (grid, lower corner) on E's grid."""
    if r < 0:
        raise DomainError("radius must be >= 0")
    grid = _grid(E)
    if grid is None:
        return PointSet([])
    return PointSet.from_grid(*f(*grid))


def _eroded(g, r: int):
    """Cells of g whose radius-r ball lies inside g."""
    return _box_reduce(g, 2 * r + 1, np.all, pad=r)


def boundary(E, r: int) -> PointSet:
    """Inner boundary: points of E within distance r of the complement."""
    return _radius_region(E, r, lambda g, lo: (g & ~_eroded(g, r), lo))


def interior(E, r: int) -> PointSet:
    """Points of E whose radius-r ball stays inside E."""
    return _radius_region(E, r, lambda g, lo: (_eroded(g, r), lo))


def thicken(E, r: int) -> PointSet:
    """Radius-r thickening of E (union of balls around its points)."""
    return _radius_region(
        E, r, lambda g, lo: (_box_reduce(g, 2 * r + 1, np.any, pad=2 * r), lo - r))


def cubes_in(E, n: int):
    """All side-n cubes contained in E, sorted by their lex-minimal point."""
    if n < 1:
        raise DomainError("cube side must be >= 1")
    if isinstance(E, Cube):
        if n > E.side:
            return []
        anchors = product(*(range(o, o + E.side - n + 1) for o in E.origin))
        return [Cube(tuple(a), n) for a in anchors]
    grid = _grid(E)
    if grid is None or min(grid[0].shape) < n:
        return []
    g, lo = grid
    return [Cube(a, n) for a in PointSet.from_grid(_box_reduce(g, n, np.all), lo)]
