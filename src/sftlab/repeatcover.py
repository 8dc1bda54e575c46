"""Repeated windows and repeat covers: finding repeats, reconstructing a
pattern from a cover plus its uncovered part, and the efficient sub-cover
selections (near a face, between skeleton thickenings via necessary points,
and over interiors via separated nets), combined into the three-region cover
and its asymptotic variant.

A repeat is an ordered pair of equal-content side-n cubes whose first member
is the lexicographically least cube carrying that content.  A set J of repeats
covers a pattern when every repeat's second cube lies inside area(J), the
union of the second cubes; the uncovered part then determines the pattern.

Both covers select second anchors only (each anchor has one repeat) and share
one finishing step: lex-least repeats over any uncovered repeat area, a sort by
(s2, s1), and a check that the area is the full repeat area.

Areas, regions and anchor sets are boolean grids over integer boxes: a cover's
area is painted cube by cube, and "the lex-least cube containing p" is the
first set cell of the anchor grid inside the box of anchors whose cube
contains p.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CertificateError, DomainError, PreconditionError
from .geometry import (Cube, Face, PointSet, faces_of_dim, face_count,
                       full_cube, interior)
from . import patterns as pt


@dataclass(frozen=True)
class Repeat:
    """Anchors (lex-min points) of the two equal side-n cubes; s1 < s2."""

    s1: tuple
    s2: tuple
    n: int

    @property
    def shift(self):
        return tuple(b - a for a, b in zip(self.s1, self.s2))

    def cube1(self) -> Cube:
        return Cube(self.s1, self.n)

    def cube2(self) -> Cube:
        return Cube(self.s2, self.n)


@dataclass
class RepeatCover:
    repeats: list
    n: int
    host: Cube

    def area_grid(self) -> np.ndarray:
        """The covered area as a boolean grid over the host cube."""
        return _paint([r.s2 for r in self.repeats], self.n, _box(self.host))

    def area(self) -> PointSet:
        return PointSet.from_grid(self.area_grid(), self.host.origin)

    def __len__(self):
        return len(self.repeats)


def _box(cube: Cube):
    """(lower, upper) corners of the half-open integer box of a cube."""
    return cube.origin, tuple(o + cube.side for o in cube.origin)


def _paint(anchors, n: int, box) -> np.ndarray:
    """Boolean grid over the half-open box (lo, hi) of the side-n cubes at the
    anchors, clipped to the box."""
    lo, hi = box
    g = np.zeros([h - l for l, h in zip(lo, hi)], dtype=bool)
    for a in anchors:
        g[tuple(slice(max(x - l, 0), max(x - l + n, 0)) for x, l in zip(a, lo))] = True
    return g


def _lex_least(occ: np.ndarray, lo, hi):
    """Lex-least set cell of the anchor grid occ (indexed from 0) inside the
    half-open box [lo, hi), or None."""
    lo = [max(x, 0) for x in lo]
    window = occ[tuple(slice(a, max(b, 0)) for a, b in zip(lo, hi))]
    if not window.any():
        return None
    at = np.unravel_index(int(np.argmax(window)), window.shape)
    return tuple(int(a) + x for a, x in zip(at, lo))


def _containing(occ: np.ndarray, p, n: int):
    """Lex-least anchor in occ whose side-n cube contains the point p."""
    return _lex_least(occ, [x - n + 1 for x in p], [x + 1 for x in p])


def _index(reps, n: int, box):
    """(by_anchor, anchor grid, area grid) of repeats sorted by (s2, s1):
    by_anchor maps each second anchor, in sorted order, to its first repeat."""
    by_anchor = {}
    for rep in reps:
        by_anchor.setdefault(rep.s2, rep)
    return by_anchor, _paint(by_anchor, 1, box), _paint(by_anchor, n, box)


def find_repeats(u: pt.Pattern, n: int):
    """All repeats of u, ordered by (second anchor, first anchor).  The full
    list is itself a valid cover."""
    groups = {}
    for anchor, code in pt.window_positions(u, n):
        groups.setdefault(code, []).append(anchor)
    out = []
    for anchors in groups.values():
        if len(anchors) < 2:
            continue
        first = min(anchors)
        for a in anchors:
            if a != first:
                out.append(Repeat(first, a, n))
    out.sort(key=lambda r: (r.s2, r.s1))
    return out


def full_cover(u: pt.Pattern, n: int) -> RepeatCover:
    if not u.is_cube():
        raise DomainError("covers are built over cube-shaped patterns")
    return RepeatCover(find_repeats(u, n), n, u.shape)


def is_repeat_cover(u: pt.Pattern, cover: RepeatCover) -> bool:
    """Definition check: every member is a repeat of u and every repeat's
    second cube lies in the covered area."""
    all_reps = find_repeats(u, cover.n)
    rep_set = {(r.s1, r.s2) for r in all_reps}
    if any((r.s1, r.s2) not in rep_set for r in cover.repeats):
        return False
    target = _paint([r.s2 for r in all_reps], cover.n, _box(cover.host))
    return not (target & ~cover.area_grid()).any()


def reconstruct(cover: RepeatCover, w: pt.Pattern):
    """The unique pattern agreeing with w off the covered area and admitting
    the cover, rebuilt by lexicographic induction (each covered cell copies the
    cell one repeat-shift back); None when no consistent pattern exists."""
    host = cover.host
    k, d = host.side, host.d
    arr = np.zeros((k,) * d, dtype=np.uint8)
    by_anchor, occ, area = _index(sorted(cover.repeats, key=lambda r: (r.s2, r.s1)),
                                  cover.n, _box(host))
    w_idx = {p: s for p, s in zip(w.points(), w.symbols)}
    expected_off = set(PointSet.from_grid(~area, host.origin))
    if set(w_idx) != expected_off:
        return None
    for p in host.points():  # lex order
        if area[p]:
            # copy from the lex-first repeat covering p
            r = by_anchor[_containing(occ, p, cover.n)]
            arr[p] = arr[tuple(x - s for x, s in zip(p, r.shift))]
        else:
            arr[p] = w_idx[p]
    u = pt.Pattern.from_array(arr, w.alphabet)
    # verify: members are repeats of u and the cover property holds
    if not is_repeat_cover(u, cover):
        return None
    for p in expected_off:
        if u.at(p) != w_idx[p]:
            return None
    return u


# ---------------------------------------------------------------------------
# Selection near a face (interval reduction along a free axis)

def reduce_interval_cover(intervals):
    """Same-length integer intervals: subset with the same union in which every
    point is covered at most twice.  Among three mutually overlapping-at-a-point
    equal-length intervals the middle one always sits inside the union of the
    outer two, so a single left-to-right sweep dropping such middles suffices."""
    ivs = sorted(set(intervals))
    if not ivs:
        return []
    length = ivs[0][1] - ivs[0][0]
    if any(b - a != length for a, b in ivs):
        raise DomainError("interval reduction expects equal-length intervals")
    kept = []
    for seg in ivs:
        kept.append(seg)
        while len(kept) >= 3 and kept[-1][0] <= kept[-3][1] + 1:
            kept.pop(-2)
    return kept


def _canonical_face_transform(face: Face):
    """Axis permutation + reflections taking the face to one anchored at 0 in
    every restricted axis, with axis 0 free.  Returns (perm, flips): transformed
    coordinate i reads original axis perm[i], flipped when flips[i]."""
    d, k = face.d, face.side
    free = [i for i in range(d) if i not in face.restricted]
    if not free:
        raise DomainError("face must have dimension >= 1")
    perm = [free[0]] + [i for i in range(d) if i != free[0]]
    flips = []
    for axis in perm:
        if axis in face.restricted and face.anchor_of(axis) == k - 1:
            flips.append(True)
        else:
            flips.append(False)
    return perm, flips


def _apply_transform_anchor(anchor, perm, flips, k, n):
    """Transform of a cube's anchor: reflected axes move the anchor to the far
    corner, so the transformed anchor is k-1-(a+n-1) there."""
    out = []
    for a, f in zip(perm, flips):
        out.append((k - 1 - (anchor[a] + n - 1)) if f else anchor[a])
    return tuple(out)


def cover_near_face(k: int, n: int, face: Face, cubes, radius=None):
    """Sub-list of the given side-n cubes with the same union inside the
    radius-thickened face (radius defaults to n), of size at most
    2 * |union| / n.  Returns (selected cubes, transform record)."""
    if face.dimension < 1:
        raise DomainError("face must have dimension >= 1")
    radius = n if radius is None else radius
    perm, flips = _canonical_face_transform(face)
    # the region is a box: [0, k) on free axes, within radius of the anchor
    # on restricted ones; a cube meets it iff their intervals overlap per axis
    start, stop = [0] * face.d, [k] * face.d
    for i, a in zip(face.restricted, face.anchor):
        start[i], stop[i] = max(a - radius, 0), min(a + radius + 1, k)
    relevant = [c for c in cubes
                if all(o < b and o + n > a for o, a, b in zip(c.origin, start, stop))]
    by_line = {}
    for c in relevant:
        a = _apply_transform_anchor(c.origin, perm, flips, k, n)
        line_key = a[1:]
        by_line.setdefault(line_key, []).append((a[0], a[0] + n - 1, c))
    selected = []
    for key in sorted(by_line):
        segs = by_line[key]
        kept = set(reduce_interval_cover([(lo, hi) for lo, hi, _ in segs]))
        for lo, hi, c in sorted(segs, key=lambda t: (t[0], t[2].origin)):
            if (lo, hi) in kept:
                kept.discard((lo, hi))
                selected.append(c)
    # same union inside the region
    box = (start, stop)
    u_all = _paint([c.origin for c in relevant], n, box)
    u_sel = _paint([c.origin for c in selected], n, box)
    if not np.array_equal(u_sel, u_all):
        raise CertificateError("near-face selection changed the covered region")
    if n * len(selected) > 2 * int(u_all.sum()):
        raise CertificateError(f"{len(selected)} near-face cubes exceed the 2|U|/n bound")
    return selected, {"axis_order": perm, "reflected": flips}


# ---------------------------------------------------------------------------
# Necessary points between skeleton thickenings

def necessary_points(T: PointSet, k: int, n: int, ell: int, r: int) -> PointSet:
    """All points necessary for some dimension-ell face, within the band
    between the r- and n-thickenings of the ell-skeleton.  p is necessary for
    a face when, along every restricted axis, the segment from p to the face's
    hyperplane meets T only at p.  Their number is less than d(k^d - |T|)/r
    (both sides zero when T fills the cube)."""
    if not T.points:
        return PointSet([])
    d = len(T.points[0])
    if not (0 <= ell <= d - 1):
        raise DomainError("need 0 <= ell <= d-1")
    if not (1 <= r < n):
        raise DomainError("need 1 <= r < n")
    if n >= k:
        raise DomainError("need n < k")
    g = _paint(T, 1, ((0,) * d, (k,) * d))
    # clear[i, a]: the cells of T with no other cell of T between them and
    # the hyperplane x_i = a
    clear = {}
    for i in range(d):
        clear[i, 0] = np.cumsum(g, axis=i, dtype=np.int32) == 1
        clear[i, k - 1] = np.flip(np.cumsum(np.flip(g, i), axis=i, dtype=np.int32), i) == 1
    axis = [np.arange(k).reshape([-1 if j == i else 1 for j in range(d)]) for i in range(d)]
    skel_dist = np.full(g.shape, k)
    necessary = np.zeros(g.shape, dtype=bool)
    for f in faces_of_dim(k, d, ell):
        face_dist, face_clear = 0, g
        for i, a in zip(f.restricted, f.anchor):
            face_dist = np.maximum(face_dist, np.abs(axis[i] - a))
            face_clear = face_clear & clear[i, a]
        skel_dist = np.minimum(skel_dist, face_dist)
        necessary |= face_clear
    band = necessary & (r < skel_dist) & (skel_dist <= n)
    result = PointSet.from_grid(band, (0,) * d)
    bound = Fraction(d * (k ** d - len(T)), r)
    if not (len(result) < bound or (len(result) == 0 and bound == 0)):
        raise CertificateError(f"{len(result)} necessary points reach the bound {bound}")
    return result


# ---------------------------------------------------------------------------
# Interior cover via separated nets

def _axis_net(k: int, n: int):
    """Integer net on [n, k-n): consecutive gaps above n/2, thirds-balls cover
    the range; found by a small shift/gap search mirroring the 1-d construction."""
    lo, hi = n, k - n - 1
    if lo > hi:
        return []
    third = n // 3
    for gap in range(min(2 * third + 1, hi - lo + 1), 0, -1):
        if 2 * gap <= n:
            break
        for shift in range(0, gap):
            pts = list(range(lo + shift, hi + 1, gap))
            if not pts:
                continue
            ok = all(
                any(abs(x - p) * 3 <= n for p in pts) for x in range(lo, hi + 1)
            )
            if ok and all(2 * (b - a) > n for a, b in zip(pts, pts[1:])):
                return pts
    raise DomainError(f"no valid interior net for k={k}, n={n} (n too small)")


def cover_interior(k: int, d0: int, n: int, cubes):
    """Given side-n cubes whose centers come within n/6 of every point of the
    n-interior of the side-k box, select at most (2k/n)^d0 of them covering
    that interior.  Raises naming a witness point when the density premise
    fails."""
    box_interior = interior(full_cube(k, d0), n)
    host = ((0,) * d0, (k,) * d0)
    # a cube's center is within n/6 of p when 3 * |2 p_i - (2 o_i + n - 1)| <= n
    # on every axis (doubled coordinates), i.e. when every p_i - o_i lies in
    # `near`; for interior points those origins lie inside [0, k)^d0
    near = [t for t in range(n) if 3 * abs(2 * t - n + 1) <= n]
    occ = _paint([c.origin for c in cubes], 1, host)

    def nearest(p):
        if not near:
            return None
        o = _lex_least(occ, [x - near[-1] for x in p], [x - near[0] + 1 for x in p])
        return None if o is None else Cube(o, n)

    # density precondition
    for p in box_interior:
        if nearest(p) is None:
            raise PreconditionError(
                f"no cube center within n/6 of interior point {p}", witness=p)
    net_1d = _axis_net(k, n)
    net = list(product(net_1d, repeat=d0))
    chosen = []
    seen = set()
    for p in net:
        c = nearest(p)
        if c.origin not in seen:
            seen.add(c.origin)
            chosen.append(c)
    # verify coverage and the cardinality bound
    covered = _paint([c.origin for c in chosen], n, host)
    inner = np.array(box_interior.points, dtype=int).reshape(-1, d0)
    if not covered[tuple(inner.T)].all():
        raise CertificateError("interior point left uncovered")
    if len(chosen) * (n ** d0) > (2 * k) ** d0:
        raise CertificateError(f"{len(chosen)} interior cubes exceed the (2k/n)^d bound")
    return chosen


# ---------------------------------------------------------------------------
# Combined three-region cover

@dataclass
class CoverReport:
    cover: RepeatCover
    j: int                      # distinct windows of the pattern
    ell: int
    r: int
    bound_terms: tuple          # (near-skeleton, necessary-points, interior)
    bound_total: float
    patched: int                # repeats added by the residual sweep

    @property
    def size(self):
        return len(self.cover.repeats)


def _repeat_index(u: pt.Pattern, n: int):
    """_index of all repeats of u over its cube, computed once per cover."""
    return _index(find_repeats(u, n), n, _box(u.shape))


def _finish(chosen, n, index, host: Cube):
    """The cover from a set of selected second anchors plus the lex-least
    repeat over each point of repeat area still uncovered (a lex-order sweep,
    so selection order cannot change the result), sorted by (s2, s1).
    Returns (cover, number added); raises unless the area is the full one."""
    by_anchor, occ, target = index
    chosen = set(chosen)
    selected = len(chosen)
    have = _paint(chosen, n, _box(host))
    for p in map(tuple, np.argwhere(target & ~have).tolist()):  # lex order
        if not have[p]:
            s2 = _containing(occ, p, n)
            chosen.add(s2)
            have[tuple(slice(x, x + n) for x in s2)] = True
    cover = RepeatCover([by_anchor[s2] for s2 in sorted(chosen)], n, host)
    if not np.array_equal(cover.area_grid(), target):
        raise CertificateError("covered area must match the full repeat area")
    return cover, len(chosen) - selected


def efficient_cover(u: pt.Pattern, n: int, r: int, ell: int) -> CoverReport:
    """Three-region cover: near-face interval selections within radius r of the
    ell-skeleton, necessary-point repeats in the band out to radius n, and
    net-based interior selections beyond; size obeys
    2 c_{d,ell} k^ell r^{d-ell} / n + d(k^d - |area|)/r + sum_{d0>ell} c_{d,d0} (2k/n)^d0.
    """
    if not u.is_cube():
        raise DomainError("cover construction needs a cube-shaped pattern")
    d, k = u.d, u.shape.side
    if not 1 <= r < n:
        raise DomainError("need 1 <= r < n")
    if not 1 <= ell <= d - 1:
        raise DomainError("need 1 <= ell <= d-1")
    j = len(pt.windows(u, n))
    if j * (3 ** d) >= n ** (ell + 1):
        raise DomainError("window count too large for this skeleton dimension")
    index = _repeat_index(u, n)
    by_anchor, occ, area_all = index
    rep_cubes = [Cube(a, n) for a in by_anchor]

    chosen = set()  # second anchors of the selected repeats
    # region 1: near each ell-face, radius r
    for face in faces_of_dim(k, d, ell):
        kept, _ = cover_near_face(k, n, face, rep_cubes, radius=r)
        chosen.update(c.origin for c in kept)
    # region 2: necessary points in the band (all inside the repeat area)
    for p in necessary_points(PointSet.from_grid(area_all, (0,) * d), k, n, ell, r):
        chosen.add(_containing(occ, p, n))
    # region 3: interiors of faces of dimension > ell
    for d0 in range(ell + 1, d + 1):
        for face in faces_of_dim(k, d, d0):
            free = [i for i in range(d) if i not in face.restricted]
            # each slice (a d0-cube) of a repeat cube meeting the face -> least anchor
            lift = {}
            for a in by_anchor:  # lex order of s2
                if all(a[i] <= face.anchor_of(i) <= a[i] + n - 1 for i in face.restricted):
                    lift.setdefault(tuple(a[i] for i in free), a)
            # density premise needs j < n^{d0}/3^d; guaranteed for d0 > ell
            kept = cover_interior(k, d0, n, [Cube(o, n) for o in lift])
            chosen.update(lift[c.origin] for c in kept)
    cover, added = _finish(chosen, n, index, u.shape)
    t1 = Fraction(2 * face_count(d, ell) * (k ** ell) * (r ** (d - ell)), n)
    t2 = Fraction(d * (k ** d - int(area_all.sum())), r)
    t3 = sum(face_count(d, d0) * Fraction(2 * k, n) ** d0 for d0 in range(ell + 1, d + 1))
    total = t1 + t2 + t3
    if len(cover.repeats) > total:
        raise CertificateError(
            f"cover size {len(cover.repeats)} exceeds three-term bound {float(total)}")
    return CoverReport(cover, j, ell, r, (float(t1), float(t2), float(t3)),
                       float(total), added)


def full_cube_cover(u: pt.Pattern, n: int) -> RepeatCover:
    """Cover selected by the near-face reduction applied to the whole cube
    (the cube is its own top-dimensional face): at most 2 k^d / n repeats."""
    d, k = u.d, u.shape.side
    index = _repeat_index(u, n)
    face = Face(d, k, (), ())
    kept, _ = cover_near_face(k, n, face, [Cube(a, n) for a in index[0]], radius=n)
    cover, _ = _finish({c.origin for c in kept}, n, index, u.shape)
    if len(cover.repeats) * n > 2 * (k ** d):
        raise CertificateError(f"cover size {len(cover.repeats)} exceeds 2 k^d / n")
    return cover


@dataclass
class AsymptoticCoverReport:
    cover: RepeatCover
    j: int
    k: int
    route: str          # "interior" (full-cube path) or "skeleton-ell"
    ratio: float        # |J| * log(n) / j
    bound_terms: tuple = ()

    @property
    def size(self):
        return len(self.cover.repeats)


def asymptotic_cover(u: pt.Pattern, n: int, tau: float) -> AsymptoticCoverReport:
    """Cover for patterns on the side-(n * ceil(n^tau)) cube, routed by the
    window count j: j >= n^d/3^d (and the whole d=1 band) uses the full-cube
    selection, else the skeleton band with n^ell/5^d <= j < n^{ell+1}/3^d and
    r = ceil(n^tau).  Reports |J| log(n) / j for empirical trend studies."""
    if not u.is_cube():
        raise DomainError("cover construction needs a cube-shaped pattern")
    d, k = u.d, u.shape.side
    # tolerance keeps exact integer powers (e.g. 27^(1/3)) from ceiling up
    f = math.ceil(n ** tau - 1e-9)
    if k != n * f:
        raise DomainError(f"expected side {n * f} = n * ceil(n^tau), got {k}")
    j = len(pt.windows(u, n))
    if j * (5 ** d) < n or j > (k - n + 1) ** d:
        raise DomainError(f"window count {j} outside the covered band")
    if d == 1 or j * (3 ** d) >= n ** d:
        cover = full_cube_cover(u, n)
        route, terms = "interior", (2 * (k ** d) / n,)
    else:
        # j * 3^d < n^d here, so the least such ell is at most d - 1
        ell = 1
        while j * (3 ** d) >= n ** (ell + 1):
            ell += 1
        report = efficient_cover(u, n, min(f, n - 1), ell)
        cover, route, terms = report.cover, f"skeleton-{ell}", report.bound_terms
    ratio = len(cover.repeats) * math.log(n) / j
    return AsymptoticCoverReport(cover, j, k, route, ratio, terms)


def area_deficit_ok(u: pt.Pattern, n: int, cover: RepeatCover) -> bool:
    """Check k^d - |area(J)| <= j (1 + 4dn/k) for a valid cover (needs
    k > (2d+1) n); exact rational comparison."""
    d, k = u.d, u.shape.side
    if k <= (2 * d + 1) * n:
        raise DomainError("need k > (2d+1) n")
    j = len(pt.windows(u, n))
    lhs = k ** d - int(cover.area_grid().sum())
    return k * (lhs - j) <= 4 * d * n * j
