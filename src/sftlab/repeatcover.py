"""Repeated windows and repeat covers: finding repeats, reconstructing a
pattern from a cover plus its uncovered part, and the efficient sub-cover
selections (near a face, between skeleton thickenings via necessary points,
and over interiors via separated nets), combined into the three-region cover
and its asymptotic variant.

A repeat is an ordered pair of equal-content side-n cubes whose first member
is the lexicographically least cube carrying that content.  A set J of repeats
covers a pattern when every repeat's second cube lies inside area(J), the
union of the second cubes; the uncovered part then determines the pattern.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import (Cube, Face, PointSet, dist, faces_of_dim, face_count,
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

    def area(self) -> PointSet:
        pts = []
        for r in self.repeats:
            pts.extend(r.cube2().points())
        return PointSet(pts)

    def __len__(self):
        return len(self.repeats)


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


def area_of(repeats, n: int) -> PointSet:
    pts = []
    for r in repeats:
        pts.extend(r.cube2().points())
    return PointSet(pts)


def is_repeat_cover(u: pt.Pattern, cover: RepeatCover) -> bool:
    """Definition check: every member is a repeat of u and every repeat's
    second cube lies in the covered area."""
    all_reps = find_repeats(u, cover.n)
    rep_set = {(r.s1, r.s2) for r in all_reps}
    if any((r.s1, r.s2) not in rep_set for r in cover.repeats):
        return False
    area = cover.area()
    return all(PointSet(r.cube2().points()).issubset(area) for r in all_reps)


def reconstruct(cover: RepeatCover, w: pt.Pattern):
    """The unique pattern agreeing with w off the covered area and admitting
    the cover, rebuilt by lexicographic induction (each covered cell copies the
    cell one repeat-shift back); None when no consistent pattern exists."""
    host = cover.host
    k, d = host.side, host.d
    arr = np.zeros((k,) * d, dtype=np.uint8)
    area = cover.area()
    w_idx = {p: s for p, s in zip(w.points(), w.symbols)}
    # lex-first repeat covering each cell
    cover_for = {}
    for r in sorted(cover.repeats, key=lambda r: (r.s2, r.s1)):
        for p in r.cube2().points():
            cover_for.setdefault(p, r)
    expected_off = {p for p in host.points() if p not in area}
    if set(w_idx) != expected_off:
        return None
    for p in host.points():  # lex order
        if p in area:
            r = cover_for[p]
            q = tuple(x - s for x, s in zip(p, r.shift))
            arr[p] = arr[q]
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
    d = face.d
    if face.dimension < 1:
        raise DomainError("face must have dimension >= 1")
    radius = n if radius is None else radius
    perm, flips = _canonical_face_transform(face)
    # region membership in original coordinates
    def in_region(p):
        if any(not 0 <= x < k for x in p):
            return False
        return all(abs(p[i] - face.anchor_of(i)) <= radius for i in face.restricted)

    relevant = []
    for c in cubes:
        if any(in_region(q) for q in c.points()):
            relevant.append(c)
    by_line = {}
    for c in relevant:
        a = _apply_transform_anchor(c.origin, perm, flips, k, n)
        line_key = a[1:]
        by_line.setdefault(line_key, []).append((a[0], a[0] + n - 1, c))
    selected = []
    for key in sorted(by_line):
        segs = by_line[key]
        kept = reduce_interval_cover([(lo, hi) for lo, hi, _ in segs])
        kept_set = set(kept)
        used = set()
        for lo, hi, c in sorted(segs, key=lambda t: (t[0], t[2].origin)):
            if (lo, hi) in kept_set and (lo, hi) not in used:
                used.add((lo, hi))
                selected.append(c)
    # same union inside the region
    def union_in_region(cs):
        out = set()
        for c in cs:
            out.update(q for q in c.points() if in_region(q))
        return out

    u_all, u_sel = union_in_region(relevant), union_in_region(selected)
    assert u_sel == u_all, "near-face selection changed the covered region"
    assert n * len(selected) <= 2 * len(u_all)
    return selected, {"axis_order": perm, "reflected": flips}


# ---------------------------------------------------------------------------
# Necessary points between skeleton thickenings

def _axis_projection(p, axis, value):
    q = list(p)
    q[axis] = value
    return tuple(q)


def _line_between(p, q):
    """Axis-aligned segment between p and q (they differ in one coordinate)."""
    axes = [i for i in range(len(p)) if p[i] != q[i]]
    if not axes:
        return [p]
    (axis,) = axes
    lo, hi = sorted((p[axis], q[axis]))
    return [_axis_projection(p, axis, v) for v in range(lo, hi + 1)]


def is_face_necessary(p, face: Face, T) -> bool:
    """p is necessary for the face when, along every restricted axis, the
    segment from p to its projection onto the face's hyperplane meets T only
    at p itself."""
    if p not in T:
        return False
    for i in face.restricted:
        seg = _line_between(p, _axis_projection(p, i, face.anchor_of(i)))
        if any(q != p and q in T for q in seg):
            return False
    return True


def necessary_points(T: PointSet, k: int, n: int, ell: int, r: int) -> PointSet:
    """All points necessary for some dimension-ell face, within the band
    between the r- and n-thickenings of the ell-skeleton.  Their number is
    less than d(k^d - |T|)/r (both sides zero when T fills the cube)."""
    if not T.points:
        return PointSet([])
    d = len(T.points[0])
    if not (0 <= ell <= d - 1):
        raise DomainError("need 0 <= ell <= d-1")
    if not (1 <= r < n):
        raise DomainError("need 1 <= r < n")
    if n >= k:
        raise DomainError("need n < k")
    faces = faces_of_dim(k, d, ell)

    def skel_dist(p):
        return min(
            max(abs(p[i] - f.anchor_of(i)) for i in f.restricted) if f.restricted else 0
            for f in faces
        )

    out = []
    for p in T:
        if not all(0 <= x < k for x in p):
            continue
        sd = skel_dist(p)
        if not (r < sd <= n):
            continue
        if any(is_face_necessary(p, f, T) for f in faces):
            out.append(p)
    result = PointSet(out)
    bound = Fraction(d * (k ** d - len(T)), r)
    assert len(result) < bound or (len(result) == 0 and bound == 0)
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
    centers = [(c, c.center2()) for c in cubes]

    def nearest(p):
        p2 = tuple(2 * x for x in p)
        best = None
        for c, c2 in centers:
            # rho(p, c) <= n/6 in doubled coordinates: 3 * (2 rho) <= n
            if max(abs(a - b) for a, b in zip(p2, c2)) * 3 <= n:
                if best is None or c.origin < best.origin:
                    best = c
        return best

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
    cover_pts = set()
    for c in chosen:
        cover_pts.update(c.points())
    for p in box_interior:
        assert p in cover_pts, f"interior point {p} left uncovered"
    assert len(chosen) * (n ** d0) <= (2 * k) ** d0
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
    size: int = 0

    def __post_init__(self):
        self.size = len(self.cover.repeats)


def _patch_residual(u, n, repeats):
    """Add lex-least repeats covering any repeat area missed by the selection;
    returns (patched list, number added)."""
    all_reps = find_repeats(u, n)
    target = area_of(all_reps, n)
    have = set(area_of(repeats, n))
    missing = [p for p in target if p not in have]
    added = 0
    reps_sorted = sorted(all_reps, key=lambda r: (r.s2, r.s1))
    out = list(repeats)
    while missing:
        p = missing[0]
        for r in reps_sorted:
            if r.cube2().contains_point(p):
                out.append(r)
                added += 1
                have.update(r.cube2().points())
                break
        else:
            raise AssertionError("repeat area point not covered by any repeat")
        missing = [q for q in missing if q not in have]
    return out, added


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
    all_reps = find_repeats(u, n)
    area_all = area_of(all_reps, n)
    by_anchor = {}
    for rep in sorted(all_reps, key=lambda t: (t.s2, t.s1)):
        by_anchor.setdefault(rep.s2, rep)
    rep_cubes = [Cube(a, n) for a in sorted(by_anchor)]

    selected = []
    # region 1: near each ell-face, radius r
    for face in faces_of_dim(k, d, ell):
        kept, _ = cover_near_face(k, n, face, rep_cubes, radius=r)
        selected.extend(by_anchor[c.origin] for c in kept)
    j1 = len(selected)
    # region 2: necessary points in the band
    band_necessary = necessary_points(area_all, k, n, ell, r)
    j2 = 0
    have_cubes = {rep.s2 for rep in selected}
    for p in band_necessary:
        rep = None
        for cand in sorted(by_anchor):
            if Cube(cand, n).contains_point(p):
                rep = by_anchor[cand]
                break
        if rep is not None and rep.s2 not in have_cubes:
            have_cubes.add(rep.s2)
            selected.append(rep)
            j2 += 1
    # region 3: interiors of faces of dimension > ell
    j3 = 0
    for d0 in range(ell + 1, d + 1):
        for face in faces_of_dim(k, d, d0):
            # coordinates of the face as a d0-cube
            free = [i for i in range(d) if i not in face.restricted]
            anchored = {i: face.anchor_of(i) for i in face.restricted}
            in_face_cubes = []
            for c in rep_cubes:
                # slice of the cube lying in the face, as a d0-cube
                if all(c.origin[i] <= anchored[i] <= c.origin[i] + n - 1
                       for i in face.restricted):
                    in_face_cubes.append(
                        (Cube(tuple(c.origin[i] for i in free), n), c))
            try:
                kept = cover_interior(k, d0, n, [fc for fc, _ in in_face_cubes])
            except PreconditionError:
                # density premise needs j < n^{d0}/3^d; guaranteed for d0 > ell
                raise
            kept_keys = {c.origin for c in kept}
            for fc, c in in_face_cubes:
                if fc.origin in kept_keys:
                    kept_keys.discard(fc.origin)
                    if by_anchor[c.origin].s2 not in have_cubes:
                        have_cubes.add(by_anchor[c.origin].s2)
                        selected.append(by_anchor[c.origin])
                        j3 += 1
    # dedupe, then patch anything the three sweeps missed
    uniq = []
    seen = set()
    for rep in selected:
        key = (rep.s1, rep.s2)
        if key not in seen:
            seen.add(key)
            uniq.append(rep)
    patched_list, added = _patch_residual(u, n, uniq)
    cover = RepeatCover(sorted(patched_list, key=lambda t: (t.s2, t.s1)), n, u.shape)
    area = cover.area()
    assert set(area) == set(area_all), "covered area must match the full repeat area"
    t1 = Fraction(2 * face_count(d, ell) * (k ** ell) * (r ** (d - ell)), n)
    t2 = Fraction(d * (k ** d - len(area)), r)
    t3 = sum(face_count(d, d0) * Fraction(2 * k, n) ** d0 for d0 in range(ell + 1, d + 1))
    total = t1 + t2 + t3
    assert len(cover.repeats) <= total, (
        f"cover size {len(cover.repeats)} exceeds three-term bound {float(total)}")
    return CoverReport(cover, j, ell, r, (float(t1), float(t2), float(t3)),
                       float(total), added)


def full_cube_cover(u: pt.Pattern, n: int) -> RepeatCover:
    """Cover selected by the near-face reduction applied to the whole cube
    (the cube is its own top-dimensional face): at most 2 k^d / n repeats."""
    d, k = u.d, u.shape.side
    all_reps = find_repeats(u, n)
    by_anchor = {}
    for rep in sorted(all_reps, key=lambda t: (t.s2, t.s1)):
        by_anchor.setdefault(rep.s2, rep)
    rep_cubes = [Cube(a, n) for a in sorted(by_anchor)]
    face = Face(d, k, (), ())
    kept, _ = cover_near_face(k, n, face, rep_cubes, radius=n)
    reps = [by_anchor[c.origin] for c in kept]
    patched, _ = _patch_residual(u, n, reps)
    cover = RepeatCover(sorted(patched, key=lambda t: (t.s2, t.s1)), n, u.shape)
    assert set(cover.area()) == set(area_of(all_reps, n))
    assert len(cover.repeats) * n <= 2 * (k ** d)
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
        ell = 1
        while j * (3 ** d) >= n ** (ell + 1):
            ell += 1
        if ell > d - 1:
            cover = full_cube_cover(u, n)
            route, terms = "interior", (2 * (k ** d) / n,)
        else:
            r = min(max(1, math.ceil(n ** tau - 1e-9)), n - 1)
            report = efficient_cover(u, n, r, ell)
            cover = report.cover
            route, terms = f"skeleton-{ell}", report.bound_terms
    ratio = len(cover.repeats) * math.log(n) / j
    return AsymptoticCoverReport(cover, j, k, route, ratio, terms)


def area_deficit_ok(u: pt.Pattern, n: int, cover: RepeatCover) -> bool:
    """Check k^d - |area(J)| <= j (1 + 4dn/k) for a valid cover (needs
    k > (2d+1) n); exact rational comparison."""
    d, k = u.d, u.shape.side
    if k <= (2 * d + 1) * n:
        raise DomainError("need k > (2d+1) n")
    j = len(pt.windows(u, n))
    lhs = k ** d - len(cover.area())
    return k * (lhs - j) <= 4 * d * n * j
