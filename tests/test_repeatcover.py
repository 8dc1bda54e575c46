import hashlib
import math

import numpy as np
import pytest

from sftlab import patterns as P
from sftlab import repeatcover as R
from sftlab.errors import DomainError, PreconditionError
from sftlab.geometry import Cube, Face, PointSet, full_cube, as_pointset


def rand_pattern(rng, shape, alphabet=2, p=0.5):
    return P.Pattern.from_array((rng.random(shape) < p).astype(np.uint8), alphabet)


def periodic_pattern(rng, k, d, periods, alphabet=2):
    tile = (rng.random(periods) < 0.5).astype(np.uint8)
    arr = np.zeros((k,) * d, dtype=np.uint8)
    for idx in np.ndindex(*arr.shape):
        arr[idx] = tile[tuple(i % p for i, p in zip(idx, periods))]
    return P.Pattern.from_array(arr, alphabet)


def off_cover_part(u, cover):
    off = [p for p in u.points() if p not in set(cover.area())]
    return u.restrict(PointSet(off))


# ---------------------------------------------------------------------------
# repeats and reconstruction

def test_find_repeats_examples():
    ua = P.Pattern.from_array(np.zeros(4, dtype=np.uint8), 2)
    reps = R.find_repeats(ua, 2)
    assert [(r.s1, r.s2) for r in reps] == [((0,), (1,)), ((0,), (2,))]
    distinct = P.Pattern.from_array(np.array([0, 0, 1, 0], dtype=np.uint8), 2)
    assert R.find_repeats(distinct, 2) == []


def test_repeat_ordering_and_area():
    rng = np.random.default_rng(0)
    u = rand_pattern(rng, (10, 10))
    reps = R.find_repeats(u, 2)
    keys = [(r.s2, r.s1) for r in reps]
    assert keys == sorted(keys)
    for r in reps:
        assert r.s1 < r.s2
        assert u.restrict(r.cube1()) == u.restrict(r.cube2())


def test_area_independent_of_cover_choice():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rand_pattern(rng, (12, 12))
        full = R.full_cover(u, 3)
        reduced = R.full_cube_cover(u, 3)
        assert set(full.area()) == set(reduced.area())


def test_reconstruct_empty_cover_returns_off_part():
    # all windows distinct, so the empty set is a genuine cover
    u = P.Pattern.from_array(np.array([0, 0, 1, 1, 0], dtype=np.uint8), 2)
    assert R.find_repeats(u, 2) == []
    cov = R.RepeatCover([], 2, u.shape)
    w = off_cover_part(u, cov)
    got = R.reconstruct(cov, w)
    assert got == u
    # with a repeated window, no pattern admits the empty cover
    v = P.Pattern.from_array(np.array([0, 0, 1, 0, 1, 1], dtype=np.uint8), 2)
    cov_v = R.RepeatCover([], 2, v.shape)
    assert R.reconstruct(cov_v, off_cover_part(v, cov_v)) is None


def test_reconstruct_round_trip_exhaustive_1d():
    for w in range(64):
        arr = np.array([(w >> i) & 1 for i in range(6)][::-1], dtype=np.uint8)
        u = P.Pattern.from_array(arr, 2)
        cov = R.full_cover(u, 2)
        got = R.reconstruct(cov, off_cover_part(u, cov))
        assert got is not None and np.array_equal(got.as_array(), arr)


def test_reconstruct_round_trip_random_2d():
    rng = np.random.default_rng(2)
    for _ in range(60):
        u = rand_pattern(rng, (12, 12))
        cov = R.full_cover(u, 3)
        got = R.reconstruct(cov, off_cover_part(u, cov))
        assert got is not None and got == u


def test_reconstruct_rejects_inconsistent_input():
    u = P.Pattern.from_array(np.zeros(6, dtype=np.uint8), 2)
    cov = R.full_cover(u, 2)
    w = off_cover_part(u, cov)
    # claim the same cover for a word whose off-cover part doesn't repeat
    bad = P.Pattern(w.shape, np.array([1] * len(w.symbols), dtype=np.uint8), 2)
    got = R.reconstruct(cov, bad)
    if got is not None:
        # if something reconstructs, the cover must genuinely fit it
        assert R.is_repeat_cover(got, cov)
    # wrong off-cover domain is rejected outright
    truncated = P.Pattern(PointSet(list(w.points())[:-1]),
                          w.symbols[:-1], 2) if len(w.symbols) else None
    if truncated is not None:
        assert R.reconstruct(cov, truncated) is None


# ---------------------------------------------------------------------------
# near-face selection

def test_interval_reduction_examples():
    assert R.reduce_interval_cover([(1, 4), (2, 5), (3, 6)]) == [(1, 4), (3, 6)]
    assert R.reduce_interval_cover([]) == []
    assert R.reduce_interval_cover([(0, 3), (0, 3)]) == [(0, 3)]


def test_interval_reduction_multiplicity_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lefts = sorted(rng.integers(0, 30, size=rng.integers(1, 15)))
        ivs = [(int(a), int(a) + n - 1) for a in lefts]
        kept = R.reduce_interval_cover(ivs)
        union = set()
        for a, b in ivs:
            union.update(range(a, b + 1))
        kept_union = set()
        for a, b in kept:
            kept_union.update(range(a, b + 1))
        assert kept_union == union
        for x in union:
            assert sum(1 for a, b in kept if a <= x <= b) <= 2


def test_cover_near_face_single_cube():
    face = Face(2, 12, (1,), (0,))
    cubes = [Cube((3, 0), 3)]
    kept, rec = R.cover_near_face(12, 3, face, cubes)
    assert kept == cubes
    assert rec["axis_order"][0] not in face.restricted


def near_face_instances():
    """(k, n, face, cubes) of 500 random near-face selections."""
    rng = np.random.default_rng(4)
    k, n = 20, 4
    for trial in range(500):
        faces = [Face(2, k, (1,), (0,)), Face(2, k, (0,), (k - 1,)),
                 Face(2, k, (), ())]
        face = faces[trial % 3]
        anchors = rng.integers(0, k - n + 1, size=(rng.integers(1, 40), 2))
        yield k, n, face, [Cube((int(a), int(b)), n) for a, b in anchors]


def test_cover_near_face_bound_random_instances():
    for k, n, face, cubes in near_face_instances():
        kept, _ = R.cover_near_face(k, n, face, cubes)
        def region_union(cs):
            out = set()
            for c in cs:
                for q in c.points():
                    ok = all(0 <= x < k for x in q) and all(
                        abs(q[i] - face.anchor_of(i)) <= n for i in face.restricted)
                    if ok:
                        out.add(q)
            return out
        u_all = region_union(cubes)
        assert region_union(kept) == u_all
        assert n * len(kept) <= 2 * len(u_all)


# ---------------------------------------------------------------------------
# necessary points

def test_necessary_points_staircase():
    t = PointSet([(1, 4), (2, 2), (4, 1)])
    res = R.necessary_points(t, 20, 6, 0, 1)
    assert set(res) == {(1, 4), (2, 2), (4, 1)}


def test_necessary_points_full_cube_zero():
    t = as_pointset(full_cube(6, 2))
    assert len(R.necessary_points(t, 6, 3, 0, 1)) == 0


def test_necessary_points_bound_random():
    rng = np.random.default_rng(5)
    k, n, r = 20, 5, 2
    for _ in range(60):
        pts = [(int(a), int(b)) for a, b in
               rng.integers(0, k, size=(rng.integers(10, 160), 2))]
        t = PointSet(pts)
        for ell in (0, 1):
            res = R.necessary_points(t, k, n, ell, r)
            bound = 2 * (k * k - len(t)) / r
            assert len(res) < bound or (len(res) == 0 and bound == 0)


def test_necessary_points_literal_criterion_oracle():
    # independent re-check of the definition on a random instance
    rng = np.random.default_rng(6)
    k, n, ell, r = 12, 4, 0, 1
    pts = [(int(a), int(b)) for a, b in rng.integers(0, k, size=(40, 2))]
    t = PointSet(pts)
    res = set(R.necessary_points(t, k, n, ell, r))
    from sftlab.geometry import faces_of_dim
    expect = set()
    for p in t:
        faces = faces_of_dim(k, 2, ell)
        dists = [max(abs(p[i] - f.anchor_of(i)) for i in f.restricted) for f in faces]
        if not (r < min(dists) <= n):
            continue
        for f in faces:
            good = True
            for i in f.restricted:
                a = f.anchor_of(i)
                lo, hi = sorted((p[i], a))
                seg = [tuple(a2 if j == i else p[j] for j in range(2))
                       for a2 in range(lo, hi + 1)]
                if any(q != p and q in t for q in seg):
                    good = False
                    break
            if good:
                expect.add(p)
                break
    assert res == expect


# ---------------------------------------------------------------------------
# interior cover

def test_cover_interior_example_1d():
    cubes = [Cube((o,), 6) for o in range(15)]
    sel = R.cover_interior(20, 1, 6, cubes)
    assert len(sel) <= (2 * 20) // 6
    covered = set()
    for c in sel:
        covered.update(c.points())
    for x in range(6, 14):
        assert (x,) in covered


def test_cover_interior_dense_grid_2d():
    cubes = [Cube((a, b), 6) for a in range(0, 15) for b in range(0, 15)]
    sel = R.cover_interior(20, 2, 6, cubes)
    assert len(sel) * (6 ** 2) <= 40 ** 2
    covered = set()
    for c in sel:
        covered.update(c.points())
    for p in ((6, 6), (13, 13), (9, 10)):
        assert p in covered


def test_cover_interior_precondition_error_names_witness():
    cubes = [Cube((0,), 6)]  # nothing near the middle of the interior
    with pytest.raises(PreconditionError) as ei:
        R.cover_interior(20, 1, 6, cubes)
    assert ei.value.witness is not None


# ---------------------------------------------------------------------------
# combined covers

def test_efficient_cover_checkerboard():
    arr = np.fromfunction(lambda i, j: (i + j) % 2, (30, 30)).astype(np.uint8)
    u = P.Pattern.from_array(arr, 2)
    assert len(P.windows(u, 6)) == 2
    rep = R.efficient_cover(u, 6, 3, 1)
    assert R.is_repeat_cover(u, rep.cover)
    assert rep.size <= rep.bound_total
    assert set(rep.cover.area()) == set(R.full_cover(u, 6).area())


def periodic_cover_instances():
    """30x30 periodic patterns inside the n=6, ell=1 window band."""
    rng = np.random.default_rng(8)
    for trial in range(6):
        periods = (int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        u = periodic_pattern(rng, 30, 2, periods)
        if len(P.windows(u, 6)) * (3 ** 2) < 6 ** 2:
            yield u


def test_efficient_cover_random_periodic_instances():
    for u in periodic_cover_instances():
        rep = R.efficient_cover(u, 6, 3, 1)
        assert R.is_repeat_cover(u, rep.cover)
        assert rep.size <= rep.bound_total


def test_efficient_cover_rejects_large_window_count():
    rng = np.random.default_rng(9)
    u = rand_pattern(rng, (30, 30))
    with pytest.raises(DomainError):
        R.efficient_cover(u, 6, 3, 1)


def test_area_deficit_constant_word():
    u = P.Pattern.from_array(np.zeros(21, dtype=np.uint8), 2)
    cov = R.full_cover(u, 4)
    assert 21 - len(cov.area()) == 1
    assert R.area_deficit_ok(u, 4, cov)


def test_area_deficit_random_low_complexity():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(250):
        p = int(rng.integers(1, 5))
        u = periodic_pattern(rng, 21, 1, (p,))
        cov = R.full_cover(u, 4)
        assert R.area_deficit_ok(u, 4, cov)
        checked += 1
    for _ in range(250):
        periods = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        u = periodic_pattern(rng, 11, 2, periods)
        cov = R.full_cover(u, 2)
        assert R.area_deficit_ok(u, 2, cov)
        checked += 1
    assert checked == 500


def test_area_deficit_all_windows_distinct():
    # de-Bruijn-flavored word: all 3-windows distinct, empty cover area
    word = [0, 0, 0, 1, 0, 1, 1, 1, 0, 0]
    u = P.Pattern.from_array(np.array(word, dtype=np.uint8), 2)
    n = 3
    assert len(P.windows(u, n)) == len(word) - n + 1
    cov = R.full_cover(u, n)
    assert len(cov.area()) == 0
    assert R.area_deficit_ok(u, n, cov)


def test_area_deficit_needs_wide_cube():
    u = P.Pattern.from_array(np.zeros(12, dtype=np.uint8), 2)
    with pytest.raises(DomainError):
        R.area_deficit_ok(u, 4, R.full_cover(u, 4))


def full_cube_instances():
    """(pattern, n): 20 random words of length 24, then 5 random 12x12 grids."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        yield rand_pattern(rng, (24,)), 4
    for _ in range(5):
        yield rand_pattern(rng, (12, 12)), 3


def test_full_cube_cover_bound_and_validity():
    for u, n in full_cube_instances():
        cov = R.full_cube_cover(u, n)
        assert R.is_repeat_cover(u, cov)
        assert len(cov.repeats) * n <= 2 * len(u.symbols)


def test_asymptotic_cover_1d_and_trend():
    rng = np.random.default_rng(12)
    rows = []
    for n in (16, 32, 64):
        k = n * math.ceil(n ** (1 / 3))
        p = max(4, n // 4)
        u = periodic_pattern(rng, k, 1, (p,))
        j = len(P.windows(u, n))
        if not (n / 5 <= j <= k - n + 1):
            continue
        rep = R.asymptotic_cover(u, n, 1 / 3)
        assert R.is_repeat_cover(u, rep.cover)
        rows.append((n, rep.j, rep.size, round(rep.ratio, 3)))
    assert rows
    print("asymptotic cover ratio trend (n, windows, size, ratio):", rows)


def test_asymptotic_cover_full_band_routing():
    rng = np.random.default_rng(13)
    n = 16
    k = n * math.ceil(n ** (1 / 3))
    u = rand_pattern(rng, (k,))
    j = len(P.windows(u, n))
    assert j >= n / 3
    rep = R.asymptotic_cover(u, n, 1 / 3)
    assert rep.route == "interior"
    assert rep.size * n <= 2 * k


def test_asymptotic_cover_band_guard():
    u = P.Pattern.from_array(np.zeros(48, dtype=np.uint8), 2)
    with pytest.raises(DomainError):
        R.asymptotic_cover(u, 16, 1 / 3)  # constant: j = 1 < n/5


def n9_cover_instances():
    """30x30 periodic patterns inside the n=9, ell=1 window band."""
    rng = np.random.default_rng(5)
    for (p1, p2) in [(2, 4), (1, 7), (2, 3)]:
        tile = (rng.random((p1, p2)) < 0.5).astype(np.uint8)
        arr = np.zeros((30, 30), dtype=np.uint8)
        for i in range(30):
            for j in range(30):
                arr[i, j] = tile[i % p1, j % p2]
        u = P.Pattern.from_array(arr, 2)
        if len(P.windows(u, 9)) * 9 < 81:
            yield u


def test_efficient_cover_larger_band_n9():
    checked = 0
    for u in n9_cover_instances():
        rep = R.efficient_cover(u, 9, 4, 1)
        assert R.is_repeat_cover(u, rep.cover)
        assert rep.size <= rep.bound_total
        checked += 1
    assert checked >= 2


# ---------------------------------------------------------------------------
# golden selections: SHA-256 of the exact repeats each construction picks

D2_COVER_TILE = [[0, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0],
                 [0, 1, 0, 1, 0], [0, 1, 1, 1, 1]]  # 25 distinct torus translates


def _pairs(cover):
    return sorted((r.s1, r.s2) for r in cover.repeats)


def d2_cover_pattern():
    arr = np.tile(np.array(D2_COVER_TILE, dtype=np.uint8), (13, 13))[:64, :64]
    return P.Pattern.from_array(arr, 2)


def _asymptotic_runs():
    """(pattern, n, tau): the d2-cover grid, then an 81x81 checkerboard."""
    arr = np.fromfunction(lambda i, j: (i + j) % 2, (81, 81)).astype(np.uint8)
    return [(d2_cover_pattern(), 16, 0.5), (P.Pattern.from_array(arr, 2), 27, 1 / 3)]


def _golden_d2_cover():
    u, n, tau = _asymptotic_runs()[0]
    return [_pairs(R.asymptotic_cover(u, n, tau).cover)]


def _golden_checkerboard_81():
    u, n, tau = _asymptotic_runs()[1]
    return [_pairs(R.asymptotic_cover(u, n, tau).cover)]


def _efficient_runs():
    """(pattern, n, r) of every efficient_cover golden, all with ell = 1."""
    arr = np.fromfunction(lambda i, j: (i + j) % 2, (30, 30)).astype(np.uint8)
    runs = [(P.Pattern.from_array(arr, 2), 6, 3)]
    runs += [(u, 6, 3) for u in periodic_cover_instances()]
    runs += [(u, 9, 4) for u in n9_cover_instances()]
    return runs


def _golden_efficient():
    return [_pairs(R.efficient_cover(u, n, r, 1).cover) for u, n, r in _efficient_runs()]


def _golden_full_cube():
    return [_pairs(R.full_cube_cover(u, n)) for u, n in full_cube_instances()]


def _golden_near_face():
    return [[c.origin for c in R.cover_near_face(k, n, face, cubes)[0]]
            for k, n, face, cubes in near_face_instances()]


GOLDEN_SELECTIONS = {
    "d2_cover": (_golden_d2_cover,
        "3123f5b6e742955653c6ee5ab4da42b93c0d94faeb379006d3217df6575434df"),
    "checkerboard_81": (_golden_checkerboard_81,
        "6fafa3741965cc260d5bb8f2dba497a85f9aad01055b52e1c5bcdd6a6f014bed"),
    "efficient_cover": (_golden_efficient,
        "28659bb5419b27d1a72ff9fc1920aeaaa7acb9a9bdf4b155ef4df8f20a81a1f4"),
    "full_cube_cover": (_golden_full_cube,
        "4e0b58fa9fd14305cfed8d6c25d7eacaa526b55bf0313da36440fba91594f8be"),
    "cover_near_face": (_golden_near_face,
        "af4a4efeb1a84412586b3451a3a95b211c9732204fea90d3c125c3d4a0a81afe"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SELECTIONS))
def test_cover_selections_match_golden(name):
    build, digest = GOLDEN_SELECTIONS[name]
    assert hashlib.sha256(repr(build()).encode()).hexdigest() == digest


# report fields of the golden runs (recorded before the shared finishing step)

GOLDEN_EFFICIENT_REPORTS = [  # (j, ell, r, bound_terms, bound_total, patched, size)
    (2, 1, 3, (120.0, 1.3333333333333333, 100.0), 221.33333333333334, 0, 89),
    (2, 1, 3, (120.0, 1.3333333333333333, 100.0), 221.33333333333334, 0, 89),
    (1, 1, 3, (120.0, 0.6666666666666666, 100.0), 220.66666666666666, 0, 89),
    (1, 1, 3, (120.0, 0.6666666666666666, 100.0), 220.66666666666666, 0, 89),
    (1, 1, 3, (120.0, 0.6666666666666666, 100.0), 220.66666666666666, 0, 89),
    (8, 1, 4, (106.66666666666667, 4.0, 44.44444444444444), 155.11111111111111, 0, 73),
    (7, 1, 4, (106.66666666666667, 3.5, 44.44444444444444), 154.61111111111111, 0, 75),
    (6, 1, 4, (106.66666666666667, 3.0, 44.44444444444444), 154.11111111111111, 0, 73),
]

GOLDEN_ASYMPTOTIC_REPORTS = [  # (route, j, size, ratio, bound_terms)
    ("skeleton-1", 25, 86, 9.537705204504848, (128.0, 12.5, 64.0)),
    ("skeleton-1", 2, 47, 77.45216635110174, (72.0, 1.3333333333333333, 36.0)),
]


def test_efficient_cover_reports_match_golden():
    got = [(rep.j, rep.ell, rep.r, rep.bound_terms, rep.bound_total, rep.patched, rep.size)
           for rep in (R.efficient_cover(u, n, r, 1) for u, n, r in _efficient_runs())]
    assert got == GOLDEN_EFFICIENT_REPORTS


def test_asymptotic_cover_reports_match_golden():
    got = [(rep.route, rep.j, rep.size, rep.ratio, rep.bound_terms)
           for rep in (R.asymptotic_cover(u, n, tau) for u, n, tau in _asymptotic_runs())]
    assert got == GOLDEN_ASYMPTOTIC_REPORTS


@pytest.mark.parametrize("tile, route", [((1, 1, 1), "skeleton-1"),
                                         ((2, 2, 1), "skeleton-2"),
                                         ((2, 2, 2), "interior")])
def test_asymptotic_cover_routes_d3(tile, route):
    """n=6, tau=0.3, k=12: a tile with one 1 has prod(tile) distinct windows,
    so j = 1, 4, 8 picks ell = 1, ell = 2, and the full-cube route (8 * 27 >= 6^3)."""
    t = np.zeros(tile, dtype=np.uint8)
    t[0, 0, 0] = 1
    u = P.Pattern.from_array(np.tile(t, [12 // p for p in tile]), 2)
    rep = R.asymptotic_cover(u, 6, 0.3)
    assert (rep.route, rep.j) == (route, int(np.prod(tile)))
    assert R.is_repeat_cover(u, rep.cover)
    assert rep.size <= sum(rep.bound_terms)
