import pytest

from sftlab import geometry as G
from sftlab.errors import DegenerateGeometryError, DomainError


def test_face_counts_match_formula():
    # oracle: direct enumeration of (restricted set, anchor) choices
    assert len(G.faces_of_dim(10, 2, 0)) == 4
    assert len(G.faces_of_dim(10, 2, 2)) == 1
    assert len(G.faces_of_dim(6, 3, 1)) == 12
    for d in (1, 2, 3):
        for ell in range(d + 1):
            faces = G.faces_of_dim(5, d, ell)
            assert len(faces) == G.face_count(d, ell)
            assert all(len(f.restricted) == d - ell for f in faces)
            assert len(set(faces)) == len(faces)


def test_face_dim_out_of_range():
    with pytest.raises(DomainError):
        G.faces_of_dim(5, 2, 3)
    with pytest.raises(DomainError):
        G.faces_of_dim(5, 2, -1)


def test_thickened_interior_center_and_degenerate():
    face = G.faces_of_dim(9, 2, 2)[0]
    t = G.thickened_interior(face, 2)
    assert len(t) == 25  # (k - 2n)^2
    assert all(2 <= x < 7 for p in t for x in p)
    with pytest.raises(DegenerateGeometryError):
        G.thickened_interior(G.faces_of_dim(4, 2, 2)[0], 2)


@pytest.mark.parametrize("d", [1, 2])
def test_thickened_interior_partitions_cube_exhaustive(d):
    for k in range(3, 13):
        for n in range(1, (k - 1) // 2 + 1):
            seen = set()
            for f in G.all_faces(k, d):
                t = G.thickened_interior(f, n)
                for p in t:
                    assert p not in seen, (k, n, p)
                    seen.add(p)
            assert len(seen) == k ** d, (k, n)


def test_thickened_interior_partitions_cube_d3():
    seen = set()
    for f in G.all_faces(7, 3):
        for p in G.thickened_interior(f, 2):
            assert p not in seen
            seen.add(p)
    assert len(seen) == 7 ** 3


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("k", list(range(5, 13)))
def test_skeleton_decomposition_cover(ell, k):
    # the cube is covered by the n-thickened ell-skeleton together with the
    # thickened interiors of the higher-dimensional faces, the latter disjoint
    n = 2
    skel = G.skeleton(k, 2, ell)
    near = G.thicken(skel, n)
    pieces = []
    for f in G.all_faces(k, 2):
        if f.dimension > ell:
            pieces.append(G.thickened_interior(f, n))
    seen = set()
    for t in pieces:
        for p in t:
            assert p not in seen
            seen.add(p)
    cube_pts = set(G.full_cube(k, 2).points())
    for p in cube_pts:
        assert p in near or p in seen
    for p in seen:
        assert p in cube_pts


def test_boundary_interior_thicken_examples():
    # 1-d: E = 5 consecutive points, radius 1 -> endpoints
    e = G.PointSet([(i,) for i in range(5)])
    assert sorted(G.boundary(e, 1)) == [(0,), (4,)]
    # F_4 in d=2, radius 1 -> 12 boundary points
    f4 = G.full_cube(4, 2)
    assert len(G.boundary(f4, 1)) == 12
    # containments: int_r(E) <= E <= B(E, r), and int_r(B(E, r)) >= E
    inner = G.interior(e, 1)
    outer = G.thicken(e, 1)
    assert inner.issubset(e) and e.issubset(outer)
    assert e.issubset(G.interior(outer, 1))


def test_boundary_matches_pointwise_oracle():
    pts = [(x, y) for x in range(5) for y in range(4) if (x + y) % 3]
    e = G.PointSet(pts)
    r = 1
    expect = set()
    for p in pts:
        ball = G.ball_points(p, r)
        if any(tuple(q) not in e for q in ball):
            expect.add(p)
    assert set(G.boundary(e, r)) == expect
    assert set(G.interior(e, r)) == set(pts) - expect


def test_cubes_in_counts_and_anchor_relation():
    f = G.full_cube(6, 2)
    cubes = G.cubes_in(f, 3)
    assert len(cubes) == (6 - 3 + 1) ** 2
    # sorted by lex-minimal point, which is the cube's origin
    anchors = [c.origin for c in cubes]
    assert anchors == sorted(anchors)
    for c in cubes:
        assert c.min_point() == c.origin
        assert min(c.points()) == c.origin
    # 1-d: 4 points, side 2 -> anchors 0,1,2
    e = G.PointSet([(i,) for i in range(4)])
    assert [c.origin for c in G.cubes_in(e, 2)] == [(0,), (1,), (2,)]


def test_cubes_in_irregular_shape():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    cubes = G.cubes_in(G.PointSet(pts), 2)
    assert [c.origin for c in cubes] == [(0, 0)]


def test_lex_order_total_and_minimum():
    pts = [(1, 2), (0, 5), (1, 1), (-1, 9)]
    s = G.PointSet(pts)
    assert s.points == sorted(pts)
    assert s.min_point() == (-1, 9)
    # strict total order on tuples
    a, b = (0, 3), (0, 4)
    assert a < b and not b < a and a != b


def test_region_grid_over_budget_is_refused():
    # two points, but their bounding box holds 2001^2 > MAX_POINTSET cells
    sparse = G.PointSet([(0, 0), (2000, 2000)])
    for region in (G.interior, G.boundary, G.thicken):
        with pytest.raises(DomainError):
            region(sparse, 1)
    with pytest.raises(DomainError):
        G.cubes_in(sparse, 1)
    # a grid within budget that padding pushes over it is refused too
    with pytest.raises(DomainError):
        G.thicken(G.PointSet([(0, 0), (990, 990)]), 10)
