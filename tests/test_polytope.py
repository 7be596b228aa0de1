"""Polytope parsing, vertex enumeration, simplicity, rationality, integrality.

Vertex enumeration is cross-checked against an independent float-based
enumerator (numpy solves over all facet subsets) on every builtin, and
the walk over feasible bases against an exact brute-force oracle (a scan
of all n-subsets of facets, a recession scan over all (n-1)-subsets and
the rank of the vertex differences) on simple and non-simple polytopes
and on random H-representations.
"""

import itertools
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifold import (
    HPolytope,
    LowerDimensional,
    NormalsDontSpan,
    NotRationalInput,
    SchemaError,
    UnboundedPolytope,
    build_construction,
    builtin_document,
    builtin_names,
    check_delzant,
    check_rational,
    check_simple,
    construction_report,
    parse_polytope,
    rational_field,
)
import quasifold.polytope as polytope_module
import quasifold.scalars as scalars_module
from quasifold.linalg import Matrix
from conftest import as_fraction, load_builtin


def doc(dimension, facets, field=None, extra=None):
    d = {"dimension": dimension,
         "facets": [{"normal": list(n), "offset": o} for n, o in facets]}
    if field is not None:
        d["field"] = field
    if extra is not None:
        d["quasilattice_extra_generators"] = extra
    return d


SQRT2_FIELD = {"minpoly": ["-2", "0", "1"], "root_interval": ["1", "2"]}

CONE_FACETS = [
    (["-1", "0", "1"], "0"), (["1", "0", "1"], "0"),
    (["0", "-1", "1"], "0"), (["0", "1", "1"], "0"),
]


# --------------------------------------------------------------------------
# Parsing and validation
# --------------------------------------------------------------------------

class TestParse:
    def test_unit_square(self):
        p = load_builtin("square")
        assert p.dim == 2
        assert p.facet_count == 4

    def test_skewed_triangle(self):
        p = load_builtin("triangle-sqrt2")
        assert p.dim == 2 and p.facet_count == 3
        t = p.field.theta
        assert p.normals[2] == (-t, -p.field.one)
        assert p.offsets[2] == -t

    def test_strip_normals_do_not_span(self):
        # normals (1,0) and (-1,0) only span a line inside R^2
        with pytest.raises(NormalsDontSpan):
            parse_polytope(doc(2, [(["1", "0"], "0"), (["-1", "0"], "0")]))

    def test_strip_built_directly_normals_do_not_span(self):
        # The strip 0 <= x <= 1 is nonempty; its normals only fail to span.
        f = rational_field()
        p = HPolytope(field=f, dim=2,
                      normals=((f.one, f.zero), (-f.one, f.zero)),
                      offsets=(f.zero, -f.one))
        with pytest.raises(NormalsDontSpan):
            p.vertices

    def test_one_facet_in_high_dimension_refused_before_elimination(self):
        # One normal cannot span R^3000; that is decided before the
        # 3000 x 3001 matrix [P | I] is built and eliminated.
        f = rational_field()
        n = 3000
        p = HPolytope(field=f, dim=n, normals=((f.one,) + (f.zero,) * (n - 1),),
                      offsets=(f.zero,))
        start = time.perf_counter()
        with pytest.raises(NormalsDontSpan, match=f"proper subspace of R\\^{n}$"):
            p.vertices
        assert time.perf_counter() - start < 0.5

    def test_unbounded_quadrant(self):
        with pytest.raises(UnboundedPolytope) as info:
            parse_polytope(doc(2, [(["1", "0"], "0"), (["0", "1"], "0")]))
        assert info.value.direction is not None

    def test_empty_feasible_set(self):
        with pytest.raises(LowerDimensional):
            parse_polytope(doc(1, [(["1"], "2"), (["-1"], "0")]))

    def test_empty_feasible_set_with_recession_ray(self):
        # x >= 1, -x >= 0, y >= 0: empty, although every constraint allows
        # the ray (0, 1); emptiness is decided first
        with pytest.raises(LowerDimensional, match="feasible set is empty") as info:
            parse_polytope(doc(2, [
                (["1", "0"], "1"), (["-1", "0"], "0"), (["0", "1"], "0"),
            ]))
        # x >= 1 plus -x >= 0 reads 0 >= 1
        assert [as_fraction(y) for y in info.value.certificate] == [1, 1, 0]
        assert info.value.facet is None

    def test_lower_dimensional_slab(self):
        # x = 0 slab crossed with [0,1]: nonempty but affinely 1-dimensional
        with pytest.raises(LowerDimensional, match="facet 0 is active at every vertex") as info:
            parse_polytope(doc(2, [
                (["1", "0"], "0"), (["-1", "0"], "0"),
                (["0", "1"], "0"), (["0", "-1"], "-1"),
            ]))
        assert info.value.facet == 0
        assert info.value.certificate is None

    def test_cone_with_non_simple_apex_is_unbounded(self):
        # z >= |x|, z >= |y|: four facets meet at the apex.  The witness is
        # the first unbounded edge the walk meets, a positive multiple of
        # one of the cone's four edges (+-1, +-1, 1).
        with pytest.raises(UnboundedPolytope) as info:
            parse_polytope(doc(3, CONE_FACETS))
        ray = [as_fraction(s) for s in info.value.direction]
        assert ray == [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)]
        assert ray[2] > 0 and all(abs(x) == ray[2] for x in ray)

    def test_capped_cone_parses(self):
        p = parse_polytope(doc(3, CONE_FACETS + [(["0", "0", "-1"], "-1")]))
        apex = next(v for v in p.vertices if all(s.is_zero() for s in v.point))
        assert apex.active == (0, 1, 2, 3)
        assert len(p.vertices) == 5

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("dimension"),
        lambda d: d.pop("facets"),
        lambda d: d.update(dimension="2"),
        lambda d: d.update(dimension=0),
        lambda d: d.update(facets=[]),
        lambda d: d.update(facets="nope"),
        lambda d: d.update(unexpected=1),
        lambda d: d["facets"][0].pop("offset"),
        lambda d: d["facets"][0].update(offset=0.5),
        lambda d: d["facets"][0].update(normal=["0", "0"]),
        lambda d: d["facets"][0].update(normal=["1"]),
        lambda d: d["facets"][0].update(junk=True),
    ])
    def test_schema_errors(self, mutate):
        document = doc(2, [
            (["1", "0"], "0"), (["0", "1"], "0"),
            (["-1", "0"], "-1"), (["0", "-1"], "-1"),
        ])
        mutate(document)
        with pytest.raises(SchemaError):
            parse_polytope(document)

    def test_float_offset_rejected_even_when_integral(self):
        document = doc(1, [(["1"], 0.0), (["-1"], "-1")])
        with pytest.raises(SchemaError):
            parse_polytope(document)

    def test_bad_field_section(self):
        document = doc(1, [(["1"], "0"), (["-1"], "-1")],
                       field={"minpoly": ["-2", "0", "1"]})
        with pytest.raises(SchemaError):
            parse_polytope(document)

    def test_builtin_documents_round_trip_json(self):
        for name in builtin_names():
            parsed = json.loads(json.dumps(builtin_document(name)))
            parse_polytope(parsed)  # must not raise

    def test_readme_documents_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        for block in blocks:
            parse_polytope(json.loads(block))  # must not raise


# --------------------------------------------------------------------------
# Vertex enumeration
# --------------------------------------------------------------------------

def float_vertex_oracle(document, tol=1e-8):
    """Independent float enumeration over all n-subsets of facets."""
    field_spec = document.get("field")
    if field_spec is None:
        to_float = float
        field = None
    else:
        from quasifold import Field, parse_scalar
        field = Field(tuple(field_spec["minpoly"]),
                      tuple(field_spec["root_interval"]))
        to_float = lambda s: parse_scalar(str(s), field).to_float()
    n = document["dimension"]
    normals = np.array([[to_float(x) for x in f["normal"]] for f in document["facets"]])
    offsets = np.array([to_float(f["offset"]) for f in document["facets"]])
    found = []
    for subset in itertools.combinations(range(len(normals)), n):
        a = normals[list(subset)]
        if abs(np.linalg.det(a)) < tol:
            continue
        mu = np.linalg.solve(a, offsets[list(subset)])
        if np.all(normals @ mu - offsets >= -tol):
            if not any(np.linalg.norm(mu - v) < 1e-6 for v in found):
                found.append(mu)
    return found


class TestVertices:
    def test_unit_square_vertices(self):
        p = load_builtin("square")
        pts = sorted(tuple(as_fraction(s) for s in v.point) for v in p.vertices)
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_triangle_vertices(self):
        p = load_builtin("triangle-sqrt2")
        t, zero, one = p.field.theta, p.field.zero, p.field.one
        pts = {v.point for v in p.vertices}
        assert pts == {(zero, zero), (one, zero), (zero, t)}

    def test_pentagon_vertices_equal_norm(self):
        p = load_builtin("pentagon")
        one = p.field.one
        assert len(p.vertices) == 5
        for v in p.vertices:
            norm_sq = sum((x * x for x in v.point), p.field.zero)
            assert norm_sq == one

    def test_active_sets_are_exact(self):
        for name in ("square", "cube", "pentagon", "triangle-sqrt2"):
            p = load_builtin(name)
            for v in p.vertices:
                for j in range(p.facet_count):
                    slack = p.slack(v.point, j)
                    if j in v.active:
                        assert slack.is_zero()
                    else:
                        assert slack.sign() > 0

    def test_vertex_floats_ignore_refinement_history(self):
        # A sign test refines the field's shared isolator; the floats of
        # the second copy must not notice.
        first, second = load_builtin("pentagon"), load_builtin("pentagon")
        theta = second.field.theta
        assert (theta - Fraction(9510565162951535, 10**16)).sign() != 0
        assert ([[s.to_float() for s in v.point] for v in first.vertices]
                == [[s.to_float() for s in v.point] for v in second.vertices])

    @pytest.mark.parametrize("name", sorted(builtin_names()))
    def test_matches_float_oracle(self, name):
        document = builtin_document(name)
        p = parse_polytope(document)
        oracle = float_vertex_oracle(document)
        assert len(p.vertices) == len(oracle)
        exact = [np.array([s.to_float() for s in v.point]) for v in p.vertices]
        for mu in oracle:
            assert min(np.linalg.norm(mu - e) for e in exact) < 1e-6


# --------------------------------------------------------------------------
# Boundedness and full dimension against exact brute-force oracles
# --------------------------------------------------------------------------

def _rref(rows, width):
    """Reduced row echelon form over an exact field (Fractions, or Scalars
    of one field): (nonzero rows, pivot columns)."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def brute_force_outcome(normals, offsets, n):
    """(exception type or None, vertex points) by exhaustive subset scans:
    vertices from every n-subset of facets, in the order of the first
    subset that gives each, a recession ray from every (n-1)-subset, then
    the rank of the vertex differences.  Entries are Fractions, or Scalars
    of one field."""
    d = len(normals)
    if len(_rref(normals, n)[1]) < n:
        return NormalsDontSpan, []
    vertices = []
    for subset in itertools.combinations(range(d), n):
        rows, pivots = _rref([normals[j] + [offsets[j]] for j in subset], n + 1)
        if pivots != list(range(n)):
            continue
        point = [row[n] for row in rows]
        if point not in vertices and all(
                _dot(x, point) >= b for x, b in zip(normals, offsets)):
            vertices.append(point)
    if not vertices:
        return LowerDimensional, []
    for subset in itertools.combinations(range(d), n - 1):
        rows, pivots = _rref([normals[j] for j in subset], n)
        if len(pivots) != n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        ray = [Fraction(0)] * n
        ray[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            ray[c] = -row[free]
        for candidate in (ray, [-x for x in ray]):
            if all(_dot(x, candidate) >= 0 for x in normals):
                return UnboundedPolytope, vertices
    differences = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    if len(_rref(differences, n)[1]) < n:
        return LowerDimensional, vertices
    return None, vertices


@st.composite
def h_representations(draw):
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(4, 7))
    normal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    normals = draw(st.lists(normal, min_size=d, max_size=d))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return n, normals, offsets


@st.composite
def cut_boxes(draw):
    """The box [0, 2]^n cut by 1-4 supporting hyperplanes <X, x> >= the
    least <X, c> over the box's corners c (sometimes 1 more), facets
    shuffled: bounded, and mostly not simple."""
    n = draw(st.integers(2, 4))
    facets = [([sign if k == i else 0 for k in range(n)], 0 if sign > 0 else -2)
              for sign in (1, -1) for i in range(n)]
    corners = list(itertools.product((0, 2), repeat=n))
    normal = st.lists(st.integers(-1, 1), min_size=n, max_size=n).filter(any)
    for x in draw(st.lists(normal, min_size=1, max_size=4)):
        facets.append((x, min(_dot(x, c) for c in corners) + draw(st.integers(0, 1))))
    normals, offsets = zip(*draw(st.permutations(facets)))
    return n, list(normals), list(offsets)


def _parse_keeping_satisfied_facets(document):
    """parse_polytope, checking that no pivot violates a facet that was
    satisfied before it: phase 1's progress, and the walk's feasibility."""
    pivot = polytope_module._pivot

    def checked(v, *args):
        after = pivot(v, *args)
        violated = {j for j, s in enumerate(v.slacks) if s.sign() < 0}
        assert all(s.sign() >= 0 for j, s in enumerate(after.slacks) if j not in violated)
        return after

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytope_module, "_pivot", checked)
        return parse_polytope(document)


@settings(max_examples=300, deadline=None)
@given(st.one_of(h_representations(), cut_boxes()))
@example((2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, -1, -1]))     # square
@example((2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, -1]))      # segment
@example((2, [[1, 0], [-1, 0], [0, 1], [1, 1]], [1, 0, 0, 0]))        # empty, with a ray
@example((3, [[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1]], [0, 0, 0, 0]))  # cone
# The first basis of independent normals is infeasible, so phase 1 pivots:
# the square with the cut -x-y >= -3/2 listed first, and an empty box.
@example((2, [[-1, -1], [1, 0], [0, 1], [-1, 0], [0, -1]], [Fraction(-3, 2), 0, 0, -1, -1]))
@example((3, [[1, 1, 1], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1], [1, 0, 0], [0, 0, 1]],
          [4, -1, 0, -1, -1, 0, 0]))
def test_parse_agrees_with_brute_force(case):
    n, normals, offsets = case
    expected, oracle_vertices = brute_force_outcome(
        [[Fraction(x) for x in normal] for normal in normals],
        [Fraction(b) for b in offsets], n)
    document = doc(n, [([str(x) for x in normal], str(b))
                       for normal, b in zip(normals, offsets)])
    if expected is None:
        p = _parse_keeping_satisfied_facets(document)
        points = [[as_fraction(s) for s in v.point] for v in p.vertices]
        assert points == oracle_vertices  # in the oracle's first-subset order
        for v, point in zip(p.vertices, oracle_vertices):
            assert v.active == tuple(j for j, (x, b) in enumerate(zip(normals, offsets))
                                     if _dot(x, point) == b)
        return
    with pytest.raises(expected) as info:
        _parse_keeping_satisfied_facets(document)
    if expected is UnboundedPolytope:
        ray = [as_fraction(s) for s in info.value.direction]
        assert any(ray)
        assert all(_dot(x, ray) >= 0 for x in normals)
    elif expected is LowerDimensional and not oracle_vertices:
        # Farkas: y >= 0 and sum y_j X_j = 0, yet sum y_j lambda_j > 0
        y = [as_fraction(s) for s in info.value.certificate]
        assert len(y) == len(normals) and all(y_j >= 0 for y_j in y)
        assert all(_dot(y, column) == 0 for column in zip(*normals))
        assert _dot(y, offsets) > 0
    elif expected is LowerDimensional:
        facet = info.value.facet
        assert all(_dot(normals[facet], v) == offsets[facet] for v in oracle_vertices)


# --------------------------------------------------------------------------
# The walk over feasible bases against the exhaustive scan
# --------------------------------------------------------------------------

def _unit(n, i, value="1"):
    return [value if k == i else "0" for k in range(n)]


def cube_document(n):
    return doc(n, [(_unit(n, i), "0") for i in range(n)]
               + [(_unit(n, i, "-1"), "-1") for i in range(n)])


def projective_space_document(n):
    return doc(n, [(_unit(n, i), "0") for i in range(n)] + [(["-1"] * n, "-1")])


def pentagon_squared_document():
    pentagon = builtin_document("pentagon")
    facets = [(f["normal"] + ["0", "0"], f["offset"]) for f in pentagon["facets"]]
    facets += [(["0", "0"] + f["normal"], f["offset"]) for f in pentagon["facets"]]
    return doc(4, facets, field=pentagon["field"])


# A square pyramid: its first vertex (0, 0, 0) is simple, and four facets
# meet at the apex.
PYRAMID = doc(3, [
    (["0", "0", "1"], "0"), (["2", "0", "-1"], "0"), (["0", "2", "-1"], "0"),
    (["-2", "0", "-1"], "-2"), (["0", "-2", "-1"], "-2"),
])

WALKED = (
    [pytest.param(builtin_document(name), id=name) for name in sorted(builtin_names())
     if name != "octahedron"]
    + [pytest.param(cube_document(n), id=f"cube{n}") for n in range(3, 8)]
    + [pytest.param(projective_space_document(n), id=f"cp{n}") for n in range(3, 9)]
    + [pytest.param(pentagon_squared_document(), id="pentagon2")]
)
SCANNED = [
    pytest.param(builtin_document("octahedron"), id="octahedron"),
    pytest.param(doc(3, CONE_FACETS + [(["0", "0", "-1"], "-1")]), id="capped-cone"),
    pytest.param(PYRAMID, id="pyramid"),
]


def _parse_against_the_scan(document):
    """Parse, and check the vertices against brute_force_outcome: its
    points in its first-subset order, each active set the facets of zero
    slack and each slack <v, X_j> - lambda_j; a cone on exactly the simple
    vertices."""
    p = parse_polytope(document)
    exact = as_fraction if p.field.degree == 1 else (lambda s: s)
    expected, points = brute_force_outcome([[exact(x) for x in normal] for normal in p.normals],
                                           [exact(b) for b in p.offsets], p.dim)
    assert expected is None
    assert [list(v.point) for v in p.vertices] == points
    for v in p.vertices:
        slacks = tuple(p.slack(v.point, j) for j in range(p.facet_count))
        assert v.slacks == slacks
        assert v.active == tuple(j for j, s in enumerate(slacks) if s.is_zero())
        simple = len(v.active) == p.dim
        assert (v.inverse is not None, v.normal_coords is not None) == (simple, simple)
    return p


@pytest.mark.parametrize("document", WALKED)
def test_walk_gives_the_scan_vertices(document):
    p = _parse_against_the_scan(document)
    assert all(len(v.active) == p.dim for v in p.vertices)


@pytest.mark.parametrize("document", SCANNED)
def test_non_simple_input_takes_the_scan(document):
    # Non-simple input: the walk lists each vertex once, at its least
    # basis, as the exhaustive scan does.
    p = _parse_against_the_scan(document)
    assert any(len(v.active) > p.dim for v in p.vertices)


@pytest.mark.parametrize("document", WALKED)
def test_walk_cone_inverts_the_active_normals(document):
    # D_v = X W_v, and the rows of D_v at the active facets are the unit
    # rows, so A_v W_v = I.
    p = parse_polytope(document)
    f, n = p.field, p.dim
    for v in p.vertices:
        for x, coords in zip(p.normals, v.normal_coords):
            assert coords == tuple(sum((x[i] * v.inverse[i][k] for i in range(n)), f.zero)
                                   for k in range(n))
        for k, j in enumerate(v.active):
            assert v.normal_coords[j] == tuple(f.one if i == k else f.zero for i in range(n))


def _count_eliminations(monkeypatch):
    calls = []
    reduce = Matrix._reduce
    monkeypatch.setattr(Matrix, "_reduce", lambda self: calls.append(1) or reduce(self))
    return calls


def test_cube8_parse_eliminates_three_times(monkeypatch):
    # Phase 1's elimination of [P | I] ranks the normals and gives the
    # first cone; a scan of the facet subsets would eliminate up to
    # C(16, 8) = 12,870 of them.
    calls = _count_eliminations(monkeypatch)
    p = parse_polytope(cube_document(8))
    assert len(p.vertices) == 256
    assert len(calls) == 1


@pytest.mark.parametrize("document", SCANNED[:2])
def test_non_simple_parse_eliminates_three_times(document, monkeypatch):
    # The walk follows every facet tied in a ratio test, so degenerate
    # vertices need no elimination beyond phase 1's one; a scan of all
    # subsets would eliminate C(8, 3) = 56 for the octahedron.
    calls = _count_eliminations(monkeypatch)
    parse_polytope(document)
    assert len(calls) == 1


def test_pentagon2_parse_eliminates_once(monkeypatch):
    # The scan for a first basis eliminated 18 singular subsets here.
    calls = _count_eliminations(monkeypatch)
    p = parse_polytope(pentagon_squared_document())
    assert len(p.vertices) == 25
    assert len(calls) == 1


def test_empty_cube8_is_refused_after_one_elimination(monkeypatch):
    # Phase 1 pivots to a Farkas certificate; a scan would eliminate all
    # C(17, 8) = 24,310 subsets to show that none is feasible.
    document = cube_document(8)
    document["facets"].append({"normal": ["1"] * 8, "offset": "80"})
    calls = _count_eliminations(monkeypatch)
    with pytest.raises(LowerDimensional, match="feasible set is empty") as info:
        parse_polytope(document)
    assert len(calls) == 1
    y = [as_fraction(s) for s in info.value.certificate]
    assert y[16] > 0 and all(y_j >= 0 for y_j in y)


def test_cp8_first_cone_takes_one_dot_product_per_column(monkeypatch):
    # Phase 1's elimination gives the first cone, D and W = A_v^-1; only
    # its point (n = 8 dot products) and the slack of the one facet
    # outside the basis take dot products.  The walk reaches every later
    # cone by a pivot, with none.
    dots, in_walk = [], []
    dot, walk = polytope_module.dot, polytope_module._walk
    monkeypatch.setattr(polytope_module, "dot",
                        lambda u, v: dots.append(bool(in_walk)) or dot(u, v))

    def counted_walk(p, first):
        in_walk.append(1)
        try:
            return walk(p, first)
        finally:
            in_walk.pop()

    monkeypatch.setattr(polytope_module, "_walk", counted_walk)
    p = parse_polytope(projective_space_document(8))
    assert len(p.vertices) == 9
    assert dots == [False] * 9


def test_cube6_walk_reduces_once_per_fused_operation(monkeypatch):
    # A dot product, a row update x - f*a and a step x + f*a each take one
    # gcd; splitting one back into a multiply and an add reduces twice.
    p = parse_polytope(cube_document(6))
    calls = []
    reduced = scalars_module._reduced
    monkeypatch.setattr(scalars_module, "_reduced",
                        lambda *args: calls.append(1) or reduced(*args))
    vertices = polytope_module.enumerate_vertices(p)
    monkeypatch.undo()
    assert len(vertices) == 64
    assert len(calls) <= 507


def test_cube6_walk_does_no_fraction_arithmetic(monkeypatch):
    # Scalars are integer numerators over one denominator, so enumerating
    # the vertices of a rational polytope never multiplies, adds, subtracts
    # or divides a Fraction.
    p = parse_polytope(cube_document(6))
    calls = []
    for name in ("__mul__", "__add__", "__sub__", "__truediv__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _original=original: calls.append(1) or _original(*args))
    assert Fraction(1, 2) * Fraction(1, 3) - Fraction(1, 6) == 0 and len(calls) == 2
    calls.clear()
    vertices = polytope_module.enumerate_vertices(p)
    monkeypatch.undo()
    assert len(vertices) == 64
    assert calls == []


@pytest.mark.parametrize("document", [
    pytest.param(cube_document(6), id="cube6"),
    *(pytest.param(builtin_document(name), id=name)
      for name in ("pentagon", "teardrop-3", "rugby-3")),
])
def test_construct_and_report_make_no_fraction(monkeypatch, document):
    # Past parsing, every value is integer numerators over one denominator:
    # construction, the report and its JSON text neither build a Fraction
    # nor do arithmetic on one.
    p = parse_polytope(document)
    calls = []
    for name in ("__new__", "__mul__", "__add__", "__sub__", "__truediv__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _original=original, **kwargs:
                            calls.append(1) or _original(*args, **kwargs))
    assert Fraction(2, 4).denominator == 2 and len(calls) == 1
    calls.clear()
    report = construction_report(build_construction(p))
    text = json.dumps(report, indent=2, sort_keys=True)
    monkeypatch.undo()
    assert text and calls == []


# --------------------------------------------------------------------------
# Simplicity
# --------------------------------------------------------------------------

class TestSimple:
    def test_cube_simple(self):
        assert check_simple(load_builtin("cube")).simple

    def test_octahedron_not_simple(self):
        p = load_builtin("octahedron")
        report = check_simple(p)
        assert not report.simple
        assert len(p.vertices[report.witness_index].active) == 4

    def test_interval_simple(self):
        assert check_simple(load_builtin("sphere")).simple


# --------------------------------------------------------------------------
# Rationality and the integrality condition
# --------------------------------------------------------------------------

class TestRational:
    def test_square_certificate(self):
        cert = check_rational(load_builtin("square"))
        assert cert.rational
        assert [[as_fraction(s) for s in b] for b in cert.basis] == [[1, 0], [0, 1]]
        assert cert.coords == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_pentagon_not_rational(self):
        cert = check_rational(load_builtin("pentagon"))
        assert not cert.rational
        assert cert.rank > 2

    def test_interval_sqrt2_not_rational(self):
        cert = check_rational(load_builtin("interval-sqrt2"))
        assert not cert.rational
        assert cert.rank == 2

    @pytest.mark.parametrize("name", ["sphere", "cp2", "square", "cube",
                                      "teardrop-3", "rugby-3"])
    def test_reconstruction_exact(self, name):
        p = load_builtin(name)
        cert = check_rational(p)
        assert cert.rational
        f = p.field
        for x, coords in zip(p.normals, cert.coords):
            rebuilt = [
                sum((f.scalar(c) * b[i] for c, b in zip(coords, cert.basis)), f.zero)
                for i in range(p.dim)
            ]
            assert tuple(rebuilt) == x


class TestDelzant:
    def test_cp2_integral(self):
        p = load_builtin("cp2")
        report = check_delzant(p, check_rational(p))
        assert report.integral
        assert set(report.vertex_determinants) <= {1, -1}

    def test_teardrop_vertex_determinant(self):
        p = load_builtin("teardrop-3")
        report = check_delzant(p, check_rational(p))
        assert not report.integral
        assert -3 in report.vertex_determinants
        assert report.nonunimodular_vertices == (1,)
        assert report.nonprimitive_facets == (1,)

    def test_square_integral(self):
        p = load_builtin("square")
        assert check_delzant(p, check_rational(p)).integral

    def test_requires_rational(self):
        p = load_builtin("pentagon")
        with pytest.raises(NotRationalInput):
            check_delzant(p, check_rational(p))
