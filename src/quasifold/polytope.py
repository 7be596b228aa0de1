"""Simple convex polytopes in H-representation over an exact field.

A document describes Delta = {mu : <mu, X_j> >= lambda_j} through facet
normals X_j and offsets lambda_j with entries in Q(theta).  Everything
here is exact: vertex enumeration walks the edge graph from the first
vertex with one pivot per vertex, and falls back to solving n-subsets of
facet equations on input that is not simple, not bounded or empty;
boundedness and full dimension are read off the vertex active sets, and
rationality of the normal family is certified (or refuted) over Q.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    LowerDimensional,
    NormalsDontSpan,
    NotRationalInput,
    SchemaError,
    UnboundedPolytope,
)
from .lattices import LatticeCertificate, integer_det, span_certificate
from .linalg import Matrix, Vector, dot
from .scalars import (
    Field,
    Scalar,
    add_product,
    cross_sign,
    parse_scalar,
    rational_field,
    sub_product,
)

_DOCUMENT_KEYS = {"field", "dimension", "facets", "quasilattice_extra_generators"}
_FIELD_KEYS = {"minpoly", "root_interval"}


@dataclass(frozen=True)
class Vertex:
    """A vertex with its facet slacks <v, X_j> - lambda_j and the full set
    of facet indices active (zero slack) at it.

    A vertex the edge walk reaches also carries its cone.  ``inverse`` is
    W_v = A_v^-1 by rows, where row k of A_v is the normal of facet
    active[k]; column k of W_v is the direction w_k of the edge that
    leaves facet active[k].  ``normal_coords`` is D_v, whose row j holds
    <X_j, w_k> over k: the coordinates of X_j in the basis of the active
    normals.  Both are None on a vertex of the subset scan.
    """

    point: Vector
    active: tuple[int, ...]
    slacks: tuple[Scalar, ...]
    inverse: tuple[Vector, ...] | None = None
    normal_coords: tuple[Vector, ...] | None = None


@dataclass
class HPolytope:
    field: Field
    dim: int
    normals: tuple[Vector, ...]
    offsets: tuple[Scalar, ...]
    extra_generators: tuple[Vector, ...] = ()
    _vertices: tuple[Vertex, ...] | None = dc_field(default=None, repr=False, compare=False)

    @property
    def facet_count(self) -> int:
        return len(self.normals)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        if self._vertices is None:
            self._vertices = tuple(enumerate_vertices(self))
        return self._vertices

    def slack(self, point: Sequence[Scalar], j: int) -> Scalar:
        return dot(self.normals[j], point) - self.offsets[j]


# --------------------------------------------------------------------------
# Document parsing
# --------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _exact_number(value, where: str) -> Fraction:
    # Rationals travel as strings ("5/16") or ints; floats are not exact.
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{where}: expected an exact rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational literal {value!r}") from exc
    raise SchemaError(f"{where}: expected an exact rational string, got {type(value).__name__}")


def _parse_field_section(section) -> Field:
    if section is None:
        return rational_field()
    _require(isinstance(section, dict), "field section must be an object")
    unknown = set(section) - _FIELD_KEYS
    _require(not unknown, f"unknown field keys: {sorted(unknown)}")
    _require("minpoly" in section and "root_interval" in section,
             "field section needs 'minpoly' and 'root_interval'")
    minpoly = section["minpoly"]
    _require(isinstance(minpoly, list) and len(minpoly) >= 2, "minpoly must list >= 2 coefficients")
    interval = section["root_interval"]
    _require(isinstance(interval, list) and len(interval) == 2, "root_interval must be [lo, hi]")
    coeffs = [_exact_number(c, "minpoly") for c in minpoly]
    lo = _exact_number(interval[0], "root_interval")
    hi = _exact_number(interval[1], "root_interval")
    return Field(coeffs, (lo, hi))


def _parse_entry(value, fld: Field, where: str, has_theta: bool) -> Scalar:
    """One exact entry.  Without a field section the document is over Q,
    whose field gives theta the value 0, so an entry naming theta is
    refused rather than read as 0."""
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{where}: expected an exact expression string, got {value!r}")
    if isinstance(value, int):
        return fld.scalar(value)
    if isinstance(value, str):
        scalar = parse_scalar(value, fld)
        # theta and θ are the only names parse_scalar accepts
        if not has_theta and ("theta" in value or "θ" in value):
            raise SchemaError(f"{where}: {value!r} names theta, "
                              "but the document has no 'field' section")
        return scalar
    raise SchemaError(f"{where}: expected an exact expression string, got {type(value).__name__}")


def parse_polytope(document: dict) -> HPolytope:
    """Validate a polytope document and return the exact H-representation.

    Raises SchemaError for malformed documents, NormalsDontSpan when the
    normals fail to span R^n, and, from vertex enumeration,
    LowerDimensional when the feasible set is empty, UnboundedPolytope
    when it is unbounded, and LowerDimensional when it lies in a facet
    hyperplane.
    """
    _require(isinstance(document, dict), "document must be a JSON object")
    unknown = set(document) - _DOCUMENT_KEYS
    _require(not unknown, f"unknown document keys: {sorted(unknown)}")
    _require("dimension" in document, "missing 'dimension'")
    n = document["dimension"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "'dimension' must be a positive integer")
    section = document.get("field")
    fld = _parse_field_section(section)
    has_theta = section is not None

    facets = document.get("facets")
    _require(isinstance(facets, list) and len(facets) >= 1, "'facets' must be a nonempty list")
    normals: list[Vector] = []
    offsets: list[Scalar] = []
    for j, facet in enumerate(facets):
        where = f"facet {j}"
        _require(isinstance(facet, dict), f"{where} must be an object")
        _require(set(facet) == {"normal", "offset"}, f"{where} needs exactly 'normal' and 'offset'")
        normal = facet["normal"]
        _require(isinstance(normal, list) and len(normal) == n,
                 f"{where}: normal must have {n} entries")
        vec = tuple(_parse_entry(e, fld, where, has_theta) for e in normal)
        if all(s.is_zero() for s in vec):
            raise SchemaError(f"{where}: zero normal vector")
        normals.append(vec)
        offsets.append(_parse_entry(facet["offset"], fld, where, has_theta))

    extras: list[Vector] = []
    for k, gen in enumerate(document.get("quasilattice_extra_generators") or []):
        where = f"extra generator {k}"
        _require(isinstance(gen, list) and len(gen) == n, f"{where} must have {n} entries")
        vec = tuple(_parse_entry(e, fld, where, has_theta) for e in gen)
        _require(not all(s.is_zero() for s in vec), f"{where} is zero")
        extras.append(vec)

    if Matrix(fld, normals).rank() < n:
        raise NormalsDontSpan(f"facet normals span a proper subspace of R^{n}")

    poly = HPolytope(field=fld, dim=n, normals=tuple(normals), offsets=tuple(offsets),
                     extra_generators=tuple(extras))
    poly.vertices  # enforce bounded / full-dimensional at parse time
    return poly


# --------------------------------------------------------------------------
# Vertex enumeration
# --------------------------------------------------------------------------

def _assert_bounded(p: HPolytope, vertices: Sequence[Vertex]) -> None:
    """Raise UnboundedPolytope when the nonempty feasible set has an
    unbounded edge.

    The normals span R^n, so the feasible set is pointed, and an unbounded
    pointed polyhedron has an unbounded edge at some vertex (Ziegler,
    Lectures on Polytopes, 1995).  That edge lies on n-1 independent
    facets active at its vertex and at no other vertex, so only an
    (n-1)-subset of active facets that a single vertex holds is tested:
    its kernel ray, either sign, against every facet.  A subset two
    vertices share cuts out a bounded edge.
    """
    d, n = p.facet_count, p.dim
    holders = Counter(s for v in vertices for s in combinations(v.active, n - 1))
    for subset, count in holders.items():
        if count > 1:
            continue
        kernel = Matrix(p.field, [p.normals[j] for j in subset], cols=n).kernel()
        if len(kernel) != 1:
            continue
        ray = kernel[0]
        for candidate in (ray, tuple(-s for s in ray)):
            if all(dot(p.normals[j], candidate).sign() >= 0 for j in range(d)):
                rendered = ", ".join(s.to_expr() for s in candidate)
                raise UnboundedPolytope(
                    f"recession direction ({rendered})", direction=candidate
                )


def enumerate_vertices(p: HPolytope) -> list[Vertex]:
    """All vertices, exactly, in deterministic facet-subset order.

    Candidates come from invertible n-subsets of facet equations, in
    lexicographic order; each is kept when every remaining slack is
    certified nonnegative.  Exactly equal candidate points are merged, and
    the recorded active set lists every facet with zero slack (more than n
    of them at a non-simple vertex).

    That scan runs only until the first vertex.  When the first vertex is
    simple, the edge walk (_walk) takes over and finds the rest with one
    pivot each; it returns them sorted by active set, which for a simple
    vertex is the one subset at which the scan finds it, so the list is
    the scan's.  A walk that ends has seen every vertex simple and every
    edge bounded, so the polytope is bounded and full dimensional.  When
    the walk meets a non-simple vertex or an unbounded edge, the scan
    resumes after the first vertex's subset.

    The normals span R^n, so a nonempty feasible set has a vertex: no
    vertex means LowerDimensional.  Boundedness is then tested on the
    active sets (_assert_bounded).  A bounded polytope is the hull of its
    vertices, so it lies in the hyperplane of facet j, and is not full
    dimensional, exactly when j is active at every vertex.
    """
    d, n = p.facet_count, p.dim
    square = tuple(range(n))
    zero = p.field.zero
    seen: dict[tuple, Vertex] = {}
    for subset in combinations(range(d), n):
        ech = Matrix(p.field, [p.normals[j] + (p.offsets[j],) for j in subset]).echelon()
        if ech.pivots != square:
            continue
        point = tuple(row[n] for row in ech.rows)
        if point in seen:
            continue
        # point solves the equations of its subset exactly
        slacks = tuple(zero if j in subset else p.slack(point, j) for j in range(d))
        if any((not s.is_zero()) and s.sign() < 0 for s in slacks):
            continue
        active = tuple(j for j, s in enumerate(slacks) if s.is_zero())
        vertex = Vertex(point=point, active=active, slacks=slacks)
        if not seen and len(active) == n:
            walked = _walk(p, vertex)
            if walked is not None:
                return walked
        seen[point] = vertex

    vertices = list(seen.values())
    if not vertices:
        raise LowerDimensional("feasible set is empty")
    _assert_bounded(p, vertices)
    common = set(vertices[0].active).intersection(*(v.active for v in vertices[1:]))
    if common:
        raise LowerDimensional(f"facet {min(common)} is active at every vertex")
    return vertices


def _walk(p: HPolytope, first: Vertex) -> list[Vertex] | None:
    """Every vertex by a walk over the edge graph from the simple vertex
    first, sorted by active set; None at a non-simple vertex or an
    unbounded edge.

    The first cone comes from one inversion of A_v; its rows of D_v for
    the active facets are the unit rows, since A_v W_v = I, so only the
    d - n other rows take dot products.  Each new vertex comes from a
    pivot of its neighbour's cone (_pivot).  The edge a pivot crossed needs
    no ratio test from its far end: it leads back to the vertex the pivot
    started from.  The graph of vertices and bounded edges of a pointed
    polyhedron is connected, so the walk reaches every vertex unless an
    edge on the way is unbounded.
    """
    inverse = Matrix(p.field, [p.normals[j] for j in first.active]).inverse().rows
    columns = tuple(zip(*inverse))
    n, zero, one = p.dim, p.field.zero, p.field.one
    units = {j: tuple(one if i == k else zero for i in range(n))
             for k, j in enumerate(first.active)}
    coords = tuple(units[j] if j in units else tuple(dot(x, w) for w in columns)
                   for j, x in enumerate(p.normals))
    start = replace(first, inverse=inverse, normal_coords=coords)
    found = {start.active: start}
    pending = [(start, None)]
    while pending:
        v, back = pending.pop()
        for k in range(len(v.active)):
            if k == back:
                continue
            entering = _ratio_test(v, k)
            if entering is None:
                return None
            active = tuple(sorted(v.active[:k] + v.active[k + 1:] + (entering,)))
            if active not in found:
                found[active] = _pivot(v, k, entering, active)
                pending.append((found[active], active.index(entering)))
    return [found[active] for active in sorted(found)]


def _ratio_test(v: Vertex, k: int) -> int | None:
    """The facet that edge k of the simple vertex v runs into, or None
    when the edge is unbounded or ends on more than one new facet.

    Along v + t*w_k the slack of facet j is s_j + t*D[j][k], so only
    facets with D[j][k] < 0 bound the edge, at t = s_j / -D[j][k].  The
    denominators are positive, so ratios compare by cross-multiplying:
    s_j / -a_j < s_b / -a_b exactly when s_j*a_b - s_b*a_j > 0, a sign
    that cross_sign reads without reducing.  A tie at the minimum means
    more than n facets at the next vertex.
    """
    best, tie = None, False
    for j, row in enumerate(v.normal_coords):
        a = row[k]
        if a.is_zero() or a.sign() > 0:
            continue
        if best is None:
            best = j
            continue
        order = cross_sign(v.slacks[j], v.normal_coords[best][k], v.slacks[best], a)
        if order > 0:
            best, tie = j, False
        elif order == 0:
            tie = True
    return None if tie else best


def _pivot(v: Vertex, k: int, entering: int, active: tuple[int, ...]) -> Vertex:
    """The neighbour of v across edge k, which enters facet ``entering``.

    With alpha = D[entering][k] < 0, the new edge directions are
    w_k / alpha in the slot of the entering facet and
    w_i - (D[entering][i] / alpha) * w_k for the others; every row of W
    and D takes the same column operation, and zero multipliers are
    skipped.  The step along w_k is t = s_entering / -alpha > 0.  Each
    updated entry is one fused x - f*a or x + f*a, reduced once.
    """
    pivot_row = v.normal_coords[entering]
    inv = pivot_row[k].inverse()
    factors = [(i, a * inv) for i, a in enumerate(pivot_row) if i != k and not a.is_zero()]
    step = -(v.slacks[entering] * inv)
    slot = active.index(entering)

    def column_op(row: Vector) -> Vector:
        out = list(row)
        a = out.pop(k)
        if not a.is_zero():
            for i, factor in factors:
                out[i if i < k else i - 1] = sub_product(row[i], factor, a)
            a = a * inv
        out.insert(slot, a)
        return tuple(out)

    def moved(values: Vector, along: Sequence[Scalar]) -> Vector:
        return tuple(add_product(s, step, a) for s, a in zip(values, along))

    return Vertex(
        point=moved(v.point, [row[k] for row in v.inverse]),
        active=active,
        slacks=moved(v.slacks, [row[k] for row in v.normal_coords]),
        inverse=tuple(column_op(row) for row in v.inverse),
        normal_coords=tuple(column_op(row) for row in v.normal_coords),
    )


# --------------------------------------------------------------------------
# Simplicity / rationality / integrality reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    witness_index: int | None = None


def check_simple(p: HPolytope) -> SimplicityReport:
    """Simple means exactly n facets meet at every vertex."""
    for i, v in enumerate(p.vertices):
        if len(v.active) != p.dim:
            return SimplicityReport(simple=False, witness_index=i)
    return SimplicityReport(simple=True)


def check_rational(p: HPolytope) -> LatticeCertificate:
    return span_certificate(p.field, p.normals, p.dim)


@dataclass(frozen=True)
class DelzantReport:
    """Primitivity and vertex unimodularity in a certified lattice."""

    integral: bool
    facet_gcds: tuple[int, ...]
    vertex_determinants: tuple[int | None, ...]
    nonprimitive_facets: tuple[int, ...]
    nonunimodular_vertices: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "integral": self.integral,
            "facet_gcds": list(self.facet_gcds),
            "vertex_determinants": list(self.vertex_determinants),
            "nonprimitive_facets": list(self.nonprimitive_facets),
            "nonunimodular_vertices": list(self.nonunimodular_vertices),
        }


def check_delzant(p: HPolytope, certificate: LatticeCertificate) -> DelzantReport:
    """Test the integrality condition: primitive normals and determinant
    +-1 at every vertex, in the coordinates of the certified lattice.

    The certificate's coordinate rows must start with the facet normals
    (extra quasilattice generators, if any, come after and are ignored).
    """
    if not certificate.rational:
        raise NotRationalInput("no lattice certificate: the normals are not rational")
    d = p.facet_count
    coords = certificate.coords[:d]
    gcds = tuple(math.gcd(*(abs(c) for c in row)) for row in coords)
    nonprimitive = tuple(j for j, g in enumerate(gcds) if g != 1)

    dets: list[int | None] = []
    nonunimodular: list[int] = []
    for i, v in enumerate(p.vertices):
        if len(v.active) != p.dim:
            dets.append(None)
            nonunimodular.append(i)
            continue
        det = integer_det([coords[j] for j in v.active])
        dets.append(det)
        if abs(det) != 1:
            nonunimodular.append(i)

    integral = not nonprimitive and not nonunimodular
    return DelzantReport(integral=integral, facet_gcds=gcds,
                         vertex_determinants=tuple(dets),
                         nonprimitive_facets=nonprimitive,
                         nonunimodular_vertices=tuple(nonunimodular))
