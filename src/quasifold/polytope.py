"""Simple convex polytopes in H-representation over an exact field.

A document describes Delta = {mu : <mu, X_j> >= lambda_j} through facet
normals X_j and offsets lambda_j with entries in Q(theta).  Everything
here is exact: vertex enumeration reaches a first feasible basis by one
elimination and pivots, then walks the feasible bases with one pivot
each, following every facet tied in a ratio test and reporting the first
unbounded edge it meets; full dimension is read off the vertex active
sets, and rationality of the normal family is certified (or refuted)
over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
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

    A simple vertex also carries its cone.  ``inverse`` is W_v = A_v^-1
    by rows, where row k of A_v is the normal of facet active[k]; column
    k of W_v is the direction w_k of the edge that leaves facet
    active[k].  ``normal_coords`` is D_v, whose row j holds <X_j, w_k>
    over k: the coordinates of X_j in the basis of the active normals.
    Both are None on a non-simple vertex.
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


def _parse_entry(value, fld: Field, where: str, has_theta: bool, parsed: dict) -> Scalar:
    """One exact entry.  Without a field section the document is over Q,
    whose field gives theta the value 0, so an entry naming theta is
    refused rather than read as 0.

    ``parsed`` maps each entry string of the document met so far to its
    value, so a repeated string is parsed once.  Only successful parses
    are stored, so a refusal is raised at its first position; only
    strings are keys, so ``true`` never finds the entry of ``1``."""
    if isinstance(value, str):
        scalar = parsed.get(value)
        if scalar is None:
            # theta and θ are the only names parse_scalar accepts
            if not has_theta and ("theta" in value or "θ" in value):
                raise SchemaError(f"{where}: {value!r} names theta, "
                                  "but the document has no 'field' section")
            scalar = parsed[value] = parse_scalar(value, fld)
        return scalar
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{where}: expected an exact expression string, got {value!r}")
    if isinstance(value, int):
        return fld.scalar(value)
    raise SchemaError(f"{where}: expected an exact expression string, got {type(value).__name__}")


def parse_polytope(document: dict) -> HPolytope:
    """Validate a polytope document and return the exact H-representation.

    Raises SchemaError for malformed documents and, from vertex
    enumeration, NormalsDontSpan when the normals fail to span R^n,
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
    parsed: dict[str, Scalar] = {}

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
        vec = tuple(_parse_entry(e, fld, where, has_theta, parsed) for e in normal)
        if all(s.is_zero() for s in vec):
            raise SchemaError(f"{where}: zero normal vector")
        normals.append(vec)
        offsets.append(_parse_entry(facet["offset"], fld, where, has_theta, parsed))

    generators = document.get("quasilattice_extra_generators", [])
    _require(isinstance(generators, list), "'quasilattice_extra_generators' must be a list")
    extras: list[Vector] = []
    for k, gen in enumerate(generators):
        where = f"extra generator {k}"
        _require(isinstance(gen, list) and len(gen) == n, f"{where} must have {n} entries")
        vec = tuple(_parse_entry(e, fld, where, has_theta, parsed) for e in gen)
        _require(not all(s.is_zero() for s in vec), f"{where} is zero")
        extras.append(vec)

    poly = HPolytope(field=fld, dim=n, normals=tuple(normals), offsets=tuple(offsets),
                     extra_generators=tuple(extras))
    poly.vertices  # enforce bounded / full-dimensional at parse time
    return poly


# --------------------------------------------------------------------------
# Vertex enumeration
# --------------------------------------------------------------------------

def enumerate_vertices(p: HPolytope) -> list[Vertex]:
    """All vertices, exactly, in the order in which a scan of the facet
    n-subsets would first meet them.

    A basis is an n-subset of facets with independent normals; it is feasible
    when the common point of its hyperplanes satisfies every facet inequality,
    and that point is a vertex.  One elimination of [P | I], the columns of P
    being the normals, gives the least basis B (its pivots; one in the I
    block: NormalsDontSpan), D (its left block) and W = A_B^-1 (its right
    block, transposed).  While a facet is violated, phase 1 takes the least,
    r, leaves B along the least edge k with D[r][k] > 0 and enters the least
    facet tied in _ratio_test: the simplex method with Bland's rule (Math.
    Oper. Res. 2, 1977) raising s_r over the facets already satisfied, so it
    cannot cycle.  With no such k, y_r = 1, y_{B_k} = -D[r][k] certify that
    the feasible set is empty (LowerDimensional): y >= 0, sum y_j X_j = 0 and
    sum y_j lambda_j = -s_r > 0.  The walk (_walk) finds every vertex from
    there, or raises UnboundedPolytope.  Each active set lists every facet
    with zero slack, more than n of them at a non-simple vertex.

    A bounded polytope is the hull of its vertices, so it lies in the
    hyperplane of facet j, and is not full dimensional, exactly when j is
    active at every vertex.
    """
    d, n, zero, one = p.facet_count, p.dim, p.field.zero, p.field.one
    if d < n:  # the normals cannot span; refused before [P | I] is built
        raise NormalsDontSpan(f"facet normals span a proper subspace of R^{n}")
    ech = Matrix(p.field, [tuple(x[i] for x in p.normals) + (zero,) * i + (one,)
                           + (zero,) * (n - 1 - i) for i in range(n)]).echelon()
    if ech.pivots[-1] >= d:
        raise NormalsDontSpan(f"facet normals span a proper subspace of R^{n}")
    inverse = tuple(zip(*(row[d:] for row in ech.rows)))
    point = tuple(dot(w, [p.offsets[j] for j in ech.pivots]) for w in inverse)
    v = Vertex(point, ech.pivots,
               tuple(zero if j in ech.pivots else p.slack(point, j) for j in range(d)),
               inverse, tuple(zip(*(row[:d] for row in ech.rows))))
    while (r := next((j for j, s in enumerate(v.slacks) if s.sign() < 0), None)) is not None:
        k = next((k for k, a in enumerate(v.normal_coords[r]) if a.sign() > 0), None)
        if k is None:
            y = {b: -a for b, a in zip(v.active, v.normal_coords[r])} | {r: one}
            raise LowerDimensional("feasible set is empty",
                                   certificate=tuple(y.get(j, zero) for j in range(d)))
        entering = min(_ratio_test(v, k, r))
        v = _pivot(v, k, entering, tuple(sorted(v.active[:k] + v.active[k + 1:] + (entering,))))
    vertices = _walk(p, v)
    common = set(vertices[0].active).intersection(*(v.active for v in vertices[1:]))
    if common:
        raise LowerDimensional(f"facet {min(common)} is active at every vertex", facet=min(common))
    return vertices


def _walk(p: HPolytope, first: Vertex) -> list[Vertex]:
    """Every vertex, by a walk over the feasible bases from first, each
    listed once at its least basis, in that order.

    The walk's records are Vertex tableaux whose ``active`` is their basis
    B, with W = A_B^-1 and D = X W, the first one's from phase 1.  Edge k of
    a basis leads to every facet tied at the least step along w_k
    (_ratio_test), and each enters by one pivot (_pivot); a zero step is
    a degenerate pivot to another basis of the same vertex.  A simple
    vertex has one basis, its active set, and keeps its record's cone; a
    non-simple one is listed without a cone.

    These are the simplex method's pivots, and each can be taken back.
    Pushing the facets outside one feasible basis B out by distinct
    infinitesimals makes the polytope simple, with B and a basis of every
    vertex among its vertices and each of its edges one of these pivots.
    Its edge graph is connected, so the walk meets every vertex, unless it
    meets an unbounded edge first.  If the polytope is bounded and full
    dimensional, two such perturbations on either side of one circuit
    share the bases of a vertex off that circuit, so the walk meets every
    feasible basis (as in the reverse search of Avis and Fukuda, Discrete
    Comput. Geom. 8, 1992), and a vertex's least basis is the subset at
    which a scan of all subsets first meets it.

    The edge a pivot crossed needs no ratio test from its far end when the
    pivot left a simple vertex: the way back then ties only the facet it
    left, and leads to the one basis it came from.  From a non-simple
    vertex it also ties the other facets active there, and leads to
    further bases of it.
    """
    n = p.dim
    found = {first.active: first}
    actives = {}
    pending = [(first, None)]
    while pending:
        v, back = pending.pop()
        active = actives[v.active] = tuple(j for j, s in enumerate(v.slacks) if s.is_zero())
        for k in range(n):
            if k == back:
                continue
            for entering in _ratio_test(v, k):
                basis = tuple(sorted(v.active[:k] + v.active[k + 1:] + (entering,)))
                if basis not in found:
                    found[basis] = _pivot(v, k, entering, basis)
                    pending.append((found[basis],
                                    basis.index(entering) if len(active) == n else None))
    vertices: dict[tuple[int, ...], Vertex] = {}
    for basis in sorted(found):
        v, active = found[basis], actives[basis]
        if active not in vertices:
            vertices[active] = v if len(active) == n else Vertex(v.point, active, v.slacks)
    return list(vertices.values())


def _ratio_test(v: Vertex, k: int, r: int | None = None) -> list[int]:
    """Every facet that edge k of the basis v runs into first, i.e. tied at
    the least step; UnboundedPolytope, with direction w_k, when no facet
    bounds the edge.

    Along v + t*w_k the slack of facet j is s_j + t*D[j][k], so only
    facets with D[j][k] < 0 bound the edge, at t = s_j / -D[j][k]; that
    step is 0 for a facet active at v outside the basis.  Phase 1 counts
    its target r, at t = -s_r / D[r][k], and skips other violated facets.
    The denominators are positive, so ratios compare by cross-multiplying:
    s_j / -a_j < s_b / -a_b exactly when s_j*a_b - s_b*a_j > 0, a sign
    that cross_sign reads without reducing.
    """
    tied, least = ([], None) if r is None else ([r], (-v.slacks[r], -v.normal_coords[r][k]))
    for j, row in enumerate(v.normal_coords):
        a = row[k]
        if a.is_zero() or a.sign() > 0:
            continue
        s = v.slacks[j]
        if r is not None and s.sign() < 0:
            continue
        if not tied:
            tied, least = [j], (s, a)
            continue
        order = cross_sign(s, least[1], least[0], a)
        if order > 0:
            tied, least = [j], (s, a)
        elif order == 0:
            tied.append(j)
    if not tied:
        direction = tuple(row[k] for row in v.inverse)
        rendered = ", ".join(s.to_expr() for s in direction)
        raise UnboundedPolytope(f"recession direction ({rendered})", direction=direction)
    return tied


def _pivot(v: Vertex, k: int, entering: int, basis: tuple[int, ...]) -> Vertex:
    """The basis across edge k of v, which facet ``entering`` enters.

    With alpha = D[entering][k] < 0, the new edge directions are
    w_k / alpha in the slot of the entering facet and
    w_i - (D[entering][i] / alpha) * w_k for the others; every row of W
    and D takes the same column operation, and zero multipliers are
    skipped.  The step along w_k is t = s_entering / -alpha >= 0.  Each
    updated entry is one fused x - f*a or x + f*a, reduced once.
    """
    pivot_row = v.normal_coords[entering]
    inv = pivot_row[k].inverse()
    factors = [(i, a * inv) for i, a in enumerate(pivot_row) if i != k and not a.is_zero()]
    step = -(v.slacks[entering] * inv)
    slot = basis.index(entering)

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
        active=basis,
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
