"""Simple convex polytopes in H-representation over an exact field.

A document describes Delta = {mu : <mu, X_j> >= lambda_j} through facet
normals X_j and offsets lambda_j with entries in Q(theta).  Everything
here is exact: vertex enumeration holds a basis as one tableau, with the
coordinate hyperplanes' rows after the facets', pivots from the origin to
a first lexicographically feasible basis, then walks those bases with one
pivot each, breaking every tie in a ratio test lexicographically and
reporting the first unbounded edge it meets; full dimension is read off
the vertex active sets, and rationality of the normal family is certified
(or refuted) over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DivisionByZeroScalar,
    InternalInconsistency,
    LowerDimensional,
    NormalsDontSpan,
    NotRationalInput,
    ScalarSyntaxError,
    SchemaError,
    UnboundedPolytope,
)
from .lattices import LatticeCertificate, integer_det, span_certificate
from .linalg import Vector
from .scalars import (
    Field,
    Scalar,
    add_product,
    cross_sign,
    _sign,
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
    ``det`` is det A_v, the product of the walk's pivot elements up to
    sign (see _pivot).  All three are None on a non-simple vertex.
    """

    point: Vector
    active: tuple[int, ...]
    slacks: tuple[Scalar, ...]
    inverse: tuple[Vector, ...] | None = None
    normal_coords: tuple[Vector, ...] | None = None
    det: Scalar | None = None


@dataclass
class HPolytope:
    field: Field
    dim: int
    normals: tuple[Vector, ...]
    offsets: tuple[Scalar, ...]
    extra_generators: tuple[Vector, ...] = ()
    _vertices: tuple[Vertex, ...] | None = dc_field(default=None, repr=False, compare=False)
    _least: _Tableau | None = dc_field(default=None, repr=False, compare=False)

    @property
    def facet_count(self) -> int:
        return len(self.normals)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        if self._vertices is None:
            self._vertices = tuple(enumerate_vertices(self))
        return self._vertices


# --------------------------------------------------------------------------
# Document parsing
# --------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


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
    rationals = rational_field()
    return Field([_rational(c, "minpoly", rationals) for c in minpoly],
                 [_rational(c, "root_interval", rationals) for c in interval])


def _rational(value, where: str, rationals: Field) -> Fraction:
    """A number of the field section: an entry over Q that names no theta."""
    if isinstance(value, str) and ("theta" in value or "θ" in value):
        raise SchemaError(f"{where}: {value!r} names theta, which the field section defines")
    try:
        s = _parse_entry(value, rationals, where, True, {})
    except (ScalarSyntaxError, DivisionByZeroScalar) as exc:
        raise SchemaError(f"{where}: bad rational literal {value!r}: {exc}") from exc
    return Fraction(s.num[0], s.den)


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

class _Tableau(NamedTuple):
    """A sorted basis B, with the rows of D = X A_B^-1 and the slacks of
    the d facets and then of x_i >= 0 (index d + i), whose rows are
    W = A_B^-1 and whose slacks are the point; det is det A_B, with the
    rows of A_B in the order of B."""

    basis: tuple[int, ...]
    rows: tuple[Vector, ...]
    values: tuple[Scalar, ...]
    det: Scalar


def enumerate_vertices(p: HPolytope) -> list[Vertex]:
    """All vertices, exactly, in the order in which a scan of the facet
    n-subsets would first meet them.

    A basis is an n-subset of facets with independent normals; it is feasible
    when the common point of its hyperplanes satisfies every facet inequality,
    and that point is a vertex.  Pivots from the origin reach the least
    basis B (_least_basis), or show that the normals do not span.

    Moving facet j's offset outward by eps^(j+1), for an infinitesimal
    eps > 0, makes the polytope simple.  Its vertices are the
    lexicographically feasible bases, at which no facet's perturbed slack
    is negative (_violated), and its edges are the pivots _ratio_test
    picks.  Phase 1 reaches such a basis (Dantzig, Orden and Wolfe,
    Pacific J. Math. 5, 1955): while a perturbed slack is negative, it
    takes the first facet r of _violated, leaves B along the least edge k
    with D[r][k] > 0 and enters the facet _ratio_test picks.  No facet
    satisfied before a pivot is violated after it, and r's perturbed
    slack rises strictly, since only a basic facet's is zero; so no basis
    comes back, and phase 1 ends.  With no such k, y_r = 1,
    y_{B_k} = -D[r][k] certify that the feasible set is empty
    (LowerDimensional): y >= 0, sum y_j X_j = 0 and sum y_j lambda_j =
    -s_r > 0, as a zero s_r would make r's perturbed slack positive.  The
    walk (_walk) finds every vertex from there, or raises
    UnboundedPolytope.  Each active set lists every facet with zero slack,
    more than n of them at a non-simple vertex.

    A bounded polytope is the hull of its vertices, so it lies in the
    hyperplane of facet j, and is not full dimensional, exactly when j is
    active at every vertex.
    """
    d, zero, one = p.facet_count, p.field.zero, p.field.one
    t = _least_basis(p)
    while violated := _violated(t, d):
        r = violated[0]
        k = next((k for k, a in enumerate(t.rows[r]) if a.sign() > 0), None)
        if k is None:
            y = {b: -a for b, a in zip(t.basis, t.rows[r])} | {r: one}
            raise LowerDimensional("feasible set is empty",
                                   certificate=tuple(y.get(j, zero) for j in range(d)))
        entering = _ratio_test(t, d, k, violated)
        t = _pivot(t, k, entering, _swapped(t.basis, k, entering))
    vertices = _walk(d, t)
    common = set(vertices[0].active).intersection(*(v.active for v in vertices[1:]))
    if common:
        raise LowerDimensional(f"facet {min(common)} is active at every vertex", facet=min(common))
    return vertices


def _least_basis(p: HPolytope) -> _Tableau:
    """The least basis: from the origin's, the coordinate hyperplanes with
    W = I, D = X, slacks -lambda_j and det A_B = 1, facet j enters in place
    of the least axis k with D[j][k] != 0, which exists exactly when X_j is
    independent of the facets before it.  These are the pivots of an elimination of
    [P | I], and a basis fixes its tableau.  An axis left: NormalsDontSpan.
    The tableau is kept on p, so a polytope runs this once."""
    if p._least is not None:
        return p._least
    d, n, zero, one = p.facet_count, p.dim, p.field.zero, p.field.one
    if d >= n:  # else the normals cannot span, refused before W = I is built
        t = _Tableau(tuple(range(d, d + n)),
                     p.normals + tuple((zero,) * i + (one,) + (zero,) * (n - 1 - i)
                                       for i in range(n)),
                     tuple(-b for b in p.offsets) + (zero,) * n, one)
        for j in range(d):
            k = next((k for k, b in enumerate(t.basis) if b >= d and not t.rows[j][k].is_zero()),
                     None)
            if k is not None:
                t = _pivot(t, k, j, _swapped(t.basis, k, j))
        if t.basis[-1] < d:
            p._least = t
            return t
    raise NormalsDontSpan(f"facet normals span a proper subspace of R^{n}")


def kernel_basis(p: HPolytope) -> tuple[Vector, ...]:
    """The basis of ker P, for P: R^d -> R^n sending e_j to X_j, that the
    reduced echelon form of P gives, read off the least basis B0's tableau
    (_least_basis): its pivot columns are B0, and row f holds X_f in the
    basis X_B0, so free column f, in increasing order, gives
    e_f - sum_i D0[f][i] e_B0[i].  Each vector is certified by computing
    X_f - sum_i D0[f][i] X_B0[i] = 0 exactly, else InternalInconsistency."""
    t = _least_basis(p)
    d, zero, one = p.facet_count, p.field.zero, p.field.one
    basis = []
    for f in range(d):
        if f in t.basis:
            continue
        coords = t.rows[f]
        for k, x in enumerate(p.normals[f]):
            for c, b in zip(coords, t.basis):
                x = sub_product(x, c, p.normals[b][k])
            if any(x.num):
                raise InternalInconsistency(f"kernel vector of free column {f} misses ker P")
        v = [zero] * d
        v[f] = one
        for c, b in zip(coords, t.basis):
            v[b] = -c
        basis.append(tuple(v))
    return tuple(basis)


def _swapped(basis: tuple[int, ...], k: int, entering: int) -> tuple[int, ...]:
    """The basis with entering in place of basis[k], sorted."""
    return tuple(sorted(basis[:k] + basis[k + 1:] + (entering,)))


def _violated(t: _Tableau, d: int) -> list[int]:
    """The facets whose perturbed slack is lexicographically negative,
    those of zero slack first, then by index.

    At the point of basis B moved by the perturbation, facet j's slack is
    s_j + eps^(j+1) - sum_m D[j][m] eps^(B_m+1).  A basic facet's is 0.
    With s_j = 0, a nonbasic facet's leading term is that of the least
    index among j and the B_m with D[j][m] != 0: negative exactly when
    that is some B_m < j, with D[j][m] > 0.  Putting the facets of zero
    slack first keeps phase 1 from pushing one of them below 0: while one
    is its target, every step is 0, and after that each is satisfied in
    the perturbed sense, which no pivot undoes.
    """
    basis, rows = t.basis, t.rows
    zero_slack, negative = [], []
    for j, s in enumerate(t.values[:d]):
        sign = s.sign()
        if sign < 0:
            negative.append(j)
        elif sign == 0:
            m, a = next((m, a) for m, a in enumerate(rows[j]) if not a.is_zero())
            if basis[m] < j and a.sign() > 0:
                zero_slack.append(j)
    return zero_slack + negative


def _walk(d: int, first: _Tableau) -> list[Vertex]:
    """Every vertex, by a walk over the lexicographically feasible bases
    from first, each vertex listed once, in the order of its least basis.

    These bases are the vertices of the perturbed, simple polytope (see
    enumerate_vertices), and its edges are their pivots: edge k of a basis
    leads to the one facet _ratio_test picks, by one pivot (_pivot); a
    zero step is a degenerate pivot to another basis of the same vertex.
    The perturbed polytope relaxes the input by an infinitesimal, so it
    has the same recession cone, and each vertex of the input has a basis
    among its vertices; its edge graph is connected, so the walk meets
    every vertex, unless it meets an unbounded edge first.  A tableau is
    built only when its edge is crossed, and each edge is ratio-tested
    once: on a simple polytope, when edge k of t leads to basis b, edge
    b.index(entering) of b leads back to t, so b skips that slot.  A
    skipped test would meet a basis already seen and push nothing, and a
    skipped edge is bounded, so the first unbounded edge is the same.

    The walk keeps the first tableau it meets at each vertex.  A simple
    vertex has one basis, its active set, and keeps its cone and det A_v.
    A non-simple one is listed without either; every independent n-subset
    of its active set is a feasible basis of it, so its least basis, at
    which a scan of all subsets first meets it, is the greedy least
    independent subset in index order (_least_independent).
    """
    n = len(first.basis)
    tested, found = {first.basis: set()}, {}  # per basis seen, its slots tested from the far end
    pending = [(first, None)]  # a tableau and the edge to cross from it
    while pending:
        t, edge = pending.pop()
        if edge:
            t = _pivot(t, *edge)
        found.setdefault(tuple([j for j, s in enumerate(t.values[:d]) if not any(s.num)]), t)
        skip = tested[t.basis]
        for k in range(n):
            if k not in skip:
                entering = _ratio_test(t, d, k)
                basis = _swapped(t.basis, k, entering)
                slots = tested.get(basis)
                if slots is None:
                    tested[basis] = {basis.index(entering)}
                    pending.append((t, (k, entering, basis)))
                else:
                    slots.add(basis.index(entering))
    listed = []
    for active, t in found.items():
        if len(active) == n:
            listed.append((active, Vertex(t.values[d:], active, t.values[:d],
                                          t.rows[d:], t.rows[:d], t.det)))
        else:
            listed.append((_least_independent(t.rows, active, n),
                           Vertex(t.values[d:], active, t.values[:d])))
    return [v for _, v in sorted(listed, key=itemgetter(0))]


def _least_independent(rows: tuple[Vector, ...], active: tuple[int, ...],
                        n: int) -> tuple[int, ...]:
    """The first n facets of active, in index order, whose rows are
    independent, each kept when it is independent of those kept before:
    the least basis among active's, as for any matroid."""
    kept, echelon = [], []  # echelon: (column, row with 1 there) per kept facet
    for j in active:
        row = rows[j]
        for c, unit in echelon:
            if any((f := row[c]).num):
                row = [sub_product(x, f, u) for x, u in zip(row, unit)]
        c = next((c for c, x in enumerate(row) if any(x.num)), None)
        if c is not None:
            inv = row[c].inverse()
            echelon.append((c, [x * inv for x in row]))
            kept.append(j)
            if len(kept) == n:
                break
    return tuple(kept)


def _ratio_test(t: _Tableau, d: int, k: int, violated: list[int] | None = None) -> int:
    """The facet that edge k of the basis t runs into first on the
    perturbed polytope; UnboundedPolytope, with direction w_k, when no
    facet bounds the edge.

    Along the edge the slack of facet j is s_j + step*D[j][k], so only
    facets with D[j][k] < 0 bound the edge, at step s_j / -D[j][k]; that
    step is 0 for a facet active at t outside the basis.  In phase 1,
    violated lists the facets of negative perturbed slack (_violated):
    their first, r, counts at step -s_r / D[r][k], and the others are
    skipped.  The denominators are positive, so ratios compare by
    cross-multiplying: s_j / -a_j < s_b / -a_b exactly when
    s_j*a_b - s_b*a_j > 0, a sign that cross_sign reads without reducing.

    Facets tied at the least step are told apart by their perturbed
    slacks over -D[j][k], compared one power of eps at a time, least
    power first.  At basis index B_m, m != k, facet j's term is
    D[j][m] / D[j][k]; at j itself it is -1 / D[j][k], positive for a
    facet bounding the edge, so it drops out there, and negative for r,
    which then enters.  The terms of distinct facets differ at their own
    index, so one facet enters.  Signs are read off the numerators, with
    no method call per entry.
    """
    field, rows, values = t.det.field, t.rows, t.values
    column = [row[k].num for row in rows[:d]]
    if field.degree == 1:
        bounding = [j for j, a in enumerate(column) if a[0] < 0]
    else:
        bounding = [j for j, a in enumerate(column) if any(a) and _sign(field, a) < 0]
    tied, least = [], None
    if violated:
        tied, least = [violated[0]], (-values[violated[0]], -rows[violated[0]][k])
        bounding = [j for j in bounding if j not in violated]
    for j in bounding:
        s, a = values[j], rows[j][k]
        if not tied:
            tied, least = [j], (s, a)
            continue
        order = cross_sign(s, least[1], least[0], a)
        if order > 0:
            tied, least = [j], (s, a)
        elif order == 0:
            tied.append(j)
    if not tied:
        direction = tuple(row[k] for row in rows[d:])
        rendered = ", ".join(s.to_expr() for s in direction)
        raise UnboundedPolytope(f"recession direction ({rendered})", direction=direction)
    if len(tied) == 1:
        return tied[0]
    r = violated[0] if violated else None
    for i in sorted({*t.basis, *tied}):
        if len(tied) == 1:
            break
        if i in tied:
            if i == r:
                return r
            tied.remove(i)
        elif i in t.basis and (m := t.basis.index(i)) != k:
            kept, low = [], None
            for j in tied:
                x, a = rows[j][m], rows[j][k]
                if j == r:  # a > 0: compare -x / -a
                    x, a = -x, -a
                # x_j / a_j < x_l / a_l, both a < 0, when x_j*a_l - x_l*a_j < 0
                order = cross_sign(x, low[1], low[0], a) if kept else -1
                if order < 0:
                    kept, low = [j], (x, a)
                elif order == 0:
                    kept.append(j)
            tied = kept
    return tied[0]


def _pivot(t: _Tableau, k: int, entering: int, basis: tuple[int, ...]) -> _Tableau:
    """The tableau of basis, where row ``entering`` replaces entry k of t's.

    With alpha = D[entering][k] != 0, the new edge directions are
    w_k / alpha in the slot of the entering row and
    w_i - (D[entering][i] / alpha) * w_k for the others; every row takes
    this column operation, and zero multipliers are skipped.  Value j
    moves by step * D[j][k], where step = -s_entering / alpha is >= 0 on
    the walk.  Each updated entry is one fused x -+ f*a, reduced once; a
    row with D[j][k] = 0 only moves its entry k to the slot, by one
    precomputed permutation, and keeps its value.  The two rows the pivot
    fixes are written without arithmetic: the entering row becomes the
    unit row at the slot, with slack 0, and the leaving row, e_k before,
    becomes -D[entering][i] / alpha with 1 / alpha at the slot, with
    slack step.

    Replacing row k of A_B by X_entering = sum_i D[entering][i] A_B[i]
    multiplies det A_B by alpha, and moving that row from place k to the
    slot multiplies it by (-1)^(k - slot): one product per pivot.
    """
    pivot_row = t.rows[entering]
    alpha = pivot_row[k]
    zero, one = alpha.field.zero, alpha.field.one
    inv = alpha.inverse()
    n, slot, leaving = len(basis), basis.index(entering), t.basis[k]
    order = [i for i in range(n) if i != k]
    order.insert(slot, k)  # place p of a new row holds entry order[p] of the old
    move = itemgetter(*order) if k != slot else tuple  # tuple(row) is row; n = 1 has k == slot
    factors = [(p, pivot_row[i] * inv) for p, i in enumerate(order)
               if i != k and any(pivot_row[i].num)]
    step = -(t.values[entering] * inv)
    moved = any(step.num)

    rows = list(t.rows)
    values = list(t.values)
    for j, row in enumerate(rows):
        a = row[k]
        if not any(a.num):
            rows[j] = move(row)
        elif j != entering and j != leaving:
            out = list(move(row))
            for p, factor in factors:
                out[p] = sub_product(out[p], factor, a)
            out[slot] = a * inv
            rows[j] = tuple(out)
            if moved:
                values[j] = add_product(values[j], step, a)
    rows[entering] = (zero,) * slot + (one,) + (zero,) * (n - 1 - slot)
    fixed = [zero] * n
    for p, factor in factors:
        fixed[p] = -factor
    fixed[slot] = inv
    rows[leaving] = tuple(fixed)
    values[entering], values[leaving] = zero, step
    det = t.det * alpha
    return _Tableau(basis, tuple(rows), tuple(values), -det if (k - slot) % 2 else det)


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
    They give X = C L for the lattice basis L, so det C_v = det A_v / det L
    at every simple vertex v, and the walk carries det A_v (Vertex.det).
    One integer_det, at the first simple vertex v0, fixes the ratio
    r = det C_v0 / det A_v0 = 1 / det L in Q(theta); every other vertex's
    determinant is det A_v * r, which must be an integer, else
    InternalInconsistency.
    """
    if not certificate.rational:
        raise NotRationalInput("no lattice certificate: the normals are not rational")
    d = p.facet_count
    coords = certificate.coords[:d]
    gcds = tuple(math.gcd(*(abs(c) for c in row)) for row in coords)
    nonprimitive = tuple(j for j, g in enumerate(gcds) if g != 1)

    dets: list[int | None] = []
    nonunimodular: list[int] = []
    ratio = None
    for i, v in enumerate(p.vertices):
        if v.det is None:
            dets.append(None)
            nonunimodular.append(i)
            continue
        if ratio is None:
            det = integer_det([coords[j] for j in v.active])
            ratio = p.field.scalar(det) / v.det
        else:
            scaled = v.det * ratio
            if not scaled.is_integer():
                raise InternalInconsistency(
                    f"vertex {i}: det A_v / det L = {scaled.to_expr()} is not an integer")
            det = scaled.num[0]
        dets.append(det)
        if abs(det) != 1:
            nonunimodular.append(i)

    integral = not nonprimitive and not nonunimodular
    return DelzantReport(integral=integral, facet_gcds=gcds,
                         vertex_determinants=tuple(dets),
                         nonprimitive_facets=nonprimitive,
                         nonunimodular_vertices=tuple(nonunimodular))
