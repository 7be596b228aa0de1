"""Symplectic reduction data attached to a simple polytope.

From facet normals X_j the projection pi: R^d -> R^n sends the j-th
standard basis vector to X_j.  Its kernel is the Lie algebra of the
subgroup N by which C^d is reduced; the moment maps of the ambient torus
(J), of N (the level map Psi = B J), and of the quotient torus (Phi,
whose image is the polytope) are the computational surface of that
reduction.  Exact data stays exact; float renderings are certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    IllConditioned,
    InternalInconsistency,
    NotAVertex,
    NotSimple,
    OffLevelSet,
)
from .lattices import LatticeCertificate, quotient_order, span_certificate
from .linalg import Vector, dot
from .polytope import (
    DelzantReport,
    HPolytope,
    Vertex,
    check_delzant,
    check_simple,
    kernel_basis,
)
from .scalars import Field, Scalar

MANIFOLD = "manifold"
ORBIFOLD = "orbifold"
QUASIFOLD = "quasifold"


@dataclass(frozen=True)
class Quasilattice:
    """Subgroup of R^n generated by the facet normals and any extras."""

    generators: tuple[Vector, ...]
    certificate: LatticeCertificate

    @property
    def is_lattice(self) -> bool:
        return self.certificate.rational


@dataclass(frozen=True)
class Classification:
    kind: str
    delzant: DelzantReport | None
    charts: tuple[VertexChart, ...]

    @property
    def vertex_orders(self) -> tuple[int | None, ...]:
        return tuple(chart.order for chart in self.charts)


@dataclass(frozen=True)
class VertexChart:
    """Chart data at a fixed point: squared moduli of the fiber over the
    vertex, plus quasilattice generator coordinates in the active-normal
    basis (each coordinate vector acts on the chart modulo Z^n)."""

    vertex: Vertex
    generator_coords: tuple[Vector, ...]
    order: int | None

    @property
    def squared_moduli(self) -> tuple[Scalar, ...]:
        """|z_j|^2 = <v, X_j> - lambda_j on the fiber over the vertex."""
        return self.vertex.slacks

    @property
    def finite(self) -> bool:
        return self.order is not None


@dataclass(eq=False)
class DelzantData:
    """Everything the reduction M = Psi^{-1}(0)/N is determined by.

    ``projection`` is pi by rows, row i the normals' i-th coordinates;
    ``kernel_basis`` is the echelon basis of its kernel Lie(N), read off
    the parse's least-basis tableau (polytope.kernel_basis)."""

    polytope: HPolytope
    projection: tuple[Vector, ...]
    kernel_basis: tuple[Vector, ...]
    quasilattice: Quasilattice
    n_rational_dim: int
    classification: Classification

    @property
    def ambient_dim(self) -> int:
        return self.polytope.facet_count

    @property
    def dim(self) -> int:
        return self.polytope.dim

    @property
    def reduced_dim(self) -> int:
        """Real dimension of M: 2d - 2*dim(N) = 2n."""
        return 2 * (self.ambient_dim - len(self.kernel_basis))

    @property
    def n_compact(self) -> bool:
        return self.n_rational_dim == self.ambient_dim - self.dim

    @cached_property
    def floats(self) -> "_FloatData":
        return _FloatData.build(self)


@dataclass(eq=False)
class _FloatData:
    """Float mirror of the exact construction data (Scalar.to_float of
    each entry, converted once per distinct value)."""

    stack: np.ndarray           # (d, n), row j is X_j
    lam: np.ndarray             # (d,)
    kernel: np.ndarray          # (d-n, d), rows span Lie(N)
    pinv_stack: np.ndarray      # (n, d), least-squares inverse of stack
    vertices: np.ndarray        # (V, n), in vertex order
    vertex_moduli: np.ndarray   # (V, d), |z|^2 over each vertex: the slacks, clipped at 0

    @classmethod
    def build(cls, data: "DelzantData") -> "_FloatData":
        p = data.polytope
        floats: dict = {}
        stack = _float_rows(p.normals, floats)
        lam = _float_rows([p.offsets], floats)[0]
        kernel = _float_rows(data.kernel_basis, floats).reshape(
            len(data.kernel_basis), p.facet_count)
        u, svals, vt = np.linalg.svd(stack, full_matrices=False)
        if svals[-1] <= svals[0] * 1e-13:
            raise IllConditioned("facet normal matrix is numerically rank-deficient")
        # np.linalg.pinv(stack) from the same factors, in its operations:
        # every singular value is past pinv's 1e-15 relative cutoff here.
        pinv_stack = vt.T @ ((1.0 / svals)[:, None] * u.T)
        vertices = _float_rows([v.point for v in p.vertices], floats)
        moduli = np.maximum(_float_rows([v.slacks for v in p.vertices], floats), 0.0)
        return cls(stack, lam, kernel, pinv_stack, vertices, moduli)


def _float_rows(rows: Sequence[Sequence[Scalar]], floats: dict) -> np.ndarray:
    """The float array of rows, each distinct value converted once."""
    return np.array(
        [[_once(floats, s, Scalar.to_float) for s in row] for row in rows],
        dtype=float,
    )


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def build_construction(p: HPolytope) -> DelzantData:
    """Assemble the reduction data for a simple polytope.

    Raises NotSimple when some vertex has more than n active facets, and
    InternalInconsistency when a kernel vector fails its exact check or
    the two independent classification routes (global certificates vs
    per-vertex structure groups) disagree.
    """
    simplicity = check_simple(p)
    if not simplicity.simple:
        witness = simplicity.witness_index
        active = p.vertices[witness].active
        raise NotSimple(
            f"vertex {witness} lies on {len(active)} facets, expected {p.dim}",
            vertex=witness, active=active,
        )
    n, d = p.dim, p.facet_count
    generators = p.normals + p.extra_generators
    cert = span_certificate(p.field, generators, n)
    quasilattice = Quasilattice(generators=generators, certificate=cert)

    # Rational points of Lie(N): common rational kernel of every power-basis
    # coefficient layer of pi, of dimension d minus the Q-rank of the
    # normals.  In a lattice of rank n, normals spanning R^n have Q-rank n;
    # otherwise the normals come first among the generators, so that rank
    # counts the certificate's independent witnesses below d.
    normals_rank = n if cert.rational else sum(i < d for i in cert.independent)

    data = DelzantData(
        polytope=p,
        projection=tuple(zip(*p.normals)),
        kernel_basis=kernel_basis(p),
        quasilattice=quasilattice,
        n_rational_dim=d - normals_rank,
        classification=None,  # filled below; classify needs the data object
    )
    data.classification = classify(data)
    return data


# --------------------------------------------------------------------------
# Moment maps (float side)
# --------------------------------------------------------------------------

def torus_moment(z, data: DelzantData):
    """Ambient-torus moment map J(z)_j = |z_j|^2 + lambda_j."""
    z = np.asarray(z, dtype=complex)
    return np.abs(z) ** 2 + data.floats.lam


def kernel_moment(z, data: DelzantData):
    """Moment map of the reduced subgroup N; zero on the level set."""
    return torus_moment(z, data) @ data.floats.kernel.T


def induced_moment(z, data: DelzantData, tol: float | None = 1e-8):
    """Moment map of the quotient torus: least-squares solution mu of
    <mu, X_j> = J(z)_j.  On the level set the system is consistent and
    the image point lies in the polytope.

    tol bounds |Psi(z)| before solving; pass None to evaluate the smooth
    extension off the level set (used by derivative checks).
    """
    f = data.floats
    j = torus_moment(z, data)
    if tol is not None:
        level = j @ f.kernel.T
        worst = float(np.max(np.abs(level))) if level.size else 0.0
        if worst > tol:
            raise OffLevelSet(f"|Psi(z)| = {worst:.3e} exceeds tolerance {tol:.3e}")
    return j @ f.pinv_stack.T


# --------------------------------------------------------------------------
# Structure groups
# --------------------------------------------------------------------------


def vertex_structure_group(data: DelzantData, v: int) -> VertexChart:
    """Chart group at the vertex of index v: each quasilattice generator
    is written in the basis of the n active normals.  Those coordinates
    are read off the vertex's cone, without an elimination: row j of D_v
    for the normal X_j, and <w_k, g> for an extra generator g, where w_k
    are the columns of W_v.  The group is finite exactly when all
    coordinates are rational, as they always are over Q, with order
    computed by a Hermite form modulo their common denominator."""
    p = data.polytope
    if not 0 <= v < len(p.vertices):
        raise NotAVertex(f"vertex index {v} out of range")
    vertex = p.vertices[v]
    if vertex.normal_coords is None:
        raise InternalInconsistency(f"vertex {v} carries no cone")
    edges = tuple(zip(*vertex.inverse))
    coords = list(vertex.normal_coords) + [
        tuple(dot(w, g) for w in edges) for g in p.extra_generators
    ]
    order = None
    if p.field.degree == 1 or all(entry.is_rational() for c in coords for entry in c):
        order = quotient_order(coords, data.dim)
    return VertexChart(vertex=vertex, generator_coords=tuple(coords), order=order)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def classify(data: DelzantData) -> Classification:
    """Manifold / orbifold / quasifold trichotomy, cross-checked.

    Route one is global: quasilattice discreteness plus the integrality
    test in the certified lattice.  Route two is local: triviality or
    finiteness of every vertex structure group.  With a lattice Q, each
    group Gamma_v = Q / Lambda_v must also have order |det| of the active
    normals in a basis of Q.  Disagreement raises InternalInconsistency
    rather than picking a side.
    """
    cert = data.quasilattice.certificate
    delzant = check_delzant(data.polytope, cert) if cert.rational else None
    if cert.rational:
        global_kind = MANIFOLD if delzant.integral else ORBIFOLD
    else:
        global_kind = QUASIFOLD

    charts = tuple(
        vertex_structure_group(data, i) for i in range(len(data.polytope.vertices))
    )
    orders = tuple(chart.order for chart in charts)
    if any(order is None for order in orders):
        local_kind = QUASIFOLD
    elif all(order == 1 for order in orders):
        local_kind = MANIFOLD
    else:
        local_kind = ORBIFOLD

    if global_kind != local_kind:
        raise InternalInconsistency(
            f"certificate route says {global_kind}, "
            f"vertex structure groups say {local_kind} (orders {orders})"
        )
    if delzant is not None:
        for i, (order, det) in enumerate(zip(orders, delzant.vertex_determinants)):
            if order != abs(det):
                raise InternalInconsistency(
                    f"vertex {i}: structure group order {order}, "
                    f"certificate determinant {det}"
                )
    return Classification(kind=global_kind, delzant=delzant, charts=charts)


# --------------------------------------------------------------------------
# Report rendering
# --------------------------------------------------------------------------

def _once(memo: dict, s: Scalar, convert):
    """convert(s), computed once per distinct value in memo.  The key is
    the tuple (num, den), not s: Scalar.__hash__ is a Python method and
    costs more than a rendering.  One memo serves values of one field,
    where (num, den) identifies the value."""
    key = (s.num, s.den)
    value = memo.get(key)
    if value is None:
        value = memo[key] = convert(s)
    return value


def _expr_and_float(s: Scalar) -> tuple[str, float]:
    return s.to_expr(), s.to_float()


def _render_vector(vec: Sequence[Scalar], memo: dict) -> dict:
    """{"exact", "float"} of vec.  memo holds, per report, each value's
    (expression, float) under its (num, den) and each vector's dict under
    the tuple of its expressions, so equal vectors share one dict."""
    # The hit is looked up inline, where a call would cost more than it;
    # a pair is a nonempty tuple, so only a miss reaches _once.
    pairs = [memo.get((s.num, s.den)) or _once(memo, s, _expr_and_float) for s in vec]
    exact = tuple([expr for expr, _ in pairs])
    rendered = memo.get(exact)
    if rendered is None:
        rendered = memo[exact] = {
            "exact": list(exact),
            "float": [value for _, value in pairs],
        }
    return rendered


def _render_field(fld: Field) -> dict:
    return {
        "degree": fld.degree,
        "minpoly": [str(c) for c in fld.minpoly],
        "root_interval": [str(b) for b in fld.root_interval],
    }


def construction_report(data: DelzantData) -> dict:
    """JSON-ready summary; exact expressions alongside certified floats.

    Each distinct value is rendered once, and equal vectors share one
    {"exact", "float"} dict, so the payload is read-only: changing one
    vector in place would change every equal vector with it."""
    p = data.polytope
    memo: dict = {}
    cls = data.classification
    cert = data.quasilattice.certificate
    report = {
        "dimension": data.dim,
        "facets": data.ambient_dim,
        "reduced_space_dim": data.reduced_dim,
        "kernel_dim": len(data.kernel_basis),
        "n_rational_dim": data.n_rational_dim,
        "n_compact": data.n_compact,
        "field": _render_field(p.field),
        "projection": [_render_vector(row, memo) for row in data.projection],
        "offsets": _render_vector(p.offsets, memo),
        "kernel_basis": [_render_vector(v, memo) for v in data.kernel_basis],
        "quasilattice": {
            "generators": [_render_vector(g, memo) for g in data.quasilattice.generators],
            "is_lattice": data.quasilattice.is_lattice,
            "rational_rank": cert.rank,
            "lattice_basis": (
                [_render_vector(b, memo) for b in cert.basis]
                if cert.rational else None
            ),
            "generator_coordinates": (
                [list(row) for row in cert.coords] if cert.rational else None
            ),
            "independent_witness": (
                list(cert.independent) if cert.independent is not None else None
            ),
        },
        "classification": {
            "kind": cls.kind,
            "is_lattice": data.quasilattice.is_lattice,
            "vertex_orders": list(cls.vertex_orders),
            "delzant": cls.delzant.as_dict() if cls.delzant is not None else None,
        },
        "charts": [
            {
                "vertex": _render_vector(chart.vertex.point, memo),
                "active_facets": list(chart.vertex.active),
                "squared_moduli": _render_vector(chart.squared_moduli, memo),
                "generator_coords": [
                    _render_vector(c, memo) for c in chart.generator_coords
                ],
                "finite": chart.finite,
                "order": chart.order,
            }
            for chart in cls.charts
        ],
    }
    return report
