"""Metamorphic relations, end to end.

The quasifold depends only on the polytope and its quasilattice up to
isomorphism, so some transformations of a document have answers known in
advance: reordering the facets, a change of lattice basis, and products.
Each case runs ``build_construction`` and ``run_verification`` (2,000
samples, seed 0) on the original and on the transformed documents.  Bytes
may differ, because the echelon kernel and the sample stream follow the
facet order, so the cases compare the invariant parts: kind, vertex count,
certificate rank, ``n_rational_dim``, the orders vertex by vertex and the
verifier's failures.
"""

import random
from functools import lru_cache

import pytest

from quasifold import (
    MANIFOLD,
    ORBIFOLD,
    QUASIFOLD,
    build_construction,
    builtin_document,
    builtin_names,
    parse_polytope,
    run_verification,
)

CONSTRUCTIBLE = [name for name in builtin_names() if name != "octahedron"]
KINDS = (MANIFOLD, ORBIFOLD, QUASIFOLD)


def vertex_key(vertex):
    return tuple(s.to_expr() for s in vertex.point)


def summary(document):
    """The invariant parts of one document's construction and verify run."""
    data = build_construction(parse_polytope(document))
    report = run_verification(data, samples=2000, seed=0)
    return {
        "kind": data.classification.kind,
        "vertices": len(data.polytope.vertices),
        "rank": data.quasilattice.certificate.rank,
        "n_rational_dim": data.n_rational_dim,
        "orders": {vertex_key(chart.vertex): chart.order
                   for chart in data.classification.charts},
        "failures": report.failures,
    }


@lru_cache(maxsize=None)
def builtin_summary(name):
    return summary(builtin_document(name))


def sorted_orders(orders):
    return sorted(orders.values(), key=lambda order: -1 if order is None else order)


# --------------------------------------------------------------------------
# Facet order
# --------------------------------------------------------------------------

def reversed_facets(document):
    document["facets"].reverse()
    return document


def shuffled_facets(document):
    random.Random(15).shuffle(document["facets"])
    return document


@pytest.mark.parametrize("reorder", [reversed_facets, shuffled_facets])
@pytest.mark.parametrize("name", CONSTRUCTIBLE)
def test_facet_order_changes_nothing(name, reorder):
    assert summary(reorder(builtin_document(name))) == builtin_summary(name)


# --------------------------------------------------------------------------
# Lattice change
# --------------------------------------------------------------------------

def sheared(document):
    """mu -> U mu with U = [[1, 1], [0, 1]]: each normal X maps to
    U^-T X, that is (x1, x2) -> (x1, x2 - x1); the offsets stay."""
    for facet in document["facets"]:
        x1, x2 = facet["normal"]
        facet["normal"] = [x1, f"({x2}) - ({x1})"]
    return document


@pytest.mark.parametrize("name", ["cp2", "square", "triangle-sqrt2", "pentagon"])
def test_lattice_change_keeps_kind_and_orders(name):
    before, after = builtin_summary(name), summary(sheared(builtin_document(name)))
    for key in ("kind", "rank", "failures"):
        assert after[key] == before[key]
    assert sorted_orders(after["orders"]) == sorted_orders(before["orders"])


# --------------------------------------------------------------------------
# Products
# --------------------------------------------------------------------------

def product_document(first, second):
    """Delta_1 x Delta_2 with Q_1 + Q_2: each factor's normals and extra
    generators padded with zeros, the offsets kept, and the field section
    of whichever factor has one."""
    n1, n2 = first["dimension"], second["dimension"]

    def pad(vector, before, after):
        return ["0"] * before + list(vector) + ["0"] * after

    document = {
        "dimension": n1 + n2,
        "facets": [{"normal": pad(f["normal"], 0, n2), "offset": f["offset"]}
                   for f in first["facets"]]
        + [{"normal": pad(f["normal"], n1, 0), "offset": f["offset"]}
           for f in second["facets"]],
    }
    extras = ([pad(g, 0, n2) for g in first.get("quasilattice_extra_generators", [])]
              + [pad(g, n1, 0) for g in second.get("quasilattice_extra_generators", [])])
    if extras:
        document["quasilattice_extra_generators"] = extras
    fields = [doc["field"] for doc in (first, second) if "field" in doc]
    assert len(fields) <= 1, "at most one factor may carry a field section"
    if fields:
        document["field"] = fields[0]
    return document


@pytest.mark.parametrize("first, second", [
    ("teardrop-3", "teardrop-5"),
    ("teardrop-2", "cp2"),
    ("rugby-3", "teardrop-2"),
    ("pentagon", "sphere"),
    ("interval-sqrt2", "teardrop-3"),
])
def test_product_combines_the_factors(first, second):
    one, two = builtin_summary(first), builtin_summary(second)
    product = summary(product_document(builtin_document(first), builtin_document(second)))
    assert product["kind"] == max(one["kind"], two["kind"], key=KINDS.index)
    assert product["vertices"] == one["vertices"] * two["vertices"]
    assert product["rank"] == one["rank"] + two["rank"]
    assert product["n_rational_dim"] == one["n_rational_dim"] + two["n_rational_dim"]
    # Scalars of two fields never compare equal, so vertices are matched
    # by their coordinates' expressions.
    expected = {
        key1 + key2: None if order1 is None or order2 is None else order1 * order2
        for key1, order1 in one["orders"].items()
        for key2, order2 in two["orders"].items()
    }
    assert product["orders"] == expected
    assert product["failures"] == []
