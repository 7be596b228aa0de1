"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` for the scorecard; every test
prints a single `criterion NN PASS/FAIL` line with its runtime.  The
tolerances and time budgets below are contractual: do not loosen them to
turn a red build green.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from quasifold import (
    MANIFOLD,
    ORBIFOLD,
    QUASIFOLD,
    NotSimple,
    build_construction,
    check_hamiltonian_identity,
    check_rational,
    check_regular_value,
    classify,
    sample_level_set,
    verify_moment_image,
    vertex_structure_group,
)
from quasifold.linalg import Matrix
from conftest import as_fraction, construct_builtin, load_builtin

CONSTRUCTIBLE = [
    "sphere", "teardrop-2", "teardrop-3", "teardrop-5",
    "rugby-2", "rugby-3", "rugby-5",
    "interval-sqrt2", "cp2", "triangle-sqrt2",
    "square", "pentagon", "cube",
]

SAMPLE_COUNT = 10_000


@lru_cache(maxsize=None)
def built(name):
    return construct_builtin(name)


@lru_cache(maxsize=None)
def sampled(name):
    data = built(name)
    return data, sample_level_set(data, SAMPLE_COUNT, seed=0)


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    verdict = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, budget {budget}s")
        verdict = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} {verdict} {elapsed:8.3f}s  {label}")


def exact_ratio(vec, target, fld):
    """Assert vec == ratio * target entrywise in exact arithmetic and
    return the (nonzero) ratio."""
    pivot = next(i for i, e in enumerate(target) if e != fld.zero)
    ratio = vec[pivot] / target[pivot]
    assert ratio != fld.zero
    for v, t in zip(vec, target):
        assert v == ratio * t
    return ratio


def brute_force_order(generators):
    """Order of the subgroup of (R/Z)^n generated by rational vectors,
    by breadth-first closure.  Independent of the Smith-form route."""
    gens = [tuple(x % 1 for x in g) for g in generators]
    identity = tuple(Fraction(0) for _ in gens[0])
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for element in frontier:
            for g in gens:
                candidate = tuple((a + b) % 1 for a, b in zip(element, g))
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return len(seen)


def row_space_projector(rows, expected_rank):
    m = np.asarray(rows, dtype=float)
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    assert rank == expected_rank
    basis = vt[:rank]
    return basis.T @ basis


# --------------------------------------------------------------------------
# 1. Kernel of the right triangle with legs (s, t) = (1, sqrt(2))
# --------------------------------------------------------------------------

def test_criterion_01_triangle_kernel():
    with criterion(1, "triangle kernel exactly proportional to (t, s, 1)", budget=1.0):
        data = built("triangle-sqrt2")
        fld = data.polytope.field
        t, s = fld.theta, fld.one
        assert len(data.kernel_basis) == 1
        exact_ratio(data.kernel_basis[0], (t, s, fld.one), fld)


# --------------------------------------------------------------------------
# 2. Level map of the interval: the quasisphere equation
# --------------------------------------------------------------------------

def test_criterion_02_quasisphere_level_coefficients():
    with criterion(2, "interval level coefficients proportional to (1, s/t, -s)",
                   budget=1.0):
        data = built("interval-sqrt2")
        fld = data.polytope.field
        s, t = fld.one, fld.theta
        assert len(data.kernel_basis) == 1
        row = data.kernel_basis[0]
        constant = row[0] * data.polytope.offsets[0] + row[1] * data.polytope.offsets[1]
        triple = (row[0], row[1], constant)
        ratio = exact_ratio(triple, (fld.one, s / t, -s), fld)
        assert ratio == t


# --------------------------------------------------------------------------
# 3. Pentagon level set: row space of the reference equations
# --------------------------------------------------------------------------

def test_criterion_03_pentagon_level_rows():
    with criterion(3, "pentagon level-set row space matches reference within 1e-9",
                   budget=1.0):
        data = built("pentagon")
        fld = data.polytope.field
        a = fld.parse("2*theta^2 - 3/2")
        c = fld.parse("1 - 2*theta^2")
        sqrt5 = fld.parse("8*theta^2 - 5")
        assert abs(a.to_float() - math.cos(2 * math.pi / 5)) < 1e-9
        assert abs(c.to_float() - math.cos(4 * math.pi / 5)) < 1e-9
        assert abs(sqrt5.to_float() - math.sqrt(5)) < 1e-9
        two_a = a + a
        half = fld.parse("1/2")
        # Reference system for Psi^{-1}(0), written as [coefficients | constant]
        # with row . |z|^2 + constant = 0.  The middle constant is sqrt(5)*c
        # (a negative number): the middle left-hand side is a nonnegative
        # combination, so the opposite sign would make the level set empty.
        reference = [
            (fld.one, fld.zero, fld.zero, fld.one, -two_a, -(sqrt5 * half)),
            (fld.zero, fld.one, fld.zero, two_a, two_a, sqrt5 * c),
            (fld.zero, fld.zero, fld.one, -two_a, fld.one, -(sqrt5 * half)),
        ]
        computed = [
            tuple(row) + (sum((rj * lj for rj, lj in zip(row, data.polytope.offsets)),
                              fld.zero),)
            for row in data.kernel_basis
        ]
        assert len(computed) == 3
        ref_rows = [[e.to_float() for e in r] for r in reference]
        got_rows = [[e.to_float() for e in r] for r in computed]
        p_ref = row_space_projector(ref_rows, 3)
        p_got = row_space_projector(got_rows, 3)
        assert float(np.max(np.abs(p_ref - p_got))) <= 1e-9


# --------------------------------------------------------------------------
# 4. Moment image equals the polytope
# --------------------------------------------------------------------------

def test_criterion_04_moment_image():
    with criterion(4, "image containment, round-trip, exact vertex attainment",
                   budget=30.0):
        for name in CONSTRUCTIBLE:
            data, samples = sampled(name)
            assert len(samples) == SAMPLE_COUNT
            check = verify_moment_image(data, samples)
            assert check.max_roundtrip_error <= 1e-8, name
            assert check.min_containment_slack >= -1e-8, name
            assert max(check.vertex_gaps) <= 1e-8, name
            # Exact attainment: over each vertex the fixed point has the
            # active moduli at zero, and the n active facet equations
            # solved exactly return the vertex itself.
            p = data.polytope
            fld = p.field
            n = p.dim
            for chart in data.classification.charts:
                v = chart.vertex
                for j in v.active:
                    assert chart.squared_moduli[j] == fld.zero, name
                for m in chart.squared_moduli:
                    assert not (m < fld.zero), name
                system = Matrix(fld, [[p.normals[j][i] for i in range(n)]
                                      for j in v.active])
                mu = system.solve(tuple(p.offsets[j] for j in v.active))
                assert mu is not None, name
                assert tuple(mu) == tuple(v.point), name


# --------------------------------------------------------------------------
# 5. Vertex structure groups
# --------------------------------------------------------------------------

def test_criterion_05_structure_groups():
    with criterion(5, "structure groups: infinite at sqrt(2) interval, Z/k teardrop",
                   budget=1.0):
        data = built("interval-sqrt2")
        fld = data.polytope.field
        t_over_s = fld.theta
        s_over_t = fld.one / fld.theta
        seen_t_over_s = False
        for k in range(len(data.polytope.vertices)):
            chart = vertex_structure_group(data, k)
            assert chart.finite is False and chart.order is None
            irrational = [c[0] for c in chart.generator_coords
                          if not c[0].is_rational()]
            assert irrational
            for e in irrational:
                matches_t = (e - t_over_s).is_integer() or (e + t_over_s).is_integer()
                matches_s = (e - s_over_t).is_integer() or (e + s_over_t).is_integer()
                assert matches_t or matches_s
                seen_t_over_s = seen_t_over_s or matches_t
        assert seen_t_over_s

        def finite_orders(name):
            d = built(name)
            orders = []
            for k in range(len(d.polytope.vertices)):
                chart = vertex_structure_group(d, k)
                assert chart.finite is True
                fractions = [tuple(as_fraction(e) for e in c)
                             for c in chart.generator_coords]
                assert brute_force_order(fractions) == chart.order
                orders.append(chart.order)
            return sorted(orders)

        for k in (2, 3, 5):
            assert finite_orders(f"teardrop-{k}") == [1, k]
            assert finite_orders(f"rugby-{k}") == [k, k]
        assert finite_orders("sphere") == [1, 1]
        assert finite_orders("cp2") == [1, 1, 1]


# --------------------------------------------------------------------------
# 6. Classification trichotomy
# --------------------------------------------------------------------------

EXPECTED_KIND = {
    "sphere": MANIFOLD,
    "cp2": MANIFOLD,
    "square": MANIFOLD,
    "cube": MANIFOLD,
    "teardrop-2": ORBIFOLD,
    "teardrop-3": ORBIFOLD,
    "teardrop-5": ORBIFOLD,
    "rugby-2": ORBIFOLD,
    "rugby-3": ORBIFOLD,
    "rugby-5": ORBIFOLD,
    "interval-sqrt2": QUASIFOLD,
    "triangle-sqrt2": QUASIFOLD,
    "pentagon": QUASIFOLD,
}


def test_criterion_06_classification_trichotomy():
    with criterion(6, "classification table and agreement of both routes"):
        assert sorted(EXPECTED_KIND) == sorted(CONSTRUCTIBLE)
        for name in CONSTRUCTIBLE:
            data = built(name)
            # classify() recomputes through both the global (quasilattice
            # discreteness + integrality) and local (vertex group) routes
            # and raises InternalInconsistency on disagreement.
            cls = classify(data)
            assert cls.kind == EXPECTED_KIND[name], name
            assert cls.kind == data.classification.kind, name
            orders = cls.vertex_orders
            if cls.kind == MANIFOLD:
                assert all(o == 1 for o in orders), name
            elif cls.kind == ORBIFOLD:
                assert all(o is not None for o in orders), name
                assert any(o > 1 for o in orders), name
            else:
                assert any(o is None for o in orders), name
        with pytest.raises(NotSimple):
            build_construction(load_builtin("octahedron"))


# --------------------------------------------------------------------------
# 7. Zero is a regular value
# --------------------------------------------------------------------------

def test_criterion_07_regular_value_margin():
    with criterion(7, "relative singular-value margin of dPsi above 1e-6"):
        for name in CONSTRUCTIBLE:
            data, samples = sampled(name)
            margin = check_regular_value(data, samples)
            assert margin > 1e-6, (name, margin)


# --------------------------------------------------------------------------
# 8. Hamiltonian identity by finite differences
# --------------------------------------------------------------------------

def test_criterion_08_hamiltonian_identity():
    with criterion(8, "pairing residual <= 1e-6 at h=1e-5 with quadratic bound"):
        rng = np.random.default_rng(2026)
        steps = (1e-3, 1e-4, 1e-5)
        for name in CONSTRUCTIBLE:
            data, samples = sampled(name)
            points = samples.z[:100]
            directions = rng.standard_normal((len(points), data.dim))
            worst = {}
            for h in steps:
                worst[h] = max(
                    check_hamiltonian_identity(data, z, x, h=h)
                    for z, x in zip(points, directions)
                )
            assert worst[1e-5] <= 1e-6, (name, worst)
            # The pairing is quadratic in the real coordinates, so the
            # second-order scaling shows up as a bound rather than a
            # ratio: the constant 1e4 reproduces 1e-6 at h = 1e-5.
            for h in steps:
                assert worst[h] <= 1e4 * h * h, (name, h, worst)


# --------------------------------------------------------------------------
# 9. Dimension identity
# --------------------------------------------------------------------------

def test_criterion_09_dimension_identity():
    with criterion(9, "dim M = 2n on every construction"):
        for name in CONSTRUCTIBLE:
            data = built(name)
            d, n = data.ambient_dim, data.dim
            assert len(data.kernel_basis) == d - n, name
            assert data.reduced_dim == 2 * n, name


# --------------------------------------------------------------------------
# 10. Rationality detection
# --------------------------------------------------------------------------

def test_criterion_10_rationality_detection():
    with criterion(10, "exact rationality detection with integer certificates",
                   budget=1.0):
        for name in ("pentagon", "interval-sqrt2"):
            assert check_rational(load_builtin(name)).rational is False, name
        for name in ("square", "cube", "cp2"):
            p = load_builtin(name)
            cert = check_rational(p)
            assert cert.rational is True, name
            assert cert.rank == p.dim, name
            assert len(cert.basis) == p.dim
            for normal, coords in zip(p.normals, cert.coords):
                assert all(isinstance(k, int) for k in coords)
                for i in range(p.dim):
                    rebuilt = sum((k * cert.basis[b][i]
                                   for b, k in enumerate(coords)),
                                  p.field.zero)
                    assert rebuilt == normal[i], name
