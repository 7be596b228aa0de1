"""The reduction pipeline: projection, kernel, moment maps, charts,
classification.  Exact golden values here are either forced by the
deterministic kernel normalization or verified against independent
identities (see the norm and membership checks)."""

import json

import numpy as np
import pytest

from quasifold import (
    MANIFOLD,
    ORBIFOLD,
    QUASIFOLD,
    InternalInconsistency,
    NotAVertex,
    NotSimple,
    OffLevelSet,
    Scalar,
    build_construction,
    builtin_document,
    construction_report,
    induced_moment,
    kernel_moment,
    parse_polytope,
    torus_moment,
    vertex_structure_group,
)
import quasifold.construction
import quasifold.lattices
import quasifold.polytope
from quasifold.cli import main
from quasifold.linalg import Matrix
from conftest import as_fraction, construct_builtin, load_builtin

CONSTRUCTIBLE = [
    "sphere", "teardrop-2", "teardrop-3", "teardrop-5",
    "rugby-2", "rugby-3", "rugby-5", "interval-sqrt2",
    "cp2", "triangle-sqrt2", "square", "pentagon", "cube",
]


SQRT2_FIELD = {"minpoly": ["-2", "0", "1"], "root_interval": ["1", "2"]}


def project(data, v):
    """pi(v) = sum_j v_j X_j, in the field's exact arithmetic."""
    zero = data.polytope.field.zero
    return tuple(sum((a * b for a, b in zip(row, v)), zero) for row in data.projection)


# --------------------------------------------------------------------------
# Kernel and dimensions
# --------------------------------------------------------------------------

class TestKernel:
    def test_sphere_kernel(self):
        data = construct_builtin("sphere")
        f = data.polytope.field
        assert data.kernel_basis == ((f.one, f.one),)

    def test_triangle_kernel_exact(self):
        data = construct_builtin("triangle-sqrt2")
        f = data.polytope.field
        assert data.kernel_basis == ((f.theta, f.one, f.one),)

    def test_pentagon_kernel(self):
        data = construct_builtin("pentagon")
        assert len(data.kernel_basis) == 3
        f = data.polytope.field
        # the all-ones vector lies in the kernel: the five unit normals of a
        # regular pentagon sum to zero exactly
        ones = tuple([f.one] * 5)
        assert all(s.is_zero() for s in project(data, ones))

    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_projection_annihilates_kernel(self, name):
        data = construct_builtin(name)
        zero = data.polytope.field.zero
        assert len(data.kernel_basis) == data.ambient_dim - data.dim
        for v in data.kernel_basis:
            assert project(data, v) == tuple([zero] * data.dim)

    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_reduced_dimension_is_2n(self, name):
        data = construct_builtin(name)
        assert data.reduced_dim == 2 * data.dim

    def test_rational_kernel_dimensions(self):
        assert construct_builtin("triangle-sqrt2").n_rational_dim == 0
        assert construct_builtin("interval-sqrt2").n_rational_dim == 0
        assert construct_builtin("pentagon").n_rational_dim == 1
        assert construct_builtin("sphere").n_rational_dim == 1

    @pytest.mark.parametrize("name", ["cube", "rugby-3", "pentagon"])
    def test_span_certificate_makes_one_hermite_form(self, name, monkeypatch, capsys):
        # One Hermite form gives the rank, the witness and the basis, in a
        # lattice (cube, and rugby-k with its extra generator) or not.
        forms, per_certificate = [], []
        hnf = quasifold.lattices.hermite_normal_form
        certificate = quasifold.construction.span_certificate

        def counting_hnf(rows):
            forms.append(1)
            return hnf(rows)

        def counting_certificate(*args):
            before = len(forms)
            cert = certificate(*args)
            per_certificate.append(len(forms) - before)
            return cert

        monkeypatch.setattr(quasifold.lattices, "hermite_normal_form", counting_hnf)
        monkeypatch.setattr(quasifold.construction, "span_certificate", counting_certificate)
        assert main(["construct", "--builtin", name]) == 0
        capsys.readouterr()
        assert per_certificate == [1]

    @pytest.mark.parametrize("name, extras, field, rank", [
        ("pentagon", [["1", "0"], ["theta", "1"]], None, 1),
        ("interval-sqrt2", [["1"]], None, 0),
        ("square", [["1/2", "theta"]], SQRT2_FIELD, 2),
    ])
    def test_rational_kernel_dimension_with_extra_generators(self, name, extras, field, rank):
        # Extra generators leave the lattice: the normals' Q-rank is read
        # off the certificate's independent witnesses below d.
        document = dict(builtin_document(name), quasilattice_extra_generators=extras)
        if field is not None:
            document["field"] = field
        data = build_construction(parse_polytope(document))
        assert not data.quasilattice.is_lattice
        assert data.n_rational_dim == rank

    def test_corrupted_least_basis_tableau_is_refused(self, monkeypatch):
        # cube's least basis is {0, 1, 2}; row 3 holds X_3 = -X_0 in it.
        p = load_builtin("cube")
        t = p._least
        row = t.rows[3]
        rows = t.rows[:3] + ((row[0] + p.field.one,) + row[1:],) + t.rows[4:]
        monkeypatch.setattr(p, "_least", t._replace(rows=rows))
        with pytest.raises(InternalInconsistency,
                           match="kernel vector of free column 3 misses ker P"):
            build_construction(p)

    def test_construct_pivots_no_further_than_the_parse(self, monkeypatch):
        p = load_builtin("cube")
        pivots = []
        pivot = quasifold.polytope._pivot
        monkeypatch.setattr(quasifold.polytope, "_pivot",
                            lambda *args: pivots.append(1) or pivot(*args))
        build_construction(p)
        assert pivots == []

    def test_construct_runs_no_matrix_elimination(self, monkeypatch, capsys):
        eliminations = []
        reduce = Matrix._reduce
        monkeypatch.setattr(Matrix, "_reduce",
                            lambda self: eliminations.append(1) or reduce(self))
        for name in CONSTRUCTIBLE:
            assert main(["construct", "--builtin", name]) == 0
        capsys.readouterr()
        assert eliminations == []

    def test_n_compactness_flag(self):
        assert construct_builtin("sphere").n_compact
        assert construct_builtin("square").n_compact
        assert not construct_builtin("triangle-sqrt2").n_compact
        assert not construct_builtin("pentagon").n_compact  # dim 1 < 3

    def test_not_simple_rejected(self):
        with pytest.raises(NotSimple) as info:
            build_construction(load_builtin("octahedron"))
        assert info.value.vertex == 0
        assert info.value.active == (0, 1, 2, 3)


# --------------------------------------------------------------------------
# Moment maps
# --------------------------------------------------------------------------

class TestMomentMaps:
    def test_torus_moment_at_zero_is_offsets(self):
        data = construct_builtin("triangle-sqrt2")
        lam = [s.to_float() for s in data.polytope.offsets]
        assert np.allclose(torus_moment(np.zeros(3, complex), data), lam, atol=1e-15)

    def test_torus_moment_triangle_fixed_point(self):
        # fiber over vertex (s, 0) = (1, 0): z = (1, 0, 0)
        data = construct_builtin("triangle-sqrt2")
        j = torus_moment(np.array([1.0, 0.0, 0.0], complex), data)
        t = data.polytope.field.theta.to_float()
        assert np.allclose(j, [1.0, 0.0, -t], atol=1e-15)

    def test_torus_moment_pure(self):
        data = construct_builtin("pentagon")
        rng = np.random.default_rng(5)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.array_equal(torus_moment(z, data), torus_moment(z, data))

    def test_quasisphere_level_coefficients(self):
        # Psi for the interval (s, t) = (1, sqrt2) must be proportional to
        # |z1|^2 + (s/t)|z2|^2 - s with one exact scalar ratio
        data = construct_builtin("interval-sqrt2")
        f = data.polytope.field
        (b,) = data.kernel_basis
        coeffs = list(b) + [
            sum((bi * li for bi, li in zip(b, data.polytope.offsets)), f.zero)
        ]
        s, t = f.one, f.theta
        target = [f.one, s / t, -s]
        ratio = coeffs[0] / target[0]
        assert ratio.sign() > 0
        assert all(c == ratio * want for c, want in zip(coeffs, target))

    def test_triangle_level_equation(self):
        # ellipsoid t|z1|^2 + s|z2|^2 + |z3|^2 = st on the level set
        data = construct_builtin("triangle-sqrt2")
        rng = np.random.default_rng(0)
        t = data.polytope.field.theta.to_float()
        from quasifold import sample_level_set
        for z in sample_level_set(data, 50, seed=3).z:
            lhs = t * abs(z[0]) ** 2 + abs(z[1]) ** 2 + abs(z[2]) ** 2
            assert abs(lhs - t) < 1e-9
        assert np.max(np.abs(kernel_moment(
            sample_level_set(data, 50, seed=3).z, data))) < 1e-9

    def test_induced_moment_interval_parametrization(self):
        data = construct_builtin("interval-sqrt2")
        t = data.polytope.field.theta.to_float()
        for mu in (0.0, 0.3, 1.0):
            z = np.array([
                np.sqrt(mu) * np.exp(2j * np.pi * 0.17),
                np.sqrt(t * (1 - mu)) * np.exp(2j * np.pi * 0.62),
            ])
            assert abs(induced_moment(z, data)[0] - mu) < 1e-12

    def test_induced_moment_fixed_point(self):
        data = construct_builtin("triangle-sqrt2")
        mu = induced_moment(np.array([1.0, 0.0, 0.0], complex), data)
        assert np.allclose(mu, [1.0, 0.0], atol=1e-12)

    def test_square_barycenter_round_trip(self):
        data = construct_builtin("square")
        center = np.array([0.5, 0.5])
        moduli = data.floats.stack @ center - data.floats.lam
        z = np.sqrt(moduli) * np.exp(2j * np.pi * np.array([0.1, 0.9, 0.25, 0.75]))
        assert np.max(np.abs(induced_moment(z, data) - center)) < 1e-9

    def test_off_level_set_raises(self):
        data = construct_builtin("square")
        with pytest.raises(OffLevelSet):
            induced_moment(np.array([10.0, 0, 0, 0], complex), data)
        # smooth extension is available with tol=None
        induced_moment(np.array([10.0, 0, 0, 0], complex), data, tol=None)


    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_float_mirror_takes_one_svd(self, name, monkeypatch):
        # np.linalg.pinv calls svd through numpy's own module, so a second
        # factorization there would be counted too.
        data = construct_builtin(name)
        calls = []
        svd = np.linalg.svd
        counted = lambda *args, **kwargs: calls.append(args[0].shape) or svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        floats = quasifold.construction._FloatData.build(data)
        assert calls == [(data.ambient_dim, data.dim)]
        monkeypatch.undo()
        assert np.array_equal(floats.pinv_stack, np.linalg.pinv(floats.stack))


# --------------------------------------------------------------------------
# Fixed points and structure groups
# --------------------------------------------------------------------------

class TestCharts:
    def test_unit_interval_fixed_points(self):
        data = construct_builtin("sphere")
        moduli = [tuple(as_fraction(s) for s in c.squared_moduli)
                  for c in data.classification.charts]
        assert moduli == [(0, 1), (1, 0)]

    def test_triangle_origin_fiber(self):
        data = construct_builtin("triangle-sqrt2")
        f = data.polytope.field
        charts = {c.vertex.point: c for c in data.classification.charts}
        origin = (f.zero, f.zero)
        assert charts[origin].squared_moduli == (f.zero, f.zero, f.theta)

    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_chart_per_vertex_with_n_zeros(self, name):
        data = construct_builtin(name)
        charts = data.classification.charts
        assert len(charts) == len(data.polytope.vertices)
        for c in charts:
            zeros = [s for s in c.squared_moduli if s.is_zero()]
            assert len(zeros) == data.dim
            assert all(s.sign() >= 0 for s in c.squared_moduli)

    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_squared_moduli_are_the_enumeration_slacks(self, name):
        data = construct_builtin(name)
        p = data.polytope
        for c in data.classification.charts:
            v = c.vertex
            assert c.squared_moduli is v.slacks
            for j, (normal, offset) in enumerate(zip(p.normals, p.offsets)):
                dot = p.field.zero
                for a, b in zip(v.point, normal):
                    dot = dot + a * b
                assert v.slacks[j] == dot - offset
            assert v.active == tuple(j for j, s in enumerate(v.slacks) if s.is_zero())

    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_generator_coords_match_elimination(self, name):
        # Oracle: one elimination per vertex and generator g, solving
        # sum_k c_k X_active[k] = g (the rugby entries add an extra g).
        data = construct_builtin(name)
        p = data.polytope
        for chart in data.classification.charts:
            basis = Matrix(p.field, [[p.normals[j][i] for j in chart.vertex.active]
                                     for i in range(p.dim)])
            expected = tuple(basis.solve(g) for g in data.quasilattice.generators)
            assert chart.generator_coords == expected

    def test_interval_sqrt2_infinite_groups(self):
        data = construct_builtin("interval-sqrt2")
        f = data.polytope.field
        chart = vertex_structure_group(data, 0)
        assert chart.finite is False and chart.order is None
        # at the vertex with active normal s=1 the generators read (1, -t/s)
        flat = [c[0] for c in chart.generator_coords]
        assert flat == [f.one, -f.theta]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_teardrop_orders(self, k):
        data = construct_builtin(f"teardrop-{k}")
        assert data.classification.vertex_orders == (1, k)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rugby_orders(self, k):
        data = construct_builtin(f"rugby-{k}")
        assert data.classification.vertex_orders == (k, k)

    def test_square_trivial_groups(self):
        data = construct_builtin("square")
        for i in range(4):
            chart = vertex_structure_group(data, i)
            assert chart.finite and chart.order == 1

    def test_not_a_vertex(self):
        data = construct_builtin("square")
        with pytest.raises(NotAVertex):
            vertex_structure_group(data, 99)

    def test_rational_field_takes_no_rationality_scan(self, monkeypatch):
        # Over Q every coordinate is rational, so finiteness is decided
        # without one is_rational call; scanning D_v would take
        # 32 vertices x 10 normals x 5 coordinates = 1,600.
        data = build_construction(parse_polytope(_cube(5)))
        calls = []
        original = Scalar.is_rational
        monkeypatch.setattr(Scalar, "is_rational", lambda s: calls.append(1) or original(s))
        orders = tuple(vertex_structure_group(data, v).order
                       for v in range(len(data.polytope.vertices)))
        monkeypatch.undo()
        assert len(orders) == 32
        assert len(calls) == 0
        assert orders == data.classification.vertex_orders


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

EXPECTED_KIND = {
    "sphere": MANIFOLD, "cp2": MANIFOLD, "square": MANIFOLD, "cube": MANIFOLD,
    "teardrop-2": ORBIFOLD, "teardrop-3": ORBIFOLD, "teardrop-5": ORBIFOLD,
    "rugby-2": ORBIFOLD, "rugby-3": ORBIFOLD, "rugby-5": ORBIFOLD,
    "interval-sqrt2": QUASIFOLD, "triangle-sqrt2": QUASIFOLD,
    "pentagon": QUASIFOLD,
}


class TestClassification:
    @pytest.mark.parametrize("name", sorted(EXPECTED_KIND))
    def test_corpus_kind(self, name):
        assert construct_builtin(name).classification.kind == EXPECTED_KIND[name]

    @pytest.mark.parametrize("name", CONSTRUCTIBLE)
    def test_routes_cohere(self, name):
        data = construct_builtin(name)
        cls = data.classification
        orders = cls.vertex_orders
        if cls.kind == MANIFOLD:
            assert all(o == 1 for o in orders)
            assert data.quasilattice.is_lattice and cls.delzant.integral
        elif cls.kind == ORBIFOLD:
            assert all(o is not None for o in orders)
            assert any(o > 1 for o in orders)
            assert data.quasilattice.is_lattice and not cls.delzant.integral
        else:
            assert any(o is None for o in orders) or not data.quasilattice.is_lattice
            assert cls.delzant is None

    def test_vertex_order_must_match_certificate_determinant(self, monkeypatch):
        # Orders (1, 3) become (2, 4): still an orbifold, so only the
        # per-vertex comparison with |det| catches it.
        order = quasifold.construction.quotient_order
        monkeypatch.setattr(quasifold.construction, "quotient_order",
                            lambda *args: order(*args) + 1)
        with pytest.raises(InternalInconsistency, match="vertex 0: structure group order 2"):
            construct_builtin("teardrop-3")

    def test_orders_take_no_smith_form(self, monkeypatch):
        calls = []
        smith = quasifold.lattices.smith_invariant_factors
        monkeypatch.setattr(quasifold.lattices, "smith_invariant_factors",
                            lambda rows: calls.append(rows) or smith(rows))
        for name in ("teardrop-3", "rugby-3", "cube"):
            construct_builtin(name)
        assert calls == []


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

class TestReport:
    def test_report_is_json_and_deterministic(self):
        a = construction_report(construct_builtin("pentagon"))
        b = construction_report(construct_builtin("pentagon"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_shape(self):
        report = construction_report(construct_builtin("teardrop-3"))
        assert report["dimension"] == 1
        assert report["facets"] == 2
        assert report["reduced_space_dim"] == 2
        assert report["kernel_dim"] == 1
        assert report["classification"]["kind"] == ORBIFOLD
        assert report["classification"]["vertex_orders"] == [1, 3]
        assert len(report["charts"]) == 2
        chart = report["charts"][0]
        assert {"vertex", "active_facets", "squared_moduli",
                "generator_coords", "finite", "order"} <= set(chart)
        # every numeric payload carries exact and float renderings
        assert set(report["offsets"]) == {"exact", "float"}

    def test_report_quasilattice_block(self):
        report = construction_report(construct_builtin("rugby-2"))
        q = report["quasilattice"]
        assert q["is_lattice"] is True
        assert len(q["generators"]) == 3  # two normals plus one extra generator
        assert q["lattice_basis"] is not None
        report = construction_report(construct_builtin("pentagon"))
        assert report["quasilattice"]["is_lattice"] is False
        assert report["quasilattice"]["lattice_basis"] is None


def _projective_space(n):
    unit = lambda i: ["1" if k == i else "0" for k in range(n)]
    facets = [(unit(i), "0") for i in range(n)] + [(["-1"] * n, "-1")]
    return {"dimension": n,
            "facets": [{"normal": normal, "offset": offset} for normal, offset in facets]}


def _cube(n):
    unit = lambda i, one: [one if k == i else "0" for k in range(n)]
    facets = [(unit(i, "1"), "0") for i in range(n)] + [(unit(i, "-1"), "-1") for i in range(n)]
    return {"dimension": n,
            "facets": [{"normal": normal, "offset": offset} for normal, offset in facets]}


def _exact_values(payload):
    """How many exact values the payload holds, counted per position."""
    if isinstance(payload, dict):
        if "exact" in payload:
            return len(payload["exact"])
        return sum(_exact_values(value) for value in payload.values())
    if isinstance(payload, list):
        return sum(_exact_values(value) for value in payload)
    return 0


def _count_conversions(monkeypatch, *names):
    """Record the (num, den) of every Scalar that each named method of
    Scalar converts."""
    seen = {name: [] for name in names}
    for name, keys in seen.items():
        original = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda s, _original=original, _keys=keys:
                            _keys.append((s.num, s.den)) or _original(s))
    return seen


@pytest.mark.parametrize("document, rendered, distinct", [
    pytest.param(_projective_space(8), 1027, 3, id="cp8"),
    pytest.param(builtin_document("cube"), 285, 3, id="cube"),
    pytest.param(builtin_document("pentagon"), 125, 13, id="pentagon"),
])
def test_report_renders_each_distinct_value_once(document, rendered, distinct, monkeypatch):
    data = build_construction(parse_polytope(document))
    seen = _count_conversions(monkeypatch, "to_expr", "to_float")
    report = construction_report(data)
    monkeypatch.undo()
    assert _exact_values(report) == rendered
    for keys in seen.values():
        assert len(keys) == len(set(keys)) == distinct


@pytest.mark.parametrize("name", ["cube", "pentagon", "rugby-3"])
def test_float_mirror_converts_each_distinct_value_once(name, monkeypatch):
    data = construct_builtin(name)
    p = data.polytope
    seen = _count_conversions(monkeypatch, "to_float")
    floats = quasifold.construction._FloatData.build(data)
    moduli = floats.vertex_moduli
    monkeypatch.undo()
    keys = seen["to_float"]
    assert len(keys) == len(set(keys))
    # Bit-equal to converting every entry on its own.
    rows = lambda vectors: np.array([[s.to_float() for s in v] for v in vectors], dtype=float)
    assert np.array_equal(floats.stack, rows(p.normals))
    assert np.array_equal(floats.lam, rows([p.offsets])[0])
    assert np.array_equal(floats.kernel, rows(data.kernel_basis))
    assert np.array_equal(floats.vertices, rows([v.point for v in p.vertices]))
    # The slacks are exact and >= 0, so the mirror needs no clip.
    assert np.array_equal(moduli, rows([v.slacks for v in p.vertices]))
    assert np.all(moduli >= 0.0)
