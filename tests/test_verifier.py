"""Monte Carlo verifier: sampling, image checks, rank margins, the
Hamiltonian identity, invariance, and report determinism."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasifold import (
    IllConditioned,
    InternalInconsistency,
    QuasifoldError,
    StepOutOfRange,
    builtin_names,
    check_hamiltonian_identity,
    check_invariance,
    check_regular_value,
    kernel_moment,
    parse_polytope,
    build_construction,
    run_verification,
    sample_level_set,
    verify_moment_image,
)
import quasifold.construction as construction_module
import quasifold.verify as verify_module
from quasifold.verify import SampleSet, _dissection
from conftest import construct_builtin

VERIFY_NAMES = ["sphere", "teardrop-3", "rugby-2", "interval-sqrt2",
                "cp2", "triangle-sqrt2", "square", "pentagon", "cube"]


# Every corpus entry but the octahedron, which is not simple, and CP^4..CP^6.
CONSTRUCTIBLE = [name for name in builtin_names() if name != "octahedron"]
PROJECTIVE = {"CP4": 4, "CP5": 5, "CP6": 6}


def construct_named(name):
    if name in PROJECTIVE:
        return build_construction(parse_polytope(_projective_space(PROJECTIVE[name])))
    return construct_builtin(name)


def parabola_polygon(m):
    """The hull of (t, t^2) for t = 0..m: m + 1 facets in the plane, so a
    (m - 1)-dimensional kernel."""
    facets = [{"normal": [str(-(2 * t + 1)), "1"], "offset": str(-t * (t + 1))}
              for t in range(m)]
    facets.append({"normal": [str(m), "-1"], "offset": "0"})
    return build_construction(parse_polytope({"dimension": 2, "facets": facets}))


def translated_cube(t):
    """The unit cube moved by t along the diagonal: x_i >= t and
    -x_i >= -(t + 1)."""
    facets = []
    for i in range(3):
        unit = [int(i == j) for j in range(3)]
        facets.append({"normal": [str(e) for e in unit], "offset": str(t)})
        facets.append({"normal": [str(-e) for e in unit], "offset": str(-(t + 1))})
    return build_construction(parse_polytope({"dimension": 3, "facets": facets}))


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        data = construct_builtin("square")
        a = sample_level_set(data, 64, seed=11)
        b = sample_level_set(data, 64, seed=11)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.z, b.z)
        assert not np.array_equal(a.z, sample_level_set(data, 64, seed=12).z)

    @pytest.mark.parametrize("name", VERIFY_NAMES)
    def test_sample_invariants(self, name):
        data = construct_builtin(name)
        samples = sample_level_set(data, 300, seed=1)
        assert len(samples) == 300
        f = data.floats
        slack = samples.mu @ f.stack.T - f.lam
        assert np.min(slack) >= -1e-12
        assert np.max(np.abs(kernel_moment(samples.z, data))) <= 1e-9
        assert np.allclose(np.abs(samples.z) ** 2, slack, atol=1e-12)

    @pytest.mark.parametrize("name", CONSTRUCTIBLE + sorted(PROJECTIVE))
    def test_z_is_the_complex_exponential_of_the_phases(self, name):
        # The formula z = sqrt(slack) exp(2 pi i phases), rebuilt from a
        # generator that repeats the sampler's three draws.
        data = construct_named(name)
        count = 2000
        samples = sample_level_set(data, count, seed=7)
        rng = np.random.default_rng(7)
        rng.random(count)
        rng.exponential(size=(count, data.dim + 1))
        phases = rng.uniform(0.0, 1.0, size=(count, data.ambient_dim))
        f = data.floats
        slack = np.maximum(samples.mu @ f.stack.T - f.lam, 0.0)
        assert np.array_equal(samples.z, np.sqrt(slack) * np.exp(2j * np.pi * phases))

    def test_moduli_are_computed_once(self):
        samples = run_verification(construct_builtin("pentagon"), samples=500).sample_set
        moduli = samples.moduli
        assert samples.moduli is moduli
        assert np.array_equal(moduli, np.abs(samples.z) ** 2)

    def test_zero_count(self):
        samples = sample_level_set(construct_builtin("square"), 0)
        assert len(samples) == 0

    def test_zero_count_builds_no_dissection(self, monkeypatch):
        data = construct_builtin("cube")
        calls = []
        monkeypatch.setattr(verify_module, "_dissection", lambda data: calls.append(data))
        samples = sample_level_set(data, 0)
        assert calls == []
        assert samples.mu.shape == (0, data.dim) and samples.mu.dtype == np.float64
        assert samples.z.shape == (0, data.ambient_dim) and samples.z.dtype == np.complex128

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_level_set(construct_builtin("square"), -1)
        with pytest.raises(QuasifoldError):
            sample_level_set(construct_builtin("square"), -1)

    def test_thin_polytope_samples_inside(self):
        # diagonal strip of width 1e-6 inside a unit box: a bounding-box
        # rejection sampler would accept about one draw in 10^6
        thin = parse_polytope({
            "dimension": 2,
            "facets": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["-1", "0"], "offset": "-1"},
                {"normal": ["-1", "1"], "offset": "0"},
                {"normal": ["1", "-1"], "offset": "-1/1000000"},
            ],
        })
        data = build_construction(thin)
        samples = sample_level_set(data, 2048, seed=0)
        assert len(samples) == 2048
        f = data.floats
        assert np.min(samples.mu @ f.stack.T - f.lam) >= -1e-12
        report = run_verification(data, samples=2048, seed=0)
        assert report.passed, report.failures


# --------------------------------------------------------------------------
# Pulling dissection, checked against volumes and centroids computed apart
# --------------------------------------------------------------------------

def _box(sides):
    """The box prod [0, s_i] as a document."""
    n = len(sides)
    unit = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    return {
        "dimension": n,
        "facets": [{"normal": e, "offset": "0"} for e in unit]
        + [{"normal": [f"-{x}" for x in e], "offset": f"-{s}"}
           for e, s in zip(unit, sides)],
    }


def _projective_space(n):
    """The standard n-simplex, the moment polytope of CP^n."""
    return {
        "dimension": n,
        "facets": [{"normal": [str(int(i == j)) for j in range(n)], "offset": "0"}
                   for i in range(n)]
        + [{"normal": ["-1"] * n, "offset": "-1"}],
    }


def _shoelace(data):
    """Area and centroid of a polygon from its vertex floats."""
    pts = np.array([[s.to_float() for s in v.point] for v in data.polytope.vertices])
    center = pts.mean(axis=0)
    pts = pts[np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))]
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = cross.sum() / 2
    centroid = np.array([((x + xn) * cross).sum(), ((y + yn) * cross).sum()]) / (6 * area)
    return area, centroid


class TestDissection:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_box_has_n_factorial_simplices_of_its_volume(self, n):
        sides = ["1", "2", "1/3", "5/2", "3/4", "7"][:n]
        data = build_construction(parse_polytope(_box(sides)))
        _, weights = _dissection(data)
        assert len(weights) == math.factorial(n)
        volume = math.prod(-s.to_float() for s in data.polytope.offsets[n:])
        assert weights.sum() / math.factorial(n) == pytest.approx(volume, rel=1e-12)

    @pytest.mark.parametrize("name", ["cp2", "triangle-sqrt2", "sphere"])
    def test_simplex_is_one_simplex(self, name):
        _, weights = _dissection(construct_builtin(name))
        assert len(weights) == 1

    def test_pentagon_area_matches_shoelace(self):
        data = construct_builtin("pentagon")
        _, weights = _dissection(data)
        assert len(weights) == 3
        area, _ = _shoelace(data)
        assert weights.sum() / 2 == pytest.approx(area, rel=1e-12)

    @pytest.mark.parametrize("name", ["square", "cube", "cp2", "pentagon"])
    def test_sample_mean_is_the_centroid(self, name):
        data = construct_builtin(name)
        if name == "pentagon":
            _, centroid = _shoelace(data)
        elif name == "cp2":
            centroid = np.full(2, 1 / 3)
        else:
            centroid = np.full(data.dim, 0.5)
        mu = sample_level_set(data, 10_000, seed=3).mu
        stderr = mu.std(axis=0, ddof=1) / math.sqrt(len(mu))
        assert np.all(np.abs(mu.mean(axis=0) - centroid) <= 5 * stderr)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_projective_space_verifies_in_high_dimension(n):
    # 4 s is the per-dimension limit of the benchmark's verify_max_dim probe
    start = time.perf_counter()
    data = build_construction(parse_polytope(_projective_space(n)))
    report = run_verification(data, samples=10_000, seed=0)
    assert report.failures == []
    assert time.perf_counter() - start < 4.0


# --------------------------------------------------------------------------
# Image checks
# --------------------------------------------------------------------------

class TestImage:
    @pytest.mark.parametrize("name", VERIFY_NAMES)
    def test_roundtrip_containment_vertices(self, name):
        data = construct_builtin(name)
        image = verify_moment_image(data, sample_level_set(data, 400, seed=3))
        assert image.max_roundtrip_error <= 1e-8
        assert image.min_containment_slack >= -1e-8
        assert len(image.vertex_gaps) == len(data.polytope.vertices)
        assert max(image.vertex_gaps) <= 1e-9

    def test_empty_sample_set(self):
        data = construct_builtin("square")
        image = verify_moment_image(data, sample_level_set(data, 0))
        assert image.max_roundtrip_error == 0.0
        assert image.phi.shape == (0, 2)
        assert max(image.vertex_gaps) <= 1e-9  # fixed points still checked


class TestRegularValue:
    @pytest.mark.parametrize("name", VERIFY_NAMES)
    def test_margin_positive(self, name):
        data = construct_builtin(name)
        margin = check_regular_value(data, sample_level_set(data, 400, seed=4))
        assert margin > 1e-6

    @pytest.mark.parametrize("name", VERIFY_NAMES)
    def test_margin_matches_full_jacobian(self, name):
        # Oracle: the SVD of the whole (N, d-n, 2d) real Jacobian
        # 2*B*(x, y) of the level map.
        data = construct_builtin(name)
        samples = sample_level_set(data, 400, seed=4)
        kernel = data.floats.kernel[None, :, :]
        jac = np.concatenate([2.0 * kernel * samples.z.real[:, None, :],
                              2.0 * kernel * samples.z.imag[:, None, :]], axis=2)
        svals = np.linalg.svd(jac, compute_uv=False)
        expected = float(np.min(svals[:, -1] / svals[:, 0]))
        assert check_regular_value(data, samples) == pytest.approx(expected, rel=1e-12)

    def test_interval_jacobian_never_vanishes(self):
        data = construct_builtin("interval-sqrt2")
        samples = sample_level_set(data, 500, seed=5)
        f = data.floats
        jac_rows = np.concatenate([
            2 * f.kernel[0] * samples.z.real, 2 * f.kernel[0] * samples.z.imag
        ], axis=1)
        assert np.min(np.linalg.norm(jac_rows, axis=1)) > 0.1

    def test_empty_is_infinite(self):
        data = construct_builtin("square")
        assert math.isinf(check_regular_value(data, sample_level_set(data, 0)))

    @pytest.mark.parametrize("name", VERIFY_NAMES + ["parabola-41"])
    def test_margin_does_not_depend_on_chunk_size(self, name, monkeypatch):
        data = parabola_polygon(40) if name == "parabola-41" else construct_builtin(name)
        samples = sample_level_set(data, 2000, seed=4)
        monkeypatch.setattr(verify_module, "RANK_CHUNK_BYTES", 2**40)
        whole = check_regular_value(data, samples)
        per_sample = data.floats.kernel.nbytes
        for chunk in (1, 7, 256):
            monkeypatch.setattr(verify_module, "RANK_CHUNK_BYTES", chunk * per_sample)
            assert check_regular_value(data, samples) == whole

    @pytest.mark.parametrize("name", [  # every simplex and interval: d - n = 1
        name for name in CONSTRUCTIBLE + sorted(PROJECTIVE)
        if name not in ("square", "pentagon", "cube")])
    def test_one_dimensional_kernel_margins(self, name):
        data = construct_named(name)
        assert data.floats.kernel.shape[0] == 1
        samples = sample_level_set(data, 2000, seed=4)
        # A sample with every modulus 0 has the margin 0/0, NaN, both ways.
        degenerate = SampleSet(mu=samples.mu[:1], z=np.zeros_like(samples.z[:1]))
        kernel = data.floats.kernel
        expected = []
        for sample_set in (samples, degenerate):
            gram = (kernel[None, :, :] * (np.abs(sample_set.z) ** 2)[:, None, :]) @ kernel.T
            with np.errstate(invalid="ignore"):
                eig = np.linalg.eigvalsh(gram)
                expected.append(float(np.min(np.sqrt(np.maximum(eig[:, 0], 0.0) / eig[:, -1]))))
        assert check_regular_value(data, samples) == expected[0]
        with np.errstate(invalid="ignore"):
            assert math.isnan(check_regular_value(data, degenerate))
        assert math.isnan(expected[1])

    def test_peak_memory_is_bounded_by_the_chunk_budget(self):
        # 2000 samples of the 41-gon take a 25.6 MB product and a 24.3 MB
        # Gram stack at once without chunks (tracemalloc peak 47.6 MiB).
        data = parabola_polygon(40)
        samples = sample_level_set(data, 2000, seed=0)
        tracemalloc.start()
        try:
            check_regular_value(data, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * verify_module.RANK_CHUNK_BYTES


def vertex_margins(data):
    """The rank margin at every vertex fiber, as run_verification takes it."""
    f = data.floats
    return verify_module._rank_margins(f.kernel, f.vertex_moduli)


def lattice_polygon(points):
    """The hull of integer points (monotone chain, collinear points
    dropped) as a document with inward edge normals, or None when the hull
    has fewer than three vertices."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    if len(hull) < 3:
        return None
    facets = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        normal = (y0 - y1, x1 - x0)  # inward for a counterclockwise hull
        facets.append({"normal": [str(normal[0]), str(normal[1])],
                       "offset": str(normal[0] * x0 + normal[1] * y0)})
    return {"dimension": 2, "facets": facets}


def assert_no_sample_below_the_vertex_minimum(data, count, seed):
    samples = sample_level_set(data, count, seed=seed)
    verify_module._check_sampled_margins(data, float(np.min(vertex_margins(data))),
                                         samples.moduli)


class TestVertexRankMargin:
    """run_verification reports the rank margin at the vertex fibers, where
    the quasiconcave margin has its minimum over the level set."""

    def test_41_gon_margin_does_not_depend_on_the_samples(self):
        data = parabola_polygon(40)
        margins = {run_verification(data, samples=count, seed=seed).metrics["min_rank_margin"]
                   for count, seed in ((100, 0), (100, 1), (100, 2), (10_000, 0))}
        assert margins == {1.3444914490050584e-05}
        # Oracle: the SVD of the full real (d - n, 2d) Jacobian 2*B*(x, y)
        # at each vertex fiber, z = sqrt(slacks) with zero phases.  The
        # Gram route squares the conditioning, so its relative error is
        # about eps / margin**2.
        f = data.floats
        x = 2.0 * f.kernel * np.sqrt(f.vertex_moduli)[:, None, :]
        jac = np.concatenate([x, np.zeros_like(x)], axis=2)
        svals = np.linalg.svd(jac, compute_uv=False)
        oracle = svals[:, -1] / svals[:, 0]
        assert int(np.argmin(oracle)) == 39
        assert int(np.argmin(vertex_margins(data))) == 39
        assert margins.pop() == pytest.approx(
            float(np.min(oracle)), rel=np.finfo(float).eps / float(np.min(oracle)) ** 2)

    @pytest.mark.parametrize("name, expected, vertex", [
        ("pentagon", 0.278486511314638, 3), ("square", 1.0, 0), ("cube", 1.0, 0)])
    def test_corpus_margins(self, name, expected, vertex):
        data = construct_builtin(name)
        assert run_verification(data, samples=300, seed=5).metrics["min_rank_margin"] == expected
        assert int(np.argmin(vertex_margins(data))) == vertex

    def test_101_gon_fails_the_rank_check_at_every_seed(self):
        # Its vertex minimum is 8.07e-7, below tol_rank = 1e-6.  The
        # minimum over 10,000 samples is 1.1e-5, 3.3e-6 and 1.7e-5 at
        # seeds 0, 1 and 2, so a check over the samples would pass.
        data = parabola_polygon(100)
        for seed in (0, 1, 2):
            report = run_verification(data, samples=2000, seed=seed)
            assert report.failures == ["min_rank_margin"], seed
            assert report.metrics["min_rank_margin"] == pytest.approx(8.07e-7, rel=1e-3)
            # 1.2e-8 to 1.9e-8: lambda_j, up to 1e4 here, cancels from
            # every difference of the Hamiltonian check.
            assert report.metrics["max_hamiltonian_residual"] <= 1e-7, seed

    @pytest.mark.parametrize("name", CONSTRUCTIBLE + sorted(PROJECTIVE))
    def test_no_sample_below_the_vertex_minimum(self, name):
        assert_no_sample_below_the_vertex_minimum(construct_named(name), 10_000, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                           min_size=3, max_size=12),
           seed=st.integers(0, 2**16))
    def test_no_sample_below_the_vertex_minimum_on_lattice_polygons(self, points, seed):
        document = lattice_polygon(points)
        assume(document is not None)
        data = build_construction(parse_polytope(document))
        assert_no_sample_below_the_vertex_minimum(data, 10_000, seed)

    def test_wrong_vertex_slacks_raise(self, monkeypatch):
        # Every vertex fiber given vertex 0's slacks: the "vertex minimum"
        # becomes 0.786, above what the first samples show (0.316).
        data = construct_builtin("pentagon")
        f = data.floats
        wrong = np.repeat(f.vertex_moduli[:1], len(f.vertex_moduli), axis=0)
        monkeypatch.setattr(f, "vertex_moduli", wrong)
        with pytest.raises(InternalInconsistency, match="below the vertex minimum"):
            run_verification(data, samples=500, seed=0)

    def test_sampled_margins_fail_closed(self):
        # Pentagon rows: vertex 0's slacks (margin 0.786), a zero row
        # (Gram matrix 0, margin NaN) and vertex 3's slacks (0.278).
        data = construct_builtin("pentagon")
        f = data.floats
        vertex_margin = float(vertex_margins(data)[0])
        check = verify_module._check_sampled_margins
        moduli = np.repeat(f.vertex_moduli[:1], 6, axis=0)
        check(data, vertex_margin, moduli)
        moduli[4] = f.vertex_moduli[3]
        with pytest.raises(InternalInconsistency,
                           match=r"^sample 4: sampled rank margin .* below the vertex minimum"):
            check(data, vertex_margin, moduli)
        moduli[2] = 0.0
        with pytest.raises(IllConditioned, match=r"^sample 2: .* rounds to 0$"):
            check(data, vertex_margin, moduli)

    @pytest.mark.parametrize("name", ["pentagon", "parabola-41"])
    def test_eigensolves_are_bounded_by_the_vertex_count(self, name, monkeypatch):
        data = parabola_polygon(40) if name == "parabola-41" else construct_builtin(name)
        matrices = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: matrices.append(len(a)) or eigvalsh(a))
        run_verification(data, samples=10_000, seed=0)
        assert 0 < sum(matrices) <= (len(data.polytope.vertices)
                                     + verify_module.INVARIANCE_SAMPLES)

    def test_peak_memory_of_the_41_gon(self):
        # 10,000 samples.  A margin at every sample would hold a 16 MiB
        # product chunk plus its Gram stack (peak 57.3 MiB); the vertex
        # route holds V + 64 Gram matrices.
        data = parabola_polygon(40)
        tracemalloc.start()
        try:
            run_verification(data, samples=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


# --------------------------------------------------------------------------
# Hamiltonian identity
# --------------------------------------------------------------------------

class TestHamiltonian:
    def test_zero_direction_zero_residual(self):
        data = construct_builtin("square")
        z = sample_level_set(data, 1, seed=6).z[0]
        assert check_hamiltonian_identity(data, z, np.zeros(2)) == 0.0

    @pytest.mark.parametrize("name", ["square", "pentagon", "triangle-sqrt2"])
    def test_residual_within_tolerance(self, name):
        data = construct_builtin(name)
        samples = sample_level_set(data, 20, seed=7)
        rng = np.random.default_rng(8)
        for z in samples.z:
            x = rng.standard_normal(data.dim)
            assert check_hamiltonian_identity(data, z, x, h=1e-5) <= 1e-6

    def test_step_out_of_range(self):
        data = construct_builtin("square")
        z = sample_level_set(data, 1, seed=9).z[0]
        for h in (1e-9, 1e-2, 0.5):
            with pytest.raises(StepOutOfRange):
                check_hamiltonian_identity(data, z, np.ones(2), h=h)

    def test_basis_direction_sphere(self):
        # X = e_1 on the plain sphere: the identity in closed form
        data = construct_builtin("sphere")
        z = sample_level_set(data, 4, seed=10).z
        for row in z:
            assert check_hamiltonian_identity(data, row, np.array([1.0])) <= 1e-7

    @pytest.mark.parametrize("t", [0, 10**3, 10**6, 10**8])
    def test_translation_leaves_the_residual_alone(self, t):
        # lambda_j is about t, and a step moves only |z_j|^2, so lambda_j
        # cancels from every difference: the residual reads 2e-11 to
        # 4e-11 at each t.  At t = 10^8 the round-trip and vertex
        # attainment checks still fail; they wait for ROADMAP item 9's
        # exact frame shift.
        report = run_verification(translated_cube(t), samples=2000, seed=0)
        assert report.metrics["max_hamiltonian_residual"] <= 1e-9
        if t <= 10**6:
            assert report.failures == []

    def test_201_gon_passes_the_hamiltonian_check(self):
        # Its coordinates reach 4e4, and the residual reads 5.2e-8.
        report = run_verification(parabola_polygon(200), samples=2000, seed=0)
        assert "max_hamiltonian_residual" not in report.failures
        assert report.metrics["max_hamiltonian_residual"] <= 1e-7


# --------------------------------------------------------------------------
# Invariance
# --------------------------------------------------------------------------

class TestInvariance:
    @pytest.mark.parametrize("name", VERIFY_NAMES)
    def test_residuals(self, name):
        data = construct_builtin(name)
        samples = sample_level_set(data, 128, seed=11)
        inv = check_invariance(data, samples, seed=12)
        assert inv.torus_residual <= 1e-9
        assert inv.kernel_group_residual <= 1e-8
        assert inv.effectiveness_index is not None

    def test_triangle_kernel_direction_fixes_phi(self):
        # rotating by theta = (sigma*t, sigma*s, sigma) mod 1 leaves Phi alone
        data = construct_builtin("triangle-sqrt2")
        samples = sample_level_set(data, 32, seed=13)
        t = data.polytope.field.theta.to_float()
        from quasifold import induced_moment
        for sigma in (0.3, -1.7):
            theta = (sigma * np.array([t, 1.0, 1.0])) % 1.0
            moved = samples.z * np.exp(2j * np.pi * theta)
            assert np.max(np.abs(
                induced_moment(moved, data) - induced_moment(samples.z, data)
            )) <= 1e-8

    @pytest.mark.parametrize("count, blanked", [
        (300, 0), (300, 63), (300, 64), (300, 65), (300, 130), (300, 300), (130, 130)])
    def test_effectiveness_witness_is_the_first_free_orbit(self, count, blanked):
        # The first `blanked` samples each get one zero modulus; the witness
        # is the index the whole-array formula gives, None when no row has
        # every modulus positive.
        data = construct_builtin("cube")
        samples = sample_level_set(data, count, seed=11)
        z = samples.z.copy()
        rows = np.arange(blanked)
        z[rows, rows % data.ambient_dim] = 0.0
        hits = np.nonzero(np.min(np.abs(z), axis=1) > 0.0)[0]
        expected = int(hits[0]) if hits.size else None
        assert expected == (blanked if blanked < count else None)
        inv = check_invariance(data, SampleSet(mu=samples.mu, z=z), seed=12)
        assert inv.effectiveness_index == expected

    def test_unmoved_samples_read_the_moduli(self, monkeypatch):
        # |z|^2 + lambda of the unmoved samples is read from samples.moduli,
        # so J is evaluated only at the rotated and at the moved samples.
        data = construct_builtin("pentagon")
        samples = sample_level_set(data, 300, seed=11)
        calls = []
        torus_moment = construction_module.torus_moment
        monkeypatch.setattr(construction_module, "torus_moment",
                            lambda z, d: calls.append(len(z)) or torus_moment(z, d))
        inv = check_invariance(data, samples, seed=12)
        assert calls == [verify_module.INVARIANCE_SAMPLES] * 2
        assert inv.effectiveness_index == 0

    def test_empty_sample_residuals(self):
        data = construct_builtin("square")
        inv = check_invariance(data, sample_level_set(data, 0))
        assert inv.torus_residual == 0.0
        assert inv.effectiveness_index is None


# --------------------------------------------------------------------------
# Aggregate report
# --------------------------------------------------------------------------

class TestReport:
    @pytest.mark.parametrize("name", VERIFY_NAMES)
    def test_passes_at_default_tolerances(self, name):
        report = run_verification(construct_builtin(name), samples=500, seed=0)
        assert report.passed, report.failures

    def test_bitwise_deterministic(self):
        data = construct_builtin("pentagon")
        a = run_verification(data, samples=300, seed=42).as_dict()
        b = run_verification(construct_builtin("pentagon"), samples=300, seed=42).as_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_threshold_failure_reported_not_raised(self):
        report = run_verification(construct_builtin("square"), samples=50, seed=0,
                                  tol_roundtrip=1e-30)
        assert not report.passed
        assert "max_roundtrip_error" in report.failures

    def test_zero_samples_report(self):
        report = run_verification(construct_builtin("square"), samples=0, seed=0)
        assert report.passed
        payload = report.as_dict()
        assert payload["metrics"]["min_rank_margin"] is None
        json.dumps(payload)  # strict JSON, no Infinity

    def test_one_sample_set_per_run(self, monkeypatch):
        # Every check reads the sample set sample_level_set returns; none
        # builds a prefix copy of it.
        built = []

        class CountingSampleSet(SampleSet):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(verify_module, "SampleSet", CountingSampleSet)
        report = run_verification(construct_builtin("pentagon"), samples=500, seed=0)
        assert report.passed
        assert len(built) == 1

    def test_peak_memory_of_ten_thousand_samples(self):
        # CP^6 at the benchmark's sample count: the run holds mu, z, |z|^2
        # and Phi (2.5 MiB) plus the sampler's real temporaries; one more
        # complex (N, d) array (1.1 MiB) would pass the bound.
        data = build_construction(parse_polytope(_projective_space(6)))
        tracemalloc.start()
        try:
            run_verification(data, samples=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * 2**20

    def test_report_fields(self):
        report = run_verification(construct_builtin("sphere"), samples=100, seed=1)
        payload = report.as_dict()
        assert payload["sample_count"] == 100
        assert payload["seed"] == 1
        metrics = payload["metrics"]
        for key in ("max_level_residual", "max_roundtrip_error",
                    "min_containment_slack", "vertex_attainment_gaps",
                    "min_rank_margin", "max_hamiltonian_residual", "invariance"):
            assert key in metrics
        assert metrics["max_level_residual"] >= 0.0


# --------------------------------------------------------------------------
# Hull distance
# --------------------------------------------------------------------------

def assert_hull_fills_polytope(data, samples, bound):
    """Hausdorff(hull of the samples, polytope) <= bound: every sample lies
    in the polytope, so the hull does, and every vertex lies within bound
    of a sample.  The distance to the hull is convex and the polytope is
    the hull of its vertices, so the vertices realize the supremum."""
    f = data.floats
    assert np.min(samples.mu @ f.stack.T - f.lam) >= -1e-12
    vertices = np.array([[s.to_float() for s in v.point] for v in data.polytope.vertices])
    gaps = np.linalg.norm(vertices[:, None, :] - samples.mu[None, :, :], axis=2)
    assert np.max(np.min(gaps, axis=1)) <= bound


class TestHullDistance:
    def test_pentagon_converges(self):
        data = construct_builtin("pentagon")
        assert_hull_fills_polytope(data, sample_level_set(data, 10_000, seed=0), 0.05)

    def test_square(self):
        data = construct_builtin("square")
        assert_hull_fills_polytope(data, sample_level_set(data, 5_000, seed=1), 0.05)
