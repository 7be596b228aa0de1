"""Monte Carlo and finite-difference checks of a construction.

Samples live on the zero level set of the reduced moment map: a polytope
point mu drawn exactly uniformly, from a pulling dissection of the
polytope into simplices, determines the moduli
|z_j|^2 = <mu, X_j> - lambda_j, and phases are uniform.  All
randomness flows through one seeded generator per check, so reports are
bitwise reproducible for equal seeds.

The checks avoid repeated passes over a sample set: |z|^2 of its z is
computed once (``SampleSet.moduli``), and every check that needs it reads
that array: the level residual, Phi, the sampled rank-margin
cross-check, the unmoved side of both invariance comparisons, and the
effectiveness witness, which is searched from the first rows.  A
prefix's Phi and Psi are computed from the prefix rows, not sliced from a
product over all samples: BLAS may round (A @ B.T)[:k] and A[:k] @ B.T
differently.

The rank margin, which shows that 0 is a regular value of the level map
Psi, is evaluated at the V vertex fibers, not at the samples.  At a
moment-map point mu it is sqrt(lambda_min / lambda_max) of
G(mu) = B diag(s(mu)) B^T, where s_j(mu) = <mu, X_j> - lambda_j is affine
in mu.  So lambda_min is concave on the polytope and lambda_max convex,
and for t >= 0 the set {lambda_min >= t lambda_max} is convex: the margin
is quasiconcave, and its minimum over the polytope lies at a vertex.  The
phases drop out of G, so that is also its minimum over the level set.  A
sampled margin can only approach it from above; the samples serve as a
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Sequence

import numpy as np

from .construction import DelzantData, induced_moment, kernel_moment
from .errors import DimensionMismatch, IllConditioned, InternalInconsistency, StepOutOfRange

# Finite-difference step and (sample, direction) pair count of the
# Hamiltonian check; samples moved by the invariance check.
HAMILTONIAN_STEP = 1e-5
HAMILTONIAN_PAIRS = 100
INVARIANCE_SAMPLES = 64
# Bytes of the (points, d - n, d) product a rank-margin evaluation holds
# at once; it and its Gram stack are evaluated over point chunks this size.
RANK_CHUNK_BYTES = 16 * 2**20
# How far, in units of d * machine epsilon, a sampled squared rank margin
# may fall below the vertex minimum's square before the two are called
# inconsistent.  eigvalsh's error in each eigenvalue is about eps *
# lambda_max.  The square's sampled margins sit 7e-16 below its vertex
# value 1.0, which is 1.5 d * eps once squared.
RANK_ROUNDING = 16


@dataclass(frozen=True)
class SampleSet:
    """Column-stacked level-set samples (mu rows, z rows)."""

    mu: np.ndarray      # (N, n)
    z: np.ndarray       # (N, d) complex

    def __len__(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def moduli(self) -> np.ndarray:
        """|z|^2 (N, d), computed on first use; every check of the samples
        reads it (see the module docstring)."""
        return np.abs(self.z) ** 2


def _pulling_dissection(active: Sequence[frozenset], face: Sequence[int],
                        dim: int) -> list[tuple[int, ...]]:
    """Dissect a face of a simple polytope into simplices (vertex index
    tuples): pull its lowest-index vertex v0 and cone it over a dissection
    of every facet of the face that v0 misses.

    ``face`` lists the face's vertices in increasing index order and
    ``active`` holds each vertex's active facets.  Simplicity, which
    build_construction enforces, makes every facet j that meets a face,
    and is not active on all of it, cut out a face of one dimension less.
    """
    v0 = face[0]
    if dim == 0:
        return [(v0,)]
    simplices = []
    for j in sorted(frozenset().union(*(active[v] for v in face)) - active[v0]):
        facet = [v for v in face if j in active[v]]
        simplices.extend((v0,) + s for s in _pulling_dissection(active, facet, dim - 1))
    return simplices


def _dissection(data: DelzantData) -> tuple[np.ndarray, np.ndarray]:
    """Corners (m, n+1, n) of a pulling dissection of the polytope into
    n-simplices, and each simplex's |det| of its edge matrix (n! times
    its volume)."""
    vertices = data.polytope.vertices
    active = [frozenset(v.active) for v in vertices]
    simplices = _pulling_dissection(active, range(len(vertices)), data.dim)
    corners = data.floats.vertices[np.array(simplices)]
    weights = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1]))
    return corners, weights


def sample_level_set(data: DelzantData, count: int, seed: int = 0) -> SampleSet:
    """Draw level-set samples: mu exactly uniform in the polytope, phases
    uniform in [0, 1).

    mu picks a simplex of a pulling dissection with probability
    proportional to its volume, then a point of that simplex with
    barycentric coordinates from normalised exponentials (uniform on the
    standard simplex).  There is no rejection step, so the cost per
    sample does not depend on the shape of the polytope.
    """
    if count < 0:
        raise DimensionMismatch("count must be nonnegative")
    if count == 0:
        return SampleSet(mu=np.zeros((0, data.dim)),
                         z=np.zeros((0, data.ambient_dim), dtype=complex))
    f = data.floats
    rng = np.random.default_rng(seed)
    corners, weights = _dissection(data)
    cumulative = np.cumsum(weights)
    pick = np.searchsorted(cumulative, rng.random(count) * cumulative[-1], side="right")
    pick = np.minimum(pick, len(weights) - 1)  # the product can round up to the total
    barycentric = rng.exponential(size=(count, data.dim + 1))
    barycentric /= barycentric.sum(axis=1, keepdims=True)
    # mu = sum_k barycentric_k * corner_k, one corner column at a time;
    # np.take gathers a column faster than corners[pick, k] indexes it,
    # and the product is formed in the gathered copy.
    mu = np.zeros((count, data.dim))
    for k in range(data.dim + 1):
        term = np.take(corners[:, k], pick, axis=0)
        term *= barycentric[:, k:k + 1]
        mu += term
    # Clipping absorbs the float rounding of points on a facet.
    slack = mu @ f.stack.T
    slack -= f.lam
    np.maximum(slack, 0.0, out=slack)
    # z = sqrt(slack) * exp(2 pi i phases), built in place: the same bits
    # as that expression, without its three complex temporaries.
    phases = rng.uniform(0.0, 1.0, size=(count, data.ambient_dim))
    phases *= 2 * np.pi
    z = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=z.real)
    np.sin(phases, out=z.imag)
    np.sqrt(slack, out=slack)
    np.multiply(z.real, slack, out=z.real)
    np.multiply(z.imag, slack, out=z.imag)
    return SampleSet(mu=mu, z=z)


# --------------------------------------------------------------------------
# Image and fixed-point checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageCheck:
    max_roundtrip_error: float
    min_containment_slack: float
    vertex_gaps: tuple[float, ...]
    phi: np.ndarray = dc_field(repr=False, compare=False)  # (N, n), Phi of each sample


def verify_moment_image(data: DelzantData, samples: SampleSet) -> ImageCheck:
    """Round-trip mu -> z -> Phi(z) and containment of the image in the
    polytope; also evaluates the fiber over every vertex, whose image
    must hit the vertex itself (fixed points are exact)."""
    f = data.floats
    # induced_moment(z, tol=None), from the moduli
    phi = (samples.moduli + f.lam) @ f.pinv_stack.T
    roundtrip = float(np.max(np.abs(phi - samples.mu), initial=0.0))
    # no samples read 0.0; an initial value for np.min would clamp a positive minimum
    containment = float(np.min(phi @ f.stack.T - f.lam)) if len(samples) else 0.0
    gaps = []
    for moduli, target in zip(f.vertex_moduli, f.vertices):
        z_vertex = np.sqrt(moduli).astype(complex)
        image = induced_moment(z_vertex, data, tol=None)
        gaps.append(float(np.max(np.abs(image - target))))
    return ImageCheck(max_roundtrip_error=roundtrip,
                      min_containment_slack=containment,
                      vertex_gaps=tuple(gaps), phi=phi)


def _rank_margins(kernel: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """sqrt(lambda_min / lambda_max) of the Gram matrix B diag(m) B^T for
    each row m of moduli (P, d), as a (P,) array.

    The rows are taken RANK_CHUNK_BYTES of product at a time.  eigvalsh
    factors each matrix on its own, so the margins do not depend on the
    chunk size.  Rounding can push the smallest eigenvalue below zero; it
    is clipped to 0.  A Gram matrix that rounds to 0 has the margin 0/0,
    NaN, without a warning."""
    chunk = max(1, RANK_CHUNK_BYTES // kernel.nbytes)
    margins = np.empty(len(moduli))
    for start in range(0, len(moduli), chunk):
        block = moduli[start:start + chunk]
        gram = (kernel[None, :, :] * block[:, None, :]) @ kernel.T
        eig = np.linalg.eigvalsh(gram)
        with np.errstate(invalid="ignore"):
            margins[start:start + chunk] = np.sqrt(np.maximum(eig[:, 0], 0.0) / eig[:, -1])
    return margins


def check_regular_value(data: DelzantData, samples: SampleSet) -> float:
    """Smallest relative singular value of the level-map Jacobian across
    the samples.  Row k of the Jacobian at z is
    2*B_kj*(x_j, y_j) over the 2d real coordinates; a margin bounded away
    from zero certifies 0 is a regular value along the sampled set.

    J J^T = 4 B diag(|z|^2) B^T, so the squared singular values of J are
    the eigenvalues of the (d-n, d-n) Gram matrix B diag(|z|^2) B^T up to
    the factor 4, which the ratio drops, as it drops the phases.  The
    minimum over the whole level set lies at a vertex fiber (see the
    module docstring); run_verification reports that one and cross-checks
    it with _check_sampled_margins, which reads the moduli of a prefix of
    the samples directly.  A sample whose Gram matrix rounds to 0 makes
    the result NaN."""
    return float(np.min(_rank_margins(data.floats.kernel, samples.moduli), initial=math.inf))


def _check_sampled_margins(data: DelzantData, vertex_margin: float,
                           moduli: np.ndarray) -> None:
    """Cross-check the vertex minimum against the samples whose |z|^2 are
    the rows of moduli (P, d), and fail closed on the first sample whose
    squared rank margin is not at least vertex_margin**2 minus
    RANK_ROUNDING * d * eps.

    A finite margin below that bound raises InternalInconsistency: the
    vertex minimum is the minimum over the level set, so such a sample
    means wrong vertex slacks or a wrong kernel.  A NaN margin, whose Gram
    matrix B diag(m) B^T rounded to 0, raises IllConditioned: the floats
    cannot resolve the level set there."""
    margins = _rank_margins(data.floats.kernel, moduli)
    allowance = RANK_ROUNDING * data.ambient_dim * np.finfo(float).eps
    failing = np.flatnonzero(~(margins ** 2 >= vertex_margin ** 2 - allowance))
    if failing.size:
        index = int(failing[0])
        sampled = float(margins[index])
        if math.isnan(sampled):
            raise IllConditioned(
                f"sample {index}: the rank-margin Gram matrix B diag(|z|^2) B^T rounds to 0"
            )
        raise InternalInconsistency(
            f"sample {index}: sampled rank margin {sampled!r} below the vertex minimum "
            f"{vertex_margin!r}"
        )


# --------------------------------------------------------------------------
# Hamiltonian identity
# --------------------------------------------------------------------------

def _hamiltonian_residuals(data: DelzantData, z: np.ndarray, directions: np.ndarray,
                           h: float) -> np.ndarray:
    """Max coordinatewise discrepancy between i(X_M) omega_0 and the
    central finite difference of d<Phi, X>, per (z, X) pair."""
    if not (1e-8 <= h <= 1e-3):
        raise StepOutOfRange(f"step {h} outside [1e-8, 1e-3]")
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    n_pairs, d = z.shape
    lifts = directions @ data.floats.pinv_stack  # least-norm pi-preimages, (N, d)
    x, y = z.real, z.imag

    # omega_0 = (1/2*pi*i) sum dz^dzbar = c * sum dx^dy with c = -1/pi.
    # The lifted direction rotates coordinate j at speed 2*pi*lift_j, so
    # V = (-2*pi*lift*y) d/dx + (2*pi*lift*x) d/dy and
    # i(V)omega = c*(V_x dy - V_y dx).
    c = -1.0 / math.pi
    vx = -2.0 * math.pi * lifts * y
    vy = 2.0 * math.pi * lifts * x
    lhs = np.concatenate([-c * vy, c * vx], axis=1)  # dx coefficients, then dy

    def f_value(w: np.ndarray) -> np.ndarray:
        phi = induced_moment(w, data, tol=None)
        return np.einsum("ij,ij->i", phi, directions)

    fd = np.empty((n_pairs, 2 * d))
    for j in range(d):
        for column, step in ((j, h), (d + j, 1j * h)):
            zp = z.copy()
            zp[:, j] += step
            zm = z.copy()
            zm[:, j] -= step
            fd[:, column] = (f_value(zp) - f_value(zm)) / (2.0 * h)
    return np.max(np.abs(lhs - fd), axis=1)


def check_hamiltonian_identity(data: DelzantData, z, direction,
                               h: float = HAMILTONIAN_STEP) -> float:
    """Residual of i(X_M) omega_0 = d<Phi, X> at one point, one direction."""
    res = _hamiltonian_residuals(data, np.asarray(z, dtype=complex)[None, :],
                                 np.asarray(direction, dtype=float)[None, :], h)
    return float(res[0])


# --------------------------------------------------------------------------
# Invariance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceCheck:
    torus_residual: float
    kernel_group_residual: float
    effectiveness_index: int | None


def check_invariance(data: DelzantData, samples: SampleSet, seed=0) -> InvarianceCheck:
    """Psi under random full-torus elements, Phi under random elements of
    the kernel subgroup, on the first INVARIANCE_SAMPLES samples, plus a
    free-orbit witness (the first sample with every |z_j|^2 positive,
    where the torus action is effective), searched INVARIANCE_SAMPLES
    rows at a time.  Psi and Phi of the unmoved samples, and the witness,
    are read from samples.moduli."""
    rng = np.random.default_rng(seed)
    k = min(INVARIANCE_SAMPLES, len(samples))
    z = samples.z[:k]
    d = data.ambient_dim
    f = data.floats
    theta = rng.uniform(0.0, 1.0, size=(k, d))
    rotated = z * np.exp(2j * np.pi * theta)
    j = samples.moduli[:k] + f.lam  # torus_moment(z), from the moduli
    torus = float(np.max(np.abs(
        kernel_moment(rotated, data) - j @ f.kernel.T
    ), initial=0.0))
    sigma = rng.uniform(-1.0, 1.0, size=(k, f.kernel.shape[0]))
    theta_n = (sigma @ f.kernel) % 1.0
    moved = z * np.exp(2j * np.pi * theta_n)
    kernel_res = float(np.max(np.abs(
        induced_moment(moved, data, tol=None) - j @ f.pinv_stack.T
    ), initial=0.0))
    effectiveness = None
    for start in range(0, len(samples), INVARIANCE_SAMPLES):
        block = samples.moduli[start:start + INVARIANCE_SAMPLES]
        hits = np.flatnonzero(np.min(block, axis=1) > 0.0)
        if hits.size:
            effectiveness = start + int(hits[0])
            break
    return InvarianceCheck(torus_residual=torus, kernel_group_residual=kernel_res,
                           effectiveness_index=effectiveness)


# --------------------------------------------------------------------------
# Aggregate run
# --------------------------------------------------------------------------

@dataclass
class VerificationReport:
    sample_count: int
    seed: int
    tolerances: dict
    metrics: dict
    effectiveness_index: int | None
    failures: list
    # The level-set samples every check saw and Phi of each (N, n); not
    # part of the JSON report.
    sample_set: SampleSet = dc_field(repr=False, compare=False)
    phi: np.ndarray = dc_field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "seed": self.seed,
            "hamiltonian_step": HAMILTONIAN_STEP,
            "tolerances": self.tolerances,
            "metrics": self.metrics,
            "effectiveness_index": self.effectiveness_index,
            "failures": self.failures,
            "passed": self.passed,
        }


def run_verification(data: DelzantData, samples: int = 10_000, seed: int = 0,
                     tol_roundtrip: float = 1e-8,
                     tol_rank: float = 1e-6) -> VerificationReport:
    """Run every check at its standard tolerance and collect the report.

    Thresholds: level residual 1e-9, round-trip and containment
    tol_roundtrip, rank margin tol_rank, Hamiltonian residual 1e-6 at step
    HAMILTONIAN_STEP on the first HAMILTONIAN_PAIRS samples, torus
    invariance 1e-9, kernel-group invariance 1e-8, vertex attainment 1e-9.
    Without samples the rank margin is None and skipped, and no
    effectiveness witness is asked for.

    The rank margin is the minimum over the vertex fibers: the margin is
    quasiconcave in mu (see the module docstring), so that is its minimum
    over the level set, and it does not depend on the seed or the sample
    count.  The first INVARIANCE_SAMPLES samples cross-check it: a sampled
    margin below it beyond rounding raises InternalInconsistency, and one
    whose Gram matrix rounds to 0 raises IllConditioned.
    """
    tol = {
        "level_residual": 1e-9,
        "roundtrip": tol_roundtrip,
        "containment": tol_roundtrip,
        "rank_margin": tol_rank,
        "hamiltonian": 1e-6,
        "torus_invariance": 1e-9,
        "kernel_invariance": 1e-8,
        "vertex_attainment": 1e-9,
    }
    sample_set = sample_level_set(data, samples, seed=seed)
    sampled = len(sample_set) > 0
    f = data.floats
    # the largest |kernel_moment(z)|, from the moduli
    level = float(np.max(np.abs((sample_set.moduli + f.lam) @ f.kernel.T), initial=0.0))
    margin = None
    if sampled:
        margin = float(np.min(_rank_margins(f.kernel, f.vertex_moduli)))
        _check_sampled_margins(data, margin, sample_set.moduli[:INVARIANCE_SAMPLES])
    image = verify_moment_image(data, sample_set)
    pairs = min(HAMILTONIAN_PAIRS, len(sample_set))
    directions = np.random.default_rng([seed, 1]).standard_normal((pairs, data.dim))
    hamiltonian = float(np.max(_hamiltonian_residuals(
        data, sample_set.z[:pairs], directions, HAMILTONIAN_STEP), initial=0.0))
    invariance = check_invariance(data, sample_set, seed=[seed, 2])
    witness = invariance.effectiveness_index

    checks = (
        ("max_level_residual", level <= tol["level_residual"]),
        ("max_roundtrip_error", image.max_roundtrip_error <= tol["roundtrip"]),
        ("min_containment_slack", image.min_containment_slack >= -tol["containment"]),
        ("min_rank_margin", margin is None or margin > tol["rank_margin"]),
        ("max_hamiltonian_residual", hamiltonian <= tol["hamiltonian"]),
        ("torus_invariance", invariance.torus_residual <= tol["torus_invariance"]),
        ("kernel_invariance", invariance.kernel_group_residual <= tol["kernel_invariance"]),
        ("vertex_attainment", all(g <= tol["vertex_attainment"] for g in image.vertex_gaps)),
        ("effectiveness_witness", not sampled or witness is not None),
    )
    return VerificationReport(
        sample_count=samples, seed=seed, tolerances=tol,
        metrics={
            "max_level_residual": level,
            "max_roundtrip_error": image.max_roundtrip_error,
            "min_containment_slack": image.min_containment_slack,
            "vertex_attainment_gaps": list(image.vertex_gaps),
            "min_rank_margin": margin,
            "max_hamiltonian_residual": hamiltonian,
            "invariance": {"torus": invariance.torus_residual,
                           "kernel_group": invariance.kernel_group_residual},
        },
        effectiveness_index=witness,
        failures=[name for name, passes in checks if not passes],
        sample_set=sample_set, phi=image.phi,
    )
