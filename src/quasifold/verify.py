"""Monte Carlo and finite-difference checks of a construction.

Samples live on the zero level set of the reduced moment map: a polytope
point mu drawn exactly uniformly, from a pulling dissection of the
polytope into simplices, determines the moduli
|z_j|^2 = <mu, X_j> - lambda_j, and phases are uniform.  All
randomness flows through one seeded generator per check, so reports are
bitwise reproducible for equal seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .construction import DelzantData, induced_moment, kernel_moment
from .errors import StepOutOfRange

# Finite-difference step and (sample, direction) pair count of the
# Hamiltonian check; samples moved by the invariance check.
HAMILTONIAN_STEP = 1e-5
HAMILTONIAN_PAIRS = 100
INVARIANCE_SAMPLES = 64
# Bytes of the (samples, d - n, d) product the rank-margin check holds at
# once; it and its Gram stack are evaluated over sample chunks this size.
RANK_CHUNK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class SampleSet:
    """Column-stacked level-set samples (mu rows, z rows)."""

    mu: np.ndarray      # (N, n)
    z: np.ndarray       # (N, d) complex

    def __len__(self) -> int:
        return self.mu.shape[0]


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
        raise ValueError("count must be nonnegative")
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
    mu = np.zeros((count, data.dim))
    for k in range(data.dim + 1):
        mu += barycentric[:, k:k + 1] * corners[pick, k]
    # Clipping absorbs the float rounding of points on a facet.
    slack = np.maximum(mu @ f.stack.T - f.lam, 0.0)
    phases = rng.uniform(0.0, 1.0, size=(count, data.ambient_dim))
    z = np.sqrt(slack) * np.exp(2j * np.pi * phases)
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
    if len(samples):
        phi = induced_moment(samples.z, data, tol=None)
        roundtrip = float(np.max(np.abs(phi - samples.mu)))
        containment = float(np.min(phi @ f.stack.T - f.lam))
    else:
        phi = np.zeros((0, data.dim))
        roundtrip = 0.0
        containment = 0.0
    gaps = []
    for vertex, target in zip(data.polytope.vertices, f.vertices):
        moduli = np.array([max(s.to_float(), 0.0) for s in vertex.slacks])
        z_vertex = np.sqrt(moduli).astype(complex)
        image = induced_moment(z_vertex, data, tol=None)
        gaps.append(float(np.max(np.abs(image - target))))
    return ImageCheck(max_roundtrip_error=roundtrip,
                      min_containment_slack=containment,
                      vertex_gaps=tuple(gaps), phi=phi)


def check_regular_value(data: DelzantData, samples: SampleSet) -> float:
    """Smallest relative singular value of the level-map Jacobian across
    the samples.  Row k of the Jacobian at z is
    2*B_kj*(x_j, y_j) over the 2d real coordinates; a margin bounded away
    from zero certifies 0 is a regular value along the sampled set.

    J J^T = 4 B diag(|z|^2) B^T, so the squared singular values of J are
    the eigenvalues of the (d-n, d-n) Gram matrix B diag(|z|^2) B^T up to
    the factor 4, which the ratio drops, as it drops the phases.  Rounding
    can push the smallest eigenvalue below zero; it is clipped to 0.

    The samples are taken RANK_CHUNK_BYTES of product at a time.
    eigvalsh factors each matrix on its own, so the margins do not
    depend on the chunk size."""
    if not len(samples):
        return math.inf
    kernel = data.floats.kernel
    chunk = max(1, RANK_CHUNK_BYTES // kernel.nbytes)
    margins = np.empty(len(samples))
    for start in range(0, len(samples), chunk):
        moduli = np.abs(samples.z[start:start + chunk]) ** 2
        gram = (kernel[None, :, :] * moduli[:, None, :]) @ kernel.T
        eig = np.linalg.eigvalsh(gram)
        margins[start:start + chunk] = np.sqrt(np.maximum(eig[:, 0], 0.0) / eig[:, -1])
    return float(np.min(margins))


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
    free-orbit witness (a sample with every modulus positive, where the
    torus action is effective)."""
    rng = np.random.default_rng(seed)
    k = min(INVARIANCE_SAMPLES, len(samples))
    z = samples.z[:k]
    d = data.ambient_dim
    f = data.floats
    if k:
        theta = rng.uniform(0.0, 1.0, size=(k, d))
        rotated = z * np.exp(2j * np.pi * theta)
        torus = float(np.max(np.abs(
            kernel_moment(rotated, data) - kernel_moment(z, data)
        )))
        sigma = rng.uniform(-1.0, 1.0, size=(k, f.kernel.shape[0]))
        theta_n = (sigma @ f.kernel) % 1.0
        moved = z * np.exp(2j * np.pi * theta_n)
        kernel_res = float(np.max(np.abs(
            induced_moment(moved, data, tol=None) - induced_moment(z, data, tol=None)
        )))
    else:
        torus = 0.0
        kernel_res = 0.0
    effectiveness = None
    if len(samples):
        positive = np.min(np.abs(samples.z), axis=1) > 0.0
        hits = np.nonzero(positive)[0]
        if hits.size:
            effectiveness = int(hits[0])
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
    level = float(np.max(np.abs(kernel_moment(sample_set.z, data)))) if sampled else 0.0
    image = verify_moment_image(data, sample_set)
    margin = check_regular_value(data, sample_set)
    margin = None if math.isinf(margin) else margin
    hamiltonian = 0.0
    pairs = min(HAMILTONIAN_PAIRS, len(sample_set))
    if pairs:
        directions = np.random.default_rng([seed, 1]).standard_normal((pairs, data.dim))
        hamiltonian = float(np.max(_hamiltonian_residuals(
            data, sample_set.z[:pairs], directions, HAMILTONIAN_STEP)))
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
