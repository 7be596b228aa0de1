"""Output checks that do not trust quasifold.

Every document is evaluated in floats on its own: theta is the real root
of ``minpoly`` inside ``root_interval``, found by ``numpy.roots``, and
each entry is the polynomial the expression denotes.  A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from families import MANIFOLD, Answer, poly

# Reported floats are certified to 1e-12; facet slacks at a vertex are
# either exactly zero or of order one for every family here.
ACTIVE_TOL = 1e-9
# The verifier's own round-trip and containment tolerance.
SAMPLE_TOL = 1e-8


@dataclass(frozen=True)
class FloatPolytope:
    normals: np.ndarray  # (d, n), row j is X_j
    offsets: np.ndarray  # (d,)

    def slack(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.normals.T - self.offsets


def theta_value(field: dict | None) -> float:
    if field is None:
        return 0.0
    coeffs = [float(poly(c)[0]) for c in field["minpoly"]]
    lo, hi = (float(poly(b)[0]) for b in field["root_interval"])
    roots = np.roots(coeffs[::-1])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and lo <= r.real <= hi]
    if len(real) != 1:
        raise ValueError(f"root interval ({lo}, {hi}) does not isolate one real root")
    return real[0]


def float_polytope(doc: dict) -> FloatPolytope:
    theta = theta_value(doc.get("field"))

    def value(entry) -> float:
        return sum(float(c) * theta ** k for k, c in enumerate(poly(entry)))

    facets = doc["facets"]
    normals = np.array([[value(e) for e in f["normal"]] for f in facets], dtype=float)
    offsets = np.array([value(f["offset"]) for f in facets], dtype=float)
    return FloatPolytope(normals.reshape(len(facets), doc["dimension"]), offsets)


def _check_vertices(fp: FloatPolytope, answer: Answer,
                    vertices: list[tuple[list[float], list[int]]]) -> list[str]:
    problems = []
    n = fp.normals.shape[1]
    if len(vertices) != answer.vertices:
        problems.append(f"{len(vertices)} vertices, expected {answer.vertices}")
    seen = set()
    for k, (point, active) in enumerate(vertices):
        slack = fp.slack(point)
        if slack.min() < -ACTIVE_TOL:
            problems.append(f"vertex {k} violates facet {int(slack.argmin())}")
        tight = tuple(int(j) for j in np.nonzero(np.abs(slack) <= ACTIVE_TOL)[0])
        if tight != tuple(active):
            problems.append(f"vertex {k} has active set {tight}, reported {tuple(active)}")
        if answer.simple and len(active) != n:
            problems.append(f"vertex {k} lies on {len(active)} facets, expected {n}")
        if tuple(active) in seen:
            problems.append(f"vertex {k} repeats active set {tuple(active)}")
        seen.add(tuple(active))
    return problems


def check_analyze(doc: dict, answer: Answer, payload: dict) -> list[str]:
    fp = float_polytope(doc)
    d = len(doc["facets"])
    vertices = [(v["float"], v["active_facets"]) for v in payload["vertices"]]
    problems = _check_vertices(fp, answer, vertices)
    if payload["simple"]["simple"] != answer.simple:
        problems.append(f"simple = {payload['simple']['simple']}, expected {answer.simple}")
    if not answer.simple:
        first = next((k for k, (_, a) in enumerate(vertices) if len(a) != doc["dimension"]), None)
        if payload["simple"]["witness_index"] != first:
            problems.append(f"witness {payload['simple']['witness_index']}, expected {first}")
    if payload["rational"]["rational"] != answer.rational:
        problems.append(f"rational = {payload['rational']['rational']}, expected {answer.rational}")
    delzant = payload["delzant"]
    if answer.rational != (delzant is not None):
        problems.append("Delzant block present exactly when rational")
    elif delzant is not None:
        if delzant["integral"] != (answer.kind == MANIFOLD):
            problems.append(f"integral = {delzant['integral']} for kind {answer.kind}")
        if answer.simple:
            # With primitive normals the vertex group order is |det| of the
            # active normals in lattice coordinates.
            orders = [abs(det) for det in delzant["vertex_determinants"]]
            expected = [answer.order(tuple(a), d) for _, a in vertices]
            if orders != expected:
                problems.append(f"vertex determinants {orders}, expected {expected}")
    return problems


def check_construct(doc: dict, answer: Answer, payload: dict) -> list[str]:
    fp = float_polytope(doc)
    d = len(doc["facets"])
    charts = payload["charts"]
    vertices = [(c["vertex"]["float"], c["active_facets"]) for c in charts]
    problems = _check_vertices(fp, answer, vertices)
    cls = payload["classification"]
    if cls["kind"] != answer.kind:
        problems.append(f"kind {cls['kind']}, expected {answer.kind}")
    expected = [answer.order(tuple(a), d) for _, a in vertices]
    if cls["vertex_orders"] != expected or [c["order"] for c in charts] != expected:
        problems.append(f"orders {cls['vertex_orders']}, expected {expected}")
    return problems


def check_verify(doc: dict, report: dict, csv_path: Path, samples: int) -> list[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append(f"verification did not pass: {report.get('failures')}")
    n = doc["dimension"]
    with csv_path.open() as handle:
        header = handle.readline().strip().split(",")
    expected_header = [f"mu_{i + 1}" for i in range(n)] + [f"phi_{i + 1}" for i in range(n)]
    if header != expected_header:
        problems.append(f"CSV header {header}")
        return problems
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (samples, 2 * n):
        problems.append(f"CSV holds {rows.shape[0]} rows of width {rows.shape[1]}, "
                        f"expected {samples} of width {2 * n}")
        return problems
    mu, phi = rows[:, :n], rows[:, n:]
    worst_slack = float(float_polytope(doc).slack(mu).min())
    if worst_slack < -SAMPLE_TOL:
        problems.append(f"a sampled mu lies outside the polytope (slack {worst_slack:.3e})")
    worst_gap = float(np.abs(phi - mu).max())
    if worst_gap > SAMPLE_TOL:
        problems.append(f"|Phi - mu| reaches {worst_gap:.3e}")
    return problems


def f_vector(doc: dict) -> tuple[int, int, int]:
    """(vertices, edges, facets) by brute force in floats: vertices from
    every invertible n-subset of facet equations, edges as vertex pairs
    whose common facets have normal rank n-1, facets as inequalities whose
    vertices span a hyperplane."""
    fp = float_polytope(doc)
    d, n = fp.normals.shape
    points: dict[tuple, np.ndarray] = {}
    for subset in combinations(range(d), n):
        a = fp.normals[list(subset)]
        if np.linalg.matrix_rank(a) < n:
            continue
        x = np.linalg.solve(a, fp.offsets[list(subset)])
        if fp.slack(x).min() >= -ACTIVE_TOL:
            points.setdefault(tuple(np.round(x, 9)), x)
    verts = list(points.values())
    active = [set(np.nonzero(np.abs(fp.slack(v)) <= ACTIVE_TOL)[0]) for v in verts]
    edges = sum(
        1 for i, j in combinations(range(len(verts)), 2)
        if (common := sorted(active[i] & active[j]))
        and np.linalg.matrix_rank(fp.normals[common]) == n - 1
    )
    facets = 0
    for j in range(d):
        on = [v for v, act in zip(verts, active) if j in act]
        if len(on) >= n and np.linalg.matrix_rank(np.array(on[1:]) - on[0]) == n - 1:
            facets += 1
    return len(verts), edges, facets
