"""Self-tests of the benchmark's generators, checks and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import bench
import checks
import families
import tracing

ANSWERED = {f.name: f for w in bench.workloads(lambda name: None).values()
            for f in w.inputs if f.answer is not None}


@pytest.fixture(scope="module")
def cli():
    return bench.load_quasifold()


def _instance(name: str, seed: int = 0) -> tuple[families.Family, dict]:
    family = ANSWERED.get(name) or families.projective_space(int(name[2:]))
    return family, families.instantiate(family, families.op_rng(seed, 0, name))


def _run(cli, tmp_path, doc: dict, *argv) -> dict:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--input", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", sorted(ANSWERED))
def test_generators_have_the_stated_f_vector(name):
    family, doc = _instance(name, seed=3)
    assert checks.f_vector(doc) == family.answer.f_vector


def test_checker_rejects_a_vertex_moved_outside(cli, tmp_path):
    family, doc = _instance("cube3")
    payload = _run(cli, tmp_path, doc, "analyze")
    assert checks.check_analyze(doc, family.answer, payload) == []
    vertex = payload["vertices"][0]
    normal = checks.float_polytope(doc).normals[vertex["active_facets"][0]]
    vertex["float"] = list(np.array(vertex["float"]) - normal)
    assert checks.check_analyze(doc, family.answer, payload)


def test_checker_rejects_a_wrong_kind(cli, tmp_path):
    family, doc = _instance("wcp3")
    payload = _run(cli, tmp_path, doc, "construct")
    assert checks.check_construct(doc, family.answer, payload) == []
    payload["classification"]["kind"] = families.MANIFOLD
    assert checks.check_construct(doc, family.answer, payload)


def test_checker_rejects_a_csv_row_off_the_polytope(cli, tmp_path):
    _, doc = _instance("cp2")
    csv_path = tmp_path / "pairs.csv"
    report = _run(cli, tmp_path, doc, "verify", "--samples", "500", "--csv", str(csv_path))
    assert checks.check_verify(doc, report, csv_path, 500) == []
    lines = csv_path.read_text().splitlines()
    lines[1] = "-5.0,-5.0,-5.0,-5.0"
    csv_path.write_text("\n".join(lines) + "\n")
    assert checks.check_verify(doc, report, csv_path, 500)


def test_same_seed_same_documents_different_seed_different_documents():
    for name, family in ANSWERED.items():
        first = families.instantiate(family, families.op_rng(7, 0, name))
        assert first == families.instantiate(family, families.op_rng(7, 0, name))
        assert first != families.instantiate(family, families.op_rng(8, 0, name))


def _traced_counts(cli, tmp_path, seed: int) -> dict:
    small = (
        bench.Workload("analyze", (families.cube(3), families.octahedron())),
        bench.Workload("construct", (families.weighted_projective_space(3),
                                         families.skewed_simplex(3))),
        bench.Workload("verify", (families.projective_space(2),)),
    )
    tracer = tracing.Tracer(tracing.quasifold_modules())
    tracer.install()
    try:
        for workload in small:
            bench.run_pass(tracer.entry(cli.main), workload, seed, 1, tmp_path, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.pass_metrics(*tracer.take())
    return {k: v for k, v in metrics.items() if tracing.LAYER_METRICS[k][0] != "s"}


def test_same_seed_same_counts(cli, tmp_path):
    mul = cli.parse_polytope.__globals__["Scalar"].__mul__
    first = _traced_counts(cli, tmp_path, seed=5)
    assert first == _traced_counts(cli, tmp_path, seed=5)
    # classify and the report each visit every vertex; verify only classifies.
    assert first["construction.structure_group_calls"] == 2 * (4 + 4) + 3
    assert first["lattices.smith_calls"] > 0
    assert first["verify.sample_calls"] == 2
    assert cli.parse_polytope.__globals__["Scalar"].__mul__ is mul
