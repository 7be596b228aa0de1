"""Command line surface: exit codes, report shapes, artifact files."""

import argparse
import csv
import hashlib
import json
import math
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasifold import (
    build_construction, builtin_names, cli, construction_report, csvtext, lattices,
    parse_polytope,
)
from quasifold.cli import _json_text, _write_csv, main
from quasifold.verify import sample_level_set

from conftest import construct_builtin, cross_polytope_document, load_builtin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# examples / analyze / construct
# --------------------------------------------------------------------------

def test_examples_lists_corpus(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    names = [line.split()[0] for line in out.strip().splitlines()]
    for expected in ("sphere", "pentagon", "octahedron", "teardrop-3", "cube"):
        assert expected in names


def test_analyze_pentagon(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "pentagon")
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"]["simple"] is True
    assert payload["rational"]["rational"] is False
    assert payload["delzant"] is None
    assert len(payload["vertices"]) == 5


def test_analyze_square(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "square")
    assert code == 0
    payload = json.loads(out)
    assert payload["rational"]["rational"] is True
    assert payload["delzant"]["integral"] is True


def test_analyze_octahedron_reports_not_simple(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "octahedron")
    assert code == 0
    assert json.loads(out)["simple"]["simple"] is False


def test_construct_teardrop(capsys):
    code, out, _ = run(capsys, "construct", "--builtin", "teardrop-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["kind"] == "orbifold"
    assert payload["classification"]["vertex_orders"] == [1, 3]


def test_construct_interval_sqrt2(capsys):
    code, out, _ = run(capsys, "construct", "--builtin", "interval-sqrt2")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["kind"] == "quasifold"
    assert all(chart["finite"] is False for chart in payload["charts"])


def test_construct_octahedron_exit_2(capsys):
    code, _, err = run(capsys, "construct", "--builtin", "octahedron")
    assert code == 2
    assert "NotSimple" in err


def test_construct_cross5_exit_2(capsys, tmp_path):
    # 16 facets meet at each vertex; the refusal costs one walk of 240
    # lexicographically feasible bases.
    path = tmp_path / "cross5.json"
    path.write_text(json.dumps(cross_polytope_document(5)))
    code, out, err = run(capsys, "construct", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "NotSimple: vertex 0 lies on 16 facets, expected 5\n"


def test_analyze_cross6_within_budget(capsys, tmp_path):
    # 1,440 bases for 12 vertices; the walk that followed every tie took
    # 5.7 s on cross5 alone (2-vCPU Xeon).
    path = tmp_path / "cross6.json"
    path.write_text(json.dumps(cross_polytope_document(6)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "analyze", "--input", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 12
    assert payload["simple"]["simple"] is False


def test_construct_rational_200_gon_within_budget(capsys, tmp_path):
    # Rational points of the unit circle over a 928-bit common denominator;
    # with the orders from Smith forms this took about 10 s (2-vCPU Xeon).
    ts = [Fraction(math.tan(math.pi * (k + 0.25) / 200)).limit_denominator(60)
          for k in range(200)]
    path = tmp_path / "rational-200-gon.json"
    path.write_text(json.dumps({"dimension": 2, "facets": [
        {"normal": [str((1 - t * t) / (1 + t * t)), str(2 * t / (1 + t * t))], "offset": "-1"}
        for t in ts]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "construct", "--input", str(path))
    assert time.perf_counter() - start < 6.0
    assert code == 0
    assert json.loads(out)["classification"]["kind"] == "orbifold"


def test_internal_inconsistency_exit_2(capsys, monkeypatch):
    # an input outside its own Hermite lattice is a fault of the program
    monkeypatch.setattr(lattices, "hnf_coordinates", lambda *args: None)
    code, _, err = run(capsys, "construct", "--builtin", "square")
    assert code == 2
    assert "InternalInconsistency" in err


def test_unknown_builtin_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--builtin", "dodecahedron")
    assert code == 2


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/nonexistent/poly.json")
    assert code == 1
    assert "I/O error" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--input", str(bad))
    assert code == 2


def test_non_utf8_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"dimension": 1, "facets": []} \N{LATIN SMALL LETTER E WITH ACUTE}'
                    .encode("latin-1"))
    code, out, err = run(capsys, "construct", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("SchemaError: ") and "not valid JSON: 'utf-8' codec" in err
    assert err.count("\n") == 1


def test_overlong_integer_literal_exit_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "0"},
                   {"normal": ["-1"], "offset": "-" + "1" * 5000}],
    }))
    code, out, err = run(capsys, "construct", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "ScalarSyntaxError: integer literal of 5000 digits is too long\n"


@pytest.mark.parametrize("command", ["analyze", "construct"])
@pytest.mark.parametrize("offset", ["-10^5000", "-2^300000"])
def test_power_past_the_digit_limit_exit_2(capsys, tmp_path, command, offset):
    # Such a power is refused before it is computed.
    path = tmp_path / "power.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "0"},
                   {"normal": ["-1"], "offset": offset}],
    }))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"ScalarSyntaxError: power ^{offset.split('^')[1]} exceeds 4300 digits\n"


@pytest.mark.parametrize("command", ["analyze", "construct"])
@pytest.mark.parametrize("offset, message", [
    ("-10^3000*10^3000", "value exceeds 4300 digits"),
    ("-10^3000", "value is past the largest double"),
])
def test_value_too_large_to_write_exit_2(capsys, tmp_path, command, offset, message):
    # Each power parses; the value cannot be written as text or as a double.
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "0"},
                   {"normal": ["-1"], "offset": offset}],
    }))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"ScalarTooLarge: {message}\n"


def _interval_with_offset(offset):
    return json.dumps({"dimension": 1,
                       "facets": [{"normal": ["1"], "offset": offset},
                                  {"normal": ["-1"], "offset": "-2"}]})


@pytest.mark.parametrize("command", ["analyze", "construct", "verify"])
@pytest.mark.parametrize("text, error", [
    (_interval_with_offset("(" * 400 + "0" + ")" * 400),
     "ScalarSyntaxError: expression nested too deeply"),
    (_interval_with_offset("-" * 3000 + "1"), "ScalarSyntaxError: expression nested too deeply"),
    ("[" * 100_000 + "]" * 100_000, "SchemaError: {path}: JSON nested too deeply"),
], ids=["parentheses", "signs", "arrays"])
def test_deep_nesting_exit_2(capsys, tmp_path, command, text, error):
    # Each would overflow Python's recursion limit, which is not an I/O error.
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == error.format(path=path) + "\n"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs Python's limit on integer string conversion below 5000 digits")
@pytest.mark.parametrize("command", ["analyze", "construct", "verify", "plot"])
@pytest.mark.parametrize("text", [
    '{"dimension": ' + "9" * 5000 + ', "facets": []}',
    _interval_with_offset(0).replace("0", "9" * 5000, 1),
], ids=["dimension", "offset"])
def test_integer_literal_past_the_digit_limit_exit_2(capsys, tmp_path, command, text):
    # json.loads raises a bare ValueError when int() refuses the literal.
    path, csv_path = tmp_path / "big.json", tmp_path / "samples.csv"
    path.write_text(text)
    extra = ["--csv", str(csv_path)] if command == "plot" else []
    code, out, err = run(capsys, command, "--input", str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"SchemaError: {path}: not valid JSON: Exceeds the limit")
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ["analyze", "construct"])
@pytest.mark.parametrize("document, where", [
    ({"dimension": 1,
      "facets": [{"normal": ["1"], "offset": "0"}, {"normal": ["-1"], "offset": "-1-theta"}]},
     "facet 1"),
    ({"dimension": 1,
      "facets": [{"normal": ["theta"], "offset": "0"}, {"normal": ["-1"], "offset": "-1"}]},
     "facet 0"),
    ({"dimension": 1,
      "facets": [{"normal": ["1"], "offset": "0"}, {"normal": ["-1"], "offset": "-1"}],
      "quasilattice_extra_generators": [["2*θ"]]},
     "extra generator 0"),
], ids=["offset", "normal", "extra-generator"])
def test_theta_without_a_field_exit_2(capsys, tmp_path, command, document, where):
    # Over Q, theta would evaluate to 0: the offset -1-theta would be read
    # as -1 and the normal theta as a zero vector.
    path = tmp_path / "no-field.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"SchemaError: {where}: ")
    assert err.endswith("names theta, but the document has no 'field' section\n")


@pytest.mark.parametrize("command", ["analyze", "construct"])
def test_theta_power_without_a_field_names_the_facet_exit_2(capsys, tmp_path, command):
    # The theta name is checked before the entry is evaluated, so the
    # error names the facet, not the size of theta^100000.
    path = tmp_path / "no-field.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "theta^100000"},
                   {"normal": ["-1"], "offset": "-1"}],
    }))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == ("SchemaError: facet 0: 'theta^100000' names theta, "
                   "but the document has no 'field' section\n")


@pytest.mark.parametrize("command", ["analyze", "construct"])
@pytest.mark.parametrize("extras", [0, False, "", {}, "ab", None],
                         ids=["zero", "false", "empty-string", "empty-object", "string", "null"])
def test_extra_generators_must_be_a_list_exit_2(capsys, tmp_path, command, extras):
    path = tmp_path / "extras.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "0"}, {"normal": ["-1"], "offset": "-1"}],
        "quasilattice_extra_generators": extras,
    }))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "SchemaError: 'quasilattice_extra_generators' must be a list\n"


def test_one_facet_document_refused_quickly(capsys, tmp_path):
    n = 3000
    path = tmp_path / "one-facet.json"
    path.write_text(json.dumps({
        "dimension": n, "facets": [{"normal": ["1"] + ["0"] * (n - 1), "offset": "0"}],
    }))
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"NormalsDontSpan: facet normals span a proper subspace of R^{n}\n"


def test_input_file_round_trip(capsys, tmp_path):
    from quasifold import builtin_document
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(builtin_document("triangle-sqrt2")))
    code, out, _ = run(capsys, "construct", "--input", str(path))
    assert code == 0
    assert json.loads(out)["classification"]["kind"] == "quasifold"


def test_invalid_document_exit_2(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "facets": [{"normal": ["1", "0"], "offset": "0"},
                   {"normal": ["0", "1"], "offset": "0"}],
    }))
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "UnboundedPolytope" in err


# sha256 of analyze / construct stdout for every corpus entry.  The
# octahedron is not simple, so construct refuses it (pinned below).
GOLDEN_DIGESTS = {
    "cp2": (
        "422cfc1e87001053b55bc0ffc5ca98420c77d5727000012c0b94a789281032a5",
        "a75442667bc3f3d3cb2ca2600c0660ddab71858acbac76ab4e651e866d45f575",
    ),
    "cube": (
        "31f44af8d929c0aca45e7f501f74765fe3be6c3debda5bd1bc11b2961b4ef225",
        "478d0d609f923a61352b569252c5454252fd50061c519db2dd18e6321d51096b",
    ),
    "interval-sqrt2": (
        "7e6e976ae8167d14fcf0a2be623898d8d8d9041a3d0de1a0492347869831bf0a",
        "e50059b7978929d96b2c4543b2f61a80552cf576e79183e27c8fed3a0d408733",
    ),
    "octahedron": (
        "df2798686319d304029339336d00bb3a8a96262676aa5059b3bf9b3ea9669d27",
        None,
    ),
    "pentagon": (
        "5f15a995472d060ffe33ac671d93270683668e6426de608f2900db7eb42a63f6",
        "ba3ae274a5576400014cab6f6751105bfe070c2b14794c4f515b62bd4e27fd06",
    ),
    "rugby-2": (
        "74b91944c188d4ad8cda13913a355acee1ecf295c7705bd1ccf25f443c43a650",
        "56802af9633c614870f400f69b0c51cf36747e7b6d513484f33f555f8e06f415",
    ),
    "rugby-3": (
        "5b70ccae7abebf7d6353d2123fb5c29afb3e6c0210295621a331e37fc3fc3c1c",
        "0be86bcb283544c3231a3890a6a9b0324564a4bb80f65a9dcaafd10c06ef50e2",
    ),
    "rugby-5": (
        "8e774ded65e654c32b220c048cffbe79502b903b7bfa804d73dbdefbcee53d18",
        "5b49c256c4ed828e8fafcae6f8f0ada7182bc4fdb4a57346b8404b7441764644",
    ),
    "sphere": (
        "338a8d39903dd2d6f6a5e589f46e87160cef28d65d45f7aa33ead93ab5522ba9",
        "e6149f62fe7914126cc18afcb38b0ac1588cc90b1f34bdb03bade7e5ebb10f16",
    ),
    "square": (
        "19c0f3e0fdbaa79ae0edddf3359dc560edc30b43105fd0a758005bbeac0eda05",
        "b3e6ec75ee8a7b1807f115e89e2b331271934bbc3ecbf766adf32c5b2d876a48",
    ),
    "teardrop-2": (
        "6025b41cbdfaf1ea8a71fc2d3935b531eee6776ee7adf09054c073f4747464a8",
        "751c834b17221fc2ddc104e49b9f053521d9383a6599b7de5a8ab50cce020aa8",
    ),
    "teardrop-3": (
        "fe3daa14dc1efe1716fe918cbb4b42b996cc3c236e5a5c86ac8941336d574eb1",
        "0a712799c01312899ddf6a9eda3e8684b08f606d2af57f40ba8da4fed51ec746",
    ),
    "teardrop-5": (
        "802d68f3c6162785ded01e7758ab3f837fa93a2864d21bf0729fe4d05b4ef6ca",
        "59d505437a793a41534f72c6103c6a2c19cb40af181e3c8fe24fbd9193022b6c",
    ),
    "triangle-sqrt2": (
        "b47f22dfd0fbd6daeb73c696baa81de6ff9b7bbd659781f400a10437151e312e",
        "a2112d182877b4bbd2218df8e19c083593ca201bf5d3f6469542da5f921692f2",
    ),
}


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, construct) in GOLDEN_DIGESTS.items() if construct))
def test_analyze_and_construct_render_vertices_alike(capsys, name):
    # construct runs more sign tests than analyze before it renders
    _, analyzed, _ = run(capsys, "analyze", "--builtin", name)
    _, constructed, _ = run(capsys, "construct", "--builtin", name)
    assert ([v["float"] for v in json.loads(analyzed)["vertices"]]
            == [c["vertex"]["float"] for c in json.loads(constructed)["charts"]])


def test_golden_digests_cover_the_corpus():
    assert sorted(GOLDEN_DIGESTS) == sorted(builtin_names())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_stdout_bytes_match_golden_digests(capsys, name):
    analyze_digest, construct_digest = GOLDEN_DIGESTS[name]
    code, out, err = run(capsys, "analyze", "--builtin", name)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == analyze_digest
    code, out, err = run(capsys, "construct", "--builtin", name)
    if construct_digest is None:
        assert (code, out) == (2, "")
        assert err == "NotSimple: vertex 0 lies on 4 facets, expected 3\n"
    else:
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == construct_digest


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_writes_report_and_csv(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "pairs.csv"
    code, _, _ = run(capsys, "verify", "--builtin", "square",
                     "--samples", "64", "--seed", "5",
                     "--out", str(out_json), "--csv", str(out_csv))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["passed"] is True
    assert payload["sample_count"] == 64
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "mu_1,mu_2,phi_1,phi_2"
    assert len(lines) == 65


def test_verify_csv_shows_the_verified_samples(capsys, tmp_path):
    out_csv = tmp_path / "pairs.csv"
    code, _, _ = run(capsys, "verify", "--builtin", "cp2", "--samples", "300",
                     "--seed", "4", "--csv", str(out_csv))
    assert code == 0
    with out_csv.open() as handle:
        rows = list(csv.reader(handle))[1:]
    mu = np.array([[float(x) for x in row[:2]] for row in rows])
    expected = sample_level_set(construct_builtin("cp2"), 300, seed=4).mu
    assert np.array_equal(mu, expected)


def _csv_writer_bytes(path, mus, phis):
    """The CSV as csv.writer writes it from repr(float) fields."""
    n = mus.shape[1]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"mu_{i + 1}" for i in range(n)]
                        + [f"phi_{i + 1}" for i in range(n)])
        for mu, phi in zip(mus, phis):
            writer.writerow([repr(float(v)) for v in mu] + [repr(float(v)) for v in phi])
    return path.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(0)
    # More rows than one write chunk, plus values whose repr is unusual.
    mus = rng.standard_normal((2500, 3))
    phis = rng.standard_normal((2500, 3))
    mus[0] = [-0.0, 5e-324, 1e300]
    phis[1] = [1e-300, -1e300, 0.1]
    _write_csv(tmp_path / "fast.csv", mus, phis)
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "oracle.csv", mus, phis)


_SHAPES = st.tuples(st.integers(1, 300), st.integers(1, 12))
# st.floats() includes nan, +-inf, subnormals and -0.0; raw bit patterns
# reach every exponent.
_FLOAT_ARRAYS = st.one_of(
    arrays(np.float64, _SHAPES, elements=st.floats()),
    arrays(np.uint64, _SHAPES).map(lambda bits: bits.view(np.float64)),
)


def _check_writer(tmp_path, values):
    # Odd widths too: mus takes the first half of the columns, rounded up.
    half = (values.shape[1] + 1) // 2
    mus, phis = values[:, :half], values[:, half:]
    _write_csv(tmp_path / "fast.csv", mus, phis)
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "oracle.csv", mus, phis)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_FLOAT_ARRAYS)
def test_csv_kernel_matches_csv_writer(tmp_path, values):
    _check_writer(tmp_path, values)


def _neighbours(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


# Shortest reprs of 1 to 17 significant digits.
_DIGIT_LENGTHS = [1.0, 1.2, 1.23, 1.234, 1.2345, 1.23456, 1.234567, 1.2345678,
                  1.23456789, 1.234567891, 1.2345678912, 1.23456789123,
                  1.234567891234, 1.2345678912345, 1.23456789123456,
                  1.234567891234567, 0.1 + 0.2]


def test_csv_kernel_edge_cases(tmp_path):
    digits = [len(repr(v).replace(".", "").strip("0")) for v in _DIGIT_LENGTHS]
    assert digits == list(range(1, 18))
    # 1e-14 is the double just below 10^-14 whose 17-digit rounding
    # carries to 10^17 (at scale 10^31).
    carry = 1e-14
    assert Fraction(carry) < Fraction(1, 10**14)
    # Exactly halfway between two 16-digit strings that both read back.
    tie = 0.0009260177612304688
    values = [*_neighbours(1e-4), 9999999999999998.0, 1e16, 0.1 + 0.2,
              5e-324, 1.7976931348623157e308, carry, tie, *_DIGIT_LENGTHS]
    for e in range(-14, 54):
        values += _neighbours(2.0**e)
    values = np.array(values + [-v for v in values])
    _check_writer(tmp_path, values[:, None])
    _check_writer(tmp_path, values.reshape(-1, 2))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_FLOAT_ARRAYS)
def test_csv_kernel_matches_csv_writer_across_chunks(tmp_path, monkeypatch, values):
    # Small chunks: each example spans several, and the chunks of one call
    # share the field buffer.
    monkeypatch.setattr(csvtext, "_CHUNK_VALUES", 64)
    _check_writer(tmp_path, values)


def test_csv_chunks_of_disjoint_scales(tmp_path, monkeypatch):
    monkeypatch.setattr(csvtext, "_CHUNK_VALUES", 64)
    rng = np.random.default_rng(18)
    signs = rng.choice([-1.0, 1.0], 64)
    # Chunks of 64 values (16 rows of 4): every lane left to repr; small
    # fractions and one 14-digit integer left to repr; values near 1e15
    # (15 and 16 integer digits); powers of two and their neighbours; the
    # doubles around powers of ten, where the scale k steps.
    only_repr = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.0**46], 64)
    small = signs * rng.uniform(1e-4, 1e-2, 64)
    small[7] = 2.0**46
    near_1e15 = signs * (1e15 + rng.uniform(-2e14, 2e14, 64))
    twos = [v for e in range(-13, 51, 3) for v in _neighbours(2.0**e)][:64]
    tens = np.resize([v for m in range(-4, 17) for v in _neighbours(float(f"1e{m}"))], 64)
    values = np.concatenate([only_repr, small, near_1e15, twos, tens]).reshape(-1, 4)
    _check_writer(tmp_path, values)


@pytest.mark.parametrize("rows", [0, 1, 2503])
def test_csv_of_two_blocks_matches_the_stacked_array(tmp_path, monkeypatch, rows):
    # Chunks of 10 rows of 6 values, the last one partial: each chunk's
    # rows of mu and Phi are copied side by side into one reused buffer.
    monkeypatch.setattr(csvtext, "_CHUNK_VALUES", 64)
    rng = np.random.default_rng(20)
    mus = rng.standard_normal((rows, 3))
    phis = rng.standard_normal((rows, 3))
    _write_csv(tmp_path / "pairs.csv", mus, phis)
    stacked = b"".join(csvtext.csv_chunks(np.hstack([mus, phis])))
    header = b"mu_1,mu_2,mu_3,phi_1,phi_2,phi_3\r\n"
    assert (tmp_path / "pairs.csv").read_bytes() == header + stacked
    assert stacked.count(b"\r\n") == rows


def test_csv_chunks_peak_memory():
    # Fields, mask and the digit search's arrays of one 8192-value chunk;
    # the field buffer is shared by the chunks.
    rows = np.random.default_rng(0).standard_normal((10000, 12))
    tracemalloc.start()
    try:
        for _ in csvtext.csv_chunks(rows):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_csv_kernel_formats_nearly_every_sample(capsys, tmp_path, monkeypatch):
    # repr formats only the lanes the kernel's argument does not cover;
    # a quiet regression that sends more of them there shows here.
    slow = []
    shortest = csvtext._shortest

    def recording(x):
        result = shortest(x)
        slow.append(result[-1])
        return result

    monkeypatch.setattr(csvtext, "_shortest", recording)
    code, _, _ = run(capsys, "verify", "--builtin", "pentagon", "--samples", "10000",
                     "--csv", str(tmp_path / "pairs.csv"))
    assert code == 0
    lanes = np.concatenate(slow)
    assert lanes.size == 10000 * 4
    assert np.count_nonzero(lanes) <= 0.01 * lanes.size


# sha256 of the `verify --samples 2000 --seed 0 --csv` file for every
# constructible corpus entry.
VERIFY_CSV_DIGESTS = {
    "cp2": "2d17357d72d27784aa01ca905be336026ed0bcf49802c7518dfb7b3302eea3c1",
    "cube": "9758e1c709af98081374fba29a21561c36250dfcc9c17e1cf9e7c1c8a9815fb6",
    "interval-sqrt2": "524f578fc8e7a543ee730973afb5b8b5bbaf0ba77adefb44a713307c3c8bd4ca",
    "pentagon": "2e9b3b0ebbae6cc8f3d0d225f2cd57ab15c6e7417563f3cf0ca113d14fa5846f",
    "rugby-2": "d3d924e6b8e5f680a490defe59535c063f6adf43bbdb614ed4edae21dd7aa258",
    "rugby-3": "f7dae3af29e156b648678a331643de97faf812dbaf7f461c1b0b111ef5ff96a0",
    "rugby-5": "793049b84259570c41ce2d92027b44bf104bcbe787caabf384e5fc93e5e1a528",
    "sphere": "4cd3e368c36e81130256653f3bd167aad776e881360324875bdf1971ce635681",
    "square": "f92fe95917324e81d19ceba4b506199c1f6bd377bbaa596fb01a11b39d65acc5",
    "teardrop-2": "c1da7937fab24ca58ce82c30f0da71155176877820cad122edba99046efb3c48",
    "teardrop-3": "7aa0706cfebf93fed76958e4437ce1e4c8ae863219af0446b605f131c2062794",
    "teardrop-5": "797f7353281ce627bf3d77686f882454a144a2fe6ec9e8d61aad5f956b5523f2",
    "triangle-sqrt2": "219a4fd5e778712abf9536f0d059e39adb289af2b463f6a1711317b3ff41d27d",
}


def test_verify_csv_digests_cover_the_constructible_corpus():
    assert sorted(VERIFY_CSV_DIGESTS) == sorted(
        name for name in builtin_names() if GOLDEN_DIGESTS[name][1] is not None)


@pytest.mark.parametrize("name", sorted(VERIFY_CSV_DIGESTS))
def test_verify_csv_bytes_match_golden_digests(capsys, tmp_path, name):
    out_csv = tmp_path / "pairs.csv"
    code, _, err = run(capsys, "verify", "--builtin", name, "--samples", "2000",
                       "--seed", "0", "--csv", str(out_csv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == VERIFY_CSV_DIGESTS[name]

# sha256 of the `verify --seed 0` JSON stdout for every constructible corpus
# entry, at 2000 samples and at 0 samples.
VERIFY_JSON_DIGESTS = {
    "cp2": (
        "4448c526633b11cb54a2fa9531107d00c2e23c2a83a6be60e1c0af48d3e0fb90",
        "982ea2d9e37ba1ff7dc0a89ee1f4db187323b7d266d85e7605f722912dd55fb8",
    ),
    "cube": (
        "cc99c051f67bb878bb1f6ee73cb088aa3730af183d222c030465e02b1407a79f",
        "b7d929bb1658516dfa5fd321ffd54f8e3d1f33a095a4796d110840f6bb5cc0af",
    ),
    "interval-sqrt2": (
        "1f19344a12eb073d79ab457318ddc0d1e8018bc0506b3f90d6ad0ca33c3b8309",
        "88f8f129804a6fff0c11bd383e54da473de229d0acd383484e6d0436d8eca805",
    ),
    "pentagon": (
        "891777f1bd6e44b23c6b10fe78052c46fa5a16b9998e41b139db024c8318d71e",
        "0bea86957873a7a25a5798a435e973cedea6d5400c4da107c0a8423bbe77f83b",
    ),
    "rugby-2": (
        "756a17bd7ff4a318f72b5b3f823e2756126238ec0bfe6071e2e1a61a9bef3a5e",
        "47c4d41ed3e478953ebfe3e43140f784e9c522206828c018283a79d4f9104234",
    ),
    "rugby-3": (
        "843007eec34481012c7b81edebafe45a554da246bfacf36a92791d1f36ad04ef",
        "461f6f5885138a28b6d189fa4c6c8d415bfdb661ac878b047feeda805801cd1f",
    ),
    "rugby-5": (
        "437f47ba6a9ebfb0ac83df5afee712f374d6213f822d488c9ca9f294d4872cbf",
        "f3d512224c293a843c48b0ddebb4e0494e9caa1116b875dfdff65aeefdf181ed",
    ),
    "sphere": (
        "5f859f48ab175838ab25662aadc74093e5e9b397bb3474cafb364725ce869989",
        "0dce031ad6a1e1b556d8da38e5bae9601acf3a3e4cb995bdfde0e5a2f1e8450f",
    ),
    "square": (
        "40507c69d7c7ab6667b36b0c17d2fc9bb48896a83638886a539eb4022be5aa90",
        "1db3999c4c5a23738d1407b5c36b4b32602cae8af33acb593f9d37259387b2eb",
    ),
    "teardrop-2": (
        "1070f4d53998623575f077d5ec391a41e8888897c5cebbed2a4be34043710817",
        "93f2c346362e881f709406345c6697dce8f18be95243f5f5910d8e32d9f5ed8e",
    ),
    "teardrop-3": (
        "a3e22644e933c3a08eef734d55aeb06af87b1de26f91af5e6bdc1a0f56394393",
        "bcd083be7eec53b8f7c384f8f7c27f6f43bf7ad294f59074e110123c13c5c92e",
    ),
    "teardrop-5": (
        "0fea5220767075f8287207d4db7bdf9f892126f0623fe57a1ffd424186a8e8cf",
        "3166eaa932d60560f0a728edb62db2890b54bd97afb0c0fcaedd4900554461db",
    ),
    "triangle-sqrt2": (
        "e24620f4d054ee272e117761a51f63d4cd666af616e72754b3dd1c400c884fa4",
        "6dfbc08ad08cb63d3f6ae674acd6119b1e88e9eb945e9413fe425a83dfbbb302",
    ),
}


def test_verify_json_digests_cover_the_constructible_corpus():
    assert sorted(VERIFY_JSON_DIGESTS) == sorted(
        name for name in builtin_names() if GOLDEN_DIGESTS[name][1] is not None)


@pytest.mark.parametrize("name", sorted(VERIFY_JSON_DIGESTS))
def test_verify_json_bytes_match_golden_digests(capsys, name):
    for samples, digest in zip(("2000", "0"), VERIFY_JSON_DIGESTS[name]):
        code, out, err = run(capsys, "verify", "--builtin", name,
                             "--samples", samples, "--seed", "0")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the JSON stdout and of the --csv file of `verify --samples 2000
# --seed 0` on CP^n, n = 4..6, given as a document: the corpus holds no
# entry with more than three dimensions.
VERIFY_PROJECTIVE_DIGESTS = {
    4: ("ae32ea229c4957572dbd024e24d1e161a64ea1dd4417eb25c76da52bdbdefbcf",
        "d8671093d215abc614ee3cad97d7aea6dfcb1a11359d7958a4f556dea32f6e69"),
    5: ("d0720aec0985b140f7beab474195efebb360c0d4c819feba927c7e89141369bd",
        "fa47573bb8dc2040ddd8f8e2077a2712601f1e7bb27dd9a6e1142ee072c6f28d"),
    6: ("47de4243ba1770a94747e6d8d035323a71c69cfe510a9814f734447011048dc0",
        "ddc776af51801bf186be24bef3c2f58bd44f6ad8c60be161e45da73948fe22b1"),
}


def _projective_space(n):
    """The standard n-simplex, the moment polytope of CP^n."""
    return {
        "dimension": n,
        "facets": [{"normal": [str(int(i == j)) for j in range(n)], "offset": "0"}
                   for i in range(n)]
        + [{"normal": ["-1"] * n, "offset": "-1"}],
    }


@pytest.mark.parametrize("n", sorted(VERIFY_PROJECTIVE_DIGESTS))
def test_verify_projective_space_bytes_match_golden_digests(capsys, tmp_path, n):
    document = tmp_path / "cp.json"
    document.write_text(json.dumps(_projective_space(n)))
    out_csv = tmp_path / "pairs.csv"
    code, out, err = run(capsys, "verify", "--input", str(document), "--samples", "2000",
                         "--seed", "0", "--csv", str(out_csv))
    assert (code, err) == (0, "")
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(out_csv.read_bytes()).hexdigest()) == VERIFY_PROJECTIVE_DIGESTS[n]


def test_verify_zero_samples_csv_is_header_only(capsys, tmp_path):
    out_csv = tmp_path / "pairs.csv"
    code, _, _ = run(capsys, "verify", "--builtin", "cube", "--samples", "0",
                     "--csv", str(out_csv))
    assert code == 0
    empty = np.zeros((0, 3))
    assert out_csv.read_bytes() == _csv_writer_bytes(tmp_path / "oracle.csv", empty, empty)
    assert out_csv.read_bytes() == b"mu_1,mu_2,mu_3,phi_1,phi_2,phi_3\r\n"


@pytest.mark.parametrize("option, failure", [
    (("--tol-roundtrip", "1e-30"), "max_roundtrip_error"),
    # The rank margin is a ratio of singular values, at most 1.
    (("--tol-rank", "1"), "min_rank_margin"),
], ids=["roundtrip", "rank"])
def test_verify_threshold_failure_exit_3(capsys, option, failure):
    code, out, err = run(capsys, "verify", "--builtin", "square", "--samples", "32", *option)
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    assert failure in payload["failures"]
    assert err == "verification failed: " + ", ".join(payload["failures"]) + "\n"


def test_verify_refuses_samples_whose_gram_matrix_rounds_to_zero(capsys, tmp_path):
    # On [10^300, 10^300 + 1] most samples' float slacks round to 0, so
    # their rank-margin Gram matrix is 0 and the margin 0/0 is NaN.  The
    # cross-check fails closed on NaN, with no numpy warning.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "10^300"},
                   {"normal": ["-1"], "offset": "-10^300 - 1"}],
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--input", str(path), "--samples", "200")
    assert (code, out) == (2, "")
    assert err.startswith("IllConditioned: sample ")


def test_verify_without_samples_skips_the_rank_check(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "square", "--samples", "0",
                       "--tol-rank", "1")
    assert code == 0
    assert json.loads(out)["metrics"]["min_rank_margin"] is None


def test_verify_stdout_byte_stable(capsys):
    _, first, _ = run(capsys, "verify", "--builtin", "teardrop-2",
                      "--samples", "40", "--seed", "9")
    _, second, _ = run(capsys, "verify", "--builtin", "teardrop-2",
                       "--samples", "40", "--seed", "9")
    assert first == second


# --------------------------------------------------------------------------
# plot
# --------------------------------------------------------------------------

def test_plot_pentagon_svg_and_csv(capsys, tmp_path):
    svg = tmp_path / "pent.svg"
    csv_path = tmp_path / "pent.csv"
    code, _, _ = run(capsys, "plot", "--builtin", "pentagon",
                     "--samples", "50", "--svg", str(svg), "--csv", str(csv_path))
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "<polygon" in body
    assert body.count("<circle") == 50
    assert csv_path.read_text().splitlines()[0] == "mu_1,mu_2,phi_1,phi_2"


def test_plot_svg_requires_dimension_two(capsys, tmp_path):
    code, _, err = run(capsys, "plot", "--builtin", "sphere",
                       "--svg", str(tmp_path / "no.svg"))
    assert code == 2
    assert "DimensionUnsupported" in err


def test_plot_csv_only_for_interval(capsys, tmp_path):
    csv_path = tmp_path / "interval.csv"
    code, _, _ = run(capsys, "plot", "--builtin", "interval-sqrt2",
                     "--samples", "16", "--csv", str(csv_path))
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "mu_1,phi_1"


def test_plot_zero_samples_outline_only(capsys, tmp_path):
    svg = tmp_path / "outline.svg"
    csv_path = tmp_path / "outline.csv"
    code, _, _ = run(capsys, "plot", "--builtin", "square",
                     "--samples", "0", "--svg", str(svg), "--csv", str(csv_path))
    assert code == 0
    body = svg.read_text()
    assert "<polygon" in body
    assert "<circle" not in body
    assert csv_path.read_bytes() == b"mu_1,mu_2,phi_1,phi_2\r\n"


@pytest.mark.parametrize("name", sorted(VERIFY_CSV_DIGESTS))
def test_plot_csv_bytes_match_golden_digests(capsys, tmp_path, name):
    # plot draws the same samples as verify and writes the same pairs
    out_csv = tmp_path / "pairs.csv"
    code, _, err = run(capsys, "plot", "--builtin", name, "--samples", "2000",
                       "--seed", "0", "--csv", str(out_csv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == VERIFY_CSV_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(VERIFY_CSV_DIGESTS))
def test_plot_and_verify_write_the_same_csv(capsys, tmp_path, name):
    # plot evaluates Phi as induced_moment(z); verify reads it off the
    # sample set's cached |z|^2.  The two must agree bit for bit.
    written = []
    for command in ("plot", "verify"):
        path = tmp_path / f"{command}.csv"
        code, _, err = run(capsys, command, "--builtin", name, "--samples", "3000",
                           "--seed", "7", "--csv", str(path))
        assert (code, err) == (0, "")
        written.append(path.read_bytes())
    assert written[0] == written[1]


# sha256 of the `plot --samples 2000 --seed 0 --svg` file for every planar
# constructible corpus entry.
PLOT_SVG_DIGESTS = {
    "cp2": "afdd0efd4417fce4151af8ce7f778087df5b8c1883f874bd840896a26ed7b248",
    "pentagon": "1b64ff3e565b405163f73c418b0a0a59e9cd42b3bb577964d6f6dfeed2bd7ee3",
    "square": "cdbf4434e980cd3538bcf692fb45d6af2d6e4dc2932b35f662d4203857e54323",
    "triangle-sqrt2": "a2df846903f13db0d455ba3e1bebdccad8f5e5daf82fd135daaa4b384a63afdf",
}


def test_plot_svg_digests_cover_the_planar_corpus():
    assert sorted(PLOT_SVG_DIGESTS) == sorted(
        name for name in VERIFY_CSV_DIGESTS if load_builtin(name).dim == 2)


@pytest.mark.parametrize("name", sorted(PLOT_SVG_DIGESTS))
def test_plot_svg_bytes_match_golden_digests(capsys, tmp_path, name):
    svg = tmp_path / "plot.svg"
    code, _, err = run(capsys, "plot", "--builtin", name, "--samples", "2000",
                       "--seed", "0", "--svg", str(svg))
    assert (code, err) == (0, "")
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PLOT_SVG_DIGESTS[name]


def test_plot_needs_some_output(capsys):
    code, _, err = run(capsys, "plot", "--builtin", "square")
    assert code == 2


def test_negative_samples_rejected(capsys):
    code, _, _ = run(capsys, "verify", "--builtin", "square", "--samples", "-3")
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "64"])
def test_negative_seed_rejected_before_any_work(capsys, tmp_path, samples):
    out_json, out_csv = tmp_path / "report.json", tmp_path / "pairs.csv"
    for argv in (["verify", "--out", str(out_json), "--csv", str(out_csv)],
                 ["plot", "--svg", str(tmp_path / "plot.svg"), "--csv", str(out_csv)]):
        code, out, err = run(capsys, *argv, "--builtin", "square",
                             "--samples", samples, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "SchemaError: --seed must be nonnegative\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-roundtrip"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, tmp_path, flag, value):
    out_json = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--builtin", "square", "--samples", "32",
                         "--out", str(out_json), f"{flag}={value}")
    assert (code, out) == (2, "")
    assert err.startswith(f"SchemaError: {flag} must be a finite nonnegative number")
    assert not out_json.exists()


@pytest.mark.parametrize("flag, key", [("--tol-rank", "rank_margin"),
                                       ("--tol-roundtrip", "roundtrip")])
def test_zero_tolerance_is_allowed(capsys, flag, key):
    code, out, _ = run(capsys, "verify", "--builtin", "square", "--samples", "32", flag, "0")
    assert code in (0, 3)
    assert json.loads(out)["tolerances"][key] == 0.0


# --------------------------------------------------------------------------
# One parser per process
# --------------------------------------------------------------------------

def test_repeated_calls_build_no_parser(capsys, monkeypatch):
    assert main(["analyze", "--builtin", "square"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["analyze"], ["construct"], ["verify", "--samples", "32"]):
        assert main([*argv, "--builtin", "square"]) == 0
    capsys.readouterr()
    assert built == []


def test_shared_parser_forgets_the_last_csv(capsys, tmp_path):
    out_csv = tmp_path / "pairs.csv"
    code, _, _ = run(capsys, "verify", "--builtin", "square", "--samples", "16",
                     "--csv", str(out_csv))
    assert code == 0
    out_csv.unlink()
    code, _, _ = run(capsys, "verify", "--builtin", "square", "--samples", "16")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_usage_error_leaves_the_shared_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: quasifold construct")
    code, out, err = run(capsys, "construct", "--builtin", "pentagon")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS["pentagon"][1]


# --------------------------------------------------------------------------
# JSON text: the bytes of json.dumps(indent=2, sort_keys=True)
# --------------------------------------------------------------------------

def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\u03b8'),
                max_size=6)
_JSON_SCALARS = (
    st.none() | st.booleans() | _TEXT
    | st.integers() | st.integers(min_value=2**64, max_value=2**200).map(lambda n: -n)
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    0, -0.0, math.nan, 5e-324, 2**100, True, None, "\u03b8\"\\\n",
    [], {}, (), [[]], ([], {}), {"a": {}, "b": [[], [{}]]}, [1, [2, [3, []]]],
])
def test_json_text_of_scalars_and_empty_containers(value):
    assert _json_text(value) == _dumps(value)


def _embedding(shared):
    """Values holding the very object shared at any number of positions
    and depths, beside scalars and other containers."""
    return st.recursive(
        st.just(shared) | _JSON_SCALARS,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(_TEXT, inner, max_size=4)),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_json_text_of_shared_containers(data):
    # A report shares equal vectors, so one container can appear at
    # several positions, at one depth or at several; here a shared
    # container may also hold another.
    member = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
    shared = data.draw(st.lists(member, min_size=1, max_size=3)
                       | st.dictionaries(_TEXT, member, min_size=1, max_size=3))
    outer = data.draw(_embedding(shared))
    value = [data.draw(_embedding(outer)), outer, shared]
    assert _json_text(value) == _dumps(value)


def test_json_text_of_one_list_at_three_depths():
    shared = [1, "a", [2.5, None], {"k": []}]
    value = {"a": shared, "b": [shared, shared, {"c": shared}], "d": [[shared]]}
    assert _json_text(value) == _dumps(value)


def test_json_text_deeper_than_any_report():
    value = "leaf"
    for depth in range(200):
        value = [value, depth] if depth % 2 else {"k": value, "e": [], "f": 0.5}
    assert _json_text(value) == _dumps(value)


def test_json_text_refuses_what_json_refuses():
    for value in ({"a": [Fraction(1, 2)]}, [[1], Fraction(1, 2)]):
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            _json_text(value)


def test_json_text_without_the_c_accelerator(monkeypatch):
    report = construction_report(construct_builtin("pentagon"))
    expected = _json_text(report)
    monkeypatch.setattr(cli, "c_make_encoder", None)
    assert _json_text(report) == expected == _dumps(report)


def _cube(n):
    """The cube [0, 1]^n."""
    unit = lambda i, value: [value if j == i else "0" for j in range(n)]
    return {"dimension": n,
            "facets": [{"normal": unit(i, "1"), "offset": "0"} for i in range(n)]
            + [{"normal": unit(i, "-1"), "offset": "-1"} for i in range(n)]}


@pytest.mark.parametrize("document", [pytest.param(_cube(6), id="cube6"),
                                      pytest.param(_projective_space(8), id="cp8")])
def test_json_text_peak_memory(document):
    # Only a container of leaf containers (an {"exact", "float"} dict) is
    # kept for reuse, so the peak is the text, the pieces of the container
    # being joined and the shared vectors; keeping the text of every
    # container as well comes to about 4.4 times the text on both.
    report = construction_report(build_construction(parse_polytope(document)))
    text = _json_text(report)
    tracemalloc.start()
    try:
        again = _json_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == text
    assert peak < 3 * len(text)


def test_reports_never_run_the_pure_python_encoder(capsys, monkeypatch):
    # json.dumps(indent=...) builds its encoder with _make_iterencode.
    calls = []
    pure_python = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(args)
        return pure_python(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    for name in ("cube", "pentagon"):
        for argv in (["analyze"], ["construct"], ["verify", "--samples", "200"]):
            assert main([*argv, "--builtin", name]) == 0
            assert capsys.readouterr().out.startswith("{\n")
    assert calls == []


# --------------------------------------------------------------------------
# runtime dependencies
# --------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

# Every command on the pentagon, in a fresh interpreter where scipy cannot
# be imported; prints the first command that does not exit 0.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from quasifold.cli import main
out = sys.argv[2]
for argv in (
    ["analyze", "--builtin", "pentagon"],
    ["construct", "--builtin", "pentagon"],
    ["verify", "--builtin", "pentagon", "--samples", "200", "--csv", out + "/v.csv"],
    ["plot", "--builtin", "pentagon", "--samples", "200",
     "--svg", out + "/p.svg", "--csv", out + "/p.csv"],
):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


# A fresh interpreter imports the CLI and runs analyze and construct; the
# CSV kernel is for --csv alone, so neither imports it.
WITHOUT_CSV = """
import sys
sys.path.insert(0, sys.argv[1])
from quasifold.cli import main
loaded = "quasifold.csvtext" in sys.modules
for argv in (["analyze", "--builtin", "pentagon"], ["construct", "--builtin", "pentagon"]):
    main(argv)
    loaded = loaded or "quasifold.csvtext" in sys.modules
sys.exit("quasifold.csvtext was imported" if loaded else 0)
"""


def test_commands_without_csv_leave_out_the_kernel():
    result = subprocess.run([sys.executable, "-c", WITHOUT_CSV, str(SRC)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_commands_run_without_scipy(tmp_path):
    result = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(SRC), str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
