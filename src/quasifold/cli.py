"""Command line interface.

Commands: examples, analyze, construct, verify, plot.  Exit codes are a
contract: 0 success, 1 I/O error, 2 validation failure, 3 verification
threshold failure.  Each float rendering of an exact value is the double
nearest to that value.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import corpus
from .construction import (
    _render_field,
    _render_vector,
    build_construction,
    construction_report,
    induced_moment,
)
from .errors import DimensionUnsupported, QuasifoldError, SchemaError
from .polytope import check_delzant, check_rational, check_simple, parse_polytope
from .verify import run_verification, sample_level_set

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3


def _input_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=Path, help="polytope document (JSON file)")
    group.add_argument("--builtin", help="builtin polytope name (see 'examples')")


def _sampling_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=int, default=10_000, help="level-set sample count")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasifold",
        description="Symplectic quasifolds from simple convex polytopes",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    examples = commands.add_parser("examples", help="list builtin polytopes")
    examples.set_defaults(func=cmd_examples)

    analyze = commands.add_parser("analyze", help="vertices, simplicity, rationality")
    _input_options(analyze)
    analyze.add_argument("--out", type=Path, help="write the JSON report here")
    analyze.set_defaults(func=cmd_analyze)

    construct = commands.add_parser("construct", help="full construction report")
    _input_options(construct)
    construct.add_argument("--out", type=Path, help="write the JSON report here")
    construct.set_defaults(func=cmd_construct)

    verify = commands.add_parser("verify", help="Monte Carlo verification run")
    _input_options(verify)
    _sampling_options(verify)
    verify.add_argument("--out", type=Path, help="write the JSON report here")
    verify.add_argument("--csv", type=Path, help="dump (mu, Phi) sample pairs")
    verify.add_argument("--tol-roundtrip", type=float, default=1e-8,
                        help="round-trip / containment tolerance")
    verify.add_argument("--tol-rank", type=float, default=1e-6,
                        help="relative rank-margin threshold")
    verify.set_defaults(func=cmd_verify)

    plot = commands.add_parser("plot", help="SVG of the polytope and moment image")
    _input_options(plot)
    _sampling_options(plot)
    plot.add_argument("--svg", type=Path, help="SVG output path (n = 2 only)")
    plot.add_argument("--csv", type=Path, help="dump (mu, Phi) sample pairs")
    plot.set_defaults(func=cmd_plot)
    return parser


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------

def _load_document(args) -> dict:
    if args.builtin is not None:
        try:
            return corpus.builtin_document(args.builtin)
        except KeyError as exc:
            raise SchemaError(str(exc.args[0])) from None
    try:
        return json.loads(args.input.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{args.input}: not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{args.input}: JSON nested too deeply") from None


# Per nesting depth, built on first use: the newline and indent before the
# depth's first item, the separator before each later item, the newline
# and indent before the closing bracket, and a C encoder with sorted keys
# and that item separator.
_levels: list = []
_CONTAINERS = (dict, list, tuple)


def _level(depth: int) -> tuple:
    while len(_levels) <= depth:
        inner = "\n" + "  " * (len(_levels) + 1)
        encoder = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                 None, ": ", "," + inner, True, False, True)
        _levels.append((inner, "," + inner, inner[:-2], encoder))
    return _levels[depth]


def _encode(obj, depth: int, parts: list[str], done: dict) -> bool:
    """Append the text of the nonempty container obj, nested ``depth``
    levels deep, to parts, as one string; True when obj holds only leaves,
    scalars and empty containers, which the C encoder writes as json does.

    ``done`` maps (id(container), depth) to the text of each container
    whose members are all nonempty containers of leaves, the kind a report
    shares (an {"exact", "float"} dict), so met again at the same depth it
    reuses its text.  The ids stay valid because the payload outlives the
    call that encodes it."""
    key = (id(obj), depth)
    text = done.get(key)
    if text is not None:
        parts.append(text)
        return False
    inner, later, outer, encoder = _level(depth)
    is_dict = isinstance(obj, dict)
    for member in obj.values() if is_dict else obj:
        if isinstance(member, _CONTAINERS) and member:
            break
    else:
        # One C call writes the members and their separators; the
        # brackets get their newlines here.
        text = "".join(encoder(obj, 0))
        parts.append(text[0] + inner + text[1:-1] + outer + text[-1])
        return True
    start = len(parts)
    parts.append("{" if is_dict else "[")
    separator, shared = inner, True
    for name, member in sorted(obj.items()) if is_dict else enumerate(obj):
        parts.append(separator)
        if is_dict:
            parts += (encode_basestring_ascii(name), ": ")
        if isinstance(member, _CONTAINERS) and member:
            shared = _encode(member, depth + 1, parts, done) and shared
        else:
            parts += encoder(member, 0)
            shared = False
        separator = later
    parts += (outer, "}" if is_dict else "]")
    # The container's pieces become one string: the parts list then holds
    # one entry per open container, however deep the payload nests.
    text = "".join(parts[start:])
    parts[start:] = [text]
    if shared:
        done[key] = text
    return False


def _json_text(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, for
    payloads with text keys.  With an indent, that call runs Python's
    pure-Python encoder on Python 3.11; here each container holding only
    scalars is encoded by one C call, only the containers above them are
    walked in Python, and a container of such containers met again at
    the same depth is encoded once."""
    if c_make_encoder is None:
        return json.dumps(payload, indent=2, sort_keys=True)
    if not (isinstance(payload, _CONTAINERS) and payload):
        return "".join(_level(0)[3](payload, 0))
    parts: list[str] = []
    _encode(payload, 0, parts, {})
    return parts[0]


def _emit_json(payload: dict, out: Path | None) -> None:
    text = _json_text(payload) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _check_sampling(args) -> None:
    for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
        if value < 0:
            raise SchemaError(f"{flag} must be nonnegative")


def _write_csv(path: Path, mus: np.ndarray, phis: np.ndarray) -> None:
    # The bytes match csv.writer fed repr(float) fields.  The kernel is
    # imported here: compiling it costs commands without --csv about 2 ms.
    from .csvtext import csv_chunks

    n = mus.shape[1]
    header = ",".join([f"mu_{i + 1}" for i in range(n)] + [f"phi_{i + 1}" for i in range(n)])
    with path.open("wb") as handle:
        handle.write(header.encode() + b"\r\n")
        for chunk in csv_chunks(mus, phis):
            handle.write(chunk)


def _polygon_order(points: np.ndarray) -> np.ndarray:
    """The vertices of a convex polygon sorted by angle about their mean."""
    center = points.mean(axis=0)
    angles = np.arctan2(points[:, 1] - center[1], points[:, 0] - center[0])
    return points[np.argsort(angles)]


def _write_svg(path: Path, outline: np.ndarray, scatter: np.ndarray) -> None:
    size, margin = 640.0, 40.0
    stacked = outline if scatter.size == 0 else np.vstack([outline, scatter])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    scale = (size - 2 * margin) / span

    def place(pt) -> tuple[float, float]:
        return (margin + (pt[0] - lo[0]) * scale,
                size - margin - (pt[1] - lo[1]) * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    outline_pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in (place(p) for p in outline))
    lines.append(
        f'<polygon points="{outline_pts}" fill="none" stroke="#1f5fa8" stroke-width="2"/>'
    )
    for p in scatter:
        x, y = place(p)
        lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="1.6" fill="#c23b22" fill-opacity="0.45"/>')
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_examples(args) -> int:
    for name in corpus.builtin_names():
        sys.stdout.write(f"{name:16s} {corpus.DESCRIPTIONS.get(name, '')}\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    poly = parse_polytope(_load_document(args))
    simplicity = check_simple(poly)
    certificate = check_rational(poly)
    memo: dict = {}
    payload = {
        "dimension": poly.dim,
        "facets": poly.facet_count,
        "field": _render_field(poly.field),
        "vertices": [
            {**_render_vector(v.point, memo), "active_facets": list(v.active)}
            for v in poly.vertices
        ],
        "simple": {
            "simple": simplicity.simple,
            "witness_index": simplicity.witness_index,
        },
        "rational": {
            "rational": certificate.rational,
            "rank": certificate.rank,
            "lattice_basis": (
                [_render_vector(b, memo)["exact"] for b in certificate.basis]
                if certificate.rational else None
            ),
            "integer_coordinates": (
                [list(row) for row in certificate.coords]
                if certificate.rational else None
            ),
            "independent_witness": (
                list(certificate.independent)
                if certificate.independent is not None else None
            ),
        },
        "delzant": (
            check_delzant(poly, certificate).as_dict() if certificate.rational else None
        ),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    poly = parse_polytope(_load_document(args))
    data = build_construction(poly)
    _emit_json(construction_report(data), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_sampling(args)
    for flag, tol in (("--tol-roundtrip", args.tol_roundtrip), ("--tol-rank", args.tol_rank)):
        if not (math.isfinite(tol) and tol >= 0):
            raise SchemaError(f"{flag} must be a finite nonnegative number, got {tol}")
    poly = parse_polytope(_load_document(args))
    data = build_construction(poly)
    report = run_verification(
        data, samples=args.samples, seed=args.seed,
        tol_roundtrip=args.tol_roundtrip, tol_rank=args.tol_rank,
    )
    _emit_json(report.as_dict(), args.out)
    if args.csv is not None:
        _write_csv(args.csv, report.sample_set.mu, report.phi)
    if not report.passed:
        sys.stderr.write(
            "verification failed: " + ", ".join(report.failures) + "\n"
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.svg is None and args.csv is None:
        raise SchemaError("plot needs --svg and/or --csv")
    _check_sampling(args)
    poly = parse_polytope(_load_document(args))
    data = build_construction(poly)
    if args.svg is not None and data.dim != 2:
        raise DimensionUnsupported(f"SVG plots need n = 2, polytope has n = {data.dim}")
    sample_set = sample_level_set(data, args.samples, seed=args.seed)
    phis = induced_moment(sample_set.z, data, tol=None)
    if args.csv is not None:
        _write_csv(args.csv, sample_set.mu, phis)
    if args.svg is not None:
        outline = _polygon_order(data.floats.vertices)
        _write_svg(args.svg, outline, phis)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

# Built once per process: parse_args keeps no state between calls (each
# makes a fresh Namespace, and help reads the terminal width when printed),
# so repeated in-process calls of main share it.  Each subcommand's func
# is bound here, at import.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO
    except QuasifoldError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
