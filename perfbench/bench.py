"""Closed-loop benchmark of the quasifold CLI, one op at a time.

An op is one polytope document passed through one subcommand of
``quasifold.cli.main`` in this process, with ``--input``/``--out`` files
in a scratch directory inside the checkout.  A pass runs every input of
a workload once; each pass draws fresh offsets for every op from the
workload seed, so no two ops see the same document.  Every output is
checked by ``checks`` against answers that ``families`` derives by hand.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import families
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

VERIFY_SAMPLES = 10_000
MIN_PASSES = 3
MIN_TRACED_RUN_PASSES = 4  # two untraced, two traced
SETUP_REPEATS = 5
PROBE_LIMIT_S = 4.0
PROBE_MAX_DIM = 12

# On a shared host the CPU runs this process up to ~1.8 times slower for
# seconds at a time; CPU time grows with wall time, so it is not
# descheduling.  A fixed exact-arithmetic loop timed right before and right
# after each op slows down the same way, and the op's wall time is rescaled
# by NOMINAL_REFERENCE_S / (mean of the two).  The nominal value is the
# loop's time on an unloaded 2-vCPU Intel Xeon with Python 3.11.7, so
# rescaled times read as seconds on that machine.
NOMINAL_REFERENCE_S = 0.0018
REFERENCE_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    command: str
    inputs: tuple[families.Family, ...]


def workloads(builtin_document) -> dict[str, Workload]:
    """The inputs of each workload, cheapest first (the first one is the
    warm-up op of set-up).  Why each workload exists is recorded in
    BENCHMARK.json."""
    return {
        # Far more facet subsets than vertices: enumeration is the time.
        "analyze-wide": Workload("analyze", tuple(
            [families.cube(n) for n in range(3, 7)]
            + [families.dodecahedron(), families.pentagon_product(), families.octahedron()])),
        # Every facet n-subset is a vertex: structure groups and the report.
        "construct-simplex": Workload("construct", tuple(
            [families.projective_space(n) for n in range(3, 9)]
            + [families.weighted_projective_space(n) for n in range(3, 7)]
            + [families.skewed_simplex(n) for n in range(3, 7)])),
        # Little exact work: sampling, the checks and CSV output.
        "verify-csv": Workload("verify", tuple(
            [families.corpus_entry(name, builtin_document)
             for name in families.CONSTRUCTIBLE_CORPUS]
            + [families.projective_space(n) for n in range(4, 7)])),
    }


def load_quasifold():
    """Import quasifold.cli from this checkout's src/, dropping any earlier
    import so that every call pays the package's import cost again."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in list(tracing.quasifold_modules()):
        del sys.modules[name]
    cli = importlib.import_module("quasifold.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"quasifold imported from {cli.__file__}, not from {src}")
    return cli


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------

def _reference_loop() -> None:
    for i in range(1, 400):
        Fraction(i, i + 3) * Fraction(i + 1, i + 5) - Fraction(1, i)


def reference_s() -> float:
    """Fastest of REFERENCE_REPEATS timings of the reference loop."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class OpResult:
    name: str
    seconds: float           # wall time of the CLI call
    problems: list[str]
    bytes_written: int = 0
    scale: float = 1.0       # NOMINAL_REFERENCE_S / reference time around the op

    @property
    def nominal_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(main, command: str, family: families.Family, doc: dict, seed: int,
           workdir: Path) -> OpResult:
    """Write the document, time one CLI call, then check its output."""
    doc_path = workdir / "input.json"
    out_path = workdir / "out.json"
    csv_path = workdir / "pairs.csv"
    for stale in (out_path, csv_path):
        stale.unlink(missing_ok=True)
    doc_path.write_text(json.dumps(doc))
    argv = [command, "--input", str(doc_path), "--out", str(out_path)]
    if command == "verify":
        argv += ["--samples", str(VERIFY_SAMPLES), "--seed", str(seed), "--csv", str(csv_path)]
    reference = reference_s()
    start = time.perf_counter()
    try:
        code = main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # any escape is a failed op
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    scale = 2 * NOMINAL_REFERENCE_S / (reference + reference_s())
    if error is not None or code != 0:
        return OpResult(family.name, seconds, [error or f"exit code {code}"], scale=scale)
    written = sum(p.stat().st_size for p in (out_path, csv_path) if p.exists())
    try:
        payload = json.loads(out_path.read_text())
        if command == "analyze":
            problems = checks.check_analyze(doc, family.answer, payload)
        elif command == "construct":
            problems = checks.check_construct(doc, family.answer, payload)
        else:
            problems = checks.check_verify(doc, payload, csv_path, VERIFY_SAMPLES)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return OpResult(family.name, seconds, problems, written, scale)


def run_pass(main, workload: Workload, seed: int, pass_index: int, workdir: Path,
             tracer: tracing.Tracer | None = None) -> list[OpResult]:
    """One op per input; documents and verify seeds come from (seed, pass)."""
    results = []
    for family in workload.inputs:
        rng = families.op_rng(seed, pass_index, family.name)
        doc = families.instantiate(family, rng)
        op_seed = rng.randrange(2 ** 31)
        if tracer is not None:
            tracer.op = f"{pass_index}:{family.name}"
        result = run_op(main, workload.command, family, doc, op_seed, workdir)
        if tracer is not None:
            tracer.end_op()
            tracer.counts["cli.bytes_written"] += result.bytes_written
        results.append(result)
    return results


# --------------------------------------------------------------------------
# Set-up, the probe and provenance
# --------------------------------------------------------------------------

def set_up(workload_name: str, seed: int, workdir: Path):
    """Import, input generation and one warm-up op, SETUP_REPEATS times.
    Returns the last loaded CLI, its workload, the rescaled set-up times
    (without the harness's own reference loops and output checks) and the
    warm-up results."""
    times, warmups = [], []
    for k in range(SETUP_REPEATS):
        reference = reference_s()
        start = time.perf_counter()
        cli = load_quasifold()
        workload = workloads(cli.corpus.builtin_document)[workload_name]
        pass_index = f"setup{k}"
        docs = [families.instantiate(f, families.op_rng(seed, pass_index, f.name))
                for f in workload.inputs]
        prepared = time.perf_counter() - start
        prepared *= 2 * NOMINAL_REFERENCE_S / (reference + reference_s())
        warmup = run_op(cli.main, workload.command, workload.inputs[0], docs[0],
                        families.op_rng(seed, pass_index, "warmup").randrange(2 ** 31), workdir)
        warmups.append(warmup)
        times.append(prepared + warmup.nominal_seconds)
    return cli, workload, times, warmups


class _ProbeTimeout(BaseException):
    """Raised by the probe's alarm; BaseException so no handler swallows it."""


def _on_alarm(_signum, _frame):
    raise _ProbeTimeout


def probe_verify_max_dim(main, seed: int, workdir: Path) -> int:
    """Largest n for which ``verify --samples 10000`` on CP^n exits 0
    within PROBE_LIMIT_S, trying n = 2, 3, ... and stopping at the first
    miss.  An op still running at the limit is cut off."""
    best = 1
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for n in range(2, PROBE_MAX_DIM + 1):
            rng = families.op_rng(seed, "probe", n)
            doc = families.instantiate(families.projective_space(n), rng)
            doc_path = workdir / "probe.json"
            doc_path.write_text(json.dumps(doc))
            argv = ["verify", "--input", str(doc_path), "--out", str(workdir / "probe-out.json"),
                    "--samples", str(VERIFY_SAMPLES), "--seed", str(rng.randrange(2 ** 31))]
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, PROBE_LIMIT_S)
            try:
                code = main(argv)
            except _ProbeTimeout:
                code = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if code != 0 or time.perf_counter() - start > PROBE_LIMIT_S:
                break
            best = n
    finally:
        signal.signal(signal.SIGALRM, previous)
    return best


def _git_commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, blas_threads: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


# --------------------------------------------------------------------------
# A run
# --------------------------------------------------------------------------

@dataclass
class Run:
    provenance: dict
    setup_s: list[float]
    passes: list[list[OpResult]] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    layer_passes: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    verify_max_dim: int | None = None
    warmups: list[OpResult] = field(default_factory=list)

    def results(self) -> list[OpResult]:
        return self.warmups + [r for results in self.passes for r in results]

    def pass_seconds(self, traced: bool = False, raw: bool = False) -> list[float]:
        return [sum(r.seconds if raw else r.nominal_seconds for r in results)
                for results, t in zip(self.passes, self.traced) if t == traced]

    def op_medians_ms(self, raw: bool = False) -> dict[str, float]:
        per_input: dict[str, list[float]] = {}
        for results, t in zip(self.passes, self.traced):
            if not t:
                for r in results:
                    seconds = r.seconds if raw else r.nominal_seconds
                    per_input.setdefault(r.name, []).append(1e3 * seconds)
        return {name: statistics.median(v) for name, v in per_input.items()}

    def end_to_end(self) -> dict[str, float]:
        medians = self.op_medians_ms()
        return {
            "setup_s": statistics.median(self.setup_s),
            "pass_s": statistics.median(self.pass_seconds()),
            "op_ms_geomean": math.exp(statistics.fmean(math.log(v) for v in medians.values())),
            "peak_rss_mb": self.peak_rss_mb,
            "verify_max_dim": self.verify_max_dim,
        }

    def per_layer(self) -> dict[str, float]:
        """Times are medians over traced passes; counts and ratios come from
        the first traced pass, whose documents depend on the seed alone."""
        first = self.layer_passes[0]
        out = {}
        for name, (unit, _, _) in tracing.LAYER_METRICS.items():
            if unit == "s":
                out[name] = statistics.median(p[name] for p in self.layer_passes)
            else:
                out[name] = first[name]
        return out

    def tracing_overhead(self) -> float:
        return (statistics.median(self.pass_seconds(traced=True))
                / statistics.median(self.pass_seconds(traced=False)))


def run(workload_name: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> Run:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR))
    try:
        cli, workload, setup_times, warmups = set_up(workload_name, seed, workdir)
        result = Run(provenance(seed, blas_threads), setup_times, warmups=warmups)
        tracer = tracing.Tracer(tracing.quasifold_modules()) if trace else None
        start = time.perf_counter()
        pass_index = 0
        while True:
            # A traced run alternates untraced and traced passes, so the
            # tracing overhead is measured under the same conditions.
            traced = trace and pass_index % 2 == 1
            main = cli.main
            if traced:
                tracer.install()
                main = tracer.entry(cli.main)
            try:
                results = run_pass(main, workload, seed, pass_index, workdir,
                                   tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            result.passes.append(results)
            result.traced.append(traced)
            if traced:
                spans, counts = tracer.take()
                result.layer_passes.append(tracing.pass_metrics(spans, counts))
                offset = len(result.spans)
                result.spans.extend([name, start, end, parent + offset if parent >= 0 else -1, op]
                                    for name, start, end, parent, op in spans)
            pass_index += 1
            enough = pass_index >= (MIN_TRACED_RUN_PASSES if trace else MIN_PASSES)
            if enough and time.perf_counter() - start >= seconds:
                break
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not trace:
            result.verify_max_dim = probe_verify_max_dim(cli.main, seed, workdir)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
