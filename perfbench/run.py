"""Time-to-verdict benchmark: one builtin scenario through ``run_scenario``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload isotropic12-box --seed 20260809 \
        --seconds 5 --trace 0

Each workload is a closed loop with one caller in one process at
``threads=1``: the next ``run_scenario`` call starts when the previous one
has returned, until ``--seconds`` have passed (at least one call).  The
master seed is ``--seed``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes the same pass with spans recorded around every layer
and reports the per-layer metrics (see ``spans.py``).  The last line of
standard output is the result object; the line before it holds the run
metadata and one record per call.  Both, and the traced spans, are also
written under ``.bench_out/`` in the checkout.

Exit codes: 0 on a finished run (failures are counted in the result), 2
when the checkout holds no semidim source to measure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import PER_LAYER_UNITS, Tracer, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20260809
THREADS = 1
SETUP_PROBES = 2
REFERENCE = HERE / "reference_digests.json"

# workload -> (builtin scenario, the paper's closed-form graph dimension)
WORKLOADS = {
    "isotropic12-box": ("isotropic-12-interval", 1.2),
    "stpetersburg-sojourn": ("stpetersburg-interval", 1.0),
    "cantor-mask": ("brownian-cantor", 0.5 + math.log(2.0) / math.log(3.0)),
}

END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def process_age() -> float:
    """Seconds since this process started, to the kernel's clock tick."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def probe_setup_seconds(scenario: str) -> float:
    """Wall seconds from starting a fresh process to a validated scenario."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), scenario],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return ready - started


def report_digest(report) -> str:
    """SHA-256 of the report's JSON without its wall-clock field."""
    body = report.as_dict()
    body.pop("runtime_seconds")
    return hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()


# report stage -> the key of the report's theory it is judged against
STAGE_THEORY = {
    "box_graph": "graph_dim",
    "box_range": "range_dim",
    "sojourn": "sojourn_exponent",
    "energy": "graph_dim",
}


def estimates_finite(report) -> bool:
    values = []
    for info in report.stages.values():
        values += [info["estimate"], *info.get("per_seed", ())]
    return all(math.isfinite(v) for v in values)


def check_report(report, sc, seed: int, graph_dim: float) -> list[str]:
    """Inconsistencies in a returned report; an empty list means it is sound."""
    from semidim.harness import FAIL, INCONCLUSIVE, PASS

    problems = []
    if report.scenario != sc.name or report.master_seed != seed:
        problems.append("report names another scenario or seed")
    if abs(report.theory["graph_dim"] - graph_dim) > 1e-12:
        problems.append(f"theory graph_dim {report.theory['graph_dim']} != {graph_dim}")
    if set(report.stages) != set(STAGE_THEORY):
        problems.append(f"stages {sorted(report.stages)}")
        return problems
    gating = []
    for stage, info in report.stages.items():
        if info["verdict"] not in (PASS, FAIL, INCONCLUSIVE):
            problems.append(f"{stage}: unknown verdict {info['verdict']}")
        if info["theory"] != report.theory[STAGE_THEORY[stage]]:
            problems.append(f"{stage}: theory differs from the report's theory")
        if info.get("gating", True):
            gating.append(info["verdict"])
    for stage in ("box_graph", "box_range"):
        if len(report.stages[stage]["per_seed"]) != sc.n_seeds:
            problems.append(f"{stage}: {len(report.stages[stage]['per_seed'])} per-seed estimates")
    worst = FAIL if FAIL in gating else INCONCLUSIVE if INCONCLUSIVE in gating else PASS
    if report.verdict != worst:
        problems.append(f"overall verdict {report.verdict} is not the worst gating {worst}")
    return problems


def call_once(sc, seed: int, graph_dim: float) -> dict:
    """One ``run_scenario`` call, timed and checked.

    The call fails when it raises, returns a non-finite estimate or returns
    an overall verdict other than PASS.
    """
    from semidim import harness

    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        report = harness.run_scenario(sc, seed, threads=THREADS)
    except Exception as exc:  # a raising call is a counted failure, not a crash
        traceback.print_exc(file=sys.stderr)
        report, error = None, f"{type(exc).__name__}: {exc}"
    record = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
    }
    if report is None:
        record.update(verdict=None, error=error, problems=[], failed=True)
        return record
    problems = check_report(report, sc, seed, graph_dim)
    record.update(
        verdict=report.verdict,
        digest=report_digest(report),
        problems=problems,
        failed=report.verdict != harness.PASS or not estimates_finite(report),
    )
    return record


def closed_loop(sc, seed: int, seconds: float, graph_dim: float, tracer=None) -> list[dict]:
    records = []
    started = time.perf_counter()
    while not records or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.run = len(records)
        records.append(call_once(sc, seed, graph_dim))
    return records


def measure(sc, seed: int, seconds: float, graph_dim: float, trace: bool, spans_path=None):
    """One closed-loop pass, untraced or traced.

    Returns (metrics, call records): the end-to-end metrics other than
    ``setup_s`` when untraced, the per-layer metrics when traced.
    """
    if not trace:
        records = closed_loop(sc, seed, seconds, graph_dim)
        return {
            "verdict_s": statistics.median(r["wall_s"] for r in records),
            "cpu_s": statistics.median(r["cpu_s"] for r in records),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, records
    tracer = Tracer()
    tracer.install()
    try:
        records = closed_loop(sc, seed, seconds, graph_dim, tracer)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)
    return per_layer(tracer.spans), records


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, as the library reports it."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 6 and "openblas" in Path(fields[5]).name:
                libs.add(fields[5])
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def run_metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            revision = done.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "semidim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    try:
        blas["threads"] = _blas_threads()
    except OSError as exc:
        blas["threads"] = f"unavailable: {exc}"
    return {
        "workload": workload,
        "scenario": WORKLOADS[workload][0],
        "master_seed": seed,
        "threads": THREADS,
        "seconds": seconds,
        "trace": trace,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def report_changed(workload: str, seed: int, records: list[dict]):
    """Whether any report differs from the reference digest; None when the
    seed has no reference."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if seed != reference["master_seed"] or workload not in reference["digests"]:
        return None
    return any(r.get("digest") != reference["digests"][workload] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semidim" / "__init__.py").is_file():
        print(f"perfbench: no semidim source under {SRC}", file=sys.stderr)
        return 2
    scenario, graph_dim = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import semidim

    sc = semidim.builtin_scenarios()[scenario]
    sc.validate_expected()
    # set-up is timed in this process and in fresh ones; the median is reported
    setups = [process_age()] + [probe_setup_seconds(scenario) for _ in range(SETUP_PROBES)]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    metrics, records = measure(
        sc,
        args.seed,
        args.seconds,
        graph_dim,
        bool(args.trace),
        spans_path=OUT / f"{stem}-spans.jsonl",
    )
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)

    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["problems"] for r in records)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    details = {
        "meta": run_metadata(args.workload, args.seed, args.seconds, bool(args.trace)),
        "failed_share": failed / len(records),
        "report_changed": report_changed(args.workload, args.seed, records),
        "setup_samples_s": setups,
        "calls": records,
    }
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({**details, "result": result}, indent=2), encoding="utf-8"
    )
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
