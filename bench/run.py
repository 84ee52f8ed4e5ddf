"""rhflow benchmark: one closed-loop client driving `rhflow.cli_driver.main`
in-process on seeded inputs.

    python3 bench/run.py --workload solve-verify --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; `src/rhflow` is imported from
there.  The last line of standard output is the result: with `--trace 0`
the end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics.  The line before it is the full record of the run (environment,
input digest, tail percentile, failures).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, GateResult, gate  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5       # set-up is repeated and its median reported
SETUP_OPS = 36       # ops generated and validated in each set-up
TAIL_BEYOND = 10     # samples the tail percentile must leave above it
PROBE_LOOPS = 7000   # iterations of the host-speed probe loop
REF_PROBE_S = 0.45e-3  # its time on an uncontended core of the reference host


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RHFLOW_THREADS", None)


def import_rhflow(root: Path = ROOT):
    """Fresh import of rhflow from root/src; returns rhflow.cli_driver."""
    src = root / "src"
    if not (src / "rhflow" / "__init__.py").is_file():
        raise BenchError(f"no rhflow sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "rhflow" or m.startswith("rhflow.")]:
        del sys.modules[name]
    cli = importlib.import_module("rhflow.cli_driver")
    if Path(cli.__file__).resolve().parent != (src / "rhflow").resolve():
        raise BenchError(f"rhflow imported from {cli.__file__}, not from {src}")
    return cli


def declared_metrics(root: Path = ROOT) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def probe() -> float:
    """Best of three timings of a fixed pure-Python loop.

    The host this benchmark was written on shares its cores and caches with
    other tenants and runs up to 1.8x slower in phases of seconds to
    minutes.  This loop slows down nearly as much as rhflow's ops: their
    ratio stays within about 10 % where raw op times move by 50 %, though
    in the deepest slow phases the ops slow 15-20 % more.  Op times are
    divided by the probe's slowdown against REF_PROBE_S, so they read in
    milliseconds of an uncontended reference core."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += (i * 7) % 13
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval from the probes around it."""
    return 0.5 * (before + after) / REF_PROBE_S


def setup(workload: str, seed: int, root: Path = ROOT):
    """Import rhflow, generate the first ops and validate them with
    load_config.  Repeated SETUP_REPS times from a fresh import; returns the
    modules, op blocks and block generator of the last repetition and the
    median set-up time, corrected for the host's slowdown."""
    times = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        cli = import_rhflow(root)
        blocks = WORKLOADS[workload](random.Random(seed))
        first = []
        while sum(len(b) for b in first) < SETUP_OPS:
            first.append(next(blocks))
        for op in chain.from_iterable(first):
            cli.load_config(op.text(), op.command, seed=op.seed)
        elapsed = time.perf_counter() - t0
        times.append(elapsed / slowdown(before, probe()))
    return cli, first, blocks, statistics.median(times)


def run_op(cli, op, work: Path, tracer=None) -> tuple[float, GateResult]:
    """Run one command through cli_driver.main and gate its artifacts."""
    cfg = work / "cfg.json"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg.write_text(op.text(), encoding="utf-8")
    argv = [op.command, "--config", str(cfg), "--out", str(out), "--seed", str(op.seed)]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli_driver.main", cli.main, argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        latency = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return latency, GateResult(False, None, "raised")
    latency = time.perf_counter() - t0
    result = gate(op, code, out)
    if not result.ok:
        print(f"op failed ({op.command}, seed {op.seed}): {result.reason}",
              file=sys.stderr)
    return latency, result


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with TAIL_BEYOND samples above it: (value,
    percentile, samples above); None if that percentile would not lie
    above the median."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return lat[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def class_medians(kinds, latencies) -> dict[str, float]:
    """Median latency of each input class."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def mix_latencies(kinds, latencies, mix) -> list[float] | None:
    """One block of the workload's input mix, each op at its class's median
    latency; None if some class of the mix has no sample."""
    medians = class_medians(kinds, latencies)
    if any(k not in medians for k in mix):
        return None
    return [medians[k] for k in mix]


def end_to_end(kinds, latencies, results, mix, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics and the tail/failure detail for the record.

    Throughput and median are taken over one block of the input mix, each
    op at its class's median latency, so a slowdown the probe missed moves
    them only if it hit most ops of a class."""
    passed = sum(r.ok for r in results)
    residuals = [r.residual for r in results if r.residual is not None]
    block = mix_latencies(kinds, latencies, mix)
    # too few samples for a percentile tail: the slowest class at its median
    tail_s, pct, beyond = tail(latencies) or (max(block), None, 0)
    metrics = {
        "ops_per_s": passed / len(results) * len(block) / sum(block),
        "latency_p50_ms": 1e3 * statistics.median(block),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb,
        "residual_max": max(residuals, default=0.0),
        "setup_s": setup_s,
    }
    detail = {"tail_percentile": pct, "tail_samples_beyond": beyond,
              "samples": len(latencies),
              "fail_frac": (len(results) - passed) / len(results),
              "class_median_ms": {k: 1e3 * v
                                  for k, v in class_medians(kinds, latencies).items()}}
    return metrics, detail


def environment(workload: str, seed: int, op_digest: str, root: Path = ROOT) -> dict:
    import importlib.metadata
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "rhflow").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("RHFLOW_THREADS",)},
        "git_commit": git_commit(root),
        "source_sha256": sources.hexdigest(),
        "workload": workload,
        "seed": seed,
        "ops_sha256": op_digest,
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path = ROOT) -> dict:
    """One benchmark run; returns the record, with the result under "result"."""
    declared = declared_metrics(root)
    cli, first, blocks, setup_s = setup(workload, seed, root)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    work = root / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    latencies, results, kinds, traced_flags, slowdowns = [], [], [], [], []
    mix = [op.kind for op in first[0]]
    seen: dict[str, int] = {}
    try:
        t0 = time.perf_counter()
        before = probe()
        for op in chain.from_iterable(chain(first, blocks)):
            digest.update(f"{op.command} {op.seed} {op.text()}\n".encode())
            # a traced run traces every other op of each input class, so the
            # traced and untraced halves run the same input mix and their
            # throughputs give the tracing overhead
            seen[op.kind] = seen.get(op.kind, 0) + 1
            traced = trace and seen[op.kind] % 2 == 1
            if traced:
                tracer.install(sum(traced_flags))
            try:
                latency, result = run_op(cli, op, work, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            after = probe()
            slowdowns.append(slowdown(before, after))
            before = after
            latencies.append(latency / slowdowns[-1])
            results.append(result)
            kinds.append(op.kind)
            traced_flags.append(traced)
            # stop once the time is up and every class has run
            if (time.perf_counter() - t0 >= seconds
                    and mix_latencies(kinds, latencies, mix) is not None):
                break
        loop_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e, detail = end_to_end(kinds, latencies, results, mix, setup_s, peak_rss_mb)
    detail["ops"] = [[k, round(1e3 * lat, 3), round(sd, 3), r.ok]
                     for k, lat, sd, r in zip(kinds, latencies, slowdowns, results)]
    failed = sum(not r.ok for r in results)
    if trace:
        metrics = tracer.layer_metrics(
            [sd for sd, t in zip(slowdowns, traced_flags) if t])
        rates = []
        for want in (True, False):
            half = [(k, lat) for k, lat, t in zip(kinds, latencies, traced_flags)
                    if t is want]
            block = mix_latencies([k for k, _ in half], [lat for _, lat in half], mix)
            rates.append(len(block) / sum(block) if block else 0.0)
        traced_rate, untraced_rate = rates
        metrics["trace_overhead.traced_ops_per_s"] = traced_rate
        metrics["trace_overhead.untraced_ops_per_s"] = untraced_rate
        metrics["trace_overhead_frac"] = (1.0 - traced_rate / untraced_rate
                                          if untraced_rate else 0.0)
        units = declared["per_layer"]
        detail["span_counts"] = tracer.counts()
        detail["site_calls"] = {f"{m}:{p}": n for (m, p), n in tracer.site_calls.items()}
        detail["traced_ops"] = sum(traced_flags)
    else:
        metrics = e2e
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    record = {
        "environment": environment(workload, seed, digest.hexdigest(), root),
        "trace": int(trace),
        "loop_s": loop_s,
        "end_to_end": e2e,
        **detail,
    }
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    result = record.pop("result")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
