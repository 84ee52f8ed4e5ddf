"""Time the solver's layers, and optionally the benchmark's end-to-end
metrics, on a base git ref and on the working tree; write both to one JSON
record (a BENCH_*.json file).

    python tools/layer_times.py --out BENCH_x.json [--base REF] [--workload W ...]

Layers: for the pentagon (support constant 0.9, Z = (1, i), a = 0,
theta = (0.7, 1.3), tol 1e-12, max_iter 100) at each (R, M) of CASES, the
time of `init_state(cfg)` cold (rh_solver's cache of theta-free problems
cleared first) and warm (the problem cached), of the steady-state
`iterate_once` that `solve` runs: a step of a kept one-member `_Stack` at
the solved state's values, of `truncation_guard` on the solved state, of `solve(cfg)`, and of
`check_jump`, `check_reality` and `verify` on the solved state (limits
kept; the verify path runs no guard).  "format" is `cli_driver._cmd_solve` with its
`solve` and `verify` stubbed to return that state, a copy of its report
and its residuals, and its `_write` stubbed to keep the texts: the
artifacts' formatting, with no file system.  "write" writes those texts
by `cli_driver._write` into a fresh directory per call (`report.json` and
`nodes.csv`): the file system's part alone.  On a side without the cache
of theta-free problems, cold and warm time the same call.
For the scalar manufactured jump of the scalar-bvp workload at each
(eta0, zeros) of SCALAR_CASES, at M = 512: `solve_scalar_bvp` cold
(scalar_bvp's caches of eta0-free problems, line_problem and
base_point_log, cleared first) and warm, the one-pass (X+, X-) pair at
200 samples on the line (seed 41's draw of `rhflow scalar_bvp`, both
halves) by the solution's call, or on a base that predates it by the
method that returned the pair there, and `verify_uniqueness` with the
alternative base point 0.7i, at its own default grid, cold and warm.  On
a side without those caches, cold and warm time the same call.
For each probe direction of SMOOTHNESS_CASES (theta1 and a_re), the
"smoothness" layer is the sweep-probe workload's `smoothness` op at R = 4,
M = 128, orders [1, 2], step 0.01: `cli_driver._cmd_smoothness` with its
`_write` stubbed, so every stencil solve and both probes run through each
side's own `smoothness_probe`, with no file system.  The "sweep_r" layer is
a sweep-probe `sweep_r` op over the rungs of SWEEP_LADDER (pentagon,
M = 128, max_iter 100) through `cli_driver._cmd_sweep_r` with its `_write`
stubbed.  Both command layers take a fresh copy of their configuration
per call, as every CLI op parses its own.
Each side runs with one BLAS thread; the sides alternate for LAYER_ROUNDS
short rounds (about a second each), so a slow spell of a shared host lands
on both.  In a round each node count of CASES, with the smoothness and
sweep_r cases at M = 128, and the scalar cases run in a fresh interpreter
of their own, so that no case's times depend on what the cases before it
left in the allocator (a cold `init_state` at M = 512 read 0.1 ms slower
after the M = 128 cases in one interpreter).  Each layer is reported in ms
per call, per side, as the median and quartiles of its round medians and
the minimum of all its samples, with the number of rounds the tree won
(round i of each side is a pair).

Both sides run from fresh directories: a `git archive` of the base and a
copy of the working tree's files (tracked or untracked, not ignored), each
with its `src` and `bench` compiled to bytecode before any run.  A run
under PYTHONDONTWRITEBYTECODE=1 would otherwise compile every module
afresh, and the compiler's freed memory stays in its peak RSS, which then
reads the size of the source rather than what the run keeps.

End to end: for each `--workload`, `bench/run.py --trace 0` runs from both
for BENCHMARK.json's `run_seconds`, PAIRS pairs at seeds 41, 42, ..., the
side that runs first alternating from pair to pair.  Every run's metrics
are kept, with each side's median and quartiles and the number of pairs the
tree won by each metric's `better` direction.  A run's `residual_max` is a
max over the ops it attempted, and its `peak_rss_mb` grows with the results
it keeps, so a faster side reads higher on both.  The record therefore
adds, per side, the first ops of seed 41's stream, as many as every run
attempted, run by bench/run.py's `setup` and `run_op` in a fresh
interpreter for OP_ROUNDS alternating rounds: their failures, their
largest gate residual and the peak RSS after them.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import chain, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ((4.0, 128), (1.0, 128), (0.3, 128), (0.15, 128),
         (1.0, 512), (0.3, 512), (1.0, 2048))
LAYERS = ("init_state cold", "init_state warm", "iterate_once", "truncation_guard", "solve",
          "check_jump", "check_reality", "verify", "format", "write")
SMOOTHNESS_CASES = ("theta1", "a_re")  # probe directions of the sweep-probe workload
SWEEP_LADDER = (0.15, 0.5, 4.0)  # a sweep-probe ladder: one rung per rung class
SCALAR_CASES = ((0.1, ()), (0.25, ((0.8, 2),)))  # eta0, (zero on the line, order)
SCALAR_LAYERS = ("solve_scalar_bvp cold", "solve_scalar_bvp warm", "boundary pair",
                 "verify_uniqueness cold", "verify_uniqueness warm")
LAYER_ROUNDS = 12  # alternating rounds of layer times
OP_ROUNDS = 3      # alternating rounds of fixed-op runs
PAIRS = 10         # alternating end-to-end pairs per workload
SAMPLES = {"solve": 3}  # per round; every other layer takes 5
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _per_call(fn, count: int) -> list[float]:
    """count samples of fn's time in ms per call, each over enough calls
    to take about 2 ms."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(2e-3 / max(time.perf_counter() - start, 1e-9)))
    out = []
    for _ in range(count):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        out.append(1e3 * (time.perf_counter() - start) / calls)
    return out


def layer_calls(rh, R: float, M: int, tmp: Path) -> tuple[int, dict]:
    """The pentagon case at (R, M), solved and verified with rh (rhflow's
    rh_solver module): its iteration count, and a call per LAYERS name.
    "iterate_once" returns the stepped stack, "format" the texts per file name
    and "write" the new directory under tmp that it makes per call."""
    from rhflow import cli_driver as cli
    from rhflow.charge_lattice import pentagon_spectrum
    from rhflow.spectrum_rays import CentralCharge
    cfg = rh.SolverConfig(R=R, a=0.0, theta=(0.7, 1.3), spectrum=pentagon_spectrum(0.9),
                          Z=CentralCharge.constant(1.0, 1j), M=M, tol=1e-12, max_iter=100)
    state, report = rh.solve(cfg)
    residuals = rh.verify(state)
    clear = getattr(getattr(rh, "theta_free_problem", None), "cache_clear", lambda: None)
    rc = cli.RunConfig("solve", cfg, None, {})

    def artifacts() -> dict:
        texts = {}
        stubs = {"solve": lambda _: (state, dict(report)), "verify": lambda _: dict(residuals),
                 "_write": lambda path, *parts: texts.__setitem__(path.name, parts)}
        saved = {name: getattr(cli, name) for name in stubs}
        vars(cli).update(stubs)
        try:
            cli._cmd_solve(rc, tmp)
        finally:
            vars(cli).update(saved)
        return texts

    files = artifacts()

    def write() -> Path:
        out = Path(tempfile.mkdtemp(dir=tmp))
        for name, parts in files.items():
            cli._write(out / name, *parts)
        return out

    # a one-member stack at the solved state's values, kept, so that the
    # layer times one map and not the stack's allocation
    stack = rh._Stack([cfg], [state.problem], state.values.T[:, None])
    return report["iterations"], {
        "init_state cold": lambda: (clear(), rh.init_state(cfg)),
        "init_state warm": lambda: rh.init_state(cfg),
        "iterate_once": lambda: rh.iterate_once(stack),
        "truncation_guard": lambda: rh.truncation_guard(state),
        "solve": lambda: rh.solve(cfg),
        "check_jump": lambda: rh.check_jump(state),
        "check_reality": lambda: rh.check_reality(state),
        "verify": lambda: rh.verify(state),
        "format": artifacts,
        "write": write}


def _command_call(command: str, cfg, extras: dict, tmp: Path):
    """A call of cli_driver's runner of command on a fresh copy of cfg (as
    each CLI op parses its own) with extras, its `_write` stubbed to keep
    the texts, which it returns per file name: no file system."""
    from rhflow import cli_driver as cli

    def call() -> dict:
        texts = {}
        saved = cli._write
        cli._write = lambda path, *parts: texts.__setitem__(path.name, parts)
        try:
            cli._RUNNERS[command](cli.RunConfig(command, dataclasses.replace(cfg), None, extras),
                                  tmp)
        finally:
            cli._write = saved
        return texts
    return call


def smoothness_call(rh, direction: str, tmp: Path):
    """The sweep-probe workload's `smoothness` op for direction: pentagon,
    theta = (0.7, 1.3), R = 4, M = 128, max_iter 100, orders [1, 2], step
    0.01, for a_re on z1 = 1 + a/2 at a = 0.1, by
    `cli_driver._cmd_smoothness` (_command_call): every stencil solve and
    both probes through each side's own `smoothness_probe`."""
    from rhflow.charge_lattice import pentagon_spectrum
    from rhflow.spectrum_rays import CentralCharge
    Z, a = ((CentralCharge((1.0, 0.5), (1j,)), 0.1) if direction.startswith("a_")
            else (CentralCharge.constant(1.0, 1j), 0.0))
    cfg = rh.SolverConfig(R=4.0, a=a, theta=(0.7, 1.3), spectrum=pentagon_spectrum(0.9),
                          Z=Z, M=128, max_iter=100)
    return _command_call("smoothness", cfg, {"smoothness": {
        "direction": direction, "orders": [1, 2], "step": 0.01}}, tmp)


def sweep_call(rh, tmp: Path):
    """A sweep-probe workload's `sweep_r` op: the pentagon at theta =
    (0.7, 1.3), M = 128, max_iter 100 over the rungs SWEEP_LADDER, by
    `cli_driver._cmd_sweep_r` (_command_call): every rung's solve and
    checks through each side's own code."""
    from rhflow.charge_lattice import pentagon_spectrum
    from rhflow.spectrum_rays import CentralCharge
    cfg = rh.SolverConfig(R=SWEEP_LADDER[0], a=0.0, theta=(0.7, 1.3),
                          spectrum=pentagon_spectrum(0.9), Z=CentralCharge.constant(1.0, 1j),
                          M=128, max_iter=100)
    return _command_call("sweep_r", cfg, {"R_values": list(SWEEP_LADDER)}, tmp)


def time_layers(src: str, group: str) -> dict:
    """Samples per case and layer of one group, with rhflow imported from
    src: the CASES at M = group and, at M = 128, the SMOOTHNESS_CASES and
    the SWEEP_LADDER, or the SCALAR_CASES for group "scalar"."""
    sys.path.insert(0, src)
    if group == "scalar":
        return time_scalar_layers()
    from rhflow import rh_solver as rh
    out = {}
    with tempfile.TemporaryDirectory(prefix="layer-times-write-") as tmp:
        for R, M in CASES:
            if M != int(group):
                continue
            iterations, fns = layer_calls(rh, R, M, Path(tmp))
            out[f"R={R:g},M={M}"] = {"iterations": iterations,
                                     **{name: _per_call(fns[name], SAMPLES.get(name, 5))
                                        for name in LAYERS}}
        if int(group) == 128:
            for direction in SMOOTHNESS_CASES:
                fn = smoothness_call(rh, direction, Path(tmp))
                out[f"smoothness {direction},R=4,M=128"] = {"smoothness": _per_call(fn, 5)}
            ladder = ",".join(f"{R:g}" for R in SWEEP_LADDER)
            out[f"sweep_r R={ladder},M=128"] = {
                "sweep_r": _per_call(sweep_call(rh, Path(tmp)), 5)}
    return out


def time_scalar_layers() -> dict:
    """Samples per scalar case and layer, with rhflow already on the path."""
    import numpy as np
    from rhflow import scalar_bvp as sb
    from rhflow.cli_driver import _scalar_problem
    caches = [getattr(sb, name, None) for name in ("line_problem", "base_point_log")]

    def clear():
        for cache in filter(None, caches):
            cache.cache_clear()

    rng = np.random.default_rng(41)
    ts = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=100))
    ts = np.concatenate([ts, -ts])
    out = {}
    for eta0, zeros in SCALAR_CASES:
        p = _scalar_problem({"jump": {"kind": "manufactured", "eta0": eta0},
                             "zeros": [[[t0, 0.0], m] for t0, m in zeros]})
        sol = sb.solve_scalar_bvp(p, M=512)
        at = np.array([t0 for t0, _ in zeros], dtype=float)  # as rhflow scalar_bvp drops
        zeta = p.contour_point(ts[np.all(np.abs(ts[:, None] - at) > 1e-2, axis=1)])
        fns = {"solve_scalar_bvp cold": lambda: (clear(), sb.solve_scalar_bvp(p, M=512)),
               "solve_scalar_bvp warm": lambda: sb.solve_scalar_bvp(p, M=512),
               "boundary pair": lambda: getattr(sol, "boundary_values", sol)(zeta),
               "verify_uniqueness cold": lambda: (clear(), sb.verify_uniqueness(p, 0.7j)),
               "verify_uniqueness warm": lambda: sb.verify_uniqueness(p, 0.7j)}
        out[f"scalar eta0={eta0:g},zeros={len(zeros)}"] = {
            name: _per_call(fns[name], 5) for name in SCALAR_LAYERS}
    return out


def fixed_ops(root: str, workload: str, seed: int, count: int) -> dict:
    """The first count ops of a workload's seeded stream, run by root's
    bench/run.py (its setup, then run_op), each result kept: how many failed
    the gate, their largest gate residual and the peak RSS after them."""
    sys.path.insert(0, str(Path(root) / "bench"))
    import run
    cli, first, blocks, _ = run.setup(workload, seed, Path(root))
    ops = islice(chain.from_iterable(chain(first, blocks)), count)
    with tempfile.TemporaryDirectory(prefix="layer-times-ops-") as tmp:
        results = [run.run_op(cli, op, Path(tmp))[1] for op in ops]
    return {"failed": sum(not r.ok for r in results),
            "residual_max": max((r.residual for r in results if r.residual is not None),
                                default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _child(args: list[str], **kw) -> subprocess.CompletedProcess:
    env = dict(os.environ, **THREADS)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, **kw)


def _last_line(proc: subprocess.CompletedProcess):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles over its runs, and in how
    many pairs (the i-th run of each side) the tree was better, by the
    metric's direction ("higher" or "lower"); ties count for neither."""
    summary = {}
    for metric, direction in better.items():
        pairs = [(b[metric], t[metric]) for b, t in zip(runs["base"], runs["tree"])]
        wins = sum((t > b) if direction == "higher" else (t < b) for b, t in pairs)
        summary[metric] = {"base": _quartiles([b for b, _ in pairs]),
                           "tree": _quartiles([t for _, t in pairs]),
                           "tree_wins": f"{wins} of {len(pairs)}"}
    return summary


def layer_summary(rounds: dict[str, list[dict]]) -> dict:
    """Per case and layer, from each side's rounds (time_layers' output, one
    per round): summarize's quartiles of the round medians and rounds won
    (pair i is round i of each side; lower wins), each side's minimum over
    all samples, and each side's iteration count where the case has one."""
    out = {}
    for case, first in rounds["base"][0].items():
        names = [name for name in first if name != "iterations"]
        medians = {side: [{name: statistics.median(r[case][name]) for name in names}
                          for r in rs] for side, rs in rounds.items()}
        summary = summarize(medians, dict.fromkeys(names, "lower"))
        for name in names:
            for side, rs in rounds.items():
                summary[name][side]["min"] = min(x for r in rs for x in r[case][name])
        if "iterations" in first:
            summary = {"iterations": {side: rs[0][case]["iterations"]
                                      for side, rs in rounds.items()}, **summary}
        out[case] = summary
    return out


def layers(sides: dict[str, Path]) -> dict:
    """LAYER_ROUNDS alternating rounds; a round of a side runs each group of
    layer_groups() in a fresh interpreter, so that no case's times depend
    on the allocations of cases with another M before it."""
    rounds: dict = {side: [] for side in sides}
    for i in range(LAYER_ROUNDS):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            times = {}
            for group in layer_groups():
                times.update(_last_line(_child([__file__, "--layers-of",
                                                str(sides[side] / "src"), group])))
            rounds[side].append(times)
    return {"rounds": LAYER_ROUNDS, "ms_per_call": layer_summary(rounds)}


def layer_groups() -> list[str]:
    """The node counts of CASES, and "scalar"."""
    return [str(M) for M in sorted({M for _, M in CASES})] + ["scalar"]


def end_to_end(sides: dict[str, Path], workload: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs: dict = {side: [] for side in sides}
    seeds = [41 + i for i in range(PAIRS)]
    for i, seed in enumerate(seeds):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            proc = _child([str(sides[side] / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=sides[side])
            result = _last_line(proc)
            runs[side].append({"seed": seed, "attempted": result["attempted"],
                               "failed": result["failed"],
                               **{k: m["value"] for k, m in result["metrics"].items()}})
    count = min(run["attempted"] for run in chain(*runs.values()))
    fixed: dict = {side: [] for side in sides}
    for i in range(OP_ROUNDS):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            fixed[side].append(_last_line(_child([__file__, "--ops-of", str(sides[side]),
                                                  workload, str(seeds[0]), str(count)])))
    return {"seeds": seeds, "seconds": seconds, "runs": runs,
            "summary": summarize(runs, better),
            "fixed_ops": {"seed": seeds[0], "ops": count, **fixed}}


def make_sides(tmp: Path, sha: str) -> dict[str, Path]:
    """The base (a git archive of sha) and the tree (a copy of the working
    tree's tracked and untracked, not ignored files) under tmp, each with
    its src and bench compiled to bytecode."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
    # the tree runs from a copy too: run from the checkout, the same code
    # read 0.1-0.2 MiB more peak RSS than from a fresh directory
    files = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, text=True,
                           check=True).stdout.split("\0")
    sides = {"base": tmp / "base", "tree": tmp / "tree"}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(sides["base"], filter="data")
    for name in files:
        if (ROOT / name).is_file():  # not deleted in the working tree
            (sides["tree"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, sides["tree"] / name)
    for side in sides.values():
        for part in ("src", "bench"):
            if not compileall.compile_dir(side / part, quiet=1):
                raise RuntimeError(f"cannot compile {side / part}")
    return sides


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "threads": THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON record to write")
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    parser.add_argument("--workload", action="extend", nargs="+", default=[])
    parser.add_argument("--layers-of", nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--ops-of", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layers_of:
        print(json.dumps(time_layers(*args.layers_of)))
        return 0
    if args.ops_of:
        root, workload, seed, count = args.ops_of
        print(json.dumps(fixed_ops(root, workload, int(seed), int(count))))
        return 0
    if not args.out:
        parser.error("--out is required")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="layer-times-") as tmp:
        sides = make_sides(Path(tmp), sha)
        record = {"base": sha, "tree": "working tree", "environment": environment(),
                  "cases": "pentagon, support constant 0.9, Z = (1, i), a = 0, "
                           "theta = (0.7, 1.3), tol 1e-12, max_iter 100",
                  "layers": layers(sides),
                  "end_to_end": {w: end_to_end(sides, w) for w in args.workload}}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
