"""Compare the CLI artifacts of a base git ref with those of the working tree.

    python tools/artifact_diff.py [--base REF] [--work DIR]

Runs a pinned list of ops through `rhflow.cli_driver.main` on a `git
archive` of the base ref (default HEAD) and on the working tree's `src`,
each side in a fresh interpreter with one BLAS thread (threaded BLAS splits
products differently by matrix size, on any commit).  The tree side runs
each op a second time right after the first, into a second output tree:
no op solves more theta-free problems than rh_solver.theta_free_problem
keeps (its CACHE_BYTES), so every solve of the repeat finds its problem
built, and the repeats must give the same bytes and exit codes as the
first runs, with no cache miss.  Prints
each op's exit codes, the `diff -r` of the two output trees, for each
residual field how many of its values rose over the base and the largest
rise with its op, when the trees differ the largest absolute difference of
each numeric field of each differing JSON or CSV artifact, and the `diff -r`
of the tree's two passes with the repeats' cache misses.  Exits 0 when the
trees are identical, the two passes are identical with no miss in the
repeats, and every exit code matches; 1 otherwise.

The op list is the first block of each `bench/workloads.py` generator
(imported read-only) at fixed seeds, pentagon `solve` at R in {0.01, 0.05,
0.08} with tol 1e-14 (small R, where the iteration does not contract), at R = 1
with M = 2048 (a wide grid), the mutually local spectra {+-gamma1} with
Omega = 2, {+-(gamma1 + gamma2)} and {+-gamma1, +-2 gamma1} at R = 0.1, at
R = 1 with complex a and a split_phase, at R = 0.3 with max_iter 3 (no
convergence: the error carries the last delta and the worst ratio) and at
M = 64 with ball_epsilon 1e-10 (every iterate leaves the ball), `sweep_r`
over R in {4, 0.3} and {0.3, 4} at max_iter 5 (a failing rung after and
before one that converges), over {0.09, 4} at theta = (3, 3) (the first
rung fails the |Y| < 1 guard), over a ladder with repeated rungs and over
five rungs of the generic two-pair spectrum at M = 512, `smoothness` in every probe direction at
orders 1 to 3, at orders [3, 1] (`smoothness-theta1-31`: points shared by
orders given out of order), at the sweep-probe stencils with R = 0.15 (members of one
batch converge at different steps, and with max_iter 78 some do not, the
first of them not the first member) and once where a converged stencil
solve fails the |Y| < 1 guard, a few `deform_check`, `saddle_check` and manufactured-jump
`scalar_bvp` configs (one with a complex exponent), and one `scalar_bvp`
with a sampled jump.  Outputs go to `--work` (kept) or to a temporary
directory (removed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

BENCH_SEEDS = {"solve-verify": (1, 2), "sweep-probe": (1, 3), "scalar-bvp": (1,)}

PENTAGON = {
    "R": 4.0, "a": [0.0, 0.0], "theta": [0.7, 1.3],
    "spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1], [[0, -1], 1],
                             [[1, 1], 1], [[-1, -1], 1]],
                 "support_constant": 0.9},
    "Z": {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]},
}


def pinned_ops() -> list[dict]:
    """The op list: name, command, config document and seed of each op."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    ops = []
    for workload, seeds in BENCH_SEEDS.items():
        for seed in seeds:
            block = next(WORKLOADS[workload](random.Random(seed)))
            ops += [{"name": f"{workload}-{seed}-{i:02d}-{op.command}",
                     "command": op.command, "doc": op.doc, "seed": op.seed}
                    for i, op in enumerate(block)]

    def add(name, command, doc):
        ops.append({"name": name, "command": command, "doc": doc, "seed": 0})

    for R in (0.01, 0.05, 0.08):
        add(f"solve-small-R{R}", "solve",
            {"problem": dict(PENTAGON, R=R, tol=1e-14)})
    # a wide grid: the node operator's FFT application at M = 2048
    add("solve-M2048", "solve", {"problem": dict(PENTAGON, R=1.0, M=2048)})
    # mutually local spectra, where Theta(0) has an all-orders Bessel sum:
    # the pair {+-gamma1} with Omega = 2, {+-(gamma1 + gamma2)} (sigma = -1)
    # and {+-gamma1, +-2 gamma1} (two charges on one BPS ray)
    for name, entries in (("pair-omega2", [[[1, 0], 2], [[-1, 0], 2]]),
                          ("diagonal", [[[1, 1], 1], [[-1, -1], 1]]),
                          ("double", [[[1, 0], 1], [[-1, 0], 1], [[2, 0], 1], [[-2, 0], 1]])):
        add(f"solve-{name}-R0.1", "solve",
            {"problem": dict(PENTAGON, R=0.1, spectrum={"entries": entries,
                                                        "support_constant": 0.5})})
    # complex a with a central charge that depends on it (z1 = 1 + a/2), on a
    # contour ray set by split_phase rather than the default split
    add("solve-complex-a-split", "solve",
        {"problem": dict(PENTAGON, R=1.0, M=256, a=[0.1, 0.05], split_phase=1.172,
                         Z={"z1": [[1.0, 0.0], [0.5, 0.0]], "z2": [[0.0, 1.0]]})})
    add("solve-no-convergence", "solve", {"problem": dict(PENTAGON, R=0.3, max_iter=3)})
    add("solve-ball-exits", "solve",
        {"problem": dict(PENTAGON, M=64, ball_epsilon=1e-10)})
    add("sweep_r-no-convergence", "sweep_r",
        {"problem": dict(PENTAGON, max_iter=5), "R_values": [4.0, 0.3]})
    # a ladder's rungs are one batch: the first rung fails while the later
    # one converges, a rung that fails the |Y| < 1 guard comes before one
    # that converges, rungs repeat, and a generic spectrum at M = 512
    add("sweep_r-first-rung-fails", "sweep_r",
        {"problem": dict(PENTAGON, max_iter=5), "R_values": [0.3, 4.0]})
    add("sweep_r-truncation-unsafe-first", "sweep_r",
        {"problem": dict(PENTAGON, R=0.09, theta=[3.0, 3.0], M=64, max_iter=200),
         "R_values": [0.09, 4.0]})
    add("sweep_r-duplicate-rungs", "sweep_r",
        {"problem": dict(PENTAGON, max_iter=100), "R_values": [0.5, 4.0, 0.5, 4.0, 0.5]})
    add("sweep_r-generic-M512", "sweep_r",
        {"problem": dict(PENTAGON, M=512, max_iter=100,
                         spectrum={"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1],
                                               [[0, -1], 1]]},
                         Z={"z1": [[1.3, 0.2]], "z2": [[-0.25, 1.1]]}),
         "R_values": [0.3, 0.5, 1.0, 2.0, 4.0]})
    # every probe direction and order, and orders given out of order whose
    # points are shared (theta1-31); a_im needs a central charge that
    # depends on a (z1 = 1 + a/2 at a = 0.1)
    z_of_a = dict(PENTAGON, a=[0.1, 0.0], M=64,
                  Z={"z1": [[1.0, 0.0], [0.5, 0.0]], "z2": [[0.0, 1.0]]})
    for direction, orders in (("theta1", [3]), ("theta1", [3, 1]), ("theta2", [1, 2, 3]),
                              ("a_re", [3]), ("a_im", [1, 2, 3])):
        add(f"smoothness-{direction}-{''.join(map(str, orders))}", "smoothness",
            {"problem": z_of_a,
             "smoothness": {"direction": direction, "orders": orders, "step": 0.01}})
    # the sweep-probe stencils (M = 128, orders [1, 2]) at R = 0.15, where
    # the members of one batch converge at different steps (theta1: 86 and
    # 85, a_re: 78 and 79), and with max_iter 78, where the a_re members at
    # -h, -h/2 and 0 do not converge while those at +h and +h/2 do: the
    # error is the one of the first failing member, -h
    sweep_probe = {"theta1": dict(PENTAGON, R=0.15, max_iter=100),
                   "a_re": dict(PENTAGON, R=0.15, max_iter=100, a=[0.1, 0.0],
                                Z={"z1": [[1.0, 0.0], [0.5, 0.0]], "z2": [[0.0, 1.0]]})}
    for direction, problem in sweep_probe.items():
        add(f"smoothness-{direction}-R0.15", "smoothness",
            {"problem": problem,
             "smoothness": {"direction": direction, "orders": [1, 2], "step": 0.01}})
    add("smoothness-a_re-R0.15-members-fail", "smoothness",
        {"problem": dict(sweep_probe["a_re"], max_iter=78),
         "smoothness": {"direction": "a_re", "orders": [1, 2], "step": 0.01}})
    # converges, then |Y| >= 1 on a jump ray: TruncationUnsafeError, exit 2
    add("smoothness-truncation-unsafe", "smoothness",
        {"problem": dict(PENTAGON, R=0.09, theta=[3.0, 3.0], M=64, max_iter=200),
         "smoothness": {"direction": "theta1", "orders": [1], "step": 0.01}})
    for gamma in ([0, 1], [1, 0], [1, 1], [-1, 0]):
        for R in (2.0, 6.0):
            add(f"deform-{gamma[0]}{gamma[1]}-R{R}", "deform_check",
                {"problem": PENTAGON, "deform": {"gamma": gamma, "R": R}})
    for gamma in ([1, 0], [0, 1], [1, 1]):
        for factor in ([2.0, 0.0], [1.3, 0.4]):
            add(f"saddle-{gamma[0]}{gamma[1]}-{factor[0]}", "saddle_check",
                {"problem": dict(PENTAGON, M=256),
                 "saddle": {"gamma": gamma, "R_values": [1.0, 4.0, 16.0, 64.0],
                            "zeta_factor": factor}})
    for eta0, zeros, phase in ((0.25, [], 0.0), (-0.3, [[[0.8, 0.0], 2]], 0.0),
                               (0.1, [], 0.3)):
        add(f"scalar-{eta0}-{len(zeros)}-{phase}", "scalar_bvp",
            {"scalar": {"jump": {"kind": "manufactured", "eta0": eta0},
                        "zeros": zeros, "line_phase": phase, "zeta0": [0.0, 1.5],
                        "zeta0_alt": [0.0, 0.7], "samples": 100}})
    # a complex exponent: the branch factors' complex powers, with a double
    # zero and the uniqueness check's second base point
    add("scalar-complex-eta0", "scalar_bvp",
        {"scalar": {"jump": {"kind": "manufactured", "eta0": [0.1, 0.05]},
                    "zeros": [[[0.8, 0.0], 2]], "zeta0_alt": [0.0, 0.7], "samples": 100}})
    # a sampled jump: samples of a continuous jump, linear between them
    ts = [math.exp(k / 8) for k in range(-64, 65)]
    ts = [-t for t in reversed(ts)] + ts
    add("scalar-sampled", "scalar_bvp",
        {"scalar": {"jump": {"kind": "sampled", "t": ts,
                             "values": [_sampled_jump(t) for t in ts]},
                    "limits": [[1.0, 0.0]] * 4, "zeta0_alt": [0.0, 0.7],
                    "samples": 100}})
    return ops


def _sampled_jump(t: float) -> list[float]:
    """exp of a bump in log|t| that differs on the two halves, as [re, im]."""
    s = math.log(abs(t))
    bump = ((0.3 + 0.1j) * math.exp(-0.5 * s * s) if t > 0
            else (0.2 - 0.05j) * math.exp(-0.5 * (s - 0.3) ** 2))
    v = complex(math.exp(bump.real) * math.cos(bump.imag),
                math.exp(bump.real) * math.sin(bump.imag))
    return [v.real, v.imag]


def _numeric_fields(path: Path) -> dict[str, list[float]]:
    """The numbers of a JSON artifact by key path, or of a CSV artifact by
    numeric column."""
    fields: dict[str, list[float]] = {}
    if path.suffix == ".json":
        def walk(obj, key):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(v, f"{key}[{i}]")
            elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
                fields[key] = [float(obj)]
        walk(json.loads(path.read_text()), "")
        return fields
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for column in rows[0] if rows else ():
        try:
            fields[column] = [float(row[column]) for row in rows]
        except (TypeError, ValueError):
            pass  # a text column (ray, direction, case) has no numbers
    return fields


def _gap(x: float, y: float) -> float:
    return 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)


def numeric_differences(base: Path, tree: Path) -> list[str]:
    """One line per numeric field that differs between a JSON or CSV
    artifact of base and the same file of tree: the largest absolute
    difference over the field's values."""
    lines = []
    for b in sorted(base.rglob("*")):
        t = tree / b.relative_to(base)
        if (b.suffix not in (".json", ".csv") or not t.is_file()
                or b.read_bytes() == t.read_bytes()):
            continue
        fb, ft = _numeric_fields(b), _numeric_fields(t)
        for field in sorted(fb.keys() | ft.keys()):
            vb, vt = fb.get(field), ft.get(field)
            if vb is None or vt is None or len(vb) != len(vt):
                gap = "present on one side only or of another length"
            else:
                worst = max(map(_gap, vb, vt))
                if not worst:
                    continue
                gap = format(worst, ".3g")
            lines.append(f"  {b.relative_to(base)}  {field}: {gap}")
    return lines


def _residual_fields(path: Path) -> dict[str, list[float]]:
    """The residual fields of an artifact: `residuals.*` of `report.json`
    and `scalar_report.json`, the residual columns of `sweep.csv`."""
    if path.name in ("report.json", "scalar_report.json"):
        return {k: v for k, v in _numeric_fields(path).items()
                if k.startswith("residuals.")}
    if path.name == "sweep.csv":
        fields = _numeric_fields(path)
        return {k: fields[k] for k in ("jump_residual", "reality_residual") if k in fields}
    return {}


def residual_rises(base: Path, tree: Path) -> list[str]:
    """One line per residual field over all ops: how many of its values rose
    over the base (a NaN where the base is a number counts as a rise), the
    largest value on each side (NaN if any is), and the largest rise with
    the op it occurred on."""
    values: dict[str, tuple[list, list, list]] = {}  # base, tree, op per value
    for b in sorted(base.rglob("*")):
        t = tree / b.relative_to(base)
        if not (b.is_file() and t.is_file()):
            continue
        ft = _residual_fields(t)
        for field, vb in _residual_fields(b).items():
            vt = ft.get(field)
            if vt is None or len(vt) != len(vb):
                continue  # numeric_differences reports the mismatch
            xs, ys, ops = values.setdefault(f"{b.name} {field}", ([], [], []))
            xs += vb
            ys += vt
            ops += [b.relative_to(base).parts[0]] * len(vb)
    lines = []
    for field, (xs, ys, ops) in sorted(values.items()):
        rises = [math.inf if math.isnan(y) and not math.isnan(x) else y - x
                 for x, y in zip(xs, ys)]
        rose = [i for i, r in enumerate(rises) if r > 0]
        line = (f"  {field}: {len(rose)} of {len(xs)} rose; "
                f"max {np.max(xs):.3g} -> {np.max(ys):.3g}")
        if rose:
            top = max(rose, key=rises.__getitem__)
            line += f"; largest rise {rises[top]:.3g} on {ops[top]}"
        lines.append(line)
    return lines


def run_side(src: str, ops_file: str, out: str, again: str | None = None) -> None:
    """Run every op with rhflow imported from src; write the exit codes to
    out + '.codes.json' and the artifacts under out/<op name>.  With again,
    run each op a second time right after the first, into again, and write
    its exit codes and the misses of rh_solver.theta_free_problem in these
    repeats to again + '.codes.json'."""
    sys.path.insert(0, src)
    from rhflow import cli_driver, rh_solver
    if not Path(cli_driver.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"rhflow imported from {cli_driver.__file__}, not {src}")
    ops = json.loads(Path(ops_file).read_text())
    configs = Path(out + ".configs")
    configs.mkdir(parents=True)
    codes, repeats, missed = {}, {}, 0

    def run(op, root):
        try:
            return cli_driver.main(
                [op["command"], "--config", str(configs / f"{op['name']}.json"),
                 "--out", f"{root}/{op['name']}", "--seed", str(op["seed"])])
        except Exception as exc:  # an op that raises is a result to compare
            return f"raised {type(exc).__name__}"

    for op in ops:
        (configs / f"{op['name']}.json").write_text(json.dumps(op["doc"], sort_keys=True),
                                                    encoding="utf-8")
        codes[op["name"]] = run(op, out)
        if again:
            info = rh_solver.theta_free_problem.cache_info
            before = info().misses
            repeats[op["name"]] = run(op, again)
            missed += info().misses - before
    Path(out + ".codes.json").write_text(json.dumps(codes, indent=1))
    if again:
        Path(again + ".codes.json").write_text(json.dumps(
            {"codes": repeats, "cache_misses": missed}, indent=1))


def _spawn(src: Path, ops_file: Path, out: Path, again: Path | None = None) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    with open(f"{out}.stderr", "w") as err:
        subprocess.run([sys.executable, __file__, "--side", str(src), str(ops_file),
                        str(out), *([str(again)] if again else [])],
                       env=env, stderr=err, check=True)
    return json.loads(Path(f"{out}.codes.json").read_text())


def compare(base: str, work: Path) -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", base],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(work / "base", filter="data")
    ops_file = work / "ops.json"
    ops = pinned_ops()
    ops_file.write_text(json.dumps(ops))
    codes = {"base": _spawn(work / "base" / "src", ops_file, work / "out-base"),
             "tree": _spawn(ROOT / "src", ops_file, work / "out-tree",
                            work / "out-tree-again")}
    repeat = json.loads((work / "out-tree-again.codes.json").read_text())
    diff = subprocess.run(["diff", "-r", "out-base", "out-tree"], cwd=work,
                          capture_output=True, text=True)
    again = subprocess.run(["diff", "-r", "out-tree", "out-tree-again"], cwd=work,
                           capture_output=True, text=True)
    print(f"{len(ops)} ops, base {base} vs working tree")
    print("exit codes (base -> tree):")
    mismatched = 0
    for op in ops:
        b, t = codes["base"][op["name"]], codes["tree"][op["name"]]
        mismatched += b != t
        print(f"  {op['name']:<40} {b} -> {t}{'   MISMATCH' if b != t else ''}")
    print(diff.stdout, end="")
    print("residuals (values that rose over the base, of all compared):")
    print("\n".join(residual_rises(work / "out-base", work / "out-tree")))
    identical = diff.returncode == 0
    if not identical:
        print("largest absolute difference per numeric field:")
        print("\n".join(numeric_differences(work / "out-base", work / "out-tree")))
    print(f"tree, each op run again (theta-free cache misses in the repeats: "
          f"{repeat['cache_misses']}):")
    print(again.stdout, end="")
    for name, code in codes["tree"].items():
        if repeat["codes"][name] != code:
            print(f"  {name:<40} {code} -> {repeat['codes'][name]}   MISMATCH")
    repeated = (again.returncode == 0 and repeat["codes"] == codes["tree"]
                and repeat["cache_misses"] == 0)
    print(f"diff -r: {'empty' if identical else 'DIFFERS'}; "
          f"exit codes: {'all match' if not mismatched else f'{mismatched} differ'}; "
          f"second pass: {'identical' if repeated else 'DIFFERS'}")
    return 0 if identical and not mismatched and repeated else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    parser.add_argument("--work", help="directory for the outputs (kept)")
    parser.add_argument("--side", nargs="+", metavar="SRC OPS OUT [AGAIN]",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        run_side(*args.side)
        return 0
    if args.work:
        work = Path(args.work).resolve()
        work.mkdir(parents=True, exist_ok=False)
        code = compare(args.base, work)
        print(f"outputs kept in {work}")
        return code
    work = Path(tempfile.mkdtemp(prefix="artifact-diff-"))
    try:
        return compare(args.base, work)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
