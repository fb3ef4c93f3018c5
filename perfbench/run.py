"""perronkit benchmark: a closed loop of CLI ops on one workload.

    python3 perfbench/run.py --workload tridiag_slow --seed 1 --seconds 25 --trace 0

Run from the root of a perronkit checkout.  One client starts one
``perronkit`` child process at a time, with BLAS and OpenMP pinned to one
thread, and waits for it to exit before starting the next.  Every op is
checked against an oracle computed outside the timed region.  A reference
child (reference.py) runs between ops; the times are scaled by the machine
speed it shows, so they read as seconds on the reference machine.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs in-process through ``perronkit.cli.main`` with spans around each
layer and prints the per-layer metrics (see spans.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import reference  # noqa: E402
from proc import PIN, check_op, parse_record, spawn  # noqa: E402

# Pin BLAS/OpenMP before numpy loads: the children inherit it, and the traced
# run executes perronkit in this process.
os.environ.update(PIN)

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

COLD_OPS = 5  # the first ops run from a fresh copy of the package; their first child gives setup_s
MIN_OPS = 4
REF_SAMPLES = 10  # reference children per run: one before the first op, the rest spread between ops
RUN_CAP_S = 140.0  # ops not started by then count as failed (timeouts), keeping a run under 180 s
CHILD = "import sys; from perronkit.cli import main; sys.exit(main())"
END_TO_END = {  # name -> unit; failed_frac is printed but is 0 when all is well (see NOTES.md)
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ok_ops_per_s": "1/s", "peak_rss_mb": "MB",
}


class SourceMissing(Exception):
    pass


def find_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "perronkit", "cli.py")):
        raise SourceMissing(f"no perronkit source under {src}; run from the root of a checkout")
    return src


def environment(seed: int, root: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": PIN["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(root), "seed": seed,
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def op_plan(n_ops: int, n_inputs: int) -> list:
    """Input index of each op.  Op 1 repeats op 0's input: the determinism check."""
    return [0] + [(k - 1) % n_inputs for k in range(1, n_ops)]


def n_ops_for(workload, seconds: float, scale: str) -> int:
    per_op = workload.op_seconds if scale == "full" else 0.3 * workload.children
    return max(MIN_OPS, round(seconds / per_op))


def inputs_digest(inputs) -> str:
    """sha256 over the input labels and the bytes of the input files made so far."""
    h = hashlib.sha256()
    for inp in inputs:
        h.update(inp.label.encode())
        for path in inp.files:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def result_bytes(records) -> list:
    return [None if r is None else json.dumps(r.get("result"), sort_keys=True) for r in records]


# ---------------------------------------------------------------- untraced run

def run_untraced(workload, inputs, plan, src, work, tamper=None, log=print) -> dict:
    """Closed loop over the plan; returns attempted, failed and the metrics.
    The workload's reference child (reference.py) runs REF_SAMPLES times, before the
    first op and evenly between ops; the median of its wall times gives the
    speed that scales the times."""
    cold_src = []
    for k in range(min(COLD_OPS, len(plan))):
        dest = os.path.join(work, f"cold{k}")
        shutil.copytree(os.path.join(src, "perronkit"), os.path.join(dest, "perronkit"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cold_src.append(dest)
    # compile the package's bytecode once so the warm ops do not pay for it
    spawn(["-c", "import perronkit.cli"], src, os.path.join(work, "warm.out"),
          os.path.join(work, "warm.err"), 60.0)

    ref_times = []

    def gauge(timed=True):
        out, err = os.path.join(work, "ref.out"), os.path.join(work, "ref.err")
        res = spawn([os.path.join(HERE, "reference.py"), workload.reference], HERE, out, err, 60.0)
        if res.code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"reference child exited with {res.code}: {fh.read()[-500:]}")
        if timed:
            ref_times.append(res.wall_s)

    gauge(timed=False)  # warm-up
    ops = []
    begin = time.perf_counter()
    gauge()
    for k, idx in enumerate(plan):
        remaining = RUN_CAP_S - (time.perf_counter() - begin)
        if remaining <= 0:
            ops.append(None)
            continue
        pythonpath = cold_src[k] if k < len(cold_src) else src
        children = []
        for c, argv in enumerate(workload.commands(inputs[idx])):
            base = os.path.join(work, f"op{k}.{c}")
            res = spawn(["-c", CHILD, *argv], pythonpath, base + ".out", base + ".err", remaining)
            children.append(res)
            remaining = RUN_CAP_S - (time.perf_counter() - begin)
            if res.code != 0:
                break
        ops.append(children)
        due = 1 + round((k + 1) * (REF_SAMPLES - 1) / len(plan))
        while len(ref_times) < due and time.perf_counter() - begin < RUN_CAP_S:
            gauge()
    timed_wall = time.perf_counter() - begin - sum(ref_times)
    speed = statistics.median(ref_times) / reference.NOMINAL_S[workload.reference]

    first_result = {}
    walls, setup, rss, failed, ok = [], [], [], 0, 0
    for k, (idx, children) in enumerate(zip(plan, ops)):
        if children is None:
            failed += 1
            log(f"op {k:3d} input {idx}: FAILED not started before the {RUN_CAP_S:.0f} s cap")
            continue
        wall = sum(ch.wall_s for ch in children)
        walls.append(wall)
        rss.extend(ch.maxrss_kb for ch in children)
        if k < COLD_OPS:
            setup.append(children[0].wall_s)
        errors, records = [], []
        commands = workload.commands(inputs[idx])
        for ch, argv in zip(children, commands):
            if ch.timed_out:
                errors.append(f"{argv[0]}: timed out")
            elif ch.code != 0:
                errors.append(f"{argv[0]}: exit code {ch.code}")
            with open(ch.out_path, encoding="utf-8", errors="replace") as fh:
                record, err = parse_record(fh.read(), "--json" in argv)
            os.remove(ch.out_path)
            if err:
                errors.append(f"{argv[0]}: {err}")
            records.append(record)
        if len(children) < len(commands):
            errors.append("op stopped after a failed command")
        errors = check_op(workload, inputs[idx], records, errors, tamper)
        if not errors and plan.count(idx) > 1:  # only recurring inputs are compared
            got = result_bytes(records)
            if first_result.setdefault(idx, got) != got:
                errors.append(f"result bytes differ from the first run of input {idx}")
        failed += bool(errors)
        ok += not errors
        state = "ok" if not errors else "FAILED " + "; ".join(errors)
        log(f"op {k:3d} input {idx} {'cold' if k < COLD_OPS else 'warm'} {wall:8.3f} s  {state}")

    walls.sort()
    n = len(walls)
    tail_pct, tail = tail_percentile(walls)
    raw = {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "op_p50_s": statistics.median(walls) if walls else float("nan"),
        "op_tail_s": tail,
        "ok_ops_per_s": ok / timed_wall,
    }
    # times in seconds of the reference machine: divided by the speed, rates multiplied
    metrics = {k: v * speed if k == "ok_ops_per_s" else v / speed for k, v in raw.items()}
    metrics["peak_rss_mb"] = max(rss) * 1024 / 1e6 if rss else float("nan")
    notes = {
        "setup_s": f"median first-child wall of {len(setup)} cold ops",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{tail_pct:g}, n={n}" + ("" if n >= 20 else ": the max, as n < 20"),
        "ok_ops_per_s": f"{ok} correct ops in {timed_wall:.3f} s, reference children excluded",
        "peak_rss_mb": f"max over {len(rss)} children",
    }
    log(f"speed {speed!r}: median {workload.reference} reference child {statistics.median(ref_times):.4f} s "
        f"over n={len(ref_times)}, nominal {reference.NOMINAL_S[workload.reference]} s")
    log(f"metric failed_frac {failed / len(plan)!r} ratio ({failed} of {len(plan)} attempted)")
    for name, unit in END_TO_END.items():
        measured = f"; {raw[name]!r} {unit} as measured" if name in raw else ""
        log(f"metric {name} {metrics[name]!r} {unit} ({notes[name]}{measured})")
    return {"attempted": len(plan), "failed": failed, "metrics": metrics}


def tail_percentile(sorted_walls):
    """(percentile, value): the highest percentile with at least ten samples
    above it.  Below 20 samples that percentile would not exceed the median,
    so the maximum is reported instead, as p100."""
    n = len(sorted_walls)
    if n == 0:
        return 100, float("nan")
    k = n - 10 if n >= 20 else n
    return round(100.0 * k / n, 2), sorted_walls[k - 1]


# ---------------------------------------------------------------- entry point

def run(workload_name, seed, seconds, trace, scale="full", root=None, tamper=None, log=print) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    root = os.path.abspath(root or os.getcwd())
    src = find_source(root)
    workload = WORKLOADS[workload_name](scale)
    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, f"{workload_name}-s{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        log(f"# perfbench workload={workload_name} seed={seed} seconds={seconds} trace={trace} scale={scale}")
        log("# env " + json.dumps(environment(seed, root)))
        n_ops = n_ops_for(workload, seconds, scale)
        rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload_name)])
        inputs = workload.make_inputs(rng, n_ops - 1, work)
        plan = op_plan(n_ops, len(inputs))
        digest = inputs_digest(inputs)
        log(f"# inputs sha256 {digest[:16]} " + json.dumps([inputs[i].label for i in sorted(set(plan))]))
        if trace:
            import spans
            out = spans.run_traced(workload, inputs, sorted(set(plan))[:workload.trace_ops], src, work, scale,
                                   tamper, log, os.path.join(work_root, f"trace-{workload_name}-s{seed}.json"))
        else:
            out = run_untraced(workload, inputs, plan, src, work, tamper, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": out["failed"] == 0, "attempted": out["attempted"], "failed": out["failed"],
            "metrics": out["metrics"], "units": out.get("units", END_TO_END), "inputs_digest": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="nominal run length; fixes the op count, which no seed changes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="input sizes; tiny is for the self-test")
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
