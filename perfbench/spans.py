"""Traced run: perronkit.cli.main in-process, with spans around each layer.

Spans come from wrappers installed on perronkit's module attributes for the
duration of one traced call; the package itself is not modified.  A span
records its layer, op, parent, start and end; a layer's self time is its
duration minus that of its child spans.  Functions missing from a later
version of the package are simply not wrapped, and their layer reads 0.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass

from proc import check_op, parse_record, spawn

# (module, attribute) -> layer.  Each public function that perronkit.cli and
# perronkit.markov call, plus the constructors as io and cli see them.
WRAPPED = {
    ("perronkit.cli", "parse_matrix"): "io.parse",
    ("perronkit.cli", "write_matrix_market"): "io.write",
    ("perronkit.io", "from_dense"): "matcore.construct",
    ("perronkit.io", "from_coordinates"): "matcore.construct",
    ("perronkit.cli", "random_primitive"): "matcore.generate",
    ("perronkit.cli", "algorithm_a"): "solver",
    ("perronkit.cli", "algorithm_b"): "solver",
    ("perronkit.markov", "algorithm_b"): "solver",
    ("perronkit.cli", "damp"): "markov.damp",
    ("perronkit.cli", "stationary"): "markov.stationary",
    ("perronkit.cli", "is_irreducible"): "primitivity.is_irreducible",
    ("perronkit.cli", "is_primitive"): "primitivity.is_primitive",
    ("perronkit.cli", "bounds_report"): "bounds.report",
}

SELF_TIME = {  # metric -> the layer whose self time it reports
    "cli.self_s": "cli", "io.parse_s": "io.parse", "io.write_s": "io.write",
    "matcore.construct_s": "matcore.construct", "matcore.generate_s": "matcore.generate",
    "solver.s": "solver", "markov.damp_s": "markov.damp", "markov.stationary_self_s": "markov.stationary",
    "primitivity.is_irreducible_s": "primitivity.is_irreducible",
    "primitivity.is_primitive_s": "primitivity.is_primitive", "bounds.report_s": "bounds.report",
}

PER_LAYER = {  # name -> unit, in the order printed
    "cli.startup_s": "s", "cli.self_s": "s", "cli.emit_bytes": "bytes",
    "io.parse_s": "s", "io.parse_MBps": "MB/s", "io.write_s": "s", "io.write_MBps": "MB/s",
    "matcore.construct_s": "s", "matcore.generate_s": "s",
    "solver.s": "s", "solver.iterations": "count", "solver.us_per_iter": "us",
    "markov.damp_s": "s", "markov.damp_bytes": "bytes", "markov.stationary_self_s": "s",
    "primitivity.is_irreducible_s": "s", "primitivity.is_primitive_s": "s",
    "bounds.report_s": "s",
    "baseline.power_s": "s", "baseline.power_iterations": "count", "solver.vs_power_time": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    start_ns: int
    end_ns: int = 0
    count: int = 0  # iterations for the solver, bytes for io and damp


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0
        self.solved = []  # matrices the solver saw, for the power-method baseline
        self._ids = itertools.count()

    def span(self, layer, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            sp = Span(next(self._ids), parent, self.op, layer, time.perf_counter_ns())
            self.stack.append(sp)
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.end_ns = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append(sp)
            sp.count = _count(layer, args, out, self)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = []
        for (mod, attr), layer in WRAPPED.items():
            module = sys.modules.get(mod)
            fn = getattr(module, attr, None)
            if callable(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, self.span(layer, fn))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def _count(layer, args, out, tracer) -> int:
    if layer == "solver":
        tracer.solved.append(args[0])
        return int(getattr(out, "iterations", 0))
    if layer == "io.parse":
        return os.path.getsize(args[0])
    if layer == "io.write" and isinstance(args[1], (str, os.PathLike)):
        return os.path.getsize(args[1])
    if layer == "markov.damp":
        return 8 * args[0].n * args[0].n  # the dense n x n float64 damp builds
    return 0


def call_main(main, argv):
    """Run main(argv) with stdout captured and stderr dropped; (exit code, stdout text, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def layer_times(spans):
    """layer -> (inclusive seconds, self seconds, count), summed over spans."""
    child = {}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] = child.get(sp.parent, 0) + sp.end_ns - sp.start_ns
    out = {}
    for sp in spans:
        dur = sp.end_ns - sp.start_ns
        inc, own, cnt = out.get(sp.layer, (0.0, 0.0, 0))
        out[sp.layer] = (inc + dur / 1e9, own + (dur - child.get(sp.id, 0)) / 1e9, cnt + sp.count)
    return out


def run_traced(workload, inputs, plan, src, work, scale, tamper, log, trace_path) -> dict:
    """Trace the first ops of the plan; returns attempted, failed and the per-layer metrics."""
    sys.path.insert(0, src)
    import perronkit.cli as cli
    import perronkit.io  # noqa: F401  (wrapped as seen from io)
    import perronkit.markov  # noqa: F401

    # startup: a child that only imports perronkit.cli (bytecode already warm after the first)
    startup = [spawn(["-c", "import perronkit.cli"], src, os.path.join(work, "startup.out"),
                     os.path.join(work, "startup.err"), 60.0).wall_s for _ in range(6)][1:]

    tracer = Tracer()
    root = tracer.span("cli", cli.main)
    plain_s = traced_s = 0.0
    emit = failed = 0
    for k, idx in enumerate(plan):
        tracer.op = k
        records, errors = [], []
        for argv in workload.commands(inputs[idx]):
            # alternate which goes first so neither always runs on warm caches
            order = (False, True) if k % 2 == 0 else (True, False)
            for traced in order:
                if traced:
                    with tracer.installed():
                        code, text, secs = call_main(root, argv)
                    traced_s += secs
                    emit += len(text.encode())
                    if code != 0:
                        errors.append(f"{argv[0]}: exit code {code}")
                    record, err = parse_record(text, "--json" in argv)
                    if err:
                        errors.append(f"{argv[0]}: {err}")
                    records.append(record)
                else:
                    plain_s += call_main(cli.main, argv)[2]
        errors = check_op(workload, inputs[idx], records, errors, tamper)
        failed += bool(errors)
        log(f"traced op {k} input {idx}: " + ("ok" if not errors else "FAILED " + "; ".join(errors)))

    layers = layer_times(tracer.spans)
    power_s, power_iters = power_baseline(tracer.solved)
    get = lambda layer, i: layers.get(layer, (0.0, 0.0, 0))[i]  # noqa: E731  (0 inclusive, 1 self, 2 count)
    m = {name: get(layer, 1) for name, layer in SELF_TIME.items()}
    m["cli.startup_s"] = statistics.median(startup)
    m["cli.emit_bytes"] = emit
    for name in ("io.parse", "io.write"):
        m[name + "_MBps"] = get(name, 2) / 1e6 / get(name, 0) if get(name, 0) else 0.0
    m["solver.iterations"] = get("solver", 2)
    m["solver.us_per_iter"] = 1e6 * m["solver.s"] / m["solver.iterations"] if m["solver.iterations"] else 0.0
    m["markov.damp_bytes"] = get("markov.damp", 2)
    m["baseline.power_s"] = power_s
    m["baseline.power_iterations"] = power_iters
    m["solver.vs_power_time"] = m["solver.s"] / power_s if power_s else 0.0
    m["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
    m = {name: m[name] for name in PER_LAYER}

    total = get("cli", 0)
    log(f"# per-layer split of {len(plan)} traced ops, {total:.3f} s in main "
        f"(+ {m['cli.startup_s']:.3f} s import per child process, not in main)")
    for layer, (inc, own, cnt) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        log(f"layer {layer:28s} self {own:9.4f} s  {100 * own / total:5.1f} %  inclusive {inc:9.4f} s  count {cnt}")
    log(f"share solver {100 * get('solver', 1) / total:.1f} %  primitivity "
        f"{100 * (get('primitivity.is_irreducible', 1) + get('primitivity.is_primitive', 1)) / total:.1f} %"
        f"  (of main's {total:.3f} s)")
    log(f"# solver.vs_power_time base: power_method on the {len(tracer.solved)} matrices the solver saw, "
        f"same tolerance")
    for name, unit in PER_LAYER.items():
        log(f"metric {name} {m[name]!r} {unit}")
    north_star_table(scale, log, work)

    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "spans": [asdict(s) for s in tracer.spans], "metrics": m}, fh)
    return {"attempted": len(plan), "failed": failed, "metrics": m, "units": PER_LAYER}


def power_baseline(matrices):
    """Seconds and iterations of power_method on each matrix, untraced."""
    from perronkit import baseline

    secs, iters = 0.0, 0
    for A in matrices:
        start = time.perf_counter()
        res = baseline.power_method(A, tol=1e-8)
        secs += time.perf_counter() - start
        iters += res.iterations
    return secs, iters


NORTH_STAR = {  # ROADMAP north-star cases; sizes at full and tiny scale
    "full": {"tridiag": 200, "dense": 1000, "primitive": 3000, "mm": 1000},
    "tiny": {"tridiag": 12, "dense": 30, "primitive": 30, "mm": 30},
}


def north_star_table(scale, log, work):
    """Print the ROADMAP north-star table: case, iterations, us per iteration
    and total, with power_method as the baseline column."""
    import perronkit as pk

    size = NORTH_STAR[scale]

    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - start

    def row(case, res, secs, power=None):
        iters = getattr(res, "iterations", None)
        cells = [case, "-" if iters is None else str(iters),
                 "-" if not iters else f"{1e6 * secs / iters:.1f}", f"{secs:.4f}"]
        if power is not None:
            (p, p_s) = power
            cells += [str(p.iterations), f"{1e6 * p_s / p.iterations:.1f}", f"{p_s:.4f}"]
        else:
            cells += ["-", "-", "-"]
        log("| " + " | ".join(cells) + " |")

    log("# north-star table (ROADMAP); power_method is the baseline column")
    log("| case | iterations | us/iter | total s | power iterations | power us/iter | power total s |")
    log("|---|---|---|---|---|---|---|")
    T = pk.tridiagonal(size["tridiag"], 1.0, 3.0, 2.0)
    res, secs = timed(pk.algorithm_a, T)
    row(f"algorithm_a tridiag(1,3,2) n={T.n} (CSR)", res, secs, timed(pk.power_method, T))
    res, secs = timed(pk.algorithm_b, T)
    row(f"algorithm_b tridiag(1,3,2) n={T.n} (CSR)", res, secs)
    D = pk.random_primitive(size["dense"], rng=0)
    res, secs = timed(pk.algorithm_a, D)
    row(f"algorithm_a random dense n={D.n}", res, secs, timed(pk.power_method, D))
    P = pk.tridiagonal(size["primitive"], 1.0, 3.0, 2.0)
    res, secs = timed(pk.is_primitive, P)
    row(f"is_primitive tridiag n={P.n} -> {res}", None, secs)
    M = pk.random_primitive(size["mm"], rng=1)
    path = os.path.join(work, "north_star.mtx")
    _, w_s = timed(pk.write_matrix_market, M, path)
    _, r_s = timed(pk.parse_matrix, path)
    row(f"Matrix Market dense n={M.n} write", None, w_s)
    row(f"Matrix Market dense n={M.n} read", None, r_s)
