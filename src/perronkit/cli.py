"""Command-line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success or
converged, 1 input/usage error or out of memory, 2 stagnated (not
primitive by the exact test, or y left the floating-point range), 3
iteration cap reached.
``--json`` wraps any command's result in a run record carrying the
command, input path, configuration echo, timing, and package version, as
compact single-line JSON; the result member is byte-deterministic for
identical input and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .baseline import power_method
from .bounds import bounds_report
from .errors import PerronError
from .io import _write_array, parse_matrix, write_matrix_market
from .markov import StochasticMatrix, damp, make_stochastic, stationary
from .matcore import NonnegMatrix, Side, _dense_view, _entries, _random_args, _random_columns, tridiagonal
from .primitivity import period, wielandt_bound
from .solver import PerronResult, SolverConfig, Status, algorithm_a

_STATUS_EXIT = {Status.CONVERGED: 0, Status.STAGNATED: 2, Status.MAX_ITERATIONS: 3}


def _add_run_flags(sp):
    sp.add_argument("--tol", type=float, default=SolverConfig.tolerance,
                    help="stopping tolerance (default %(default)s)")
    sp.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations,
                    help="iteration cap (default %(default)s)")


def _add_matrix_arg(sp, body):
    sp.add_argument("matrix", help="path of a Matrix Market or CSV matrix file")
    sp.add_argument("--json", action="store_true", help="emit a JSON run record on stdout")
    sp.set_defaults(func=_run, body=body)


def _matrix_payload(M: NonnegMatrix) -> dict:
    if M.storage == "dense":
        return {"n": M.n, "storage": "dense", "rows": _dense_view(M).tolist()}
    rows, cols, values = _entries(M)
    return {
        "n": M.n,
        "storage": "csr",
        "indptr": np.searchsorted(rows, np.arange(M.n + 1)).tolist(),
        "indices": cols.tolist(),
        "values": values.tolist(),
    }


def _solver_result_payload(res: PerronResult, balanced: bool) -> dict:
    # eigenvector fixes the balanced matrix in n numbers, so --balanced alone adds the n² entries
    payload = {
        "root_lo": res.root_lo,
        "root_hi": res.root_hi,
        "root": res.root,
        "eigenvector": res.eigenvector.tolist(),
        "iterations": res.iterations,
        "side_used": res.side_used.value,
        "status": res.status.value,
    }
    if balanced:
        payload["balanced"] = _matrix_payload(res.balanced)
    return payload


def _csv_file(path):
    """path opened for a CSV trace, or a null context when the flag is unset or empty."""
    return contextlib.nullcontext() if not path else open(path, "w", encoding="ascii", newline="\n")


def _write_trace(fh, history) -> None:
    fh.write("iter,rmin,rmax\n")
    for t, (lo, hi) in enumerate(zip(history.rmin, history.rmax)):
        fh.write(f"{t},{float(lo)!r},{float(hi)!r}\n")


def _disc_writer(fh, A: NonnegMatrix):
    """on_step hook writing each step's discs to fh, one row per index.

    Centers are A's diagonal, which the balancing similarity keeps fixed;
    the radius is the balanced sum minus the center.
    """
    centers = A.diagonal()
    fh.write("iter,index,center,radius\n")

    def on_step(t, r):
        discs = zip(centers.tolist(), (r - centers).tolist())
        fh.write("".join(f"{t},{i},{c!r},{d!r}\n" for i, (c, d) in enumerate(discs)))

    return on_step


def _run(args) -> int:
    """Read the matrix and run the command body on it: body(A, args) ->
    (config, result, exit code, text).  Print the run record with --json,
    else text, or the result as indented JSON when text is None."""
    started = time.perf_counter()
    A = parse_matrix(args.matrix)
    config, result, code, text = args.body(A, args)
    if args.json:
        record = {
            "command": args.command,
            "input": args.matrix,
            "config": config,
            "result": result,
            "timing_seconds": time.perf_counter() - started,
            "version": __version__,
        }
        print(json.dumps(record))  # no indent: the C encoder writes it, on one line
    else:
        print(json.dumps(result, indent=2) if text is None else text)
    return code


def _perron(A: NonnegMatrix, args):
    cfg = SolverConfig(
        tolerance=args.tol,
        max_iterations=args.max_iter,
        side=None if args.side == "auto" else Side(args.side),
    )
    # both trace files open before the solve, so an unwritable path costs no solve
    with _csv_file(args.discs) as discs, _csv_file(args.trace) as trace:
        res = algorithm_a(A, cfg, on_step=discs and _disc_writer(discs, A))
        if trace:
            _write_trace(trace, res.history)
    config = {
        "tol": cfg.tolerance, "max_iter": cfg.max_iterations,
        "side": args.side, "algo": args.algo,
    }
    # only the run record shows the balanced matrix, so text mode never builds it
    result = _solver_result_payload(res, args.balanced and args.json)
    text = (f"root {res.root!r} in [{res.root_lo!r}, {res.root_hi!r}]\n"
            f"iterations {res.iterations}  side {res.side_used.value}  status {res.status.value}")
    if args.algo == "b":
        text += "\neigenvector " + " ".join(repr(float(v)) for v in res.eigenvector)
    return config, result, _STATUS_EXIT[res.status], text


def _power(A: NonnegMatrix, args):
    res = power_method(A, tol=args.tol, max_iter=args.max_iter)
    config = {"tol": args.tol, "max_iter": args.max_iter}
    result = {
        "eigenvalue": res.eigenvalue,
        "eigenvector": res.eigenvector.tolist(),
        "iterations": res.iterations,
        "status": res.status.value,
    }
    text = f"eigenvalue {res.eigenvalue!r}\niterations {res.iterations}  status {res.status.value}"
    return config, result, _STATUS_EXIT[res.status], text


def _bounds(A: NonnegMatrix, args):
    return {}, asdict(bounds_report(A)), 0, None  # JSON writes each (lo, hi) as a list


def _primitivity(A: NonnegMatrix, args):
    p = period(A)
    result = {
        "irreducible": p is not None,
        "primitive": p == 1,
        "period": p,
        "wielandt_bound": wielandt_bound(A.n),
    }
    return {}, result, 0, None


def _stationary(A: NonnegMatrix, args):
    P = make_stochastic(A) if args.normalize else StochasticMatrix(A)
    if not args.no_damp:
        P = damp(P, args.alpha)
    cfg = SolverConfig(tolerance=args.tol, max_iterations=args.max_iter)
    dist = stationary(P, cfg)
    ranked = np.argsort(-dist.u, kind="stable").tolist()
    config = {
        "tol": cfg.tolerance, "max_iter": cfg.max_iterations,
        "alpha": None if args.no_damp else args.alpha, "normalize": args.normalize,
    }
    result = {
        "u": dist.u.tolist(),
        "ranked": ranked,
        "residual": dist.residual,
        "iterations": dist.iterations,
        "status": dist.status.value,
    }
    return config, result, _STATUS_EXIT[dist.status], None


def _cmd_gen(args) -> int:
    out = sys.stdout if args.output == "-" else args.output
    if args.kind == "tridiag":
        M = tridiagonal(args.n, args.c, args.a, args.b)
        write_matrix_market(M, out)
        n, stored = M.n, M.nnz
    else:
        n, rng = _random_args(args.n, args.density, args.seed)  # a refused argument opens no file
        counts, start = {}, rng.bit_generator.state
        blocks = functools.partial(_random_blocks, n, args.density, rng, start, counts)
        _write_array(n, blocks, out, _cuts(n))
        stored = sum(counts.values())
    if args.output != "-":
        print(f"wrote {n}x{n} matrix ({stored} stored entries) to {args.output}", file=sys.stderr)
    return 0


# columns of `gen random`'s matrix drawn and written at a time, so its one
# scratch array holds n × 256 doubles, and the unit of its parts: each usable
# CPU formats a part of whole blocks (io._write_array); the sweep that chose
# 256 is in CHANGES.md
_COLUMNS = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(n) -> list:
    """First columns of the parts after the first, when `gen random` splits
    its n columns into k = min(usable CPUs, n // _COLUMNS) parts of whole
    blocks, as even as they divide; no part has fewer blocks than the
    first, which this process formats after drawing all the others."""
    blocks = -(-n // _COLUMNS)
    k = max(1, min(_usable_cpus(), n // _COLUMNS))
    return [p * blocks // k * _COLUMNS for p in range(1, k)]


def _random_blocks(n, density, rng, start, counts, j0, j1):
    """Yield columns j0 .. j1 - 1 of random_primitive(n, density, rng) for
    rng at bit generator state start, _COLUMNS at a time from j0, each
    block drawn from that state into one scratch array; set counts[j] to
    the nonzero count of the block at column j."""
    scratch = np.empty((n, min(j1 - j0, _COLUMNS)))
    for j in range(j0, j1, _COLUMNS):
        rng.bit_generator.state = start
        block = scratch[:, : min(_COLUMNS, j1 - j)]
        _random_columns(n, density, rng, j, block)
        counts[j] = np.count_nonzero(block)
        yield block


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any input error: argparse's 2 means stagnated here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perronkit",
        description="Dominant eigenvalue tools for nonnegative matrices via sum balancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("perron", help="dominant eigenvalue by iterative sum balancing")
    _add_run_flags(sp)
    _add_matrix_arg(sp, _perron)
    sp.add_argument("--side", choices=["auto", "row", "col"], default="auto")
    sp.add_argument("--algo", choices=["a", "b"], default="a",
                    help="affects text output only: a prints the root, b also the eigenvector")
    sp.add_argument("--trace", metavar="FILE", help="write per-iteration min/max sums as CSV")
    sp.add_argument("--discs", metavar="FILE", help="write per-iteration disc traces as CSV")
    sp.add_argument("--balanced", action="store_true",
                    help="add the n x n balanced matrix to the --json result")

    sp = sub.add_parser("power", help="dominant eigenvalue by power iteration")
    _add_run_flags(sp)
    _add_matrix_arg(sp, _power)

    sp = sub.add_parser("bounds", help="sum-based eigenvalue enclosures as JSON")
    _add_matrix_arg(sp, _bounds)

    sp = sub.add_parser("primitivity", help="exact irreducibility and primitivity tests")
    _add_matrix_arg(sp, _primitivity)

    sp = sub.add_parser("stationary", help="stationary distribution of a row-stochastic matrix")
    _add_run_flags(sp)
    _add_matrix_arg(sp, _stationary)
    sp.add_argument("--alpha", type=float, default=0.85,
                    help="uniform damping factor in (0, 1) (default 0.85)")
    sp.add_argument("--no-damp", action="store_true", help="solve the chain as given")
    sp.add_argument("--normalize", action="store_true",
                    help="renormalize rows of near-stochastic input")

    sp = sub.add_parser("gen", help="generate test matrices as Matrix Market files")
    gsub = sp.add_subparsers(dest="kind", required=True)
    gt = gsub.add_parser("tridiag", help="constant tridiagonal matrix")
    gt.add_argument("--n", type=int, required=True)
    gt.add_argument("--c", type=float, required=True, help="subdiagonal value")
    gt.add_argument("--a", type=float, required=True, help="diagonal value")
    gt.add_argument("--b", type=float, required=True, help="superdiagonal value")
    gt.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    gt.set_defaults(func=_cmd_gen, kind="tridiag")
    gr = gsub.add_parser("random", help="random primitive matrix")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--density", type=float, default=0.5)
    gr.add_argument("--seed", type=int, default=None)
    gr.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    gr.set_defaults(func=_cmd_gen, kind="random")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PerronError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused; a bare one has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
