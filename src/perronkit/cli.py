"""Command-line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success or
converged, 1 input/usage error, 2 stagnated (not primitive by the exact
test, or y left the floating-point range), 3 iteration cap reached.
``--json`` wraps any command's result in a run record carrying the
command, input path, configuration echo, timing, and package version, as
compact single-line JSON; the result member is byte-deterministic for
identical input and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .baseline import power_method
from .bounds import bounds_report
from .errors import PerronError
from .io import parse_matrix, write_matrix_market
from .markov import StochasticMatrix, damp, make_stochastic, stationary
from .matcore import NonnegMatrix, Side, random_primitive, tridiagonal
from .primitivity import is_irreducible, is_primitive, wielandt_bound
from .solver import (
    PerronResult,
    SolverConfig,
    Status,
    algorithm_a,
    algorithm_b,
)

_STATUS_EXIT = {Status.CONVERGED: 0, Status.STAGNATED: 2, Status.MAX_ITERATIONS: 3}


def _add_matrix_arg(sp):
    sp.add_argument("matrix", help="path of a Matrix Market or CSV matrix file")
    sp.add_argument("--format", choices=["auto", "mm", "csv"], default="auto",
                    help="input format (default: sniff the Matrix Market banner)")


def _add_run_flags(sp):
    sp.add_argument("--tol", type=float, default=SolverConfig.tolerance,
                    help="stopping tolerance (default %(default)s)")
    sp.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations,
                    help="iteration cap (default %(default)s)")
    sp.add_argument("--json", action="store_true", help="emit a JSON run record on stdout")


def _matrix_payload(M: NonnegMatrix) -> dict:
    if M.storage == "dense":
        return {"n": M.n, "storage": "dense", "rows": M.to_dense().tolist()}
    return {
        "n": M.n,
        "storage": "csr",
        "indptr": M._indptr.tolist(),
        "indices": M._indices.tolist(),
        "values": M._data.tolist(),
    }


def _emit(command: str, input_path, config: dict, result: dict, started: float) -> None:
    record = {
        "command": command,
        "input": input_path,
        "config": config,
        "result": result,
        "timing_seconds": time.perf_counter() - started,
        "version": __version__,
    }
    print(json.dumps(record))  # no indent: the C encoder writes it, on one line


def _solver_result_payload(res: PerronResult, balanced: bool) -> dict:
    # scaling, y normalized as eigenvector is, fixes the balanced matrix in n numbers
    payload = {
        "root_lo": res.root_lo,
        "root_hi": res.root_hi,
        "root": res.root,
        "eigenvector": None if res.eigenvector is None else res.eigenvector.tolist(),
        "scaling": (res._y / res._y.sum()).tolist(),
        "iterations": res.iterations,
        "side_used": res.side_used.value,
        "status": res.status.value,
    }
    if balanced:
        payload["balanced"] = _matrix_payload(res.balanced)
    return payload


def _write_trace(path, history) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iter,rmin,rmax\n")
        for t, (lo, hi) in enumerate(zip(history.rmin, history.rmax)):
            fh.write(f"{t},{float(lo)!r},{float(hi)!r}\n")


def _write_discs(path, A: NonnegMatrix, history) -> None:
    centers = A.diagonal()  # the balancing similarity keeps the diagonal fixed
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iter,index,center,radius\n")
        for t, row in enumerate(history.sums):
            for i, s in enumerate(row):
                fh.write(f"{t},{i},{float(centers[i])!r},{float(s - centers[i])!r}\n")


def _cmd_perron(args) -> int:
    started = time.perf_counter()
    A = parse_matrix(args.matrix, args.format)
    cfg = SolverConfig(
        tolerance=args.tol,
        max_iterations=args.max_iter,
        side=None if args.side == "auto" else Side(args.side),
    )
    solve = algorithm_a if args.algo == "a" else algorithm_b
    res = solve(A, cfg, record_sums=args.discs is not None)
    if args.trace:
        _write_trace(args.trace, res.history)
    if args.discs:
        _write_discs(args.discs, A, res.history)
    config = {
        "tol": cfg.tolerance, "max_iter": cfg.max_iterations,
        "side": args.side, "algo": args.algo,
    }
    if args.json:
        _emit("perron", args.matrix, config, _solver_result_payload(res, args.balanced), started)
    else:
        print(f"root {res.root!r} in [{res.root_lo!r}, {res.root_hi!r}]")
        print(f"iterations {res.iterations}  side {res.side_used.value}  status {res.status.value}")
        if res.eigenvector is not None:
            print("eigenvector " + " ".join(repr(float(v)) for v in res.eigenvector))
    return _STATUS_EXIT[res.status]


def _cmd_power(args) -> int:
    started = time.perf_counter()
    A = parse_matrix(args.matrix, args.format)
    res = power_method(A, tol=args.tol, max_iter=args.max_iter)
    config = {"tol": args.tol, "max_iter": args.max_iter}
    result = {
        "eigenvalue": res.eigenvalue,
        "eigenvector": res.eigenvector.tolist(),
        "iterations": res.iterations,
        "status": res.status.value,
    }
    if args.json:
        _emit("power", args.matrix, config, result, started)
    else:
        print(f"eigenvalue {res.eigenvalue!r}")
        print(f"iterations {res.iterations}  status {res.status.value}")
    return _STATUS_EXIT[res.status]


def _cmd_bounds(args) -> int:
    started = time.perf_counter()
    A = parse_matrix(args.matrix, args.format)
    rep = bounds_report(A)
    result = {
        "frobenius_row": list(rep.frobenius_row),
        "frobenius_col": list(rep.frobenius_col),
        "minc_row": list(rep.minc_row),
        "minc_col": list(rep.minc_col),
    }
    if args.json:
        _emit("bounds", args.matrix, {}, result, started)
    else:
        print(json.dumps(result, indent=2))
    return 0


def _cmd_primitivity(args) -> int:
    started = time.perf_counter()
    A = parse_matrix(args.matrix, args.format)
    result = {
        "irreducible": is_irreducible(A),
        "primitive": is_primitive(A),
        "wielandt_bound": wielandt_bound(A.n),
    }
    if args.json:
        _emit("primitivity", args.matrix, {}, result, started)
    else:
        print(json.dumps(result, indent=2))
    return 0


def _cmd_stationary(args) -> int:
    started = time.perf_counter()
    A = parse_matrix(args.matrix, args.format)
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
    if args.json:
        _emit("stationary", args.matrix, config, result, started)
    else:
        print(json.dumps(result, indent=2))
    return _STATUS_EXIT[dist.status]


def _cmd_gen(args) -> int:
    if args.kind == "tridiag":
        M = tridiagonal(args.n, args.c, args.a, args.b)
    else:
        M = random_primitive(args.n, density=args.density, rng=args.seed)
    if args.output == "-":
        write_matrix_market(M, sys.stdout)
    else:
        write_matrix_market(M, args.output)
        print(f"wrote {M.n}x{M.n} matrix ({M.nnz} stored entries) to {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perronkit",
        description="Dominant eigenvalue tools for nonnegative matrices via sum balancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("perron", help="dominant eigenvalue by iterative sum balancing")
    _add_matrix_arg(sp)
    _add_run_flags(sp)
    sp.add_argument("--side", choices=["auto", "row", "col"], default="auto")
    sp.add_argument("--algo", choices=["a", "b"], default="a",
                    help="a: root only; b: root plus eigenvector")
    sp.add_argument("--trace", metavar="FILE", help="write per-iteration min/max sums as CSV")
    sp.add_argument("--discs", metavar="FILE", help="write per-iteration disc traces as CSV")
    sp.add_argument("--balanced", action="store_true",
                    help="add the n x n balanced matrix to the --json result")
    sp.set_defaults(func=_cmd_perron)

    sp = sub.add_parser("power", help="dominant eigenvalue by power iteration")
    _add_matrix_arg(sp)
    _add_run_flags(sp)
    sp.set_defaults(func=_cmd_power)

    sp = sub.add_parser("bounds", help="sum-based eigenvalue enclosures as JSON")
    _add_matrix_arg(sp)
    sp.add_argument("--json", action="store_true", help="wrap the intervals in a run record")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("primitivity", help="exact irreducibility and primitivity tests")
    _add_matrix_arg(sp)
    sp.add_argument("--json", action="store_true", help="wrap the report in a run record")
    sp.set_defaults(func=_cmd_primitivity)

    sp = sub.add_parser("stationary", help="stationary distribution of a row-stochastic matrix")
    _add_matrix_arg(sp)
    _add_run_flags(sp)
    sp.add_argument("--alpha", type=float, default=0.85,
                    help="uniform damping factor in (0, 1) (default 0.85)")
    sp.add_argument("--no-damp", action="store_true", help="solve the chain as given")
    sp.add_argument("--normalize", action="store_true",
                    help="renormalize rows of near-stochastic input")
    sp.set_defaults(func=_cmd_stationary)

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
    except PerronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
