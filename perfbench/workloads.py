"""The four benchmark workloads: inputs made from a seed, the perronkit
commands that form one op, and the oracle check of their output.

Every input is written as a file by this module, so the program sees only
files.  Oracles are computed with numpy alone, never with perronkit, and
outside the timed region.  All commands use the CLI's default tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-8  # perronkit's default --tol, which every op runs with
ALPHA = 0.85

# Size of every input, at full scale and at the tiny scale the self-test uses.
SIZES = {
    "full": {"tridiag": 200, "dense": 1000, "chain": 2000, "chain_nnz": 8, "structure": 600},
    "tiny": {"tridiag": 12, "dense": 30, "chain": 40, "chain_nnz": 4, "structure": 16},
}


@dataclass
class Input:
    """One op's input files and what its output must match."""

    files: list
    oracle: dict = field(default_factory=dict)
    label: str = ""


# ---------------------------------------------------------------- file helpers

def write_coordinate(path, n, rows, cols, vals) -> None:
    """Matrix Market coordinate file; 1-based indices, values as repr floats."""
    lines = [f"{i + 1} {j + 1} {v!r}\n" for i, j, v in
             zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(), np.asarray(vals, float).tolist())]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {n} {len(lines)}\n")
        fh.writelines(lines)


def read_matrix_market(path) -> np.ndarray:
    """Dense array of an array or coordinate Matrix Market file (numpy only)."""
    with open(path, "r", encoding="ascii") as fh:
        banner = fh.readline().lower().split()
        line = fh.readline()
        while line.startswith("%") or not line.strip():
            line = fh.readline()
        size = [int(s) for s in line.split()]
        body = np.array(fh.read().split(), dtype=np.float64)
    n = size[0]
    if banner[2] == "array":
        if body.size != n * size[1]:
            raise ValueError(f"{path}: {body.size} values for a {n}x{size[1]} array")
        return body.reshape(size[1], n).T.copy()  # column-major on disk
    trip = body.reshape(-1, 3)
    dense = np.zeros((n, size[1]))
    dense[trip[:, 0].astype(int) - 1, trip[:, 1].astype(int) - 1] = trip[:, 2]
    return dense


def _permuted(n, rows, cols, rng):
    """Relabel the vertices with a random permutation: P A P^T keeps the class."""
    perm = rng.permutation(n)
    return perm[rows], perm[cols]


def _close(x, y, rel=1e-12) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# ---------------------------------------------------------------- workloads

class Workload:
    """Base: name, the reason it exists, and the nominal cost of one op.

    ``op_seconds`` is the wall time of one op at full scale on a 2-core
    Xeon with BLAS pinned to one thread; the op count of a run is
    ``--seconds / op_seconds``, fixed so that every seed does the same
    number of ops.  ``trace_ops`` is how many inputs the traced run covers.
    """

    name = ""
    why = ""
    reference = ""  # the reference.py kernel that gauges machine speed for this workload
    op_seconds = 1.0
    trace_ops = 1
    children = 1

    def __init__(self, scale: str):
        self.size = SIZES[scale]

    def make_inputs(self, rng, count: int, workdir: str) -> list:
        raise NotImplementedError

    def commands(self, inp: Input) -> list:
        """perronkit argv lists of one op, run one after the other."""
        raise NotImplementedError

    def check(self, inp: Input, records: list) -> list:
        """Oracle errors for one op; records are the parsed --json outputs
        (None for commands that print no record)."""
        raise NotImplementedError


class TridiagSlow(Workload):
    name = "tridiag_slow"
    why = ("perron --algo b on CSR tridiag(c,a,b) n=200: slow lambda2/lambda1, "
           "the solver kernel is nearly all the time")
    reference = "mix"
    op_seconds = 3.4
    trace_ops = 1

    def make_inputs(self, rng, count, workdir):
        n = self.size["tridiag"]
        # Draw (c, a, b) in the box, then keep draws at evenly spaced quantiles
        # of lambda2/lambda1, so that every seed covers the same range of
        # difficulty and the run's median does not hinge on a lucky draw.
        # The first input, which op 1 repeats, is the median one.
        cand = rng.uniform([0.8, 2.5, 1.6], [1.2, 3.5, 2.4], size=(512, 3))
        c, a, b = cand.T
        s = 2.0 * np.sqrt(b * c)
        ratio = (a + s * math.cos(2 * math.pi / (n + 1))) / (a + s * math.cos(math.pi / (n + 1)))
        order = np.argsort(ratio)
        picks = order[((np.arange(count) + 0.5) / count * len(order)).astype(int)]
        rest = np.delete(picks, count // 2)
        rng.shuffle(rest)
        picks = np.r_[picks[count // 2], rest]
        inputs = []
        i = np.arange(n)
        for k, p in enumerate(picks):
            c_, a_, b_ = (float(v) for v in cand[p])
            path = os.path.join(workdir, f"tridiag{k}.mtx")
            rows = np.r_[i[1:], i, i[:-1]]
            cols = np.r_[i[:-1], i, i[1:]]
            vals = np.r_[np.full(n - 1, c_), np.full(n, a_), np.full(n - 1, b_)]
            write_coordinate(path, n, rows, cols, vals)
            root = a_ + 2.0 * math.sqrt(b_ * c_) * math.cos(math.pi / (n + 1))
            dense = np.diag(np.full(n, a_)) + np.diag(np.full(n - 1, c_), -1) + np.diag(np.full(n - 1, b_), 1)
            inputs.append(Input([path], {"root": root, "matrix": dense},
                                f"c={c_:.4f} a={a_:.4f} b={b_:.4f}"))
        return inputs

    def commands(self, inp):
        return [["perron", "--algo", "b", "--json", inp.files[0]]]

    def check(self, inp, records):
        res = records[0]["result"]
        errors = []
        if res["status"] != "converged":
            errors.append(f"status {res['status']}")
        root = inp.oracle["root"]
        slack = 1e-12 * root  # rounding of the closed form and of the sums
        if not (res["root_lo"] - slack <= root <= res["root_hi"] + slack):
            errors.append(f"closed-form root {root!r} outside [{res['root_lo']!r}, {res['root_hi']!r}]")
        y = np.asarray(res["eigenvector"], dtype=float)
        M = inp.oracle["matrix"] if res["side_used"] == "row" else inp.oracle["matrix"].T
        resid = float(np.abs(M @ y - res["root"] * y).max())
        if not resid <= 10 * TOL:
            errors.append(f"eigenvector residual {resid:.3g} > 10*tol")
        return errors


class DenseRoundtrip(Workload):
    name = "dense_roundtrip"
    why = ("gen random n=1000 then perron --json: Matrix Market write and read, "
           "validation and the JSON emit dominate; about 13 solver steps")
    reference = "matrix_market"
    op_seconds = 6.3
    trace_ops = 1
    children = 2

    def make_inputs(self, rng, count, workdir):
        seeds = rng.integers(0, 2**31 - 1, size=count)
        return [Input([os.path.join(workdir, f"dense{k}.mtx")], {"gen_seed": int(s)}, f"gen seed {int(s)}")
                for k, s in enumerate(seeds)]

    def commands(self, inp):
        path = inp.files[0]
        return [["gen", "random", "--n", str(self.size["dense"]), "--seed", str(inp.oracle["gen_seed"]),
                 "-o", path],
                ["perron", "--json", path]]

    def check(self, inp, records):
        if "root" not in inp.oracle:  # the file exists only after the op's gen step
            A = read_matrix_market(inp.files[0])
            n = self.size["dense"]
            if A.shape != (n, n) or not np.all(np.isfinite(A)) or (A < 0).any():
                return [f"generated matrix is not a finite nonnegative {n}x{n} matrix"]
            eig = np.linalg.eigvals(A)
            inp.oracle["root"] = float(eig[np.argmax(eig.real)].real)
        res = records[1]["result"]
        errors = []
        if res["status"] != "converged":
            errors.append(f"status {res['status']}")
        if not abs(res["root"] - inp.oracle["root"]) <= 10 * TOL:
            errors.append(f"root {res['root']!r} != eigvals {inp.oracle['root']!r}")
        return errors


class MarkovDamped(Workload):
    name = "markov_damped"
    why = ("stationary --json, alpha 0.85, on a sparse chain n=2000 with 8 nonzeros "
           "a row: damp densifies it, so memory and the dense solver matter")
    reference = "damped"
    op_seconds = 1.4
    trace_ops = 3
    pool = 6  # distinct chains per run; later ops reuse them to bound oracle cost

    def make_inputs(self, rng, count, workdir):
        n, k = self.size["chain"], self.size["chain_nnz"]
        inputs = []
        for m in range(min(count, self.pool)):
            cols = np.concatenate([rng.choice(n, k, replace=False) for _ in range(n)])
            rows = np.repeat(np.arange(n), k)
            w = rng.uniform(0.1, 1.0, size=(n, k))
            w /= w.sum(axis=1, keepdims=True)
            path = os.path.join(workdir, f"chain{m}.mtx")
            write_coordinate(path, n, rows, cols, w.ravel())
            P = np.zeros((n, n))
            P[rows, cols] = w.ravel()
            # u = alpha P^T u + (1 - alpha)/n 1 is the damped chain's balance equation.
            u = np.linalg.solve(np.eye(n) - ALPHA * P.T, np.full(n, (1.0 - ALPHA) / n))
            inputs.append(Input([path], {"u": u / u.sum()}, f"chain {m}"))
        return inputs

    def commands(self, inp):
        return [["stationary", "--alpha", str(ALPHA), "--json", inp.files[0]]]

    def check(self, inp, records):
        res = records[0]["result"]
        errors = []
        if res["status"] != "converged":
            errors.append(f"status {res['status']}")
        if not res["residual"] <= 10 * TOL:
            errors.append(f"residual {res['residual']:.3g} > 10*tol")
        u = np.asarray(res["u"], dtype=float)
        ref = inp.oracle["u"]
        if u.shape != ref.shape:
            return errors + [f"stationary vector has shape {u.shape}, expected {ref.shape}"]
        err = float(np.abs(u - ref).max() / ref.max())
        if not err <= 10 * TOL:
            errors.append(f"stationary vector differs from the linear solve by {err:.3g} (relative)")
        return errors


class StructureScreen(Workload):
    name = "structure_screen"
    why = ("bounds then primitivity on a primitive, a period-2 and a reducible n=600 "
           "matrix: the exact structure tests take nearly all the time")
    reference = "mix"
    op_seconds = 5.0
    trace_ops = 1
    children = 6
    CLASSES = {"primitive": (True, True), "period2": (True, False), "reducible": (False, False)}

    def _patterns(self, n):
        i = np.arange(n)
        h = n // 2
        j = np.arange(h)
        return {
            # tridiagonal with a positive diagonal: strongly connected, aperiodic
            "primitive": (np.r_[i[1:], i, i[:-1]], np.r_[i[:-1], i, i[1:]]),
            # the path graph both ways, no loops: strongly connected, bipartite
            "period2": (np.r_[i[1:], i[:-1]], np.r_[i[:-1], i[1:]]),
            # two primitive tridiagonal blocks, the first feeding the second only
            "reducible": (np.r_[j[1:], j, j[:-1], j[1:] + h, j + h, j[:-1] + h, h - 1],
                          np.r_[j[:-1], j, j[1:], j[:-1] + h, j + h, j[1:] + h, h]),
        }

    def make_inputs(self, rng, count, workdir):
        n = self.size["structure"]
        inputs = []
        for k in range(count):
            files, oracle = [], {}
            for cls, (rows, cols) in self._patterns(n).items():
                rows, cols = _permuted(n, rows, cols, rng)
                vals = rng.uniform(0.5, 2.0, size=len(rows))
                path = os.path.join(workdir, f"{cls}{k}.mtx")
                write_coordinate(path, n, rows, cols, vals)
                A = np.zeros((n, n))
                A[rows, cols] = vals
                r, c = A.sum(axis=1), A.sum(axis=0)
                files.append(path)
                oracle[path] = {"class": cls, "row": (r.min(), r.max()), "col": (c.min(), c.max())}
            inputs.append(Input(files, oracle, f"set {k}"))
        return inputs

    def commands(self, inp):
        return [[cmd, "--json", path] for path in inp.files for cmd in ("bounds", "primitivity")]

    def check(self, inp, records):
        errors = []
        for path, bounds, prim in zip(inp.files, records[0::2], records[1::2]):
            want = inp.oracle[path]
            b = bounds["result"]
            for key, side in (("frobenius_row", "row"), ("frobenius_col", "col")):
                lo, hi = want[side]
                if not (_close(b[key][0], lo) and _close(b[key][1], hi)):
                    errors.append(f"{want['class']}: {key} {b[key]} != sums ({lo!r}, {hi!r})")
            for key, outer in (("minc_row", "frobenius_row"), ("minc_col", "frobenius_col")):
                lo, hi = b[key]
                if not (b[outer][0] * (1 - 1e-12) <= lo <= hi <= b[outer][1] * (1 + 1e-12)):
                    errors.append(f"{want['class']}: {key} {b[key]} not inside {outer} {b[outer]}")
            p = prim["result"]
            got = (p["irreducible"], p["primitive"])
            if got != self.CLASSES[want["class"]]:
                errors.append(f"{want['class']}: (irreducible, primitive) = {got}")
        return errors


WORKLOADS = {w.name: w for w in (TridiagSlow, DenseRoundtrip, MarkovDamped, StructureScreen)}
