"""Reference children: fixed work that gauges the speed of the machine
while a run lasts.

    python3 perfbench/reference.py KERNEL

The host these figures come from is shared, and its speed drifts by 20 % or
more from one minute to the next.  So the run starts this script as a child
process between ops, just as it starts a perronkit op, and scales its times by

    speed = median(wall time of this child over the run) / NOMINAL_S[KERNEL]

so that a slow minute does not read as a slow program.  The drift slows
interpreter-bound work more than memory-bound work, so each workload names
the kernel closest to its ops: ``mix`` runs one small kernel in the manner of
each layer (tridiag_slow, structure_screen), ``matrix_market`` the text and
JSON work of dense_roundtrip, ``damped`` the dense arrays of markov_damped.
The kernels use Python and numpy only, never perronkit, so a change to
perronkit moves the op times and not the speed.
"""

from __future__ import annotations

import json
import sys

import numpy as np

# Median wall time of each child, from spawn to exit, on the machine the
# figures in NOTES.md come from (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4,
# BLAS on one thread).  Scaled times are about seconds on that machine.
NOMINAL_S = {"mix": 0.4, "matrix_market": 0.45, "damped": 0.36}


def balance():
    """Sum balancing on a CSR tridiagonal of order 200."""
    n = 200
    i = np.arange(n)
    rows = np.r_[i, i[1:], i[:-1]]
    cols = np.r_[i, i[:-1], i[1:]]
    vals = np.r_[np.full(n, 3.0), np.full(n - 1, 1.0), np.full(n - 1, 2.0)]
    diag = rows == cols
    y = np.ones(n)
    r = np.bincount(rows, weights=vals, minlength=n)
    for _ in range(1800):
        y *= r / r[0]
        if y.max() > 1e150 or y.min() < 1e-150:
            y /= np.exp(np.log(y).mean())
        scale = np.reciprocal(y)[rows] * y[cols]
        scale[diag] = 1.0
        r = np.bincount(rows, weights=vals * scale, minlength=n)
        float(r.min()), float(r.max())


def text():
    """Floats formatted to Matrix Market lines, parsed back and dumped as JSON."""
    vals = np.random.default_rng(0).uniform(0.0, 1.0, 15000).tolist()
    body = "".join(f"{v!r}\n" for v in vals)
    parsed = [float(tok) for tok in body.split()]
    json.dumps({"result": {"balanced": [parsed[k:k + 100] for k in range(0, len(parsed), 100)]}})


def dense():
    """Rank-one scaling, row sums and a matvec on a dense 1000 x 1000 array."""
    n = 1000
    A = np.random.default_rng(0).uniform(0.0, 1.0, (n, n))
    rows = np.repeat(np.arange(n), n)
    x = np.ones(n)
    for _ in range(3):
        cur = 0.85 * A + 0.15 / n
        cur *= np.multiply.outer(1.0 / x, x)
        x = np.bincount(rows, weights=cur.ravel(), minlength=n)
        x = A @ (x / x.sum())


def bitset():
    """Three boolean squarings of an order-600 pattern, one Python int per row."""
    n = 600
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        bits = (1 << i) | (1 << ((i + 1) % n))
        for j in rng.integers(0, n, 2).tolist():
            bits |= 1 << j
        rows.append(bits)
    for _ in range(3):  # the last squaring works on nearly full rows
        out = []
        for bits in rows:
            acc = 0
            while bits:
                low = bits & -bits
                acc |= rows[low.bit_length() - 1]
                bits ^= low
            out.append(acc)
        rows = out


def matrix_market():
    """A random matrix written as Matrix Market lines, parsed back and dumped
    as JSON: the I/O and JSON work of dense_roundtrip."""
    n = 250
    A = np.random.default_rng(0).uniform(0.0, 1.0, (n, n))
    body = "".join(f"{v!r}\n" for v in A.T.ravel().tolist())
    parsed = np.array([float(tok) for tok in body.split()]).reshape(n, n).T
    json.dumps({"result": {"balanced": parsed.tolist()}})


def damped():
    """Damping, rank-one scaling and row sums on a dense 2000 x 2000 array:
    the memory-bound work of markov_damped."""
    n = 2000
    rng = np.random.default_rng(0)
    P = np.zeros((n, n))
    P[np.repeat(np.arange(n), 8), rng.integers(0, n, 8 * n)] = 0.125
    rows = np.repeat(np.arange(n), n)
    cur = 0.85 * P + 0.15 / n
    x = np.ones(n)
    for _ in range(2):
        scale = np.multiply.outer(1.0 / x, x)
        x = np.bincount(rows, weights=(cur * scale).ravel(), minlength=n)


def mix():
    for kernel in (balance, text, dense, bitset):
        kernel()


KERNELS = {"mix": mix, "matrix_market": matrix_market, "damped": damped}

if __name__ == "__main__":
    KERNELS[sys.argv[1]]()
