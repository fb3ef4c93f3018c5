"""Exact structural tests by graph search.

A nonnegative matrix A has a directed graph with an edge i -> j wherever
a_ij > 0.  A is irreducible when that graph is strongly connected, and
primitive when it is irreducible with period 1, the period being the gcd of
its cycle lengths.  With level[v] the breadth-first distance from node 0,
the period of a strongly connected graph is the gcd of
level[u] + 1 - level[v] over its edges u -> v (Denardo, Math. Oper. Res.
1977; Jarvis & Shier, 1999).  :func:`period`, which both tests read, makes
two searches over ``_entries`` in O(n + nnz) and forms no matrix power.
"""

from __future__ import annotations

import numpy as np

from .matcore import NonnegMatrix, _entries

__all__ = [
    "wielandt_bound",
    "period",
    "is_irreducible",
    "is_primitive",
]


def wielandt_bound(n: int) -> int:
    """Worst-case power at which a primitive matrix of order n turns positive."""
    return n * n - 2 * n + 2


def _levels(src: np.ndarray, dst: np.ndarray, n: int) -> list[int]:
    """Breadth-first distance from node 0 along the edges src -> dst; -1 where unreached."""
    order = np.argsort(src, kind="stable")
    heads = dst[order].tolist()
    start = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    level = [-1] * n
    level[0] = 0
    queue = [0]
    for u in queue:
        for v in heads[start[u]:start[u + 1]]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def period(A: NonnegMatrix) -> int | None:
    """Period of A's graph: None when A is reducible, 0 for the order-1 zero matrix."""
    src, dst, _ = _entries(A)
    level = _levels(src, dst, A.n)
    if -1 in level or -1 in _levels(dst, src, A.n):
        return None
    level = np.array(level, dtype=np.int64)
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def is_irreducible(A: NonnegMatrix) -> bool:
    """True when the graph of A is strongly connected (every order-1 matrix is)."""
    return period(A) is not None


def is_primitive(A: NonnegMatrix) -> bool:
    """True when A is irreducible with period 1, i.e. some power of A is positive.

    The first such power is at most :func:`wielandt_bound` (n).
    """
    return period(A) == 1
