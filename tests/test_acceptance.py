"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np

from conftest import PERIODIC3_ROWS, ROOT4_2X2_ROWS, SAMPLE3_ROWS
from oracles import perron_2x2, stationary_linear_solve, transposed
from perronkit import (
    Side,
    SolverConfig,
    Status,
    StochasticMatrix,
    algorithm_a,
    algorithm_b,
    convergence_discs,
    from_dense,
    frobenius_bounds,
    is_irreducible,
    is_primitive,
    minc_bounds,
    power_method,
    random_primitive,
    stationary,
    write_matrix_market,
)
from perronkit.cli import main

ROOT_6DP = 5.739952
TOL = 1e-8


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_sample3_reproduction(tmp_path, capsys):
    path = tmp_path / "sample3.mtx"
    write_matrix_market(from_dense(SAMPLE3_ROWS), path)
    code = main(["perron", "--tol", "1e-8", "--json", str(path)])
    result = json.loads(capsys.readouterr().out)["result"]

    A = from_dense(SAMPLE3_ROWS)
    algorithm_a(A)  # warm the solve path before timing
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        algorithm_a(A)
        elapsed = min(elapsed, time.perf_counter() - t0)

    ok = (
        code == 0
        and abs(result["root"] - ROOT_6DP) <= 1e-6
        and result["side_used"] == "col"
        and 12 <= result["iterations"] <= 22
        and elapsed < 1e-3
    )
    with capsys.disabled():
        report(
            1,
            ok,
            f"root={result['root']:.6f} (target {ROOT_6DP}), side={result['side_used']}, "
            f"iterations={result['iterations']} (target 17±5), solve={elapsed * 1e3:.3f} ms",
        )


def test_criterion_2_power_baseline(capsys):
    res = power_method(from_dense(SAMPLE3_ROWS), tol=1e-8)
    ok = abs(res.eigenvalue - ROOT_6DP) <= 1e-6 and 14 <= res.iterations <= 24
    with capsys.disabled():
        report(
            2,
            ok,
            f"eigenvalue={res.eigenvalue:.6f} (target {ROOT_6DP}), "
            f"iterations={res.iterations} (target 19±5)",
        )


def test_criterion_3_tridiagonal_order_50(tmp_path, capsys):
    target = 3.0 + 2.0 * math.sqrt(2.0) * math.cos(math.pi / 51.0)
    path = tmp_path / "t50.mtx"
    assert main(["gen", "tridiag", "--n", "50", "--c", "1", "--a", "3", "--b", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    code = main(["perron", "--algo", "b", "--json", str(path)])
    elapsed = time.perf_counter() - started
    result = json.loads(capsys.readouterr().out)["result"]
    ok = (
        code == 0
        and abs(result["root"] - target) <= 1e-6
        and 3000 <= result["iterations"] <= 8000
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            3,
            ok,
            f"root={result['root']:.6f} (target {target:.6f}), "
            f"iterations={result['iterations']} (target 3000..8000), runtime={elapsed:.2f} s",
        )


def test_criterion_4_closed_form_2x2(capsys):
    A = from_dense(ROOT4_2X2_ROWS)
    root, _ = perron_2x2(ROOT4_2X2_ROWS)
    res = algorithm_a(A)
    balanced_err = np.abs(res.balanced.to_dense() - np.array([[3.0, 1.0], [3.0, 1.0]])).max()
    ok = abs(root - 4.0) <= 1e-12 and res.iterations == 1 and balanced_err <= 1e-12
    with capsys.disabled():
        report(
            4,
            ok,
            f"closed-form root={root!r} (exact 4), one-step balance error={balanced_err:.2e}",
        )


def test_criterion_5_imprimitivity_detection(capsys):
    A = from_dense(PERIODIC3_ROWS)
    res = algorithm_a(A, SolverConfig(side=Side.ROW))
    irreducible, primitive = is_irreducible(A), is_primitive(A)
    ok = res.status is Status.STAGNATED and res.iterations <= 200 and irreducible and not primitive
    with capsys.disabled():
        report(
            5,
            ok,
            f"status={res.status.value} after {res.iterations} iterations, "
            f"irreducible={irreducible}, primitive={primitive}",
        )


def test_criterion_6_property_suite(capsys):
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    failures = []
    for k in range(200):
        n = 2 + k % 7
        A = random_primitive(n, density=float(rng.uniform(0.2, 0.9)), rng=rng)
        arr = A.to_dense()

        res = algorithm_b(A)
        lam = power_method(A).eigenvalue
        if abs(res.root - lam) > 1e-7:
            failures.append(f"#{k}: solver/power disagree by {abs(res.root - lam):.2e}")
        if not (
            np.all(np.diff(res.history.rmin) >= -1e-12)
            and np.all(np.diff(res.history.rmax) <= 1e-12)
        ):
            failures.append(f"#{k}: enclosure not monotone")
        bal = res.balanced.to_dense()
        if not (
            np.array_equal(np.diagonal(bal), np.diagonal(arr))
            and np.array_equal(bal == 0, arr == 0)
        ):
            failures.append(f"#{k}: balanced matrix altered diagonal or pattern")
        M = arr if res.side_used is Side.ROW else arr.T
        v = res.eigenvector
        residual = np.abs(M @ v - res.root * v).max() / np.abs(v).max()
        if residual > 1e-6:
            failures.append(f"#{k}: eigenvector residual {residual:.2e}")
        for side in Side:
            flo, fhi = frobenius_bounds(A, side)
            mlo, mhi = minc_bounds(A, side)
            if not (flo <= mlo + 1e-12 and mhi <= fhi + 1e-12):
                failures.append(f"#{k}: interval not nested on side {side.value}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    with capsys.disabled():
        report(
            6,
            ok,
            f"200 random primitive matrices (n in 2..8), {len(failures)} failures, "
            f"suite time {elapsed:.2f} s (limit 10 s)"
            + (f"; first: {failures[0]}" if failures else ""),
        )


def test_criterion_7_stationary_distribution(capsys):
    P = StochasticMatrix(from_dense([[0.9, 0.1], [0.5, 0.5]]))
    dist = stationary(P)
    exact = np.array([5.0 / 6.0, 1.0 / 6.0])
    oracle = stationary_linear_solve(P.matrix.to_dense())
    u_err = np.abs(dist.u - exact).max()

    # root sanity on the same transposed solve the application performs
    root = algorithm_b(transposed(P.matrix), SolverConfig(side=Side.ROW)).root
    root_err = abs(root - 1.0)

    doubly = StochasticMatrix(
        from_dense([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    )
    uniform_err = np.abs(stationary(doubly).u - 1.0 / 3.0).max()

    ok = (
        u_err <= 1e-8
        and np.abs(oracle - exact).max() <= 1e-10
        and root_err <= 1e-8
        and uniform_err <= 1e-10
    )
    with capsys.disabled():
        report(
            7,
            ok,
            f"two-state u error={u_err:.2e} (limit 1e-8), |root-1|={root_err:.2e}, "
            f"doubly-stochastic uniform error={uniform_err:.2e} (limit 1e-10)",
        )


def test_criterion_8_disc_alignment(capsys):
    runs = [
        algorithm_a(from_dense(SAMPLE3_ROWS)),
        algorithm_b(from_dense(SAMPLE3_ROWS)),
        algorithm_b(from_dense(ROOT4_2X2_ROWS)),
    ]
    rng = np.random.default_rng(777)
    for _ in range(20):
        runs.append(algorithm_a(random_primitive(int(rng.integers(2, 8)), rng=rng)))
    worst = 0.0
    for res in runs:
        assert res.status is Status.CONVERGED
        worst = max(worst, max(abs(d.reach - res.root) for d in convergence_discs(res)))
    ok = worst <= 10 * TOL
    with capsys.disabled():
        report(
            8,
            ok,
            f"max |disc reach - root| over {len(runs)} accepted runs = {worst:.2e} "
            f"(limit {10 * TOL:.0e})",
        )
