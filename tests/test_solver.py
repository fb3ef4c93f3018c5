import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

import perronkit.markov
import perronkit.matcore
import perronkit.solver
from conftest import SAMPLE3_ROWS
from oracles import charpoly_coefficients, reference_iterate, traced_peak, transposed
from perronkit import (
    Side,
    SolverConfig,
    Status,
    ZeroSumError,
    algorithm_a,
    algorithm_b,
    bounds_report,
    convergence_discs,
    damp,
    from_coordinates,
    from_dense,
    make_stochastic,
    power_method,
    random_primitive,
    rank_one_hadamard,
    stationary,
    sums,
    tridiagonal,
    write_matrix_market,
)
from perronkit.cli import main
from perronkit.errors import DomainError
from perronkit.matcore import NonnegMatrix, _csr, _entries
from perronkit.solver import _STAGNATION_WINDOW, _iterate, _operator, _stalled, _ulp


def _with_corner(T, a00):
    """The CSR matrix T with entry (0, 0), its first stored entry, set to a00."""
    rows, cols, values = _entries(T)
    return from_coordinates(T.n, rows, cols, np.r_[a00, values[1:]])


def collect(out):
    """on_step hook appending (t, copy of the sums) to out."""
    return lambda t, r: out.append((t, r.copy()))


def counted(op, calls):
    """op with its kernel appending to calls at each call."""

    def vecmat(v, out=None):
        calls.append(None)
        return op.apply(v, out=out)

    return dataclasses.replace(op, apply=vecmat)


def counting_least(operator, calls):
    """operator, with each operator it builds appending to calls at each least() call."""

    def build(*args):
        op = operator(*args)

        def least():
            calls.append(None)
            return op.least()

        return dataclasses.replace(op, least=least)

    return build


class TestLeastEntry:
    """least() runs only in a block of two or more steps, which needs 2**17 // work >= 2."""

    @pytest.mark.parametrize("n, calls", [(256, 1), (257, 0)])
    def test_dense_solve_reads_it_only_up_to_order_256(self, monkeypatch, n, calls):
        made = []
        monkeypatch.setattr(perronkit.solver, "_operator", counting_least(perronkit.solver._operator, made))
        res = algorithm_a(random_primitive(n, rng=4))
        assert (res.status, len(made)) == (Status.CONVERGED, calls)

    @pytest.mark.parametrize("n, calls", [(255, 1), (256, 0)])
    def test_damped_dense_chain_reads_it_only_up_to_order_255(self, monkeypatch, n, calls):
        # the damped kernel's work is n² + n
        made = []
        monkeypatch.setattr(perronkit.markov, "_matrix_operator", counting_least(perronkit.markov._matrix_operator, made))
        P = damp(make_stochastic(random_primitive(n, rng=4)), 0.85)
        assert P.matrix.storage == "dense"
        assert (stationary(P).status, len(made)) == (Status.CONVERGED, calls)

    def test_undamped_dense_chain_reads_it_at_order_256(self, monkeypatch):
        # an undamped chain runs P's own operator, whose work is n²
        made = []
        monkeypatch.setattr(perronkit.markov, "_matrix_operator", counting_least(perronkit.markov._matrix_operator, made))
        P = make_stochastic(random_primitive(256, rng=4))
        assert P.matrix.storage == "dense"
        assert (stationary(P).status, len(made)) == (Status.CONVERGED, 1)

    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_it_is_the_least_positive_entry_on_either_storage(self, density):
        arr = random_primitive(40, density, rng=5).to_dense()
        i, j = np.nonzero(arr)
        want = arr[arr > 0].min()
        for A in (from_dense(arr), from_coordinates(40, i, j, arr[i, j])):
            assert _operator(A).least() == want


class TestAutomaticSide:
    """side=None balances the side whose initial sum spread is smaller; ties go to rows."""

    def test_sample3_prefers_columns(self, sample3):
        # initial spreads: rows 4, columns 2.5
        assert algorithm_a(sample3).side_used is Side.COLUMN

    def test_symmetric_tie_goes_to_rows(self):
        assert algorithm_a(from_dense([[1.0, 2.0], [2.0, 1.0]])).side_used is Side.ROW

    def test_periodic3_prefers_columns(self, periodic3):
        # spreads: rows 5, columns 0
        assert algorithm_a(periodic3).side_used is Side.COLUMN

    @pytest.mark.parametrize("side, sums_taken", [(None, 2), (Side.ROW, 1), (Side.COLUMN, 1)])
    def test_the_sums_taken_are_the_loops_first_image(self, monkeypatch, side, sums_taken):
        # the side choice's sums start the loop: past them every kernel
        # application is one step; on random_primitive(1000, 0.5, 1) the
        # automatic side, columns, makes 8 steps and 10 applications
        applied, kernel = [], perronkit.matcore._kernel

        def counted_kernel(*args):
            product = kernel(*args)

            def call(v, out=None):
                applied.append(None)
                return product(v, out=out)

            return call

        for module in (perronkit.matcore, perronkit.solver):
            monkeypatch.setattr(module, "_kernel", counted_kernel)
        res = algorithm_a(random_primitive(1000, 0.5, 1), SolverConfig(side=side))
        assert res.status is Status.CONVERGED
        assert len(applied) == sums_taken + res.iterations
        if side is None:
            assert (res.side_used, len(applied)) == (Side.COLUMN, 10)


class TestAlgorithmA:
    def test_sample3_converges_on_columns(self, sample3):
        res = algorithm_a(sample3)
        assert res.status is Status.CONVERGED
        assert res.side_used is Side.COLUMN
        assert res.root == pytest.approx(5.739952, abs=1e-6)
        assert res.root_hi - res.root_lo <= 1e-8
        # Algorithm B is Algorithm A: one solve, whose result carries the eigenvector
        assert res.eigenvector.tobytes() == algorithm_b(sample3).eigenvector.tobytes()
        assert res.eigenvector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_already_balanced_needs_no_update(self):
        A = from_dense([[1.0, 2.0], [2.0, 1.0]])
        res = algorithm_a(A)
        assert res.iterations == 0 and res.root == 3.0
        assert res.status is Status.CONVERGED

    def test_periodic3_row_side_oscillates(self, periodic3):
        steps = []
        res = algorithm_a(periodic3, SolverConfig(side=Side.ROW), on_step=collect(steps))
        assert res.status is Status.STAGNATED
        assert res.iterations <= 200
        assert [t for t, _ in steps] == list(range(res.iterations + 1))
        # hand iteration: sums flip between (6, 1.5, 6) and (1.5, 6, 1.5)
        assert np.array_equal(steps[1][1], [6.0, 1.5, 6.0])
        assert np.array_equal(steps[2][1], [1.5, 6.0, 1.5])
        assert np.array_equal(steps[3][1], [6.0, 1.5, 6.0])
        assert res.root_hi - res.root_lo == 4.5

    def test_zero_row_sum_rejected(self):
        with pytest.raises(ZeroSumError) as err:
            algorithm_a(from_dense([[0.0, 0.0], [1.0, 1.0]]), SolverConfig(side=Side.ROW))
        assert err.value.index == 0

    def test_max_iterations_status(self, sample3):
        res = algorithm_a(sample3, SolverConfig(max_iterations=2))
        assert res.status is Status.MAX_ITERATIONS and res.iterations == 2

    def test_one_step_balances_the_2x2(self, root4_2x2):
        res = algorithm_a(root4_2x2)
        assert res.iterations == 1 and res.status is Status.CONVERGED
        assert np.allclose(res.balanced.to_dense(), [[3.0, 1.0], [3.0, 1.0]], atol=1e-12, rtol=0)

    def test_single_entry_matrix(self):
        res = algorithm_a(from_dense([[5.0]]))
        assert res.root == 5.0 and res.iterations == 0

    def test_root_midpoint_does_not_overflow(self):
        res = algorithm_a(from_dense([[1e308]]))
        assert res.root == 1e308

    def test_slow_primitive_run_is_not_reported_stagnant(self):
        # the spread of this primitive matrix stalls for a window near
        # iteration 960; the exact test keeps the run going to the cap
        res = algorithm_a(tridiagonal(400, 1.0, 3.0, 2.0), SolverConfig(max_iterations=3000))
        assert res.status is Status.MAX_ITERATIONS and res.iterations == 3000


class TestAlgorithmB:
    def test_sample3_matches_algorithm_a(self, sample3):
        res_a = algorithm_a(sample3)
        res_b = algorithm_b(sample3)
        assert abs(res_a.root - res_b.root) <= 1e-8
        assert res_b.eigenvector is not None and np.all(res_b.eigenvector > 0)
        assert res_b.eigenvector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_of_2x2(self, root4_2x2):
        res = algorithm_b(root4_2x2)
        assert res.root == pytest.approx(4.0, abs=1e-10)
        expected = np.array([math.sqrt(3.0), 1.0])
        assert np.allclose(res.eigenvector, expected / expected.sum(), atol=1e-10)

    def test_eigen_identity_in_solved_orientation(self, sample3):
        res = algorithm_b(sample3)
        M = sample3.to_dense() if res.side_used is Side.ROW else sample3.to_dense().T
        v = res.eigenvector
        assert np.abs(M @ v - res.root * v).max() / np.abs(v).max() <= 1e-7

    def test_balanced_rows_all_equal_root(self):
        A = random_primitive(6, density=0.7, rng=123)
        res = algorithm_b(A, SolverConfig(side=Side.ROW))
        r = res.balanced.to_dense().sum(axis=1)
        assert np.all(r >= res.root_lo - 1e-12) and np.all(r <= res.root_hi + 1e-12)

    def test_order_50_tridiagonal(self):
        T = tridiagonal(50, 1.0, 3.0, 2.0)
        res = algorithm_b(T)
        assert res.status is Status.CONVERGED
        assert res.root == pytest.approx(5.823063, abs=1e-6)
        assert 3000 <= res.iterations <= 8000

    def test_huge_scale_spread_converges(self):
        d = np.array([1.0, 1e155])
        M = rank_one_hadamard(from_dense([[2.0, 1.0], [1.0, 2.0]]), np.reciprocal(d), d)
        res = algorithm_b(M)
        assert res.status is Status.CONVERGED
        assert res.root == pytest.approx(3.0, abs=1e-8)
        assert np.all(res.eigenvector > 0)

    def test_dense_row_solve_copies_no_transpose(self):
        # the row kernel is one einsum over A itself; a full copy of Aᵀ is 8n² bytes
        n = 400
        A = random_primitive(n, rng=3)
        _, peak = traced_peak(lambda: algorithm_b(A, SolverConfig(side=Side.ROW)))
        assert peak < 8 * n * n / 4

    @pytest.mark.parametrize(
        "rows, side",
        [
            ([[1e20, 1.0], [0.0, 1.0]], Side.ROW),
            ([[1.0, 1.0, 0.0], [0.0, 1e40, 1.0], [0.0, 0.0, 1.0]], Side.ROW),
            ([[1.0, 1.0, 0.0], [0.0, 1e40, 1.0], [0.0, 0.0, 1.0]], Side.COLUMN),
        ],
        ids=["2x2-row", "3x3-row", "3x3-col"],
    )
    def test_reducible_underflow_stops_finite(self, rows, side):
        # the scaling vector underflows on these reducible inputs; the run
        # must stop early and keep its last finite step
        cfg = SolverConfig(side=side)
        steps = []
        res = algorithm_b(from_dense(rows), cfg, on_step=collect(steps))
        assert res.status is Status.STAGNATED
        assert res.iterations <= _STAGNATION_WINDOW + 5
        # the rejected last step reaches neither the history nor on_step
        assert [t for t, _ in steps] == list(range(res.iterations + 1))
        assert [r.min() for _, r in steps] == list(res.history.rmin)
        assert [r.max() for _, r in steps] == list(res.history.rmax)
        assert np.all(np.isfinite([res.root_lo, res.root_hi, res.root]))
        assert np.all(np.isfinite(res.eigenvector))
        assert np.all(np.isfinite(res.balanced.to_dense()))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_huge_root_converges_at_rounding_floor(self, storage):
        # after one step the ends of the enclosure are adjacent doubles near
        # 1e300; their spread, one ulp (1.5e284), is far above the tolerance
        arr = np.array([[1e-300, 1e-300], [1.0, 1e300]])
        nz = np.nonzero(arr)
        A = from_dense(arr) if storage == "dense" else from_coordinates(2, *nz, arr[nz])
        res = algorithm_b(A, SolverConfig(side=Side.COLUMN))
        assert res.status is Status.CONVERGED and res.iterations == 1
        assert res.root_hi == 1e300 and res.root_hi - res.root_lo <= math.ulp(1e300)
        assert np.array_equal(res.eigenvector, [1e-300, 1.0])


class TestStoppingRules:
    def test_range_rule_detects_stagnation_within_window(self, periodic3):
        cfg = SolverConfig(side=Side.ROW)
        res = algorithm_a(periodic3, cfg)
        assert res.status is Status.STAGNATED
        assert res.iterations <= _STAGNATION_WINDOW + 5

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_infinite_sums_never_converge(self, storage):
        # built past validation: row 0 of the input sums to inf, so the spread is inf
        arr = np.array([[9.5e307, 9.5e307], [1.0, 1.0]])
        nz = np.nonzero(arr)
        A = NonnegMatrix(2, dense=arr) if storage == "dense" else _csr(2, *nz, arr[nz])
        res = algorithm_a(A, SolverConfig(side=Side.ROW))
        assert res.status is Status.STAGNATED and res.iterations == 0
        assert res.root_hi == math.inf

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_capped_run_takes_every_step_to_the_cap(self, storage):
        T = tridiagonal(50, 1.0, 3.0, 2.0)  # about 5 900 steps to converge
        if storage == "dense":
            T = from_dense(T.to_dense())
        steps = []
        res = algorithm_b(T, SolverConfig(max_iterations=100), on_step=collect(steps))
        assert res.status is Status.MAX_ITERATIONS and res.iterations == 100
        assert len(res.history) == 101
        assert [t for t, _ in steps] == list(range(101))
        assert [r.min() for _, r in steps] == res.history.rmin.tolist()
        assert [r.max() for _, r in steps] == res.history.rmax.tolist()

    @pytest.mark.parametrize("side", [Side.ROW, Side.COLUMN])
    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_full_blocks_in_one_array_match_the_one_step_loop(self, storage, side):
        # blocks grow by a step at a time: on CSR they reach 128 steps at
        # step 8 256, and six such blocks follow; dense blocks stop growing
        # at 2**17 // 100² = 13 steps, from step 91.  Every block rewrites
        # the one block array, so each on_step copy and y must match the
        # reference loop's, which keeps a fresh array per step
        A = tridiagonal(100, 1.0, 3.0, 2.0)
        if storage == "dense":
            A = from_dense(A.to_dense())
        cfg, steps = SolverConfig(max_iterations=9_000, side=side), []
        res = algorithm_b(A, cfg, on_step=collect(steps))
        ref_y, *ref_run, ref_steps = reference_iterate(A if side is Side.COLUMN else transposed(A), cfg)
        assert [res.iterations, res.status] == ref_run[:2] == [9_000, Status.MAX_ITERATIONS]
        assert [(t, r.tobytes()) for t, r in steps] == ref_steps
        assert [r.min() for _, r in steps] == res.history.rmin.tolist()
        assert [r.max() for _, r in steps] == res.history.rmax.tolist()
        assert res.eigenvector.tobytes() == (ref_y / ref_y.sum()).tobytes()
        x, z = (np.reciprocal(ref_y), ref_y) if side is Side.ROW else (ref_y, np.reciprocal(ref_y))
        assert res.balanced.to_dense().tobytes() == rank_one_hadamard(A, x, z).to_dense().tobytes()

    @pytest.mark.parametrize(
        "run, steps",
        [
            (lambda A, path: bounds_report(A), 1),
            (lambda A, path: main(["perron", "--max-iter", "1", str(path)]), 1),
            (lambda A, path: algorithm_b(A, SolverConfig(max_iterations=1_000)), 1_000),
            (lambda A, path: stationary(make_stochastic(A), SolverConfig(max_iterations=1_000)), 1_000),
        ],
        ids=["bounds", "perron-max-iter-1", "algorithm-b", "stationary"],
    )
    def test_the_slot_layout_is_built_only_past_one_step(self, monkeypatch, tmp_path, run, steps):
        # a one-step solve (bounds_report runs two) must not pay for it; a
        # longer one builds it with its operator and makes every call through it
        built, slot_product, kernel = [], perronkit.matcore._slot_product, perronkit.solver._kernel
        kernels = []  # the kernel behind each call the solver makes

        def counted_slots(*args):
            built.append(None)
            return slot_product(*args)

        def counted_kernel(*args):
            product = kernel(*args)

            def call(v, out=None):
                kernels.append(product.__qualname__)
                return product(v, out=out)

            return call

        monkeypatch.setattr(perronkit.matcore, "_slot_product", counted_slots)
        monkeypatch.setattr(perronkit.solver, "_kernel", counted_kernel)
        A = tridiagonal(600, 1.0, 3.0, 2.0)
        path = tmp_path / "t600.mtx"
        write_matrix_market(A, path)
        res = run(A, path)
        if steps == 1:
            assert built == []
        else:
            assert (res.iterations, len(built)) == (1_000, 1)
            assert kernels and all("_slot_product" in name for name in kernels)

    def test_each_block_runs_one_step_past_the_last_blocks_keep(self, sample3):
        # blocks of 1, 2, 3, 4, 5 and 6 steps: the sixth stops after two, so
        # the run computes 21 steps to keep 17, plus the input's sums
        calls = []
        op = counted(_operator(sample3, loop=True), calls)
        _, t, status, _ = _iterate(op, op.apply(np.ones(sample3.n)), SolverConfig())
        assert (t, status, len(calls)) == (17, Status.CONVERGED, 22)

    @pytest.mark.parametrize(
        "build, calls, steps",
        [
            (lambda: tridiagonal(50, 1e250, 3e250, 2e250), 17_521, 11_680),
            (lambda: _with_corner(tridiagonal(200, 1.0, 3.0, 2.0), 1e-300), 114_068, 76_120),
            (lambda: tridiagonal(200, 1.0, 3.0, 2.0), 76_609, 76_599),
        ],
        ids=["huge-tridiagonal", "tiny-corner", "tridiagonal"],
    )
    def test_a_block_grows_only_after_one_that_was_not_cut(self, build, calls, steps):
        # the first two cut every block at its first step: blocks of one and
        # two steps alternate, where growing after a cut ran two for each one
        # kept (23 360 and 151 993 calls); the third is never cut
        A, made = build(), []
        op = counted(_operator(A, loop=True), made)
        y, t, status, history = _iterate(op, op.apply(np.ones(A.n)), SolverConfig())
        assert (len(made), t, status) == (calls, steps, Status.CONVERGED)
        if steps < 20_000:  # blocks change no bit: the one-step reference loop agrees
            ref_y, ref_t, ref_status, ref_rmin, ref_rmax, _ = reference_iterate(A, SolverConfig())
            assert (ref_t, ref_status) == (t, status)
            assert ref_y.tobytes() == y.tobytes()
            assert ref_rmin.tobytes() == history.rmin.tobytes()
            assert ref_rmax.tobytes() == history.rmax.tobytes()

    def test_a_long_run_keeps_its_history_in_float_arrays(self):
        # 76 599 history entries as Python floats in lists peaked at 6.5 MB
        A = tridiagonal(200, 1.0, 3.0, 2.0)
        res, peak = traced_peak(lambda: algorithm_b(A))
        assert (res.iterations, res.status) == (76_599, Status.CONVERGED)
        assert peak <= 3.5e6

    def test_block_rounding_floor_is_math_ulp(self):
        # np.spacing alone is inf at the largest double, where math.ulp is 2^971
        values = [np.finfo(np.float64).max, 2.0**1023, 1.0, 2.0**-1022, 5e-324]
        assert _ulp(np.array(values)).tolist() == [math.ulp(v) for v in values]


def _stall_flags(rmin, rmax, tolerance):
    """_stalled at every history entry that has one _STAGNATION_WINDOW entries back."""
    spreads, w = np.subtract(rmax, rmin), _STAGNATION_WINDOW
    with np.errstate(divide="ignore", invalid="ignore"):  # the rule masks a zero spread back
        return _stalled(spreads[w:], spreads[:-w], tolerance)


class TestStagnant:
    def test_periodic3_trace_is_stagnant(self, periodic3):
        cfg = SolverConfig(side=Side.ROW)
        res = algorithm_a(periodic3, cfg)
        assert res.iterations <= 25
        assert _stall_flags(res.history.rmin, res.history.rmax, cfg.tolerance)[-1]

    def test_sample3_trace_never_stagnates(self, sample3):
        # a tolerance at the rounding floor runs sample3 past the window
        cfg = SolverConfig(tolerance=1e-15)
        res = algorithm_a(sample3, cfg)
        assert res.status is Status.CONVERGED
        h = res.history
        assert len(h) > _STAGNATION_WINDOW + 1
        assert not _stall_flags(h.rmin, h.rmax, cfg.tolerance).any()

    def test_converged_history_is_not_stagnant(self):
        flat = [3.0] * (_STAGNATION_WINDOW + 5)
        assert not _stall_flags(flat, flat, SolverConfig().tolerance).any()

    def test_short_history_reports_false(self):
        assert not _stall_flags([1.0], [2.0], SolverConfig().tolerance).any()


class TestConvergenceDiscs:
    """Disc i has center a_ii and radius the balanced sum i minus a_ii."""

    def test_balanced_2x2_discs_share_reach(self, root4_2x2):
        discs = convergence_discs(algorithm_a(root4_2x2))
        assert [d.center for d in discs] == [3.0, 1.0]
        assert [d.radius for d in discs] == pytest.approx([1.0, 3.0], abs=1e-12)
        assert [d.reach for d in discs] == pytest.approx([4.0, 4.0], abs=1e-12)

    def test_diagonal_matrix_has_zero_radii(self):
        res = algorithm_a(from_dense(np.diag([2.0, 5.0])))
        assert [(d.center, d.radius) for d in convergence_discs(res)] == [(2.0, 0.0), (5.0, 0.0)]

    @pytest.mark.parametrize("side", [Side.ROW, Side.COLUMN], ids=["row", "col"])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_reach_is_the_balanced_sum(self, side, storage):
        T = tridiagonal(6, 1.0, 3.0, 2.0)
        A = from_dense(T.to_dense()) if storage == "dense" else T
        res = algorithm_b(A, SolverConfig(side=side))
        B = res.balanced.to_dense()
        discs = convergence_discs(res)
        assert [d.center for d in discs] == np.diagonal(B).tolist()
        balanced_sums = B.sum(axis=1 if side is Side.ROW else 0)
        assert np.allclose([d.reach for d in discs], balanced_sums, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("side", [None, Side.ROW, Side.COLUMN], ids=["auto", "row", "col"])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_radii_are_the_last_step_sums_minus_the_diagonal(self, periodic3, side, storage):
        rng = np.random.default_rng(61)
        # random primitive runs converge; periodic3 stagnates on rows; a cap of 3 stops early
        uncapped = SolverConfig.max_iterations
        cases = [(random_primitive(int(rng.integers(2, 9)), rng=rng), uncapped) for _ in range(30)]
        # past two of the dense row kernel's 64-row blocks, the last one overlapping
        cases += [(random_primitive(130, rng=rng), uncapped), (periodic3, uncapped), (periodic3, 3)]
        for A, cap in cases:
            if storage == "csr":
                nz = np.nonzero(A.to_dense())
                A = from_coordinates(A.n, *nz, A.to_dense()[nz])
            steps = []
            res = algorithm_b(A, SolverConfig(side=side, max_iterations=cap), on_step=collect(steps))
            assert [d.radius for d in convergence_discs(res)] == (steps[-1][1] - A.diagonal()).tolist()

    def test_builds_no_balanced_matrix(self, sample3, monkeypatch):
        def refuse(*args):
            raise AssertionError("convergence_discs built a balanced matrix")

        res = algorithm_a(sample3)
        monkeypatch.setattr(perronkit.matcore, "rank_one_hadamard", refuse)
        monkeypatch.setattr(perronkit.solver, "rank_one_hadamard", refuse)
        assert len(convergence_discs(res)) == 3


class TestScalingMatrix:
    """balanced = A ∘ X with the rank-one X_ij = y_j / y_i (rows) or y_i / y_j (columns)."""

    def test_all_ones_scaling_returns_the_input(self):
        A = from_dense([[1.0, 2.0], [2.0, 1.0]])  # already balanced: y stays 1
        res = algorithm_a(A)
        assert res.iterations == 0
        assert res.balanced.to_dense().tobytes() == A.to_dense().tobytes()

    def test_2x2_scaling_vector(self):
        d = np.array([1.0, 1.0 / math.sqrt(3.0)])
        X = rank_one_hadamard(from_dense(np.ones((2, 2))), np.reciprocal(d), d)
        s3 = math.sqrt(3.0)
        assert np.allclose(X.to_dense(), [[1.0, 1.0 / s3], [s3, 1.0]], rtol=1e-15)
        assert np.array_equal(np.diagonal(X.to_dense()), np.ones(2))

    @pytest.mark.parametrize("side", [Side.ROW, Side.COLUMN], ids=["row", "col"])
    def test_elementwise_reciprocal_symmetry(self, side):
        # X ∘ Xᵀ = 1, so B ∘ Bᵀ = A ∘ Aᵀ
        A = random_primitive(5, density=1.0, rng=6)
        B = algorithm_a(A, SolverConfig(side=side)).balanced.to_dense()
        arr = A.to_dense()
        assert np.allclose(B * B.T, arr * arr.T, rtol=1e-12)


class TestInvariants:
    def test_monotone_enclosure_on_primitive_matrices(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = random_primitive(n, density=float(rng.uniform(0.2, 0.9)), rng=rng)
            res = algorithm_a(A)
            assert res.status is Status.CONVERGED
            assert np.all(np.diff(res.history.rmin) >= -1e-12)
            assert np.all(np.diff(res.history.rmax) <= 1e-12)
            assert np.all(res.history.rmin <= res.history.rmax)

    def test_balanced_preserves_diagonal_pattern_and_spectrum(self):
        rng = np.random.default_rng(200)
        for n in (2, 3, 4):
            A = random_primitive(n, density=0.6, rng=rng)
            arr = A.to_dense()
            for solve in (algorithm_a, algorithm_b):
                res = solve(A)
                bal = res.balanced.to_dense()
                assert np.array_equal(np.diagonal(bal), np.diagonal(arr))
                assert np.array_equal(bal == 0, arr == 0)
                assert np.allclose(
                    charpoly_coefficients(bal), charpoly_coefficients(arr), atol=1e-9, rtol=0
                )

    def test_balanced_unit_vector_identity(self):
        rng = np.random.default_rng(300)
        for _ in range(10):
            A = random_primitive(int(rng.integers(2, 7)), rng=rng)
            res = algorithm_b(A)
            M = res.balanced if res.side_used is Side.ROW else transposed(res.balanced)
            r = M.to_dense().sum(axis=1)
            assert np.abs(r - res.root).max() <= 1e-8

    def test_disc_alignment_at_convergence(self):
        rng = np.random.default_rng(400)
        for _ in range(10):
            A = random_primitive(int(rng.integers(2, 8)), rng=rng)
            res = algorithm_a(A)
            for disc in convergence_discs(res):
                assert abs(disc.reach - res.root) <= 10 * 1e-8

    def test_agreement_with_power_method_and_between_variants(self):
        rng = np.random.default_rng(500)
        for _ in range(30):
            A = random_primitive(int(rng.integers(2, 9)), density=0.5, rng=rng)
            root_b = algorithm_b(A).root
            root_a = algorithm_a(A).root
            lam = power_method(A).eigenvalue
            assert abs(root_b - lam) <= 1e-7
            assert abs(root_a - root_b) <= 2e-8

    def test_scale_equivariance(self, sample3):
        base = algorithm_a(sample3).root
        for beta in (0.01, 1.0, 1000.0):
            scaled = from_dense(beta * np.array(SAMPLE3_ROWS))
            res = algorithm_a(scaled, SolverConfig(tolerance=beta * 1e-8))
            assert abs(res.root - beta * base) <= 1e-9 * beta

    @pytest.mark.parametrize("side", [Side.ROW, Side.COLUMN], ids=["row", "col"])
    @pytest.mark.parametrize("solve", [algorithm_a, algorithm_b], ids=["algorithm_a", "algorithm_b"])
    def test_csr_and_dense_runs_are_bit_identical(self, solve, side):
        T = tridiagonal(8, 1.0, 3.0, 2.0)
        D = from_dense(T.to_dense())
        cfg = SolverConfig(side=side)
        steps_sparse, steps_dense = [], []
        res_sparse = solve(T, cfg, on_step=collect(steps_sparse))
        res_dense = solve(D, cfg, on_step=collect(steps_dense))
        assert res_sparse.iterations == res_dense.iterations
        assert np.array_equal(res_sparse.history.rmin, res_dense.history.rmin)
        assert np.array_equal(res_sparse.history.rmax, res_dense.history.rmax)
        assert len(steps_sparse) == len(steps_dense) == res_sparse.iterations + 1
        for (t_sparse, r_sparse), (t_dense, r_dense) in zip(steps_sparse, steps_dense):
            assert t_sparse == t_dense and r_sparse.tobytes() == r_dense.tobytes()
        assert np.array_equal(res_sparse.balanced.to_dense(), res_dense.balanced.to_dense())
        if solve is algorithm_b:
            assert np.array_equal(res_sparse.eigenvector, res_dense.eigenvector)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_no_solve_builds_a_transposed_matrix(self, storage):
        # the row side is the kernel's, so no entry point needs Aᵀ stored,
        # and NonnegMatrix has no method that would build it
        T = tridiagonal(8, 1.0, 3.0, 2.0)
        A = from_dense(T.to_dense()) if storage == "dense" else T
        assert not hasattr(NonnegMatrix, "transpose")
        for side in (None, Side.ROW, Side.COLUMN):
            cfg = SolverConfig(side=side)
            assert algorithm_a(A, cfg).status is Status.CONVERGED
            res = algorithm_b(A, cfg)
            assert res.status is Status.CONVERGED
            assert len(convergence_discs(res)) == 8
        assert np.all(np.isfinite(dataclasses.astuple(bounds_report(A))))
        assert np.array_equal(sums(A, Side.ROW), T.to_dense().sum(axis=1))
        assert np.array_equal(sums(A, Side.COLUMN), T.to_dense().sum(axis=0))

    def test_eigenvector_residual_within_ten_tolerances(self, sample3):
        cfg = SolverConfig(side=Side.ROW)
        res = algorithm_b(sample3, cfg)
        y = res.eigenvector
        assert np.abs(sample3.to_dense() @ y - res.root * y).max() <= 10 * cfg.tolerance

    @pytest.mark.parametrize(
        "rows",
        [[[1e-300, 0.0], [1.0, 1e300]], [[1e-300, 1e-300], [1.0, 1e300]]],
        ids=["zero-entry", "positive-entry"],
    )
    def test_csr_and_dense_bounds_agree_on_extreme_scales(self, rows):
        # the sharpened row bound's step would take y out of the normal range;
        # both storages must fall back alike and stay finite
        arr = np.array(rows)
        nz = np.nonzero(arr)
        dense = bounds_report(from_dense(arr))
        sparse = bounds_report(from_coordinates(2, *nz, arr[nz]))
        assert dense == sparse
        assert np.all(np.isfinite(dataclasses.astuple(dense)))

    def test_only_solver_reads_a_results_private_fields(self):
        # every other module reads a PerronResult through its public fields
        package = pathlib.Path(perronkit.solver.__file__).parent
        reads = [
            f"{path.name}:{k}: {line.strip()}"
            for path in sorted(package.glob("*.py")) if path.name != "solver.py"
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\._(y|A)\b", line)
        ]
        assert reads == []


class TestResultRecords:
    @pytest.mark.parametrize(
        "solve",
        [algorithm_a, lambda A: algorithm_a(A).history, power_method, lambda A: stationary(make_stochastic(A))],
        ids=["perron", "history", "power", "stationary"],
    )
    def test_records_compare_by_identity(self, sample3, solve):
        # generated __eq__ compared array fields, whose truth value raises
        first, second = solve(sample3), solve(sample3)
        assert first == first
        assert first != second

    def test_a_result_keeps_one_vector(self, sample3):
        res = algorithm_a(sample3)
        assert [f.name for f in dataclasses.fields(res)] == [
            "root_lo", "root_hi", "side_used", "status", "history", "_A", "_y",
        ]
        assert res.iterations == len(res.history) - 1 == 17
        assert res.root == 0.5 * res.root_lo + 0.5 * res.root_hi
        assert res.eigenvector is res.eigenvector
        assert res.eigenvector.tobytes() == (res._y / res._y.sum()).tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1e-8},
            {"max_iterations": 0},
            {"tolerance": float("inf")},
            {"side": "row"},
            {"max_iterations": float("nan")},
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"tolerance": True},
            {"tolerance": "1e-8"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)
