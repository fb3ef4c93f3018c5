"""Child processes and output parsing shared by the untraced and traced runs."""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import time
from dataclasses import dataclass

# BLAS/OpenMP pin for every perronkit run, child or in-process.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class ChildResult:
    code: int  # exit code, or minus the signal number
    wall_s: float
    maxrss_kb: int
    out_path: str
    timed_out: bool


def spawn(pyargs, pythonpath: str, out_path: str, err_path: str, timeout: float) -> ChildResult:
    """Run python with pyargs, stdout/stderr to files; wall time, exit code and
    peak RSS come from os.wait4.  A child still running after timeout is killed."""
    env = dict(os.environ, PYTHONPATH=pythonpath, **PIN)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    timed_out = []
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *pyargs], env, file_actions=actions)

    def kill(signum, frame):
        timed_out.append(True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited just as the alarm fired
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)  # retried after the alarm handler runs
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return ChildResult(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, out_path, bool(timed_out))


class NonFinite(ValueError):
    pass


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # a literal beyond the double range, such as 1e999
        raise NonFinite(text)
    return value


def _non_finite(text: str):
    raise NonFinite(text)  # NaN, Infinity or -Infinity


def parse_record(text: str, json_expected: bool):
    """(record, error) for one child's stdout; a NaN or inf anywhere is an error."""
    if not json_expected:
        return None, None
    try:
        record = json.loads(text, parse_float=_finite_float, parse_constant=_non_finite)
    except NonFinite:
        return None, "NaN or inf in the output"
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"
    return record, None


def check_op(workload, inp, records, errors, tamper) -> list:
    """Errors of one op: those found so far, else the workload's oracle check.
    tamper, when given, edits the parsed records first (the self-test's hook)."""
    if errors:
        return errors
    if tamper is not None:
        tamper(workload.name, records)
    try:
        return workload.check(inp, records)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


