"""Rounds of timed operations, output checks and output digests.

A round calls every operation of a workload once, in a fixed order.  Only
the operations are timed: the benchmark's glue between them, its reference
computations and its checks sit outside the timed interval.  An operation
that raises is counted as failed and its output is ``None``.
"""

from __future__ import annotations

import hashlib
import math
import sys
from time import perf_counter

import numpy as np


class OperationFailed(Exception):
    """An operation ended in a way its caller counts as a failure."""


class Round:
    """One pass over a workload's operations, timed and counted."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.elapsed = 0.0
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, name: str, fn, *, layer: str | None = None, **attrs):
        """Call ``fn()`` as one operation; returns its result, or None if it failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with self.tracer.span(name, layer, **attrs):
                return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.op_times.append(perf_counter() - t0)
            self.elapsed += self.op_times[-1]


class Checker:
    """Collects named pass/fail results of output checks."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str) -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list[str]:
        return [f"{n}: {d}" for n, ok, d in self.results if not ok]

    def close(self, name: str, got, want, rtol: float = 0.0, atol: float = 0.0) -> bool:
        """Elementwise |got - want| <= atol + rtol |want|, shapes equal, no NaN."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return self.record(name, False, f"shape {got.shape} != {want.shape}")
        err = np.abs(got - want)
        ok = bool(np.all(err <= atol + rtol * np.abs(want)))
        worst = float(np.max(err)) if err.size else 0.0
        return self.record(name, ok, f"max |error| {worst:.3g} (rtol {rtol:g}, atol {atol:g})")

    def at_most(self, name: str, value: float, bound: float) -> bool:
        ok = math.isfinite(value) and value <= bound
        return self.record(name, ok, f"{value:.6g} <= {bound:.6g}")

    def equal(self, name: str, got, want) -> bool:
        return self.record(name, got == want, f"{got!r} == {want!r}")


def digest(obj) -> str:
    """Hash of a nested output (arrays, numbers, strings, containers)."""
    h = hashlib.sha256()

    def feed(o) -> None:
        if isinstance(o, np.ndarray):
            h.update(str((o.dtype.str, o.shape)).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o, key=str):
                feed(k)
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def warn(msg: str) -> None:
    print(msg, file=sys.stderr)


class Workload:
    """A fixed list of operations on inputs drawn from a seed.

    Subclasses set ``name`` and implement ``round`` and
    ``check``; ``warm_up`` makes one small call into each layer and
    ``probes`` runs trace-only direct probes.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)

    def draw_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def warm_up(self) -> None:
        pass

    def round(self, r: Round) -> dict:
        raise NotImplementedError

    def check(self, out: dict, chk: Checker) -> None:
        raise NotImplementedError

    def probes(self, tracer) -> None:
        pass

    def close(self) -> None:
        pass
