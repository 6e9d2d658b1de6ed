"""The host's speed, read from a fixed reference kernel of the benchmark's own.

On a shared host the same work can take up to 1.8 times as long in one
minute as in the next, for reasons outside the process (other tenants of
the machine's cores and caches), in phases that often outlast a run.  The
benchmark therefore times this kernel alongside the library and reports its
times scaled to one host speed: a time t measured while one kernel call
takes k seconds is reported as t * REF_KERNEL_S / k.  The kernel is the
benchmark's code, not the library's, so a change to the library moves a
scaled time exactly as much as the raw one.

The workloads differ in what they stress, and a slow phase of the host
slows each kind of work by its own factor, so the kernel does, in about
equal shares of its time, four kinds of work the workloads do:

- recursive evaluation of an expression tree of small objects, one method
  call per node, like ``ScalarExpr.eval`` on the audits' derived fields: a
  fixed tree of sums and products, 12 levels deep, whose levels share
  their subtrees (8 191 calls);
- memoised recursion with small numpy arrays, like the Pfaffian expansion
  and jets of ``spectral`` and ``expr``: twice a first-row Pfaffian expansion,
  memoised over bitmasks, of a fixed 8x8 skew matrix whose entries are
  first-order jets (a float and a small numpy gradient);
- pointer chasing through a working set larger than a core's own caches:
  9 000 steps along a shuffled ring of 50 000 objects (about 3 MB, most of
  what the kernel adds to the process's peak resident set);
- small LAPACK calls through numpy, like the roots and eigenvalues of the
  audits: eight times ``np.roots`` of a degree-6 polynomial and the
  eigenvalues of a 12x12 matrix.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REF_KERNEL_S = 2.5e-3  # a kernel call at the host speed the scaled times refer to
PERIOD_S = 0.04  # seconds of operation time between two kernel calls
BURST = 5  # kernel calls per reading taken outside the operations


class _Jet:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v, self.g = v, g

    def __add__(self, o):
        return _Jet(self.v + o.v, self.g + o.g)

    def __mul__(self, o):
        return _Jet(self.v * o.v, self.v * o.g + o.v * self.g)

    def __neg__(self):
        return _Jet(-self.v, -self.g)


_N = 8
_rng = np.random.default_rng(12345)
_A = _rng.uniform(-1.0, 1.0, (_N, _N))
_G = _rng.uniform(-1.0, 1.0, (_N, _N, 4))
_M = [[_Jet(float(_A[i, j] - _A[j, i]), _G[i, j] - _G[j, i]) for j in range(_N)]
      for i in range(_N)]
_ONE = _Jet(1.0, np.zeros(4))


def _pf(mask: int, memo: dict) -> _Jet:
    if mask == 0:
        return _ONE
    got = memo.get(mask)
    if got is not None:
        return got
    i = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << i)
    total, sign, m = None, 1, rest
    while m:
        j = (m & -m).bit_length() - 1
        m &= m - 1
        term = _M[i][j] * _pf(rest & ~(1 << j), memo)
        term = term if sign > 0 else -term
        total = term if total is None else total + term
        sign = -sign
    memo[mask] = total
    return total


class _Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, x):
        return self.value


class _Var:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def eval(self, x):
        return x[self.index]


class _Add:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) + self.b.eval(x)


class _Mul(_Add):
    __slots__ = ()

    def eval(self, x):
        return self.a.eval(x) * self.b.eval(x)


def _tree(depth: int, width: int, rnd: random.Random):
    """Root of a tree whose levels hold ``width`` nodes each, every node
    taking two children from the level below: small in memory, but
    2**(depth + 1) - 1 calls to evaluate."""
    level = [_Var(i) for i in range(width // 2)] + \
        [_Num(rnd.uniform(0.5, 1.0)) for _ in range(width - width // 2)]
    for _ in range(depth):
        level = [(_Add if rnd.random() < 0.5 else _Mul)(rnd.choice(level), rnd.choice(level))
                 for _ in range(width)]
    return level[0]


_TREE = _tree(12, 8, random.Random(12345))
_X = (0.9, 0.95, 1.0, 1.05)


class _Cell:
    __slots__ = ("next", "v")


_RING_SIZE, _RING_STEPS = 50_000, 9000
_cells = [_Cell() for _ in range(_RING_SIZE)]
random.Random(12345).shuffle(_cells)
for _k, (_a, _b) in enumerate(zip(_cells, _cells[1:] + _cells[:1])):
    _a.next, _a.v = _b, _k % 256  # small ints are shared objects
_at = [_cells[0]]
del _cells

_POLY = np.poly(np.arange(1.0, 7.0))
_SQUARE = _rng.standard_normal((12, 12))


def _chase() -> float:
    cell, total = _at[0], 0.0
    for _ in range(_RING_STEPS):
        total += cell.v
        cell = cell.next
    _at[0] = cell
    return total


def kernel() -> float:
    """One call of the reference kernel; always the same amount of work."""
    total = _TREE.eval(_X) + _pf((1 << _N) - 1, {}).v + _pf((1 << _N) - 1, {}).v + _chase()
    for _ in range(8):
        total += float(np.roots(_POLY)[0].real) + float(np.linalg.eigvals(_SQUARE)[0].real)
    return total


def scale(samples) -> float:
    """Factor that takes times measured while the kernel took ``samples``
    seconds per call to the reference host speed."""
    return REF_KERNEL_S / statistics.median(samples)


def burst() -> list[float]:
    """BURST kernel timings taken back to back, now."""
    out = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


class Sampler:
    """Times one kernel call per PERIOD_S seconds spent inside ``running()``.

    The call is made from a SIGALRM handler, so it falls between the
    library's own bytecodes, at moments spread evenly over the operations'
    time.  The interval timer is stopped outside ``running()``, keeping what
    remained of its period, so that the samples cover operation time only.
    ``spent`` is the time taken by the handler, which the caller subtracts
    from what it measures."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._left = PERIOD_S

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    @contextmanager
    def installed(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextmanager
    def running(self):
        signal.setitimer(signal.ITIMER_REAL, self._left, PERIOD_S)
        try:
            yield
        finally:
            left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
            self._left = left if left > 0 else PERIOD_S
