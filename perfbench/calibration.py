"""Calibrated time: measured seconds rescaled to a nominal CPU speed.

On a shared 2-vCPU virtual machine the speed of the same pure-Python work
drifts by 30% and more over periods of a second, far more than the
regressions the benchmark must resolve. Every PERIOD_S the benchmark times
a fixed reference task next to the ops it measures, and scales each op's
time by NOMINAL_S / (median of the last WINDOW reference times).
A calibrated second is a wall second whenever the reference task runs at
its nominal speed, so the values stay in the units a user sees, while
both commits of a comparison are measured against the same yardstick.
The reference task never calls the library.
"""

from __future__ import annotations

import time

NOMINAL_S = 250e-6   # the reference task on a shared 2-vCPU x86-64 VM, Python 3.11
PERIOD_S = 0.01
WINDOW = 9


_MODULUS = (1 << 127) - 1


def reference_task() -> int:
    """Fixed work in three parts of similar length: small-integer arithmetic
    with dict stores, a list walked as a stack, and two modular powers of
    127-bit integers; that is, the interpreter loops, word rewriting and
    bigint arithmetic the library spends its time in."""
    d = {}
    x = 1
    for i in range(200):
        x = (x * 1103515245 + 12345) % 2147483648
        d[i & 31] = (x, i)
    stack: list[str] = []
    for ch in [c for c in reversed("TUV" * 250)]:
        if stack and stack[-1] == ch:
            stack.pop()
        else:
            stack.append(ch)
    return x + len(stack) + pow(3, _MODULUS - 1, _MODULUS) + pow(5, _MODULUS - 2, _MODULUS)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


class Calibrator:
    def __init__(self):
        self._recent: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        """Re-time the reference task if PERIOD_S has passed since the last time."""
        now = time.perf_counter()
        if now >= self._next:
            self._recent = self._recent[1 - WINDOW:] + [reference_seconds()]
            self._next = now + PERIOD_S

    def scale(self) -> float:
        """Factor from measured to calibrated seconds."""
        return NOMINAL_S / sorted(self._recent)[len(self._recent) // 2]

    def after_long_op(self, before: float) -> float:
        """Factor for an op longer than PERIOD_S: the mean of the factor
        before it and the one measured right after it."""
        fresh = sorted(reference_seconds() for _ in range(3))[1]
        self._recent = self._recent[1 - WINDOW:] + [fresh]
        self._next = time.perf_counter() + PERIOD_S
        return (before + NOMINAL_S / fresh) / 2
