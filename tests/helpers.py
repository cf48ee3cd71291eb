"""Shared generators for the randomized tests, a time bound, a fresh interpreter and the
README's path."""

import math
import signal
import subprocess
import sys
import time
from pathlib import Path

from bqf import QuadraticForm, word_to_element

README = Path(__file__).resolve().parents[1] / "README.md"


def random_positive_definite(rng, max_coeff=10**6):
    a = rng.randint(1, max_coeff)
    c = rng.randint(1, max_coeff)
    b_max = min(max_coeff, math.isqrt(4 * a * c - 1))
    b = rng.randint(-b_max, b_max)
    return QuadraticForm(a, b, c)


def random_primitive_positive_definite(rng, max_coeff=10**6):
    f = random_positive_definite(rng, max_coeff)
    g = f.content()
    return QuadraticForm(f.a // g, f.b // g, f.c // g)


def random_element(rng, length=20):
    return word_to_element("".join(rng.choice("RTUV") for _ in range(length)))


def random_skewed_form(rng, max_coeff=10**6):
    # walk a small form away from reduced shape while staying under the cap;
    # exercises long reduction chains that uniform sampling rarely hits
    from bqf import act_on_form

    form = random_positive_definite(rng, max_coeff=40)
    while True:
        g = random_element(rng, rng.randint(1, 4))
        if g.det == -1:
            continue
        moved = act_on_form(g, form)
        if max(moved.a, abs(moved.b), moved.c) > max_coeff:
            return form
        form = moved


class Overtime(Exception):
    """Raised by within's alarm; not a ValueError or OSError, so no handler in bqf catches it."""


def within(seconds, fn):
    """fn(), failing when its value or exception comes `seconds` or more after the call;
    an alarm raises Overtime in a call that would never return. The alarm notes that it
    fired, so an Overtime that Python drops (raised inside a gc callback, say) still fails,
    and it repeats every 50 ms until the call ends, so a dropped one cannot free the call."""
    fired = []

    def timeout(signum, frame):
        fired.append(signum)
        raise Overtime(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.05)
    start = time.perf_counter()
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if fired:
            raise Overtime(f"no return within {seconds} s")
        assert time.perf_counter() - start < seconds, f"no outcome within {seconds} s"


def python(*args, seconds=10.0):
    """(returncode, stdout, stderr) of a fresh interpreter run on args, bounded by within."""
    cmd = [sys.executable, *map(str, args)]
    proc = within(seconds, lambda: subprocess.run(cmd, capture_output=True, text=True))
    return proc.returncode, proc.stdout, proc.stderr
