"""Times a block of code at a fixed reference speed.

The speed of a shared machine swings by up to 2x from one second to the
next, and its two vCPUs swing independently, so a yardstick run in another
process, or before and after the block, does not track it.  A Speedometer
samples the speed inside the process that runs the block: a SIGALRM handler
runs a fixed kernel every PERIOD seconds.  The block's time, less the time
spent in the kernel, is then scaled by the kernel's reference time over its
mean time.

The garbage collector is off while the kernel runs, and the Fraction kernel
uses a private copy of `fractions.Fraction`, so nothing the program does to
its own interpreter (collector settings, a patched `Fraction`) changes the
kernel.  This module imports only builtin modules, so importing it first
does not shorten a measured import of the program.
"""

import gc
import signal
import time

PERIOD = 0.05
# About each kernel's fastest time on the machine the benchmark was defined
# on (2-vCPU Intel Xeon at 2.0 GHz, CPython 3.11.7).
INT_REF_SECONDS = 0.0021
FRACTION_REF_SECONDS = 0.00155


def int_kernel():
    """Small-int arithmetic: it needs no module, so it suits a block that
    imports modules."""
    x = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7fffffff
    return x


def fraction_kernel():
    """A kernel of exact rational arithmetic, the program's own kind of work,
    which tracks the program's speed more closely than int_kernel."""
    import importlib.util
    spec = importlib.util.find_spec("fractions")
    private = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(private)
    frac = private.Fraction

    def kernel():
        acc = frac(0)
        third = frac(1, 3)
        for i in range(1, 450):
            acc += frac(i % 7 + 1, i % 5 + 1) * third
        return acc

    return kernel


class Speedometer:
    """Use as `with Speedometer(kernel, ref_seconds) as meter:`; inside,
    `meter.clock()` reads the wall clock less the time spent in the kernel.
    After the block, `meter.scale(seconds)` gives a time at the reference
    speed."""

    def __init__(self, kernel, ref_seconds):
        self.kernel = kernel
        self.ref_seconds = ref_seconds
        self.samples = []
        self.spent = 0.0

    def _probe(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def clock(self):
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scale(self, seconds):
        return seconds * self.ref_seconds * len(self.samples) / sum(self.samples)
