"""The machine's speed, sampled with a fixed pure-Python kernel.

On a shared host the same code ran up to 1.5 times slower in one 30 s
window than in the next, and CPU time slowed down with wall time.  A run
therefore also times a fixed kernel in the interpreter that does the
measured work, right after it (child interpreters) or spread evenly over
the operations (the benchmark's own process), and scales each time by REF
over the kernel's mean time.  The kernel slows down with the program because it is the
program's kind of work: table lookups in a pure-Python polynomial product.
This module imports nothing but ``time`` so that child interpreters can
sample the kernel without adding to their measured set-up.
"""

import time

def _kernel_tables():
    # GF(16) = GF(2)[w]/(w^4 + w + 1): xor for addition, shift-and-reduce
    # for multiplication.
    mul = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for b in range(16):
            x, y, r = a, b, 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if x & 16:
                    x ^= 0b10011
            mul[a][b] = r
    add = [[a ^ b for b in range(16)] for a in range(16)]
    return add, mul


_ADD16, _MUL16 = _kernel_tables()
_KA = [(7 * i + 3) % 16 for i in range(48)]
_KB = [(5 * i + 11) % 16 for i in range(48)]


def kernel() -> float:
    """Seconds for four table-driven products of two fixed polynomials over
    GF(16): the inner loop of Poly.__mul__, in the benchmark's own code."""
    add, mul = _ADD16, _MUL16
    t = time.perf_counter()
    for _ in range(4):
        out = [0] * 95
        for i, x in enumerate(_KA):
            if x:
                mx = mul[x]
                for j, y in enumerate(_KB):
                    if y:
                        out[i + j] = add[out[i + j]][mx[y]]
    return time.perf_counter() - t


INTERVAL = 0.02
REF = 0.00075


def samples_for(seconds: float) -> list[float]:
    """Kernel times, one per INTERVAL of `seconds` and at least five."""
    return [kernel() for _ in range(max(5, 1 + int(seconds / INTERVAL)))]


def scale(samples) -> float:
    """REF over the mean kernel time: multiply a time by it to scale it."""
    return REF / (sum(samples) / len(samples))


class Speed:
    """The machine's speed over a run.

    The kernel runs once per INTERVAL of operation time, after the
    operation, so its mean time weighs the run's time evenly.  A run's times
    are multiplied by ``factor()``: REF over the mean kernel time.  REF is
    about the kernel's time on the unloaded 2-core machine this benchmark
    was tuned on, so scaled times read as seconds there.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.pending = 0.0

    def after(self, seconds: float) -> None:
        self.pending += seconds
        n = int(self.pending / INTERVAL)
        self.pending -= n * INTERVAL
        for _ in range(n):
            self.samples.append(kernel())

    def factor(self) -> float:
        while len(self.samples) < 5:
            self.samples.append(kernel())
        return scale(self.samples)
