"""The host's speed, sampled while the program runs.

The speed of a shared host drifts: on 2 vCPUs a pure-Python loop ran at
0.55x to 1.1x its typical rate from one second to the next, and two loops
on the two CPUs drifted together (correlation 0.7).  Within one verdict of
a few seconds the speed changes, so a loop timed only just before and just
after the verdict misses most of the drift.

The Speedometer times a short fixed pure-Python loop every INTERVAL_S
seconds, from a SIGALRM handler in the main thread, so a run stays one
process with one thread.  A span's time is scaled by the median of the
samples taken during it, together with the one just before and the one
just after: its time on a host where the loop takes REFERENCE_S, about this
VM's typical speed.  The samples' own time is taken out of the span.  The
loop is benchmark code, so it cannot hide a change to the program.
"""
import signal
import time

LOOP_ITERATIONS = 3_000
REFERENCE_S = 0.00025  # the loop's time at the reference speed
INTERVAL_S = 0.02


def median(xs: list) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


class Speedometer:
    """Samples of the loop's time, taken every INTERVAL_S while started."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds spent in the handler
        self.running = False

    def start(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        s = 0
        for i in range(LOOP_ITERATIONS):
            s += i * i % 7
        t1 = time.monotonic()
        self.samples.append(t1 - t0)
        self.spent += time.monotonic() - t0

    def mark(self, start: float = None) -> tuple:
        """The start of a span: now, or ``start``, a time.monotonic() value
        from before the meter started, such as the process's spawn."""
        if start is not None:
            return 0, 0.0, start
        return len(self.samples), self.spent, time.monotonic()

    def since(self, mark: tuple) -> tuple:
        """(raw, scaled) seconds from ``mark`` until now, both without the
        handler's time.  Waits for the next sample, the one just after."""
        end = time.monotonic()
        n0, spent0, start = mark
        n1, spent = len(self.samples), self.spent - spent0
        if not self.running:
            raise RuntimeError("the speedometer is not started")
        while len(self.samples) == n1:
            time.sleep(INTERVAL_S / 4)
        raw = end - start - spent
        return raw, raw * REFERENCE_S / median(self.samples[max(n0 - 1, 0):n1 + 1])


METER = Speedometer()
