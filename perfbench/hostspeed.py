"""Host-speed normalisation of the timed calls.

On a shared virtual machine the speed the host gives this process changes
by up to 40% within seconds (other tenants on the same cores), and whole
runs come out 20% faster or slower than the run before. The timed calls
are therefore scaled by the host speed measured while they ran.

The probe is `host_slice`, a fixed piece of pure-Python integer work whose
working set stays in the L1 cache, so that its time follows the speed of
the core and not the caches the library left behind. While a `HostSpeed`
sampler is active, a SIGALRM handler times one slice every `PERIOD_S`
seconds, inside the calls too (the handler runs between two bytecodes, so
a long call into C is sampled when it returns). The time the handler
takes is kept apart and taken off the call it interrupted.

A call of `wall` seconds during which the slice took `t` seconds (median
of the samples taken during the call and one right after it) is counted as
`wall * REF_SLICE_S / t` reference seconds. A reference second is the time
in which the host runs 1 / REF_SLICE_S slices; on the 2-vCPU Xeon VM the
benchmark was written on it is close to a wall second when the host is
quiet.

What it cannot see: a change that makes the process itself run Python
code more slowly for everyone, for example a background thread that holds
the GIL, slows the slice as well, and is hidden in part.
"""
from __future__ import annotations

# only these two: the set-up child imports this module before it starts
# timing imports
import signal
import time

PERIOD_S = 0.02        # sampling period while the calls run
REF_SLICE_S = 3.6e-4   # the slice time that defines a reference second
SLICE_LOOPS = 6000


def host_slice() -> None:
    s = 0
    for i in range(SLICE_LOOPS):
        s += i * i


class HostSpeed:
    """Samples the slice time every PERIOD_S while active (a context
    manager; one per process, main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds taken by the handler's samples
        self._previous = None

    def sample(self) -> None:
        """Time one slice now."""
        t0 = time.perf_counter()
        host_slice()
        dt = time.perf_counter() - t0
        self.samples.append(dt)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """The start of a timed window."""
        return len(self.samples), self.spent

    def close(self, mark: tuple[int, float], wall: float) -> tuple[float, float]:
        """End the window opened by `mark` after `wall` seconds: takes one
        more sample and returns (wall seconds without the handler's time,
        reference seconds)."""
        first, spent = mark
        own = wall - (self.spent - spent)
        self.sample()
        window = sorted(self.samples[first:])
        mid = len(window) // 2
        median = window[mid] if len(window) % 2 else (window[mid - 1] + window[mid]) / 2
        return own, own * REF_SLICE_S / median
