"""Shared helpers: cached graph construction, prime-power enumeration, a
one-second alarm, the traced peak of a refused call and the per-vertex
coloring file writer."""

import signal
import tracemalloc
from functools import lru_cache

import pytest

from uqgraph import TooLargeError, build_graph, make_field, prime_power


def odd_prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(lo, hi + 1):
        decomposition = prime_power(q)
        if decomposition and decomposition[0] != 2:
            out.append(q)
    return out


@lru_cache(maxsize=None)
def field_for(q: int):
    p, n = prime_power(q)
    return make_field(p, n)


@lru_cache(maxsize=None)
def graph_for(q: int, m: int = 2):
    return build_graph(field_for(q), m)


class Expired(Exception):
    """Raised by the alarm; not an error type the code under test handles."""


def within_a_second(call, *args):
    """call(*args), failing with Expired if it runs past one second."""
    def expire(signum, frame):
        raise Expired(f"{call.__name__}{args} did not return within a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def refused_peak(call, *args) -> int:
    """The tracemalloc peak of call(*args), which must raise TooLargeError."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def coloring_text_by_lines(coloring) -> str:
    """The coloring file text, one f-string per vertex: the writer that the
    fixed-width records replaced, kept as an oracle."""
    return f"# q={coloring.q} m={coloring.m} k={coloring.k}\n" + "".join(
        [f"{i} {c}\n" for i, c in enumerate(coloring.colors.tolist())]
    )
