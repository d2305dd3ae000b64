"""A finished execution, prepared once for any number of sampler passes.

Both of the paper's instruments look up the same two facts at an
instant: which timeline segment was executing (so what power it drew and
how far the cycle counter had run), and which component ID was latched
on the I/O port at that cycle.  The DAQ asks at every 40 us sample, the
HPM sampler at every timer tick.  :class:`PreparedTarget` holds what the
lookup needs, computed once from the timeline and the port, and
:meth:`PreparedTarget.observe` is the one lookup both samplers call.

Nothing in a prepared target changes after construction except the
:meth:`~PreparedTarget.memo` cache of derived arrays (built from the
target alone, so a duplicate build is harmless).  Concurrent sampler
passes may therefore share one: the bootstrap builds it once per report
and replays every replicate against it.
"""

from functools import cached_property

import numpy as np

#: The HPM event counters the timeline records per segment.
COUNTER_EVENTS = ("instructions", "l2_accesses", "l2_misses")


class PreparedTarget:
    """A timeline and its component-ID port, ready for sampling.

    ``port`` is anything with ``history_arrays()`` and (optionally)
    ``idle_value``: the live port or a replayed one.
    """

    def __init__(self, timeline, port):
        arrays = timeline.to_arrays()
        self.arrays = arrays
        self.n_segments = len(arrays.ends_s)
        self.duration_s = float(arrays.ends_s[-1])
        span_s = arrays.ends_s - arrays.starts_s
        # A segment whose float span rounds to zero reads at its start.
        self._span_valid = span_s > 0
        self._zero_spans = not self._span_valid.all()
        self.span_s = np.where(self._span_valid, span_s, 1.0)
        self.start_cycles = arrays.start_cycles.astype(np.float64)
        self.span_cycles = (
            arrays.end_cycles - arrays.start_cycles
        ).astype(np.float64)
        port_cycles, port_values = port.history_arrays()
        self.port_cycles = port_cycles
        self.idle = np.int16(getattr(port, "idle_value", 0))
        # Latch position 0 is "before the first update": the port's
        # power-on/idle value, not whichever component latched first.
        # An empty history (no power-on latch recorded) reads idle
        # everywhere.
        self._latched = np.concatenate((
            np.array([self.idle], dtype=np.int16),
            np.asarray(port_values, dtype=np.int16),
        ))
        self._memo = {}

    def observe(self, instants, clip=False, work=None):
        """``(seg, frac, cycles, component)`` at each of *instants*.

        ``seg`` is the index of the segment executing at the instant,
        ``frac`` how far into it (``clip`` bounds it to [0, 1]),
        ``cycles`` the cycle counter interpolated linearly within it,
        and ``component`` the ID latched on the port at that cycle.
        ``frac``, ``cycles`` and ``component`` are written into
        buffers of *work* (a :class:`Workspace`; fresh arrays when
        ``None``).
        """
        work = Workspace() if work is None else work
        n = len(instants)
        seg = np.searchsorted(self.arrays.ends_s, instants, side="right")
        np.minimum(seg, self.n_segments - 1, out=seg)
        # Indices are in range, so mode="clip" never clips; it only
        # lets ``take`` write straight into ``out`` without buffering.
        frac = self.arrays.starts_s.take(
            seg, mode="clip", out=work.buffer("observe.frac", n))
        np.subtract(instants, frac, out=frac)
        scratch = self.span_s.take(
            seg, mode="clip", out=work.buffer("observe.scratch", n))
        frac /= scratch
        if self._zero_spans:
            frac[~self._span_valid[seg]] = 0.0
        if clip:
            np.clip(frac, 0.0, 1.0, out=frac)
        cycles = self.span_cycles.take(
            seg, mode="clip", out=work.buffer("observe.cycles", n))
        cycles *= frac
        cycles += self.start_cycles.take(seg, mode="clip", out=scratch)
        return seg, frac, cycles, self._component_at(cycles, work)

    def _component_at(self, cycles, work):
        """The component ID latched at each of *cycles*."""
        # Whole cycle counts, as ``cycles.astype(np.int64)``, in the
        # scratch buffer's memory.
        n = len(cycles)
        counts = work.buffer("observe.scratch", n).view(np.int64)
        np.copyto(counts, cycles, casting="unsafe")
        pos = np.searchsorted(self.port_cycles, counts, side="right")
        out = work.buffer("observe.component", n, np.int16)
        return self._latched.take(pos, mode="clip", out=out)

    def pre_latch(self, cycles):
        """How many of *cycles* fall before the port's first update."""
        if not len(self.port_cycles):
            return len(cycles)
        return int(np.count_nonzero(
            cycles.astype(np.int64) < self.port_cycles[0]
        ))

    @cached_property
    def counter_bases(self):
        """``event -> (cumulative count at each segment start, count
        within each segment)``, as floats, for the HPM counters."""
        bases = {}
        for name in COUNTER_EVENTS:
            per_seg = getattr(self.arrays, name).astype(np.float64)
            bases[name] = (np.cumsum(per_seg) - per_seg, per_seg)
        return bases

    def memo(self, key, build):
        """The array ``build()`` returns, built once per *key*.

        For sampler inputs that depend only on the target and a knob,
        such as the DAQ's sample clock at one period.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value


class Workspace:
    """Output buffers that one thread reuses across sampler passes.

    :meth:`buffer` hands out (a prefix of) the same array for the same
    name, so repeated passes over one target write into memory that is
    already mapped instead of faulting in fresh temporaries.  Whatever
    a pass returns in these buffers — a trace's channels and
    components — is overwritten by the next pass on the same
    workspace.
    """

    def __init__(self):
        self._buffers = {}

    def buffer(self, name, n, dtype=np.float64):
        buf = self._buffers.get(name)
        if buf is None or len(buf) < n or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(n, dtype=dtype)
        return buf[:n]


def prepare(source, port):
    """*source* itself when it is a :class:`PreparedTarget`, else a new
    one over the timeline *source* and *port*."""
    if isinstance(source, PreparedTarget):
        return source
    return PreparedTarget(source, port)


__all__ = ["COUNTER_EVENTS", "PreparedTarget", "Workspace", "prepare"]
