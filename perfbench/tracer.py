"""Span tracer installed from outside the program.

:class:`Tracer` replaces the public entry points of the ``ris_sic`` modules
with timing wrappers for the duration of a ``with`` block and puts the
originals back on exit.  Each completed call records one span (layer name,
start, end) in compact in-memory arrays; parents and self times are derived
from the spans afterwards.  Nothing is wrapped outside the block, so untraced
runs execute the program exactly as shipped.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from collections import Counter

import numpy as np

from ris_sic import backend, cell, channel, experiment, model, sceneio, search


def _kernel_work(args, kwargs, result, counters):
    # transfer_vector(direct, h, g, cell, freqs, flat_states), always called
    # positionally: the number of configurations is every leading axis of the
    # state array (1 today, B once batched); bytes are the array operands plus
    # the result, computed from their sizes rather than measured.
    direct, h, g, _, freqs, states = args
    counters["channel.kernel_configs"] += math.prod(states.shape[:-1])
    counters["channel.kernel_bytes"] += (
        direct.nbytes + h.nbytes + g.nbytes + np.asarray(freqs).nbytes
        + states.nbytes + result.nbytes
    )


def _file_bytes(key):
    def hook(args, kwargs, result, counters):
        path = next(a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike)))
        counters[key] += os.path.getsize(path)
    return hook


_write_bytes = _file_bytes("sceneio.bytes_written")
_read_bytes = _file_bytes("sceneio.bytes_read")

# (owner, attribute, span name, hook). A function imported into a second
# module is wrapped at both places, because callers look it up there.
ENTRY_POINTS = (
    (cell.UnitCellModel, "reflection", "cell.reflection", None),
    (channel, "transfer_vector", "channel.kernel", _kernel_work),
    (experiment, "transfer_vector", "channel.kernel", _kernel_work),
    (channel, "build_scene", "channel.build_scene", None),
    (experiment, "build_scene", "channel.build_scene", None),
    (backend.SimulatedBackend, "evaluate", "backend.evaluate", None),
    (model.SiReading, "from_per_point", "model.reading", None),
    (search, "sample_config", "search.sample", None),
    (search.GreedyOptimizer, "step", "search.step", None),
    (search, "greedy_optimize", "search.greedy_run", None),
    (experiment, "greedy_optimize", "search.greedy_run", None),
    (search, "exhaustive_search", "search.exhaustive", None),
    (search, "random_search", "search.random", None),
    (experiment, "random_search", "search.random", None),
    (experiment, "run_campaign", "experiment.campaign", None),
    (experiment, "transfer_snapshot", "experiment.snapshot", None),
    (sceneio, "write_trace", "sceneio.write", _write_bytes),
    (sceneio, "write_campaign", "sceneio.write", _write_bytes),
    (sceneio, "write_snapshot", "sceneio.write", _write_bytes),
    (sceneio, "read_trace", "sceneio.read", _read_bytes),
    (sceneio, "read_campaign", "sceneio.read", _read_bytes),
    (sceneio, "read_snapshot", "sceneio.read", _read_bytes),
)

# Counted, not timed: a span per construction would cost more than the call.
COUNTED = ((model.RisConfig, "__post_init__", "model.config_count"),)


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def originals():
    """The attributes the tracer replaces, as they are now."""
    return [_raw(owner, attr) for owner, attr, *_ in (*ENTRY_POINTS, *COUNTED)]


class Tracer:
    """Records spans and counts while installed (``with Tracer() as t: ...``).

    A span is stored as (layer, start, end) when its call returns.  The
    program is single-threaded, so spans nest properly and the span that
    caused another is the innermost one enclosing it; :class:`Spans` recovers
    that from the intervals instead of keeping a call stack on the hot path.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name, hook):
        nid = self._id(name)
        name_id, start, end = self.name_id.append, self.start.append, self.end.append
        counters, clock = self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            name_id(nid)
            start(t0)
            end(t1)
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return wrapper

    def _count(self, fn, name):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in ENTRY_POINTS:
            raw = _raw(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._span(raw.__func__, name, hook))
            else:
                new = self._span(raw, name, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        for owner, attr, name in COUNTED:
            raw = _raw(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._count(raw, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def spans(self) -> "Spans":
        return Spans(self.names, self.name_id, self.start, self.end)


class Spans:
    """Span arrays of completed calls, with per-layer selections and self times."""

    def __init__(self, names, name_id, start, end):
        self._ids = {n: i for i, n in enumerate(names)}
        self.name_id = np.array(name_id, dtype=np.int32)
        self.start = np.array(start, dtype=np.float64)
        self.end = np.array(end, dtype=np.float64)

    def _select(self, names) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.name_id, ids)

    def durations(self, name: str) -> np.ndarray:
        sel = self._select((name,))
        return self.end[sel] - self.start[sel]

    def self_durations(self, name: str, children: tuple[str, ...]) -> np.ndarray:
        """Durations of ``name`` spans minus the time of the given layers inside them.

        ``name`` spans never nest in each other, so each child belongs to the
        ``name`` span with the latest start not after its own, if it ends
        inside that span.
        """
        sel = self._select((name,))
        order = np.argsort(self.start[sel], kind="stable")
        ps, pe = self.start[sel][order], self.end[sel][order]
        csel = self._select(children)
        cs, ce = self.start[csel], self.end[csel]
        owner = np.searchsorted(ps, cs, side="right") - 1
        inside = owner >= 0
        inside[inside] &= ce[inside] <= pe[owner[inside]]
        covered = np.bincount(owner[inside], weights=(ce - cs)[inside], minlength=ps.size)
        return (pe - ps) - covered
