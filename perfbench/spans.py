"""In-memory spans for the traced benchmark runs, taken from outside sdestep.

A traced run replaces public callables of the package with timed wrappers
(:func:`installed`, :func:`traced_model`) and never edits its source.
Every span records its name, start, end and the span that was open when it
started; spans stay in memory until the run ends.  A span's self time is
its duration minus the part of that interval its child spans cover.  A
span opened on a worker thread with nothing open on that thread becomes a
child of the root span, so the study's own time is what no child covers
on any thread.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_INDEX_BITS = 32


@dataclass(frozen=True)
class Span:
    key: int
    name: str
    parent: int  # key of the enclosing span, -1 for none
    start: float
    end: float


@dataclass(frozen=True)
class NameStats:
    calls: int
    total_s: float
    self_s: float


class _ThreadBuffer:
    """Spans and counters of one thread, so the hot path takes no lock."""

    def __init__(self, index: int):
        self.base = index << _INDEX_BITS
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.open_outermost: set[object] = set()
        self.counters: dict[str, int] = defaultdict(int)


class Tracer:
    """Records spans and counters in memory; read them with :meth:`spans`."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._ids: dict[str, int] = {}
        self._root = -1

    def _id(self, name: str) -> int:
        with self._lock:
            return self._ids.setdefault(name, len(self._ids))

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
        return buf

    def _open(self, buf: _ThreadBuffer, name_id: int) -> int:
        key = buf.base | len(buf.starts)
        buf.names.append(name_id)
        buf.parents.append(buf.stack[-1] if buf.stack else self._root)
        buf.ends.append(math.nan)
        buf.stack.append(key)
        buf.starts.append(self._clock())
        return key

    def _close(self, buf: _ThreadBuffer, key: int) -> None:
        buf.ends[key & ((1 << _INDEX_BITS) - 1)] = self._clock()
        buf.stack.pop()

    @contextmanager
    def root(self, name: str):
        """The span every top-level span of any thread hangs under."""
        buf = self._buffer()
        key = self._open(buf, self._id(name))
        self._root = key
        try:
            yield
        finally:
            self._close(buf, key)
            self._root = -1

    def wrap(self, name, fn, *, outermost: bool = False):
        """``fn`` timed as a span.

        ``name`` is a string or a function of ``(args, kwargs)`` returning
        one.  With ``outermost`` a call made while the same wrapper is open
        on the thread (a recursion) is no span of its own: its time stays
        in the enclosing one.
        """
        if isinstance(name, str):
            fixed = self._id(name)
            pick = lambda args, kwargs: fixed  # noqa: E731
        else:
            ids: dict[str, int] = {}

            def pick(args, kwargs):
                label = name(args, kwargs)
                if label not in ids:
                    ids[label] = self._id(label)
                return ids[label]

        token = object()

        def traced(*args, **kwargs):
            buf = self._buffer()
            if outermost:
                if token in buf.open_outermost:
                    return fn(*args, **kwargs)
                buf.open_outermost.add(token)
            key = self._open(buf, pick(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(buf, key)
                if outermost:
                    buf.open_outermost.discard(token)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self._buffer().counters[name] += int(n)

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for buf in self._buffers:
            for name, n in buf.counters.items():
                total[name] += n
        return dict(total)

    def spans(self) -> list[Span]:
        names = {i: n for n, i in self._ids.items()}
        out = []
        for buf in self._buffers:
            for i, (nid, parent, start, end) in enumerate(
                zip(buf.names, buf.parents, buf.starts, buf.ends)
            ):
                out.append(Span(buf.base | i, names[nid], parent, start, end))
        return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, NameStats]:
    """Calls, total time and self time per span name."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    acc: dict[str, list] = {}
    for s in spans:
        if math.isnan(s.end):
            raise ValueError(f"span {s.name!r} was never closed")
        duration = s.end - s.start
        self_s = duration - covered(children.get(s.key, ()), s.start, s.end)
        entry = acc.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
    return {name: NameStats(*entry) for name, entry in acc.items()}


def per_layer(stats: dict[str, NameStats], counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced run; a span never seen counts 0."""
    zero = NameStats(0, 0.0, 0.0)

    def st(name):
        return stats.get(name, zero)

    steps = st("harness.ref_step").calls + st("harness.lvl_step").calls + st("schemes.step_lmm").calls
    solves = st("schemes.solve").calls
    return {
        "harness.self_s": st("harness.study").self_s,
        "harness.ref_step_s": st("harness.ref_step").total_s,
        "harness.lvl_step_s": st("harness.lvl_step").total_s,
        "brownian.draw_s": st("brownian.draw").total_s,
        "brownian.draw_calls": st("brownian.draw").calls,
        "brownian.normals": counters.get("brownian.normals", 0),
        "brownian.generate_s": st("brownian.generate").total_s,
        "models.drift_calls": st("models.drift").calls,
        "models.drift_s": st("models.drift").total_s,
        "models.jacobian_calls": st("models.jacobian").calls,
        "models.jacobian_s": st("models.jacobian").total_s,
        "models.diffusion_calls": st("models.diffusion").calls,
        "models.diffusion_s": st("models.diffusion").total_s,
        "models.diffusion_per_step": st("models.diffusion").calls / steps if steps else 0.0,
        "schemes.step_self_s": st("harness.ref_step").self_s
        + st("harness.lvl_step").self_s
        + st("schemes.step_lmm").self_s,
        "schemes.solve_calls": solves,
        "schemes.solve_s": st("schemes.solve").total_s,
        "schemes.solve_self_s": st("schemes.solve").self_s,
        "schemes.closed_form_calls": st("schemes.closed_form").calls,
        "schemes.closed_form_s": st("schemes.closed_form").total_s,
        "schemes.newton_iters_per_solve": st("models.jacobian").calls / solves if solves else 0.0,
        "schemes.nonfinite_solves": counters.get("schemes.nonfinite_solves", 0),
        "schemes.integrate_self_s": st("schemes.integrate").self_s,
        "cli.self_s": st("cli.main").self_s,
        "cli.output_bytes": counters.get("cli.output_bytes", 0),
    }


#: Per-layer metrics that are exact counts: equal inputs must repeat them.
EXACT_COUNTS = (
    "brownian.draw_calls",
    "brownian.normals",
    "models.drift_calls",
    "models.jacobian_calls",
    "models.diffusion_calls",
    "schemes.solve_calls",
    "schemes.closed_form_calls",
    "cli.output_bytes",
)


class _TimedGenerator:
    """Forwards to a numpy Generator; times and counts ``standard_normal``."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator
        self._draw = tracer.wrap("brownian.draw", generator.standard_normal)

    def standard_normal(self, *args, **kwargs):
        out = self._draw(*args, **kwargs)
        self._tracer.count("brownian.normals", np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


def traced_model(tracer: Tracer, model):
    """A copy of an ``SdeModel`` whose callables are spans."""
    changes = {
        "drift": tracer.wrap("models.drift", model.drift),
        "diffusion": tracer.wrap("models.diffusion", model.diffusion),
    }
    if model.drift_jacobian is not None:
        changes["drift_jacobian"] = tracer.wrap("models.jacobian", model.drift_jacobian)
    if model.closed_form_implicit is not None:
        changes["closed_form_implicit"] = tracer.wrap(
            "schemes.closed_form", model.closed_form_implicit
        )
    return dataclasses.replace(model, **changes)


@contextmanager
def installed(tracer: Tracer, fine_h: float | None = None):
    """Swap sdestep's public callables for spans where its modules look them up.

    Step spans are named ``harness.ref_step`` when their ``h`` argument is
    ``fine_h`` and ``harness.lvl_step`` otherwise.  Everything is restored
    on exit.
    """
    from sdestep import brownian, cli, harness, schemes

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for attr in ("step_bdf2", "step_bem", "step_explicit_euler"):
        fn = getattr(harness, attr)
        at = list(inspect.signature(fn).parameters).index("h")

        def step_name(args, kwargs, at=at):
            h = args[at] if len(args) > at else kwargs["h"]
            return "harness.ref_step" if h == fine_h else "harness.lvl_step"

        patch(harness, attr, tracer.wrap(step_name, fn))

    timed_solve = tracer.wrap("schemes.solve", schemes.solve_implicit, outermost=True)

    def solve_implicit(model, beta, h, R, *args, **kwargs):
        if not np.isfinite(R).all():
            tracer.count("schemes.nonfinite_solves")
        return timed_solve(model, beta, h, R, *args, **kwargs)

    patch(schemes, "solve_implicit", solve_implicit)
    patch(schemes, "step_lmm", tracer.wrap("schemes.step_lmm", schemes.step_lmm))
    patch(cli, "integrate", tracer.wrap("schemes.integrate", cli.integrate))
    patch(cli, "generate_increments", tracer.wrap("brownian.generate", cli.generate_increments))

    make_model = cli.make_model

    def traced_make_model(*args, **kwargs):
        params, model = make_model(*args, **kwargs)
        return params, traced_model(tracer, model)

    patch(cli, "make_model", traced_make_model)

    generator = brownian.SeedSpec.generator
    patch(brownian.SeedSpec, "generator", lambda self: _TimedGenerator(tracer, generator(self)))
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
