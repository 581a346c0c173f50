"""In-memory span tracing of mvfuse, installed from outside the package.

Each traced function is replaced, at the module attribute through which its
caller looks it up, by a wrapper that records one span: name, start, end,
parent span and operation id. Spans stay in memory until the benchmark writes
them out. Nothing in ``mvfuse`` itself is edited; ``Tracer.restore`` puts
every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple


def file_bytes(path, *args, **kwargs) -> int:
    """Size of the file a reader is about to read (its first argument)."""
    return os.path.getsize(path)


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None
    thread: int


# (module, attribute, span name[, counter]). A function is patched once per
# module that calls it, because callers bind it by name at import time:
#   pipeline imports sweep_view, kmeans, update_* and objective by name,
#   seminmf imports kmeans, fusion imports reconstruction_loss, deep and
#   seminmf import pinv, and pinv/procrustes_max reach svd through mvfuse.linalg.
# Calls a name does not cover count toward the self time of their caller.
# A counter maps the call's arguments to an amount added to counts[(op, name)].
PATCH_TABLE = (
    ("mvfuse.cli", "main", "cli"),
    ("mvfuse.cli", "load_dataset", "data.load"),
    ("mvfuse.data", "read_matrix", "data.read", file_bytes),
    ("mvfuse.data", "read_labels", "data.read", file_bytes),
    ("mvfuse.cli", "fit", "pipeline.fit"),
    ("mvfuse.pipeline", "fit", "pipeline.fit"),
    ("mvfuse.pipeline", "init_state", "pipeline.init_state"),
    ("mvfuse.pipeline", "_record", "pipeline.record"),
    ("mvfuse.pipeline", "pretrain_view", "deep.pretrain_view"),
    ("mvfuse.pipeline", "fix_partition_gauge", "deep.fix_partition_gauge"),
    ("mvfuse.pipeline", "sweep_view", "deep.sweep_view"),
    ("mvfuse.pipeline", "reconstruction_loss", "deep.reconstruction_loss"),
    ("mvfuse.pipeline", "update_consensus", "fusion.consensus"),
    ("mvfuse.pipeline", "update_rotation", "fusion.rotation"),
    ("mvfuse.pipeline", "update_alpha", "fusion.weights"),
    ("mvfuse.pipeline", "update_beta", "fusion.weights"),
    ("mvfuse.pipeline", "objective", "fusion.objective"),
    ("mvfuse.pipeline", "kmeans", "metrics.kmeans_final"),
    ("mvfuse.pipeline", "accuracy", "metrics.score"),
    ("mvfuse.pipeline", "nmi", "metrics.score"),
    ("mvfuse.pipeline", "purity", "metrics.score"),
    ("mvfuse.fusion", "reconstruction_loss", "deep.reconstruction_loss"),
    ("mvfuse.deep", "fit_layer", "seminmf.fit_layer"),
    ("mvfuse.deep", "update_basis", "deep.update_basis"),
    ("mvfuse.deep", "update_hidden", "deep.update_hidden"),
    ("mvfuse.deep", "update_partition", "deep.update_partition"),
    ("mvfuse.deep", "fix_partition_gauge", "deep.fix_partition_gauge"),
    ("mvfuse.deep", "multiplicative_step", "seminmf.multiplicative_step"),
    ("mvfuse.deep", "pinv", "linalg.pinv"),
    ("mvfuse.seminmf", "init_layer", "seminmf.init_layer"),
    ("mvfuse.seminmf", "multiplicative_step", "seminmf.multiplicative_step"),
    ("mvfuse.seminmf", "kmeans", "metrics.kmeans_seed"),
    ("mvfuse.seminmf", "pinv", "linalg.pinv"),
    ("mvfuse.linalg", "svd", "linalg.svd"),
)


class _ThreadState:
    """Span stack and closed spans of one thread; only that thread writes them."""

    __slots__ = ("stack", "spans", "ident", "next_id")

    def __init__(self, index: int):
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.ident = threading.get_ident()
        self.next_id = index << 40   # span ids stay unique across threads


class Tracer:
    """Records spans of wrapped functions; safe to use from several threads.

    Each thread keeps its own span stack and span list, so recording takes no
    lock. A span opened on a thread whose stack is empty (a pool worker) takes
    as parent the innermost open span of the thread that opened the current
    operation, so worker spans nest under the call that started the pool.
    """

    def __init__(self):
        self.counts: dict[tuple[int | None, str], float] = defaultdict(float)
        self._lock = threading.Lock()   # guards counts and the thread registry
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._op: int | None = None
        self._op_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        """Every closed span of every thread; read it once the threads are done."""
        with self._lock:
            return [s for state in self._threads for s in state.spans]

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def _op_parent(self) -> int | None:
        # Only the operation's thread pushes and pops this stack. One index
        # read of a list is atomic under the interpreter lock, so a worker sees
        # the top before or after a concurrent push or pop, never a torn value.
        try:
            return self._op_stack[-1]
        except IndexError:
            return None

    def wrap(self, fn, name: str, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            sid = state.next_id
            state.next_id += 1
            parent = stack[-1] if stack else self._op_parent()
            op = self._op
            if counter is not None:
                amount = counter(*args, **kwargs)
                with self._lock:
                    self.counts[(op, name)] += amount
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.spans.append(Span(sid, parent, name, start, end, op, state.ident))

        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """Tag every span opened inside with `op`."""
        self._op = op
        self._op_stack = self._state().stack
        try:
            yield
        finally:
            self._op = None
            self._op_stack = []

    def patch(self, module, attr: str, name: str, counter=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, counter))

    def install(self, modules: dict) -> "Tracer":
        """Patch every entry of PATCH_TABLE; `modules` maps module names to modules."""
        for mod_name, attr, *spec in PATCH_TABLE:
            self.patch(modules[mod_name], attr, *spec)
        return self

    def restore(self) -> None:
        """Put back every patched attribute, latest patch first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Self time of every span, splitting wall time among concurrent spans.

    A span is running its own code at instant t when it is open and none of
    its children is. On one thread this gives the usual self time: the span's
    duration minus the time its children cover. Where spans on several
    threads run their own code at once, each instant's wall time is split
    evenly among them, so the self times of one operation's spans add up to
    the wall time its root span covers.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    depth: dict[int, int] = {}

    def depth_of(sid):
        chain = []
        while sid is not None and sid not in depth:
            chain.append(sid)
            parent = by_id[sid].parent
            sid = parent if parent in by_id else None
        base = depth[sid] if sid is not None else -1
        for s in reversed(chain):
            base += 1
            depth[s] = base
        return depth[chain[0]] if chain else base

    events = []
    for s in spans:
        d = depth_of(s.id)
        # at one instant: closes before opens, children close before parents,
        # parents open before children
        events.append((s.start, 1, d, s))
        events.append((s.end, 0, -d, s))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    out = {s.id: 0.0 for s in spans}
    open_ids: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    running: set[int] = set()
    last = None
    for t, is_open, _, s in events:
        if running and t > last:
            share = (t - last) / len(running)
            for sid in running:
                out[sid] += share
        last = t
        parent = s.parent if s.parent in open_ids else None
        if is_open:
            open_ids.add(s.id)
            if parent is not None:
                open_children[parent] += 1
                running.discard(parent)
            if open_children[s.id] == 0:
                running.add(s.id)
        else:
            open_ids.discard(s.id)
            running.discard(s.id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    running.add(parent)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    by_span = self_times(spans)
    for s in spans:
        totals[s.name] += by_span[s.id]
    return dict(totals)
