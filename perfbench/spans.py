"""Span tracing from outside the program: wrappers around layer entry points.

The program under test carries no tracing of its own, so the traced run
wraps the public functions each layer exposes (class methods, looked up
wherever callers find them) with a recorder.  A span is
``(id, name, start, end, parent, op)``; spans stay in memory and are written
once, when the run ends.

Parenting: a span opened while its thread already has an open span nests
under it.  The first span of any other thread (the HTTP handler, the serve
writer) nests under the most recently opened span still open anywhere —
with one closed-loop client at a time that is the request that caused it.

The wrappers are installed only around traced ops and removed around
untraced ones, so one run measures both and the difference is the tracing
overhead.  Forked pool workers keep whatever was installed when they were
forked and their spans never reach the parent; the engine's own
``StageTimings`` covers them instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Maps a wrapped call's ``(args, kwargs, result)`` to ``(counter name,
#: amount)`` pairs, recorded at the same boundary as the span.
Counter = Callable[[tuple, dict, object], Iterable[Tuple[str, int]]]


def _calls(name: str) -> Counter:
    return lambda args, kwargs, result: ((name, 1),)


def _rows_of(position: int, name: str) -> Counter:
    return lambda args, kwargs, result: ((name, len(args[position]) if len(args) > position else 0),)


def _query_counts(args, kwargs, result):
    vectors = args[1] if len(args) > 1 else kwargs.get("vectors")
    shape = getattr(vectors, "shape", ())
    yield "blocking.rows_queried", int(shape[0]) if len(shape) == 2 else 1
    yield "blocking.candidates", sum(len(row) for row in result)


#: ``(module, class or None, attribute, span name, counter or None)``.
ENTRY_POINTS: Sequence[Tuple[str, Optional[str], str, str, Optional[Counter]]] = (
    ("repro.text.lsa", "LSAModel", "fit", "text.lsa_fit", None),
    ("repro.text.tfidf", "TfidfVectorizer", "transform", "text.tfidf_transform",
     _calls("text.tfidf_transform_calls")),
    ("repro.text.ir", "IRGenerator", "fit", "text.ir_fit", None),
    ("repro.text.ir", "IRGenerator", "transform_values", "text.ir_transform", None),
    ("repro.text.ir", "IRGenerator", "transform_table", "text.ir_transform", None),
    ("repro.text.ir", "IRGenerator", "transform_task", "text.ir_transform", None),
    ("repro.core.representation", "EntityRepresentationModel", "fit",
     "core.representation.fit", None),
    ("repro.core.vae", "VariationalAutoEncoder", "fit", "core.vae.fit", None),
    ("repro.core.vae", "VariationalAutoEncoder", "encode_numpy", "core.vae.encode", None),
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward",
     _calls("autograd.backward_calls")),
    ("repro.nn.optim", "Adam", "step", "nn.optim.step", None),
    ("repro.nn.optim", "SGD", "step", "nn.optim.step", None),
    ("repro.core.matcher", "SiameseMatcher", "fit", "core.matcher.fit",
     _calls("core.matcher.fit_calls")),
    ("repro.core.matcher", "SiameseMatcher", "predict_proba", "core.matcher.predict",
     _rows_of(1, "core.matcher.pairs_predicted")),
    ("repro.core.active.loop", None, "bootstrap_training_data", "core.active.bootstrap", None),
    ("repro.core.active.sampler", "LatentSpaceSampler", "fit_positive_kde",
     "core.active.kde_fit", None),
    ("repro.core.active.sampler", "LatentSpaceSampler", "select", "core.active.select",
     _calls("core.active.rounds")),
    ("repro.core.pipeline", "VAER", "fit_representation", "core.pipeline.fit_representation", None),
    ("repro.core.pipeline", "VAER", "fit_matcher", "core.pipeline.fit_matcher", None),
    ("repro.core.pipeline", "VAER", "active_learning", "core.pipeline.active_learning", None),
    ("repro.core.pipeline", "VAER", "evaluate", "core.pipeline.evaluate", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "build", "blocking.build", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "install_tables", "blocking.build", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "query_batch", "blocking.query", _query_counts),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "patch", "blocking.patch", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "extend", "blocking.patch", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "remove", "blocking.patch", None),
    ("repro.engine.store", "EncodingStore", "table_encodings", "engine.store.table_encodings", None),
    ("repro.engine.persist", "PersistentEncodingCache", "save", "engine.persist.save", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load_range", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load_prefix", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load_reused", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "delta", "engine.persist.delta", None),
    ("repro.engine.persist", "PersistentEncodingCache", "extend", "engine.persist.delta", None),
    ("repro.engine.persist", "PersistentEncodingCache", "patch", "engine.persist.delta", None),
    ("repro.serve.session", "ServeSession", "resolve", "serve.session.resolve", None),
    ("repro.serve.session", "ServeSession", "query_records", "serve.session.query", None),
    ("repro.serve.session", "ServeSession", "mutate", "serve.session.mutate", None),
)


def layer_of(name: str) -> str:
    """The layer (module) a span belongs to: its name minus the last part."""
    return name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[List[object]] = []  # [id, name, start, end, parent, op]
        self.counters: Dict[int, Dict[str, int]] = {}
        self.op: int = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._open: Dict[int, float] = {}  # span id -> start, across threads
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[int]:
        """Open a span; ``None`` when an ancestor in this thread has the name."""
        stack = self._stack()
        if any(open_name == name for _, open_name in stack):
            return None
        start = time.perf_counter()
        with self._lock:
            if stack:
                parent = stack[-1][0]
            elif self._open:
                parent = max(self._open, key=self._open.get)
            else:
                parent = None
            span_id = next(self._ids)
            self._open[span_id] = start
            self.spans.append([span_id, name, start, None, parent, self.op])
        stack.append((span_id, name))
        return span_id

    def end(self, span_id: Optional[int]) -> None:
        if span_id is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self._open.pop(span_id, None)
            self.spans[span_id][3] = end

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            bucket = self.counters.setdefault(self.op, {})
            bucket[name] = bucket.get(name, 0) + int(amount)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)

    # ------------------------------------------------------------------
    def _wrap(self, function, name: str, counter: Optional[Counter]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span_id)
            if counter is not None and span_id is not None:
                for counter_name, amount in counter(args, kwargs, result):
                    tracer.count(counter_name, amount)
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS` (idempotent)."""
        if self._originals:
            return
        for module_name, class_name, attribute, name, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    # ------------------------------------------------------------------
    def as_records(self) -> List[Dict[str, object]]:
        return [
            {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for span_id, name, start, end, parent, op in self.spans
        ]


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, stop in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, stop
        else:
            current_end = max(current_end, stop)
    if current_end is not None:
        total += current_end - current_start
    return total


def summarise(spans: Sequence[Sequence[object]], roots: Dict[int, int]) -> Dict[str, object]:
    """Per-name seconds, per-layer self time and coverage of the op roots.

    ``roots`` maps op id to the id of the span that is the op's wall clock.
    A name's seconds count only spans with no ancestor of the same name (the
    tracer never opens those).  A span's self time is its duration minus the
    union of its children's intervals, clipped to the span.
    """
    by_id = {span[0]: span for span in spans if span[3] is not None and span[5] in roots}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span_id, _, start, end, parent, _ in by_id.values():
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    root_ids = set(roots.values())
    seconds: Dict[str, float] = {}
    layer_self: Dict[str, float] = {}
    covered = 0.0
    wall = 0.0
    for span_id, name, start, end, parent, op in by_id.values():
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span_id, ())
            if child_end > start and child_start < end
        ]
        own = (end - start) - _union(clipped)
        if span_id in root_ids:
            wall += end - start
            covered += _union(clipped)
            continue
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    return {"seconds": seconds, "layer_self": layer_self, "wall": wall, "covered": covered}
