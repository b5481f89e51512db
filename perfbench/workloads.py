"""The four benchmark workloads, driven through the public VAER API.

Every workload is a closed loop: the single caller waits for each op before
starting the next.  A workload function gets a :class:`Run` (seed, seconds,
tracer, work directory) and records into it; :mod:`perfbench.run` turns the
records into metrics.  The model config is the CLI's ``_harness_config``;
the ``--seed`` only seeds the generated data and the request mix.
"""

from __future__ import annotations

import json
import random
import shutil
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cli import _harness_config
from repro.core import VAER
from repro.core.active.oracle import GroundTruthOracle
from repro.data.generators import load_domain
from repro.data.schema import Record
from repro.engine import merge_scored_batches
from repro.eval.timing import StageTimings, engine_counters, reset_engine_counters
from repro.serve import MatchClient, MatchServer, ServeSession, record_payload

from spans import Tracer

MODEL_SEED = 7
K = 10
#: Setup repeats this many times per run and ``setup_s`` is the median;
#: workloads whose setup is a full model fit (7-11 s) repeat it twice, to
#: keep every run of every workload inside the benchmark's time budget.
SETUP_REPS = 3
FIT_SETUP_REPS = 2
#: Client timeout; a failed request counts as taking at least this long.
REQUEST_TIMEOUT_S = 30.0
#: One block of the serve mix: 60% point reads, 25% probes, 15% mutations.
SERVE_BLOCK = ("point",) * 12 + ("probe",) * 5 + ("mutate",) * 3
ENGINE_COUNTER_NAMES = (
    "tables_encoded", "rows_reencoded", "pairs_rescored", "pairs_scored",
    "disk_hits", "chunk_loads", "bytes_stored", "fingerprints_computed",
)
#: StageTimings stage -> per-layer metric suffix (pooled resolves only).
POOL_STAGES = {
    "encode": "encode_s", "block": "block_s", "score": "score_s",
    "dispatch": "dispatch_s", "block-ipc": "ipc_s", "merge": "merge_s",
}


class CheckFailed(AssertionError):
    """An output correctness check failed; the run is not correct."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Run:
    """One benchmark run: op records, setup timings, counters and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path,
                 workers: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.workdir = workdir
        self.workers = workers
        #: Multiplier on every domain scale (1.0 = the benchmark's sizes).
        self.scale = scale
        self.config = _harness_config(MODEL_SEED).vaer_config(ir_method="lsa")
        self.setup_seconds: List[float] = []
        self.load_seconds: List[float] = []
        #: kind -> list of (loop index, latency seconds, traced, ok); a
        #: failed op's latency is the timeout, or inf without one.
        self.ops: Dict[str, List[Tuple[int, float, bool, bool]]] = {}
        self.errors: List[str] = []
        self.engine: Dict[str, int] = {name: 0 for name in ENGINE_COUNTER_NAMES}
        self.pool: Dict[str, float] = {}
        self.pool_ops = 0
        #: traced op id -> (kind, id of its root span)
        self.roots: Dict[int, Tuple[str, int]] = {}
        self._op_ids = 0
        self.quality: Dict[str, float] = {}
        self.extra: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def load(self, name: str, scale: float):
        started = time.perf_counter()
        domain = load_domain(name, scale=scale * self.scale, seed=self.seed)
        self.load_seconds.append(time.perf_counter() - started)
        return domain

    def setup(self, build: Callable[[], object], discard: Callable[[object], None] = lambda _: None,
              reps: int = SETUP_REPS):
        """Run ``build`` ``reps`` times; keep the last result.

        ``discard`` releases every earlier result; it may keep a reference
        (the serve workload keeps one as its replay oracle).
        """
        result = None
        for _ in range(reps):
            if result is not None:
                discard(result)
            started = time.perf_counter()
            result = build()
            self.setup_seconds.append(time.perf_counter() - started)
        return result

    def traced(self, index: int) -> bool:
        """Odd ops are traced, even ops not; op 0 (which forks any pool) never is."""
        return self.tracer is not None and index % 2 == 1

    def keep_going(self, index: int, started: float, min_ops: int = 3) -> bool:
        """Start another op until ``seconds`` have passed and ``min_ops`` ran."""
        return index < min_ops or time.perf_counter() - started < self.seconds

    @contextmanager
    def op(self, index: int, kind: str, timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Time one op of ``kind``; an exception marks it failed, not fatal.

        A failed op counts as taking ``timeout`` (or forever), so it misses
        every latency limit.  Engine counters are reset before and read after.
        """
        traced = self.traced(index)
        tracer = self.tracer
        op_id, self._op_ids = self._op_ids, self._op_ids + 1
        root = None
        if traced:
            tracer.install()
            tracer.op = op_id
            root = tracer.begin(f"op.{kind}")
        reset_engine_counters()
        outcome: Dict[str, object] = {"ok": False}
        started = time.perf_counter()
        try:
            yield outcome
            outcome["ok"] = True
        except CheckFailed:
            raise
        except Exception:  # an op that raises is a failed op, the loop goes on
            self.errors.append(f"{kind}#{index}: {traceback.format_exc(limit=3)}")
        finally:
            latency = time.perf_counter() - started
            if traced:
                tracer.end(root)
                self.roots[op_id] = (kind, root)
                tracer.op = -1
                tracer.uninstall()
            counters = engine_counters().as_dict()
            for name in ENGINE_COUNTER_NAMES:
                self.engine[name] += counters[name]
        if not outcome["ok"]:
            latency = max(latency, timeout) if timeout is not None else float("inf")
        self.ops.setdefault(kind, []).append((index, latency, traced, bool(outcome["ok"])))

    def span(self, name: str):
        """A benchmark-side span around a call into a layer (no-op untraced)."""
        if self.tracer is None or not self.tracer.installed:
            return nullcontext()
        return self.tracer.span(name)

    def add_pool(self, stage: StageTimings) -> None:
        for name in stage.stages():
            key = POOL_STAGES.get(name)
            if key is not None:
                self.pool[key] = self.pool.get(key, 0.0) + stage.seconds(name)
        self.pool_ops += 1


def _pair_stream(batches) -> Tuple[List[Tuple[str, str]], bytes, float]:
    merged = merge_scored_batches(batches)
    pairs = [(str(pair.left_id), str(pair.right_id)) for pair in merged.pairs]
    probabilities = np.asarray(merged.probabilities, dtype=np.float64)
    return pairs, probabilities.tobytes(), float(merged.threshold)


def _fitted_model(run: Run, name: str, scale: float):
    domain = run.load(name, scale)
    model = VAER(run.config)
    model.fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)
    return domain, model


# ----------------------------------------------------------------------
# fit_resolve: the wall clock a `repro resolve` user pays
# ----------------------------------------------------------------------
def fit_resolve(run: Run) -> None:
    domain = run.setup(lambda: run.load("citations1", 2.0))
    task, splits = domain.task, domain.splits
    results = []
    started = time.perf_counter()
    index = 0
    while run.keep_going(index, started):
        with run.op(index, "fit_resolve") as outcome:
            model = VAER(run.config)
            model.fit_representation(task)
            model.fit_matcher(splits.train, splits.validation)
            with run.span("engine.resolve_stream"):
                batches = list(model.resolve_stream(k=K))
        if outcome["ok"]:
            candidates = sum(len(batch) for batch in batches)
            matches = sum(len(batch.matches()) for batch in batches)
            results.append((candidates, matches, model.evaluate(splits.test).f1))
        index += 1
    check(bool(results), "no fit_resolve op succeeded")
    check(len(set(results)) == 1, f"fit_resolve outputs differ across ops: {sorted(set(results))}")
    candidates, matches, test_f1 = results[0]
    check(candidates == len(task.left) * K, f"{candidates} candidates, expected {len(task.left) * K}")
    check(0 < matches <= candidates, f"{matches} matches of {candidates} candidates")
    run.quality.update(test_f1=test_f1, labels_used=len(splits.train) + len(splits.validation))
    run.extra.update(candidates=candidates, matches=matches)


# ----------------------------------------------------------------------
# active_learning: the paper's labelling-cost claim
# ----------------------------------------------------------------------
AL_BUDGET = 100
AL_ROUNDS = 12
#: Identical sessions in one process vary by up to 30% (3.4-4.8 s), so a
#: run takes the median of more of them than the other workloads do.
AL_MIN_OPS = 6


def active_learning(run: Run) -> None:
    def build():
        domain = run.load("cosmetics", 1.0)
        model = VAER(run.config)
        model.fit_representation(domain.task)
        model.store.encode_task()  # every op then starts from the same warm store
        return domain, model

    domain, model = run.setup(build)
    # The loop trains only on labels it asks the oracle for, so every
    # labelled split is held out; the test split alone is 30 pairs here.
    splits = domain.splits
    held_out = splits.train.merge(splits.validation).merge(splits.test)
    results = []
    rounds = []
    started = time.perf_counter()
    index = 0
    while run.keep_going(index, started, AL_MIN_OPS):
        with run.op(index, "al_session") as outcome:
            oracle = GroundTruthOracle(domain.task)
            result = model.active_learning(oracle, iterations=AL_ROUNDS, label_budget=AL_BUDGET)
        if outcome["ok"]:
            results.append((oracle.labels_provided, result.labels_used, model.evaluate(held_out).f1))
            rounds.append(len(result.history) - 1)
        index += 1
    check(bool(results), "no active_learning op succeeded")
    check(len(set(results)) == 1, f"active_learning outputs differ across ops: {sorted(set(results))}")
    labels, reported, test_f1 = results[0]
    check(labels == reported, f"oracle gave {labels} labels, loop reports {reported}")
    check(0 < labels <= AL_BUDGET, f"{labels} labels used, budget {AL_BUDGET}")
    run.quality.update(test_f1=test_f1, labels_used=labels)
    run.extra.update(rounds=rounds[0])


# ----------------------------------------------------------------------
# serve_mixed: reads beside writes on a warm daemon over loopback HTTP
# ----------------------------------------------------------------------
def _check_point(body: Dict, left_id: str) -> None:
    check(isinstance(body.get("generation"), int), "point: no generation")
    pairs = body.get("pairs")
    check(isinstance(pairs, list) and 0 < len(pairs) <= K, f"point {left_id}: {pairs!r:.200}")
    for entry in pairs:
        check(len(entry) == 3 and entry[0] == left_id and 0.0 <= entry[2] <= 1.0,
              f"point {left_id}: bad pair {entry!r}")


def _check_probe(body: Dict, record_id: str) -> None:
    results = body.get("results")
    check(isinstance(results, list) and len(results) == 1, f"probe {record_id}: {results!r:.200}")
    check(results[0].get("record_id") == record_id, f"probe {record_id}: wrong record")
    candidates = results[0].get("candidates")
    check(isinstance(candidates, list) and 0 < len(candidates) <= K,
          f"probe {record_id}: {candidates!r:.200}")
    for entry in candidates:
        check(isinstance(entry.get("right_id"), str) and 0.0 <= entry["probability"] <= 1.0
              and entry["distance"] >= 0.0 and isinstance(entry["match"], bool),
              f"probe {record_id}: bad candidate {entry!r}")


class _Mutations:
    """Seeded edit/delete/ingest rotation that keeps the right table's size flat."""

    def __init__(self, rng: random.Random, table) -> None:
        self.rng = rng
        self.live = {record_id: table[record_id].values for record_id in table.record_ids()}
        self.order = list(self.live)
        self.deleted: Optional[Tuple[str, Tuple[str, ...]]] = None
        self.applied: List[Dict[str, List]] = []

    def next(self) -> Dict[str, List]:
        number = len(self.applied)
        kind = ("edit", "delete", "ingest")[number % 3]
        if kind == "ingest":
            _, values = self.deleted
            record = Record(f"bench-{number}", values)
            self.live[record.record_id] = values
            self.order.append(record.record_id)
            spec = {"ingest": [record]}
        else:
            record_id = self.order[self.rng.randrange(len(self.order))]
            values = self.live[record_id]
            if kind == "edit":
                record = Record(record_id, (f"{values[0]} rev{number}",) + tuple(values[1:]))
                self.live[record_id] = record.values
                spec = {"edit": [record]}
            else:
                self.order.remove(record_id)
                del self.live[record_id]
                self.deleted = (record_id, values)
                spec = {"delete": [record_id]}
        self.applied.append(spec)
        return spec


REPORT_FIELDS = {"ingest": "ingested", "edit": "edited", "delete": "deleted"}


def _wire(spec: Dict[str, List]) -> Dict[str, List]:
    return {
        "ingest": [record_payload(r.record_id, r.values) for r in spec.get("ingest", ())],
        "edit": [record_payload(r.record_id, r.values) for r in spec.get("edit", ())],
        "delete": list(spec.get("delete", ())),
    }


def _replay(model, task, applied: List[Dict[str, List]]) -> List[List[object]]:
    """The same mutation sequence through batch ``resolve_delta`` drains."""
    table = task.right
    batches = list(model.resolve_delta(k=K))
    for spec in applied:
        for record in spec.get("edit", ()):
            table.replace(record)
        for record_id in spec.get("delete", ()):
            table.remove(record_id)
        for record in spec.get("ingest", ()):
            table.add(record)
        batches = list(model.resolve_delta(k=K))
    merged = merge_scored_batches(batches)
    return [[pair.left_id, pair.right_id, float(p)] for pair, p in zip(merged.pairs, merged.probabilities)]


def serve_mixed(run: Run) -> None:
    kept: List[Tuple[object, object]] = []

    def build():
        domain, model = _fitted_model(run, "citations1", 2.0)
        server = MatchServer(ServeSession(model, k=K).start()).start()
        return domain, model, server

    def discard(previous):
        domain, model, server = previous
        server.shutdown()
        if not kept:
            kept.append((domain, model))  # replay oracle: same data, same fit

    domain, model, server = run.setup(build, discard, reps=FIT_SETUP_REPS)
    oracle_domain, oracle_model = kept[0]
    test_f1 = model.evaluate(domain.splits.test).f1  # before mutations change the tables
    rng = random.Random(run.seed)
    left_ids = list(domain.task.left.record_ids())
    mutations = _Mutations(rng, domain.task.right)
    client = MatchClient(server.url, timeout=REQUEST_TIMEOUT_S)
    generation = 0
    try:
        block: List[str] = []
        started = time.perf_counter()
        index = 0
        while run.keep_going(index, started):
            if not block:
                block = list(SERVE_BLOCK)
                rng.shuffle(block)
            kind = block.pop()
            if kind == "point":
                left_id = rng.choice(left_ids)
                with run.op(index, kind, REQUEST_TIMEOUT_S) as outcome:
                    body = client.resolve([left_id])
                if outcome["ok"]:
                    _check_point(body, left_id)
            elif kind == "probe":
                source = domain.task.left[rng.choice(left_ids)]
                record_id = f"probe-{index}"
                with run.op(index, kind, REQUEST_TIMEOUT_S) as outcome:
                    body = client.query([record_payload(record_id, source.values)], k=K)
                if outcome["ok"]:
                    _check_probe(body, record_id)
            else:
                spec = mutations.next()
                with run.op(index, kind, REQUEST_TIMEOUT_S) as outcome:
                    body = client.mutate(**_wire(spec))
                if outcome["ok"]:
                    generation += 1
                    check(body.get("generation") == generation,
                          f"mutation {generation}: report generation {body.get('generation')}")
                    for field, reported in REPORT_FIELDS.items():
                        check(body.get(reported) == len(spec.get(field, ())),
                              f"mutation {generation}: report {body!r:.200}")
                else:
                    # A mutation the server never applied must not be replayed.
                    mutations.applied.pop()
            index += 1
        final = client.resolve()
    finally:
        server.shutdown()
    check(final.get("generation") == generation,
          f"final generation {final.get('generation')}, {generation} mutations applied")
    oracle = _replay(oracle_model, oracle_domain.task, mutations.applied)
    check(json.dumps(final["pairs"]) == json.dumps(oracle),
          f"final snapshot ({len(final['pairs'])} pairs) differs from the resolve_delta replay "
          f"({len(oracle)} pairs) of {len(mutations.applied)} mutations")
    run.quality.update(test_f1=test_f1, labels_used=len(domain.splits.train) + len(domain.splits.validation))
    run.extra.update(mutations=len(mutations.applied), final_pairs=len(oracle))


# ----------------------------------------------------------------------
# resolve_batch: pooled cold and warm resolves over the persistent cache
# ----------------------------------------------------------------------
def resolve_batch(run: Run) -> None:
    domain, model = run.setup(lambda: _fitted_model(run, "citations1", 4.0), reps=FIT_SETUP_REPS)
    reference = _pair_stream(model.resolve_stream(k=K))  # serial, in process, no cache
    started = time.perf_counter()
    index = 0
    while run.keep_going(index, started):
        cache_dir = run.workdir / f"cache-{index}"
        streams = []
        for kind in ("cold", "warm"):  # warm re-attaches the directory cold filled
            stage = StageTimings()
            with run.op(index, kind) as outcome:
                model.use_cache_dir(cache_dir)
                with run.span("engine.resolve_stream"):
                    stream = _pair_stream(model.resolve_stream(
                        k=K, workers=run.workers, stage_timings=stage))
            if outcome["ok"]:
                streams.append(stream)
                run.add_pool(stage)
        model.use_cache_dir(None)
        shutil.rmtree(cache_dir, ignore_errors=True)
        for stream in streams:
            check(stream == reference, f"pooled resolve #{index} differs from the serial resolve")
        index += 1
    check(run.pool_ops > 0, "no resolve_batch op succeeded")
    run.quality.update(test_f1=model.evaluate(domain.splits.test).f1,
                       labels_used=len(domain.splits.train) + len(domain.splits.validation))
    run.extra.update(candidates=len(reference[0]))


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "fit_resolve": fit_resolve,
    "active_learning": active_learning,
    "serve_mixed": serve_mixed,
    "resolve_batch": resolve_batch,
}
