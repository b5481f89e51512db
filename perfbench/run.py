"""VAER benchmark runner: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fit_resolve --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
the layers' entry points around every other op and prints the per-layer
metrics, each layer's share of op wall clock and the tracing overhead.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it (``detail ...``) carries the environment stamp, per request
type latencies with p99 and sample counts, and the raw per-layer numbers.
Exit status is 0 only when every op succeeded and every output check held.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Environment knobs that change code paths (pool kind, workers, codec,
#: cache location, shared memory, benchmark scales): unset for every run so
#: a workload means the same thing on every host, and recorded in the stamp.
SCRUBBED_PREFIXES = ("REPRO_",)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SERVE_KINDS = ("point", "probe", "mutate")
#: Span layer -> reported layer group (longest prefix wins).
LAYER_GROUPS = (
    "text", "core.representation", "core.vae", "autograd", "nn", "core.matcher",
    "core.active", "core.pipeline", "blocking", "engine.persist", "engine", "serve",
)
SPAN_SECONDS = {
    "text.lsa_fit_s": "text.lsa_fit",
    "text.tfidf_transform_s": "text.tfidf_transform",
    "text.ir_transform_s": "text.ir_transform",
    "core.vae.fit_s": "core.vae.fit",
    "core.vae.encode_s": "core.vae.encode",
    "autograd.backward_s": "autograd.backward",
    "nn.optim.step_s": "nn.optim.step",
    "core.matcher.fit_s": "core.matcher.fit",
    "core.matcher.predict_s": "core.matcher.predict",
    "core.active.bootstrap_s": "core.active.bootstrap",
    "core.active.kde_fit_s": "core.active.kde_fit",
    "core.active.select_s": "core.active.select",
    "blocking.build_s": "blocking.build",
    "blocking.query_s": "blocking.query",
    "blocking.patch_s": "blocking.patch",
    "engine.persist.save_s": "engine.persist.save",
    "engine.persist.load_s": "engine.persist.load",
    "engine.persist.delta_s": "engine.persist.delta",
    "serve.session.resolve_s": "serve.session.resolve",
    "serve.session.query_s": "serve.session.query",
    "serve.session.mutate_s": "serve.session.mutate",
}
SPAN_COUNTS = (
    "text.tfidf_transform_calls", "autograd.backward_calls", "core.matcher.fit_calls",
    "core.matcher.pairs_predicted", "core.active.rounds", "blocking.rows_queried",
    "blocking.candidates",
)
POOL_METRICS = ("encode_s", "block_s", "score_s", "dispatch_s", "ipc_s", "merge_s")


def scrub_environment() -> Dict[str, str]:
    removed = {}
    for name in sorted(os.environ):
        if name.startswith(SCRUBBED_PREFIXES):
            removed[name] = os.environ.pop(name)
    return removed


def git_sha() -> Optional[str]:
    """HEAD of the checkout read from ``.git`` (no subprocess); None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp(seed: int, scrubbed: Dict[str, str], workers: int) -> Dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the stamp is informational; never fail a run on it
        blas_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": workers,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "scrubbed": scrubbed,
        "seed": seed,
    }


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile; inf (a failed op) propagates."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(position), math.ceil(position)
    if math.isinf(ordered[high]):
        return float("inf")
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latencies(run, kind: str, traced: bool = False) -> List[float]:
    return [latency for _, latency, was_traced, _ in run.ops.get(kind, ()) if was_traced == traced]


def op_samples(run) -> List[float]:
    """Per untraced loop index, the summed latency of its ops (cold + warm on resolve_batch)."""
    per_index: Dict[int, float] = {}
    for records in run.ops.values():
        for index, latency, traced, _ in records:
            if not traced:
                per_index[index] = per_index.get(index, 0.0) + latency
    return list(per_index.values())


def kind_metrics(run) -> Dict[str, float]:
    """The per-kind end-to-end numbers, from untraced ops, 0 where absent."""
    def median_s(kind):
        values = latencies(run, kind)
        return percentile(values, 50) if values else 0.0

    metrics = {
        "fit_resolve_s": median_s("fit_resolve"),
        "al_session_s": median_s("al_session"),
        "resolve_cold_s": median_s("cold"),
        "resolve_warm_s": median_s("warm"),
    }
    for kind in SERVE_KINDS:
        values = latencies(run, kind)
        for q in (50, 90):
            metrics[f"{kind}_p{q}_ms"] = percentile(values, q) * 1e3 if values else 0.0
    served = [latency for kind in SERVE_KINDS for latency in latencies(run, kind)]
    metrics["serve_rps"] = len(served) / sum(served) if served else 0.0
    return metrics


def end_to_end(run, import_s: float) -> Dict[str, float]:
    samples = op_samples(run)
    return {
        "setup_s": import_s + statistics.median(run.setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": percentile(samples, 50) * 1e3,
        "ops_per_s": len(samples) / sum(samples),
        "test_f1": float(run.quality["test_f1"]),
        "labels_used": float(run.quality["labels_used"]),
    }


def per_layer(run, import_s: float) -> Dict[str, float]:
    from spans import summarise

    tracer = run.tracer
    roots = {op_id: root for op_id, (_, root) in run.roots.items()}
    summary = summarise(tracer.spans, roots)
    traced_ops = max(1, len(roots))
    generic_ops = max(1, len({record[0] for records in run.ops.values() for record in records}))
    metrics: Dict[str, float] = {
        "setup.import_s": import_s,
        "data.load_domain_s": statistics.median(run.load_seconds),
    }
    for metric, name in SPAN_SECONDS.items():
        metrics[metric] = summary["seconds"].get(name, 0.0) / traced_ops
    for name in SPAN_COUNTS:
        total = sum(counts.get(name, 0) for op, counts in tracer.counters.items() if op in roots)
        metrics[name] = total / traced_ops
    for name, total in run.engine.items():
        metrics[f"engine.{name}"] = total / generic_ops
    for name in POOL_METRICS:
        metrics[f"engine.pool.{name}"] = run.pool.get(name, 0.0) / generic_ops

    # HTTP and client overhead: request wall clock minus the session call.
    by_parent: Dict[int, float] = {}
    for span_id, name, start, end, parent, op in tracer.spans:
        if name.startswith("serve.session.") and end is not None:
            by_parent[parent] = by_parent.get(parent, 0.0) + (end - start)
    spans = {span[0]: span for span in tracer.spans}
    overhead = [
        (spans[root][3] - spans[root][2]) - by_parent[root]
        for kind, root in run.roots.values() if kind in SERVE_KINDS and root in by_parent
    ]
    metrics["serve.http_overhead_ms"] = percentile(overhead, 50) * 1e3 if overhead else 0.0

    wall = summary["wall"] or 1.0
    shares = {group: 0.0 for group in LAYER_GROUPS}
    for layer, seconds in summary["layer_self"].items():
        group = max((g for g in LAYER_GROUPS if layer == g or layer.startswith(g + ".")),
                    key=len, default=None)
        if group is not None:
            shares[group] += seconds
    for group, seconds in shares.items():
        metrics[f"share.{group}"] = seconds / wall
    run.extra["layer_self_s_per_op"] = {group: seconds / traced_ops for group, seconds in shares.items()}
    metrics["trace.coverage"] = summary["covered"] / wall
    metrics["trace.spans_per_op"] = sum(1 for span in tracer.spans if span[5] in roots) / traced_ops

    # Overhead: traced minus untraced mean latency, kind by kind, weighted by
    # how often each kind ran.
    extra = base = 0.0
    for kind in run.ops:
        traced, untraced = latencies(run, kind, True), latencies(run, kind)
        if traced and untraced:
            weight = len(traced) + len(untraced)
            extra += weight * (statistics.fmean(traced) - statistics.fmean(untraced))
            base += weight * statistics.fmean(untraced)
    metrics["trace.overhead_pct"] = 100.0 * extra / base if base else 0.0
    metrics.update(kind_metrics(run))
    return metrics


def detail(run, stamp: Dict[str, object]) -> Dict[str, object]:
    kinds = {}
    for kind, records in run.ops.items():
        values = [latency for _, latency, traced, _ in records if not traced]
        kinds[kind] = {
            "attempted": len(records),
            "failed": sum(1 for record in records if not record[3]),
            "untraced_samples": len(values),
            "p50_ms": finite(percentile(values, 50) * 1e3) if values else None,
            "p90_ms": finite(percentile(values, 90) * 1e3) if values else None,
            "p99_ms": finite(percentile(values, 99) * 1e3) if values else None,
        }
    return {
        "env": stamp,
        "kinds": kinds,
        "by_kind": kind_metrics(run),
        "setup_seconds": run.setup_seconds,
        "load_seconds": run.load_seconds,
        "quality": run.quality,
        "outputs": run.extra,
        "errors": run.errors[:5],
    }


def finite(value: float) -> Optional[float]:
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every domain size (self-checks use small ones)")
    args = parser.parse_args(argv)

    scrubbed = scrub_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # the program's import cost lands here

    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    from repro.engine import release_engine_resources

    workers = len(os.sched_getaffinity(0))
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir, workers, scale=args.scale)
    correct = True
    try:
        workloads.WORKLOADS[args.workload](run)
    except workloads.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        release_engine_resources()  # stops and joins the worker pool
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        # Shared memory starts multiprocessing's resource tracker, a process
        # of this run too; without this it outlives the run by a moment.
        stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop_tracker is not None:
            stop_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = environment_stamp(args.seed, scrubbed, workers)
    attempted = sum(len(records) for records in run.ops.values())
    failed = sum(1 for records in run.ops.values() for record in records if not record[3])
    for error in run.errors[:5]:
        print(error, file=sys.stderr)
    correct = correct and failed == 0 and attempted > 0
    if args.trace:
        metrics = per_layer(run, import_s)
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": stamp, "roots": run.roots, "spans": run.tracer.as_records()}))
    else:
        metrics = end_to_end(run, import_s)
    units = declared_units()
    names = declared_names(bool(args.trace))
    missing = names - set(metrics)
    if missing:
        raise KeyError(f"declared metrics not measured: {sorted(missing)}")
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}")
    print("detail " + json.dumps(detail(run, stamp)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": finite(value), "unit": units[name]}
            for name, value in metrics.items() if name in names
        },
    }))
    return 0 if correct else 1


def _declared() -> Dict[str, List[Dict[str, object]]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units() -> Dict[str, str]:
    """Metric units as declared in BENCHMARK.json (the single source)."""
    declared = _declared()
    return {metric["name"]: metric["unit"] for metric in declared["end_to_end"] + declared["per_layer"]}


def declared_names(per_layer_metrics: bool) -> set:
    return {metric["name"] for metric in _declared()["per_layer" if per_layer_metrics else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
