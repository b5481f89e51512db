"""Fast self-check of the benchmark itself (tiny inputs, about half a minute).

    python3 perfbench/selfcheck.py

Checks the span arithmetic on hand-built spans, then runs every workload
traced (the untraced path plus wrappers) and one untraced, at a tiny domain
scale, and requires a correct result with exactly the declared metrics.  It is
not named ``test_*`` so the repository's pytest run does not collect it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer, summarise  # noqa: E402


def check_span_arithmetic() -> None:
    # op root 0..10 with children 1..4 and 3..6 (overlapping, another thread)
    # and a grandchild 2..3: coverage is the union 1..6, self times exclude
    # the covered parts.
    spans = [
        [0, "op.x", 0.0, 10.0, None, 7],
        [1, "text.a", 1.0, 4.0, 0, 7],
        [2, "text.b", 2.0, 3.0, 1, 7],
        [3, "engine.c", 3.0, 6.0, 0, 7],
        [4, "engine.c", 20.0, 30.0, None, -1],  # outside any traced op
    ]
    summary = summarise(spans, {7: 0})
    assert summary["wall"] == 10.0, summary
    assert summary["covered"] == 5.0, summary
    assert summary["seconds"] == {"text.a": 3.0, "text.b": 1.0, "engine.c": 3.0}, summary
    assert summary["layer_self"] == {"text": 3.0, "engine": 3.0}, summary

    tracer = Tracer()
    outer = tracer.begin("blocking.query")
    assert tracer.begin("blocking.query") is None  # same name nested: not a new span
    inner = tracer.begin("core.matcher.predict")
    tracer.end(inner)
    tracer.end(outer)
    assert [span[4] for span in tracer.spans] == [None, outer]

    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile([1.0, float("inf")], 90) == float("inf")


def check_workloads() -> None:
    traced = [(name, "1") for name in ("fit_resolve", "active_learning", "serve_mixed", "resolve_batch")]
    for workload, trace in traced + [("active_learning", "0")]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", trace, "--scale", "0.15"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        assert code == 0 and result["correct"], (workload, trace, out.getvalue()[-2000:])
        declared = run.declared_names(trace == "1")
        assert set(result["metrics"]) == declared, (workload, set(result["metrics"]) ^ declared)
        print(f"ok {workload} trace={trace} attempted={result['attempted']}")


if __name__ == "__main__":
    check_span_arithmetic()
    print("ok span arithmetic")
    check_workloads()
