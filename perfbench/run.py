"""sandbox3d benchmark: one workload, one seed, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload full_eval --seed 1 --seconds 30 --trace 0

`--workload all` runs full_eval, pointcloud_cold and bundle_http in turn.

Set-up (building the inputs from the seed) runs at least three times and
reports its median. The timed phase then runs whole eval passes over the
same questions until the next pass would overrun --seconds (at least one),
so every pass covers the same mix of scenes whatever the program's speed.
Outputs are checked before anything is reported: a run whose check fails
prints `"correct": false` with no metrics and exits 1.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the run first measures untraced passes for half of --seconds, then
traced passes, and reports per-layer metrics per question plus the tracing
overhead; the spans go to .bench_build/perfbench/<run>/spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from measure import cpu_pressure, peak_rss_mb, run_record, tail_percentile
from spantrace import TARGETS, Tracer, install, layer_totals

# Set-up is repeated and its median reported; cheap set-ups repeat more so
# that the median of a fraction of a second is not one scheduler hiccup.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_TOTAL_S = 3.0
ACCURACY_FLOOR = {"full_eval": 0.85, "bundle_http": 0.85}


def _parse(argv):
    parser = argparse.ArgumentParser(description="sandbox3d benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, out: Path, budget_s: float, label: str, tracer=None) -> list:
    """Whole passes until the next one would overrun the budget."""
    passes = []
    start = time.perf_counter()
    patches = install(tracer) if tracer is not None else None
    try:
        while True:
            passes.append(workload.run_pass(out / f"{label}{len(passes)}"))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall_s > budget_s:
                return passes
    finally:
        if patches is not None:
            patches.restore()


def check(workload, passes, stub: dict | None) -> list[str]:
    """Reasons the outputs are wrong; empty when they are right."""
    rows = [r for p in passes for r in p.rows]
    problems = []
    failed = [r.qid for r in rows if r.error is not None]
    if failed:
        problems.append(f"{len(failed)} failed records, e.g. {failed[0]}")
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct behaviour digests")
    floor = ACCURACY_FLOOR.get(workload.name)
    accuracy = sum(r.correct for r in rows) / len(rows)
    if floor is not None and accuracy < floor:
        problems.append(f"accuracy {accuracy:.4f} below {floor}")
    if workload.name == "pointcloud_cold":
        if any(r.mode_used != "pointcloud_render" for r in rows):
            problems.append("a record left pointcloud_render mode")
        if any(n != 3 for p in passes for n in p.prompt_images):
            problems.append("a final prompt lacks the original view plus two renders")
    if stub is not None and stub["refused"]:
        problems.append(f"the VLM stub refused {stub['refused']} requests")
    return problems


def end_to_end(workload, passes, setup_times, stub, tail_p) -> dict:
    rows = [r for p in passes for r in p.rows]
    n = len(rows)
    wall_ms = [r.wall_ms for r in rows]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "questions_per_s": (n / sum(p.wall_s for p in passes), "1/s"),
        "question_ms_p50": (statistics.median(wall_ms), "ms"),
        "question_ms_tail": (float(np.percentile(wall_ms, tail_p)), "ms"),
        "accuracy": (sum(r.correct for r in rows) / n, "share"),
        "failed_share": (sum(r.error is not None for r in rows) / n, "share"),
        "degraded_share": (sum(r.mode_used != workload.mode for r in rows) / n, "share"),
        "vlm_calls_per_question": (sum(r.vlm_calls for r in rows) / n, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if stub is not None:
        metrics["request_kb_per_question"] = (stub["bytes_in"] / 1024.0 / n, "KB")
    return metrics


def per_layer(spans, questions: int, stub: dict | None) -> dict:
    totals = layer_totals(spans)
    out = {}
    for target in TARGETS:
        row = totals.get(target.name, {})
        out[f"{target.name}.calls"] = (row.get("calls", 0) / questions, "count")
        out[f"{target.name}.self_ms"] = (row.get("self_ms", 0.0) / questions, "ms")
        for key in target.attrs:
            out[f"{target.name}.{key}"] = (row.get(key, 0) / questions, "count")
    stack = totals.get("providers.SyntheticRig.stack", {}).get("calls", 0)
    depths = totals.get("synthetic_world.instance_depths", {}).get("calls", 0)
    out["providers.SyntheticRig.stack.hit_ratio"] = (1.0 - depths / stack if stack else 0.0, "ratio")
    kb = sum(totals.get(k, {}).get("bytes_out", 0) for k in
             ("image_io.png_bytes", "image_io.write_depth_raw")) / 1024.0
    out["image_io.kb_out"] = (kb / questions, "KB")
    stub = stub or {"service_ms": 0.0, "requests": 0}
    out["providers.HttpChatVlm.service_ms"] = (stub["service_ms"] / questions, "ms")
    out["providers.HttpChatVlm.attempts"] = (stub["requests"] / questions, "count")
    return out


def _stub_delta(after: dict | None, before: dict | None) -> dict | None:
    if after is None:
        return None
    return {k: after[k] - before[k] for k in after}


def _metric_names(root: Path, kind: str) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def _run_all(args, names) -> int:
    """Every workload for one seed, each in a fresh process (peak RSS is per
    process); exits non-zero if any of them does."""
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = subprocess.call([sys.executable, __file__, *argv]) or status
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "sandbox3d" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/sandbox3d here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out = root / ".bench_build" / "perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = run_record(root, args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    try:
        setup_times = []
        while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_TOTAL_S
        ):
            if setup_times:
                workload.teardown()
                shutil.rmtree(out / f"setup{len(setup_times) - 1}")
            start = time.perf_counter()
            workload.setup(out / f"setup{len(setup_times)}", args.seed)
            setup_times.append(time.perf_counter() - start)

        stub_start = workload.stub_stats()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = measure(workload, out, budget, "pass")
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        stub_mid = workload.stub_stats()
        traced, tracer = [], None
        if args.trace:
            tracer = Tracer()
            traced = measure(workload, out, args.seconds / 2, "traced", tracer)
        stub_end = workload.stub_stats()
    finally:
        workload.teardown()
        for inputs in out.glob("setup*"):
            shutil.rmtree(inputs)

    all_passes = passes + traced
    rows = [r for p in all_passes for r in p.rows]
    attempted = len(rows)
    failed = sum(r.error is not None for r in rows)
    stub = _stub_delta(stub_mid, stub_start)
    problems = check(workload, all_passes, _stub_delta(stub_end, stub_start))
    record["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    record["cpu_pressure_after"] = cpu_pressure()
    record["cpu_share_of_wall"] = round(cpu_share, 3)
    if stub is not None:
        record["stub_cpu_s"] = round(stub["cpu_s"], 3)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"workload {workload.name}: {len(passes)} untraced passes of {len(passes[0].rows)} "
          f"questions, behaviour digest {passes[0].digest}")
    if problems:
        for problem in problems:
            print(f"check failed: {problem}")
        _emit(False, attempted, failed, {})
        return 1

    tail_p = tail_percentile(len(passes[0].rows))
    e2e = end_to_end(workload, passes, setup_times, stub, tail_p)
    print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    n = sum(len(p.rows) for p in passes)
    beyond = sum(r.wall_ms > e2e["question_ms_tail"][0] for p in passes for r in p.rows)
    print(f"question_ms_tail is p{tail_p:g} of {n} samples, {beyond} beyond it")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<26} {value:12.4f} {unit}")

    summary = {"record": record, "digest": passes[0].digest, "end_to_end": e2e}
    if not args.trace:
        (out / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
        _emit(True, attempted, failed, {k: e2e[k] for k in _metric_names(root, "end_to_end")})
        return 0

    questions = sum(len(p.rows) for p in traced)
    traced_qps = questions / sum(p.wall_s for p in traced)
    overhead = (e2e["questions_per_s"][0] / traced_qps - 1.0) * 100.0
    layers = per_layer(tracer.spans, questions, _stub_delta(stub_end, stub_mid))
    layers["trace.overhead_pct"] = (overhead, "%")
    tracer.write_jsonl(out / "spans.jsonl")
    summary["per_layer"] = layers
    (out / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"traced: {len(traced)} passes, {questions} questions, {len(tracer.spans)} spans "
          f"-> {out / 'spans.jsonl'}")
    print(f"tracing overhead: untraced {e2e['questions_per_s'][0]:.3f} q/s, "
          f"traced {traced_qps:.3f} q/s ({overhead:+.1f}%)")
    print("per question:")
    for name, (value, unit) in layers.items():
        if value:
            print(f"  {name:<52} {value:12.4f} {unit}")
    _emit(True, attempted, failed, {k: layers[k] for k in _metric_names(root, "per_layer")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
