"""Span bookkeeping, self-time arithmetic and trace coverage of perfbench."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))
sys.path.insert(0, str(HERE.parents[2] / "src"))

import spantrace  # noqa: E402
from measure import tail_percentile  # noqa: E402
from spantrace import Span, Target, Tracer, install, layer_totals, self_times_ns  # noqa: E402


def _span(span_id, parent, name, start, end, thread):
    return Span(span_id, parent, name, start, end, "q0", thread, {})


def test_self_time_subtracts_union_of_children_across_threads():
    # An eval span on thread 1 whose two workers (threads 2 and 3) overlap in
    # time; one worker has its own nested child, and one child on thread 3
    # runs past the end of its parent.
    spans = [
        _span(1, None, "eval", 0, 100, 1),
        _span(2, 1, "question", 10, 50, 2),
        _span(3, 1, "question", 30, 70, 3),
        _span(4, 2, "render", 20, 30, 2),
        _span(5, 3, "render", 60, 90, 3),
    ]
    selfs = self_times_ns(spans)
    assert selfs[1] == 100 - 60  # children cover [10, 70] once, not 40 + 40
    assert selfs[2] == 40 - 10
    assert selfs[3] == 40 - 10  # only [60, 70] of the child lies inside
    assert selfs[4] == 10
    assert selfs[5] == 30
    totals = layer_totals(spans)
    assert totals["question"]["calls"] == 2
    assert totals["question"]["self_ms"] == pytest.approx(60 / 1e6)
    assert totals["render"]["self_ms"] == pytest.approx(40 / 1e6)


def test_worker_thread_spans_are_adopted_by_the_open_eval_span():
    tracer = Tracer()
    both_running = threading.Barrier(2)

    def leaf():
        both_running.wait(timeout=10)  # keeps the two threads (and idents) distinct

    def worker(qid):
        tracer.call("question", lambda: tracer.call("leaf", leaf, (), {}), (), {}, qid=qid)

    def evaluate():
        threads = [threading.Thread(target=worker, args=(f"q{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.call("eval", evaluate, (), {}, adopt=True)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["eval"]
    assert root.parent is None
    questions = {s.span_id: s for s in by_name["question"]}
    assert {s.parent for s in questions.values()} == {root.span_id}
    assert len({s.thread for s in questions.values()}) == 2
    for leaf_span in by_name["leaf"]:
        assert leaf_span.parent in questions
        assert leaf_span.qid == questions[leaf_span.parent].qid
        assert leaf_span.thread == questions[leaf_span.parent].thread


def test_a_call_that_raises_keeps_its_span_and_unwinds():
    tracer = Tracer()

    def boom():
        raise ValueError("provider failed")

    with pytest.raises(ValueError):
        tracer.call("outer", tracer.call, ("inner", boom, (), {}), {}, count=lambda a, k, r: {"n": 1})
    tracer.call("after", lambda: None, (), {})
    inner, outer, after = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.attrs == {}
    assert after.parent is None


def test_tail_percentile_is_highest_ladder_step_with_ten_beyond():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(39) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(50) == 80.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    for n in range(1, 3000, 7):
        p = tail_percentile(n)
        assert p == 50.0 or n * (1000 - round(p * 10)) >= 10 * 1000


def test_install_patches_the_bindings_callers_look_up():
    from sandbox3d import bundle, pipeline, providers, voting_clustering

    originals = (pipeline.filter_by_consensus, providers.png_bytes, bundle.read_image)
    tracer = Tracer()
    patches = install(tracer)
    try:
        assert pipeline.filter_by_consensus is voting_clustering.filter_by_consensus
        for module, name in [
            (pipeline, "filter_by_consensus"),
            (voting_clustering, "filter_by_consensus"),
            (providers, "instance_depths"),
            (providers, "mask_from_stack"),
            (providers, "image_from_stack"),
            (providers, "png_bytes"),
            (pipeline, "write_image"),
            (pipeline, "load_bundle"),
            (bundle, "read_image"),
            (pipeline, "run_pipeline"),
        ]:
            assert getattr(module, name).__wrapped__ is not None, (module.__name__, name)
        from sandbox3d.image_io import png_bytes

        png_bytes(__import__("numpy").zeros((2, 2, 3), dtype="uint8"))
        assert [s.name for s in tracer.spans] == ["image_io.png_bytes"]
        assert tracer.spans[0].attrs["bytes_out"] > 0
    finally:
        patches.restore()
    assert (pipeline.filter_by_consensus, providers.png_bytes, bundle.read_image) == originals
    assert not hasattr(pipeline.filter_by_consensus, "__wrapped__")


def test_install_fails_loudly_for_a_missing_layer():
    with pytest.raises(LookupError, match="no longer exists"):
        install(Tracer(), (Target("sandbox3d.voting_clustering:no_such_stage"),))
    with pytest.raises(LookupError, match="no longer exists"):
        install(Tracer(), (Target("sandbox3d.providers:SyntheticRig.no_such_method"),))


def test_every_target_resolves():
    for target in spantrace.TARGETS:
        spantrace._resolve(target.ref)
