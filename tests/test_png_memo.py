"""PngMemo: each distinct image is PNG-encoded once per eval or `run`, shared
between the artifact writer and the HTTP client, with byte-identical output;
a frozen scene image is hashed once however often it is sent or described."""

from __future__ import annotations

import base64
import dataclasses
import gc
import hashlib
import json
import sys
import threading
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from sandbox3d import image_io, pipeline, providers
from sandbox3d.cli import main
from sandbox3d.image_io import freeze, image_digest, png_bytes, read_png
from sandbox3d.pipeline import PipelineConfig, PngMemo, SceneCache, SceneContext, run_eval
from sandbox3d.providers import (
    DIRECTION_MARKER,
    HINTS_MARKER,
    ChatTurn,
    GeometryMockVlm,
    HttpChatVlm,
    ImagePart,
    SyntheticRig,
    TextPart,
    describe_turns,
)
from sandbox3d.qa import read_benchmark, write_benchmark
from sandbox3d.synthetic_world import generate_world
from sandbox3d.voting_clustering import ClusterParams

SEED, OBJECTS = 0, 2


class _Handler(BaseHTTPRequestHandler):
    """Answers the three pipeline queries by their marker phrases and keeps
    every request's image URLs."""

    hints = "[]"
    images: list[str] = []
    lock = threading.Lock()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        parts = [p for m in body["messages"] for p in m["content"]]
        text = "".join(p.get("text", "") for p in parts)
        with _Handler.lock:
            _Handler.images += [p["image_url"]["url"] for p in parts if "image_url" in p]
        if DIRECTION_MARKER in text:
            reply = "forward"
        elif HINTS_MARKER in text:
            reply = _Handler.hints
        else:
            reply = "<answer> A </answer>"
        payload = json.dumps({"choices": [{"message": {"content": reply}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _Handler.hints = GeometryMockVlm(SyntheticRig(generate_world(SEED, OBJECTS)))._hints_json()
    _Handler.images = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def bundle(tmp_path):
    out = tmp_path / "bundle"
    argv = ["synth", "--seed", str(SEED), "--objects", str(OBJECTS), "--out", str(out),
            "--questions", "5"]
    assert main(argv) == 0
    return out


def _count_encodes(monkeypatch) -> list[str]:
    """Wrap every binding of png_bytes; returns the pixel digest per call."""
    digests = []

    def counted(image):
        img = np.ascontiguousarray(image)
        digests.append(f"{img.shape}{img.dtype.str}{hashlib.sha256(img).hexdigest()}")
        return png_bytes(image)

    for module in (image_io, pipeline, providers):
        monkeypatch.setattr(module, "png_bytes", counted, raising=False)
    return digests


def _count_hashes(monkeypatch) -> list[int]:
    """Wrap the sha256 that image_io hashes pixels with; one entry per call."""
    calls = []
    real = image_io.hashlib.sha256

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(image_io.hashlib, "sha256", counted)
    return calls


def _transcript(image) -> str:
    return describe_turns([ChatTurn("user", (TextPart("look"), ImagePart(image)))])


def _expected_transcript(image) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(image).tobytes()).hexdigest()[:16]
    h, w = image.shape[:2]
    return f"=== user ===\nlook\n[image {w}x{h} sha256={digest}]\n"


def _assert_urls_encode_their_pixels(urls, tmp_path):
    """Each data URL is base64(png_bytes(image)) of the pixels it carries."""
    assert urls
    blob_path = tmp_path / "sent.png"
    for url in set(urls):
        prefix, b64 = url.split(",", 1)
        assert prefix == "data:image/png;base64"
        blob = base64.b64decode(b64)
        blob_path.write_bytes(blob)
        assert png_bytes(read_png(blob_path)) == blob


def _eval_setup(tmp_path, bundle, base_url, parallelism):
    records = [
        dataclasses.replace(r, scene={"kind": "bundle", "path": str(bundle)})
        for r in read_benchmark(bundle / "questions.jsonl")
    ]
    assert len(records) == 5
    path = tmp_path / "bench.jsonl"
    write_benchmark(records, path)
    cfg = PipelineConfig(
        vlm="http", base_url=base_url + "/v1", model="stub", parallelism=parallelism,
        eval_artifacts=True, cluster=ClusterParams(eps=0.25),
    )
    return cfg, path


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_encodes_each_distinct_image_once(
    monkeypatch, tmp_path, bundle, stub, parallelism
):
    cfg, path = _eval_setup(tmp_path, bundle, stub, parallelism)
    encodes = _count_encodes(monkeypatch)
    report = run_eval(cfg, path, out_dir=tmp_path / "eval")
    assert report.failed == () and all(r.mode_used == "full" for r in report.rows)
    # per question: 13 view and 2 render artifacts, 5 images over 3 requests
    assert len(_Handler.images) == 5 * 5
    assert encodes and len(encodes) == len(set(encodes))
    _assert_urls_encode_their_pixels(_Handler.images, tmp_path)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_hashes_each_scene_image_once(monkeypatch, tmp_path, bundle, stub, parallelism):
    cfg, path = _eval_setup(tmp_path, bundle, stub, parallelism)
    hashes = _count_hashes(monkeypatch)
    report = run_eval(cfg, path, out_dir=tmp_path / "eval")
    assert report.failed == () and all(r.mode_used == "full" for r in report.rows)
    assert len(_Handler.images) == 5 * 5
    # the scene's 13 views and 2 renders, each hashed once for all 5 questions
    assert 0 < len(hashes) <= 15
    _assert_urls_encode_their_pixels(_Handler.images, tmp_path)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_hashes_each_pointcloud_render_once(
    monkeypatch, tmp_path, bundle, stub, parallelism
):
    cfg, path = _eval_setup(tmp_path, bundle, stub, parallelism)
    cfg = dataclasses.replace(cfg, mode="pointcloud_render")
    hashes = _count_hashes(monkeypatch)
    report = run_eval(cfg, path, out_dir=tmp_path / "eval")
    assert report.failed == () and all(r.mode_used == "pointcloud_render" for r in report.rows)
    # per question: the input view, then it and the two renders
    assert len(_Handler.images) == 5 * 4
    # the scene's 13 views once for all 5 questions, and each question's two
    # renders once for the artifact, the prompt transcript and the request
    assert 0 < len(hashes) <= 13 + 5 * 2
    _assert_urls_encode_their_pixels(_Handler.images, tmp_path)


def test_run_eval_leaves_no_cycle_through_its_cache(monkeypatch, tmp_path, bundle, stub):
    refs = []
    contexts = []

    class Watched(SceneCache):
        def __init__(self, config):
            super().__init__(config)
            refs.extend((weakref.ref(self), weakref.ref(self.png_memo)))

    class WatchedContext(SceneContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(pipeline, "SceneCache", Watched)
    monkeypatch.setattr(pipeline, "SceneContext", WatchedContext)
    cfg, path = _eval_setup(tmp_path, bundle, stub, parallelism=2)
    gc.collect()
    gc.disable()
    try:
        assert run_eval(cfg, path, out_dir=tmp_path / "eval").failed == ()
        assert len(refs) == 2 and len(contexts) == 1  # one scene
        assert [ref() for ref in refs + contexts] == [None] * 3  # freed by refcount alone
    finally:
        gc.enable()


def test_cli_run_encodes_each_distinct_image_once(monkeypatch, tmp_path, bundle, stub, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[pipeline]\nvlm = http\nbase_url = {stub}/v1\nmodel = stub\n\n[cluster]\neps = 0.25\n",
        encoding="utf-8",
    )
    encodes = _count_encodes(monkeypatch)
    argv = ["run", "--bundle", str(bundle), "--question", str(bundle / "question0.json"),
            "--config", str(ini), "--out", str(tmp_path / "art")]
    assert main(argv) == 0
    assert "mode: full -> full" in capsys.readouterr().out
    assert len(_Handler.images) == 5
    assert encodes and len(encodes) == len(set(encodes))
    _assert_urls_encode_their_pixels(_Handler.images, tmp_path)


def test_http_client_sends_the_memo_bytes(monkeypatch, stub, tmp_path):
    a = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    b = np.ascontiguousarray(a[::-1])
    encodes = _count_encodes(monkeypatch)
    client = HttpChatVlm(base_url=stub, model="stub", encode_png=PngMemo())
    turn = ChatTurn("user", (TextPart("look"), ImagePart(a), ImagePart(b), ImagePart(a.copy())))
    client.complete([turn])
    client.complete([turn])
    expected = [base64.b64encode(png_bytes(img)).decode("ascii") for img in (a, b, a)]
    assert _Handler.images == 2 * [f"data:image/png;base64,{e}" for e in expected]
    assert len(encodes) == 2
    _assert_urls_encode_their_pixels(_Handler.images, tmp_path)


def test_png_memo_encodes_a_raced_image_once(monkeypatch):
    # each encode waits for a second concurrent encode (or 0.5 s), so two
    # threads that both missed the memo would both encode
    calls = []
    second = threading.Event()

    def slow_png_bytes(image):
        calls.append(image.dtype)
        if len(calls) > 1:
            second.set()
        second.wait(timeout=0.5)
        return png_bytes(image)

    monkeypatch.setattr(pipeline, "png_bytes", slow_png_bytes)
    memo = PngMemo()

    def race(image):
        got = [None, None]

        def one(i):
            try:
                got[i] = memo(image)
            except ValueError as err:
                got[i] = err

        threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        return got

    image = np.full((3, 5, 3), 7, dtype=np.uint8)
    first, second_got = race(image)
    assert len(calls) == 1
    assert first == second_got == png_bytes(image)
    assert memo(image.copy()) == first and len(calls) == 1

    # a failed encode raises in every waiter and is not cached
    calls.clear()
    second.clear()
    errors = race(image.astype(np.float32))
    assert len(calls) == 1
    assert all(isinstance(e, ValueError) for e in errors)
    with pytest.raises(ValueError, match="uint8"):
        memo(image.astype(np.float32))
    assert len(calls) == 2


def test_png_memo_encodes_each_image_once_under_contention(monkeypatch):
    calls = []

    def counted(image):
        calls.append(image.tobytes())
        return png_bytes(image)

    monkeypatch.setattr(pipeline, "png_bytes", counted)
    memo = PngMemo()
    images = [np.full((8, 8, 3), v, dtype=np.uint8) for v in (1, 2, 3)]
    results = {}

    def one(i):
        results[i] = memo(images[i % 3].copy())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=one, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert sorted(calls) == sorted(img.tobytes() for img in images)
    assert all(results[i] == png_bytes(images[i % 3]) for i in range(12))


def test_png_memo_keys_on_shape_and_dtype_not_only_the_bytes():
    memo = PngMemo()
    grey = np.arange(12, dtype=np.uint8)
    assert memo(grey.reshape(3, 4)) == png_bytes(grey.reshape(3, 4))
    assert memo(grey.reshape(4, 3)) == png_bytes(grey.reshape(4, 3))
    assert memo(grey.reshape(2, 2, 3)) == png_bytes(grey.reshape(2, 2, 3))
    with pytest.raises(ValueError, match="uint8"):
        memo(grey.view(np.int8).reshape(3, 4))


def test_a_frozen_image_is_hashed_once_while_it_lives(monkeypatch):
    hashes = _count_hashes(monkeypatch)
    before = len(image_io._frozen)
    image = freeze(np.arange(60, dtype=np.uint8).reshape(4, 5, 3).copy())
    ref = weakref.ref(image)
    memo = PngMemo()
    blobs = {memo(image) for _ in range(3)}
    transcripts = {_transcript(image) for _ in range(2)}
    assert len(hashes) == 1
    assert blobs == {png_bytes(image)}
    assert transcripts == {_expected_transcript(image)}
    assert len(image_io._frozen) == before + 1
    del image, blobs
    gc.collect()
    assert ref() is None
    assert len(image_io._frozen) == before


def test_threads_share_one_digest_of_a_frozen_image():
    image = freeze(np.full((64, 64, 3), 9, dtype=np.uint8))
    entries = len(image_io._frozen)
    barrier = threading.Barrier(8)
    got = []

    def one():
        barrier.wait(timeout=10)
        got.append(image_digest(image))

    threads = [threading.Thread(target=one) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert got == 8 * [hashlib.sha256(image.tobytes()).digest()]
    assert len(image_io._frozen) == entries
    assert sum(entry.ref() is image for entry in image_io._frozen.values()) == 1


def _writable(base):
    return base, base


def _read_only_view(base):
    view = base.view()
    view.flags.writeable = False
    return view, base


def _read_only_without_freeze(base):
    writer = base[...]  # a writable view made before the flag is cleared
    base.flags.writeable = False
    return base, writer


def _frozen_made_writable(base):
    freeze(base)
    base.flags.writeable = True
    return base, base


@pytest.mark.parametrize(
    "layout", [_writable, _read_only_view, _read_only_without_freeze, _frozen_made_writable]
)
def test_an_image_changed_between_calls_gets_a_fresh_encode_and_digest(monkeypatch, layout):
    encodes = _count_encodes(monkeypatch)
    image, writer = layout(np.zeros((4, 5, 3), dtype=np.uint8))
    memo = PngMemo()
    first_png, first_text = memo(image), _transcript(image)
    writer[1, 2] = (200, 100, 50)
    second_png, second_text = memo(image), _transcript(image)
    assert len(encodes) == 2
    assert second_png != first_png and second_png == png_bytes(image)
    assert second_text != first_text and second_text == _expected_transcript(image)


def test_freeze_refuses_a_view():
    base = np.zeros((4, 5, 3), dtype=np.uint8)
    for view in (base[1:], base.view(), base[:, :, ::-1]):
        with pytest.raises(ValueError, match="owns its data"):
            freeze(view)
        assert view.flags.writeable
