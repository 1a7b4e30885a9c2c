"""The loopback VLM stub: its PNG decoder and its request matching."""

from __future__ import annotations

import json
import struct
import sys
import threading
import urllib.error
import urllib.request
import zlib
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))
sys.path.insert(0, str(HERE.parents[2] / "src"))

from sandbox3d.image_io import png_bytes  # noqa: E402
from sandbox3d.providers import ChatTurn, HttpChatVlm, ImagePart, TextPart  # noqa: E402
from sandbox3d.synthetic_world import (  # noqa: E402
    WorldBounds,
    bounds_to_dict,
    generate_world,
)
from vlmstub import Answerer, StubServer, Unmatched, decode_png  # noqa: E402

SIZE = 64


def test_decode_png_round_trips_png_bytes():
    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
    grey = rng.integers(0, 256, size=(19, 8), dtype=np.uint8)
    assert np.array_equal(decode_png(png_bytes(rgb)), rgb)
    assert np.array_equal(decode_png(png_bytes(grey)), grey)


def test_decode_png_refuses_other_filters():
    blob = bytearray(png_bytes(np.zeros((4, 4, 3), dtype=np.uint8)))
    # Rewrite the IDAT payload with filter type 2 (Up) on every scanline.
    start = blob.index(b"IDAT") - 4
    (length,) = struct.unpack(">I", blob[start : start + 4])
    raw = bytes([2] + [0] * 12) * 4
    data = zlib.compress(raw)
    chunk = struct.pack(">I", len(data)) + b"IDAT" + data + struct.pack(
        ">I", zlib.crc32(b"IDAT" + data) & 0xFFFFFFFF
    )
    patched = bytes(blob[:start]) + chunk + bytes(blob[start + 12 + length :])
    with pytest.raises(ValueError, match="filter"):
        decode_png(patched)


@pytest.fixture(scope="module")
def scene():
    bounds = WorldBounds(size_range=(0.3, 0.8))
    world = generate_world(3, 2, bounds)
    table = [
        {
            "seed": 3,
            "objects": 2,
            "bounds": bounds_to_dict(bounds),
            "width": SIZE,
            "height": SIZE,
            "question": "Which object is closer to the lamp?",
            "payload": {"template": "goal_aim", "a": {"label": world.cuboids[0].label,
                                                      "instance_id": 0}},
        }
    ]
    answerer = Answerer(table)
    rig = next(iter(answerer._by_image.values()))[0]
    return answerer, rig


@pytest.fixture()
def server(scene):
    stub = StubServer(scene[0])
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    try:
        yield stub
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _client(server) -> HttpChatVlm:
    return HttpChatVlm(
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
        model="stub",
        api_key="",
        max_retries=0,
    )


def _direction_turn(image, question):
    return ChatTurn(
        "user", (TextPart(f"Question: {question}\nReply with exactly one of: left"), ImagePart(image))
    )


def test_stub_answers_a_matched_request_over_http(scene, server):
    answerer, rig = scene
    reply = _client(server).complete(
        [_direction_turn(rig.input_frame().image, "Which object is closer to the lamp?")]
    )
    assert reply == "forward"
    assert server.stats["requests"] == 1 and server.stats["refused"] == 0
    assert server.stats["bytes_in"] > 0


def test_stub_refuses_unmatched_requests_with_http_500(scene, server):
    answerer, rig = scene
    image = rig.input_frame().image
    other = image.copy()
    other[0, 0] ^= 1
    cases = [
        _direction_turn(other, "Which object is closer to the lamp?"),  # unknown view
        _direction_turn(image, "Which way is the exit?"),  # unknown question
    ]
    for turn in cases:
        body = json.dumps({"messages": [HttpChatVlm._message(turn)]}).encode()
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        req = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 500
        err.value.close()
    assert server.stats["refused"] == 2
    with pytest.raises(Unmatched):
        answerer.reply([ChatTurn("user", (TextPart("no image"),))])


def test_stub_stats_endpoint(server):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.server_address[1]}/stats", timeout=30
    ) as resp:
        stats = json.loads(resp.read())
    assert set(stats) == {"requests", "bytes_in", "refused", "service_ms", "cpu_s"}

