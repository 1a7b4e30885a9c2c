"""Loopback chat-completions endpoint that answers like GeometryMockVlm.

Run as `python3 vlmstub.py --table TABLE.json`; it binds 127.0.0.1 on a free
port, prints `port N` on one line, and serves one request at a time until
terminated. The table lists, per benchmark record, the synthetic world
(seed, objects, bounds, resolution), the question text and its payload.

A request is matched by its content alone: the sha256 of the first image of
the last user turn identifies the world (its rendered input view), and the
question text found in that turn picks the payload. Images are decoded here,
independently of sandbox3d's own codec, so a correct answer shows that the
renders crossed the wire intact. A request that cannot be matched exactly
gets HTTP 500; the stub never guesses.

`GET /stats` returns request, byte, refusal and service-time totals.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import hashlib
import json
import resource
import struct
import sys
import time
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

from sandbox3d.providers import ChatTurn, GeometryMockVlm, ImagePart, SyntheticRig, TextPart
from sandbox3d.synthetic_world import bounds_from_dict, default_intrinsics, generate_world

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_DATA_URL = "data:image/png;base64,"


class Unmatched(Exception):
    """The request does not identify exactly one known world and question."""


def decode_png(blob: bytes) -> np.ndarray:
    """Decode what sandbox3d's encoder writes: 8-bit grey or RGB, no
    interlace, filter type 0 on every scanline. Anything else is refused."""
    if blob[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, header, idat = 8, None, []
    while pos + 8 <= len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        kind = blob[pos + 4 : pos + 8]
        data = blob[pos + 8 : pos + 8 + length]
        if len(data) != length:
            raise ValueError("truncated PNG chunk")
        pos += 12 + length
        if kind == b"IHDR":
            header = struct.unpack(">IIBBBBB", data)
        elif kind == b"IDAT":
            idat.append(data)
        elif kind == b"IEND":
            break
    if header is None:
        raise ValueError("PNG without IHDR")
    width, height, depth, color_type, _, _, interlace = header
    if depth != 8 or interlace != 0 or color_type not in (0, 2):
        raise ValueError("unsupported PNG format")
    channels = 3 if color_type == 2 else 1
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if raw.size != height * (1 + width * channels):
        raise ValueError("PNG data size does not match its header")
    rows = raw.reshape(height, 1 + width * channels)
    if rows[:, 0].any():
        raise ValueError("PNG uses a scanline filter other than 0")
    pixels = rows[:, 1:].reshape(height, width, channels)
    return pixels if channels == 3 else pixels[:, :, 0]


def turns_from_request(body: dict) -> list[ChatTurn]:
    turns = []
    for message in body["messages"]:
        parts = []
        for item in message["content"]:
            if item["type"] == "text":
                parts.append(TextPart(item["text"]))
            elif item["type"] == "image_url":
                url = item["image_url"]["url"]
                if not url.startswith(_DATA_URL):
                    raise ValueError("image is not an inline PNG")
                parts.append(ImagePart(decode_png(base64.b64decode(url[len(_DATA_URL) :]))))
            else:
                raise ValueError(f"unknown content type {item['type']!r}")
        turns.append(ChatTurn(message["role"], tuple(parts)))
    return turns


def scene_world(scene: dict, width: int, height: int):
    """The synthetic world of a benchmark scene dict, rendered at width x height
    with an unchanged field of view, so every cuboid stays in frame."""
    world = generate_world(int(scene["seed"]), int(scene["objects"]), bounds_from_dict(scene["bounds"]))
    return dataclasses.replace(world, input_intrinsics=default_intrinsics(width, height))


def image_key(image: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(image).tobytes()).hexdigest()


class Answerer:
    """Maps (input-view hash, question text) to a GeometryMockVlm reply."""

    def __init__(self, table: list[dict]):
        worlds: dict[tuple, tuple[SyntheticRig, list]] = {}
        for row in table:
            key = (row["seed"], row["objects"], row["width"], row["height"])
            if key not in worlds:
                world = scene_world(row, row["width"], row["height"])
                worlds[key] = (SyntheticRig(world), [])
            worlds[key][1].append((row["question"], row["payload"]))
        self._by_image = {}
        for rig, questions in worlds.values():
            self._by_image[image_key(rig.input_frame().image)] = (rig, questions)

    def reply(self, turns: list[ChatTurn]) -> str:
        user = [t for t in turns if t.role == "user"]
        if not user or not user[-1].images():
            raise Unmatched("no user image")
        found = self._by_image.get(image_key(user[-1].images()[0]))
        if found is None:
            raise Unmatched("unknown input view")
        rig, questions = found
        text = user[-1].text()
        payloads = {
            json.dumps(payload, sort_keys=True): payload
            for question, payload in questions
            if question in text
        }
        if len(payloads) != 1:
            raise Unmatched(f"{len(payloads)} questions match the prompt")
        (payload,) = payloads.values()
        return GeometryMockVlm(rig, payload).complete(turns)


class StubServer(HTTPServer):
    def __init__(self, answerer: Answerer, address=("127.0.0.1", 0)):
        super().__init__(address, _Handler)
        self.answerer = answerer
        self.stats = {"requests": 0, "bytes_in": 0, "refused": 0, "service_ms": 0.0}


class _Handler(BaseHTTPRequestHandler):
    server: StubServer

    def do_POST(self):
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        stats = self.server.stats
        stats["requests"] += 1
        stats["bytes_in"] += len(body)
        try:
            text = self.server.answerer.reply(turns_from_request(json.loads(body)))
        except (Unmatched, ValueError, KeyError, TypeError) as err:
            stats["refused"] += 1
            self._send(500, {"error": {"message": f"stub refused request: {err}"}})
        else:
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
        stats["service_ms"] += (time.perf_counter() - start) * 1000.0

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {})
            return
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self._send(200, dict(self.server.stats, cpu_s=usage.ru_utime + usage.ru_stime))

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    args = parser.parse_args(argv)
    with open(args.table, encoding="utf-8") as f:
        server = StubServer(Answerer(json.load(f)))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
