from __future__ import annotations

import base64
import http.client
import json
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from sandbox3d import ConfigError, ProviderError
from sandbox3d.providers import (
    ChatTurn,
    DecodeParams,
    HttpChatVlm,
    ImagePart,
    TextPart,
)


class _StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, body[, headers]) responses and
    records requests.

    Two pseudo statuses cut a 200 response off after half its body: "stall"
    then waits (until `release` is set), "reset" aborts the connection.
    """

    script = []
    requests = []
    lock = threading.Lock()
    release = threading.Event()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        with _StubHandler.lock:
            _StubHandler.requests.append(
                {
                    "path": self.path,
                    "auth": self.headers.get("Authorization"),
                    "content_type": self.headers.get("Content-Type"),
                    "body": json.loads(body.decode("utf-8")),
                }
            )
            status, payload, *extra = (
                _StubHandler.script.pop(0) if _StubHandler.script else (500, b"{}")
            )
        if status == 302:
            self.send_response(302)
            self.send_header("Location", "http://127.0.0.1:1/steal")
            self.end_headers()
            return
        if status in ("stall", "reset"):
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload[: len(payload) // 2])
            self.wfile.flush()
            if status == "stall":
                _StubHandler.release.wait(timeout=10)
            else:  # linger 0: close sends RST instead of FIN
                self.connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                self.connection.close()
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests = []
    _StubHandler.release.clear()
    yield f"http://127.0.0.1:{server.server_port}"
    _StubHandler.release.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _ok_body(text="hello"):
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def _client(base_url, **kw):
    kw.setdefault("api_key", "sekret")
    kw.setdefault("backoff_s", 0.001)
    return HttpChatVlm(base_url=base_url, model="test-model", **kw)


def test_happy_path_transcript(stub_server):
    _StubHandler.script = [(200, _ok_body("the reply"))]
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    turns = [
        ChatTurn("system", (TextPart("be terse"),)),
        ChatTurn("user", (TextPart("look"), ImagePart(img))),
    ]
    out = _client(stub_server).complete(turns, DecodeParams(temperature=0.5, max_tokens=64))
    assert out == "the reply"
    assert len(_StubHandler.requests) == 1
    req = _StubHandler.requests[0]
    assert req["path"] == "/chat/completions"
    assert req["auth"] == "Bearer sekret"
    assert req["content_type"] == "application/json"
    body = req["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.5
    assert body["max_tokens"] == 64
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert body["messages"][0]["content"] == [{"type": "text", "text": "be terse"}]
    parts = body["messages"][1]["content"]
    assert parts[0] == {"type": "text", "text": "look"}
    url = parts[1]["image_url"]["url"]
    assert url.startswith("data:image/png;base64,")
    assert base64.b64decode(url.split(",", 1)[1]).startswith(b"\x89PNG")


def test_429_retries_then_succeeds(stub_server):
    _StubHandler.script = [(429, b"{}"), (429, b"{}"), (200, _ok_body("after retry"))]
    sleeps = []
    client = _client(stub_server, backoff_s=0.01, sleep=sleeps.append)
    out = client.complete([ChatTurn("user", (TextPart("q"),))])
    assert out == "after retry"
    assert len(_StubHandler.requests) == 3
    # exponential backoff: base, then doubled
    assert sleeps == [0.01, 0.02]


@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("7", 7),  # longer than the backoff: the server's wait
        ("0", 0.01),  # shorter: the backoff
        ("soon", 0.01),  # malformed: the backoff
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.01),  # an HTTP-date: the backoff
        ("-3", 0.01),
        ("1.5", 0.01),
        ("99999999999999999999", 30.0),  # capped at timeout_s
    ],
)
def test_429_honours_integer_retry_after(stub_server, retry_after, slept):
    _StubHandler.script = [(429, b"{}", {"Retry-After": retry_after}), (200, _ok_body("ok"))]
    sleeps = []
    client = _client(stub_server, timeout_s=30.0, backoff_s=0.01, sleep=sleeps.append)
    assert client.complete([ChatTurn("user", (TextPart("hi"),))]) == "ok"
    assert sleeps == [slept]


def test_retry_after_is_ignored_on_5xx(stub_server):
    _StubHandler.script = [(503, b"{}", {"Retry-After": "7"}), (200, _ok_body("ok"))]
    sleeps = []
    client = _client(stub_server, backoff_s=0.01, sleep=sleeps.append)
    assert client.complete([ChatTurn("user", (TextPart("hi"),))]) == "ok"
    assert sleeps == [0.01]


def test_retry_budget_exhausted(stub_server):
    _StubHandler.script = [(503, b"{}")] * 4
    sleeps = []
    client = _client(stub_server, max_retries=3, backoff_s=0.01, sleep=sleeps.append)
    with pytest.raises(ProviderError) as err:
        client.complete([ChatTurn("user", (TextPart("q"),))])
    assert err.value.status == 503
    assert len(_StubHandler.requests) == 4
    assert sleeps == [0.01, 0.02, 0.04]


def test_stalled_body_times_out_and_is_retried(stub_server):
    _StubHandler.script = [("stall", _ok_body("too slow")), (200, _ok_body("second try"))]
    sleeps = []
    client = _client(stub_server, timeout_s=0.2, backoff_s=0.01, sleep=sleeps.append)
    out = client.complete([ChatTurn("user", (TextPart("q"),))])
    assert out == "second try"
    assert len(_StubHandler.requests) == 2
    assert sleeps == [0.01]


def test_reset_connection_is_retried_then_a_provider_error(stub_server):
    _StubHandler.script = [("reset", _ok_body("cut off"))] * 4
    sleeps = []
    client = _client(stub_server, max_retries=3, backoff_s=0.01, sleep=sleeps.append)
    with pytest.raises(ProviderError, match="after 4 attempts") as err:
        client.complete([ChatTurn("user", (TextPart("q"),))])
    assert err.value.status is None
    assert isinstance(err.value.__cause__, (ConnectionResetError, http.client.IncompleteRead))
    assert len(_StubHandler.requests) == 4
    assert sleeps == [0.01, 0.02, 0.04]


def test_401_is_terminal_single_request(stub_server):
    _StubHandler.script = [(401, b"{}")]
    sleeps = []
    client = _client(stub_server, sleep=sleeps.append)
    with pytest.raises(ProviderError) as err:
        client.complete([ChatTurn("user", (TextPart("q"),))])
    assert err.value.status == 401
    assert len(_StubHandler.requests) == 1
    assert sleeps == []


def test_redirect_is_terminal(stub_server):
    # the client must never follow a redirect with the bearer token attached
    _StubHandler.script = [(302, b"")]
    client = _client(stub_server)
    with pytest.raises(ProviderError):
        client.complete([ChatTurn("user", (TextPart("q"),))])
    assert len(_StubHandler.requests) == 1


def test_connection_refused_raises_provider_error():
    client = _client("http://127.0.0.1:9")  # nothing listens on the discard port
    with pytest.raises(ProviderError):
        client.complete([ChatTurn("user", (TextPart("q"),))])


def test_missing_configuration_raises(monkeypatch):
    monkeypatch.delenv("SANDBOX3D_BASE_URL", raising=False)
    monkeypatch.delenv("SANDBOX3D_MODEL", raising=False)
    with pytest.raises(ConfigError):
        HttpChatVlm(base_url=None, model="m")
    with pytest.raises(ConfigError):
        HttpChatVlm(base_url="http://x", model=None)


def test_env_var_configuration(monkeypatch, stub_server):
    monkeypatch.setenv("SANDBOX3D_BASE_URL", stub_server + "/")
    monkeypatch.setenv("SANDBOX3D_MODEL", "env-model")
    monkeypatch.setenv("SANDBOX3D_API_KEY", "env-key")
    _StubHandler.script = [(200, _ok_body())]
    out = HttpChatVlm().complete([ChatTurn("user", (TextPart("q"),))])
    assert out == "hello"
    req = _StubHandler.requests[0]
    assert req["auth"] == "Bearer env-key"
    assert req["body"]["model"] == "env-model"


def test_no_auth_header_without_key(monkeypatch, stub_server):
    monkeypatch.delenv("SANDBOX3D_API_KEY", raising=False)
    _StubHandler.script = [(200, _ok_body())]
    client = HttpChatVlm(base_url=stub_server, model="m")
    client.complete([ChatTurn("user", (TextPart("q"),))])
    assert _StubHandler.requests[0]["auth"] is None


def test_content_list_extraction(stub_server):
    content = [{"type": "text", "text": "part one, "}, {"type": "text", "text": "part two"}]
    body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    _StubHandler.script = [(200, body)]
    out = _client(stub_server).complete([ChatTurn("user", (TextPart("q"),))])
    assert out == "part one, part two"


def test_malformed_response_raises(stub_server):
    _StubHandler.script = [(200, b"not json")]
    with pytest.raises(ProviderError, match="malformed JSON"):
        _client(stub_server).complete([ChatTurn("user", (TextPart("q"),))])
    _StubHandler.script = [(200, b"{}")]
    with pytest.raises(ProviderError, match="choices"):
        _client(stub_server).complete([ChatTurn("user", (TextPart("q"),))])
