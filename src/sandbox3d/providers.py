"""Uniform interfaces for the four external models, plus local stand-ins.

The pipeline consumes four providers: a multi-view generator, a depth
estimator, a segmenter, and a chat VLM. Implementations here cover the
desk-scale cases: analytic (synthetic world), precomputed (scene bundle on
disk), scripted and geometry-reading mocks for tests, and an HTTP client
speaking the OpenAI-compatible chat-completions protocol for real VLMs.

All providers are safe for concurrent calls; the HTTP client additionally
caps in-flight requests per instance.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import math
import os
import re
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from typing import Protocol, Sequence, Union

import numpy as np

from .errors import (
    AnswerParseError,
    ConfigError,
    HintParseError,
    MissingViewError,
    ObjectNotFoundError,
    ProviderError,
)
from .image_io import png_bytes
from .proxy_elevation import ObjectHint
from .qa import LETTERS, evaluate_question
from .sandbox_render import PALETTE
from .scene_model import (
    INPUT_VIEW,
    CameraIntrinsics,
    CameraPose,
    DepthGrid,
    InstanceMask,
    ViewFrame,
    ViewId,
)
from .trajectory_control import TrajectorySpec
from .synthetic_world import (
    WorldSpec,
    color_table,
    image_from_stack,  # noqa: F401  perfbench's tracer patches this module's binding
    instance_depths,
    mask_from_stack,  # noqa: F401  perfbench's tracer patches this module's binding
    nearest_from_stack,
)

# Marker phrases the prompt templates must contain; mock VLMs key on them to
# tell a direction query from a hint query from the final QA prompt.
DIRECTION_MARKER = "Reply with exactly one of"
HINTS_MARKER = "JSON array"


# ── Chat message model ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    image: np.ndarray  # (h, w, 3) uint8

    def __post_init__(self):
        img = np.asarray(self.image)
        if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
            raise ValueError("image part must be (h, w, 3) uint8")


Part = Union[TextPart, ImagePart]

_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatTurn:
    role: str
    parts: tuple[Part, ...]

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}")
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("a chat turn needs at least one part")

    def text(self) -> str:
        return "\n".join(p.text for p in self.parts if isinstance(p, TextPart))

    def images(self) -> list[np.ndarray]:
        return [p.image for p in self.parts if isinstance(p, ImagePart)]


@dataclass(frozen=True)
class DecodeParams:
    temperature: float = 0.0
    max_tokens: int = 1024


@dataclass(frozen=True)
class CameraEstimate:
    depth: DepthGrid
    intrinsics: CameraIntrinsics
    pose: CameraPose


# ── Provider protocols ─────────────────────────────────────────────────────


class MultiViewGenerator(Protocol):
    def generate(self, input_view: ViewFrame, trajectory: TrajectorySpec) -> list[ViewFrame]:
        """T frames whose poses are the trajectory poses composed onto the input camera."""
        ...


class DepthEstimator(Protocol):
    def estimate(self, frames: Sequence[ViewFrame]) -> list[CameraEstimate]: ...


class Segmenter(Protocol):
    def segment(self, frame: ViewFrame, hint: ObjectHint) -> InstanceMask: ...


class ChatVLM(Protocol):
    def complete(self, turns: Sequence[ChatTurn], params: DecodeParams) -> str: ...


class StoredDepthEstimator:
    """Returns the depth and camera already carried by each frame.

    Covers both the synthetic and bundle cases, where depth is exact or
    precomputed; a real estimator adapter would replace this.
    """

    def estimate(self, frames: Sequence[ViewFrame]) -> list[CameraEstimate]:
        return [CameraEstimate(f.depth, f.intrinsics, f.pose) for f in frames]


# ── Synthetic (analytic) providers ─────────────────────────────────────────


@dataclass(frozen=True)
class _RigView:
    """One pose rendered and reduced: everything consumers read, no stack."""

    image: np.ndarray  # (h, w, 3) uint8, read-only
    depth: DepthGrid
    nearest: np.ndarray  # (h, w) signed int: cuboid index, k for ground, -1 for sky


class SyntheticRig:
    """Shared per-world cache of analytic views, keyed by pose.

    Rendering a view costs one windowed ray-slab pass per cuboid. The
    (k+1, h, w) hit-depth stack is reduced once to the depth and a
    nearest-instance raster, and the image is gathered from the world's
    color table; every consumer of the same pose (frames, hint lookups,
    every instance mask) reads those.
    """

    def __init__(self, world: WorldSpec):
        self.world = world
        self._colors = color_table(world)
        self._views: dict[bytes, _RigView] = {}
        self._lock = threading.Lock()

    def stack(self, pose: CameraPose) -> np.ndarray:
        """Render the hit-depth stack of one pose (uncached)."""
        return instance_depths(self.world, pose, self.world.input_intrinsics)

    def _view(self, pose: CameraPose) -> _RigView:
        key = pose.rotation.tobytes() + pose.translation.tobytes()
        with self._lock:
            hit = self._views.get(key)
        if hit is not None:
            return hit
        depth, nearest = nearest_from_stack(self.stack(pose))
        image = self._colors.take(nearest, axis=0)
        image.flags.writeable = False
        nearest.flags.writeable = False
        view = _RigView(image, DepthGrid(depth), nearest)
        with self._lock:
            return self._views.setdefault(key, view)

    def frame(self, pose: CameraPose, view_id: ViewId) -> ViewFrame:
        view = self._view(pose)
        return ViewFrame(view.image, view.depth, self.world.input_intrinsics, pose, view_id)

    def input_frame(self) -> ViewFrame:
        return self.frame(self.world.input_pose, INPUT_VIEW)

    def nearest_instance(self, pose: CameraPose, x: int, y: int) -> int | None:
        """Index into world.cuboids of the nearest hit at a pixel, else None."""
        idx = int(self._view(pose).nearest[y, x])
        if idx < 0 or idx == len(self.world.cuboids):
            return None  # sky or ground
        return idx

    def mask_bits(self, pose: CameraPose, index: int) -> np.ndarray:
        """Boolean raster of pixels whose nearest hit is cuboid `index`."""
        return self._view(pose).nearest == index


class SyntheticMultiViewGenerator:
    def __init__(self, rig: SyntheticRig):
        self.rig = rig

    def generate(self, input_view: ViewFrame, trajectory: TrajectorySpec) -> list[ViewFrame]:
        frames = []
        for t, rel in enumerate(trajectory.poses):
            pose = input_view.pose.compose(rel)
            frames.append(self.rig.frame(pose, ViewId(trajectory.trajectory_index, t)))
        return frames


class SyntheticSegmenter:
    """Analytic masks with prompt-once re-identification.

    The hint pixel is interpreted in the world's input view (where hints are
    requested); the resolved instance is then masked exactly in whichever
    frame is passed, emulating a video segmenter that propagates a single
    point prompt across views. A fully occluded instance yields an empty
    mask for that frame.
    """

    def __init__(self, rig: SyntheticRig):
        self.rig = rig

    def segment(self, frame: ViewFrame, hint: ObjectHint) -> InstanceMask:
        x, y = hint.center_px
        idx = self.rig.nearest_instance(self.rig.world.input_pose, int(x), int(y))
        if idx is None:
            raise ObjectNotFoundError(
                f"hint '{hint.label}' at {tuple(hint.center_px)} lands on background"
            )
        return InstanceMask(self.rig.mask_bits(frame.pose, idx), hint.object_id, hint.label)


class SyntheticSceneProvider:
    """One-stop construction of all analytic providers for a world."""

    def __init__(self, world: WorldSpec):
        self.world = world
        self.rig = SyntheticRig(world)
        self.generator = SyntheticMultiViewGenerator(self.rig)
        self.segmenter = SyntheticSegmenter(self.rig)
        self.depth_estimator = StoredDepthEstimator()

    def input_view(self) -> ViewFrame:
        return self.rig.input_frame()


# ── Bundle-backed providers ────────────────────────────────────────────────


class BundleMultiViewGenerator:
    """Serves precomputed frames from a loaded scene bundle."""

    def __init__(self, frames_by_view: dict[ViewId, ViewFrame]):
        self._frames = dict(frames_by_view)

    def generate(self, input_view: ViewFrame, trajectory: TrajectorySpec) -> list[ViewFrame]:
        out = []
        for t in range(len(trajectory.poses)):
            vid = ViewId(trajectory.trajectory_index, t)
            frame = self._frames.get(vid)
            if frame is None:
                raise MissingViewError(vid.trajectory, vid.step)
            out.append(frame)
        return out


class BundleSegmenter:
    """Serves stored masks keyed by (view, object_id)."""

    def __init__(self, masks: dict[tuple[ViewId, int], InstanceMask]):
        self._masks = dict(masks)

    def segment(self, frame: ViewFrame, hint: ObjectHint) -> InstanceMask:
        mask = self._masks.get((frame.view_id, hint.object_id))
        if mask is None:
            raise ObjectNotFoundError(
                f"bundle has no mask for object {hint.object_id} in view {frame.view_id.tag()}"
            )
        return mask


# ── Scripted and mock VLMs ─────────────────────────────────────────────────


class ScriptedVlm:
    """Replays queued responses and records every prompt it receives."""

    def __init__(self, responses: Sequence[str] = ()):
        self._queue = deque(responses)
        self._lock = threading.Lock()
        self.calls: list[tuple[ChatTurn, ...]] = []

    def push(self, *responses: str) -> None:
        with self._lock:
            self._queue.extend(responses)

    def complete(self, turns: Sequence[ChatTurn], params: DecodeParams = DecodeParams()) -> str:
        with self._lock:
            self.calls.append(tuple(turns))
            if not self._queue:
                raise ProviderError("scripted VLM has no response queued")
            return self._queue.popleft()


def _last_user_turn(turns: Sequence[ChatTurn]) -> ChatTurn:
    for turn in reversed(turns):
        if turn.role == "user":
            return turn
    raise ProviderError("prompt has no user turn")


class RandomMockVlm:
    """Uniform-random answer baseline; fixed seed makes runs reproducible."""

    def __init__(self, seed: int = 0, motion: str = "forward"):
        self._rng = np.random.default_rng(seed)
        self._motion = motion
        self._lock = threading.Lock()

    def complete(self, turns: Sequence[ChatTurn], params: DecodeParams = DecodeParams()) -> str:
        text = _last_user_turn(turns).text()
        if DIRECTION_MARKER in text:
            return self._motion
        if HINTS_MARKER in text:
            return "[]"
        letters = re.findall(r"^([A-E])\. ", text, re.M)
        with self._lock:
            choice = str(self._rng.choice(letters)) if letters else "A"
        return f"<answer> {choice} </answer>"


class GeometryMockVlm:
    """Deterministic VLM stand-in that reads geometry from the prompt alone.

    Grounding queries (direction choice, object hints) are answered from the
    attached world, standing in for a real model's innate 2D abilities. The
    final answer, however, uses ONLY the prompt context: the coordinate JSON
    when present, otherwise instance positions decoded from the top-down
    render via its legend, scale, and camera-marker lines. When the prompt
    carries no 3D context (multi-view-only mode), it falls back to "A", so
    answer quality measures exactly the value of the composed context.
    """

    def __init__(self, rig: SyntheticRig, payload: dict | None = None, motion: str = "forward"):
        self.rig = rig
        self.payload = payload
        self.motion = motion
        self._lock = threading.Lock()
        self.calls: list[tuple[ChatTurn, ...]] = []

    def complete(self, turns: Sequence[ChatTurn], params: DecodeParams = DecodeParams()) -> str:
        with self._lock:
            self.calls.append(tuple(turns))
        user = _last_user_turn(turns)
        text = user.text()
        if DIRECTION_MARKER in text:
            return self.motion
        if HINTS_MARKER in text:
            return self._hints_json()
        return self._answer(text, user.images())

    def _hints_json(self) -> str:
        world = self.rig.world
        hints = []
        for idx, cub in enumerate(world.cuboids):
            bits = self.rig.mask_bits(world.input_pose, idx)
            ys, xs = np.nonzero(bits)
            if len(xs) == 0:
                continue
            # Representative interior pixel: the set pixel nearest the centroid.
            d2 = (xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2
            i = int(np.argmin(d2))
            hints.append({"label": cub.label, "x": int(xs[i]), "y": int(ys[i])})
        return json.dumps(hints)

    def _answer(self, text: str, images: list[np.ndarray]) -> str:
        letter = "A"
        source = "no 3D context"
        if self.payload is not None:
            positions = _positions_from_coords(text)
            if positions is not None:
                source = "coordinate text"
            else:
                positions = _positions_from_topdown(text, images)
                if positions is not None:
                    source = "top-down map"
            if positions is not None:
                letter = self._evaluate(positions) or letter
        return f"<thinking> read {source} </thinking>\n<answer> {letter} </answer>"

    def _evaluate(self, positions: dict[str, tuple[float, float]]) -> str | None:
        payload = self.payload
        pos_a = positions.get(payload["a"]["label"])
        if pos_a is None:
            return None
        pos_b = (0.0, 1.0)
        if "b" in payload:
            pos_b = positions.get(payload["b"]["label"])
            if pos_b is None:
                return None
        try:
            return LETTERS[evaluate_question(payload, pos_a, pos_b)]
        except ValueError:
            return None


def _positions_from_coords(text: str) -> dict[str, tuple[float, float]] | None:
    """Per-label ground positions (right, forward) from a coordinate JSON blob.

    When several boxes share a label (clustering can shed small fragments of
    one object) the largest-volume instance stands for the label.
    """
    decoder = json.JSONDecoder()
    for start in range(len(text)):
        if text[start] != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, start)
        except ValueError:
            continue
        if not (isinstance(obj, dict) and isinstance(obj.get("boxes"), list)):
            continue
        best: dict[str, tuple[float, tuple[float, float]]] = {}
        for box in obj["boxes"]:
            try:
                label = box["label"]
                u, w = float(box["center"][0]), float(box["center"][2])
                volume = math.prod(float(v) for v in box["size"])
            except (TypeError, KeyError, IndexError, ValueError):
                continue
            cur = best.get(label)
            if cur is None or volume > cur[0]:
                best[label] = (volume, (u, w))
        found = {k: v for k, (_, v) in best.items()}
        return found if found else None
    return None


_SCALE_RE = re.compile(r"1 px = ([0-9.eE+-]+) m")
_MARKER_RE = re.compile(r"Camera marker at pixel \((-?[0-9.]+), (-?[0-9.]+)\)")
_LEGEND_RE = re.compile(r"^- ([a-z]+): (.+) \(instance (\d+)\)$", re.M)

_PALETTE_SLOT = {name: i for i, (name, _) in enumerate(PALETTE)}
# Palette colours packed as r << 16 | g << 8 | b, sorted for lookup, then a
# sentinel above every 24-bit colour so a lookup never runs off the end.
_PACKED = np.array([r << 16 | g << 8 | b for _, (r, g, b) in PALETTE], dtype=np.int32)
_PACKED_ORDER = np.argsort(_PACKED)
_PACKED_SORTED = np.append(_PACKED[_PACKED_ORDER], np.int32(1 << 24))


def _palette_footprints(img: np.ndarray):
    """Pixel count and x, y coordinate sums of every palette colour in an image.

    One pass: each pixel's packed colour is looked up in the palette table and
    binned by its palette index; other colours are ignored.
    """
    packed = img[..., 0].astype(np.int32) << 16 | img[..., 1].astype(np.int32) << 8 | img[..., 2]
    pos = np.searchsorted(_PACKED_SORTED, packed)
    ys, xs = np.nonzero(_PACKED_SORTED[pos] == packed)
    slot = _PACKED_ORDER[pos[ys, xs]]
    n = len(PALETTE)
    count = np.bincount(slot, minlength=n)
    return count, np.bincount(slot, xs, n), np.bincount(slot, ys, n)


def _positions_from_topdown(
    text: str, images: list[np.ndarray]
) -> dict[str, tuple[float, float]] | None:
    """Per-label positions decoded from the last image (the top-down map).

    Each legend color is located by exact RGB match; the pixel centroid,
    the scale line, and the camera-marker pixel convert to meters in the
    origin camera's ground frame (x right, image-up forward).  When several
    legend entries share a label the largest visible footprint stands for it.
    Coordinate sums are integers, exact in float64, so each centroid is the
    mean of its pixels' coordinates to the last bit.
    """
    scale = _SCALE_RE.search(text)
    marker = _MARKER_RE.search(text)
    # The same entry may appear under several renders' legends; drop repeats.
    entries = list(dict.fromkeys(_LEGEND_RE.findall(text)))
    if scale is None or marker is None or not entries or not images:
        return None
    s = float(scale.group(1))
    mx, my = float(marker.group(1)), float(marker.group(2))
    count, x_sum, y_sum = _palette_footprints(images[-1])
    best: dict[str, tuple[int, tuple[float, float]]] = {}
    for color_name, label, _ in entries:
        slot = _PALETTE_SLOT.get(color_name)
        if slot is None or count[slot] == 0:
            continue
        n = int(count[slot])
        u = (float(x_sum[slot] / n) - mx) * s
        w = (my - float(y_sum[slot] / n)) * s
        cur = best.get(label)
        if cur is None or n > cur[0]:
            best[label] = (n, (u, w))
    found = {k: v for k, (_, v) in best.items()}
    return found if found else None


# ── HTTP chat-completions client ───────────────────────────────────────────


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    # Refusing redirects guarantees the bearer token only ever reaches the
    # configured endpoint.
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


ENV_API_KEY = "SANDBOX3D_API_KEY"
ENV_BASE_URL = "SANDBOX3D_BASE_URL"
ENV_MODEL = "SANDBOX3D_MODEL"


# Transport failures urllib lets through unwrapped while it waits for or reads
# a response; ConnectionResetError covers http.client.RemoteDisconnected.
_TRANSIENT_TRANSPORT_ERRORS = (TimeoutError, ConnectionResetError, http.client.IncompleteRead)


def _retry_after_s(err: urllib.error.HTTPError) -> int | None:
    """Retry-After as delay-seconds; None when absent or not a plain integer
    (an HTTP-date, a fraction, garbage)."""
    value = ((err.headers or {}).get("Retry-After") or "").strip()
    return int(value) if value.isascii() and value.isdigit() else None


class HttpChatVlm:
    """OpenAI-compatible chat-completions client over urllib.

    Text parts become `text` content items; images are inlined as base64
    PNG data URLs. 429 and 5xx responses, timeouts, connection resets and
    truncated bodies are retried with exponential backoff (max 3 retries);
    a 429 whose Retry-After is a whole number of seconds waits at least that
    long, at most timeout_s. Other errors, including auth failures and
    redirects, are terminal. A semaphore caps concurrent in-flight requests.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout_s: float = 120.0,
        max_inflight: int = 2,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        sleep=time.sleep,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        if not self.base_url:
            raise ConfigError(f"VLM base URL not configured (set {ENV_BASE_URL})")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.model:
            raise ConfigError(f"VLM model name not configured (set {ENV_MODEL})")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._sem = threading.Semaphore(max_inflight)
        self._opener = urllib.request.build_opener(_NoRedirect)

    def complete(self, turns: Sequence[ChatTurn], params: DecodeParams = DecodeParams()) -> str:
        body = json.dumps(
            {
                "model": self.model,
                "messages": [self._message(t) for t in turns],
                "temperature": params.temperature,
                "max_tokens": params.max_tokens,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = self.base_url + "/chat/completions"

        for attempt in range(self.max_retries + 1):
            req = urllib.request.Request(url, data=body, headers=headers, method="POST")
            try:
                with self._sem:
                    with self._opener.open(req, timeout=self.timeout_s) as resp:
                        raw = resp.read()
            except urllib.error.HTTPError as err:
                err.close()
                if err.code != 429 and err.code < 500:
                    raise ProviderError(f"HTTP {err.code}", status=err.code) from err
                failure, status, cause = f"HTTP {err.code}", err.code, err
                retry_after = _retry_after_s(err) if err.code == 429 else None
            except urllib.error.URLError as err:
                raise ProviderError(f"request failed: {err.reason}") from err
            except _TRANSIENT_TRANSPORT_ERRORS as err:
                failure, status, cause = f"{type(err).__name__}: {err}", None, err
                retry_after = None
            else:
                return self._extract_text(raw)
            if attempt == self.max_retries:
                raise ProviderError(
                    f"{failure} after {attempt + 1} attempts", status=status
                ) from cause
            delay = self.backoff_s * (2**attempt)
            if retry_after is not None:  # the server's wait, capped at the timeout
                delay = max(delay, min(retry_after, self.timeout_s))
            self._sleep(delay)
        raise AssertionError("retry loop always returns or raises")  # pragma: no cover

    @staticmethod
    def _message(turn: ChatTurn) -> dict:
        content = []
        for part in turn.parts:
            if isinstance(part, TextPart):
                content.append({"type": "text", "text": part.text})
            else:
                b64 = base64.b64encode(png_bytes(part.image)).decode("ascii")
                content.append(
                    {"type": "image_url", "image_url": {"url": f"data:image/png;base64,{b64}"}}
                )
        return {"role": turn.role, "content": content}

    @staticmethod
    def _extract_text(raw: bytes) -> str:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ProviderError(f"malformed JSON response: {err}") from err
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise ProviderError("response lacks choices[0].message.content") from err
        if isinstance(content, str):
            return content
        if isinstance(content, list):
            return "".join(
                item.get("text", "") for item in content if isinstance(item, dict)
            )
        raise ProviderError("unsupported message content type")


# ── Model-output parsing ───────────────────────────────────────────────────


def parse_object_hints(
    raw_text: str, width: int, height: int
) -> tuple[list[ObjectHint], list[str]]:
    """Extract object hints from a model reply.

    Scans for the first JSON array containing {label, x, y} objects.
    Coordinates are rounded and clamped into bounds (noted), duplicates
    dropped after clamping, and ids assigned in listing order. Raises
    HintParseError when no usable array exists.
    """
    decoder = json.JSONDecoder()
    notes: list[str] = []
    for start in range(len(raw_text)):
        if raw_text[start] != "[":
            continue
        try:
            arr, _ = decoder.raw_decode(raw_text, start)
        except ValueError:
            continue
        if not isinstance(arr, list):
            continue
        hints: list[ObjectHint] = []
        seen: set[tuple[str, int, int]] = set()
        for item in arr:
            if not isinstance(item, dict):
                continue
            label = item.get("label")
            x, y = item.get("x"), item.get("y")
            if not isinstance(label, str) or not label:
                continue
            if isinstance(x, bool) or isinstance(y, bool):
                continue
            if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
                continue
            xi = min(max(int(round(x)), 0), width - 1)
            yi = min(max(int(round(y)), 0), height - 1)
            if (xi, yi) != (int(round(x)), int(round(y))):
                notes.append(f"clamped hint '{label}' from ({x}, {y}) to ({xi}, {yi})")
            key = (label, xi, yi)
            if key in seen:
                continue
            seen.add(key)
            hints.append(ObjectHint(label, (xi, yi), len(hints)))
        if hints:
            return hints, notes
    raise HintParseError("no JSON array of object hints in model output")


_THINKING_RE = re.compile(r"<thinking>(.*?)</thinking>", re.S | re.I)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.S | re.I)


def parse_answer(raw_text: str, choices: Sequence[str]) -> tuple[str, str | None]:
    """Extract (answer letter, thinking text) from a model reply.

    Prefers the last <answer> block; otherwise falls back to the last
    non-empty line. Within the candidate text, a standalone letter wins;
    failing that, a unique choice text contained in the candidate does.
    """
    if not choices:
        raise ValueError("choices must be non-empty")
    thinks = _THINKING_RE.findall(raw_text)
    thinking = thinks[-1].strip() if thinks else None
    answers = _ANSWER_RE.findall(raw_text)
    if answers:
        candidate = answers[-1].strip()
    else:
        lines = [ln.strip() for ln in raw_text.splitlines() if ln.strip()]
        if not lines:
            raise AnswerParseError("empty model output")
        candidate = lines[-1]

    valid = LETTERS[: len(choices)]
    letters = {m.upper() for m in re.findall(r"\b([A-Ea-e])\b", candidate)}
    letters &= set(valid)
    if len(letters) == 1:
        return letters.pop(), thinking
    contained = [
        valid[i] for i, choice in enumerate(choices) if choice.lower() in candidate.lower()
    ]
    if len(contained) == 1:
        return contained[0], thinking
    raise AnswerParseError(f"cannot extract a choice letter from {candidate!r}")


def describe_turns(turns: Sequence[ChatTurn]) -> str:
    """Stable textual transcript of a prompt; images appear as size + digest."""
    lines = []
    for turn in turns:
        lines.append(f"=== {turn.role} ===")
        for part in turn.parts:
            if isinstance(part, TextPart):
                lines.append(part.text)
            else:
                h, w = part.image.shape[:2]
                digest = hashlib.sha256(part.image.tobytes()).hexdigest()[:16]
                lines.append(f"[image {w}x{h} sha256={digest}]")
    return "\n".join(lines) + "\n"
