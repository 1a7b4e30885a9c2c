"""End-to-end orchestration: views, proxies, boxes, prompts, and scoring.

The pipeline runs ten stages: direction query, trajectory instantiation,
multi-view generation, depth estimation, object-hint query, proxy
elevation, consensus voting and box fitting, mode-dependent rendering or
serialization, prompt composition, and the final answer query. Failures
degrade instead of aborting: unusable hints or an empty box scene drop the
run to multi-view-only context; missing bundle frames drop individual
trajectories (and, below two usable views, all synthesized context); an
unparseable answer scores as incorrect. Only a terminal provider failure
marks the run failed.

Artifacts for every stage are written beneath an output directory and are
deterministic byte-for-byte given the same config, seed, and scripted model
replies.

Stages 6-7 (proxy elevation, consensus voting per label, box fitting) depend
on the scene, the chosen motion and the object hints, never on the question.
`run_eval` therefore builds them once per scene entry (synthetic world or
bundle path) and (motion, tuple(hints)) key, in its `SceneCache`; the config
is fixed per cache, so it is not part of the key. An entry holds only small
frozen objects: the consensus-kept cloud per label (read-only arrays), the
`SandboxScene` or the `EmptySandboxError` text, the lifted and kept counts,
and the number of skipped (view, object) pairs. Hint and answer queries,
artifact writes and stage-8 renders still run for every question. A bare
`run_pipeline` call, with no memo in its `ProviderSet`, builds the sandbox on
every call.

PNG encoding is shared the same way: `run_eval` keeps one `PngMemo` per eval,
and both the artifact writer and the HTTP client's image parts encode through
it, so each distinct image is encoded once per eval however many records
write or send it. `png_bytes` is a pure function of the pixels, so artifacts
and request bodies are byte-identical to a memo-less run; with no
`encode_png` in its `ProviderSet`, `run_pipeline` encodes on every write.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .bundle import SceneBundle, load_bundle
from .errors import (
    AnswerParseError,
    ConfigError,
    EmptyMaskError,
    EmptyProxyError,
    EmptySandboxError,
    HintParseError,
    MissingViewError,
    ObjectNotFoundError,
    ProviderError,
)
from .image_io import (
    png_bytes,
    write_depth_raw,
    write_image,  # noqa: F401  perfbench's tracer pins this module's binding
)
from .proxy_elevation import ElevationParams, ObjectHint, elevate_object
from .providers import (
    BundleMultiViewGenerator,
    BundleSegmenter,
    ChatTurn,
    ChatVLM,
    DecodeParams,
    GeometryMockVlm,
    HttpChatVlm,
    ImagePart,
    RandomMockVlm,
    StoredDepthEstimator,
    SyntheticSceneProvider,
    TextPart,
    describe_turns,
    parse_answer,
    parse_object_hints,
)
from .qa import CATEGORIES, LETTERS, QARecord, read_benchmark
from .sandbox_render import (
    PerspectiveCamera,
    RenderStyle,
    RenderedView,
    legend_lines,
    render_boxes,
    render_points,
    stepback_camera,
    topdown_camera,
    topdown_camera_for_points,
)
from .scene_model import (
    CameraPose,
    SandboxScene,
    ProxyCloud,
    ViewFrame,
    backproject_pixels,
    merge_clouds,
)
from .synthetic_world import WorldBounds, bounds_from_dict, generate_world
from .trajectory_control import (
    DEFAULT_M,
    DEFAULT_STEP_M,
    DEFAULT_SWEEP_DEG,
    DEFAULT_T,
    instantiate_trajectories,
    parse_motion,
)
from .voting_clustering import (
    ClusterParams,
    ConsensusParams,
    filter_by_consensus,
    fit_sandbox,
)

MODES = ("full", "mv_only", "text_coords", "proxy_render", "pointcloud_render")

PROMPT_FILES = {
    "system_answer": "system_answer_v1.txt",
    "direction_query": "direction_query_v1.txt",
    "object_hints": "object_hints_v1.txt",
}

_PROMPT_CACHE: dict[str, str] = {}


def load_prompt(name: str) -> str:
    """Read a versioned prompt template shipped with the package."""
    if name not in _PROMPT_CACHE:
        path = resources.files("sandbox3d").joinpath("prompts", PROMPT_FILES[name])
        _PROMPT_CACHE[name] = path.read_text(encoding="utf-8")
    return _PROMPT_CACHE[name]


# ── Configuration ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "full"
    seed: int = 0
    m_candidates: int = DEFAULT_M
    t_steps: int = DEFAULT_T
    step_m: float = DEFAULT_STEP_M
    sweep_deg: float = DEFAULT_SWEEP_DEG
    elevation: ElevationParams = ElevationParams()
    consensus: ConsensusParams = ConsensusParams()
    cluster: ClusterParams = ClusterParams()
    style: RenderStyle = RenderStyle()
    decode: DecodeParams = DecodeParams()
    stepback_m: float = 2.0
    pointcloud_stride: int = 8
    outlier_filter: bool = False
    vlm: str = "http"  # http | geometry_mock | random_mock
    base_url: str | None = None
    model: str | None = None
    parallelism: int | None = None
    eval_artifacts: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_views < 1:
            raise ConfigError("m_candidates and t_steps must be positive")
        if self.pointcloud_stride < 1:
            raise ConfigError("pointcloud_stride must be positive")
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigError(
                "parallelism must be at least 1 (omit it for one worker per CPU), "
                f"got {self.parallelism}"
            )

    @property
    def max_views(self) -> int:
        return self.m_candidates * self.t_steps


_INI_SCHEMA = {
    "pipeline": {
        "mode": str,
        "seed": int,
        "vlm": str,
        "base_url": str,
        "model": str,
        "parallelism": int,
        "stepback_m": float,
        "pointcloud_stride": int,
        "outlier_filter": bool,
        "eval_artifacts": bool,
    },
    "trajectory": {"m": int, "t": int, "step_m": float, "sweep_deg": float},
    "elevation": {"n_pts": int, "erosion_iterations": int},
    "consensus": {"delta": float, "n_agree": int},
    "cluster": {"eps": float, "min_pts": int, "min_cluster_size": int, "min_extent": float},
    "render": {"width": int, "height": int, "line_width": int, "point_size": int, "draw_axes": bool},
    "decode": {"temperature": float, "max_tokens": int},
}


def config_from_ini(path) -> PipelineConfig:
    """Build a PipelineConfig from an INI file; unknown keys are errors."""
    parser = configparser.ConfigParser()
    text_path = Path(path)
    if not text_path.is_file():
        raise ConfigError(f"config file not found: {text_path}")
    try:
        parser.read_string(text_path.read_text(encoding="utf-8"), source=str(text_path))
    except configparser.Error as err:
        raise ConfigError(f"config: {err}") from err

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _INI_SCHEMA:
            raise ConfigError(f"config: unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            kind = _INI_SCHEMA[section].get(key)
            if kind is None:
                raise ConfigError(f"config: unknown key '{key}' in [{section}]")
            try:
                if kind is bool:
                    values[section][key] = parser.getboolean(section, key)
                else:
                    values[section][key] = kind(raw)
            except ValueError as err:
                raise ConfigError(f"config: bad value for [{section}] {key}: {raw!r}") from err

    def section(name: str) -> dict:
        return values.get(name, {})

    try:
        pipeline = section("pipeline")
        traj = section("trajectory")
        return PipelineConfig(
            mode=pipeline.get("mode", "full"),
            seed=pipeline.get("seed", 0),
            m_candidates=traj.get("m", DEFAULT_M),
            t_steps=traj.get("t", DEFAULT_T),
            step_m=traj.get("step_m", DEFAULT_STEP_M),
            sweep_deg=traj.get("sweep_deg", DEFAULT_SWEEP_DEG),
            elevation=ElevationParams(**section("elevation")),
            consensus=ConsensusParams(**section("consensus")),
            cluster=ClusterParams(**section("cluster")),
            style=RenderStyle(**section("render")),
            decode=DecodeParams(**section("decode")),
            stepback_m=pipeline.get("stepback_m", 2.0),
            pointcloud_stride=pipeline.get("pointcloud_stride", 8),
            outlier_filter=pipeline.get("outlier_filter", False),
            vlm=pipeline.get("vlm", "http"),
            base_url=pipeline.get("base_url"),
            model=pipeline.get("model"),
            parallelism=pipeline.get("parallelism"),
            eval_artifacts=pipeline.get("eval_artifacts", False),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config: {err}") from err


# ── Scene serialization ────────────────────────────────────────────────────

_COORD_CONVENTION = (
    "meters in the input camera frame: x right, y down, z forward; "
    "size is the full box extent along its axes; yaw_deg rotates the first "
    "box axis about the scene up axis (0 = camera forward, positive = right)"
)


def _box_yaw_deg(axes: np.ndarray, origin: CameraPose, up: np.ndarray) -> float:
    """Yaw of the first principal axis about the up axis, in [-90, 90)."""
    fwd = origin.forward()
    fwd = fwd - (fwd @ up) * up
    n = np.linalg.norm(fwd)
    fwd = np.array([1.0, 0.0, 0.0]) if n < 1e-9 else fwd / n
    right = np.cross(-up, fwd)
    a = axes[:, 0] - (axes[:, 0] @ up) * up
    if np.linalg.norm(a) < 1e-9:  # first axis is vertical; yaw is moot
        return 0.0
    yaw = math.degrees(math.atan2(float(a @ right), float(a @ fwd)))
    return (yaw + 90.0) % 180.0 - 90.0  # a box axis is a line: fold to half turn


def serialize_text_coords(scene: SandboxScene) -> str:
    """Deterministic JSON describing the boxes in the input camera frame."""
    boxes = []
    for box in sorted(scene.boxes, key=lambda b: b.instance_id):
        center_cam = scene.origin_pose.inverse_transform(box.center[None, :])[0]
        boxes.append(
            {
                "label": box.label,
                "instance_id": box.instance_id,
                "center": [round(float(c), 2) for c in center_cam],
                "size": [round(float(2.0 * h), 2) for h in box.half_extents],
                "yaw_deg": round(_box_yaw_deg(box.axes, scene.origin_pose, scene.up_axis), 1),
            }
        )
    return json.dumps({"convention": _COORD_CONVENTION, "boxes": boxes}, sort_keys=True)


# ── Prompt composition ─────────────────────────────────────────────────────

_RENDER_CAPTIONS = {
    "full": (
        "Step-back render of the abstract 3D boxes (the input camera moved back):",
        "Top-down map of the abstract 3D boxes (orthographic):",
    ),
    "proxy_render": (
        "Step-back render of the filtered 3D proxy points:",
        "Top-down map of the filtered 3D proxy points (orthographic):",
    ),
    "pointcloud_render": (
        "Step-back render of the lifted point cloud:",
        "Top-down map of the lifted point cloud (orthographic):",
    ),
}


def _question_block(question: str, choices) -> str:
    lines = [f"Question: {question}", "Choices:"]
    lines += [f"{LETTERS[i]}. {c}" for i, c in enumerate(choices)]
    return "\n".join(lines)


def compose_prompt(
    question: str,
    choices,
    original: ViewFrame,
    renders: tuple[RenderedView, ...] = (),
    mode: str = "full",
    coords_text: str | None = None,
    extra_frames: tuple[ViewFrame, ...] = (),
) -> list[ChatTurn]:
    """Assemble the final QA prompt for one mode.

    The user turn always starts with the original view and ends with the
    question and lettered choices; in between sits exactly the context class
    of the mode: synthesized frames (mv_only), a coordinate JSON
    (text_coords), or captioned renders with their legends (full and the two
    point ablations).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    parts: list = [TextPart("Original view:"), ImagePart(original.image)]
    if mode == "mv_only":
        for frame in extra_frames:
            parts.append(TextPart(f"Synthesized view {frame.view_id.tag()}:"))
            parts.append(ImagePart(frame.image))
    elif mode == "text_coords":
        if coords_text is None:
            raise ValueError("text_coords mode needs coords_text")
        parts.append(TextPart("3D scene description:\n" + coords_text))
    else:
        if not renders:
            raise ValueError(f"{mode} mode needs renders")
        captions = _RENDER_CAPTIONS[mode]
        for i, render in enumerate(renders):
            parts.append(TextPart(captions[i] if i < len(captions) else "Additional render:"))
            parts.append(ImagePart(render.image))
            lines = legend_lines(render)
            if lines:
                parts.append(TextPart("Legend:\n" + "\n".join(lines)))
    parts.append(TextPart(_question_block(question, choices)))
    return [
        ChatTurn("system", (TextPart(load_prompt("system_answer")),)),
        ChatTurn("user", tuple(parts)),
    ]


# ── Providers bundle ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class SceneSandbox:
    """Stages 6-7 for one scene, motion and hint list; shared by questions."""

    kept: tuple[ProxyCloud, ...]  # consensus survivors, one cloud per label, first-seen order
    scene: SandboxScene | None
    empty_error: str | None  # why fit_sandbox found no box, when it found none
    counts: tuple[tuple[str, int, int], ...]  # (label, lifted, kept), sorted by label
    skipped: int  # (view, object) pairs elevation could not lift


# memo(key, build) returns build() the first time a key is seen, then that result.
SandboxMemo = Callable[[tuple, Callable[[], SceneSandbox]], SceneSandbox]


class _Once:
    """Single flight per key: the first caller for a key loads it; later
    callers wait for that result. A failed load is not cached and raises in
    every waiter."""

    def __init__(self):
        self._lock = threading.Lock()
        self._table: dict = {}

    def get(self, key, load):
        with self._lock:
            future = self._table.get(key)
            owner = future is None
            if owner:
                future = self._table[key] = Future()
        if owner:
            try:
                future.set_result(load())
            except BaseException as err:
                with self._lock:
                    del self._table[key]
                future.set_exception(err)
                raise
        return future.result()


class PngMemo:
    """`png_bytes` that encodes each distinct image once.

    The key is the image's shape, dtype and the sha256 of its C-contiguous
    pixels, and `png_bytes` is a pure function of those, so a hit returns the
    bytes a fresh encode would. Concurrent callers for one image share a
    single encode; a failed encode is not cached. Entries live as long as the
    memo: each is the compressed form of pixels its callers already hold."""

    def __init__(self):
        self._encoded = _Once()

    def __call__(self, image: np.ndarray) -> bytes:
        img = np.ascontiguousarray(image)
        key = (img.shape, img.dtype.str, hashlib.sha256(img).digest())
        return self._encoded.get(key, lambda: png_bytes(img))


@dataclass
class ProviderSet:
    """Everything run_pipeline needs about one scene.

    `sandbox_memo`, when set, shares stages 6-7 between questions of the
    scene, keyed by (motion, tuple(hints)); with None they run every call.
    `encode_png`, when set, replaces `png_bytes` for image artifacts (a
    `PngMemo` shares encodes between records); with None every write
    encodes."""

    input_view: ViewFrame
    generator: object
    depth_estimator: object
    segmenter: object
    vlm: ChatVLM
    up_axis: np.ndarray
    sandbox_memo: SandboxMemo | None = None
    encode_png: Callable[[np.ndarray], bytes] | None = None


def _bounds_from_scene(scene: dict) -> WorldBounds:
    spec = scene.get("bounds")
    if spec is None:
        return WorldBounds()
    try:
        return bounds_from_dict(spec)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"scene bounds: {err}") from err


class SceneCache:
    """Shared scene-side providers across eval records (worlds and bundles),
    plus the eval's `PngMemo`."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.png_memo = PngMemo()
        self._lock = threading.Lock()
        self._synthetic = _Once()
        self._bundles = _Once()
        self._sandboxes = _Once()
        self._http_vlm: HttpChatVlm | None = None

    def synthetic_provider(self, key: tuple) -> SyntheticSceneProvider:
        """The world for a (seed, objects, bounds) key, generated once."""
        return self._synthetic.get(key, lambda: SyntheticSceneProvider(generate_world(*key)))

    def bundle(self, path: str) -> SceneBundle:
        return self._bundles.get(path, lambda: load_bundle(path))

    def sandbox(self, scene_key, key: tuple, build) -> SceneSandbox:
        """Stages 6-7 of one scene entry, built once per (motion, hints) key."""
        return self._sandboxes.get((scene_key, key), build)

    def _shared_http_vlm(self) -> HttpChatVlm:
        # The client holds the memo itself, never this cache: a reference
        # back would make a cycle that outlives run_eval until a gc pass.
        with self._lock:
            if self._http_vlm is None:
                self._http_vlm = HttpChatVlm(
                    base_url=self.config.base_url,
                    model=self.config.model,
                    encode_png=self.png_memo,
                )
            return self._http_vlm

    def providers_for(self, record: QARecord, index: int) -> ProviderSet:
        scene = record.scene
        kind = scene.get("kind")
        if kind == "synthetic":
            key = (int(scene["seed"]), int(scene["objects"]), _bounds_from_scene(scene))
            sp = self.synthetic_provider(key)
            return ProviderSet(
                input_view=sp.input_view(),
                generator=sp.generator,
                depth_estimator=sp.depth_estimator,
                segmenter=sp.segmenter,
                vlm=self._vlm_for(record, index, sp),
                up_axis=sp.world.up_axis,
                sandbox_memo=partial(self.sandbox, key),
                encode_png=self.png_memo,
            )
        if kind == "bundle":
            path = str(scene["path"])
            bundle = self.bundle(path)
            return ProviderSet(
                input_view=bundle.input_view(),
                generator=BundleMultiViewGenerator(bundle.frames_by_view()),
                depth_estimator=StoredDepthEstimator(),
                segmenter=BundleSegmenter(bundle.masks),
                vlm=self._vlm_for(record, index, None),
                up_axis=bundle.up_axis,
                sandbox_memo=partial(self.sandbox, path),
                encode_png=self.png_memo,
            )
        raise ConfigError(f"record {record.qid}: unknown scene kind {kind!r}")

    def _vlm_for(self, record: QARecord, index: int, sp: SyntheticSceneProvider | None):
        kind = self.config.vlm
        if kind == "http":
            return self._shared_http_vlm()
        if kind == "random_mock":
            return RandomMockVlm(seed=self.config.seed + index)
        if kind == "geometry_mock":
            if sp is None:
                raise ConfigError("geometry_mock requires synthetic scenes")
            return GeometryMockVlm(sp.rig, record.payload or None)
        raise ConfigError(f"unknown vlm provider {kind!r}")


# ── Pipeline run ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PipelineResult:
    answer: str | None
    mode_requested: str
    mode_used: str
    motion: str | None
    defaulted_motion: bool
    degradations: tuple[str, ...]
    notes: tuple[str, ...]
    vlm_calls: int
    thinking: str | None = None
    error: str | None = None  # stage name of a terminal provider failure

    @property
    def failed(self) -> bool:
        return self.error is not None


class _Artifacts:
    """Deterministic artifact writer; with no directory, every call no-ops.

    Callers test `enabled` before building a payload that costs work. Images
    are encoded by `encode_png`, or by `png_bytes` when it is None."""

    def __init__(self, out_dir, encode_png):
        self.root = Path(out_dir) if out_dir is not None else None
        self.enabled = self.root is not None
        self.encode_png = encode_png
        if self.enabled:
            self.root.mkdir(parents=True, exist_ok=True)

    def text(self, name: str, content: str) -> None:
        if self.root is None:
            return
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if not content.endswith("\n"):
            content += "\n"
        path.write_text(content, encoding="utf-8")

    def json(self, name: str, payload) -> None:
        if self.root is None:
            return
        self.text(name, json.dumps(payload, indent=2, sort_keys=True))

    def image(self, name: str, image: np.ndarray) -> None:
        if self.root is None:
            return
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes((self.encode_png or png_bytes)(image))

    def depth(self, name: str, values: np.ndarray) -> None:
        if self.root is None:
            return
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        write_depth_raw(path, values)


def _pose_floats(pose: CameraPose) -> list[float]:
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return [float(x) for x in m.reshape(-1)]


def _dense_cloud(frames, stride: int) -> tuple[ProxyCloud, dict[int, str]]:
    """Depth-lifted point cloud on a stride grid, one id per source view."""
    clouds = []
    labels: dict[int, str] = {}
    for idx, frame in enumerate(frames):
        d = frame.depth.values[::stride, ::stride]
        ys, xs = np.nonzero(np.isfinite(d) & (d > 0))
        if len(xs) == 0:
            continue
        pts = backproject_pixels(
            xs * stride, ys * stride, d[ys, xs], frame.intrinsics, frame.pose
        )
        clouds.append(ProxyCloud.single_view(pts, idx, frame.view_id))
        labels[idx] = f"view {frame.view_id.tag()}"
    return merge_clouds(clouds), labels


def build_scene_sandbox(
    config: PipelineConfig,
    input_view: ViewFrame,
    frames,
    hints,
    segmenter,
    up_axis: np.ndarray,
) -> SceneSandbox:
    """Stages 6-7: proxy elevation over the input view plus every synthesized
    view, consensus voting once per label, then clustering and box fitting.

    Elevation failures for one (view, object) pair are counted, not raised;
    an empty box scene is kept as the EmptySandboxError text.
    """
    clouds_by_label: dict[str, list[ProxyCloud]] = {}
    skipped = 0
    for view in [input_view, *frames]:
        for hint in hints:
            try:
                cloud = elevate_object(view, hint, segmenter, config.elevation)
            except (ObjectNotFoundError, EmptyMaskError, EmptyProxyError):
                skipped += 1
                continue
            clouds_by_label.setdefault(hint.label, []).append(cloud)

    # One consensus pass per label feeds box fitting, proxies.json and proxy_render.
    kept = {
        label: filter_by_consensus(clouds, config.consensus)
        for label, clouds in clouds_by_label.items()
    }
    scene, empty_error = None, None
    try:
        scene = fit_sandbox(
            kept,
            config.cluster,
            input_view.pose,
            input_view.intrinsics,
            up_axis,
            outlier_filter=config.outlier_filter,
        )
    except EmptySandboxError as err:
        empty_error = str(err)
    counts = tuple(
        (label, sum(len(c) for c in clouds_by_label[label]), len(cloud))
        for label, cloud in sorted(kept.items())
    )
    return SceneSandbox(tuple(kept.values()), scene, empty_error, counts, skipped)


def run_pipeline(
    config: PipelineConfig,
    providers: ProviderSet,
    question: str,
    choices,
    qid: str = "scene",
    out_dir=None,
) -> PipelineResult:
    """Run the ten pipeline stages for one question against one scene."""
    art = _Artifacts(out_dir, providers.encode_png)
    if art.enabled:
        art.json("config.json", _config_dict(config))
    input_view = providers.input_view
    vlm = providers.vlm
    mode = config.mode
    degradations: list[str] = []
    notes: list[str] = []
    calls = 0

    art.image("views/input.png", input_view.image)
    art.depth("views/input.f32", input_view.depth.values)

    # (1) direction query
    direction_turn = ChatTurn(
        "user",
        (
            TextPart(load_prompt("direction_query").format(question=question)),
            ImagePart(input_view.image),
        ),
    )
    try:
        direction_raw = vlm.complete([direction_turn], config.decode)
    except ProviderError as err:
        return _failed(config, mode, "direction_query", err, degradations, notes, calls)
    calls += 1
    art.text("direction_raw.txt", direction_raw)
    motion, defaulted = parse_motion(direction_raw)
    if defaulted:
        notes.append("direction reply had no motion token; defaulted to forward")
    art.json("direction.json", {"motion": motion.value, "defaulted": defaulted})

    # (2) trajectories
    trajectories = instantiate_trajectories(
        motion, config.m_candidates, config.t_steps, config.step_m, config.sweep_deg
    )
    if art.enabled:
        art.json(
            "trajectories.json",
            [
                {
                    "m": spec.trajectory_index,
                    "heading_deg": spec.heading_deg,
                    "poses": [_pose_floats(p) for p in spec.poses],
                }
                for spec in trajectories
            ],
        )

    # (3) multi-view generation; missing bundle frames drop their trajectory
    frames: list[ViewFrame] = []
    for spec in trajectories:
        try:
            frames.extend(providers.generator.generate(input_view, spec))
        except MissingViewError as err:
            degradations.append(str(err))
    for frame in frames:
        art.image(f"views/{frame.view_id.tag()}.png", frame.image)
        art.depth(f"views/{frame.view_id.tag()}.f32", frame.depth.values)

    if mode != "mv_only" and len(frames) < 2:
        if degradations:
            notes.append("fewer than 2 synthesized views; multi-view-only with original frame")
            mode = "mv_only"
            frames = []
        # With no degradations this means M*T < 2 by configuration; proceed.

    # (4) depth estimation (stored or analytic providers return exact values)
    estimates = providers.depth_estimator.estimate(frames)
    frames = [
        ViewFrame(f.image, est.depth, est.intrinsics, est.pose, f.view_id)
        for f, est in zip(frames, estimates)
    ]

    hints: list[ObjectHint] = []
    scene = None
    sandbox = None

    needs_hints = mode in ("full", "text_coords", "proxy_render")
    if needs_hints:
        # (5) object-hint query on the original view
        hints_turn = ChatTurn(
            "user",
            (
                TextPart(
                    load_prompt("object_hints").format(
                        question=question,
                        width=input_view.intrinsics.width,
                        height=input_view.intrinsics.height,
                    )
                ),
                ImagePart(input_view.image),
            ),
        )
        try:
            hints_raw = vlm.complete([hints_turn], config.decode)
        except ProviderError as err:
            return _failed(config, mode, "hint_query", err, degradations, notes, calls)
        calls += 1
        art.text("hints_raw.txt", hints_raw)
        try:
            hints, hint_notes = parse_object_hints(
                hints_raw, input_view.intrinsics.width, input_view.intrinsics.height
            )
            notes.extend(hint_notes)
            art.json(
                "hints.json",
                [
                    {"label": h.label, "x": h.center_px[0], "y": h.center_px[1], "id": h.object_id}
                    for h in hints
                ],
            )
        except HintParseError as err:
            degradations.append(f"hint parse failed: {err}")
            mode = "mv_only"
            needs_hints = False

    if needs_hints:
        # (6)-(7) proxy elevation, consensus voting, box fitting
        build = partial(
            build_scene_sandbox,
            config, input_view, frames, hints, providers.segmenter, providers.up_axis,
        )
        memo = providers.sandbox_memo
        sandbox = build() if memo is None else memo((motion, tuple(hints)), build)
        if sandbox.skipped:
            notes.append(f"elevation skipped {sandbox.skipped} (view, object) pairs")
        scene = sandbox.scene
        if sandbox.empty_error is not None and mode in ("full", "text_coords"):
            degradations.append(f"empty sandbox: {sandbox.empty_error}")
            mode = "mv_only"
        art.json(
            "proxies.json",
            {label: {"lifted": lifted, "kept": kept} for label, lifted, kept in sandbox.counts},
        )
        if scene is not None and art.enabled:
            art.text("sandbox.json", serialize_text_coords(scene))

    # (8) mode context: renders or coordinate text
    renders: tuple[RenderedView, ...] = ()
    coords_text = None
    if mode == "full" and scene is not None:
        stepback = render_boxes(
            scene,
            PerspectiveCamera(
                stepback_camera(input_view.pose, config.stepback_m), input_view.intrinsics
            ),
            config.style,
        )
        topdown = render_boxes(scene, topdown_camera(scene), config.style)
        renders = (stepback, topdown)
    elif mode == "text_coords" and scene is not None:
        coords_text = serialize_text_coords(scene)
    elif mode == "proxy_render":
        merged = merge_clouds(sandbox.kept)
        if len(merged) == 0:
            degradations.append("no proxy points survived consensus voting")
            mode = "mv_only"
        else:
            labels = {h.object_id: h.label for h in hints}
            cameras = (
                PerspectiveCamera(
                    stepback_camera(input_view.pose, config.stepback_m), input_view.intrinsics
                ),
                topdown_camera_for_points(merged.xyz, input_view.pose, providers.up_axis),
            )
            renders = tuple(
                render_points(
                    merged,
                    cam,
                    config.style,
                    labels=labels,
                    origin=input_view.pose,
                    up_axis=providers.up_axis,
                )
                for cam in cameras
            )
    elif mode == "pointcloud_render":
        dense, labels = _dense_cloud([input_view, *frames], config.pointcloud_stride)
        if len(dense) == 0:
            degradations.append("depth maps produced no valid points")
            mode = "mv_only"
        else:
            cameras = (
                PerspectiveCamera(
                    stepback_camera(input_view.pose, config.stepback_m), input_view.intrinsics
                ),
                topdown_camera_for_points(dense.xyz, input_view.pose, providers.up_axis),
            )
            renders = tuple(
                render_points(
                    dense,
                    cam,
                    config.style,
                    labels=labels,
                    origin=input_view.pose,
                    up_axis=providers.up_axis,
                )
                for cam in cameras
            )
    for suffix, render in zip(("stepback", "topdown"), renders):
        art.image(f"{qid}_{suffix}.png", render.image)

    # (9) final prompt
    turns = compose_prompt(
        question,
        choices,
        input_view,
        renders=renders,
        mode=mode,
        coords_text=coords_text,
        extra_frames=tuple(frames) if mode == "mv_only" else (),
    )
    if art.enabled:
        art.text("prompt.txt", describe_turns(turns))

    # (10) answer
    try:
        answer_raw = vlm.complete(turns, config.decode)
    except ProviderError as err:
        return _failed(config, mode, "answer_query", err, degradations, notes, calls)
    calls += 1
    art.text("answer_raw.txt", answer_raw)
    thinking = None
    try:
        answer, thinking = parse_answer(answer_raw, choices)
    except AnswerParseError as err:
        answer = None
        notes.append(f"answer parse failed: {err}")

    result = PipelineResult(
        answer=answer,
        mode_requested=config.mode,
        mode_used=mode,
        motion=motion.value,
        defaulted_motion=defaulted,
        degradations=tuple(degradations),
        notes=tuple(notes),
        vlm_calls=calls,
        thinking=thinking,
    )
    art.json("result.json", _result_dict(result))
    return result


def _failed(config, mode, stage, err, degradations, notes, calls) -> PipelineResult:
    return PipelineResult(
        answer=None,
        mode_requested=config.mode,
        mode_used=mode,
        motion=None,
        defaulted_motion=False,
        degradations=tuple(degradations),
        notes=(*notes, str(err)),
        vlm_calls=calls,
        error=stage,
    )


def _config_dict(config: PipelineConfig) -> dict:
    return dataclasses.asdict(config)


def _result_dict(result: PipelineResult) -> dict:
    return {
        "answer": result.answer,
        "mode_requested": result.mode_requested,
        "mode_used": result.mode_used,
        "motion": result.motion,
        "defaulted_motion": result.defaulted_motion,
        "degradations": list(result.degradations),
        "notes": list(result.notes),
        "vlm_calls": result.vlm_calls,
        "error": result.error,
    }


# ── Evaluation harness ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class RecordResult:
    qid: str
    category: str
    predicted: str | None
    gold: str
    correct: bool
    mode_used: str
    degradations: tuple[str, ...]
    vlm_calls: int
    wall_ms: float
    error: str | None


@dataclass(frozen=True)
class RunReport:
    rows: tuple[RecordResult, ...]
    accuracy: float
    by_category: dict[str, float]
    failed: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.rows)


_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def _safe(name: str) -> str:
    return _SAFE_NAME.sub("_", name)


def run_eval(config: PipelineConfig, benchmark_path, out_dir=None) -> RunReport:
    """Score every benchmark record; single-record failures never abort.

    Each scene's sandbox (stages 6-7) is built once per (motion, hints) and
    shared by the questions that ask for it, and each distinct image is
    encoded as PNG once per eval; see the module docstring."""
    try:
        records = read_benchmark(benchmark_path)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        raise ConfigError(f"benchmark: {err}") from err
    if not records:
        raise ConfigError("benchmark: no records")
    if config.vlm not in ("http", "random_mock", "geometry_mock"):
        raise ConfigError(f"unknown vlm provider {config.vlm!r}")
    if config.vlm == "geometry_mock" and any(
        r.scene.get("kind") != "synthetic" for r in records
    ):
        raise ConfigError("geometry_mock requires synthetic scenes")

    out_root = Path(out_dir) if out_dir is not None else None
    if out_root is not None and config.eval_artifacts:
        owners: dict[str, str] = {}
        for record in records:
            name = _safe(record.qid)
            if name in ("", ".", ".."):
                raise ConfigError(
                    f"benchmark: record id {record.qid!r} does not name a directory "
                    "under records/"
                )
            if name in owners:
                raise ConfigError(
                    f"benchmark: record ids {owners[name]!r} and {record.qid!r} "
                    f"share the artifact directory records/{name}"
                )
            owners[name] = record.qid
    cache = SceneCache(config)

    def work(index: int, record: QARecord) -> RecordResult:
        start = time.perf_counter()
        record_dir = None
        if out_root is not None and config.eval_artifacts:
            record_dir = out_root / "records" / _safe(record.qid)
        try:
            providers = cache.providers_for(record, index)
            result = run_pipeline(
                config, providers, record.question, record.choices,
                qid=_safe(record.qid), out_dir=record_dir,
            )
            predicted = result.answer
            error = result.error
            mode_used = result.mode_used
            degradations = result.degradations
            calls = result.vlm_calls
        except Exception as err:  # a broken record must not sink the run
            predicted, mode_used, degradations, calls = None, config.mode, (), 0
            error = f"{type(err).__name__}: {err}"
        wall_ms = (time.perf_counter() - start) * 1000.0
        return RecordResult(
            qid=record.qid,
            category=record.category,
            predicted=predicted,
            gold=record.gold,
            correct=error is None and predicted == record.gold,
            mode_used=mode_used,
            degradations=tuple(degradations),
            vlm_calls=calls,
            wall_ms=wall_ms,
            error=error,
        )

    max_workers = config.parallelism or os.cpu_count() or 1
    if max_workers == 1:
        # On the calling thread: a one-thread pool starts a fresh thread per
        # call, and glibc may give it a new malloc arena whose freed memory
        # stays resident (a sporadic +40 MB peak RSS over repeated evals).
        rows = [work(i, rec) for i, rec in enumerate(records)]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(work, i, rec) for i, rec in enumerate(records)]
            rows = [future.result() for future in futures]

    accuracy = sum(r.correct for r in rows) / len(rows)
    by_category = {}
    for cat in CATEGORIES:
        cat_rows = [r for r in rows if r.category == cat]
        if cat_rows:
            by_category[cat] = sum(r.correct for r in cat_rows) / len(cat_rows)
    report = RunReport(
        rows=tuple(rows),
        accuracy=accuracy,
        by_category=by_category,
        failed=tuple(r.qid for r in rows if r.error is not None),
    )
    if out_root is not None:
        _write_report(report, config, out_root)
    return report


def _write_report(report: RunReport, config: PipelineConfig, out_root: Path) -> None:
    out_root.mkdir(parents=True, exist_ok=True)
    payload = {
        "mode": config.mode,
        "n": report.n,
        "accuracy": report.accuracy,
        "by_category": report.by_category,
        "failed": list(report.failed),
        "records": [
            {
                "id": r.qid,
                "category": r.category,
                "predicted": r.predicted,
                "gold": r.gold,
                "correct": r.correct,
                "mode_used": r.mode_used,
                "degradations": list(r.degradations),
                "vlm_calls": r.vlm_calls,
                "wall_ms": round(r.wall_ms, 3),
                "error": r.error,
            }
            for r in report.rows
        ],
    }
    (out_root / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    header = ["mode", "n", "Average", *CATEGORIES]
    cells = [config.mode, str(report.n), f"{report.accuracy:.4f}"]
    for cat in CATEGORIES:
        value = report.by_category.get(cat)
        cells.append("" if value is None else f"{value:.4f}")
    (out_root / "report.csv").write_text(
        ",".join(header) + "\n" + ",".join(cells) + "\n", encoding="utf-8"
    )
