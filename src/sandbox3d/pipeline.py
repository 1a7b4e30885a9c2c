"""End-to-end orchestration: views, proxies, boxes, prompts, and scoring.

The pipeline runs nine stages: direction query, trajectory instantiation,
multi-view generation, object-hint query, proxy elevation, consensus voting
and box fitting, mode-dependent rendering or serialization, prompt
composition, and the final answer query. Every view carries its own depth
and camera. Failures degrade instead of aborting: unusable hints or an empty
box scene drop the run to multi-view-only context; missing bundle frames
drop individual trajectories (and, below two usable views, all synthesized
context); an unparseable answer scores as incorrect. Only a terminal
provider failure marks the run failed.

Artifacts for every stage are written beneath an output directory and are
deterministic byte-for-byte given the same config, seed, and scripted model
replies.

What the questions about one scene share lives in its `SceneContext`: stages
5-7 (elevation, consensus, box fitting, then the mode's read-only renders and
coordinate text), built once per (config, motion, hints); one PNG encode per
distinct image, whose bytes equal a fresh `png_bytes` call's; and, with a
views directory, stages 1-3's view artifacts written once per motion. Hint
and answer queries, degrade decisions, question-level artifacts and
`pointcloud_render`'s dense cloud run for every question.

A scene is its spec's `scene_id`, the spec as canonical JSON. `run_eval`
builds each scene's providers and context once (per views directory). It
keeps a synthetic scene's until it returns, and drops a bundle scene's, whose
decoded frames and masks are large, once the last of the scene's records has
finished. One `PngMemo` for all scenes and the HTTP client, built before any
record runs, live until it returns. With `eval_artifacts`, a scene's views
go to `<out>/scenes/<n>/<motion>/`, `<n>` numbering the distinct scenes in
order of first appearance, and each `records/<id>/` gets a `views.json`
pointer, `{"dir": "../../scenes/<n>/<motion>"}`; a record whose direction
query fails has no motion and no pointer. A bare `run_pipeline` call shares
only within its `ProviderSet`'s context, and writes the views into its own
tree.

`run_eval` schedules by scene at every parallelism. A scene opens when its
first record in benchmark order is submitted; the scene's other records are
submitted only after that first record has returned, whether it succeeded
or failed. So no worker blocks on a scene's bundle load, view write or
sandbox build: the first record has done them. Siblings that ask for a
(motion, hints) key the first record did not still meet in the single
flights above. The next scene opens only while fewer tasks are outstanding
than there are workers, so open scenes' siblings run before new scenes and
no worker idles while a scene waits. Every open scene has a task
outstanding, so at most `parallelism` scenes are open, and with the release
above an eval holds at most that many bundle scenes. Rows stay in benchmark
order. The cost: a one-scene eval runs its first record alone. With one
worker each task runs at once on the calling thread, so a scene's records
run together and no thread starts.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
import re
import threading
import time
import typing
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .bundle import SceneBundle, load_bundle, pose_to_floats
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
    freeze,
    image_digest,
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
    MultiViewGenerator,
    RandomMockVlm,
    Segmenter,
    SyntheticRig,
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
    AbstractMotion,
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
VLMS = ("http", "geometry_mock", "random_mock")

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
    vlm: str = "http"  # one of VLMS
    base_url: str | None = None
    model: str | None = None
    parallelism: int | None = None
    eval_artifacts: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.vlm not in VLMS:
            raise ConfigError(f"unknown vlm provider {self.vlm!r}, not one of {VLMS}")
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


def _ini_keys(cls) -> dict[str, type]:
    """A config dataclass's INI-settable fields: the scalar ones, with
    `X | None` read as X. Other fields, such as a colour tuple, are not keys."""
    keys = {}
    for name, kind in typing.get_type_hints(cls).items():
        args = typing.get_args(kind)
        if type(None) in args and len(args) == 2:
            kind = next(a for a in args if a is not type(None))
        if kind in (int, float, str, bool):
            keys[name] = kind
    return keys


_CONFIG_TYPES = typing.get_type_hints(PipelineConfig)
_TRAJECTORY_KEYS = {
    "m": "m_candidates", "t": "t_steps", "step_m": "step_m", "sweep_deg": "sweep_deg"
}
_SECTION_NAMES = {"style": "render"}  # where a section is not named after its field

# section -> (the nested dataclass field it sets, or None for PipelineConfig's
# own fields; {INI key: (field, scalar type)})
_INI_SCHEMA = {
    "pipeline": (None, {
        k: (k, t)
        for k, t in _ini_keys(PipelineConfig).items()
        if k not in _TRAJECTORY_KEYS.values()
    }),
    "trajectory": (None, {k: (f, _CONFIG_TYPES[f]) for k, f in _TRAJECTORY_KEYS.items()}),
    **{
        _SECTION_NAMES.get(f, f): (f, {k: (k, t) for k, t in _ini_keys(cls).items()})
        for f, cls in _CONFIG_TYPES.items()
        if dataclasses.is_dataclass(cls)
    },
}


def config_from_ini(path) -> PipelineConfig:
    """Build a PipelineConfig from an INI file; unknown keys are errors.

    Sections and keys come from the config dataclasses, and so do the
    defaults of keys the file leaves out."""
    parser = configparser.ConfigParser(interpolation=None)  # URLs may hold '%'
    text_path = Path(path)
    if not text_path.is_file():
        raise ConfigError(f"config file not found: {text_path}")
    try:
        parser.read_string(text_path.read_text(encoding="utf-8"), source=str(text_path))
    except configparser.Error as err:
        raise ConfigError(f"config: {err}") from err
    for key in parser.defaults():  # [DEFAULT] would leak into every section
        raise ConfigError(f"config: unknown key '{key}' in [DEFAULT]")

    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _INI_SCHEMA:
            raise ConfigError(f"config: unknown section [{section}]")
        owner, keys = _INI_SCHEMA[section]
        values = top if owner is None else nested.setdefault(owner, {})
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"config: unknown key '{key}' in [{section}]")
            name, kind = keys[key]
            try:
                values[name] = parser.getboolean(section, key) if kind is bool else kind(raw)
            except ValueError as err:
                raise ConfigError(f"config: bad value for [{section}] {key}: {raw!r}") from err
    try:
        return PipelineConfig(**top, **{f: _CONFIG_TYPES[f](**kw) for f, kw in nested.items()})
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
    """Stages 5-7 for one scene, motion and hint list; shared by questions."""

    scene: SandboxScene | None
    empty_error: str | None  # why fit_sandbox found no box, when it found none
    counts: tuple[tuple[str, int, int], ...]  # (label, lifted, kept), sorted by label
    skipped: int  # (view, object) pairs elevation could not lift
    # step-back and top-down views with read-only images: the boxes in full
    # mode, the consensus-kept points in proxy_render, else none
    renders: tuple[RenderedView, ...]
    coords_text: str | None  # serialize_text_coords(scene), when there is a scene


class _Once:
    """Single flight per key: the first caller for a key loads it; later
    callers wait for that result. A failed load is not cached and raises in
    every waiter. `drop` forgets a key, so its next caller loads it again."""

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
                    if self._table.get(key) is future:  # not dropped meanwhile
                        del self._table[key]
                future.set_exception(err)
                raise
        return future.result()

    def drop(self, key) -> None:
        """Forget `key`; a caller already waiting on it still gets its result."""
        with self._lock:
            self._table.pop(key, None)


class PngMemo:
    """`png_bytes` that encodes each distinct image once.

    The key is the image's shape, dtype and `image_digest` (the sha256 of its
    C-contiguous pixels), and `png_bytes` is a pure function of those, so a
    hit returns the bytes a fresh encode would. A frozen image is hashed once
    however often it is sent; any other array is hashed on every call.
    Concurrent callers for one image share a single encode; a failed encode
    is not cached. Entries live as long as the memo: each is the compressed
    form of pixels its callers already hold."""

    def __init__(self):
        self._encoded = _Once()

    def __call__(self, image: np.ndarray) -> bytes:
        img = np.asarray(image)
        key = (img.shape, img.dtype.str, image_digest(img))
        return self._encoded.get(key, lambda: png_bytes(img))


@dataclass(eq=False)
class SceneContext:
    """What the questions about one scene share.

    `sandbox` builds stages 5-7 once per (config, motion, tuple(hints)) key.
    `png_memo` encodes every image artifact (and, in `run_eval` and
    `sandbox3d run`, every HTTP image part). The images the scene owns (rig
    views, bundle frames and the sandbox renders) are frozen where they are
    made, so the memo and the prompt transcript hash each one once for all
    the scene's questions. `views_dir` picks the layout of
    stages 1-3's view artifacts: with None they go into each record's own
    tree, the input view before the direction query; with a directory they
    are written once per motion into `views_dir/<motion>`, and each record
    gets a `views.json` pointer there. Everything lives as long as the
    context."""

    views_dir: Path | None = None
    png_memo: PngMemo = field(default_factory=PngMemo)
    _sandboxes: _Once = field(default_factory=_Once, init=False, repr=False)
    _views: _Once = field(default_factory=_Once, init=False, repr=False)

    def sandbox(self, key: tuple, build: Callable[[], SceneSandbox]) -> SceneSandbox:
        return self._sandboxes.get(key, build)

    def write_input(self, art: _Artifacts, input_view: ViewFrame) -> None:
        """Before the direction query, so a record whose query fails keeps it."""
        if self.views_dir is None:
            _write_views(art, [input_view])

    def write_views(self, art: _Artifacts, motion: AbstractMotion, views, trajectories) -> None:
        """`views` is the input view, then the synthesized ones."""
        if self.views_dir is None:
            _write_views(art, views[1:], trajectories)
        elif art.enabled:
            shared = self.views_dir / motion.value
            self._views.get(
                motion,
                lambda: _write_views(_Artifacts(shared, self.png_memo), views, trajectories),
            )
            art.json("views.json", {"dir": Path(os.path.relpath(shared, art.root)).as_posix()})


@dataclass
class ProviderSet:
    """Everything run_pipeline needs about one scene. Each ProviderSet made
    without a `scene` gets its own context, so questions asked through one
    ProviderSet share its sandboxes and encodes. `dataclasses.replace` keeps
    the context: give a copy with other scene providers a fresh one."""

    input_view: ViewFrame
    generator: MultiViewGenerator
    segmenter: Segmenter
    vlm: ChatVLM
    up_axis: np.ndarray
    scene: SceneContext = field(default_factory=SceneContext)


def bundle_providers(bundle: SceneBundle, vlm: ChatVLM, scene: SceneContext) -> ProviderSet:
    """The stored frames and masks of a loaded bundle as providers."""
    return ProviderSet(
        input_view=bundle.input_view(),
        generator=BundleMultiViewGenerator(bundle.frames_by_view()),
        segmenter=BundleSegmenter(bundle.masks),
        vlm=vlm,
        up_axis=bundle.up_axis,
        scene=scene,
    )


def _bounds_from_scene(scene: dict) -> WorldBounds:
    spec = scene.get("bounds")
    if spec is None:
        return WorldBounds()
    try:
        return bounds_from_dict(spec)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"scene bounds: {err}") from err


def scene_id(spec: dict) -> str:
    """The one name of a benchmark scene: its spec as canonical JSON. Two
    specs are one scene only if they are equal, key order aside."""
    return json.dumps(spec, sort_keys=True)


class SceneCache:
    """Scene-side state shared across an eval's records: one entry per
    (`scene_id`, views directory), made once, holding the scene's
    `ProviderSet` less its VLM, with a `SceneContext` on the eval's
    `PngMemo`, and the rig the geometry mock reads (None for a bundle). A
    bundle scene's entry goes when `release` is called for it; a synthetic
    scene's stays as long as the cache. With `vlm = http` the one client
    every record shares is built here, so a missing endpoint raises
    `ConfigError` before any record runs."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.png_memo = PngMemo()
        self._scenes = _Once()
        # The client holds the memo itself, never this cache: a reference
        # back would make a cycle that outlives run_eval until a gc pass.
        self._http_vlm = None
        if config.vlm == "http":
            self._http_vlm = HttpChatVlm(
                base_url=config.base_url, model=config.model, encode_png=self.png_memo
            )

    def providers_for(
        self, record: QARecord, index: int, views_dir: Path | None = None
    ) -> ProviderSet:
        """The record's providers; with `views_dir`, its view artifacts go
        once per motion beneath that directory (see `SceneContext`)."""

        def load():
            spec = record.scene
            kind = spec.get("kind")
            scene = SceneContext(views_dir, self.png_memo)
            if kind == "bundle":
                return bundle_providers(load_bundle(str(spec["path"])), None, scene), None
            if kind != "synthetic":
                raise ConfigError(f"record {record.qid}: unknown scene kind {kind!r}")
            world = generate_world(
                int(spec["seed"]), int(spec["objects"]), _bounds_from_scene(spec)
            )
            sp = SyntheticSceneProvider(world)
            providers = ProviderSet(
                sp.input_view(), sp.generator, sp.segmenter, None, sp.world.up_axis, scene
            )
            return providers, sp.rig

        providers, rig = self._scenes.get((scene_id(record.scene), views_dir), load)
        return dataclasses.replace(providers, vlm=self._vlm_for(record, index, rig))

    def release(self, record: QARecord, views_dir: Path | None = None) -> None:
        """Forget the record's scene if it is a bundle, whose decoded frames
        and masks are large; a later `providers_for` loads it again. A
        synthetic scene is kept: releasing those measured slower, since the
        next scene faults the trimmed heap back in."""
        if record.scene.get("kind") == "bundle":
            self._scenes.drop((scene_id(record.scene), views_dir))

    def _vlm_for(self, record: QARecord, index: int, rig: SyntheticRig | None):
        if self.config.vlm == "random_mock":
            return RandomMockVlm(seed=self.config.seed + index)
        if self.config.vlm == "geometry_mock":
            if rig is None:
                raise ConfigError("geometry_mock requires synthetic scenes")
            return GeometryMockVlm(rig, record.payload or None)
        return self._http_vlm


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
    are encoded by `encode_png`."""

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
        path.write_bytes(self.encode_png(image))

    def depth(self, name: str, values: np.ndarray) -> None:
        if self.root is None:
            return
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        write_depth_raw(path, values)


def _write_views(art: _Artifacts, frames, trajectories=None) -> None:
    """Stages 1-3's artifacts: `views/<tag>.{png,f32}` for each frame (the
    input view's tag is `input`) and, when given, `trajectories.json`."""
    if not art.enabled:
        return
    if trajectories is not None:
        art.json(
            "trajectories.json",
            [
                {
                    "m": spec.trajectory_index,
                    "heading_deg": spec.heading_deg,
                    "poses": [pose_to_floats(p) for p in spec.poses],
                }
                for spec in trajectories
            ],
        )
    for frame in frames:
        art.image(f"views/{frame.view_id.tag()}.png", frame.image)
        art.depth(f"views/{frame.view_id.tag()}.f32", frame.depth.values)


_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def _safe(name: str) -> str:
    return _SAFE_NAME.sub("_", name)


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


def _stepback(input_view: ViewFrame, config: PipelineConfig) -> PerspectiveCamera:
    return PerspectiveCamera(
        stepback_camera(input_view.pose, config.stepback_m), input_view.intrinsics
    )


def _point_renders(cloud, labels, config, input_view, up_axis) -> tuple[RenderedView, ...]:
    """Step-back and top-down splats of `cloud`, legend ids per `labels`."""
    cameras = (
        _stepback(input_view, config),
        topdown_camera_for_points(cloud.xyz, input_view.pose, up_axis),
    )
    return tuple(
        render_points(
            cloud, cam, config.style, labels=labels, origin=input_view.pose, up_axis=up_axis
        )
        for cam in cameras
    )


def build_scene_sandbox(
    config: PipelineConfig,
    input_view: ViewFrame,
    frames,
    hints,
    segmenter,
    up_axis: np.ndarray,
) -> SceneSandbox:
    """Stages 5-7: proxy elevation over the input view plus every synthesized
    view, consensus voting once per label, clustering and box fitting, then
    `config.mode`'s renders and the coordinate text.

    Elevation failures for one (view, object) pair are counted, not raised;
    an empty box scene is kept as the EmptySandboxError text. Whether the
    question degrades is `run_pipeline`'s call.
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

    # (7) the mode's context, read-only because every question shares it
    renders: tuple[RenderedView, ...] = ()
    coords_text = None
    if scene is not None:
        coords_text = serialize_text_coords(scene)
        if config.mode == "full":
            renders = (
                render_boxes(scene, _stepback(input_view, config), config.style),
                render_boxes(scene, topdown_camera(scene), config.style),
            )
    if config.mode == "proxy_render":
        merged = merge_clouds(kept.values())
        if len(merged):
            labels = {h.object_id: h.label for h in hints}
            renders = _point_renders(merged, labels, config, input_view, up_axis)
    for render in renders:
        freeze(render.image)
    return SceneSandbox(scene, empty_error, counts, skipped, renders, coords_text)


def run_pipeline(
    config: PipelineConfig,
    providers: ProviderSet,
    question: str,
    choices,
    qid: str = "scene",
    out_dir=None,
) -> PipelineResult:
    """Run the nine pipeline stages for one question against one scene."""
    scene = providers.scene
    art = _Artifacts(out_dir, scene.png_memo)
    if art.enabled:
        art.json("config.json", dataclasses.asdict(config))
    input_view = providers.input_view
    vlm = providers.vlm
    mode = config.mode
    degradations: list[str] = []
    notes: list[str] = []
    calls = 0

    scene.write_input(art, input_view)

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

    # (3) multi-view generation; missing bundle frames drop their trajectory
    frames: list[ViewFrame] = []
    for spec in trajectories:
        try:
            frames.extend(providers.generator.generate(input_view, spec))
        except MissingViewError as err:
            degradations.append(str(err))
    scene.write_views(art, motion, [input_view, *frames], trajectories)

    if mode != "mv_only" and len(frames) < 2:
        if degradations:
            notes.append("fewer than 2 synthesized views; multi-view-only with original frame")
            mode = "mv_only"
            frames = []
        # With no degradations this means M*T < 2 by configuration; proceed.

    hints: list[ObjectHint] = []
    renders: tuple[RenderedView, ...] = ()
    coords_text = None

    needs_hints = mode in ("full", "text_coords", "proxy_render")
    if needs_hints:
        # (4) object-hint query on the original view
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
        # (5)-(7) proxy elevation, consensus voting, box fitting, mode context
        build = partial(
            build_scene_sandbox,
            config, input_view, frames, hints, providers.segmenter, providers.up_axis,
        )
        sandbox = scene.sandbox((config, motion, tuple(hints)), build)
        if sandbox.skipped:
            notes.append(f"elevation skipped {sandbox.skipped} (view, object) pairs")
        if sandbox.empty_error is not None and mode in ("full", "text_coords"):
            degradations.append(f"empty sandbox: {sandbox.empty_error}")
            mode = "mv_only"
        elif mode == "proxy_render" and not sandbox.renders:
            degradations.append("no proxy points survived consensus voting")
            mode = "mv_only"
        art.json(
            "proxies.json",
            {label: {"lifted": lifted, "kept": kept} for label, lifted, kept in sandbox.counts},
        )
        if sandbox.coords_text is not None:
            art.text("sandbox.json", sandbox.coords_text)
        renders, coords_text = sandbox.renders, sandbox.coords_text
    elif mode == "pointcloud_render":
        # (7) depth-lifted cloud of the input and synthesized views
        dense, labels = _dense_cloud([input_view, *frames], config.pointcloud_stride)
        if len(dense) == 0:
            degradations.append("depth maps produced no valid points")
            mode = "mv_only"
        else:
            renders = _point_renders(dense, labels, config, input_view, providers.up_axis)
    for suffix, render in zip(("stepback", "topdown"), renders):
        art.image(f"{_safe(qid)}_{suffix}.png", render.image)

    # (8) final prompt
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

    # (9) answer
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


class _CallingThread(Executor):
    """One worker: `submit` runs the task at once on the calling thread and
    returns its done future; an exception leaves `submit` itself. Not a
    one-thread pool, which starts a fresh thread per eval, and glibc may give
    it a new malloc arena whose freed memory stays resident (a sporadic
    +40 MB peak RSS over repeated evals)."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def run_eval(config: PipelineConfig, benchmark_path, out_dir=None) -> RunReport:
    """Score every benchmark record; single-record failures never abort.

    Rows keep benchmark order. What the records of a scene share, how long
    a scene is held and how records are scheduled are set out in the module
    docstring."""
    try:
        records = read_benchmark(benchmark_path)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        raise ConfigError(f"benchmark: {err}") from err
    if not records:
        raise ConfigError("benchmark: no records")
    if config.vlm == "geometry_mock" and any(
        r.scene.get("kind") != "synthetic" for r in records
    ):
        raise ConfigError("geometry_mock requires synthetic scenes")

    numbers: dict[str, int] = {}  # per scene_id, in order of first appearance
    scene_of = [numbers.setdefault(scene_id(r.scene), len(numbers)) for r in records]
    out_root = Path(out_dir) if out_dir is not None else None
    scene_dirs = None  # per record: scenes/<n>
    if out_root is not None and config.eval_artifacts:
        scene_dirs = [out_root / "scenes" / str(n) for n in scene_of]
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
        record_dir = views_dir = None
        if scene_dirs is not None:
            record_dir = out_root / "records" / _safe(record.qid)
            views_dir = scene_dirs[index]
        try:
            providers = cache.providers_for(record, index, views_dir)
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

    scenes: dict[int, list[int]] = {}  # scene number -> its record indices, in order
    for i, n in enumerate(scene_of):
        scenes.setdefault(n, []).append(i)
    unfinished = {n: len(g) for n, g in scenes.items()}

    def finished(index: int) -> None:
        """On the calling thread, after each record: frees a bundle scene
        once the last of its records is done."""
        n = scene_of[index]
        unfinished[n] -= 1
        if not unfinished[n]:
            cache.release(records[index], None if scene_dirs is None else scene_dirs[index])

    max_workers = config.parallelism or os.cpu_count() or 1
    pool = ThreadPoolExecutor(max_workers) if max_workers > 1 else _CallingThread()

    def run_scene(first: int, rest: list[int]):
        # The siblings start only now, so none waits in a worker for the
        # first record's bundle load, view write or sandbox build.
        row = work(first, records[first])
        return row, [pool.submit(work, i, records[i]) for i in rest]

    rows = [None] * len(records)
    unopened = iter(scenes.values())
    # future -> (its record, the siblings a first record submits, or None
    # for a sibling)
    outstanding: dict[Future, tuple[int, list[int] | None]] = {}
    try:
        while True:
            # A scene opens only while a worker would otherwise idle, so open
            # scenes' siblings go first. Every open scene keeps a task
            # outstanding, so at most max_workers scenes are open.
            while len(outstanding) < max_workers and (g := next(unopened, None)):
                outstanding[pool.submit(run_scene, g[0], g[1:])] = (g[0], g[1:])
            if not outstanding:
                break
            done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in done:
                i, rest = outstanding.pop(future)
                if rest is None:
                    rows[i] = future.result()
                else:
                    rows[i], siblings = future.result()
                    outstanding.update((f, (j, None)) for f, j in zip(siblings, rest))
                finished(i)
    finally:
        # Nothing is queued here unless a BaseException cut the loop short;
        # then drop the queue and join the workers.
        pool.shutdown(cancel_futures=True)

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
