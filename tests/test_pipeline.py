from __future__ import annotations

import dataclasses
import gc
import json
import re
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from sandbox3d import pipeline
from sandbox3d.bundle import write_bundle
from sandbox3d.errors import BundleFormatError, ConfigError, HintParseError
from sandbox3d.pipeline import (
    MODES,
    PipelineConfig,
    ProviderSet,
    SceneCache,
    SceneContext,
    _box_yaw_deg,
    compose_prompt,
    config_from_ini,
    load_prompt,
    run_eval,
    run_pipeline,
    serialize_text_coords,
)
from sandbox3d.providers import (
    BundleMultiViewGenerator,
    GeometryMockVlm,
    ImagePart,
    RandomMockVlm,
    ScriptedVlm,
    SyntheticSceneProvider,
    TextPart,
    parse_object_hints,
)
from sandbox3d.qa import QARecord, write_benchmark
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    InstanceMask,
    OrientedBox3,
    SandboxScene,
)
from sandbox3d.synthetic_world import (
    BENCHMARK_BOUNDS,
    build_benchmark,
    generate_questions,
    generate_world,
)
from sandbox3d.trajectory_control import AbstractMotion, instantiate_trajectories
from sandbox3d.voting_clustering import ClusterParams

_UP = np.array([0.0, -1.0, 0.0])

QUESTION = "If you walk forward 1 meter, which object is closer?"
CHOICES = ("alpha", "beta", "gamma", "delta")


# ── Configuration ──────────────────────────────────────────────────────────


def _write_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_config_empty_ini_gives_defaults(tmp_path):
    cfg = config_from_ini(_write_ini(tmp_path, ""))
    assert cfg == PipelineConfig()


def test_readme_config_block_shows_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    text = "\n".join(line.split(";", 1)[0].rstrip() for line in block.splitlines())
    assert config_from_ini(_write_ini(tmp_path, text)) == PipelineConfig()


def test_config_all_sections_parsed(tmp_path):
    cfg = config_from_ini(
        _write_ini(
            tmp_path,
            """
[pipeline]
mode = text_coords
seed = 7
vlm = random_mock
base_url = http://localhost:9
model = test-model
parallelism = 2
stepback_m = 1.5
pointcloud_stride = 4
outlier_filter = yes
eval_artifacts = true

[trajectory]
m = 2
t = 3
step_m = 0.5
sweep_deg = 30

[elevation]
n_pts = 12
erosion_iterations = 0

[consensus]
delta = 0.2
n_agree = 1

[cluster]
eps = 0.25
min_pts = 4
min_cluster_size = 6
min_extent = 0.02

[render]
width = 128
height = 96
line_width = 2
point_size = 3
draw_axes = no

[decode]
temperature = 0.5
max_tokens = 128
""",
        )
    )
    assert cfg.mode == "text_coords"
    assert cfg.seed == 7
    assert cfg.vlm == "random_mock"
    assert cfg.base_url == "http://localhost:9"
    assert cfg.model == "test-model"
    assert cfg.parallelism == 2
    assert cfg.stepback_m == 1.5
    assert cfg.pointcloud_stride == 4
    assert cfg.outlier_filter is True
    assert cfg.eval_artifacts is True
    assert (cfg.m_candidates, cfg.t_steps) == (2, 3)
    assert (cfg.step_m, cfg.sweep_deg) == (0.5, 30.0)
    assert (cfg.elevation.n_pts, cfg.elevation.erosion_iterations) == (12, 0)
    assert (cfg.consensus.delta, cfg.consensus.n_agree) == (0.2, 1)
    assert cfg.cluster == ClusterParams(eps=0.25, min_pts=4, min_cluster_size=6, min_extent=0.02)
    assert (cfg.style.width, cfg.style.height) == (128, 96)
    assert (cfg.style.line_width, cfg.style.point_size) == (2, 3)
    assert cfg.style.draw_axes is False
    assert (cfg.decode.temperature, cfg.decode.max_tokens) == (0.5, 128)


def test_config_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_ini(_write_ini(tmp_path, "[extras]\nfoo = 1\n"))


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\neps = 0.3\n",
        "[DEFAULT]\neps = 0.3\n[cluster]\n",
        "[DEFAULT]\neps = 0.3\n[cluster]\n[pipeline]\n",
    ],
    ids=["alone", "with_cluster", "with_pipeline"],
)
def test_config_default_section_keys_rejected(tmp_path, text):
    # configparser would hand [DEFAULT] keys to every section
    with pytest.raises(ConfigError, match=r"unknown key 'eps' in \[DEFAULT\]"):
        config_from_ini(_write_ini(tmp_path, text))


def test_config_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_ini(_write_ini(tmp_path, "[pipeline]\nspeed = fast\n"))


def test_config_unknown_vlm_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown vlm provider 'scripted'"):
        config_from_ini(_write_ini(tmp_path, "[pipeline]\nvlm = scripted\n"))


def test_config_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        config_from_ini(_write_ini(tmp_path, "[trajectory]\nm = three\n"))


def test_config_invalid_param_combination_wrapped(tmp_path):
    # delta parses as a float but ConsensusParams rejects it
    with pytest.raises(ConfigError):
        config_from_ini(_write_ini(tmp_path, "[consensus]\ndelta = -1\n"))


def test_config_values_keep_percent_signs(tmp_path):
    # URLs carry %-escapes; configparser's interpolation would reject them
    cfg = config_from_ini(_write_ini(tmp_path, "[pipeline]\nbase_url = http://x/a%20b\n"))
    assert cfg.base_url == "http://x/a%20b"


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        config_from_ini(tmp_path / "nope.ini")


def test_pipeline_config_validation():
    with pytest.raises(ConfigError, match="mode"):
        PipelineConfig(mode="telepathy")
    with pytest.raises(ConfigError):
        PipelineConfig(m_candidates=0)
    with pytest.raises(ConfigError):
        PipelineConfig(pointcloud_stride=0)
    assert PipelineConfig(m_candidates=2, t_steps=3).max_views == 6


def test_load_prompt_templates():
    system = load_prompt("system_answer")
    direction = load_prompt("direction_query")
    hints = load_prompt("object_hints")
    assert system and direction and hints
    assert "{question}" in direction
    assert direction.format(question="where?").count("where?") >= 1
    assert "{width}" in hints and "{height}" in hints
    assert load_prompt("system_answer") is system  # cached


# ── Scene serialization ────────────────────────────────────────────────────


def _axes_with_first(a0):
    a0 = np.asarray(a0, dtype=np.float64)
    a0 = a0 / np.linalg.norm(a0)
    a1 = np.array([0.0, 1.0, 0.0])
    a2 = np.cross(a0, a1)
    return np.column_stack([a0, a1, a2])


def test_box_yaw_folds_to_half_turn():
    origin = CameraPose.identity()
    s30, c30 = np.sin(np.radians(30.0)), np.cos(np.radians(30.0))
    # first axis 30 degrees to the right of camera forward
    assert _box_yaw_deg(_axes_with_first([s30, 0.0, c30]), origin, _UP) == pytest.approx(30.0)
    # 120 degrees is the same line as -60 degrees
    s120, c120 = np.sin(np.radians(120.0)), np.cos(np.radians(120.0))
    assert _box_yaw_deg(_axes_with_first([s120, 0.0, c120]), origin, _UP) == pytest.approx(-60.0)


def test_box_yaw_vertical_axis_is_zero():
    vertical = np.column_stack(
        [np.array([0.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])]
    )
    assert _box_yaw_deg(vertical, CameraPose.identity(), _UP) == 0.0


def test_serialize_text_coords_hand_case():
    origin = CameraPose(np.eye(3), np.array([0.0, -1.6, 0.0]))
    k = CameraIntrinsics.from_hfov(256, 256, 90.0)
    s30, c30 = np.sin(np.radians(30.0)), np.cos(np.radians(30.0))
    box0 = OrientedBox3(
        np.array([0.337, -0.25, 3.004]),
        _axes_with_first([s30, 0.0, c30]),
        np.array([0.15, 0.25, 0.2]),
        "chair",
        0,
    )
    box1 = OrientedBox3(
        np.array([-1.0, -0.5, 5.0]), np.eye(3), np.array([0.5, 0.5, 0.5]), "table", 1
    )
    # boxes deliberately out of id order; output must sort by instance_id
    scene = SandboxScene((box1, box0), origin, k, up_axis=_UP)
    text = serialize_text_coords(scene)
    payload = json.loads(text)
    assert "x right, y down, z forward" in payload["convention"]
    first, second = payload["boxes"]
    assert first == {
        "label": "chair",
        "instance_id": 0,
        "center": [0.34, 1.35, 3.0],  # world minus camera translation, 2 decimals
        "size": [0.3, 0.5, 0.4],
        "yaw_deg": 30.0,
    }
    assert second["instance_id"] == 1 and second["center"] == [-1.0, 1.1, 5.0]
    assert second["yaw_deg"] == -90.0  # first axis is +x: +90 folds into [-90, 90)
    assert text == serialize_text_coords(scene)  # deterministic
    assert text.index('"boxes"') < text.index('"convention"')  # sorted keys


# ── Prompt composition ─────────────────────────────────────────────────────


def _frame(vid=None):
    from sandbox3d.scene_model import DepthGrid, ViewFrame, ViewId

    k = CameraIntrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    image = np.zeros((6, 8, 3), dtype=np.uint8)
    return ViewFrame(
        image,
        DepthGrid(np.ones((6, 8))),
        k,
        CameraPose.identity(),
        ViewId(-1, -1) if vid is None else vid,
    )


def _texts(turn):
    return [p.text for p in turn.parts if isinstance(p, TextPart)]


def _n_images(turn):
    return sum(isinstance(p, ImagePart) for p in turn.parts)


def _demo_renders():
    from sandbox3d.sandbox_render import render_boxes, stepback_camera, topdown_camera
    from sandbox3d.sandbox_render import PerspectiveCamera, RenderStyle

    k = CameraIntrinsics.from_hfov(64, 64, 90.0)
    box = OrientedBox3(np.array([0.0, -0.25, 3.0]), np.eye(3), np.full(3, 0.25), "chair", 0)
    scene = SandboxScene((box,), CameraPose.identity(), k, up_axis=_UP)
    style = RenderStyle(width=64, height=64)
    stepback = render_boxes(scene, PerspectiveCamera(stepback_camera(scene.origin_pose, 2.0), k), style)
    topdown = render_boxes(scene, topdown_camera(scene), style)
    return stepback, topdown


def test_compose_prompt_full_mode():
    renders = _demo_renders()
    turns = compose_prompt(QUESTION, CHOICES, _frame(), renders=renders, mode="full")
    assert [t.role for t in turns] == ["system", "user"]
    assert _texts(turns[0]) == [load_prompt("system_answer")]
    texts = _texts(turns[1])
    assert texts[0] == "Original view:"
    assert texts[1].startswith("Step-back render of the abstract 3D boxes")
    assert texts[2].startswith("Legend:\n- red: chair (instance 0)")
    assert texts[3].startswith("Top-down map of the abstract 3D boxes")
    assert texts[4].startswith("Legend:\n")
    assert "Scale: 1 px = " in texts[4]
    assert texts[-1] == (
        f"Question: {QUESTION}\nChoices:\nA. alpha\nB. beta\nC. gamma\nD. delta"
    )
    assert _n_images(turns[1]) == 3  # original + two renders


def test_compose_prompt_mv_only():
    from sandbox3d.scene_model import ViewId

    extra = (_frame(ViewId(0, 0)), _frame(ViewId(0, 1)))
    turns = compose_prompt(QUESTION, CHOICES, _frame(), mode="mv_only", extra_frames=extra)
    texts = _texts(turns[1])
    assert texts[1] == "Synthesized view m0t0:"
    assert texts[2] == "Synthesized view m0t1:"
    assert _n_images(turns[1]) == 3


def test_compose_prompt_text_coords():
    coords = '{"boxes": []}'
    turns = compose_prompt(QUESTION, CHOICES, _frame(), mode="text_coords", coords_text=coords)
    texts = _texts(turns[1])
    assert texts[1] == "3D scene description:\n" + coords
    assert _n_images(turns[1]) == 1


def test_compose_prompt_missing_context_rejected():
    with pytest.raises(ValueError, match="coords_text"):
        compose_prompt(QUESTION, CHOICES, _frame(), mode="text_coords")
    with pytest.raises(ValueError, match="renders"):
        compose_prompt(QUESTION, CHOICES, _frame(), mode="full")
    with pytest.raises(ValueError, match="unknown mode"):
        compose_prompt(QUESTION, CHOICES, _frame(), mode="hologram")
    assert set(MODES) == {"full", "mv_only", "text_coords", "proxy_render", "pointcloud_render"}


# ── Pipeline runs against the analytic world ───────────────────────────────


@pytest.fixture(scope="module")
def sp():
    return SyntheticSceneProvider(generate_world(3, 2, BENCHMARK_BOUNDS))


def _providers(sp, vlm, generator=None):
    return ProviderSet(
        input_view=sp.input_view(),
        generator=sp.generator if generator is None else generator,
        segmenter=sp.segmenter,
        vlm=vlm,
        up_axis=sp.world.up_axis,
    )


def _hint_reply(sp):
    rows = []
    for idx, cub in enumerate(sp.world.cuboids):
        ys, xs = np.nonzero(sp.rig.mask_bits(sp.world.input_pose, idx))
        mid = len(xs) // 2
        rows.append({"label": cub.label, "x": int(xs[mid]), "y": int(ys[mid])})
    return json.dumps(rows)


_CFG = PipelineConfig(cluster=ClusterParams(eps=0.25))

_ANSWER_B = "<answer> B </answer>"


def test_run_pipeline_full_happy_path(tmp_path, sp):
    vlm = ScriptedVlm(["forward", _hint_reply(sp), _ANSWER_B])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES, qid="q0", out_dir=tmp_path)

    assert result.answer == "B"
    assert result.mode_requested == "full" and result.mode_used == "full"
    assert result.vlm_calls == 3
    assert result.error is None and not result.failed
    assert result.degradations == ()
    assert result.motion == "forward" and result.defaulted_motion is False

    for name in (
        "config.json",
        "direction_raw.txt",
        "direction.json",
        "trajectories.json",
        "hints_raw.txt",
        "hints.json",
        "proxies.json",
        "sandbox.json",
        "q0_stepback.png",
        "q0_topdown.png",
        "prompt.txt",
        "answer_raw.txt",
        "result.json",
    ):
        assert (tmp_path / name).is_file(), name
    assert (tmp_path / "views" / "input.png").is_file()
    assert (tmp_path / "views" / "input.f32").is_file()
    tags = [f"m{m}t{t}" for m in range(3) for t in range(4)]
    for tag in tags:
        assert (tmp_path / "views" / f"{tag}.png").is_file()
        assert (tmp_path / "views" / f"{tag}.f32").is_file()

    direction = json.loads((tmp_path / "direction.json").read_text())
    assert direction == {"motion": "forward", "defaulted": False}
    trajectories = json.loads((tmp_path / "trajectories.json").read_text())
    assert [t["m"] for t in trajectories] == [0, 1, 2]
    assert all(len(t["poses"]) == 4 and len(t["poses"][0]) == 16 for t in trajectories)
    hints = json.loads((tmp_path / "hints.json").read_text())
    assert [h["id"] for h in hints] == [0, 1]
    assert {h["label"] for h in hints} == {c.label for c in sp.world.cuboids}
    proxies = json.loads((tmp_path / "proxies.json").read_text())
    for label, counts in proxies.items():
        assert counts["lifted"] >= counts["kept"] > 0
    sandbox = json.loads((tmp_path / "sandbox.json").read_text())
    assert len(sandbox["boxes"]) == 2
    assert {b["label"] for b in sandbox["boxes"]} == {c.label for c in sp.world.cuboids}
    saved = json.loads((tmp_path / "result.json").read_text())
    assert saved["answer"] == "B" and saved["mode_used"] == "full" and saved["vlm_calls"] == 3

    prompt = (tmp_path / "prompt.txt").read_text()
    assert prompt.startswith("=== system ===")
    for needle in ("Original view:", "Step-back render", "Top-down map", "Question:"):
        assert needle in prompt

    assert len(vlm.calls) == 3
    assert QUESTION in vlm.calls[0][0].parts[0].text  # direction query names the question
    assert "256" in vlm.calls[1][0].parts[0].text  # hint query states image size


def test_run_pipeline_without_out_dir(sp):
    vlm = ScriptedVlm(["forward", _hint_reply(sp), _ANSWER_B])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES)
    assert result.answer == "B" and result.mode_used == "full"


def test_run_pipeline_mv_only(tmp_path, sp):
    cfg = PipelineConfig(mode="mv_only")
    vlm = ScriptedVlm(["forward", "<answer> A </answer>"])
    result = run_pipeline(cfg, _providers(sp, vlm), QUESTION, CHOICES, qid="q1", out_dir=tmp_path)
    assert result.answer == "A" and result.mode_used == "mv_only"
    assert result.vlm_calls == 2  # no hint query
    assert not (tmp_path / "hints_raw.txt").exists()
    assert not (tmp_path / "sandbox.json").exists()
    assert not (tmp_path / "q1_stepback.png").exists()
    # final prompt carries the original plus all 12 synthesized frames
    assert _n_images(vlm.calls[-1][1]) == 13
    assert "Synthesized view m0t0:" in _texts(vlm.calls[-1][1])


def test_run_pipeline_text_coords(tmp_path, sp):
    cfg = PipelineConfig(mode="text_coords", cluster=ClusterParams(eps=0.25))
    vlm = ScriptedVlm(["forward", _hint_reply(sp), "<answer> C </answer>"])
    result = run_pipeline(cfg, _providers(sp, vlm), QUESTION, CHOICES, qid="q2", out_dir=tmp_path)
    assert result.answer == "C" and result.mode_used == "text_coords"
    assert result.vlm_calls == 3
    assert (tmp_path / "sandbox.json").is_file()
    assert not (tmp_path / "q2_stepback.png").exists()
    texts = _texts(vlm.calls[-1][1])
    assert any(t.startswith("3D scene description:") for t in texts)
    assert _n_images(vlm.calls[-1][1]) == 1


def test_run_pipeline_proxy_render(tmp_path, sp):
    cfg = PipelineConfig(mode="proxy_render", cluster=ClusterParams(eps=0.25))
    vlm = ScriptedVlm(["forward", _hint_reply(sp), _ANSWER_B])
    result = run_pipeline(cfg, _providers(sp, vlm), QUESTION, CHOICES, qid="q3", out_dir=tmp_path)
    assert result.answer == "B" and result.mode_used == "proxy_render"
    assert (tmp_path / "q3_stepback.png").is_file()
    assert (tmp_path / "q3_topdown.png").is_file()
    texts = _texts(vlm.calls[-1][1])
    assert any("proxy points" in t for t in texts)


def test_run_pipeline_pointcloud_render(tmp_path, sp):
    cfg = PipelineConfig(mode="pointcloud_render")
    vlm = ScriptedVlm(["forward", "<answer> D </answer>"])
    result = run_pipeline(cfg, _providers(sp, vlm), QUESTION, CHOICES, qid="q4", out_dir=tmp_path)
    assert result.answer == "D" and result.mode_used == "pointcloud_render"
    assert result.vlm_calls == 2  # depth lifting needs no hint query
    assert not (tmp_path / "hints_raw.txt").exists()
    assert (tmp_path / "q4_stepback.png").is_file()
    assert (tmp_path / "q4_topdown.png").is_file()
    texts = _texts(vlm.calls[-1][1])
    assert any("lifted point cloud" in t for t in texts)


def test_hint_parse_failure_degrades_to_mv_only(tmp_path, sp):
    vlm = ScriptedVlm(["forward", "there are no objects here", "<answer> A </answer>"])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES, qid="q5", out_dir=tmp_path)
    assert result.answer == "A"
    assert result.mode_requested == "full" and result.mode_used == "mv_only"
    assert result.vlm_calls == 3
    assert any(d.startswith("hint parse failed") for d in result.degradations)
    assert (tmp_path / "hints_raw.txt").is_file()
    assert not (tmp_path / "hints.json").exists()
    assert not (tmp_path / "sandbox.json").exists()


def test_hints_nested_too_deeply_degrade_to_mv_only(sp):
    # the decoder's depth limit is a hint parse failure, not a RecursionError
    reply = "[" * 1000
    with pytest.raises(HintParseError):
        parse_object_hints(reply, 256, 256)
    vlm = ScriptedVlm(["forward", reply, "<answer> A </answer>"])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES)
    assert result.error is None and result.answer == "A"
    assert result.mode_used == "mv_only"
    assert [d for d in result.degradations if d.startswith("hint parse failed")]


@pytest.mark.parametrize("x", ["1e999", "NaN", "-Infinity"])
def test_non_finite_hint_coordinates_degrade_to_mv_only(sp, x):
    reply = '[{"label": "%s", "x": %s, "y": 2}]' % (sp.world.cuboids[0].label, x)
    vlm = ScriptedVlm(["forward", reply, "<answer> A </answer>"])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES)
    assert result.error is None and result.answer == "A"
    assert result.mode_used == "mv_only"
    assert [d for d in result.degradations if d.startswith("hint parse failed")]


def test_background_hints_empty_sandbox_degrades(tmp_path, sp):
    # pixel (2, 2) is sky in every generated world: elevation finds nothing
    reply = json.dumps([{"label": sp.world.cuboids[0].label, "x": 2, "y": 2}])
    vlm = ScriptedVlm(["forward", reply, "<answer> A </answer>"])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES, qid="q6", out_dir=tmp_path)
    assert result.answer == "A" and result.mode_used == "mv_only"
    assert result.vlm_calls == 3
    assert any(d.startswith("empty sandbox") for d in result.degradations)
    assert any("elevation skipped 13" in n for n in result.notes)
    assert not (tmp_path / "sandbox.json").exists()


def test_provider_error_stages(sp):
    failed = run_pipeline(_CFG, _providers(sp, ScriptedVlm([])), QUESTION, CHOICES)
    assert failed.failed and failed.error == "direction_query"
    assert failed.answer is None and failed.vlm_calls == 0

    failed = run_pipeline(_CFG, _providers(sp, ScriptedVlm(["forward"])), QUESTION, CHOICES)
    assert failed.error == "hint_query" and failed.vlm_calls == 1
    assert "scripted VLM has no response queued" in failed.notes[-1]

    vlm = ScriptedVlm(["forward", _hint_reply(sp)])
    failed = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES)
    assert failed.error == "answer_query" and failed.vlm_calls == 2


def test_failed_direction_query_still_leaves_the_input_view(tmp_path, sp):
    result = run_pipeline(
        _CFG, _providers(sp, ScriptedVlm([])), QUESTION, CHOICES, out_dir=tmp_path
    )
    assert result.error == "direction_query"
    assert sorted(p.name for p in (tmp_path / "views").iterdir()) == ["input.f32", "input.png"]
    assert not (tmp_path / "views.json").exists()
    assert not (tmp_path / "trajectories.json").exists()


def test_render_names_are_file_names_in_the_out_dir(tmp_path, sp):
    # the CLI case, an id that climbs out of --out, is in test_cli.py
    cfg = dataclasses.replace(_CFG, mode="pointcloud_render")
    vlm = ScriptedVlm(["forward", "<answer> A </answer>"])
    assert run_pipeline(
        cfg, _providers(sp, vlm), QUESTION, CHOICES, qid="a/b", out_dir=tmp_path
    ).answer
    assert sorted(p.name for p in tmp_path.glob("*.png")) == ["a_b_stepback.png", "a_b_topdown.png"]
    assert not (tmp_path / "a").exists()


def test_answer_parse_failure_is_a_note_not_an_error(sp):
    vlm = ScriptedVlm(["forward", _hint_reply(sp), "hmm."])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES)
    assert result.answer is None and result.error is None
    assert any(n.startswith("answer parse failed") for n in result.notes)


def test_missing_views_degrade_to_mv_only(sp):
    vlm = ScriptedVlm(["forward", "<answer> A </answer>"])
    providers = _providers(sp, vlm, generator=BundleMultiViewGenerator({}))
    result = run_pipeline(_CFG, providers, QUESTION, CHOICES)
    assert result.mode_used == "mv_only"
    assert len(result.degradations) == 3  # one per dropped trajectory
    assert all("trajectory=" in d for d in result.degradations)
    assert any("fewer than 2 synthesized views" in n for n in result.notes)
    assert result.vlm_calls == 2 and result.answer == "A"
    assert _n_images(vlm.calls[-1][1]) == 1  # only the original frame survives


def test_unparseable_direction_defaults_forward(sp):
    vlm = ScriptedVlm(["just go", _hint_reply(sp), _ANSWER_B])
    result = run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES)
    assert result.motion == "forward" and result.defaulted_motion is True
    assert any("defaulted to forward" in n for n in result.notes)


# ── Evaluation harness ─────────────────────────────────────────────────────


def _bench_path(tmp_path, records, name="bench.jsonl"):
    path = tmp_path / name
    write_benchmark(records, path)
    return path


def test_run_eval_geometry_mock_scores_perfectly(tmp_path):
    path = _bench_path(tmp_path, build_benchmark(6))
    cfg = PipelineConfig(vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=2)
    report = run_eval(cfg, path, out_dir=tmp_path / "out")
    assert report.n == 6
    assert report.accuracy == 1.0
    assert report.failed == ()
    assert all(row.mode_used == "full" and row.vlm_calls == 3 for row in report.rows)

    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["mode"] == "full" and payload["n"] == 6
    assert payload["accuracy"] == 1.0
    assert len(payload["records"]) == 6
    assert payload["records"][0]["id"] == report.rows[0].qid

    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[0] == "mode,n,Average,EgoM,ObjectM,GoalAim,ActCons,Perspect"
    assert lines[1].startswith("full,6,1.0000")


def test_run_eval_random_mock_is_deterministic(tmp_path):
    path = _bench_path(tmp_path, build_benchmark(4))
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=2, seed=11)
    first = run_eval(cfg, path)
    second = run_eval(cfg, path)
    assert first.n == 4 and first.failed == ()
    assert [r.predicted for r in first.rows] == [r.predicted for r in second.rows]
    assert first.accuracy == second.accuracy
    assert set(first.by_category) <= {"EgoM", "ObjectM", "GoalAim", "ActCons", "Perspect"}


def test_run_eval_isolates_broken_records(tmp_path):
    good = build_benchmark(1)[0]
    bad_bundle = QARecord(
        qid="bad-bundle",
        scene={"kind": "bundle", "path": str(tmp_path / "missing")},
        question=QUESTION,
        choices=CHOICES,
        gold="A",
        category="EgoM",
    )
    bad_kind = QARecord(
        qid="bad-kind",
        scene={"kind": "telepathic"},
        question=QUESTION,
        choices=CHOICES,
        gold="A",
        category="EgoM",
    )
    path = _bench_path(tmp_path, [good, bad_bundle, bad_kind])
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=1)
    report = run_eval(cfg, path)
    assert report.n == 3
    by_qid = {r.qid: r for r in report.rows}
    assert by_qid[good.qid].error is None
    assert "BundleFormatError" in by_qid["bad-bundle"].error
    assert "ConfigError" in by_qid["bad-kind"].error
    assert set(report.failed) == {"bad-bundle", "bad-kind"}
    assert not by_qid["bad-bundle"].correct


def test_run_eval_rejects_unknown_vlm(tmp_path):
    path = _bench_path(tmp_path, build_benchmark(1))
    with pytest.raises(ConfigError, match="unknown vlm"):
        run_eval(PipelineConfig(vlm="scripted"), path)


def test_run_eval_geometry_mock_requires_synthetic_scenes(tmp_path):
    bundle_record = QARecord(
        qid="b0",
        scene={"kind": "bundle", "path": str(tmp_path / "b")},
        question=QUESTION,
        choices=CHOICES,
        gold="A",
        category="EgoM",
    )
    path = _bench_path(tmp_path, [bundle_record])
    with pytest.raises(ConfigError, match="synthetic"):
        run_eval(PipelineConfig(vlm="geometry_mock"), path)


def test_run_eval_rejects_empty_or_missing_benchmark(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="no records"):
        run_eval(PipelineConfig(vlm="random_mock"), empty)
    with pytest.raises(ConfigError, match="benchmark"):
        run_eval(PipelineConfig(vlm="random_mock"), tmp_path / "absent.jsonl")


def test_run_eval_names_a_benchmark_line_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 50000 + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="benchmark: JSON nested too deeply"):
        run_eval(PipelineConfig(vlm="random_mock"), path)


def test_run_eval_writes_per_record_artifacts(tmp_path):
    records = build_benchmark(2)
    path = _bench_path(tmp_path, records)
    cfg = PipelineConfig(
        mode="mv_only", vlm="random_mock", parallelism=1, eval_artifacts=True
    )
    out = tmp_path / "out"
    run_eval(cfg, path, out_dir=out)
    for record in records:
        assert (out / "records" / record.qid / "result.json").is_file()
    assert (out / "report.json").is_file() and (out / "report.csv").is_file()


def _bundle_record(path, qid="b0"):
    return QARecord(
        qid=qid,
        scene={"kind": "bundle", "path": str(path)},
        question=QUESTION,
        choices=CHOICES,
        gold="A",
        category="EgoM",
    )


class _StubBundle:
    """What `bundle_providers` reads of a loaded bundle."""

    masks: dict = {}
    up_axis = _UP

    def input_view(self):
        return None

    def frames_by_view(self):
        return {}


def test_scene_cache_loads_a_raced_bundle_once(monkeypatch):
    # each load waits for a second concurrent load (or 0.5 s), so two
    # threads that both miss the cache would both load
    loads = []
    second = {"scene": threading.Event(), "broken": threading.Event()}

    def slow_load(path):
        loads.append(path)
        if loads.count(path) > 1:
            second[path].set()
        second[path].wait(timeout=0.5)
        if path == "broken":
            raise BundleFormatError(f"{path}: unreadable")
        return _StubBundle()

    monkeypatch.setattr(pipeline, "load_bundle", slow_load)
    cache = SceneCache(PipelineConfig(vlm="random_mock"))

    def race(path):
        got = [None, None]

        def one(i):
            try:
                got[i] = cache.providers_for(_bundle_record(path), i).generator
            except BundleFormatError as err:
                got[i] = err

        threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        return got

    first, second_got = race("scene")
    assert loads == ["scene"]
    assert first is second_got and first is not None
    assert cache.providers_for(_bundle_record("scene"), 2).generator is first

    # a failed load raises in every waiter and is not cached
    errors = race("broken")
    assert loads == ["scene", "broken"]
    assert all(isinstance(e, BundleFormatError) for e in errors)
    with pytest.raises(BundleFormatError):
        cache.providers_for(_bundle_record("broken"), 2)
    assert loads == ["scene", "broken", "broken"]


def test_once_keeps_a_newer_load_when_a_dropped_load_fails():
    once = pipeline._Once()
    started, fail = threading.Event(), threading.Event()
    errors = []

    def failing():
        started.set()
        fail.wait(timeout=5)
        raise RuntimeError("lost")

    def first():
        try:
            once.get("k", failing)
        except RuntimeError as err:
            errors.append(err)

    thread = threading.Thread(target=first)
    thread.start()
    assert started.wait(timeout=5)
    once.drop("k")
    assert once.get("k", lambda: "fresh") == "fresh"
    fail.set()
    thread.join(timeout=5)
    assert not thread.is_alive() and len(errors) == 1
    assert once.get("k", lambda: "reloaded") == "fresh"  # the failure evicted nothing


@pytest.mark.parametrize("kind", ["synthetic", "bundle"])
def test_scene_cache_builds_a_scenes_providers_once(tmp_path, sp, kind):
    records = _one_scene(2)
    if kind == "bundle":
        write_bundle(tmp_path / "scene", [sp.input_view()], {})
        records = [_bundle_record(tmp_path / "scene", qid=r.qid) for r in records]
    cache = SceneCache(PipelineConfig(vlm="random_mock"))
    first, second = (cache.providers_for(r, i) for i, r in enumerate(records))
    assert first.generator is second.generator
    assert first.segmenter is second.segmenter
    assert first.scene is second.scene
    assert first.vlm is not second.vlm  # the VLM stays per record
    other = cache.providers_for(records[0], 0, views_dir=tmp_path / "views")
    assert other.scene is not first.scene and other.scene.views_dir == tmp_path / "views"


# ── Scene sandbox memo ─────────────────────────────────────────────────────


def _count_calls(monkeypatch, name):
    """Wrap pipeline.<name> so each call is recorded; returns the record."""
    calls = []
    original = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _resolved_tree(record_dir: Path) -> dict[str, bytes]:
    """An eval record's tree with its `views.json` pointer replaced by the
    files of the scene directory it names."""
    tree = _tree(record_dir)
    pointer = json.loads(tree.pop("views.json"))
    assert set(pointer) == {"dir"} and pointer["dir"].startswith("../../scenes/")
    views = _tree(record_dir / pointer["dir"])
    assert views and not views.keys() & tree.keys()
    return {**tree, **views}


def _eval_matches_standalone(tmp_path, cfg, records):
    """run_eval's per-record artifacts, with the shared views they point at,
    equal a memo-less run_pipeline's, byte for byte; returns the eval report."""
    cfg = dataclasses.replace(cfg, eval_artifacts=True)
    path = _bench_path(tmp_path, records)
    report = run_eval(cfg, path, out_dir=tmp_path / "eval")
    assert report.failed == ()
    cache = SceneCache(cfg)
    for index, record in enumerate(records):
        providers = dataclasses.replace(cache.providers_for(record, index), scene=SceneContext())
        alone = tmp_path / "alone" / record.qid
        run_pipeline(
            cfg, providers, record.question, record.choices, qid=record.qid, out_dir=alone
        )
        shared = _resolved_tree(tmp_path / "eval" / "records" / record.qid)
        assert "result.json" in shared and "views/input.f32" in shared
        assert shared == _tree(alone), record.qid
    return report


def _one_scene(n=5):
    records = build_benchmark(n, questions_per_world=5)
    assert len({json.dumps(r.scene, sort_keys=True) for r in records}) == 1
    return records


def _eval_within(cfg, path, out_dir=None, timeout=60):
    """run_eval on its own thread, failing rather than hanging on a deadlock;
    returns its report or raises what it raised."""
    outcome = {}

    def target():
        try:
            outcome["report"] = run_eval(cfg, path, out_dir=out_dir)
        except BaseException as err:  # re-raised on the calling thread
            outcome["error"] = err

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"run_eval still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["report"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_builds_each_scene_sandbox_once(monkeypatch, tmp_path, parallelism):
    elevations = _count_calls(monkeypatch, "elevate_object")
    fits = _count_calls(monkeypatch, "fit_sandbox")
    renders = _count_calls(monkeypatch, "render_boxes")
    cfg = PipelineConfig(
        vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=parallelism
    )
    one = _bench_path(tmp_path, _one_scene(1), "one.jsonl")
    assert run_eval(cfg, one).failed == ()
    per_build = len(elevations)
    assert per_build > 0 and len(fits) == 1 and len(renders) == 2

    elevations.clear()
    fits.clear()
    renders.clear()
    report = run_eval(cfg, _bench_path(tmp_path, _one_scene(5)))
    assert report.n == 5 and report.failed == () and report.accuracy == 1.0
    assert len(elevations) == per_build
    assert len(fits) == 1
    assert len(renders) == 2  # step-back and top-down, shared by the 5 questions


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_renders_each_scene_proxy_points_once(monkeypatch, tmp_path, parallelism):
    renders = _count_calls(monkeypatch, "render_points")
    cfg = PipelineConfig(
        mode="proxy_render", vlm="geometry_mock", cluster=ClusterParams(eps=0.25),
        parallelism=parallelism,
    )
    report = run_eval(cfg, _bench_path(tmp_path, _one_scene(5)))
    assert report.failed == ()
    assert all(r.mode_used == "proxy_render" for r in report.rows)
    assert len(renders) == 2


@pytest.mark.parametrize("mode", ["full", "text_coords"])
def test_run_eval_serializes_each_sandbox_once(monkeypatch, tmp_path, mode):
    serialized = _count_calls(monkeypatch, "serialize_text_coords")
    cfg = PipelineConfig(
        mode=mode, vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=1,
        eval_artifacts=True,
    )
    records = _one_scene(5)
    out = tmp_path / "out"
    report = run_eval(cfg, _bench_path(tmp_path, records), out_dir=out)
    assert report.failed == () and all(r.mode_used == mode for r in report.rows)
    assert len(serialized) == 1  # sandbox.json and the text_coords prompt share it
    texts = {(out / "records" / r.qid / "sandbox.json").read_text() for r in records}
    assert len(texts) == 1


def test_bare_run_pipeline_renders_on_every_call(monkeypatch, sp):
    # no memo in the ProviderSet, so nothing may survive between calls
    renders = _count_calls(monkeypatch, "render_boxes")
    for _ in range(2):
        vlm = ScriptedVlm(["forward", _hint_reply(sp), _ANSWER_B])
        assert run_pipeline(_CFG, _providers(sp, vlm), QUESTION, CHOICES).answer == "B"
    assert len(renders) == 4


def test_one_provider_set_shares_its_sandbox_between_questions(monkeypatch, sp):
    renders = _count_calls(monkeypatch, "render_boxes")
    providers = _providers(sp, ScriptedVlm(2 * ["forward", _hint_reply(sp), _ANSWER_B]))
    for _ in range(2):
        assert run_pipeline(_CFG, providers, QUESTION, CHOICES).answer == "B"
    assert len(renders) == 2


def test_one_provider_set_rebuilds_its_sandbox_for_another_config(monkeypatch, sp):
    # the sandbox key holds the config, so proxy_render gets its own renders
    # rather than full mode's boxes
    points = []
    _capture_returns(monkeypatch, "render_points", points.append)
    vlm = ScriptedVlm(2 * ["forward", _hint_reply(sp), _ANSWER_B])
    providers = _providers(sp, vlm)
    for mode in ("full", "proxy_render"):
        result = run_pipeline(dataclasses.replace(_CFG, mode=mode), providers, QUESTION, CHOICES)
        assert (result.answer, result.mode_used) == ("B", mode)
    assert len(points) == 2
    parts = vlm.calls[-1][-1].parts
    images = [p.image for p in parts if isinstance(p, ImagePart)]
    assert len(images) == 3 and all(a is b.image for a, b in zip(images[1:], points))
    assert "Step-back render of the filtered 3D proxy points:" in [
        p.text for p in parts if isinstance(p, TextPart)
    ]


def _capture_returns(monkeypatch, name, keep):
    """Wrap pipeline.<name> so `keep(result)` sees each value it returns."""
    original = getattr(pipeline, name)

    def captured(*args, **kwargs):
        result = original(*args, **kwargs)
        keep(result)
        return result

    monkeypatch.setattr(pipeline, name, captured)


@pytest.mark.parametrize(
    ("mode", "renderer"), [("full", "render_boxes"), ("proxy_render", "render_points")]
)
def test_run_eval_shares_read_only_renders(monkeypatch, tmp_path, mode, renderer):
    views = []
    _capture_returns(monkeypatch, renderer, views.append)
    cfg = PipelineConfig(mode=mode, vlm="geometry_mock", cluster=ClusterParams(eps=0.25))
    assert run_eval(cfg, _bench_path(tmp_path, _one_scene(3))).failed == ()
    assert len(views) == 2
    for view in views:
        with pytest.raises(ValueError, match="read-only"):
            view.image[0, 0] = 0


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_frees_its_renders_when_it_returns(monkeypatch, tmp_path, parallelism):
    images = []
    _capture_returns(
        monkeypatch, "render_boxes", lambda view: images.append(weakref.ref(view.image))
    )
    cfg = PipelineConfig(
        vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=parallelism
    )
    path = _bench_path(tmp_path, build_benchmark(10, questions_per_world=5))
    assert run_eval(cfg, path).failed == ()
    assert len(images) == 4  # two scenes, two views each
    gc.collect()
    assert [ref() is None for ref in images] == [True] * len(images)


@pytest.mark.parametrize("mode", ["full", "text_coords", "proxy_render"])
def test_run_eval_artifacts_match_a_memo_less_run(tmp_path, mode):
    cfg = PipelineConfig(mode=mode, vlm="geometry_mock", cluster=ClusterParams(eps=0.25))
    report = _eval_matches_standalone(tmp_path, cfg, _one_scene())
    assert all(r.mode_used == mode for r in report.rows)


def test_run_eval_empty_sandbox_degrade_matches_a_memo_less_run(tmp_path):
    cfg = PipelineConfig(
        vlm="geometry_mock", cluster=ClusterParams(eps=0.25, min_cluster_size=10**6)
    )
    report = _eval_matches_standalone(tmp_path, cfg, _one_scene())
    for row in report.rows:
        assert row.mode_used == "mv_only"
        assert any(d.startswith("empty sandbox") for d in row.degradations)


def test_run_eval_bundle_missing_view_matches_a_memo_less_run(monkeypatch, tmp_path, sp):
    # every forward view but those of trajectory 2, so one trajectory degrades
    input_view = sp.input_view()
    frames = [input_view]
    for spec in instantiate_trajectories(AbstractMotion.FORWARD):
        if spec.trajectory_index != 2:
            frames.extend(sp.generator.generate(input_view, spec))
    masks = {}
    for frame in frames:
        for index, cuboid in enumerate(sp.world.cuboids):
            bits = sp.rig.mask_bits(frame.pose, index)
            if bits.any():
                masks[(frame.view_id, index)] = InstanceMask(bits, index, cuboid.label)
    write_bundle(tmp_path / "scene", frames, masks)
    records = [
        dataclasses.replace(r, scene={"kind": "bundle", "path": str(tmp_path / "scene")})
        for r in generate_questions(sp.world, 5, 3)
    ]
    # the geometry mock reads the world the bundle was rendered from
    monkeypatch.setattr(
        SceneCache,
        "_vlm_for",
        lambda self, record, index, _sp: GeometryMockVlm(sp.rig, record.payload or None),
    )
    fits = _count_calls(monkeypatch, "fit_sandbox")
    cfg = PipelineConfig(vlm="random_mock", cluster=ClusterParams(eps=0.25))
    report = _eval_matches_standalone(tmp_path, cfg, records)
    assert len(fits) == 1 + len(records)  # one shared build, then one per standalone run
    for row in report.rows:
        assert row.mode_used == "full"
        assert len(row.degradations) == 1 and "trajectory=2" in row.degradations[0]


class _FewerHintsVlm(GeometryMockVlm):
    """Geometry mock that names only the first `keep` objects as hints."""

    def __init__(self, rig, payload, keep):
        super().__init__(rig, payload)
        self.keep = keep

    def _hints_json(self):
        return json.dumps(json.loads(super()._hints_json())[: self.keep])


def test_run_eval_question_dependent_hints_get_their_own_sandbox(monkeypatch, tmp_path):
    records = _one_scene()
    real_vlm_for = SceneCache._vlm_for

    def vlm_for(self, record, index, sp_):
        mock = real_vlm_for(self, record, index, sp_)
        return _FewerHintsVlm(mock.rig, mock.payload, keep=1 + index % 2)

    monkeypatch.setattr(SceneCache, "_vlm_for", vlm_for)
    fits = _count_calls(monkeypatch, "fit_sandbox")
    cfg = PipelineConfig(vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=2)
    _eval_matches_standalone(tmp_path, cfg, records)
    assert len(fits) == 2 + len(records)  # two hint lists shared, then the standalone runs
    hints = [
        json.loads((tmp_path / "eval" / "records" / r.qid / "hints.json").read_text())
        for r in records[:2]
    ]
    assert [len(h) for h in hints] == [1, 2]


def test_run_eval_evicts_a_failed_sandbox_build(monkeypatch, tmp_path):
    real_fit = pipeline.fit_sandbox
    fits = []

    def flaky_fit(*args, **kwargs):
        fits.append(1)
        if len(fits) == 1:
            raise RuntimeError("box fit crashed")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_sandbox", flaky_fit)
    cfg = PipelineConfig(vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=1)
    report = run_eval(cfg, _bench_path(tmp_path, _one_scene()))
    first, *rest = report.rows
    assert first.error == "RuntimeError: box fit crashed" and not first.correct
    assert report.failed == (first.qid,)
    assert all(r.error is None and r.correct for r in rest)
    assert len(fits) == 2  # the failure was not cached; the rebuild was


def test_scene_cache_sandbox_memo_builds_each_key_once_under_contention():
    context = SceneContext()
    builds = []
    results = {}

    def build(key):
        builds.append(key)
        time.sleep(0.01)  # hold the build open while the other threads arrive
        return object()

    def one(i):
        key = ("forward", i % 3)
        results[i] = (key, context.sandbox(key, lambda: build(key)))

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
    assert len(results) == 12
    assert sorted(builds) == [("forward", 0), ("forward", 1), ("forward", 2)]
    by_key = {}
    for key, sandbox in results.values():
        assert by_key.setdefault(key, sandbox) is sandbox


# ── Shared view artifacts ──────────────────────────────────────────────────


def _view_keys(out: Path, records) -> dict[str, tuple[str, str]]:
    """Per record id: (scene spec, motion) as its direction.json reports it."""
    keys = {}
    for record in records:
        direction = json.loads((out / "records" / record.qid / "direction.json").read_text())
        keys[record.qid] = (json.dumps(record.scene, sort_keys=True), direction["motion"])
    return keys


def _views_dir(out: Path, qid: str) -> Path:
    pointer = json.loads((out / "records" / qid / "views.json").read_text())
    return out / "records" / qid / pointer["dir"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_eval_writes_each_scene_motion_views_once(monkeypatch, tmp_path, parallelism):
    records = build_benchmark(10, questions_per_world=5)
    writes = _count_calls(monkeypatch, "write_depth_raw")
    cfg = PipelineConfig(
        vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=parallelism,
        eval_artifacts=True,
    )
    out = tmp_path / "eval"
    report = run_eval(cfg, _bench_path(tmp_path, records), out_dir=out)
    assert report.failed == ()
    keys = _view_keys(out, records)
    assert 1 < len(set(keys.values())) < len(records)
    assert len(writes) == 13 * len(set(keys.values()))

    # scenes are numbered in order of first appearance, motions by value
    numbers = {}
    for record in records:
        spec, motion = keys[record.qid]
        n = numbers.setdefault(spec, len(numbers))
        pointer = json.loads((out / "records" / record.qid / "views.json").read_text())
        assert pointer == {"dir": f"../../scenes/{n}/{motion}"}
        assert not (out / "records" / record.qid / "views").exists()
        assert not (out / "records" / record.qid / "trajectories.json").exists()
    assert sorted(p.name for p in (out / "scenes").iterdir()) == [
        str(n) for n in range(len(numbers))
    ]


def test_run_eval_gives_each_motion_its_own_views(monkeypatch, tmp_path):
    motions = ("forward", "left", "fwd-right")
    monkeypatch.setattr(
        SceneCache,
        "_vlm_for",
        lambda self, record, index, _sp: RandomMockVlm(index, motions[index % 3]),
    )
    writes = _count_calls(monkeypatch, "write_depth_raw")
    records = _one_scene(5)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock")
    report = _eval_matches_standalone(tmp_path, cfg, records)
    assert all(r.mode_used == "mv_only" for r in report.rows)
    out = tmp_path / "eval"
    dirs = [_views_dir(out, r.qid).resolve() for r in records]
    assert [d.relative_to(out.resolve()).as_posix() for d in dirs] == [
        f"scenes/0/{motions[i % 3]}" for i in range(5)
    ]
    trajectories = {d.name: (d / "trajectories.json").read_bytes() for d in dirs}
    assert len(set(trajectories.values())) == 3
    # three shared writes, then one per standalone run
    assert len(writes) == 13 * (3 + len(records))


def test_run_eval_does_not_cache_a_failed_view_write(monkeypatch, tmp_path):
    # record 0 picks `forward` and runs alone; records 1 and 2, the first two
    # siblings, both pick `left`. The first `left` depth write waits until
    # both are in SceneContext.write_views, then fails; both records report
    # the error and the next `left` record rewrites the directory.
    monkeypatch.setattr(
        SceneCache,
        "_vlm_for",
        lambda self, record, index, _sp: RandomMockVlm(index, "forward" if index == 0 else "left"),
    )
    arrived = []
    both = threading.Event()
    real_views = SceneContext.write_views

    def views(self, art, motion, views, trajectories):
        if motion is AbstractMotion.LEFT:
            arrived.append(1)
            if len(arrived) == 2:
                both.set()
        return real_views(self, art, motion, views, trajectories)

    writes = []
    real_write = pipeline.write_depth_raw

    def flaky_write(path, values):
        if path.parent.parent.name == "left":
            writes.append(path)
            if len(writes) == 1:
                assert both.wait(timeout=10)
                time.sleep(0.2)  # the second caller is now inside the single flight
                raise OSError("disk full")
        return real_write(path, values)

    monkeypatch.setattr(SceneContext, "write_views", views)
    monkeypatch.setattr(pipeline, "write_depth_raw", flaky_write)
    cfg = PipelineConfig(
        mode="mv_only", vlm="random_mock", parallelism=2, eval_artifacts=True
    )
    records = _one_scene(5)
    out = tmp_path / "eval"
    report = _eval_within(cfg, _bench_path(tmp_path, records), out_dir=out)
    assert report.failed == (records[1].qid, records[2].qid)
    payload = json.loads((out / "report.json").read_text())
    assert [r["error"] for r in payload["records"][1:3]] == ["OSError: disk full"] * 2
    assert all(report.rows[i].error is None for i in (0, 3, 4))
    assert len(writes) == 1 + 13  # the failure, then one complete rewrite
    for record in records[3:]:
        views_dir = _views_dir(out, record.qid)
        assert views_dir.name == "left"
        assert len(list((views_dir / "views").glob("*.f32"))) == 13


def test_run_eval_record_failing_its_direction_query_gets_no_views(monkeypatch, tmp_path):
    real_vlm_for = SceneCache._vlm_for

    def vlm_for(self, record, index, sp_):
        return ScriptedVlm([]) if index == 0 else real_vlm_for(self, record, index, sp_)

    monkeypatch.setattr(SceneCache, "_vlm_for", vlm_for)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", eval_artifacts=True)
    records = _one_scene(2)
    out = tmp_path / "eval"
    report = run_eval(cfg, _bench_path(tmp_path, records), out_dir=out)
    assert report.failed == (records[0].qid,)
    failed_dir = out / "records" / records[0].qid
    assert (failed_dir / "config.json").is_file()
    assert not (failed_dir / "views.json").exists() and not (failed_dir / "views").exists()
    assert (_views_dir(out, records[1].qid) / "views" / "input.png").is_file()


def test_run_eval_rejects_ids_sharing_an_artifact_directory(tmp_path):
    base = build_benchmark(1)[0]
    records = [dataclasses.replace(base, qid=qid) for qid in ("q/1", "q2", "q 1")]
    path = _bench_path(tmp_path, records)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", eval_artifacts=True)
    with pytest.raises(ConfigError, match=r"'q/1' and 'q 1' share the artifact directory"):
        run_eval(cfg, path, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()  # no record ran
    # without per-record artifacts nothing collides
    assert run_eval(dataclasses.replace(cfg, eval_artifacts=False), path).failed == ()


@pytest.mark.parametrize("qid", ["..", ".", ""])
def test_run_eval_rejects_ids_that_name_no_directory_under_records(tmp_path, qid):
    # `_safe` keeps dots, so ".." would write a record's artifacts into the
    # eval root and "" straight into records/
    base = build_benchmark(1)[0]
    path = _bench_path(tmp_path, [dataclasses.replace(base, qid=qid)])
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", eval_artifacts=True)
    with pytest.raises(ConfigError, match=f"record id {re.escape(repr(qid))} does not name"):
        run_eval(cfg, path, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()  # no record ran
    assert run_eval(dataclasses.replace(cfg, eval_artifacts=False), path).failed == ()


# ── Scheduling by scene ────────────────────────────────────────────────────


class _Timeline:
    """When each record starts (it asks for its providers) and returns
    (run_pipeline returns or raises, or providers_for raises). Each record
    calls `before_run(qid)` first: by default it holds the record open a
    while, as a real one would, so that a sibling started too early overlaps
    it."""

    def __init__(self, monkeypatch, before_run=lambda qid: time.sleep(0.02)):
        self.events: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        self.running = self.peak = 0
        real_providers_for = SceneCache.providers_for
        real_run = pipeline.run_pipeline

        def providers_for(cache, record, index, views_dir=None):
            self._log("start", record.qid, +1)
            try:
                return real_providers_for(cache, record, index, views_dir)
            except BaseException:
                self._log("end", record.qid, -1)
                raise

        def run(config, providers, question, choices, qid="", out_dir=None):
            try:
                before_run(qid)
                return real_run(config, providers, question, choices, qid=qid, out_dir=out_dir)
            finally:
                self._log("end", qid, -1)

        monkeypatch.setattr(SceneCache, "providers_for", providers_for)
        monkeypatch.setattr(pipeline, "run_pipeline", run)

    def _log(self, kind, qid, step):
        with self._lock:
            self.events.append((kind, qid))
            self.running += step
            self.peak = max(self.peak, self.running)

    def assert_siblings_wait(self, records):
        """No record starts before the first record of its scene returned."""
        at = {event: i for i, event in enumerate(self.events)}
        assert len(at) == 2 * len(records)  # each record started and returned once
        first: dict[str, str] = {}
        for record in records:
            head = first.setdefault(json.dumps(record.scene, sort_keys=True), record.qid)
            if head != record.qid:
                assert at[("end", head)] < at[("start", record.qid)], record.qid


def _two_scenes_interleaved():
    records = build_benchmark(10, questions_per_world=5)
    a, b = records[:5], records[5:]
    assert a[0].scene != b[0].scene
    return [r for pair in zip(a, b) for r in pair]


@pytest.mark.parametrize("parallelism", [2, 4])
def test_run_eval_starts_siblings_after_their_first_record(monkeypatch, tmp_path, parallelism):
    records = build_benchmark(15, questions_per_world=5)
    timeline = _Timeline(monkeypatch)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    report = _eval_within(cfg, _bench_path(tmp_path, records))
    assert report.failed == ()
    timeline.assert_siblings_wait(records)
    assert timeline.peak > 1


@pytest.mark.parametrize("parallelism", [2, 4])
def test_run_eval_groups_interleaved_scenes_and_keeps_benchmark_order(
    monkeypatch, tmp_path, parallelism
):
    records = _two_scenes_interleaved()
    timeline = _Timeline(monkeypatch)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    report = _eval_within(cfg, _bench_path(tmp_path, records))
    assert report.failed == ()
    assert [r.qid for r in report.rows] == [r.qid for r in records]
    timeline.assert_siblings_wait(records)
    serial = run_eval(dataclasses.replace(cfg, parallelism=1), _bench_path(tmp_path, records))
    assert [dataclasses.replace(r, wall_ms=0.0) for r in report.rows] == [
        dataclasses.replace(r, wall_ms=0.0) for r in serial.rows
    ]


@pytest.mark.parametrize("parallelism", [2, 4])
@pytest.mark.parametrize("failure", ["direction_query", "providers_for"])
def test_run_eval_a_failed_first_record_releases_its_siblings(
    monkeypatch, tmp_path, parallelism, failure
):
    records = _two_scenes_interleaved()
    heads = {0, 1}  # the first record of each scene
    if failure == "direction_query":
        real_vlm_for = SceneCache._vlm_for

        def vlm_for(self, record, index, sp_):
            if index in heads:
                return ScriptedVlm([])  # ProviderError on the direction query
            return real_vlm_for(self, record, index, sp_)

        monkeypatch.setattr(SceneCache, "_vlm_for", vlm_for)
    else:
        real_providers_for = SceneCache.providers_for

        def providers_for(self, record, index, views_dir=None):
            if index in heads:
                raise RuntimeError("scene unavailable")
            return real_providers_for(self, record, index, views_dir)

        monkeypatch.setattr(SceneCache, "providers_for", providers_for)
    timeline = _Timeline(monkeypatch)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    report = _eval_within(cfg, _bench_path(tmp_path, records))
    assert report.failed == (records[0].qid, records[1].qid)
    expected = {
        "direction_query": "direction_query",  # the stage whose provider call failed
        "providers_for": "RuntimeError: scene unavailable",
    }[failure]
    assert [r.error for r in report.rows[:2]] == [expected] * 2
    assert all(r.error is None for r in report.rows[2:])
    timeline.assert_siblings_wait(records)


def test_run_eval_runs_one_scene_siblings_at_once(monkeypatch, tmp_path):
    # each sibling waits in a pair at a barrier, so a scheduler that ran one
    # sibling at a time would break it: a slow real VLM must not serialize a scene
    records = _one_scene(5)
    pair = threading.Barrier(2, timeout=10)

    def before_run(qid):
        if qid != records[0].qid:
            pair.wait()

    timeline = _Timeline(monkeypatch, before_run)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=4)
    report = _eval_within(cfg, _bench_path(tmp_path, records))
    assert report.failed == ()
    timeline.assert_siblings_wait(records)
    assert timeline.peak >= 2


@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize("raiser", [1, 4])  # scene B's first record; a sibling in scene A
def test_run_eval_leaves_with_a_worker_base_exception(monkeypatch, tmp_path, parallelism, raiser):
    records = _two_scenes_interleaved()
    real_run = pipeline.run_pipeline

    def run(config, providers, question, choices, qid="", out_dir=None):
        if qid == records[raiser].qid:
            raise SystemExit(3)
        return real_run(config, providers, question, choices, qid=qid, out_dir=out_dir)

    monkeypatch.setattr(pipeline, "run_pipeline", run)
    before = set(threading.enumerate())
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    with pytest.raises(SystemExit) as caught:
        _eval_within(cfg, _bench_path(tmp_path, records))
    assert caught.value.code == 3
    assert set(threading.enumerate()) <= before  # every pool worker has exited


def test_run_eval_runs_one_worker_on_the_calling_thread(monkeypatch, tmp_path):
    # one scene after another, in the same loop as a pool but starting no thread
    records = _two_scenes_interleaved()
    ran = []
    real_run = pipeline.run_pipeline

    def run(config, providers, question, choices, qid="", out_dir=None):
        ran.append((qid, threading.get_ident()))
        return real_run(config, providers, question, choices, qid=qid, out_dir=out_dir)

    def start(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(pipeline, "run_pipeline", run)
    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=1)
    assert run_eval(cfg, _bench_path(tmp_path, records)).failed == ()
    grouped = records[0::2] + records[1::2]
    assert ran == [(r.qid, threading.get_ident()) for r in grouped]


def _bundle_benchmark(tmp_path, sp, scenes, questions):
    """`questions` records on each of `scenes` one-view bundles, grouped by scene."""
    records = []
    for s in range(scenes):
        path = tmp_path / f"scene{s}"
        write_bundle(path, [sp.input_view()], {})
        records += [_bundle_record(path, qid=f"s{s}q{q}") for q in range(questions)]
    return records


class _LiveBundles:
    """Each `load_bundle` call and the bundles alive at once. A `SceneBundle`
    itself dies inside `bundle_providers`, so a loaded scene counts as alive
    while its input frame's depth array is."""

    def __init__(self, monkeypatch):
        self.loads: list[str] = []
        self.alive: dict[str, int] = {}
        self.peak = 0
        self._lock = threading.Lock()
        real_load = pipeline.load_bundle

        def load(path):
            bundle = real_load(path)
            with self._lock:
                self.loads.append(str(path))
                self.alive[str(path)] = self.alive.get(str(path), 0) + 1
                self.peak = max(self.peak, sum(self.alive.values()))
            weakref.finalize(bundle.input_view().depth.values, self._died, str(path))
            return bundle

        monkeypatch.setattr(pipeline, "load_bundle", load)

    def _died(self, path):
        with self._lock:
            self.alive[path] -= 1


@pytest.mark.parametrize(
    "parallelism, layout",
    [pytest.param(p, "grouped", id=str(p)) for p in (1, 2, 4)]
    + [pytest.param(p, "interleaved", id=f"interleaved-{p}") for p in (1, 2, 4)],
)
def test_run_eval_holds_at_most_parallelism_bundles(
    monkeypatch, tmp_path, sp, parallelism, layout
):
    records = _bundle_benchmark(tmp_path, sp, scenes=6, questions=3)
    if layout == "interleaved":
        records = _interleaved(records, 3)
    live = _LiveBundles(monkeypatch)
    _Timeline(monkeypatch)  # records take a while, so scenes held too long overlap
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers and the scheduler finely
    try:
        assert _eval_within(cfg, _bench_path(tmp_path, records)).failed == ()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(live.loads) == sorted({r.scene["path"] for r in records})  # once each
    assert 1 <= live.peak <= parallelism


class _LiveRigs:
    """Each synthetic scene built and the rigs alive at once, a rig counted
    until it dies."""

    def __init__(self, monkeypatch):
        self.seeds: list[int] = []
        self.alive = self.peak = 0
        self._lock = threading.Lock()
        real = pipeline.SyntheticSceneProvider

        def build(world):
            sp_ = real(world)
            with self._lock:
                self.seeds.append(world.seed)
                self.alive += 1
                self.peak = max(self.peak, self.alive)
            weakref.finalize(sp_.rig, self._died)
            return sp_

        monkeypatch.setattr(pipeline, "SyntheticSceneProvider", build)

    def _died(self):
        with self._lock:
            self.alive -= 1


@pytest.mark.parametrize(
    "parallelism, layout",
    [pytest.param(p, "grouped", id=str(p)) for p in (1, 2, 4)]
    + [pytest.param(p, "interleaved", id=f"interleaved-{p}") for p in (1, 2, 4)],
)
def test_run_eval_holds_at_most_parallelism_synthetic_scenes(
    monkeypatch, tmp_path, parallelism, layout
):
    records = build_benchmark(18, questions_per_world=3)
    assert len({r.scene["seed"] for r in records}) == 6
    if layout == "interleaved":
        records = _interleaved(records, 3)
    live = _LiveRigs(monkeypatch)
    _Timeline(monkeypatch)  # records take a while, so scenes held too long overlap
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers and the scheduler finely
    try:
        assert _eval_within(cfg, _bench_path(tmp_path, records)).failed == ()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(live.seeds) == sorted({r.scene["seed"] for r in records})  # once each
    assert 1 <= live.peak <= parallelism
    assert live.alive == 0


def test_run_eval_opens_a_scene_only_when_no_sibling_waits(monkeypatch, tmp_path):
    # once a scene's first record has returned, its siblings are ready, and
    # no later scene's first record may start before all of them have;
    # scene-first scheduling alone queued them behind every first record
    records = build_benchmark(15, questions_per_world=5)
    scene = {r.qid: json.dumps(r.scene, sort_keys=True) for r in records}
    head = {}
    for r in records:
        head.setdefault(scene[r.qid], r.qid)
    assert len(head) == 3
    timeline = _Timeline(monkeypatch)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=2)
    assert _eval_within(cfg, _bench_path(tmp_path, records)).failed == ()
    timeline.assert_siblings_wait(records)
    started: set[str] = set()
    ended: set[str] = set()
    for kind, qid in timeline.events:
        if kind == "end":
            ended.add(qid)
            continue
        if qid in head.values():
            ready = {r.qid for r in records if head[scene[r.qid]] in ended}
            assert ready <= started, f"{qid} started before {sorted(ready - started)}"
        started.add(qid)


def _interleaved(grouped, questions):
    """Records grouped by scene, `questions` each, dealt out in turn."""
    scenes = [grouped[i : i + questions] for i in range(0, len(grouped), questions)]
    return [r for turn in zip(*scenes) for r in turn]


def _tree_but_configs(root: Path) -> dict[str, bytes]:
    """`_tree`, less each `config.json`, which records `parallelism`."""
    return {k: v for k, v in _tree(root).items() if not k.endswith("config.json")}


@pytest.mark.parametrize("parallelism", [2, 4])
def test_run_eval_interleaved_bundles_match_one_worker(monkeypatch, tmp_path, sp, parallelism):
    grouped = _bundle_benchmark(tmp_path, sp, scenes=2, questions=5)
    records = _interleaved(grouped, 5)
    assert [r.qid for r in records[:4]] == ["s0q0", "s1q0", "s0q1", "s1q1"]
    live = _LiveBundles(monkeypatch)
    path = _bench_path(tmp_path, records)
    reports = {}
    for p in (1, parallelism):
        cfg = PipelineConfig(
            mode="mv_only", vlm="random_mock", parallelism=p, eval_artifacts=True
        )
        reports[p] = _eval_within(cfg, path, out_dir=tmp_path / f"p{p}")
    assert reports[1].failed == ()
    assert [dataclasses.replace(r, wall_ms=0.0) for r in reports[parallelism].rows] == [
        dataclasses.replace(r, wall_ms=0.0) for r in reports[1].rows
    ]
    for part in ("records", "scenes"):
        one, many = (_tree_but_configs(tmp_path / f"p{p}" / part) for p in (1, parallelism))
        assert one and many == one
    assert sorted(live.loads) == sorted(2 * [r.scene["path"] for r in grouped[::5]])


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("failure", ["direction_query", "providers_for"])
def test_run_eval_releases_a_bundle_after_its_last_record(
    monkeypatch, tmp_path, sp, parallelism, failure
):
    records = _interleaved(_bundle_benchmark(tmp_path, sp, scenes=2, questions=4), 4)
    heads = {0, 1}  # the first record of each scene fails
    if failure == "direction_query":
        real_vlm_for = SceneCache._vlm_for

        def vlm_for(self, record, index, sp_):
            if index in heads:
                return ScriptedVlm([])  # ProviderError on the direction query
            return real_vlm_for(self, record, index, sp_)

        monkeypatch.setattr(SceneCache, "_vlm_for", vlm_for)
    else:
        real_providers_for = SceneCache.providers_for

        def providers_for(self, record, index, views_dir=None):
            if index in heads:
                raise RuntimeError("scene unavailable")
            return real_providers_for(self, record, index, views_dir)

        monkeypatch.setattr(SceneCache, "providers_for", providers_for)
    live = _LiveBundles(monkeypatch)
    timeline = _Timeline(monkeypatch)
    releases = []
    real_release = SceneCache.release

    def release(self, record, views_dir=None):
        real_release(self, record, views_dir)
        path = record.scene["path"]
        ended = {qid for kind, qid in timeline.events if kind == "end"}
        pending = {r.qid for r in records if r.scene["path"] == path} - ended
        releases.append((path, pending, live.alive[path]))

    monkeypatch.setattr(SceneCache, "release", release)
    cfg = PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=parallelism)
    report = _eval_within(cfg, _bench_path(tmp_path, records))
    assert report.failed == (records[0].qid, records[1].qid)
    paths = sorted({r.scene["path"] for r in records})
    # released once per scene, after its last record ended, and then dead
    assert sorted(path for path, _, _ in releases) == paths
    assert all(pending == set() and alive == 0 for _, pending, alive in releases)
    assert sorted(live.loads) == paths


def test_scene_cache_releases_every_scene(tmp_path, sp):
    bundle = _bundle_record(tmp_path / "scene")
    write_bundle(tmp_path / "scene", [sp.input_view()], {})
    synthetic = _one_scene(1)[0]
    cache = SceneCache(PipelineConfig(vlm="random_mock"))
    for record in (bundle, synthetic):
        first = cache.providers_for(record, 0)
        assert cache.providers_for(record, 1).scene is first.scene  # held until released
        cache.release(record)
        again = cache.providers_for(record, 2)
        assert again.scene is not first.scene  # whatever the scene's kind
        assert again.generator is not first.generator
    cache.release(_bundle_record(tmp_path / "never-loaded"))  # nothing to drop
    # two specs naming one bundle are two scenes: releasing one keeps the other
    twin = dataclasses.replace(bundle, scene={**bundle.scene, "note": "twin"})
    kept = cache.providers_for(twin, 2).scene
    cache.providers_for(bundle, 3)
    cache.release(bundle)
    assert cache.providers_for(twin, 4).scene is kept
