from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from sandbox3d import pipeline
from sandbox3d.errors import BundleFormatError, ConfigError
from sandbox3d.pipeline import (
    MODES,
    PipelineConfig,
    ProviderSet,
    SceneCache,
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
    ImagePart,
    ScriptedVlm,
    SyntheticSceneProvider,
    TextPart,
)
from sandbox3d.qa import QARecord, write_benchmark
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    OrientedBox3,
    SandboxScene,
)
from sandbox3d.synthetic_world import BENCHMARK_BOUNDS, build_benchmark, generate_world
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


def test_config_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_ini(_write_ini(tmp_path, "[pipeline]\nspeed = fast\n"))


def test_config_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        config_from_ini(_write_ini(tmp_path, "[trajectory]\nm = three\n"))


def test_config_invalid_param_combination_wrapped(tmp_path):
    # delta parses as a float but ConsensusParams rejects it
    with pytest.raises(ConfigError):
        config_from_ini(_write_ini(tmp_path, "[consensus]\ndelta = -1\n"))


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
        depth_estimator=sp.depth_estimator,
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
        return object()

    monkeypatch.setattr(pipeline, "load_bundle", slow_load)
    cache = SceneCache(PipelineConfig())

    def race(path):
        got = [None, None]

        def one(i):
            try:
                got[i] = cache.bundle(path)
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
    assert cache.bundle("scene") is first

    # a failed load raises in every waiter and is not cached
    errors = race("broken")
    assert loads == ["scene", "broken"]
    assert all(isinstance(e, BundleFormatError) for e in errors)
    with pytest.raises(BundleFormatError):
        cache.bundle("broken")
    assert loads == ["scene", "broken", "broken"]
