"""Command-line entry points.

Subcommands:
  run     answer one question against a stored scene bundle
  synth   generate an analytic scene as a bundle plus benchmark questions
  eval    score a benchmark file and write a report
  render  draw a saved box scene from the top-down or step-back viewpoint

Exit codes: 0 on success, 1 when any record fails (or `run` produces no
answer), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bundle import load_bundle, write_bundle
from .errors import BundleFormatError, ConfigError, GenerationError, ProviderError, loads_json
from .pipeline import (
    MODES,
    VLMS,
    PipelineConfig,
    SceneContext,
    bundle_providers,
    config_from_ini,
    run_eval,
    run_pipeline,
)
from .providers import HttpChatVlm, RandomMockVlm, SyntheticMultiViewGenerator, SyntheticRig
from .qa import CATEGORIES, write_benchmark
from .sandbox_render import (
    PerspectiveCamera,
    legend_lines,
    render_boxes,
    stepback_camera,
    topdown_camera,
)
from .scene_model import CameraPose, InstanceMask, OrientedBox3, SandboxScene
from .synthetic_world import default_intrinsics, generate_questions, generate_world
from .trajectory_control import AbstractMotion, instantiate_trajectories
from .image_io import write_image


def _load_config(path: str | None, mode: str | None, vlm: str | None) -> PipelineConfig:
    config = config_from_ini(path) if path else PipelineConfig()
    overrides = {}
    if mode is not None:
        overrides["mode"] = mode
    if vlm is not None:
        overrides["vlm"] = vlm
    return dataclasses.replace(config, **overrides) if overrides else config


def _vlm_from_config(config: PipelineConfig, encode_png):
    if config.vlm == "http":
        return HttpChatVlm(base_url=config.base_url, model=config.model, encode_png=encode_png)
    if config.vlm == "random_mock":
        return RandomMockVlm(seed=config.seed)
    raise ConfigError(f"vlm provider {config.vlm!r} needs a synthetic scene or test harness")


def _read_question(path: str) -> tuple[str, list[str], str]:
    try:
        data = loads_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ConfigError(f"question file: {err}") from err
    question = data.get("question")
    choices = data.get("choices")
    if not isinstance(question, str) or not isinstance(choices, list) or len(choices) < 2:
        raise ConfigError("question file needs 'question' and at least two 'choices'")
    return question, [str(c) for c in choices], str(data.get("id", "scene"))


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.mode, args.vlm)
    bundle = load_bundle(args.bundle)
    scene = SceneContext()  # artifacts and requests share each image's encode
    providers = bundle_providers(bundle, _vlm_from_config(config, scene.png_memo), scene)
    question, choices, qid = _read_question(args.question)
    result = run_pipeline(
        config, providers, question, choices,
        qid=bundle.scene_id or qid, out_dir=args.out,
    )
    print(f"mode: {result.mode_requested} -> {result.mode_used}")
    for item in result.degradations:
        print(f"degraded: {item}")
    if result.error is not None:
        print(f"failed at stage: {result.error}", file=sys.stderr)
        return 1
    if result.answer is None:
        print("no parseable answer", file=sys.stderr)
        return 1
    print(f"answer: {result.answer}")
    return 0


def _cmd_synth(args) -> int:
    world = generate_world(args.seed, args.objects)
    rig = SyntheticRig(world)
    generator = SyntheticMultiViewGenerator(rig)
    input_view = rig.input_frame()
    frames = [input_view]
    motion = AbstractMotion(args.motion)
    for spec in instantiate_trajectories(motion):
        frames.extend(generator.generate(input_view, spec))
    masks: dict = {}
    for frame in frames:
        for index, cuboid in enumerate(world.cuboids):
            bits = rig.mask_bits(frame.pose, index)
            if bits.any():
                masks[(frame.view_id, index)] = InstanceMask(bits, index, cuboid.label)
    out = Path(args.out)
    write_bundle(out, frames, masks, scene_id=f"synth-s{args.seed}-k{args.objects}")
    print(f"bundle: {out} ({len(frames)} views, {len(masks)} masks)")
    if args.questions > 0:
        records = generate_questions(world, args.questions, args.seed)
        write_benchmark(records, out / "questions.jsonl")
        first = records[0]
        (out / "question0.json").write_text(
            json.dumps(
                {"id": first.qid, "question": first.question, "choices": list(first.choices)},
                indent=2, sort_keys=True,
            ) + "\n",
            encoding="utf-8",
        )
        print(f"questions: {out / 'questions.jsonl'} ({len(records)} records)")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args.config, args.mode, args.vlm)
    report = run_eval(config, args.benchmark, out_dir=args.out)
    print(f"n: {report.n}")
    print(f"accuracy: {report.accuracy:.4f}")
    for category in CATEGORIES:
        if category in report.by_category:
            print(f"{category}: {report.by_category[category]:.4f}")
    if report.failed:
        print(f"failed records: {', '.join(report.failed)}", file=sys.stderr)
        return 1
    return 0


def _boxes_from_json(path: str) -> SandboxScene:
    try:
        data = loads_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ConfigError(f"sandbox file: {err}") from err
    raw_boxes = data.get("boxes")
    if not isinstance(raw_boxes, list):
        raise ConfigError("sandbox file needs a 'boxes' list")
    up = np.array([0.0, -1.0, 0.0])
    fwd = np.array([0.0, 0.0, 1.0])
    right = np.cross(-up, fwd)
    boxes = []
    for i, spec in enumerate(raw_boxes):
        try:
            center = np.asarray(spec["center"], dtype=np.float64)
            size = np.asarray(spec["size"], dtype=np.float64)
            yaw = math.radians(float(spec.get("yaw_deg", 0.0)))
            label = str(spec.get("label", "object"))
            instance_id = int(spec.get("instance_id", i))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"sandbox box {i}: {err}") from err
        a0 = math.cos(yaw) * fwd + math.sin(yaw) * right
        axes = np.column_stack([a0, np.cross(up, a0), up])
        try:
            boxes.append(OrientedBox3(center, axes, size / 2.0, label, instance_id))
        except ValueError as err:
            raise ConfigError(f"sandbox box {i}: {err}") from err
    try:
        return SandboxScene(tuple(boxes), CameraPose.identity(), default_intrinsics())
    except ValueError as err:
        raise ConfigError(f"sandbox file: {err}") from err


def _cmd_render(args) -> int:
    scene = _boxes_from_json(args.sandbox)
    if args.view == "topdown":
        camera = topdown_camera(scene)
    else:
        camera = PerspectiveCamera(
            stepback_camera(scene.origin_pose, 2.0), scene.origin_intrinsics
        )
    view = render_boxes(scene, camera)
    write_image(args.out, view.image)
    print(f"wrote {args.out}")
    for line in legend_lines(view):
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandbox3d",
        description="Lift object masks to 3D boxes and ask spatial questions about them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer one question against a scene bundle")
    run.add_argument("--bundle", required=True, help="bundle directory with manifest.json")
    run.add_argument("--question", required=True, help="JSON file with question and choices")
    run.add_argument("--mode", choices=MODES, default=None)
    run.add_argument("--vlm", choices=("http", "random_mock"), default=None)
    run.add_argument("--config", default=None, help="INI config file")
    run.add_argument("--out", default=None, help="artifact directory")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="write an analytic scene as a bundle")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--objects", type=int, required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--questions", type=int, default=0, help="also write N questions")
    synth.add_argument(
        "--motion", choices=[m.value for m in AbstractMotion], default="forward",
        help="trajectory family stored in the bundle",
    )
    synth.set_defaults(func=_cmd_synth)

    ev = sub.add_parser("eval", help="score a benchmark JSONL file")
    ev.add_argument("--benchmark", required=True)
    ev.add_argument("--mode", choices=MODES, default=None)
    ev.add_argument("--vlm", choices=VLMS, default=None)
    ev.add_argument("--config", default=None, help="INI config file")
    ev.add_argument("--out", default=None, help="report directory")
    ev.set_defaults(func=_cmd_eval)

    render = sub.add_parser("render", help="draw a saved box scene")
    render.add_argument("--sandbox", required=True, help="JSON with a 'boxes' list")
    render.add_argument("--view", choices=("topdown", "stepback"), required=True)
    render.add_argument("--out", required=True, help="output PNG path")
    render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (BundleFormatError, GenerationError, ProviderError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
