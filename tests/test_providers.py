from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from sandbox3d import (
    AnswerParseError,
    HintParseError,
    MissingViewError,
    ObjectNotFoundError,
    ProviderError,
    providers,
)
from sandbox3d.providers import (
    BundleMultiViewGenerator,
    BundleSegmenter,
    ChatTurn,
    GeometryMockVlm,
    ImagePart,
    RandomMockVlm,
    ScriptedVlm,
    SyntheticMultiViewGenerator,
    SyntheticRig,
    SyntheticSceneProvider,
    SyntheticSegmenter,
    TextPart,
    describe_turns,
    parse_answer,
    parse_object_hints,
)
from sandbox3d.proxy_elevation import ObjectHint
from sandbox3d.sandbox_render import PALETTE
from sandbox3d.scene_model import InstanceMask, ViewId
from sandbox3d.synthetic_world import (
    depth_from_stack,
    generate_world,
    image_from_stack,
    instance_depths,
    mask_from_stack,
    render_nearest,
)
from sandbox3d.trajectory_control import AbstractMotion, instantiate_trajectories


# ── reply parsing ──────────────────────────────────────────────────────────


def test_parse_object_hints_happy_path():
    raw = 'Here you go: [{"label": "chair", "x": 40, "y": 40}, {"label": "lamp", "x": 9.6, "y": 3}]'
    hints, notes = parse_object_hints(raw, 128, 128)
    assert notes == []
    assert [h.label for h in hints] == ["chair", "lamp"]
    assert hints[0].center_px == (40, 40)
    assert hints[1].center_px == (10, 3)  # 9.6 rounds to 10
    assert [h.object_id for h in hints] == [0, 1]


def test_parse_object_hints_clamps_and_notes():
    raw = '[{"label": "box", "x": -5, "y": 300}]'
    hints, notes = parse_object_hints(raw, 128, 128)
    assert hints[0].center_px == (0, 127)
    assert notes == ["clamped hint 'box' from (-5, 300) to (0, 127)"]


def test_parse_object_hints_dedupes_after_clamp():
    raw = '[{"label": "box", "x": 200, "y": 5}, {"label": "box", "x": 127, "y": 5}]'
    hints, _ = parse_object_hints(raw, 128, 128)
    assert len(hints) == 1
    assert hints[0].center_px == (127, 5)


def test_parse_object_hints_skips_malformed_items():
    raw = '[{"label": "", "x": 1, "y": 1}, {"label": "ok", "x": true, "y": 2}, "noise", {"label": "keep", "x": 3, "y": 4}]'
    hints, _ = parse_object_hints(raw, 128, 128)
    assert [h.label for h in hints] == ["keep"]
    # json decodes these to non-finite floats; none of them names a pixel
    raw = (
        '[{"label": "inf", "x": 1e999, "y": 2}, {"label": "nan", "x": NaN, "y": 2},'
        ' {"label": "ninf", "x": 3, "y": -Infinity}, {"label": "keep", "x": 3, "y": 4}]'
    )
    hints, notes = parse_object_hints(raw, 128, 128)
    assert [h.label for h in hints] == ["keep"] and notes == []
    with pytest.raises(HintParseError):
        parse_object_hints('[{"label": "a", "x": 1e999, "y": 2}]', 64, 64)


def test_parse_object_hints_no_array_raises():
    with pytest.raises(HintParseError):
        parse_object_hints("no json here", 128, 128)
    with pytest.raises(HintParseError):
        parse_object_hints("[] empty and [1, 2] wrong shape", 128, 128)


def test_parse_answer_tagged():
    letter, thinking = parse_answer(
        "<thinking> comparing distances </thinking>\n<answer> B </answer>",
        ("one", "two", "three"),
    )
    assert letter == "B"
    assert thinking == "comparing distances"


def test_parse_answer_last_tag_wins():
    raw = "<answer> A </answer> wait no <answer> C </answer>"
    letter, _ = parse_answer(raw, ("one", "two", "three"))
    assert letter == "C"


def test_parse_answer_falls_back_to_last_line():
    letter, thinking = parse_answer("I think...\nthe answer is D\n", ("w", "x", "y", "z"))
    assert letter == "D"
    assert thinking is None


def test_parse_answer_contained_choice_text():
    letter, _ = parse_answer(
        "It must be: The lamp, on your left", ("The box, on your right", "The lamp, on your left")
    )
    assert letter == "B"


def test_parse_answer_ambiguous_or_empty_raises():
    with pytest.raises(AnswerParseError):
        parse_answer("A or B", ("one", "two"))
    with pytest.raises(AnswerParseError):
        parse_answer("   \n  ", ("one", "two"))
    with pytest.raises(AnswerParseError):
        parse_answer("E", ("one", "two"))  # letter outside the choice range
    with pytest.raises(ValueError):
        parse_answer("A", ())


def test_parse_answer_choice_past_the_letters_has_no_letter():
    choices = ("left", "right", "behind", "in front", "above", "below")
    assert parse_answer("<answer> left </answer>", choices)[0] == "A"
    with pytest.raises(AnswerParseError):
        parse_answer("<answer> below </answer>", choices)  # a sixth choice has no letter


# Mock replies the parser fuzz mutates: an object-hint array as a grounding
# reply holds it, and an answer with its thinking block.
_HINT_REPLY = (
    'Visible objects: [{"label": "red chair", "x": 40, "y": 52}, '
    '{"label": "lamp", "x": 100.4, "y": 7}, {"label": "box", "x": 12, "y": 90}] done'
)
_ANSWER_REPLY = "<thinking> the lamp is nearer </thinking>\n<answer> B </answer>"
_FUZZ_CHOICES = ("left", "right", "behind", "in front", "above", "below", "nowhere")
_FUZZ_COORDS = (
    "NaN", "Infinity", "-Infinity", "1e999", "-1e308", "1e308", "9" * 400, "-0", "0.5",
    "true", "false", "null", '"12"', '"left"', "[]", "{}", "[3, 4]",
)
_FUZZ_LABELS = ("1", "2.5", "null", "true", "[]", '{"a": 1}', '""', '"\\u00e9t\\u00e9"', '"\\ud800"')
_FUZZ_TEXT = ("é", "中文", "\u200b", "\U0001f600", "\ud800", "\x00", "Ａ", "Ｂ", "ß", "\u0301", "İ", "\n")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _replace_one(rng, pattern: str, text: str, new: str) -> str:
    matches = list(re.finditer(pattern, text))
    if not matches:
        return text
    m = _pick(rng, matches)
    return text[: m.start(1)] + new + text[m.end(1) :]


def _fuzz_mutations():
    """Named corruptions of a reply; nesting adds at most 16 levels per use."""

    def truncate(rng, text):
        return text[: int(rng.integers(len(text) + 1))]

    def coordinate(rng, text):
        return _replace_one(rng, r'"[xy]": (-?[\d.]+)', text, _pick(rng, _FUZZ_COORDS))

    def label(rng, text):
        return _replace_one(rng, r'"label": ("[^"]*")', text, _pick(rng, _FUZZ_LABELS))

    def nest(rng, text):
        d = int(rng.integers(1, 17))
        at = int(rng.integers(len(text) + 1))
        return _pick(rng, (
            "[" * d + text + "]" * d,  # the whole reply wrapped
            text[:at] + "[" * d + text[at:],  # opened and never closed
            _replace_one(rng, r'"[xy]": (-?[\d.]+)', text, "[" * d + "7" + "]" * d),
        ))

    def non_ascii(rng, text):
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(text) + 1))
            text = text[:at] + _pick(rng, _FUZZ_TEXT) + text[at:]
        return text

    def answer_blocks(rng, text):
        block = "<answer> C </answer>"
        return _pick(rng, (
            re.sub(r"<answer>.*?</answer>", "", text, flags=re.S),  # missing
            text + "\n" + block,  # repeated
            text + block + block.replace("C", "A"),  # repeated, disagreeing
            text.replace("</answer>", ""),  # never closed
            text.replace("answer>", "ANSWER>"),
            text + "<answer></answer>",  # empty
            text + "<answer><answer> D </answer></answer>",  # nested
        ))

    def choice_text(rng, text):
        # name a choice by its text, the fuzz's choices run past the letters
        return _replace_one(rng, r"<answer>(.*?)</answer>", text, f" {_pick(rng, _FUZZ_CHOICES)} ")

    return [truncate, coordinate, label, nest, non_ascii, answer_blocks, choice_text]


def test_parser_fuzz_raises_only_parse_errors():
    # every mutated reply parses or raises the parser's own error; the one
    # other exception is parse_answer's ValueError for an empty choice list
    rng = np.random.default_rng(20261022)
    mutations = _fuzz_mutations()
    used = {m.__name__: 0 for m in mutations}
    outcomes = {"hints": 0, "HintParseError": 0, "answer": 0, "AnswerParseError": 0, "no choices": 0}
    for n in range(4000):
        text = _pick(rng, (_HINT_REPLY, _ANSWER_REPLY, _HINT_REPLY + "\n" + _ANSWER_REPLY))
        for _ in range(int(rng.integers(1, 4))):
            mutate = _pick(rng, mutations)
            used[mutate.__name__] += 1
            text = mutate(rng, text)
        choices = _FUZZ_CHOICES[: int(rng.integers(len(_FUZZ_CHOICES) + 1))]
        try:
            hints, _ = parse_object_hints(text, 128, 96)
        except HintParseError:
            outcomes["HintParseError"] += 1
        except Exception as err:
            raise AssertionError(f"case {n}: parse_object_hints({text!r})") from err
        else:
            outcomes["hints"] += 1
            assert hints, n
            for hint in hints:
                assert isinstance(hint.label, str) and hint.label, n
                assert 0 <= hint.center_px[0] < 128 and 0 <= hint.center_px[1] < 96, n
        try:
            letter, _ = parse_answer(text, choices)
        except AnswerParseError:
            outcomes["AnswerParseError"] += 1
        except ValueError:
            assert choices == (), n
            outcomes["no choices"] += 1
        except Exception as err:
            raise AssertionError(f"case {n}: parse_answer({text!r}, {choices!r})") from err
        else:
            outcomes["answer"] += 1
            assert letter in "ABCDE"[: len(choices)], n
    assert min(used.values()) > 100, used
    assert min(outcomes.values()) > 20, outcomes


def test_describe_turns_format():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    digest = hashlib.sha256(img.tobytes()).hexdigest()[:16]
    turns = [
        ChatTurn("system", (TextPart("be brief"),)),
        ChatTurn("user", (TextPart("look:"), ImagePart(img))),
    ]
    expect = f"=== system ===\nbe brief\n=== user ===\nlook:\n[image 3x2 sha256={digest}]\n"
    assert describe_turns(turns) == expect


# ── scripted and random VLMs ───────────────────────────────────────────────


def test_scripted_vlm_replays_and_records():
    vlm = ScriptedVlm(["first"])
    vlm.push("second")
    turns = [ChatTurn("user", (TextPart("hi"),))]
    assert vlm.complete(turns) == "first"
    assert vlm.complete(turns) == "second"
    assert len(vlm.calls) == 2
    with pytest.raises(ProviderError):
        vlm.complete(turns)


def test_random_mock_vlm_routes_queries():
    vlm = RandomMockVlm(seed=0, motion="fwd-left")
    direction_prompt = [ChatTurn("user", (TextPart("Reply with exactly one of: left, forward."),))]
    assert vlm.complete(direction_prompt) == "fwd-left"
    hints_prompt = [ChatTurn("user", (TextPart("Return a JSON array of objects."),))]
    assert vlm.complete(hints_prompt) == "[]"


def test_random_mock_vlm_answers_deterministically():
    question = "Question: which?\nChoices:\nA. one\nB. two\nC. three\nD. four"
    prompt = [ChatTurn("user", (TextPart(question),))]
    a = [RandomMockVlm(seed=7).complete(prompt) for _ in range(5)]
    b = [RandomMockVlm(seed=7).complete(prompt) for _ in range(5)]
    # same seed, same stream; well-formed tagged answers
    assert a == b
    assert all(r.startswith("<answer> ") and r.endswith(" </answer>") for r in a)
    assert {r[9] for r in a} <= set("ABCD")


# ── synthetic providers ────────────────────────────────────────────────────


def test_rig_nearest_instance_and_masks():
    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    frame = rig.input_frame()
    assert frame.view_id.is_input
    # each cuboid is visible: its mask has pixels and they map back to it
    for idx in range(2):
        bits = rig.mask_bits(world.input_pose, idx)
        assert bits.any()
        ys, xs = np.nonzero(bits)
        assert rig.nearest_instance(world.input_pose, int(xs[0]), int(ys[0])) == idx
    # a sky pixel belongs to nothing
    assert rig.nearest_instance(world.input_pose, 2, 2) is None


def test_rig_renders_each_pose_once_and_reduces_it_exactly(monkeypatch):
    world = generate_world(5, 3)
    intr = world.input_intrinsics
    renders = []

    def counting_render(w, pose, i):
        renders.append(pose)
        return render_nearest(w, pose, i)

    def no_stack(*args):
        raise AssertionError("the rig renders a view without the layered stack")

    monkeypatch.setattr(providers, "render_nearest", counting_render)
    monkeypatch.setattr(providers, "instance_depths", no_stack)
    rig = SyntheticRig(world)
    spec = instantiate_trajectories(AbstractMotion.LEFT, 1, 3, 0.25)[0]
    poses = [world.input_pose, *(world.input_pose.compose(rel) for rel in spec.poses)]
    k = len(world.cuboids)
    for _ in range(2):  # the second round is served from the cache
        for pose in poses:
            stack = instance_depths(world, pose, intr)  # fresh reference, uncounted
            frame = rig.frame(pose, ViewId(0, 0))
            np.testing.assert_array_equal(frame.image, image_from_stack(world, stack))
            np.testing.assert_array_equal(frame.depth.values, depth_from_stack(stack).values)
            for i in range(k + 1):  # every cuboid, then the ground
                np.testing.assert_array_equal(rig.mask_bits(pose, i), mask_from_stack(stack, i))
            assert not frame.image.flags.writeable
            assert not frame.depth.values.flags.writeable
            assert not rig._view(pose).nearest.flags.writeable
    assert len(renders) == len(poses)

    # a sky pixel and a ground pixel of the input view belong to no cuboid
    sky = (2, 2)
    ground = (intr.width // 2, intr.height - 1)
    stack = instance_depths(world, world.input_pose, intr)
    assert not np.isfinite(stack[:, sky[1], sky[0]]).any()
    assert mask_from_stack(stack, k)[ground[1], ground[0]]
    assert rig.nearest_instance(world.input_pose, *sky) is None
    assert rig.nearest_instance(world.input_pose, *ground) is None
    assert len(renders) == len(poses)


def test_synthetic_generator_composes_poses():
    world = generate_world(5, 2)
    provider = SyntheticSceneProvider(world)
    spec = instantiate_trajectories(AbstractMotion.FORWARD, 1, 3, 0.25)[0]
    frames = provider.generator.generate(provider.input_view(), spec)
    assert [f.view_id for f in frames] == [ViewId(0, 0), ViewId(0, 1), ViewId(0, 2)]
    for t, frame in enumerate(frames, start=1):
        np.testing.assert_allclose(
            frame.pose.translation,
            world.input_pose.translation + [0.0, 0.0, t * 0.25],
            atol=1e-12,
        )


def test_synthetic_segmenter_prompt_once_reid():
    world = generate_world(5, 2)
    provider = SyntheticSceneProvider(world)
    rig = provider.rig
    bits = rig.mask_bits(world.input_pose, 1)
    ys, xs = np.nonzero(bits)
    cy, cx = int(ys.mean()), int(xs.mean())
    if not bits[cy, cx]:
        i = int(np.argmin((xs - cx) ** 2 + (ys - cy) ** 2))
        cx, cy = int(xs[i]), int(ys[i])
    hint = ObjectHint(world.cuboids[1].label, (cx, cy), object_id=7)
    # hint pixel is interpreted in the input view even for another frame
    spec = instantiate_trajectories(AbstractMotion.FORWARD, 1, 1, 0.25)[0]
    other = provider.generator.generate(provider.input_view(), spec)[0]
    mask = provider.segmenter.segment(other, hint)
    assert mask.object_id == 7
    assert mask.label == hint.label
    np.testing.assert_array_equal(mask.bits, rig.mask_bits(other.pose, 1))


def test_synthetic_segmenter_background_hint_raises():
    world = generate_world(5, 2)
    provider = SyntheticSceneProvider(world)
    with pytest.raises(ObjectNotFoundError):
        provider.segmenter.segment(provider.input_view(), ObjectHint("ghost", (2, 2), 0))


# ── bundle providers ───────────────────────────────────────────────────────


def test_bundle_generator_serves_and_reports_missing():
    world = generate_world(5, 1)
    rig = SyntheticRig(world)
    frames = {ViewId(0, 0): rig.frame(world.input_pose, ViewId(0, 0))}
    gen = BundleMultiViewGenerator(frames)
    spec = instantiate_trajectories(AbstractMotion.FORWARD, 1, 1, 0.25)[0]
    assert gen.generate(rig.input_frame(), spec)[0].view_id == ViewId(0, 0)
    spec2 = instantiate_trajectories(AbstractMotion.FORWARD, 1, 2, 0.25)[0]
    with pytest.raises(MissingViewError, match="trajectory=0 step=1"):
        gen.generate(rig.input_frame(), spec2)


def test_bundle_segmenter_lookup():
    bits = np.zeros((4, 4), dtype=bool)
    bits[1, 1] = True
    mask = InstanceMask(bits, 3, "box")
    seg = BundleSegmenter({(ViewId(0, 0), 3): mask})
    world = generate_world(5, 1)
    rig = SyntheticRig(world)
    frame = rig.frame(world.input_pose, ViewId(0, 0))
    got = seg.segment(frame, ObjectHint("box", (1, 1), 3))
    assert got is mask
    with pytest.raises(ObjectNotFoundError):
        seg.segment(frame, ObjectHint("box", (1, 1), 9))


# ── geometry mock ──────────────────────────────────────────────────────────


def _payload_closer(label_a, label_b):
    return {
        "template": "ego_move",
        "move": {"right": 0.0, "forward": 1.0},
        "a": {"label": label_a, "instance_id": 0},
        "b": {"label": label_b, "instance_id": 1},
        "choice_specs": [
            {"kind": "closer_side", "closer": "a", "side": "left"},
            {"kind": "closer_side", "closer": "a", "side": "right"},
            {"kind": "closer_side", "closer": "b", "side": "left"},
            {"kind": "closer_side", "closer": "b", "side": "right"},
        ],
    }


def _coords_text(boxes):
    return "3D scene description:\n" + json.dumps({"boxes": boxes})


def test_geometry_mock_reads_coordinate_text():
    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    payload = _payload_closer("chair", "lamp")
    vlm = GeometryMockVlm(rig, payload)
    boxes = [
        {"label": "chair", "center": [-1.0, 0.3, 2.0], "size": [0.5, 0.5, 0.5], "yaw_deg": 0.0},
        {"label": "lamp", "center": [1.5, 0.3, 4.0], "size": [0.4, 0.4, 0.4], "yaw_deg": 0.0},
    ]
    turns = [ChatTurn("user", (TextPart(_coords_text(boxes) + "\nQuestion: q"),))]
    reply = vlm.complete(turns)
    # chair at (-1, 2) after 1 m forward: (-1, 1), dist 1.41; lamp (1.5, 3): 3.35
    assert "<answer> A </answer>" in reply
    assert "coordinate text" in reply


def test_geometry_mock_duplicate_label_uses_largest_volume():
    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    payload = _payload_closer("chair", "lamp")
    vlm = GeometryMockVlm(rig, payload)
    boxes = [
        # a shed sliver of the chair, nearer than the real one
        {"label": "chair", "center": [2.0, 0.3, 1.0], "size": [0.05, 0.02, 0.04], "yaw_deg": 0.0},
        {"label": "chair", "center": [-1.0, 0.3, 2.0], "size": [0.5, 0.5, 0.5], "yaw_deg": 0.0},
        {"label": "lamp", "center": [1.5, 0.3, 4.0], "size": [0.4, 0.4, 0.4], "yaw_deg": 0.0},
    ]
    turns = [ChatTurn("user", (TextPart(_coords_text(boxes) + "\nQuestion: q"),))]
    assert "<answer> A </answer>" in vlm.complete(turns)


def test_geometry_mock_no_context_falls_back():
    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    vlm = GeometryMockVlm(rig, _payload_closer("chair", "lamp"))
    turns = [ChatTurn("user", (TextPart("Question: q\nChoices:\nA. x\nB. y"),))]
    reply = vlm.complete(turns)
    assert "no 3D context" in reply
    assert "<answer> A </answer>" in reply


def test_geometry_mock_missing_label_falls_back():
    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    vlm = GeometryMockVlm(rig, _payload_closer("chair", "lamp"))
    boxes = [{"label": "sofa", "center": [0.0, 0.3, 2.0], "size": [0.5, 0.5, 0.5], "yaw_deg": 0.0}]
    turns = [ChatTurn("user", (TextPart(_coords_text(boxes) + "\nQuestion: q"),))]
    assert "<answer> A </answer>" in vlm.complete(turns)


def test_geometry_mock_grounding_queries():
    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    vlm = GeometryMockVlm(rig, None, motion="right")
    direction = [ChatTurn("user", (TextPart("Reply with exactly one of: left, right."),))]
    assert vlm.complete(direction) == "right"
    hints_prompt = [ChatTurn("user", (TextPart("Return a JSON array of objects."),))]
    hints = json.loads(vlm.complete(hints_prompt))
    assert [h["label"] for h in hints] == [c.label for c in world.cuboids]
    for h, idx in zip(hints, range(len(world.cuboids))):
        assert rig.mask_bits(world.input_pose, idx)[h["y"], h["x"]]


def test_geometry_mock_reads_topdown_render():
    from sandbox3d.sandbox_render import RenderStyle, legend_lines, render_boxes, topdown_camera
    from sandbox3d.scene_model import CameraPose, OrientedBox3, SandboxScene
    from sandbox3d.synthetic_world import default_intrinsics

    world = generate_world(5, 2)
    rig = SyntheticRig(world)
    # chair left-near, lamp right-far, camera at origin looking +z
    scene = SandboxScene(
        (
            OrientedBox3(np.array([-1.0, -0.25, 2.0]), np.eye(3), np.array([0.25, 0.25, 0.25]), "chair", 0),
            OrientedBox3(np.array([1.5, -0.25, 4.0]), np.eye(3), np.array([0.2, 0.2, 0.2]), "lamp", 1),
        ),
        CameraPose.identity(),
        default_intrinsics(),
        up_axis=np.array([0.0, -1.0, 0.0]),
    )
    view = render_boxes(scene, topdown_camera(scene), RenderStyle(width=384, height=384))
    text = "Top-down map.\nLegend:\n" + "\n".join(legend_lines(view)) + "\nQuestion: q"
    vlm = GeometryMockVlm(rig, _payload_closer("chair", "lamp"))
    reply = vlm.complete([ChatTurn("user", (TextPart(text), ImagePart(view.image)))])
    assert "top-down map" in reply
    assert "<answer> A </answer>" in reply


def _reference_positions_from_topdown(text, images):
    """Per-colour full-image compare: the decode the one-pass lookup replaced."""
    scale = providers._SCALE_RE.search(text)
    marker = providers._MARKER_RE.search(text)
    entries = list(dict.fromkeys(providers._LEGEND_RE.findall(text)))
    if scale is None or marker is None or not entries or not images:
        return None
    s = float(scale.group(1))
    mx, my = float(marker.group(1)), float(marker.group(2))
    img = images[-1].astype(np.int16)
    palette = dict(PALETTE)
    best = {}
    for color_name, label, _ in entries:
        rgb = palette.get(color_name)
        if rgb is None:
            continue
        ys, xs = np.nonzero(np.all(img == np.array(rgb, dtype=np.int16), axis=2))
        if len(xs) == 0:
            continue
        u = (float(xs.mean()) - mx) * s
        w = (my - float(ys.mean())) * s
        cur = best.get(label)
        if cur is None or len(xs) > cur[0]:
            best[label] = (len(xs), (u, w))
    found = {k: v for k, (_, v) in best.items()}
    return found if found else None


def test_topdown_decode_matches_per_colour_reference():
    from sandbox3d.sandbox_render import RenderStyle, legend_lines, render_boxes, topdown_camera
    from sandbox3d.scene_model import CameraPose, OrientedBox3, SandboxScene, rotation_about_axis
    from sandbox3d.synthetic_world import default_intrinsics

    rng = np.random.default_rng(31)
    for case in range(40):
        k = int(rng.integers(1, 7))
        ids = rng.choice(26, size=k, replace=False).tolist()  # ids >= 12 reuse colours
        boxes = tuple(
            OrientedBox3(
                np.array([rng.uniform(-3, 3), -0.3, rng.uniform(1, 7)]),
                rotation_about_axis((0.0, 1.0, 0.0), float(rng.uniform(0, 90))),
                rng.uniform(0.05, 0.6, size=3),
                f"obj{int(rng.integers(0, 4))}",  # repeated labels
                iid,
            )
            for iid in ids
        )
        up = np.array([0.0, -1.0, 0.0])
        scene = SandboxScene(boxes, CameraPose.identity(), default_intrinsics(), up_axis=up)
        w, h, line_width = (int(v) for v in rng.integers([64, 64, 1], [300, 300, 4]))
        style = RenderStyle(width=w, height=h, line_width=line_width, draw_axes=bool(case % 2))
        view = render_boxes(scene, topdown_camera(scene), style)
        lines = legend_lines(view)
        # a colour drawn nowhere, a name outside the palette, a repeated entry
        lines += ["- maroon: ghost (instance 99)", "- pink: stray (instance 98)", lines[0]]
        text = "Legend:\n" + "\n".join(lines) + "\nQuestion: q"
        img = view.image.copy()
        img[: 4, : 4] = (1, 2, 3)  # a colour outside the palette
        got = providers._positions_from_topdown(text, [img])
        assert got == _reference_positions_from_topdown(text, [img])
        assert got is not None

    blank = np.full((32, 32, 3), 255, dtype=np.uint8)
    text = "- red: a (instance 0)\nScale: 1 px = 0.010000 m.\nCamera marker at pixel (16.0, 30.0); it looks"
    assert providers._positions_from_topdown(text, [blank]) is None
    assert _reference_positions_from_topdown(text, [blank]) is None


def _ref_palette_footprints(img):
    """Packed-colour lookup over every pixel: the decode the red-table
    prefilter sped up."""
    packed = img[..., 0].astype(np.int32) << 16 | img[..., 1].astype(np.int32) << 8 | img[..., 2]
    pos = np.searchsorted(providers._PACKED_SORTED, packed)
    ys, xs = np.nonzero(providers._PACKED_SORTED[pos] == packed)
    slot = providers._PACKED_ORDER[pos[ys, xs]]
    n = len(PALETTE)
    count = np.bincount(slot, minlength=n)
    return count, np.bincount(slot, xs, n), np.bincount(slot, ys, n)


def test_palette_footprints_match_full_lookup_reference():
    rgb = np.array([c for _, c in PALETTE], dtype=np.uint8)
    rng = np.random.default_rng(47)
    sizes = [(1, 1), (3, 7), (64, 64), (97, 131), (512, 512)]
    for case in range(30):
        h, w = sizes[case % len(sizes)]
        img = np.full((h, w, 3), 255, dtype=np.uint8)
        img[:: max(1, h // 8)] = 210  # grey grid rows and columns
        img[:, :: max(1, w // 8)] = 210
        img[rng.random((h, w)) < 0.02] = 0  # black: red 0 is a palette red (teal)
        n_px = int(rng.integers(0, min(h * w, 3000) + 1))
        flat = rng.integers(0, h * w, size=n_px)
        img.reshape(-1, 3)[flat] = rgb[rng.integers(0, len(PALETTE), size=n_px)]
        # a palette red with another green or blue, and noise colours
        near = rng.integers(0, h * w, size=n_px // 4 + 1)
        img.reshape(-1, 3)[near, 0] = rgb[rng.integers(0, len(PALETTE), size=len(near)), 0]
        img.reshape(-1, 3)[near, 1] ^= np.uint8(1)
        noise = rng.integers(0, h * w, size=n_px // 4 + 1)
        img.reshape(-1, 3)[noise] = rng.integers(0, 256, size=(len(noise), 3), dtype=np.uint8)
        got = providers._palette_footprints(img)
        want = _ref_palette_footprints(img)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype
            np.testing.assert_array_equal(g, r)
    black = np.zeros((5, 5, 3), dtype=np.uint8)
    black[2, 3] = (0, 128, 128)  # teal, whose red is 0
    count, x_sum, y_sum = providers._palette_footprints(black)
    teal = providers._PALETTE_SLOT["teal"]
    assert count.sum() == count[teal] == 1 and (x_sum[teal], y_sum[teal]) == (3.0, 2.0)
