from __future__ import annotations

import json

import pytest

from sandbox3d.qa import (
    CATEGORIES,
    LETTERS,
    TURN_BUCKET_TEXT,
    QARecord,
    closer_side_text,
    evaluate_question,
    read_benchmark,
    record_from_dict,
    record_to_dict,
    true_choice_spec,
    turn_bucket,
    view_side_range_text,
    write_benchmark,
)


def _closer_specs():
    return [
        {"kind": "closer_side", "closer": "a", "side": "left"},
        {"kind": "closer_side", "closer": "a", "side": "right"},
        {"kind": "closer_side", "closer": "b", "side": "left"},
        {"kind": "closer_side", "closer": "b", "side": "right"},
    ]


def test_ego_move_shifts_both_objects():
    # camera moves 1 m right: a at (1, 2) lands at (0, 2), b at (3, 2) at (2, 2)
    payload = {
        "template": "ego_move",
        "move": {"right": 1.0, "forward": 0.0},
        "choice_specs": _closer_specs(),
    }
    spec = true_choice_spec(payload, (1.0, 2.0), (3.0, 2.0))
    # a sits exactly ahead (u=0) after the move: u < 0 is left, so 0 is right
    assert spec == {"kind": "closer_side", "closer": "a", "side": "right"}
    assert evaluate_question(payload, (1.0, 2.0), (3.0, 2.0)) == 1


def test_object_move_shifts_only_b():
    # b at (0.5, 4) moves 2 m toward the camera: (0.5, 2); a stays at (-1, 2.5)
    payload = {
        "template": "object_move",
        "move": {"right": 0.0, "forward": -2.0},
        "choice_specs": _closer_specs(),
    }
    spec = true_choice_spec(payload, (-1.0, 2.5), (0.5, 4.0))
    # |b'| = hypot(0.5, 2) = 2.06 < |a| = hypot(1, 2.5) = 2.69
    assert spec == {"kind": "closer_side", "closer": "b", "side": "right"}
    assert evaluate_question(payload, (-1.0, 2.5), (0.5, 4.0)) == 3


def test_action_consequence_direction_from_believed_b():
    # b at (0, 4) walks 1 m toward the camera: lands at (0, 3), still farther
    # than a at (0.5, 1)
    payload = {
        "template": "action_consequence",
        "action": "toward",
        "dist": 1.0,
        "choice_specs": _closer_specs(),
    }
    spec = true_choice_spec(payload, (0.5, 1.0), (0.0, 4.0))
    assert spec == {"kind": "closer_side", "closer": "a", "side": "right"}
    # walking away instead leaves b at (0, 5)
    payload["action"] = "away"
    spec = true_choice_spec(payload, (0.5, 1.0), (0.0, 4.0))
    assert spec["closer"] == "a"


def test_action_consequence_rejects_coincident_b_and_camera():
    payload = {
        "template": "action_consequence",
        "action": "toward",
        "dist": 1.0,
        "choice_specs": _closer_specs(),
    }
    with pytest.raises(ValueError):
        true_choice_spec(payload, (1.0, 1.0), (0.0, 0.0))


def test_turn_bucket_edges():
    # bucket counts edges theta >= edge, theta = atan2(u, w)
    assert turn_bucket((-1.0, 1.0)) == 0  # -45 deg: hard left
    assert turn_bucket((-0.2, 1.0)) == 1  # ~-11 deg: soft left
    assert turn_bucket((0.0, 1.0)) == 2  # dead ahead counts as soft right
    assert turn_bucket((0.2, 1.0)) == 2  # ~11 deg: soft right
    assert turn_bucket((1.0, 1.0)) == 3  # 45 deg: hard right
    # bucket text ordering matches
    assert len(TURN_BUCKET_TEXT) == 4


def test_goal_aim_uses_position_of_a():
    payload = {
        "template": "goal_aim",
        "choice_specs": [{"kind": "turn_bucket", "bucket": i} for i in range(4)],
    }
    assert evaluate_question(payload, (-1.0, 1.0), (0.0, 1.0)) == 0
    assert evaluate_question(payload, (1.0, 1.0), (0.0, 1.0)) == 3


def test_perspective_side_and_range():
    # standing at b (0, 4) facing the camera at (0, 0): facing (0, -1),
    # right is (-1, 0); a at (-2, 3) has rel (-2, -1), dot right = +2: "right"
    payload = {
        "template": "perspective",
        "choice_specs": [
            {"kind": "view_side_range", "side": "left", "range": "nearer"},
            {"kind": "view_side_range", "side": "left", "range": "farther"},
            {"kind": "view_side_range", "side": "right", "range": "nearer"},
            {"kind": "view_side_range", "side": "right", "range": "farther"},
        ],
    }
    # |rel| = sqrt(5) = 2.24 < |b to camera| = 4: nearer
    assert evaluate_question(payload, (-2.0, 3.0), (0.0, 4.0)) == 2
    # mirrored a lands on the left
    assert evaluate_question(payload, (2.0, 3.0), (0.0, 4.0)) == 0


def test_unknown_template_and_missing_specs_raise():
    with pytest.raises(ValueError, match="unknown template"):
        true_choice_spec({"template": "nope"}, (0.0, 1.0), (0.0, 2.0))
    payload = {"template": "goal_aim"}
    with pytest.raises(ValueError, match="choice_specs"):
        evaluate_question(payload, (0.0, 1.0), (0.0, 2.0))
    payload = {
        "template": "goal_aim",
        "choice_specs": [{"kind": "turn_bucket", "bucket": 9}],
    }
    with pytest.raises(ValueError, match="no choice matches"):
        evaluate_question(payload, (0.0, 1.0), (0.0, 2.0))


def test_choice_text_helpers():
    assert closer_side_text("lamp", "left") == "The lamp, on your left"
    assert (
        view_side_range_text("sofa", "right", "farther")
        == "On the right, and farther to the sofa than you are"
    )


def test_record_validation():
    with pytest.raises(ValueError):
        QARecord("q1", {}, "?", ("only one",), "A", "EgoM")
    with pytest.raises(ValueError):
        QARecord("q1", {}, "?", ("x", "y"), "C", "EgoM")
    with pytest.raises(ValueError, match="at most 5 choices"):
        QARecord("q1", {}, "?", tuple("uvwxyz"), "A", "EgoM")  # the sixth has no letter
    assert len(CATEGORIES) == 5
    assert LETTERS == "ABCDE"


def test_record_round_trip(tmp_path):
    rec = QARecord(
        qid="s1-q0",
        scene={"kind": "synthetic", "seed": 1, "objects": 2},
        question="Which is closer?",
        choices=("The box, on your left", "The box, on your right"),
        gold="B",
        category="EgoM",
        payload={"template": "ego_move"},
    )
    assert record_from_dict(record_to_dict(rec)) == rec
    path = tmp_path / "bench.jsonl"
    write_benchmark([rec, rec], path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    # JSONL with sorted keys
    assert json.loads(lines[0])["id"] == "s1-q0"
    assert lines[0].index('"category"') < lines[0].index('"gold"')
    back = read_benchmark(path)
    assert back == [rec, rec]


def test_record_from_dict_malformed():
    with pytest.raises(ValueError, match="malformed"):
        record_from_dict({"id": "x"})
