"""Benchmark records and the shared relational-question semantics.

A question's meaning lives in its structured payload: roles "a"/"b" name two
objects, and `choice_specs` describes, in order, what each lettered option
claims. Anything that can place the referenced objects in the origin camera's
ground frame (the exact world, parsed coordinates, a decoded render) can
evaluate a question through `evaluate_question`, so the ground-truth oracle
and prompt-reading answerers cannot drift apart on the predicate definitions.

Ground-frame convention: 2D coordinates (u, w) with u along the origin
camera's right and w along its forward direction, both projected to the
ground plane; the camera sits at (0, 0) facing +w. Distances are horizontal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import atan2, degrees, hypot
from pathlib import Path

from .errors import loads_json

LETTERS = "ABCDE"

CATEGORIES = ("EgoM", "ObjectM", "GoalAim", "ActCons", "Perspect")

TURN_EDGES_DEG = (-20.0, 0.0, 20.0)

TURN_BUCKET_TEXT = (
    "Turn left by more than 20 degrees",
    "Turn left by at most 20 degrees",
    "Turn right by at most 20 degrees",
    "Turn right by more than 20 degrees",
)


@dataclass(frozen=True)
class QARecord:
    """One benchmark question with scene reference and scoring metadata."""

    qid: str
    scene: dict  # {"kind": "synthetic", "seed": ..., "objects": ...} or bundle path
    question: str
    choices: tuple[str, ...]
    gold: str  # letter, element of LETTERS[: len(choices)]
    category: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.choices) < 2:
            raise ValueError("a question needs at least two choices")
        if len(self.choices) > len(LETTERS):
            raise ValueError(f"a question has at most {len(LETTERS)} choices, one per letter")
        if self.gold not in LETTERS[: len(self.choices)]:
            raise ValueError(f"gold answer {self.gold!r} outside the choice letters")
        object.__setattr__(self, "choices", tuple(self.choices))


def record_to_dict(rec: QARecord) -> dict:
    return {
        "id": rec.qid,
        "scene": rec.scene,
        "question": rec.question,
        "choices": list(rec.choices),
        "gold": rec.gold,
        "category": rec.category,
        "payload": rec.payload,
    }


def record_from_dict(d: dict) -> QARecord:
    try:
        return QARecord(
            qid=str(d["id"]),
            scene=dict(d["scene"]),
            question=str(d["question"]),
            choices=tuple(str(c) for c in d["choices"]),
            gold=str(d["gold"]),
            category=str(d["category"]),
            payload=dict(d.get("payload", {})),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed benchmark record: {e}") from e


def write_benchmark(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(record_to_dict(rec), sort_keys=True) + "\n")


def read_benchmark(path) -> list[QARecord]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(record_from_dict(loads_json(line)))
    return records


# ── Question semantics ─────────────────────────────────────────────────────


def _right_of(facing: tuple[float, float]) -> tuple[float, float]:
    # Rotate the facing direction a quarter turn clockwise (seen from above).
    return (facing[1], -facing[0])


def _closer_side(pa, pb) -> dict:
    da, db = hypot(*pa), hypot(*pb)
    closer, pos = ("a", pa) if da < db else ("b", pb)
    return {"kind": "closer_side", "closer": closer, "side": "left" if pos[0] < 0 else "right"}


def turn_bucket(pos) -> int:
    theta = degrees(atan2(pos[0], pos[1]))
    bucket = 0
    for edge in TURN_EDGES_DEG:
        if theta >= edge:
            bucket += 1
    return bucket


def _unit_from(src, dst) -> tuple[float, float]:
    d = (dst[0] - src[0], dst[1] - src[1])
    n = hypot(*d)
    if n == 0:
        raise ValueError("degenerate direction between coincident points")
    return (d[0] / n, d[1] / n)


def true_choice_spec(payload: dict, pos_a, pos_b) -> dict:
    """Evaluate the question's predicate over ground-frame positions.

    pos_a / pos_b are (u, w) positions of roles "a" and "b"; the origin camera
    sits at (0, 0) facing +w. Returns the spec dict that is true.
    """
    template = payload.get("template")
    if template == "ego_move":
        du, dw = payload["move"]["right"], payload["move"]["forward"]
        pa = (pos_a[0] - du, pos_a[1] - dw)
        pb = (pos_b[0] - du, pos_b[1] - dw)
        return _closer_side(pa, pb)
    if template == "object_move":
        du, dw = payload["move"]["right"], payload["move"]["forward"]
        return _closer_side(pos_a, (pos_b[0] + du, pos_b[1] + dw))
    if template == "action_consequence":
        # Direction is recomputed from wherever the answerer believes B is.
        toward = _unit_from(pos_b, (0.0, 0.0))
        sign = 1.0 if payload["action"] == "toward" else -1.0
        dist = float(payload["dist"])
        moved = (pos_b[0] + sign * dist * toward[0], pos_b[1] + sign * dist * toward[1])
        return _closer_side(pos_a, moved)
    if template == "goal_aim":
        return {"kind": "turn_bucket", "bucket": turn_bucket(pos_a)}
    if template == "perspective":
        facing = _unit_from(pos_b, (0.0, 0.0))  # standing at B, facing the camera
        right = _right_of(facing)
        rel = (pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])
        side = "right" if rel[0] * right[0] + rel[1] * right[1] > 0 else "left"
        d_a = hypot(*rel)
        d_cam = hypot(pos_b[0], pos_b[1])
        return {
            "kind": "view_side_range",
            "side": side,
            "range": "nearer" if d_a < d_cam else "farther",
        }
    raise ValueError(f"malformed question payload: unknown template {template!r}")


def evaluate_question(payload: dict, pos_a, pos_b) -> int:
    """Return the index of the true choice given ground-frame positions."""
    truth = true_choice_spec(payload, pos_a, pos_b)
    specs = payload.get("choice_specs")
    if not isinstance(specs, list):
        raise ValueError("malformed question payload: missing choice_specs")
    for i, spec in enumerate(specs):
        if all(spec.get(k) == v for k, v in truth.items()):
            return i
    raise ValueError(f"no choice matches the true relation {truth}")


def closer_side_text(label: str, side: str) -> str:
    return f"The {label}, on your {side}"


def view_side_range_text(label_b: str, side: str, rng: str) -> str:
    return f"On the {side}, and {rng} to the {label_b} than you are"
