"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and runs the public API at its stated tolerance:

1. pixel -> 3D -> pixel round trips are exact to 1e-6 px and fast
2. noiseless multi-view scenes are recovered with correct structure
3. consensus voting removes injected single-view outliers
4. clustering, sampling, and erosion match independent reference oracles
5. box fitting recovers oriented near-cubes and is rigid-motion equivariant
6. pipeline artifacts are byte-identical across reruns
7. the synthetic benchmark separates 3D-context modes from ablations
8. the HTTP client speaks the expected wire protocol incl. retry rules
"""

from __future__ import annotations

import base64
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from sandbox3d.errors import GenerationError, ProviderError
from sandbox3d.image_io import png_bytes
from sandbox3d.pipeline import PipelineConfig, ProviderSet, run_eval, run_pipeline
from sandbox3d.providers import (
    ChatTurn,
    DecodeParams,
    HttpChatVlm,
    ImagePart,
    ScriptedVlm,
    SyntheticSceneProvider,
    TextPart,
)
from sandbox3d.proxy_elevation import erode_mask, fps_sample
from sandbox3d.qa import write_benchmark
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    InstanceMask,
    ProxyCloud,
    ViewId,
    backproject,
    box_corners,
    project,
    rotation_about_axis,
)
from sandbox3d.synthetic_world import (
    BENCHMARK_BOUNDS,
    build_benchmark,
    generate_world,
    ground_coords,
)
from sandbox3d.voting_clustering import (
    ClusterParams,
    ConsensusParams,
    build_sandbox,
    dbscan,
    filter_by_consensus,
    fit_obb,
)

# ── Shared scene machinery ─────────────────────────────────────────────────

_VIEWS = [ViewId(-1, -1)] + [ViewId(m, t) for m in range(3) for t in range(4)]


def _random_pose(rng):
    axis = rng.normal(size=3)
    angle = float(rng.uniform(0.0, 360.0))
    rotation = rotation_about_axis(axis, angle)
    translation = rng.uniform(-5.0, 5.0, size=3)
    return CameraPose(rotation, translation)


def _surface_points(box, n, rng):
    # area-weighted uniform sampling over the six faces of an oriented box
    h = box.half_extents
    areas = np.array([h[1] * h[2], h[0] * h[2], h[0] * h[1]]) * 4.0
    probs = np.repeat(areas, 2) / (2.0 * areas.sum())
    faces = rng.choice(6, size=n, p=probs)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * h
    axis = faces // 2
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    pts[np.arange(n), axis] = sign * h[axis]
    return box.center + pts @ box.axes.T


def _scene_clouds(world, rng, n_per_view=128):
    # noiseless per-(object, view) proxy clouds sampled from the true surfaces
    by_label: dict[str, list[ProxyCloud]] = {}
    for idx, cub in enumerate(world.cuboids):
        box = cub.box()
        for vid in _VIEWS:
            pts = _surface_points(box, n_per_view, rng)
            by_label.setdefault(cub.label, []).append(ProxyCloud.single_view(pts, idx, vid))
    return by_label


def _worlds(n, k_of, base_seed=0):
    out, seed = [], base_seed
    while len(out) < n:
        try:
            out.append(generate_world(seed, k_of(seed)))
        except GenerationError:
            pass
        seed += 1
    return out


# ── 1. Projective round trip ───────────────────────────────────────────────


def test_criterion_1_backprojection_roundtrip_exact_and_fast():
    rng = np.random.default_rng(42)
    intr = CameraIntrinsics.from_hfov(640, 480, 72.0)
    cases = []
    for _ in range(10_000):
        pose = _random_pose(rng)
        u = float(rng.uniform(0.0, intr.width))
        v = float(rng.uniform(0.0, intr.height))
        depth = float(rng.uniform(0.1, 50.0))
        cases.append((u, v, depth, pose))

    worst = 0.0
    start = time.perf_counter()
    for u, v, depth, pose in cases:
        point = backproject((u, v), depth, intr, pose)
        (u2, v2), z2 = project(point, intr, pose)
        worst = max(worst, abs(u2 - u), abs(v2 - v), abs(z2 - depth))
    elapsed = time.perf_counter() - start

    assert worst < 1e-6, f"round-trip error {worst:.3e} px"
    assert elapsed < 1.0, f"10k round trips took {elapsed:.2f}s"


# ── 2. Noiseless scene recovery ────────────────────────────────────────────


def test_criterion_2_multi_view_scene_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(20240711)
    count_ok = 0
    max_center_err = 0.0
    pred_ok = pred_all = 0

    for world in _worlds(100, lambda s: 1 + s % 5):
        by_label = _scene_clouds(world, rng)
        scene = build_sandbox(
            by_label,
            ConsensusParams(),
            ClusterParams(),
            world.input_pose,
            world.input_intrinsics,
            world.up_axis,
        )
        if len(scene.boxes) != len(world.cuboids):
            continue
        count_ok += 1

        # match each true cuboid to the nearest unused recovered box of its label
        matches = []
        used: set[int] = set()
        for cub in world.cuboids:
            cands = [b for b in scene.boxes if b.label == cub.label and b.instance_id not in used]
            best = min(cands, key=lambda b: np.linalg.norm(b.center - np.array(cub.center)))
            used.add(best.instance_id)
            err = float(np.linalg.norm(best.center - np.array(cub.center)))
            max_center_err = max(max_center_err, err)
            matches.append((np.array(cub.center), best.center))

        # every pairwise predicate with a >0.2 m true margin must match
        for i in range(len(matches)):
            for j in range(i + 1, len(matches)):
                (ta, ra), (tb, rb) = matches[i], matches[j]
                tua, twa = ground_coords(world, ta)
                tub, twb = ground_coords(world, tb)
                rua, rwa = ground_coords(world, ra)
                rub, rwb = ground_coords(world, rb)
                if abs(tua - tub) > 0.2:  # left/right of each other
                    pred_all += 1
                    pred_ok += (tua < tub) == (rua < rub)
                ta_range, tb_range = np.hypot(tua, twa), np.hypot(tub, twb)
                if abs(ta_range - tb_range) > 0.2:  # closer/farther from camera
                    pred_all += 1
                    pred_ok += (ta_range < tb_range) == (np.hypot(rua, rwa) < np.hypot(rub, rwb))
    elapsed = time.perf_counter() - start

    assert count_ok >= 95, f"instance count correct in only {count_ok}/100 scenes"
    assert max_center_err <= 0.10, f"worst recovered center off by {max_center_err:.3f} m"
    assert pred_all > 0 and pred_ok == pred_all, f"predicates {pred_ok}/{pred_all}"
    assert elapsed < 60.0, f"recovery suite took {elapsed:.1f}s"


# ── 3. Outlier rejection by cross-view consensus ───────────────────────────


def _point_outside_boxes(p, boxes, clearance):
    for b in boxes:
        local = (p - b.center) @ b.axes
        d = np.abs(local) - b.half_extents
        if np.all(d < clearance) and np.linalg.norm(np.maximum(d, 0.0)) < clearance:
            return False
    return True


def test_criterion_3_consensus_rejects_single_view_outliers():
    rng = np.random.default_rng(77)
    removal_rates, loss_rates = [], []

    for world in _worlds(50, lambda s: 1 + s % 5, base_seed=1000):
        boxes = [c.box() for c in world.cuboids]
        lo = np.min([box_corners(b).min(axis=0) for b in boxes], axis=0) - 0.5
        hi = np.max([box_corners(b).max(axis=0) for b in boxes], axis=0) + 0.5
        by_label = _scene_clouds(world, rng)

        # contaminate the input view of every label with 20% uniform outliers
        # kept well clear (>= 0.25 m) of all true surfaces
        outlier_keys: set[bytes] = set()
        n_in = n_out = 0
        for label in list(by_label):
            clouds = by_label[label]
            n_in += sum(len(c) for c in clouds)
            input_sized = sum(
                len(c) for c in clouds if c.view_ids and c.view_ids[0] == ViewId(-1, -1)
            )
            n_add = int(0.2 * input_sized)
            pts = []
            while len(pts) < n_add:
                p = rng.uniform(lo, hi)
                if _point_outside_boxes(p, boxes, 0.25):
                    pts.append(p)
            bad = ProxyCloud.single_view(np.array(pts), 99, ViewId(-1, -1))
            outlier_keys |= {row.tobytes() for row in bad.xyz}
            by_label[label] = clouds + [bad]
            n_out += n_add

        kept_in = kept_out = 0
        for clouds in by_label.values():
            kept = filter_by_consensus(clouds, ConsensusParams())
            for row in kept.xyz:
                if row.tobytes() in outlier_keys:
                    kept_out += 1
                else:
                    kept_in += 1
        removal_rates.append(1.0 - kept_out / n_out)
        loss_rates.append(1.0 - kept_in / n_in)

    mean_removal = float(np.mean(removal_rates))
    mean_loss = float(np.mean(loss_rates))
    assert mean_removal >= 0.95, f"only {mean_removal:.3f} of outliers removed"
    assert mean_loss <= 0.05, f"{mean_loss:.3f} of inliers lost"


# ── 4. Primitive algorithms against independent oracles ───────────────────


def _dbscan_oracle(pts, eps, min_pts):
    """Dense-matrix reference: components of core points, borders adopted by
    the lowest-numbered adjacent cluster, everything else noise."""
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    diff = pts[:, None, :] - pts[None, :, :]
    adj = (diff * diff).sum(axis=2) <= eps * eps  # inclusive, self-adjacent
    core = adj.sum(axis=1) >= min_pts

    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cluster
        stack = [i]
        while stack:
            j = stack.pop()
            for k in np.nonzero(adj[j] & core)[0]:
                if labels[k] == -1:
                    labels[k] = cluster
                    stack.append(k)
        cluster += 1
    for i in range(n):
        if core[i]:
            continue
        near = np.nonzero(adj[i] & core)[0]
        if len(near):
            labels[i] = labels[near].min()
    return labels


def _fps_oracle(mask, n):
    ys, xs = np.nonzero(mask.bits)
    pts = [(int(x), int(y)) for x, y in zip(xs, ys)]
    if len(pts) <= n:
        return pts
    k, sx, sy = len(pts), int(xs.sum()), int(ys.sum())
    seed = min(range(k), key=lambda i: (k * pts[i][0] - sx) ** 2 + (k * pts[i][1] - sy) ** 2)
    chosen = [seed]
    min_d2 = [
        (p[0] - pts[seed][0]) ** 2 + (p[1] - pts[seed][1]) ** 2 for p in pts
    ]
    while len(chosen) < n:
        nxt = max(range(k), key=lambda i: (min_d2[i], -i))  # first index wins ties
        chosen.append(nxt)
        for i, p in enumerate(pts):
            d2 = (p[0] - pts[nxt][0]) ** 2 + (p[1] - pts[nxt][1]) ** 2
            if d2 < min_d2[i]:
                min_d2[i] = d2
    return [pts[i] for i in chosen]


def _erosion_oracle(mask, iterations):
    bits = [[bool(v) for v in row] for row in mask.bits]
    h, w = mask.bits.shape
    for _ in range(iterations):
        out = [[False] * w for _ in range(h)]
        any_set = False
        for y in range(h):
            for x in range(w):
                keep = True
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if not (0 <= yy < h and 0 <= xx < w and bits[yy][xx]):
                            keep = False
                if keep:
                    out[y][x] = True
                    any_set = True
        if not any_set:
            return np.array([[bool(v) for v in row] for row in mask.bits])
        bits = out
    return np.array(bits, dtype=bool) if iterations else mask.bits.copy()


def test_criterion_4_primitives_match_reference_oracles():
    rng = np.random.default_rng(2024)

    # DBSCAN vs dense O(n^2) reference on 1000 mixed-structure cases
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        n_blobs = int(rng.integers(1, 5))
        centers = rng.uniform(-2.0, 2.0, size=(n_blobs, 3))
        assign = rng.integers(0, n_blobs, size=n)
        pts = centers[assign] + rng.normal(scale=0.12, size=(n, 3))
        n_noise = int(rng.integers(0, max(1, n // 4)))
        if n_noise:
            pts[:n_noise] = rng.uniform(-4.0, 4.0, size=(n_noise, 3))
        eps = float(rng.uniform(0.1, 0.5))
        min_pts = int(rng.integers(1, 9))
        np.testing.assert_array_equal(dbscan(pts, eps, min_pts), _dbscan_oracle(pts, eps, min_pts))

    # farthest-point sampling vs brute-force greedy on 1000 masks
    checked = 0
    while checked < 1000:
        h, w = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        bits = rng.random((h, w)) < float(rng.uniform(0.1, 0.9))
        if not bits.any():
            continue
        mask = InstanceMask(bits, 0, "m")
        n = int(rng.integers(1, 9))
        got = [tuple(p) for p in fps_sample(mask, n)]
        assert got == _fps_oracle(mask, n)
        checked += 1

    # erosion vs per-pixel min-neighborhood oracle on 500 masks
    for i in range(500):
        h, w = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        bits = rng.random((h, w)) < float(rng.uniform(0.2, 0.95))
        if not bits.any():
            bits[0, 0] = True
        mask = InstanceMask(bits, i, "m")
        iterations = int(rng.integers(0, 4))
        got = erode_mask(mask, iterations)
        np.testing.assert_array_equal(got.bits, _erosion_oracle(mask, iterations))


# ── 5. Oriented box fitting ────────────────────────────────────────────────


def _face_grids(sizes, m=40):
    # symmetric per-face grids: covariance is exactly diagonal with distinct
    # eigenvalues, so the recovered axes are well defined
    hx, hy, hz = np.asarray(sizes) / 2.0
    xs, ys, zs = np.linspace(-hx, hx, m), np.linspace(-hy, hy, m), np.linspace(-hz, hz, m)
    pts = []
    for sign in (1.0, -1.0):
        gy, gz = np.meshgrid(ys, zs, indexing="ij")
        pts.append(np.stack([np.full(gy.size, sign * hx), gy.ravel(), gz.ravel()], axis=1))
        gx, gz = np.meshgrid(xs, zs, indexing="ij")
        pts.append(np.stack([gx.ravel(), np.full(gx.size, sign * hy), gz.ravel()], axis=1))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts.append(np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, sign * hz)], axis=1))
    return np.concatenate(pts)


def _axis_angles_deg(axes, reference):
    cosines = [min(1.0, abs(float(axes[:, i] @ reference[:, i]))) for i in range(3)]
    return [float(np.degrees(np.arccos(c))) for c in cosines]


def test_criterion_5_box_fit_accuracy_and_equivariance():
    sizes = (1.0, 0.992, 0.984)  # near-cube: distinct extents within 2% of 0.5
    true_halves = np.asarray(sizes) / 2.0
    pts = _face_grids(sizes)

    aligned = fit_obb(pts, "cube", 0)
    assert max(_axis_angles_deg(aligned.axes, np.eye(3))) < 5.0
    np.testing.assert_allclose(aligned.half_extents, true_halves, rtol=0.02)

    rot45 = rotation_about_axis((0.0, 0.0, 1.0), 45.0)
    rotated = fit_obb(pts @ rot45.T, "cube", 0)
    assert max(_axis_angles_deg(rotated.axes, rot45)) < 5.0
    np.testing.assert_allclose(rotated.half_extents, true_halves, rtol=0.02)

    # rigid-motion equivariance: moving the cluster moves the fitted corners
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = int(rng.integers(20, 201))
        cluster = rng.normal(size=(m, 3)) * np.array([1.0, 0.6, 0.3])
        rotation = rotation_about_axis(rng.normal(size=3), float(rng.uniform(0.0, 360.0)))
        shift = rng.uniform(-5.0, 5.0, size=3)

        base = box_corners(fit_obb(cluster, "c", 0)) @ rotation.T + shift
        moved = box_corners(fit_obb(cluster @ rotation.T + shift, "c", 0))
        dists = np.linalg.norm(base[:, None, :] - moved[None, :, :], axis=2)
        assert dists.min(axis=1).max() < 1e-6
        assert dists.min(axis=0).max() < 1e-6


# ── 6. Deterministic artifacts ─────────────────────────────────────────────

_QUESTION = "If you walk forward 1 meter, which object is closer?"
_CHOICES = ("alpha", "beta", "gamma", "delta")


def _scripted_run(out_dir):
    sp = SyntheticSceneProvider(generate_world(3, 2, BENCHMARK_BOUNDS))
    hints = []
    for idx, cub in enumerate(sp.world.cuboids):
        ys, xs = np.nonzero(sp.rig.mask_bits(sp.world.input_pose, idx))
        mid = len(xs) // 2
        hints.append({"label": cub.label, "x": int(xs[mid]), "y": int(ys[mid])})
    vlm = ScriptedVlm(["forward", json.dumps(hints), "<answer> B </answer>"])
    providers = ProviderSet(
        input_view=sp.input_view(),
        generator=sp.generator,
        segmenter=sp.segmenter,
        vlm=vlm,
        up_axis=sp.world.up_axis,
    )
    config = PipelineConfig(cluster=ClusterParams(eps=0.25))
    result = run_pipeline(config, providers, _QUESTION, _CHOICES, qid="det", out_dir=out_dir)
    assert result.mode_used == "full" and result.answer == "B"


def test_criterion_6_artifacts_are_byte_identical_across_runs(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    _scripted_run(dir_a)
    _scripted_run(dir_b)

    rel_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    assert rel_a == rel_b and rel_a

    pngs = [rel for rel in rel_a if rel.suffix == ".png"]
    assert {"det_stepback.png", "det_topdown.png"} <= {rel.name for rel in pngs}
    assert len(pngs) >= 15  # input + 12 synthesized views + 2 renders
    for rel in rel_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), str(rel)


# ── 7. Benchmark separation between modes ──────────────────────────────────


def test_criterion_7_benchmark_mode_separation(tmp_path):
    records = build_benchmark(200)
    path = tmp_path / "bench.jsonl"
    write_benchmark(records, path)

    full = run_eval(
        PipelineConfig(vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=8),
        path,
    )
    mv_only = run_eval(
        PipelineConfig(
            mode="mv_only", vlm="geometry_mock", cluster=ClusterParams(eps=0.25), parallelism=8
        ),
        path,
    )
    random_mock = run_eval(
        PipelineConfig(mode="mv_only", vlm="random_mock", parallelism=8),
        path,
    )

    assert full.n == mv_only.n == random_mock.n == 200
    assert full.failed == ()
    assert full.accuracy >= 0.95, f"full-mode accuracy {full.accuracy:.4f}"
    assert full.accuracy > mv_only.accuracy, (
        f"full {full.accuracy:.4f} does not beat mv_only {mv_only.accuracy:.4f}"
    )
    assert abs(random_mock.accuracy - 0.25) <= 0.08, (
        f"random baseline {random_mock.accuracy:.4f} outside 0.25 +/- 0.08"
    )


# ── 8. HTTP wire protocol ──────────────────────────────────────────────────


class _StubHandler(BaseHTTPRequestHandler):
    script: list[tuple[int, bytes]] = []
    requests: list[dict] = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        with _StubHandler.lock:
            _StubHandler.requests.append(
                {
                    "path": self.path,
                    "auth": self.headers.get("Authorization"),
                    "body": json.loads(body.decode("utf-8")),
                }
            )
            status, payload = (
                _StubHandler.script.pop(0) if _StubHandler.script else (500, b"{}")
            )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _reply(text):
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def test_criterion_8_http_client_transcript():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()
    base_url = f"http://127.0.0.1:{server.server_port}"
    client = HttpChatVlm(
        base_url=base_url, model="test-model", api_key="sekret", backoff_s=0.001
    )
    image = np.zeros((2, 2, 3), dtype=np.uint8)
    image[0, 0] = (255, 0, 0)
    turns = [
        ChatTurn("system", (TextPart("Answer with a letter."),)),
        ChatTurn("user", (TextPart("Pick one."), ImagePart(image))),
    ]
    data_url = "data:image/png;base64," + base64.b64encode(png_bytes(image)).decode("ascii")

    try:
        # happy path: one request, exact recorded body
        _StubHandler.script = [(200, _reply("<answer> A </answer>"))]
        _StubHandler.requests = []
        out = client.complete(turns, DecodeParams(temperature=0.2, max_tokens=32))
        assert out == "<answer> A </answer>"
        assert len(_StubHandler.requests) == 1
        request = _StubHandler.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["auth"] == "Bearer sekret"
        assert request["body"] == {
            "model": "test-model",
            "messages": [
                {
                    "role": "system",
                    "content": [{"type": "text", "text": "Answer with a letter."}],
                },
                {
                    "role": "user",
                    "content": [
                        {"type": "text", "text": "Pick one."},
                        {"type": "image_url", "image_url": {"url": data_url}},
                    ],
                },
            ],
            "temperature": 0.2,
            "max_tokens": 32,
        }

        # 429 is retried until success
        _StubHandler.script = [(429, b"{}"), (200, _reply("ok"))]
        _StubHandler.requests = []
        assert client.complete(turns, DecodeParams()) == "ok"
        assert len(_StubHandler.requests) == 2

        # 401 is terminal: exactly one request, no retries
        _StubHandler.script = [(401, b"{}")]
        _StubHandler.requests = []
        with pytest.raises(ProviderError) as err:
            client.complete(turns, DecodeParams())
        assert err.value.status == 401
        assert len(_StubHandler.requests) == 1
    finally:
        server.shutdown()
        server.server_close()
