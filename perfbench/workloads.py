"""The three benchmark workloads: inputs from a seed, one timed eval pass.

Every workload scores questions from `build_benchmark`, seeded from the
run's seed and stratified by object count (see `Workload.records`), with the
geometry-reading mock VLM, `[cluster] eps = 0.25` and otherwise the
PipelineConfig defaults, as a closed loop from this process.

- full_eval: `run_eval` in full mode, parallelism 1, 256x256 scenes with five
  questions each, no artifacts. The paper's headline path: analytic rasters,
  proxy elevation, voting and clustering, box renders. Scene caches hit on
  four of every five questions.
- pointcloud_cold: `run_eval` in pointcloud_render mode, parallelism 1, one
  question per scene. Dense point splats and the mock's top-down decode; no
  elevation or voting, and no scene is ever reused, so it is the no-change
  workload for elevation, voting and per-scene memoisation.
- bundle_http: `sandbox3d eval` through `cli.main` with an INI file, full
  mode, artifacts on, parallelism 2, over 512x512 on-disk bundles of the
  same worlds, answered by a loopback HTTP stub in its own process. The only
  workload that runs bundle loading, PNG/depth I/O, the HTTP client and
  thread concurrency.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from sandbox3d import cli, pipeline
from sandbox3d.bundle import write_bundle
from sandbox3d.pipeline import PipelineConfig
from sandbox3d.providers import SyntheticRig, SyntheticMultiViewGenerator, describe_turns
from sandbox3d.qa import QARecord, write_benchmark
from sandbox3d.scene_model import InstanceMask
from sandbox3d.synthetic_world import build_benchmark
from sandbox3d.trajectory_control import AbstractMotion, instantiate_trajectories
from sandbox3d.voting_clustering import ClusterParams
from vlmstub import scene_world

HERE = Path(__file__).resolve().parent
EPS = 0.25
BUNDLE_SIZE = 512
STRATUM_SEED_STRIDE = 100_000
# Scenes per object count (build_benchmark's default range is 2 to 5).
# Cumulative shares 1/12, 4/12, 8/12: the median lies mid 4-object stratum and
# the 80th percentile inside the 5-object one.
SCENE_MIX = {2: 1, 3: 3, 4: 4, 5: 4}


@dataclasses.dataclass(frozen=True)
class Row:
    """One record of one pass, as run_eval reported it."""

    qid: str
    wall_ms: float
    mode_used: str
    predicted: str | None
    correct: bool
    vlm_calls: int
    error: str | None


@dataclasses.dataclass(frozen=True)
class PassResult:
    rows: tuple[Row, ...]
    wall_s: float
    digest: str
    prompt_images: tuple[int, ...]  # images per final prompt, in call order


class PromptCapture:
    """Records every final prompt by wrapping the binding run_pipeline uses.

    Installed per pass, innermost, so it also wraps a traced compose_prompt.
    """

    def __init__(self):
        self.prompts: list[str] = []
        self.images: list[int] = []
        self._original = None

    def __enter__(self):
        self._original = original = pipeline.compose_prompt

        def capture(*args, **kwargs):
            turns = original(*args, **kwargs)
            self.prompts.append(describe_turns(turns))
            self.images.append(sum(len(t.images()) for t in turns))
            return turns

        pipeline.compose_prompt = capture
        return self

    def __exit__(self, *exc):
        pipeline.compose_prompt = self._original
        return False


def behaviour_digest(prompts, rows) -> str:
    """sha256 over every final prompt (text plus image hashes) and every
    answer; prompts are sorted because threads may compose them in any order."""
    h = hashlib.sha256()
    for text in sorted(prompts):
        h.update(text.encode("utf-8") + b"\0")
    for row in rows:
        h.update(f"{row.qid}={row.predicted}\n".encode("utf-8"))
    return h.hexdigest()


class Workload:
    name = ""
    mode = ""
    scenes_per_k: dict[int, int] = {}
    questions_per_world = 5

    def records(self, seed: int) -> list[QARecord]:
        """Scenes stratified by object count, each stratum drawn from its own
        seed range. Question cost grows with the object count, so a fixed
        mix keeps runs of different seeds comparable; the shares put the
        median and the tail percentile inside a stratum (4- and 5-object
        scenes respectively), not on the gap between two."""
        records = []
        for k, scenes in self.scenes_per_k.items():
            records += build_benchmark(
                scenes * self.questions_per_world,
                base_seed=seed + STRATUM_SEED_STRIDE * k,
                objects_range=(k, k),
                questions_per_world=self.questions_per_world,
            )
        return records

    def setup(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def _eval(self, pass_dir: Path) -> list[Row]:
        raise NotImplementedError

    def run_pass(self, pass_dir: Path) -> PassResult:
        with PromptCapture() as capture:
            start = time.perf_counter()
            rows = self._eval(pass_dir)
            wall = time.perf_counter() - start
        return PassResult(
            tuple(rows), wall, behaviour_digest(capture.prompts, rows), tuple(capture.images)
        )

    def stub_stats(self) -> dict | None:
        return None

    def teardown(self) -> None:
        pass


class SyntheticEval(Workload):
    """run_eval over synthetic scenes with the in-process geometry mock."""

    def __init__(self, name: str, mode: str, scenes_per_k: dict, questions_per_world: int):
        self.name = name
        self.mode = mode
        self.scenes_per_k = scenes_per_k
        self.questions_per_world = questions_per_world
        self.config = PipelineConfig(
            mode=mode, vlm="geometry_mock", cluster=ClusterParams(eps=EPS), parallelism=1
        )

    def setup(self, workdir: Path, seed: int) -> None:
        workdir.mkdir(parents=True)
        self.benchmark = workdir / "benchmark.jsonl"
        write_benchmark(self.records(seed), self.benchmark)

    def _eval(self, pass_dir: Path) -> list[Row]:
        report = pipeline.run_eval(self.config, self.benchmark)  # the traced binding
        return [
            Row(r.qid, r.wall_ms, r.mode_used, r.predicted, r.correct, r.vlm_calls, r.error)
            for r in report.rows
        ]


def write_scene_bundle(world, out: Path, config: PipelineConfig) -> None:
    """The input view, the forward trajectory fan the mock VLM asks for,
    and every visible instance mask, as one on-disk bundle."""
    rig = SyntheticRig(world)
    generator = SyntheticMultiViewGenerator(rig)
    input_view = rig.input_frame()
    frames = [input_view]
    for spec in instantiate_trajectories(
        AbstractMotion.FORWARD, config.m_candidates, config.t_steps, config.step_m, config.sweep_deg
    ):
        frames.extend(generator.generate(input_view, spec))
    masks = {}
    for frame in frames:
        for index, cuboid in enumerate(world.cuboids):
            bits = rig.mask_bits(frame.pose, index)
            if bits.any():
                masks[(frame.view_id, index)] = InstanceMask(bits, index, cuboid.label)
    write_bundle(out, frames, masks, scene_id=f"s{world.seed}-k{len(world.cuboids)}")


class BundleHttpEval(Workload):
    """`sandbox3d eval` over bundles, answered by the loopback stub."""

    name = "bundle_http"
    mode = "full"
    parallelism = 2

    def __init__(self, scenes_per_k: dict):
        self.scenes_per_k = scenes_per_k
        self.stub: subprocess.Popen | None = None
        self.port = None

    def setup(self, workdir: Path, seed: int) -> None:
        workdir.mkdir(parents=True)
        config = PipelineConfig()
        records, table, written = [], [], {}
        for rec in self.records(seed):
            scene = rec.scene
            key = (scene["seed"], scene["objects"])
            if key not in written:
                path = workdir / "scenes" / f"s{key[0]}-k{key[1]}"
                write_scene_bundle(scene_world(scene, BUNDLE_SIZE, BUNDLE_SIZE), path, config)
                written[key] = str(path.resolve())
            records.append(dataclasses.replace(rec, scene={"kind": "bundle", "path": written[key]}))
            table.append(
                {
                    "seed": scene["seed"],
                    "objects": scene["objects"],
                    "bounds": scene["bounds"],
                    "width": BUNDLE_SIZE,
                    "height": BUNDLE_SIZE,
                    "question": rec.question,
                    "payload": rec.payload,
                }
            )
        self.benchmark = workdir / "benchmark.jsonl"
        write_benchmark(records, self.benchmark)
        table_path = workdir / "stub_table.json"
        table_path.write_text(json.dumps(table), encoding="utf-8")
        self._start_stub(table_path)
        self.ini = workdir / "eval.ini"
        self.ini.write_text(
            "[pipeline]\n"
            "mode = full\n"
            "vlm = http\n"
            f"base_url = http://127.0.0.1:{self.port}/v1\n"
            "model = geometry-stub\n"
            f"parallelism = {self.parallelism}\n"
            "eval_artifacts = true\n"
            "\n[cluster]\n"
            f"eps = {EPS}\n",
            encoding="utf-8",
        )

    def _start_stub(self, table_path: Path) -> None:
        env = dict(os.environ)
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "vlmstub.py"), "--table", str(table_path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("port "):
            self.teardown()
            raise RuntimeError("VLM stub did not start")
        self.port = int(line.split()[1])

    def _eval(self, pass_dir: Path) -> list[Row]:
        argv = ["eval", "--benchmark", str(self.benchmark), "--config", str(self.ini),
                "--out", str(pass_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        report = json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))
        return [
            Row(r["id"], r["wall_ms"], r["mode_used"], r["predicted"], r["correct"],
                r["vlm_calls"], r["error"])
            for r in report["records"]
        ]

    def run_pass(self, pass_dir: Path) -> PassResult:
        try:
            return super().run_pass(pass_dir)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)

    def stub_stats(self) -> dict:
        url = f"http://127.0.0.1:{self.port}/stats"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def teardown(self) -> None:
        if self.stub is None:
            return
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()
        self.stub = None


WORKLOADS = {
    "full_eval": lambda: SyntheticEval("full_eval", "full", SCENE_MIX, questions_per_world=5),
    "pointcloud_cold": lambda: SyntheticEval(
        "pointcloud_cold",
        "pointcloud_render",
        {k: 5 * n for k, n in SCENE_MIX.items()},
        questions_per_world=1,
    ),
    # Fewer scenes: each costs about a second of 512x512 set-up, three times.
    # Shares 1/8, 3/8, 5/8 keep the median and the 75th percentile in strata.
    "bundle_http": lambda: BundleHttpEval({2: 1, 3: 2, 4: 2, 5: 3}),
}
