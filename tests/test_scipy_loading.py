"""Which runs load scipy: only those that vote, filter or cluster.

`voting_clustering` imports scipy inside the functions that use it, so a
process that never calls them never pays for the import. Each check runs in
a fresh interpreter, since this test process has scipy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sandbox3d.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(m for m in ("scipy.spatial", "scipy.sparse") if m in _sys.modules)))
"""


def _scipy_loaded_after(code: str, cwd: Path) -> list[str]:
    """The scipy subpackages in `sys.modules` after `code` runs in a fresh
    interpreter, read from the last line that interpreter prints."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["sandbox3d", "sandbox3d.cli"])
def test_importing_the_package_leaves_scipy_unloaded(tmp_path, module):
    assert _scipy_loaded_after(f"import {module}", tmp_path) == []


def test_synth_leaves_scipy_unloaded(tmp_path):
    code = """
    from sandbox3d.cli import main
    assert main(["synth", "--seed", "3", "--objects", "3", "--out", "b", "--questions", "2"]) == 0
    """
    assert _scipy_loaded_after(code, tmp_path) == []
    assert (tmp_path / "b" / "manifest.json").is_file()


@pytest.mark.parametrize("mode", ["pointcloud_render", "mv_only"])
def test_baseline_modes_leave_scipy_unloaded(tmp_path, mode):
    code = f"""
    from sandbox3d.pipeline import PipelineConfig, SceneCache, run_pipeline
    from sandbox3d.synthetic_world import build_benchmark

    record = build_benchmark(1)[0]
    cfg = PipelineConfig(mode={mode!r}, vlm="geometry_mock")
    providers = SceneCache(cfg).providers_for(record, 0)
    result = run_pipeline(cfg, providers, record.question, record.choices)
    assert result.mode_used == {mode!r} and result.error is None, result
    assert result.answer is not None, result
    """
    assert _scipy_loaded_after(code, tmp_path) == []


def test_a_full_eval_loads_scipy_on_its_workers(tmp_path, capsys):
    # two bundle scenes, answered by the geometry mock of the world each was
    # rendered from; the first scipy import happens on a pool thread, and the
    # rows equal those of a one-thread eval run after it
    bench = []
    for seed in (3, 4):
        out = tmp_path / f"scene{seed}"
        assert main(["synth", "--seed", str(seed), "--objects", "3", "--out", str(out),
                     "--questions", "2"]) == 0
        for line in (out / "questions.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record["scene"] = {"kind": "bundle", "path": str(out)}
            bench.append(json.dumps(record))
    capsys.readouterr()
    (tmp_path / "bench.jsonl").write_text("\n".join(bench) + "\n", encoding="utf-8")
    code = """
    import dataclasses, sys, threading
    from pathlib import Path
    from sandbox3d.pipeline import PipelineConfig, SceneCache, run_eval
    from sandbox3d.providers import GeometryMockVlm, SyntheticRig
    from sandbox3d.synthetic_world import generate_world
    from sandbox3d.voting_clustering import ClusterParams

    rigs = {f"scene{s}": SyntheticRig(generate_world(s, 3)) for s in (3, 4)}
    SceneCache._vlm_for = lambda self, record, index, rig: GeometryMockVlm(
        rigs[Path(record.scene["path"]).name], record.payload or None
    )
    first = []

    def hook(event, args):
        if event == "import" and args[0].startswith("scipy") and not first:
            first.append(threading.current_thread() is threading.main_thread())

    sys.addaudithook(hook)
    assert "scipy" not in sys.modules
    rows = []
    for parallelism in (2, 1):
        cfg = PipelineConfig(
            vlm="random_mock", cluster=ClusterParams(eps=0.25), parallelism=parallelism
        )
        report = run_eval(cfg, "bench.jsonl")
        assert report.n == 4 and report.failed == (), report
        rows.append([dataclasses.replace(row, wall_ms=0.0) for row in report.rows])
    assert first == [False], first
    assert rows[0] == rows[1]
    assert all(row.mode_used == "full" for row in rows[0]), rows[0]
    """
    assert _scipy_loaded_after(code, tmp_path) == ["scipy.sparse", "scipy.spatial"]
