from __future__ import annotations

import dataclasses
import json

import pytest

from sandbox3d.cli import main
from sandbox3d.qa import read_benchmark, write_benchmark


def _synth(tmp_path, questions=3, seed=0, objects=2):
    out = tmp_path / "bundle"
    code = main(
        [
            "synth",
            "--seed",
            str(seed),
            "--objects",
            str(objects),
            "--out",
            str(out),
            "--questions",
            str(questions),
        ]
    )
    assert code == 0
    return out


def test_synth_writes_bundle_and_questions(tmp_path, capsys):
    out = _synth(tmp_path)
    stdout = capsys.readouterr().out
    assert "bundle:" in stdout and "questions:" in stdout
    assert (out / "manifest.json").is_file()
    assert (out / "input.png").is_file() and (out / "input.f32").is_file()
    # forward motion with default M=3, T=4 stores 12 synthesized views
    assert (out / "m2t3.png").is_file()
    lines = (out / "questions.jsonl").read_text().splitlines()
    assert len(lines) == 3
    first = json.loads((out / "question0.json").read_text())
    assert set(first) == {"id", "question", "choices"}
    assert len(first["choices"]) >= 2


def test_run_bundle_mv_only_random_mock(tmp_path, capsys):
    bundle = _synth(tmp_path)
    art = tmp_path / "art"
    code = main(
        [
            "run",
            "--bundle",
            str(bundle),
            "--question",
            str(bundle / "question0.json"),
            "--vlm",
            "random_mock",
            "--mode",
            "mv_only",
            "--out",
            str(art),
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "mode: mv_only -> mv_only" in stdout
    assert "answer: " in stdout
    assert (art / "result.json").is_file()


def _pose_entry(m):
    m["views"][0]["pose"][3] = "one"


def _fractional_width(m):
    m["views"][0]["width"] += 0.7


def _long_up_axis(m):
    m["up_axis"] = [0.0, -2.0, 0.0]


def _numbered_image(m):
    m["views"][0]["image"] = 3


@pytest.mark.parametrize(
    "mangle, field",
    [
        (_pose_entry, r"views[0].pose[3]"),
        (_fractional_width, r"views[0].width"),
        (_long_up_axis, r"up_axis"),
        (_numbered_image, r"views[0].image"),
    ],
    ids=["pose", "width", "up_axis", "image"],
)
def test_run_reports_a_malformed_bundle_field(tmp_path, capsys, mangle, field):
    # a malformed manifest exits 1 with the field named, not with a traceback
    bundle = _synth(tmp_path)
    manifest = json.loads((bundle / "manifest.json").read_text())
    mangle(manifest)
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    argv = ["run", "--bundle", str(bundle), "--question", str(bundle / "question0.json"),
            "--mode", "mv_only", "--vlm", "random_mock"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")


def test_run_keeps_render_names_under_out(tmp_path, capsys):
    bundle = _synth(tmp_path)
    manifest_path = bundle / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["scene_id"] = "../../escaped"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "a" / "b" / "out"
    argv = ["run", "--bundle", str(bundle), "--question", str(bundle / "question0.json"),
            "--mode", "pointcloud_render", "--vlm", "random_mock", "--out", str(out)]
    assert main(argv) == 0
    assert "mode: pointcloud_render -> pointcloud_render" in capsys.readouterr().out
    assert not list((tmp_path / "a").glob("escaped_*"))
    assert sorted(p.name for p in out.glob("*.png")) == [
        ".._.._escaped_stepback.png", ".._.._escaped_topdown.png"
    ]


def test_run_full_degrades_on_mock_hints(tmp_path, capsys):
    # the random mock answers hint queries with an empty array: no hints parse,
    # the run downgrades to multi-view-only and still answers
    bundle = _synth(tmp_path)
    code = main(
        [
            "run",
            "--bundle",
            str(bundle),
            "--question",
            str(bundle / "question0.json"),
            "--vlm",
            "random_mock",
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "mode: full -> mv_only" in stdout
    assert "degraded: hint parse failed" in stdout


def test_run_unreachable_http_vlm_fails_at_direction(tmp_path, capsys):
    bundle = _synth(tmp_path, questions=1)
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[pipeline]\nvlm = http\nbase_url = http://127.0.0.1:9\nmodel = m\n",
        encoding="utf-8",
    )
    code = main(
        [
            "run",
            "--bundle",
            str(bundle),
            "--question",
            str(bundle / "question0.json"),
            "--config",
            str(ini),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "failed at stage: direction_query" in captured.err


def test_run_bad_question_file_is_config_error(tmp_path, capsys):
    bundle = _synth(tmp_path, questions=0)
    qfile = tmp_path / "q.json"
    qfile.write_text("{\"question\": \"hm?\"}", encoding="utf-8")
    code = main(
        ["run", "--bundle", str(bundle), "--question", str(qfile), "--vlm", "random_mock"]
    )
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_synth_generation_error_exits_1(tmp_path, capsys):
    # one object cannot support pairwise question templates
    code = main(
        ["synth", "--seed", "5", "--objects", "1", "--out", str(tmp_path / "b"), "--questions", "2"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_random_mock_cli(tmp_path, capsys):
    bundle = _synth(tmp_path)
    report_dir = tmp_path / "report"
    code = main(
        [
            "eval",
            "--benchmark",
            str(bundle / "questions.jsonl"),
            "--vlm",
            "random_mock",
            "--mode",
            "mv_only",
            "--out",
            str(report_dir),
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "n: 3" in stdout and "accuracy: " in stdout
    assert (report_dir / "report.json").is_file()
    assert (report_dir / "report.csv").is_file()


def test_eval_artifacts_point_records_at_shared_views(tmp_path, capsys):
    bundle = _synth(tmp_path, questions=4)
    synthetic = read_benchmark(bundle / "questions.jsonl")
    on_disk = [
        dataclasses.replace(r, qid=f"{r.qid}-disk", scene={"kind": "bundle", "path": str(bundle)})
        for r in synthetic
    ]
    bench = tmp_path / "bench.jsonl"
    write_benchmark(on_disk + synthetic, bench)
    ini = tmp_path / "eval.ini"
    ini.write_text("[pipeline]\neval_artifacts = true\nparallelism = 2\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["eval", "--benchmark", str(bench), "--config", str(ini), "--vlm", "random_mock",
            "--mode", "mv_only", "--out", str(out)]
    assert main(argv) == 0
    assert "n: 8" in capsys.readouterr().out
    assert (out / "report.json").is_file() and (out / "report.csv").is_file()
    for index, record in enumerate(on_disk + synthetic):
        record_dir = out / "records" / record.qid
        pointer = json.loads((record_dir / "views.json").read_text())
        assert pointer == {"dir": f"../../scenes/{index // 4}/forward"}
        views = record_dir / pointer["dir"]
        assert (views / "trajectories.json").is_file()
        assert len(list((views / "views").glob("*.png"))) == 13
        assert len(list((views / "views").glob("*.f32"))) == 13
    assert sorted(p.name for p in (out / "scenes").iterdir()) == ["0", "1"]


def test_eval_missing_benchmark_exits_2(tmp_path, capsys):
    code = main(["eval", "--benchmark", str(tmp_path / "none.jsonl"), "--vlm", "random_mock"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_eval_unconfigured_http_vlm_exits_2_before_any_record(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SANDBOX3D_BASE_URL", raising=False)
    bundle = _synth(tmp_path, questions=2)
    out = tmp_path / "report"
    argv = ["eval", "--benchmark", str(bundle / "questions.jsonl"), "--vlm", "http"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "config error: VLM base URL not configured" in capsys.readouterr().err
    assert not out.exists()


def test_eval_bad_config_file_exits_2(tmp_path, capsys):
    bundle = _synth(tmp_path, questions=1)
    ini = tmp_path / "bad.ini"
    ini.write_text("[pipeline]\nwarp_speed = 9\n", encoding="utf-8")
    code = main(
        [
            "eval",
            "--benchmark",
            str(bundle / "questions.jsonl"),
            "--vlm",
            "random_mock",
            "--config",
            str(ini),
        ]
    )
    assert code == 2


def test_eval_config_with_percent_in_url_runs(tmp_path, capsys):
    bundle = _synth(tmp_path, questions=1)
    ini = tmp_path / "url.ini"
    ini.write_text("[pipeline]\nbase_url = http://x/a%20b\nmode = mv_only\n", encoding="utf-8")
    argv = ["eval", "--benchmark", str(bundle / "questions.jsonl"), "--vlm", "random_mock"]
    assert main([*argv, "--config", str(ini)]) == 0
    assert "n: 1" in capsys.readouterr().out


def test_render_topdown_and_stepback(tmp_path, capsys):
    sandbox = tmp_path / "sandbox.json"
    sandbox.write_text(
        json.dumps(
            {
                "boxes": [
                    {"center": [0.0, -0.25, 3.0], "size": [0.5, 0.5, 0.5], "label": "chair"},
                    {
                        "center": [1.0, -0.3, 4.0],
                        "size": [0.4, 0.6, 0.4],
                        "label": "crate",
                        "yaw_deg": 30.0,
                        "instance_id": 1,
                    },
                ]
            }
        ),
        encoding="utf-8",
    )
    top = tmp_path / "top.png"
    code = main(["render", "--sandbox", str(sandbox), "--view", "topdown", "--out", str(top)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert top.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
    assert f"wrote {top}" in stdout
    assert "- red: chair (instance 0)" in stdout
    assert "- blue: crate (instance 1)" in stdout
    assert "Scale: 1 px = " in stdout

    back = tmp_path / "back.png"
    code = main(["render", "--sandbox", str(sandbox), "--view", "stepback", "--out", str(back)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert back.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
    assert "Scale:" not in stdout  # perspective legend carries no scale line


def test_run_question_file_nested_too_deeply_is_config_error(tmp_path, capsys):
    bundle = _synth(tmp_path, questions=0)
    qfile = tmp_path / "q.json"
    qfile.write_text("[" * 50000, encoding="utf-8")
    code = main(
        ["run", "--bundle", str(bundle), "--question", str(qfile), "--vlm", "random_mock"]
    )
    assert code == 2
    assert "config error: question file: JSON nested too deeply" in capsys.readouterr().err


def test_render_sandbox_file_nested_too_deeply_is_config_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 50000, encoding="utf-8")
    argv = ["render", "--sandbox", str(deep), "--view", "topdown", "--out", str(tmp_path / "x.png")]
    code = main(argv)
    assert code == 2
    assert "config error: sandbox file: JSON nested too deeply" in capsys.readouterr().err


def test_eval_benchmark_nested_too_deeply_exits_2(tmp_path, capsys):
    bench = tmp_path / "deep.jsonl"
    bench.write_text("[" * 50000 + "\n", encoding="utf-8")
    assert main(["eval", "--benchmark", str(bench), "--vlm", "random_mock"]) == 2
    assert "config error: benchmark: JSON nested too deeply" in capsys.readouterr().err


def test_render_rejects_bad_boxes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"boxes": "nope"}), encoding="utf-8")
    code = main(["render", "--sandbox", str(bad), "--view", "topdown", "--out", str(tmp_path / "x.png")])
    assert code == 2

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(
        json.dumps({"boxes": [{"center": [0, 0, 3], "size": [0, 1, 1]}]}), encoding="utf-8"
    )
    code = main(
        ["render", "--sandbox", str(degenerate), "--view", "topdown", "--out", str(tmp_path / "y.png")]
    )
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["-1", "0"])
def test_eval_rejects_non_positive_parallelism(tmp_path, capsys, value):
    bundle = _synth(tmp_path, questions=1)
    ini = tmp_path / "eval.ini"
    ini.write_text(f"[pipeline]\nparallelism = {value}\n", encoding="utf-8")
    argv = ["eval", "--benchmark", str(bundle / "questions.jsonl"), "--vlm", "random_mock",
            "--config", str(ini)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error:" in err and "parallelism must be at least 1" in err and value in err
