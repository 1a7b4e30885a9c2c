from __future__ import annotations

import json

import pytest

from sandbox3d.cli import main


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


def test_eval_missing_benchmark_exits_2(tmp_path, capsys):
    code = main(["eval", "--benchmark", str(tmp_path / "none.jsonl"), "--vlm", "random_mock"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


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
