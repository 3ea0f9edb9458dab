"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dmv" in out
    assert "tyr" in out
    assert "fig12" in out


def test_run_command(capsys):
    assert main(["run", "dmv", "--scale", "tiny", "-m", "tyr",
                 "--tags", "4"]) == 0
    out = capsys.readouterr().out
    assert "tyr:" in out
    assert "outputs verified" in out


def test_run_defaults_to_paper_systems(capsys):
    assert main(["run", "dmv", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    for machine in ("vn:", "seqdf:", "ordered:", "unordered:", "tyr:"):
        assert machine in out


def test_run_reports_deadlock(capsys):
    assert main(["run", "dmv", "--scale", "tiny", "-m",
                 "unordered-bounded", "--total-tags", "8"]) == 0
    out = capsys.readouterr().out
    assert "DEADLOCK" in out


def test_experiment_command(capsys):
    assert main(["experiment", "tab01"]) == 0
    out = capsys.readouterr().out
    assert "allocate" in out
    assert "changeTag" in out


def test_experiment_harness_flags(capsys, tmp_path):
    """--run-log/--progress/--timeout/--retries flow into the pool."""
    import json

    log_path = tmp_path / "run.jsonl"
    assert main(["experiment", "fig05", "--scale", "tiny",
                 "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--run-log", str(log_path),
                 "--progress", "--timeout", "600", "--retries", "2",
                 ]) == 0
    captured = capsys.readouterr()
    assert "fig05" in captured.out
    assert "specs" in captured.err  # the live progress line
    events = [json.loads(line)
              for line in log_path.read_text().splitlines()]
    kinds = {ev["event"] for ev in events}
    assert {"queued", "started", "finished"} <= kinds

    # Warm rerun: same command resolves everything from the cache.
    assert main(["experiment", "fig05", "--scale", "tiny",
                 "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--run-log", str(log_path),
                 ]) == 0
    capsys.readouterr()
    warm = [json.loads(line)
            for line in log_path.read_text().splitlines()][len(events):]
    assert warm and all(ev["event"] == "cache-hit" for ev in warm)


def test_inspect_command(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["inspect", "dmv", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "loop" in out
    assert "elaborated:" in out
    assert dot.read_text().startswith("digraph")


def test_trace_command(capsys, tmp_path):
    dot = tmp_path / "t.dot"
    assert main(["trace", "dmv", "-m", "tyr", "--tags", "4",
                 "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "events over" in out
    assert "completed: True" in out
    assert "rank=same" in dot.read_text()


def test_profile_command(capsys):
    assert main(["profile", "dmv", "-m", "tyr", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "cycles by stall reason" in out
    assert "fired" in out
    assert "top 5 nodes by attributed cycles" in out
    assert "@main" in out  # op@block#id hotspot labels


def test_profile_command_json(capsys):
    import json

    assert main(["profile", "dmv", "-m", "tyr", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["machine"] == "tyr"
    assert sum(doc["stall_cycles"].values()) == doc["cycles"]
    assert sum(doc["node_fired"].values()) == doc["instructions"]


def test_bad_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_bad_scale_is_clean_error(capsys):
    assert main(["run", "dmv", "--scale", "galactic"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_experiment_rejects_jobs_below_one(capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["experiment", "tab01", "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_experiment_accepts_one_job():
    args = build_parser().parse_args(["experiment", "tab01", "-j", "1"])
    assert args.jobs == 1
