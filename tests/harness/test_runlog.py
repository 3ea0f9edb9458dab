"""Unit tests for the run-log and progress-line observability layer."""

import io
import json

from repro.harness.runlog import ProgressLine, RunLog


def test_run_log_writes_one_json_object_per_line(tmp_path):
    path = str(tmp_path / "log.jsonl")
    log = RunLog(path)
    log.event("queued", index=0, spec="s0")
    log.event("finished", index=0, ok=True, wall_s=0.25)
    log.close()
    # Append mode: a second log continues the same history.
    log = RunLog(path)
    log.event("cache-hit", index=0)
    log.close()

    with open(path) as fh:
        events = [json.loads(line) for line in fh]
    assert [ev["event"] for ev in events] == [
        "queued", "finished", "cache-hit"]
    assert all("t" in ev for ev in events)
    assert events[1]["ok"] is True


def test_run_log_stringifies_unserializable_values(tmp_path):
    path = str(tmp_path / "log.jsonl")
    log = RunLog(path)
    log.event("finished", payload={1, 2})  # a set is not JSON
    log.close()
    with open(path) as fh:
        record = json.loads(fh.read())
    assert "1" in record["payload"]


def test_run_log_accepts_open_stream():
    stream = io.StringIO()
    log = RunLog(stream)
    log.event("queued", index=3)
    log.close()  # must not close a caller-owned stream
    assert json.loads(stream.getvalue())["index"] == 3


def test_progress_line_renders_done_hits_and_eta():
    stream = io.StringIO()
    progress = ProgressLine(4, enabled=True, stream=stream)
    progress.cache_hit()
    progress.finished()
    progress.close()
    out = stream.getvalue()
    assert "2/4 specs" in out
    assert "50% cached" in out
    assert "eta" in out


def test_progress_line_disabled_writes_nothing():
    stream = io.StringIO()
    progress = ProgressLine(4, enabled=False, stream=stream)
    progress.finished()
    progress.close()
    assert stream.getvalue() == ""


def test_progress_line_close_is_idempotent():
    stream = io.StringIO()
    progress = ProgressLine(2, enabled=True, stream=stream)
    progress.finished()
    progress.close()
    progress.close()
    assert stream.getvalue().count("\n") == 1


def test_run_log_records_profile_summaries(tmp_path):
    """A sweep whose specs run with profile=True logs one compact
    profile event per finished run."""
    from repro.harness.pool import RunOptions, run_specs, spec_for
    from repro.workloads import build_workload

    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "tyr", config={"profile": True})
    path = str(tmp_path / "log.jsonl")
    results = run_specs([spec], jobs=1,
                        options=RunOptions(run_log=path))
    assert "profile" in results[0].extra

    with open(path) as fh:
        events = [json.loads(line) for line in fh]
    profiles = [ev for ev in events if ev["event"] == "profile"]
    assert len(profiles) == 1
    ev = profiles[0]
    assert ev["cycles"] == results[0].cycles
    assert ev["instructions"] == results[0].instructions
    assert sum(ev["stall_cycles"].values()) == ev["cycles"]
    assert ev["top_nodes"]
    # The profile event follows its spec's finished event.
    kinds = [e["event"] for e in events]
    assert kinds.index("profile") == kinds.index("finished") + 1
