"""Tests for the repro-gpp CLI."""

import pytest

from repro import obs
from repro.harness.cli import build_parser, main


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "KSA4" in out and "C3540" in out and "paper gates" in out


def test_partition_benchmark(capsys):
    assert main(["partition", "KSA4", "-k", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "d<=1" in out
    assert "recycling plan verified" in out


def test_partition_with_method_and_refine(capsys):
    assert main(["partition", "KSA4", "-k", "4", "--method", "greedy", "--refine"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out


def test_partition_def_file(tmp_path, capsys):
    from repro.circuits.suite import build_circuit
    from repro.parsers.def_writer import write_def

    path = tmp_path / "ksa4.def"
    write_def(build_circuit("KSA4"), path=str(path))
    assert main(["partition", str(path), "-k", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "B_max" in out


def test_partition_unknown_source(capsys):
    assert main(["partition", "NOPE_XYZ"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_table2_command(capsys):
    assert main(["table2", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out


def test_figure1_command(capsys):
    assert main(["figure1", "KSA4", "-k", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "GP0" in out


def test_convergence_command(capsys):
    assert main(["convergence", "KSA4", "-k", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "iterations" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["partition", "KSA4", "--method", "magic"])


def test_simulate_command(capsys):
    assert main(["simulate", "KSA4", "--set", "a=11", "--set", "b=5",
                 "--outputs", "sum", "cout"]) == 0
    out = capsys.readouterr().out
    assert "pulse simulation" in out
    assert "| cout   |     1 |" in out
    assert "| sum    |     0 |" in out  # 11 + 5 = 16


def test_simulate_bad_assignment(capsys):
    assert main(["simulate", "KSA4", "--set", "nonsense"]) == 2
    assert "name=value" in capsys.readouterr().err


def test_latency_command(capsys):
    assert main(["latency", "KSA4", "-k", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "frequency loss" in out
    assert "GHz" in out


def test_partition_json_output(capsys):
    assert main(["partition", "KSA4", "-k", "3", "--json", "--seed", "1"]) == 0
    import json

    data = json.loads(capsys.readouterr().out)
    assert data["circuit"] == "KSA4" and data["K"] == 3


def test_partition_save(tmp_path, capsys):
    target = tmp_path / "saved.json"
    assert main(["partition", "KSA4", "-k", "3", "--save", str(target), "--seed", "1"]) == 0
    assert target.exists()
    from repro.circuits.suite import build_circuit
    from repro.harness.io import load_partition

    loaded = load_partition(str(target), build_circuit("KSA4"))
    assert loaded.num_planes == 3


def test_annealing_method_available(capsys):
    assert main(["partition", "KSA4", "-k", "3", "--method", "annealing", "--seed", "1"]) == 0
    assert "annealing" in capsys.readouterr().out


def test_stats_command(capsys):
    assert main(["stats", "KSA8"]) == 0
    out = capsys.readouterr().out
    assert "netlist statistics" in out
    assert "locality index" in out
    assert "cell mix:" in out


def test_partition_trace_writes_jsonl(tmp_path, capsys):
    target = tmp_path / "trace.jsonl"
    assert main(["partition", "KSA4", "-k", "3", "--seed", "1",
                 "--trace", str(target)]) == 0
    out = capsys.readouterr().out
    assert str(target) in out
    parsed = obs.read_trace_jsonl(str(target))
    assert parsed["header"]["meta"]["command"] == "partition"
    assert parsed["header"]["meta"]["circuit"] == "KSA4"
    assert parsed["iterations"], "trace must carry per-iteration telemetry"
    first = parsed["iterations"][0]
    for field in ("f1", "f2", "f3", "f4", "total", "rel_change", "grad_norm"):
        assert field in first
    span_paths = {s["path"] for s in parsed["spans"]}
    assert "partition" in span_paths and "partition/solve" in span_paths
    assert parsed["metrics"]["kernel.evaluations"]["value"] > 0
    # capture is torn down after the command
    assert not obs.enabled()
    assert obs.OBS.trace.aggregates == {}


def test_partition_profile_prints_tables(capsys):
    assert main(["partition", "KSA4", "-k", "3", "--seed", "1", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "span" in out and "total ms" in out
    assert "partition" in out and "solve" in out
    assert "kernel.evaluations" in out
    assert not obs.enabled()


def test_repro_trace_env_writes_jsonl(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env_trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    assert main(["partition", "KSA4", "-k", "3", "--seed", "1"]) == 0
    parsed = obs.read_trace_jsonl(str(target))
    assert parsed["iterations"]
    assert not obs.enabled()


def test_convergence_report_command(capsys):
    assert main(["convergence-report", "KSA4", "-k", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "F1" in out and "F4" in out and "rel change" in out
    assert "winning restart" in out
    assert "converged" in out
    assert not obs.enabled()


@pytest.mark.parametrize("command", ["partition", "convergence-report"])
def test_loop_engine_is_an_argparse_error(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "KSA4", "-k", "3", "--engine", "loop"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'loop'" in capsys.readouterr().err


def test_convergence_report_export(tmp_path, capsys):
    jsonl = tmp_path / "report.jsonl"
    assert main(["convergence-report", "KSA4", "-k", "3", "--seed", "1",
                 "--output", str(jsonl)]) == 0
    parsed = obs.read_trace_jsonl(str(jsonl))
    assert parsed["iterations"]
    capsys.readouterr()

    csv_path = tmp_path / "report.csv"
    assert main(["convergence-report", "KSA4", "-k", "3", "--seed", "1",
                 "--output", str(csv_path), "--format", "csv"]) == 0
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["run", "restart", "iteration", "f1"]


# ----------------------------------------------------------------------
# Robustness flags: --jobs/--timeout/--retries validation at the CLI edge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", ["0", "-2", "x", "1.5"])
def test_jobs_flag_rejects_non_positive_and_non_integer(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table2", "--jobs", value])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_repro_jobs_env_rejected_at_run_time(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    assert main(["table2", "--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS" in err


@pytest.mark.parametrize("flag,value", [("--timeout", "0"), ("--timeout", "-1"),
                                        ("--timeout", "soon"), ("--retries", "-1"),
                                        ("--retries", "2.5")])
def test_timeout_and_retries_flags_validated(flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["table2", flag, value])
    assert excinfo.value.code == 2


def test_resume_requires_checkpoint(capsys):
    assert main(["table2", "--seed", "2", "--resume"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_table2_checkpoint_and_resume(tmp_path, capsys):
    cp = tmp_path / "t2.jsonl"
    assert main(["table2", "--seed", "2", "--checkpoint", str(cp)]) == 0
    first = capsys.readouterr().out
    assert cp.exists() and cp.read_text().strip()
    # Re-running with --resume reuses every row bit for bit.
    assert main(["table2", "--seed", "2", "--checkpoint", str(cp), "--resume"]) == 0
    captured = capsys.readouterr()
    assert captured.out == first
    assert "from checkpoint" in captured.err


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert "package" in out
    assert "netlist_format" in out


def test_version_json(capsys):
    import json

    assert main(["version", "--json"]) == 0
    versions = json.loads(capsys.readouterr().out)
    assert versions["api"] == 1
    assert set(versions) == {
        "package", "api", "trace_schema", "cache_schema",
        "checkpoint_schema", "netlist_format", "events_schema",
        "diff_format",
    }


def test_cache_info_json(tmp_path, monkeypatch, capsys):
    import json

    from repro.cache import reset_default_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_cache()
    try:
        assert main(["cache", "info", "--json"]) == 0
    finally:
        monkeypatch.undo()
        reset_default_cache()
    info = json.loads(capsys.readouterr().out)
    assert info["entries"] == 0
    assert info["versions"]["cache_schema"] == 1
    assert info["versions"]["checkpoint_schema"] == 1


def test_serve_parser_accepts_service_flags():
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "2", "--queue-size", "3",
         "--isolation", "process"]
    )
    assert args.command == "serve"
    assert args.port == 0
    assert args.workers == 2
    assert args.queue_size == 3
    assert args.isolation == "process"
