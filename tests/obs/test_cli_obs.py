"""CLI surface: the ``obs`` subcommands, the global ``--obs``/``-v``/``-q``
flags, the unified logging streams, the sweep progress heartbeat, and the
invocation-scoped environment exports of the flags."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs import core

SWEEP_ARGS = [
    "sweep", "run", "--graphs", "powerlaw", "--algorithms", "PR",
    "--orderings", "original,vebo", "--frameworks", "ligra",
    "--scale", "0.02",
]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
    monkeypatch.delenv(core.OBS_ENV_VAR, raising=False)
    monkeypatch.delenv(core.OBS_DIR_ENV_VAR, raising=False)
    core.reset()
    yield root
    core.reset()


class TestObsFlag:
    def test_obs_flag_records_and_report_summarizes(self, cache_dir, capsys):
        assert main(["--obs"] + SWEEP_ARGS) == 0
        assert list((cache_dir / "obs").glob("events-*.jsonl"))
        capsys.readouterr()
        assert main(["obs", "report"]) == 0
        out = capsys.readouterr().out
        assert "cache traffic" in out
        assert "sweep cells" in out
        assert "slowest spans" in out

    def test_no_cache_run_writes_no_obs_files(self, cache_dir, monkeypatch):
        """``--no-cache`` promises nothing on disk — the obs sink must
        not smuggle an event log under the unused default cache root
        even when REPRO_OBS=1 is set in the environment."""
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        core.reset()
        assert main(
            ["datasets", "build", "usaroad", "--scale", "0.05", "--no-cache"]
        ) == 0
        assert not cache_dir.exists()

    def test_cache_dir_flag_moves_obs_log(self, cache_dir, tmp_path, capsys):
        """``--cache-dir`` relocates the event log along with every
        other artifact — nothing lands under the env-resolved root."""
        other = tmp_path / "other"
        assert main(["--obs"] + SWEEP_ARGS + ["--cache-dir", str(other)]) == 0
        assert list((other / "obs").glob("events-*.jsonl"))
        assert not cache_dir.exists()
        capsys.readouterr()
        assert main(["obs", "report", "--cache-dir", str(other)]) == 0
        assert "sweep cells" in capsys.readouterr().out

    def test_no_flag_no_files(self, cache_dir, capsys):
        assert main(SWEEP_ARGS) == 0
        assert not (cache_dir / "obs").exists()
        capsys.readouterr()
        assert main(["obs", "report"]) == 0
        assert "no events recorded" in capsys.readouterr().out


class TestFlagExports:
    """Flags that act through the environment, so sweep pool workers
    inherit them, export their variable for one invocation only."""

    @pytest.mark.parametrize(
        "argv, var",
        [
            (["--obs", "datasets", "list"], core.OBS_ENV_VAR),
            (["--mmap", "datasets", "list"], "REPRO_MMAP"),
            (["datasets", "list", "--no-cache"], "REPRO_CACHE_OFF"),
            (["datasets", "list", "--cache-dir", "elsewhere"], core.OBS_DIR_ENV_VAR),
        ],
        ids=["obs", "mmap", "no-cache", "cache-dir"],
    )
    def test_flag_env_does_not_leak(
        self, cache_dir, tmp_path, monkeypatch, argv, var
    ):
        import repro.cli as cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(var, raising=False)
        during = []
        dispatch = cli._dispatch

        def spy(args):
            during.append(os.environ.get(var))
            return dispatch(args)

        monkeypatch.setattr(cli, "_dispatch", spy)
        assert main(argv) == 0
        assert len(during) == 1 and during[0]  # set while the command ran
        assert os.environ.get(var) is None  # and popped afterwards


class TestObsSubcommands:
    def test_validate_export_clean_roundtrip(self, cache_dir, capsys, tmp_path):
        assert main(["--obs"] + SWEEP_ARGS) == 0
        capsys.readouterr()

        assert main(["obs", "validate"]) == 0
        assert "valid" in capsys.readouterr().out

        trace_path = tmp_path / "trace.json"
        assert main(["obs", "export", "--chrome", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert data["traceEvents"]
        phases = {e["ph"] for e in data["traceEvents"]}
        assert phases <= {"B", "E", "i", "C", "M"}

        assert main(["obs", "clean"]) == 0
        assert not list((cache_dir / "obs").glob("events-*.jsonl"))

    def test_validate_reports_corrupt_lines(self, cache_dir, capsys):
        obs_root = cache_dir / "obs"
        obs_root.mkdir(parents=True)
        bad = {"v": 1, "seq": 0, "ts": 1, "pid": 1, "tid": 1,
               "ph": "Q", "name": "", "cat": ""}
        (obs_root / "events-1.jsonl").write_text(
            json.dumps(bad) + "\n", encoding="utf-8"
        )
        assert main(["obs", "validate"]) == 1
        err = capsys.readouterr().err
        assert "seq" in err or "phase" in err

    def test_explicit_dir_flag(self, cache_dir, capsys, tmp_path, monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(elsewhere))
        assert main(["--obs"] + SWEEP_ARGS) == 0
        monkeypatch.delenv(core.OBS_DIR_ENV_VAR)
        capsys.readouterr()
        assert main(["obs", "report", "--dir", str(elsewhere)]) == 0
        assert "sweep cells" in capsys.readouterr().out


class TestLoggingFlags:
    def test_quiet_suppresses_info_keeps_data(self, cache_dir, capsys):
        assert main(["-q"] + SWEEP_ARGS) == 0
        out = capsys.readouterr().out
        assert "sweep complete" not in out
        capsys.readouterr()
        # Data output (the datasets table) is print-based and survives -q.
        assert main(["-q", "datasets", "list"]) == 0
        assert "twitter" in capsys.readouterr().out

    def test_info_goes_to_stdout_errors_to_stderr(self, cache_dir, capsys):
        assert main(SWEEP_ARGS) == 0
        first = capsys.readouterr()
        assert "sweep complete" in first.out
        assert first.err == ""
        # Re-running without --resume refuses: diagnostic on stderr.
        assert main(SWEEP_ARGS) == 1
        second = capsys.readouterr()
        assert "error:" in second.err
        assert "--resume" in second.err

    def test_verbose_flag_accepted(self, cache_dir, capsys):
        assert main(["-v", "datasets", "list"]) == 0
        assert "twitter" in capsys.readouterr().out


class TestHeartbeat:
    def test_progress_flag_emits_heartbeat_on_stderr(self, cache_dir, capsys):
        assert main(SWEEP_ARGS + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress: 2/2 cells (100%)" in err
        assert "2 executed, 0 replayed, 0 resumed" in err
        assert "ETA" in err

    def test_resumed_cells_counted(self, cache_dir, capsys):
        assert main(SWEEP_ARGS) == 0
        capsys.readouterr()
        assert main(SWEEP_ARGS + ["--resume", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "0 executed, 0 replayed, 2 resumed" in err

    def test_no_heartbeat_when_not_a_tty(self, cache_dir, capsys):
        assert main(SWEEP_ARGS) == 0
        assert "progress:" not in capsys.readouterr().err
