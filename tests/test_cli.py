"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def argparse_exit(argv) -> int:
    """The status argparse itself exits ``main`` with (bad choice, bad
    ``type=`` value, unknown flag): ``SystemExit``, never a return."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "fig16-right" in out

    def test_networks(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "AlexNet" in out
        assert "62.4M" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "p2.16xlarge" in out
        assert "$14.4/h" in out

    def test_run_simulator_experiment(self, capsys):
        assert main(["run", "fig16-right"]) == 0
        assert "asymptote" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_calibration_passes_threshold(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "overall mean |error|" in out

    def test_calibration_verbose_lists_cells(self, capsys):
        assert main(["calibration", "-v"]) == 0
        assert "AlexNet" in capsys.readouterr().out

    def test_insights_all_hold(self, capsys):
        assert main(["insights"]) == 0
        out = capsys.readouterr().out
        assert out.count("HOLDS") == 5
        assert "DIVERGES" not in out

    def test_compression_report(self, capsys):
        assert main(["compression"]) == 0
        out = capsys.readouterr().out
        assert "Wire bits per gradient element" in out
        assert "ResNet152" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrainCommand:
    ARGS = [
        "train",
        "--epochs", "1",
        "--train-samples", "32",
        "--test-samples", "16",
        "--batch-size", "16",
    ]

    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_train_runs_with_both_engines(self, capsys, engine):
        assert main(self.ARGS + ["--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "final test accuracy" in out
        assert engine in out

    def test_train_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--engine", "warp-drive"])

    def test_injected_crash_reported_and_nonzero_exit(self, capsys):
        code = main(
            self.ARGS
            + [
                "--engine", "threaded",
                "--world-size", "2",
                "--crash-rank", "1",
                "--crash-step", "0",
                "--barrier-timeout", "5",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "rank 1 crash at step 0" in err

    def test_train_with_aggregation_frequency(self, capsys):
        code = main(
            self.ARGS
            + ["--world-size", "2", "--aggregation-frequency", "2"]
        )
        assert code == 0
        assert "final test accuracy" in capsys.readouterr().out

    def test_local_sgd_with_zero_momentum_runs(self, capsys):
        code = main(
            self.ARGS
            + [
                "--world-size", "2",
                "--aggregation-frequency", "2",
                "--sync-mode", "local_sgd",
                "--momentum", "0",
            ]
        )
        assert code == 0
        assert "final test accuracy" in capsys.readouterr().out

    def test_zero_aggregation_frequency_rejected(self, capsys):
        code = main(self.ARGS + ["--aggregation-frequency", "0"])
        assert code == 2
        assert "aggregation_frequency" in capsys.readouterr().err

    def test_unknown_sync_mode_error_lists_choices(self, capsys):
        code = argparse_exit(self.ARGS + ["--sync-mode", "gossip"])
        assert code == 2
        err = capsys.readouterr().err
        assert "allreduce" in err
        assert "local_sgd" in err

    def test_local_sgd_with_default_momentum_rejected(self, capsys):
        code = main(self.ARGS + ["--sync-mode", "local_sgd"])
        assert code == 2
        assert "momentum" in capsys.readouterr().err

    def test_bad_kill_point_rejected(self, capsys):
        code = argparse_exit(self.ARGS + ["--kill-point", "nonsense"])
        assert code == 2
        assert "RANK:STEP" in capsys.readouterr().err

    def test_kill_points_are_recovered_to_the_clean_digest(self, capsys):
        # the repeatable flag end to end (README / CI resume-after-kill
        # spell it this way): each kill fires once and is retried
        clean = self.ARGS + ["--world-size", "2"]
        assert main(clean) == 0
        digest = capsys.readouterr().out.splitlines()[-1]
        assert digest.startswith("history digest:")
        code = main(
            clean
            + [
                "--kill-point", "0:1",
                "--kill-point", "1:0",
                "--max-retries", "1",
                "--retry-backoff", "0",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == digest

    def test_straggler_ranks_take_a_list(self, capsys):
        code = main(
            self.ARGS
            + [
                "--world-size", "2",
                "--straggler-ranks", "0", "1",
                "--straggler-delay", "0.001",
            ]
        )
        assert code == 0
        assert "final test accuracy" in capsys.readouterr().out

    def test_transient_crash_retried_to_success(self, capsys):
        code = main(
            self.ARGS
            + [
                "--world-size", "2",
                "--crash-rank", "1",
                "--crash-step", "1",
                "--crash-transient",
                "--max-retries", "2",
                "--retry-backoff", "0",
            ]
        )
        assert code == 0
        assert "final test accuracy" in capsys.readouterr().out

    def test_degraded_run_reports_eviction(self, capsys):
        code = main(
            self.ARGS
            + [
                "--world-size", "3",
                "--batch-size", "18",
                "--crash-rank", "1",
                "--crash-step", "0",
                "--max-retries", "0",
                "--retry-backoff", "0",
                "--allow-degraded",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED: rank 1 evicted at step 0" in out
        assert "continuing on ranks [0,2]" in out


class TestResumeCommand:
    def digest_of(self, out):
        import re

        return re.search(r"history digest: ([0-9a-f]{64})", out).group(1)

    def train_args(self, *extra):
        return [
            "train",
            "--scheme", "1bit",
            "--epochs", "2",
            "--train-samples", "32",
            "--test-samples", "16",
            "--batch-size", "16",
            "--world-size", "2",
            "--seed", "3",
            *extra,
        ]

    def test_crash_checkpoint_resume_is_bit_identical(
        self, capsys, tmp_path
    ):
        # the CI resilience job in miniature: uninterrupted reference,
        # a run killed mid-epoch, and a resume that must converge to
        # the exact same history digest
        assert main(self.train_args()) == 0
        reference = self.digest_of(capsys.readouterr().out)

        code = main(
            self.train_args(
                "--crash-rank", "1",
                "--crash-step", "3",
                "--checkpoint-dir", str(tmp_path),
                "--checkpoint-every-steps", "1",
            )
        )
        assert code == 1
        capsys.readouterr()

        assert main(["resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert self.digest_of(out) == reference

    def test_resume_can_switch_engine(self, capsys, tmp_path):
        assert main(self.train_args()) == 0
        reference = self.digest_of(capsys.readouterr().out)
        assert main(
            self.train_args(
                "--epochs", "1", "--checkpoint-dir", str(tmp_path)
            )
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "resume", str(tmp_path),
                "--epochs", "2",
                "--engine", "threaded",
            ]
        )
        assert code == 0
        assert self.digest_of(capsys.readouterr().out) == reference

    def test_resume_empty_directory_rejected(self, capsys, tmp_path):
        assert main(["resume", str(tmp_path)]) == 2
        assert "no ckpt-*.npz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage", ["empty", "cut-short", "wrong-shape", "format-1"]
    )
    def test_damaged_checkpoint_is_one_error_line(
        self, capsys, tmp_path, damage
    ):
        import json

        import numpy as np

        from repro.core import TrainingCheckpoint, latest_checkpoint

        assert main(
            self.train_args(
                "--epochs", "1", "--checkpoint-dir", str(tmp_path)
            )
        ) == 0
        capsys.readouterr()
        path = latest_checkpoint(tmp_path)
        if damage == "wrong-shape":
            # loads, but does not fit the trainer: found at restore
            ckpt = TrainingCheckpoint.load(path)
            name = next(iter(ckpt.tree["params"]))
            ckpt.tree["params"][name] = np.zeros((3, 3), dtype=np.float32)
            ckpt.save(path)
        elif damage == "format-1":
            # format 1 (before the state tree) kept its metadata in a
            # numpy unicode scalar; its reader is gone
            with np.load(path) as archive:
                arrays = {key: archive[key] for key in archive.files}
            meta = json.loads(arrays.pop("__meta__").tobytes())
            meta = np.array(json.dumps({**meta, "version": 1}))
            np.savez(path, __meta__=meta, **arrays)
        else:
            data = path.read_bytes()
            path.write_bytes(data[: 0 if damage == "empty" else -30])
        assert main(["resume", str(path), "--epochs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro resume: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        if damage == "format-1":
            assert "unsupported checkpoint version 1" in captured.err


class TestKernelBackendRefusedAtStart:
    """A bad ``REPRO_KERNELS`` is one error line and exit 2, before
    any dataset, model or checkpoint is touched."""

    ARGV = {
        "train": ["train", "--world-size", "2", "--epochs", "1",
                  "--train-samples", "16", "--test-samples", "8",
                  "--batch-size", "8"],
        "trace": ["trace", "--gpus", "2", "--train-samples", "16",
                  "--test-samples", "8"],
        "resume": ["resume", "no-such-checkpoint-dir"],
    }

    @pytest.mark.parametrize("value", ["cuda", "numba"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_unknown_backend_is_one_error_line(
        self, capsys, monkeypatch, tmp_path, command, value
    ):
        from repro.quantization import kernels

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_KERNELS", value)
        # a fresh process: nothing selected yet
        monkeypatch.setattr(kernels, "_active", None)
        assert main(self.ARGV[command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro {command}: error: REPRO_KERNELS={value!r}: unknown "
            "backend (choose from cext, numpy)\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestTrace:
    def args(self, tmp_path, *extra):
        return [
            "trace",
            "--scheme", "qsgd4",
            "--gpus", "2",
            "--train-samples", "32",
            "--test-samples", "16",
            "--output", str(tmp_path / "trace.json"),
            *extra,
        ]

    def test_trace_writes_chrome_json_and_breakdown(self, capsys, tmp_path):
        import json

        assert main(self.args(tmp_path, "--exchange", "nccl")) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "wire bytes:" in out
        doc = json.loads((tmp_path / "trace.json").read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        assert {"compute", "encode", "decode"} <= {
            e["name"] for e in complete
        }
        # one track per rank
        assert {e["tid"] for e in complete} == {0, 1}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_trace_breakdown_rows_sum_to_wall(self, capsys, tmp_path):
        import re

        assert main(self.args(tmp_path)) == 0
        out = capsys.readouterr().out
        rows = dict(
            re.findall(r"^  (\w+) +([\d.]+) s", out, flags=re.MULTILINE)
        )
        wall = float(re.search(r"wall ([\d.]+) s", out).group(1))
        total = sum(
            float(v) for k, v in rows.items() if k != "total"
        )
        # phases + "other" partition the wall time (5% printing slack)
        assert abs(total - wall) <= 0.05 * wall + 1e-3

    def test_trace_crossval_reports_both_exchanges(self, capsys, tmp_path):
        for exchange in ("mpi", "nccl"):
            assert main(
                self.args(tmp_path, "--exchange", exchange, "--crossval")
            ) == 0
            out = capsys.readouterr().out
            assert "cross-validation" in out
            assert "predicted exchange makespan" in out

    def test_trace_bits_flag_is_gone(self, capsys):
        # the word length is part of the scheme name on every surface
        assert argparse_exit(["trace", "--scheme", "qsgd4", "--bits", "4"]) == 2
        assert "--bits" in capsys.readouterr().err
        assert argparse_exit(["trace", "--scheme", "qsgd"]) == 2
        assert "qsgd4" in capsys.readouterr().err


class TestFabricCommand:
    def test_single_cell_reports_makespan(self, capsys):
        assert main([
            "fabric", "--ranks", "16", "--pattern", "ring",
            "--elements", "200000",
        ]) == 0
        out = capsys.readouterr().out
        assert "ring/qsgd4" in out
        assert "ms makespan" in out
        assert "hot link" in out

    def test_auto_select_prints_candidates(self, capsys):
        assert main([
            "fabric", "--ranks", "16", "--elements", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "auto-selected" in out
        assert "candidates:" in out

    def test_network_sizes_the_payload(self, capsys):
        assert main([
            "fabric", "--ranks", "16", "--pattern", "tree",
            "--network", "AlexNet",
        ]) == 0
        assert "ms makespan" in capsys.readouterr().out

    def test_fault_injection_reports_degradation(self, capsys):
        assert main([
            "fabric", "--ranks", "16", "--pattern", "ring",
            "--elements", "100000", "--fail-link", "host1:leaf0",
        ]) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "evicted (link)" in out

    def test_trace_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "fabric.json"
        assert main([
            "fabric", "--ranks", "8", "--pattern", "tree",
            "--elements", "1000", "--trace", str(path),
        ]) == 0
        assert "trace written" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["otherData"]["pattern"] == "tree"

    def test_bad_fail_link_format(self, capsys):
        assert main(["fabric", "--fail-link", "leaf0spine1"]) == 2
        assert "SRC:DST" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, words",
        [
            (["--fail-link", "nosuch:leaf9"], "no link nosuch:leaf9"),
            (["--fail-link", "host0:leaf1"], "host0 connects to"),
            (
                ["--fail-link", "host0:leaf0", "--fail-at", "0.001",
                 "--recover-at", "0.0005"],
                "not after it fails",
            ),
            (["--fail-link", "host0:leaf0", "--fail-at", "-1"], ">= 0"),
        ],
    )
    def test_impossible_fault_is_one_error_line(self, fault, words, capsys):
        assert main([
            "fabric", "--ranks", "16", "--topology", "leaf-spine",
            "--pattern", "ring", "--elements", "10000", *fault,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro fabric: error: ")
        assert words in line

    def test_recover_at_requires_fail_link(self, capsys):
        assert main(["fabric", "--recover-at", "0.5"]) == 2
        assert "--recover-at requires --fail-link" in (
            capsys.readouterr().err
        )

    def test_sweep_covers_every_pattern(self, capsys):
        assert main([
            "fabric", "--sweep", "--sweep-ranks", "8", "16",
        ]) == 0
        out = capsys.readouterr().out
        for pattern in ("ring", "tree", "butterfly", "hierarchical"):
            assert pattern in out

    def test_crossval_gate_passes(self, capsys):
        assert main(["fabric", "--crossval"]) == 0
        out = capsys.readouterr().out
        assert "fabric crossval: PASS" in out
        assert "max phase-share gap" in out
