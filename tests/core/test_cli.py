"""Command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.streams import load_trace


QUERY = (
    "PATTERN SEQ(T1 a, T2 b, T3 c) "
    "WHERE a.part == b.part AND b.part == c.part WITHIN 50"
)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    code = main(
        [
            "generate",
            "--workload", "synthetic",
            "--events", "800",
            "--disorder", "0.3:20",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_trace(self, trace_file):
        elements = load_trace(trace_file)
        assert len(elements) == 800

    def test_generate_output_mentions_disorder(self, trace_file, capsys):
        main(["inspect", str(trace_file)])
        out = capsys.readouterr().out
        assert "disorder rate" in out
        assert "800" in out

    @pytest.mark.parametrize("workload", ["rfid", "intrusion", "stock"])
    def test_other_workloads(self, tmp_path, workload, capsys):
        path = tmp_path / f"{workload}.jsonl"
        count = "50" if workload == "rfid" else "500"
        code = main(
            ["generate", "--workload", workload, "--events", count,
             "--disorder", "none", "--out", str(path)]
        )
        assert code == 0
        assert load_trace(path)

    def test_burst_disorder_spec(self, tmp_path):
        path = tmp_path / "burst.jsonl"
        code = main(
            ["generate", "--workload", "synthetic", "--events", "400",
             "--disorder", "burst:0.02:30", "--out", str(path)]
        )
        assert code == 0


class TestRun:
    def test_run_with_verify_exact(self, trace_file, capsys):
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "ooo", "--k", "20", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recall" in out and "1.0" in out

    def test_run_inorder_fails_verification_on_disordered_trace(
        self, trace_file, capsys
    ):
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "inorder", "--verify"]
        )
        assert code == 1  # recall < 1 -> non-zero exit

    @pytest.mark.parametrize(
        "engine",
        ["reorder", pytest.param("ooo --speculative", id="speculative"), "partitioned"],
    )
    def test_all_engines_runnable(self, trace_file, engine):
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", *engine.split(), "--k", "20", "--verify"]
        )
        assert code == 0

    def test_no_index_flag_identical_results(self, trace_file, capsys):
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "ooo", "--k", "20", "--verify"]
        )
        assert code == 0
        indexed_out = capsys.readouterr().out
        assert "index hits" in indexed_out
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "ooo", "--k", "20", "--verify", "--no-index"]
        )
        assert code == 0  # still oracle-exact without the index
        ablated_out = capsys.readouterr().out
        hits_line = next(
            line for line in ablated_out.splitlines() if "index hits" in line
        )
        assert hits_line.split()[-1] == "0"

    def test_purge_policy_flags(self, trace_file):
        for policy in ("eager", "lazy:64", "none"):
            code = main(
                ["run", "--query", QUERY, "--trace", str(trace_file),
                 "--engine", "ooo", "--k", "20", "--purge", policy]
            )
            assert code == 0

    def test_speculative_flag_reports_counters(self, trace_file, capsys):
        neg_query = (
            "PATTERN SEQ(T1 a, !T2 b, T3 c) WHERE a.part == c.part WITHIN 50"
        )
        code = main(
            ["run", "--query", neg_query, "--trace", str(trace_file),
             "--engine", "ooo", "--k", "20", "--speculative", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0  # sealed output stays oracle-exact
        assert "speculative emissions" in out
        assert "retractions" in out

    def test_quality_target_reports_controller(self, trace_file, capsys):
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "ooo", "--k", "20", "--quality-target", "0.99"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "K re-freezes" in out
        assert "final K" in out

    def test_show_matches_zero(self, trace_file, capsys):
        main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "ooo", "--k", "20", "--show-matches", "0"]
        )
        out = capsys.readouterr().out
        assert "Match[" not in out

    @pytest.mark.parametrize(
        "engine",
        ["ooo", pytest.param("ooo --speculative", id="speculative"), "reorder"],
    )
    def test_resilient_run_reports_deliveries_across_a_crash(
        self, trace_file, tmp_path, capsys, engine
    ):
        """The runner takes what it delivers, so the report reads the
        delivery log: same match count and oracle verdict as a plain run."""
        base = ["run", "--query", QUERY, "--trace", str(trace_file),
                "--engine", *engine.split(), "--k", "20", "--verify",
                "--show-matches", "1"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        code = main(base + ["--checkpoint-every", "100", "--crash-at", "400",
                            "--checkpoint-dir", str(tmp_path / "ckpt")])
        crashed = capsys.readouterr().out
        assert code == 0

        def row(out, label):
            return next(l.split()[-1] for l in out.splitlines() if label in l)

        assert int(row(plain, " matches ")) > 0
        for label in (" matches ", "oracle matches", "recall", "precision"):
            assert row(crashed, label) == row(plain, label)
        assert "latency (events, since recovery)" in crashed
        assert "Match[" in crashed

    @pytest.mark.parametrize(
        "extra",
        [["--workers", "2"], ["--backend", "thread"], ["--engine", "parallel"]],
        ids=["workers", "backend", "parallel"],
    )
    def test_removed_parallel_options_exit_2(self, trace_file, capsys, extra):
        with pytest.raises(SystemExit) as exited:
            main(["run", "--query", QUERY, "--trace", str(trace_file),
                  "--k", "20", *extra])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and (extra[0] in err or extra[1] in err)

    def test_checkpoint_of_the_removed_engine_is_refused_untouched(
        self, trace_file, tmp_path, capsys
    ):
        import pickle

        from repro.core.recovery import CHECKPOINT_NAME

        directory = tmp_path / "ckpt"
        run = ["run", "--query", QUERY, "--trace", str(trace_file),
               "--engine", "partitioned", "--k", "20",
               "--checkpoint-every", "100", "--checkpoint-dir", str(directory)]
        assert main(run) == 0
        # Forge what the deleted pipelined engine wrote: same state shape,
        # its own class name in the snapshot header.
        from test_snapshot import REMOVED_ENGINE as removed
        checkpoint = pickle.loads((directory / CHECKPOINT_NAME).read_bytes())
        header = pickle.loads(checkpoint["snapshot"])
        header["engine"] = removed
        checkpoint["snapshot"] = pickle.dumps(header)
        (directory / CHECKPOINT_NAME).write_bytes(pickle.dumps(checkpoint))
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        capsys.readouterr()

        assert main(run) == 2
        err = capsys.readouterr().err
        assert repr(removed) in err and "into PartitionedEngine" in err
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before

    def test_bad_purge_policy_reports_error(self, trace_file, capsys):
        code = main(
            ["run", "--query", QUERY, "--trace", str(trace_file),
             "--engine", "ooo", "--purge", "sometimes"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_query_reports_error(self, trace_file, capsys):
        code = main(
            ["run", "--query", "SELECT * FROM events",
             "--trace", str(trace_file)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestInspect:
    def test_inspect_reports_required_k(self, trace_file, capsys):
        code = main(["inspect", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "required K" in out
        assert "events by type" in out
