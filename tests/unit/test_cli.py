"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.range_m == 3.0
        assert args.command == "demo"

    def test_fault_knob_defaults(self):
        args = build_parser().parse_args(["ber"])
        assert args.max_retries == 2
        assert args.chunk_timeout is None

    def test_fault_knobs_parse(self):
        args = build_parser().parse_args(
            ["ber", "--max-retries", "5", "--chunk-timeout", "30"]
        )
        assert args.max_retries == 5
        assert args.chunk_timeout == 30.0

    def test_fault_knobs_reject_bad_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ber", "--max-retries", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ber", "--chunk-timeout", "0"])

    def test_no_engine_path_flag(self):
        # The downlink engine has one path; there is nothing to select.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ber", "--batch-frames"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 7531
        assert args.pool_workers == 2
        assert args.max_pending == 256
        assert args.retry_after == 1.0

    def test_serve_rejects_bad_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pool-workers", "0"])


class TestDesignCommand:
    def test_prints_alphabet(self):
        code, text = run_cli(
            ["design", "--bandwidth-ghz", "1.0", "--delta-l-inches", "45",
             "--symbol-bits", "5"]
        )
        assert code == 0
        assert "slopes: 34" in text
        assert "41.7 kbps" in text

    def test_infeasible_design_exits_nonzero(self):
        code, text = run_cli(
            ["design", "--symbol-bits", "5", "--period-us", "25"]
        )
        assert code == 1
        assert "infeasible" in text


class TestPowerCommand:
    def test_prints_both_designs(self):
        code, text = run_cli(["power"])
        assert code == 0
        assert "COTS prototype" in text
        assert "projected IC" in text
        assert "48.00 mW" in text


class TestBerCommand:
    def test_runs_small_monte_carlo(self):
        code, text = run_cli(
            ["ber", "--distance", "2", "--frames", "3", "--seed", "1"]
        )
        assert code == 0
        assert "BER:" in text
        assert "video SNR" in text

    def test_snr_override(self):
        code, text = run_cli(
            ["ber", "--snr-db", "20", "--frames", "3"]
        )
        assert code == 0
        assert "BER:" in text

    def test_fault_knobs_run_end_to_end(self):
        code, text = run_cli(
            ["ber", "--distance", "2", "--frames", "3", "--seed", "1",
             "--workers", "2", "--max-retries", "3", "--chunk-timeout", "120"]
        )
        assert code == 0
        assert "BER:" in text


class TestLocalizeCommand:
    def test_fixed_slopes(self):
        code, text = run_cli(
            ["localize", "--range", "2.5", "--frames", "2", "--seed", "3"]
        )
        assert code == 0
        assert "fixed slope" in text
        assert "median error" in text

    def test_varying_slopes(self):
        code, text = run_cli(
            ["localize", "--range", "2.5", "--frames", "2", "--varying-slopes"]
        )
        assert code == 0
        assert "communicating" in text


class TestDemoCommand:
    def test_full_exchange(self):
        code, text = run_cli(["demo", "--range", "2.0", "--seed", "4"])
        assert code == 0
        assert "downlink BER: 0.000" in text
        assert "uplink BER: 0.000" in text
        assert "localized" in text


class TestSoakCommand:
    def test_healthy_soak_exits_zero(self):
        code, text = run_cli(["soak", "--frames", "2", "--range", "2.5", "--seed", "3"])
        assert code == 0
        assert "healthy (default targets): yes" in text
        assert "frames: 2" in text


class TestImpairFlag:
    def test_demo_with_impairment_reports_spec(self):
        code, text = run_cli(
            ["demo", "--range", "2.0", "--seed", "4", "--impair", "impulse:0.2"]
        )
        assert code == 0
        assert "impairments: impulse:0.2" in text

    def test_demo_severity_zero_matches_clean_output(self):
        base = ["demo", "--range", "2.0", "--seed", "4"]
        _, clean = run_cli(base)
        _, impaired = run_cli(base + ["--impair", "loss:0,impulse:0"])
        # Identical numbers modulo the extra "impairments:" line.
        stripped = [
            line for line in impaired.splitlines()
            if not line.startswith("impairments:")
        ]
        assert stripped == clean.splitlines()

    def test_demo_total_loss_reports_erasures_exit_zero(self):
        code, text = run_cli(
            ["demo", "--range", "2.0", "--seed", "4",
             "--impair", "loss:1,drift:0.5"]
        )
        assert code == 0  # graceful degradation: erasures, not a crash
        assert "erased" in text or "erasure" in text

    def test_bad_spec_exits_two(self):
        code, text = run_cli(["demo", "--impair", "jammer"])
        assert code == 2
        assert "unknown impairment" in text

    def test_ber_with_impairment(self):
        code, text = run_cli(
            ["ber", "--snr-db", "15", "--frames", "2",
             "--impair", "impulse:0.3"]
        )
        assert code == 0
        assert "impairments: impulse:0.3" in text
        assert "BER:" in text

    def test_soak_with_impairment_reports_erasures(self):
        code, text = run_cli(
            ["soak", "--frames", "2", "--range", "2.5",
             "--impair", "loss:1"]
        )
        assert "impairments: loss:1" in text
        assert "erased frames: 2/2" in text


class TestRobustnessCommand:
    def test_prints_degradation_table(self):
        code, text = run_cli(
            ["robustness", "--range", "2.5", "--frames", "2",
             "--severities", "0,1", "--seed", "0"]
        )
        assert code == 0
        assert "severity" in text and "erasures" in text
        assert "0.00" in text and "1.00" in text

    def test_workers_bit_identical(self):
        base = ["robustness", "--range", "2.5", "--frames", "2",
                "--severities", "0.5", "--seed", "0"]
        code, serial = run_cli(base)
        assert code == 0
        code, pooled = run_cli(base + ["--workers", "2"])
        assert code == 0
        # Same table; the pooled run adds an executor summary line.
        table = [l for l in serial.splitlines() if l]
        assert all(line in pooled for line in table)

    def test_cache_dir_serves_warm_run(self, tmp_path):
        base = ["robustness", "--range", "2.5", "--frames", "2",
                "--severities", "0,0.5", "--seed", "0",
                "--cache-dir", str(tmp_path / "c")]
        code, cold = run_cli(base)
        assert code == 0
        assert "2 miss(es)" in cold
        code, warm = run_cli(base)
        assert code == 0
        assert "2 hit(s)" in warm

    def test_bad_severities_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness", "--severities", "0,2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness", "--severities", ""])


class TestServeCommand:
    def test_chunk_timeout_needs_worker_processes(self, monkeypatch):
        from repro.serve import server

        started = []
        monkeypatch.setattr(
            server, "run_server",
            lambda config, out: started.append(config) or 0,
        )
        code, text = run_cli(["serve", "--port", "0", "--chunk-timeout", "30"])
        assert code == 2
        assert text.startswith("error: --chunk-timeout needs worker processes")
        assert text.count("\n") == 1
        assert started == []
        code, _ = run_cli(
            ["serve", "--port", "0", "--workers", "2", "--chunk-timeout", "30"]
        )
        assert code == 0
        (config,) = started
        assert config.execution.workers == 2
        assert config.execution.chunk_timeout_s == 30.0


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestCacheCommand:
    def test_stats_on_empty_store(self, tmp_path):
        code, text = run_cli(["cache", "stats", "--cache-dir", str(tmp_path / "c")])
        assert code == 0
        assert "entries: 0 (0 corrupt)" in text
        assert "session: 0 hit(s), 0 miss(es)" in text

    def test_ber_populates_cache_and_reports_hits(self, tmp_path):
        cache = str(tmp_path / "c")
        base = ["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                "--cache-dir", cache]
        code, cold = run_cli(base)
        assert code == 0
        assert "1 miss(es)" in cold

        code, warm = run_cli(base)
        assert code == 0
        assert "1 hit(s)" in warm
        # The cached answer is the uncached answer, bit for bit.
        assert cold.splitlines()[0] == warm.splitlines()[0]

        code, stats = run_cli(["cache", "stats", "--cache-dir", cache])
        assert code == 0
        assert "entries: 1 (0 corrupt)" in stats
        assert "downlink-trials: 1" in stats

    def test_localize_populates_cache(self, tmp_path):
        cache = str(tmp_path / "c")
        base = ["localize", "--range", "2.5", "--frames", "2", "--seed", "3",
                "--cache-dir", cache]
        code, cold = run_cli(base)
        assert code == 0
        code, warm = run_cli(base)
        assert code == 0
        assert "1 hit(s)" in warm
        assert cold.splitlines()[0] == warm.splitlines()[0]

    def test_verify_recomputes_ok(self, tmp_path):
        cache = str(tmp_path / "c")
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--cache-dir", cache])
        code, text = run_cli(["cache", "verify", "--cache-dir", cache])
        assert code == 0
        assert "verdict: ok" in text
        assert "recomputed bit-exactly: 1/1" in text

    def test_verify_flags_forged_entry(self, tmp_path):
        import json as json_module

        cache = tmp_path / "c"
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--cache-dir", str(cache)])
        [record_path] = [
            p for p in cache.rglob("*.json") if p.name != "index.json"
        ]
        record = json_module.loads(record_path.read_text())
        record["payload"]["ber"] = 0.5
        from repro.store.cache import _payload_checksum

        record["checksum"] = _payload_checksum(record["payload"])
        record_path.write_text(json_module.dumps(record))

        code, text = run_cli(["cache", "verify", "--cache-dir", str(cache)])
        assert code == 1
        assert "verdict: FAILED" in text
        assert "MISMATCH" in text

    def test_clear_empties_store(self, tmp_path):
        cache = str(tmp_path / "c")
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--cache-dir", cache])
        code, text = run_cli(["cache", "clear", "--cache-dir", cache])
        assert code == 0
        assert "removed 1 entry" in text
        code, text = run_cli(["cache", "stats", "--cache-dir", cache])
        assert "entries: 0" in text

    def test_stats_reports_orphaned_tmp_files(self, tmp_path):
        cache = tmp_path / "c"
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--cache-dir", str(cache)])
        (cache / "index.json.dead00.tmp").write_bytes(b"partial")
        code, text = run_cli(["cache", "stats", "--cache-dir", str(cache)])
        assert code == 0
        assert "orphaned temp files: 1" in text

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        cache = tmp_path / "c"
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--cache-dir", str(cache)])
        orphan = cache / "index.json.dead00.tmp"
        orphan.write_bytes(b"partial")
        code, text = run_cli(["cache", "clear", "--cache-dir", str(cache)])
        assert code == 0
        assert "removed 1 orphaned temp file(s)" in text
        assert not orphan.exists()

    @staticmethod
    def _journal_record(cache, journal_id, pid):
        """Drop a minimal valid journal record file into the cache dir."""
        import json as json_module

        from repro.serve.journal import JOURNAL_SCHEMA_VERSION

        root = cache / "journal"
        root.mkdir(parents=True, exist_ok=True)
        (root / f"{journal_id}.json").write_text(json_module.dumps({
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "journal_id": journal_id,
            "kind": "ber",
            "job": {"kind": "ber", "frames": 2},
            "fingerprints": ["f" * 64],
            "completed": [],
            "point_indices": None,
            "state": "running",
            "pid": pid,
            "created_unix": 1.0,
        }))

    def test_stats_counts_orphaned_journal_records(self, tmp_path):
        import os

        cache = tmp_path / "c"
        # One record owned by a provably dead pid, one by this process.
        self._journal_record(cache, "dead-1", 2 ** 22 + 12345)
        self._journal_record(cache, "alive-1", os.getpid())
        code, text = run_cli(["cache", "stats", "--cache-dir", str(cache)])
        assert code == 0
        assert "journal: 2 record(s) (1 orphaned)" in text

    def test_clear_sweeps_only_orphaned_journal_records(self, tmp_path):
        import os

        cache = tmp_path / "c"
        self._journal_record(cache, "dead-1", 2 ** 22 + 12345)
        self._journal_record(cache, "alive-1", os.getpid())
        code, text = run_cli(["cache", "clear", "--cache-dir", str(cache)])
        assert code == 0
        assert "removed 1 orphaned journal record(s)" in text
        # A live server's ledger survives; the dead one is gone.
        assert not (cache / "journal" / "dead-1.json").exists()
        assert (cache / "journal" / "alive-1.json").exists()


class TestCacheStatsJson:
    #: The machine-readable schema is an interface: the serve status
    #: endpoint embeds the same document, so drift here breaks scrapers.
    SCHEMA_KEYS = {
        "array_files", "corrupt", "entries", "journal_entries",
        "journal_orphans", "kinds", "root", "session", "tmp_files",
        "total_bytes",
    }

    def test_json_schema_on_empty_store(self, tmp_path):
        import json as json_module

        code, text = run_cli(
            ["cache", "stats", "--json", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        payload = json_module.loads(text)
        assert set(payload) == self.SCHEMA_KEYS
        assert payload["entries"] == 0
        assert payload["kinds"] == {}
        assert payload["session"] == {"hits": 0, "misses": 0}

    def test_json_counts_match_plain_stats(self, tmp_path):
        import json as json_module

        cache = str(tmp_path / "c")
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--cache-dir", cache])
        code, text = run_cli(["cache", "stats", "--json", "--cache-dir", cache])
        assert code == 0
        payload = json_module.loads(text)
        assert payload["entries"] == 1
        assert payload["kinds"] == {"downlink-trials": 1}
        assert payload["corrupt"] == 0
        assert payload["total_bytes"] > 0
        # And the plain renderer agrees with the JSON document.
        _, plain = run_cli(["cache", "stats", "--cache-dir", cache])
        assert f"entries: {payload['entries']}" in plain


class TestObservabilityFlags:
    def test_profile_prints_metrics_table(self):
        code, text = run_cli(
            ["ber", "--distance", "2", "--frames", "3", "--seed", "1", "--profile"]
        )
        assert code == 0
        assert "BER:" in text  # the command's own output is untouched
        assert "profile [" in text
        assert "executor.trials.completed" in text
        assert "engine.downlink.trials" in text

    def test_profile_counters_match_across_worker_counts(self):
        from repro.obs import runtime

        def counters(workers):
            runtime.reset()  # the registry outlives one in-process run
            code, text = run_cli(
                ["ber", "--frames", "40", "--seed", "0", "--profile",
                 "--workers", str(workers)]
            )
            assert code == 0
            rows = [line.split() for line in text.split("profile [", 1)[1].splitlines()]
            # Pool starts and reuses exist only where a pool does.
            return {
                row[0] for row in rows
                if row[1:2] == ["counter"] and not row[0].startswith("executor.pool.")
            }

        pooled = counters(2)
        assert "engine.downlink.sync_failures" in pooled
        assert pooled == counters(1)

    def test_profile_lists_only_its_own_run(self):
        """A second in-process run's table does not list the first's."""

        def table(workers):
            code, text = run_cli(
                ["ber", "--frames", "8", "--seed", "0", "--profile",
                 "--workers", str(workers)]
            )
            assert code == 0
            return text.split("profile [", 1)[1]

        assert "executor.pool.starts" in table(2)
        second = table(1)
        assert "executor.pool.starts" not in second
        assert "executor.trials.completed" in second

    def test_log_json_emits_json_lines(self, capsys):
        import json

        code, _ = run_cli(
            ["ber", "--distance", "2", "--frames", "3", "--seed", "1", "--log-json"]
        )
        assert code == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines() if line.strip()
        ]
        assert lines, "expected JSON-lines events on stderr"
        events = [json.loads(line) for line in lines]
        assert {"run", "ts", "event"} <= set(events[0])
        names = {event["event"] for event in events}
        assert "executor.map.start" in names
        assert "executor.map.done" in names
        # One run id across the whole command.
        assert len({event["run"] for event in events}) == 1

    def test_trace_dir_writes_chrome_trace(self, tmp_path):
        from repro.obs import read_trace_events

        trace_dir = tmp_path / "traces"
        code, _ = run_cli(
            ["localize", "--frames", "2", "--seed", "3",
             "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        [trace_file] = sorted(trace_dir.glob("trace_*.json"))
        events = read_trace_events(trace_file)
        names = {event["name"] for event in events}
        assert "engine.localization" in names
        assert "pool.chunk" in names
        # The metrics snapshot lands next to the trace for `obs export`.
        assert sorted(trace_dir.glob("metrics_*.json"))

    def test_obs_export_finalizes_run(self, tmp_path):
        import json

        trace_dir = tmp_path / "traces"
        run_cli(["ber", "--distance", "2", "--frames", "2", "--seed", "1",
                 "--trace-dir", str(trace_dir)])
        code, text = run_cli(["obs", "export", "--trace-dir", str(trace_dir)])
        assert code == 0
        assert "exported:" in text
        [export_file] = sorted(trace_dir.glob("export_*.json"))
        data = json.loads(export_file.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"]
        assert data["metrics"]["counters"]["executor.chunks.completed"] >= 1

    def test_obs_export_missing_dir_fails(self, tmp_path):
        code, text = run_cli(
            ["obs", "export", "--trace-dir", str(tmp_path / "nothing")]
        )
        assert code == 1
        assert "error:" in text

    def test_flags_do_not_change_results(self, capsys):
        base = ["ber", "--distance", "2", "--frames", "3", "--seed", "1"]
        code, plain = run_cli(base)
        assert code == 0
        capsys.readouterr()  # drop any buffered console events
        code, observed = run_cli(base + ["--log-json", "--profile"])
        assert code == 0
        capsys.readouterr()
        # Identical headline numbers: telemetry never leaks into results.
        assert plain.splitlines()[0] == observed.splitlines()[0]


class TestObsLedgerCommands:
    BASE = ["ber", "--distance", "2", "--frames", "3", "--seed", "1"]

    def _recorded_run(self, ledger, extra=()):
        code, text = run_cli(self.BASE + list(extra) +
                             ["--manifest-dir", str(ledger)])
        assert code == 0
        return text

    def test_manifest_dir_finalizes_complete_manifest(self, tmp_path):
        from repro.obs import manifest

        ledger = tmp_path / "ledger"
        plain_code, plain = run_cli(self.BASE)
        assert plain_code == 0
        recorded = self._recorded_run(ledger)
        # Recording a manifest never touches the command's own output.
        assert recorded == plain
        [run_id] = manifest.list_runs(ledger)
        data = manifest.load(ledger, run_id)
        assert data["status"] == "complete"
        assert data["exit_code"] == 0
        assert data["command"] == "ber"
        assert data["execution"]["trials"] == 3
        assert data["argv"][0] == "ber"
        assert data["metrics"]["counters"]["engine.downlink.trials"] == 3

    def test_obs_runs_and_report_render_ledger(self, tmp_path):
        ledger = tmp_path / "ledger"
        self._recorded_run(ledger)
        code, table = run_cli(["obs", "runs", "--manifest-dir", str(ledger)])
        assert code == 0
        from repro.obs import manifest

        [run_id] = manifest.list_runs(ledger)
        assert run_id in table
        # Default report targets the latest run; --run pins one.
        for extra in ([], ["--run", run_id]):
            code, report = run_cli(
                ["obs", "report", "--manifest-dir", str(ledger)] + extra
            )
            assert code == 0
            assert run_id in report
            assert "ber --distance 2" in report

    def test_obs_diff_two_runs(self, tmp_path):
        ledger = tmp_path / "ledger"
        self._recorded_run(ledger)
        self._recorded_run(ledger, extra=["--seed", "2"])
        from repro.obs import manifest

        run_a, run_b = manifest.list_runs(ledger)
        code, text = run_cli(
            ["obs", "diff", run_a, run_b, "--manifest-dir", str(ledger)]
        )
        assert code == 0
        assert run_a in text and run_b in text
        # Different --seed means a different config fingerprint.
        assert "[CHANGED]" in text

    def test_obs_report_unknown_run_exits_2_listing_available(self, tmp_path):
        ledger = tmp_path / "ledger"
        self._recorded_run(ledger)
        from repro.obs import manifest

        [run_id] = manifest.list_runs(ledger)
        code, text = run_cli(
            ["obs", "report", "--run", "ghost", "--manifest-dir", str(ledger)]
        )
        assert code == 2
        assert "no manifest for run 'ghost'" in text
        assert run_id in text

    def test_obs_export_unknown_run_exits_2_listing_available(self, tmp_path):
        trace_dir = tmp_path / "traces"
        run_cli(self.BASE + ["--trace-dir", str(trace_dir)])
        from repro import obs

        [run_id] = obs.list_runs(str(trace_dir))
        code, text = run_cli(
            ["obs", "export", "--trace-dir", str(trace_dir), "--run", "ghost"]
        )
        assert code == 2
        assert "no trace for run 'ghost'" in text
        assert run_id in text

    def test_obs_diff_unknown_run_exits_2(self, tmp_path):
        ledger = tmp_path / "ledger"
        code, text = run_cli(
            ["obs", "diff", "a", "b", "--manifest-dir", str(ledger)]
        )
        assert code == 2
        assert "no runs recorded yet" in text

    def test_metrics_port_announces_and_keeps_stdout_identical(self, capsys):
        code, plain = run_cli(self.BASE)
        assert code == 0
        capsys.readouterr()
        code, observed = run_cli(self.BASE + ["--metrics-port", "0"])
        assert code == 0
        err = capsys.readouterr().err
        assert "metrics on 127.0.0.1:" in err
        assert observed == plain
