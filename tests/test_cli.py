"""The command-line interface."""

import numpy as np
import pytest

from repro.cli import load_column_values, main


@pytest.fixture
def column_npy(tmp_path, rng):
    path = tmp_path / "col.npy"
    np.save(path, rng.zipf(1.6, size=20_000))
    return path


class TestLoadColumn:
    def test_npy(self, column_npy):
        values = load_column_values(column_npy)
        assert values.ndim == 1
        assert values.size == 20_000

    def test_text_with_header(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("value\n1\n2\n2\n3\n")
        values = load_column_values(path)
        assert list(values) == [1, 2, 2, 3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_column_values(tmp_path / "nope.npy")

    def test_empty_text(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("header\nonly\n")
        with pytest.raises(ValueError):
            load_column_values(path)

    def test_2d_npy_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            load_column_values(path)


class TestCommands:
    def test_build_inspect_estimate_roundtrip(self, column_npy, tmp_path, capsys):
        out = tmp_path / "hist.bin"
        assert main(["build", str(column_npy), str(out), "--kind", "V8DincB"]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "built V8DincB" in captured

        assert main(["inspect", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "kind:    V8DincB" in captured
        assert "guarantee" in captured

        assert main(["estimate", str(out), "0", "100"]) == 0
        estimate = float(capsys.readouterr().out.strip())
        assert estimate > 0

    def test_build_with_explicit_theta(self, column_npy, tmp_path, capsys):
        out = tmp_path / "hist.bin"
        assert (
            main(["build", str(column_npy), str(out), "--theta", "64", "--q", "3"])
            == 0
        )
        captured = capsys.readouterr().out
        assert "theta=64" in captured
        assert "q=3" in captured

    def test_analyze_lists_all_kinds(self, column_npy, capsys):
        assert main(["analyze", str(column_npy)]) == 0
        captured = capsys.readouterr().out
        for kind in ("F8Dgt", "V8DincB", "1VincB1"):
            assert kind in captured

    def test_missing_input_is_error_exit(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "none.npy"), str(tmp_path / "o.bin")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_certify_passes_on_real_column(self, column_npy, capsys):
        code = main(["certify", str(column_npy), "--theta", "32", "--samples", "3000"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured

    def test_certify_rejects_value_kinds(self, column_npy):
        with pytest.raises(SystemExit):
            main(["certify", str(column_npy), "--kind", "1VincB1"])

    def test_build_table_directory(self, tmp_path, rng, capsys):
        data = tmp_path / "cols"
        data.mkdir()
        np.save(data / "customer.npy", rng.integers(0, 500, size=20_000))
        np.save(data / "amount.npy", rng.zipf(1.8, size=20_000))
        np.save(data / "status.npy", rng.choice([1, 2, 3], size=20_000))  # unworthy
        catalog_dir = tmp_path / "catalog"
        code = main(
            [
                "build-table",
                str(data),
                str(catalog_dir),
                "--table",
                "orders",
                "--workers",
                "2",
                "--executor",
                "thread",
                "--theta",
                "32",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "built 2 V8DincB histograms" in captured
        assert "skipped 1 unworthy" in captured
        from repro.core.catalog import StatisticsCatalog

        catalog = StatisticsCatalog(catalog_dir)
        assert set(catalog.entries()) == {("orders", "customer"), ("orders", "amount")}

    def test_build_table_kernel_flag(self, tmp_path, rng, capsys):
        # There is one acceptance kernel and no flag to pick another.
        data = tmp_path / "c.npy"
        np.save(data, rng.integers(0, 300, size=10_000))
        with pytest.raises(SystemExit) as exit_info:
            main(["build-table", str(data), str(tmp_path / "cat"), "--kernel", "literal"])
        assert exit_info.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_build_table_empty_directory_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["build-table", str(empty), str(tmp_path / "cat")])
        assert code == 1
        assert "no column files" in capsys.readouterr().err

    def test_build_profile_prints_phase_breakdown(self, column_npy, tmp_path, capsys):
        out = tmp_path / "hist.bin"
        code = main(["build", str(column_npy), str(out), "--profile", "--theta", "32"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "build[V8DincB]" in captured
        assert "density_scan" in captured
        assert "bucket_search" in captured
        assert "acceptance_tests" in captured
        assert "packing" in captured
        assert "acceptance_tests=" in captured
        sidecar = tmp_path / "hist.bin.profile.json"
        assert sidecar.exists()
        import json

        profile = json.loads(sidecar.read_text())
        assert profile["kind"] == "V8DincB"
        assert profile["counters"]["acceptance_tests"] > 0

    def test_inspect_surfaces_profile_sidecar(self, column_npy, tmp_path, capsys):
        out = tmp_path / "hist.bin"
        main(["build", str(column_npy), str(out), "--profile", "--theta", "32"])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "build profile" in captured
        assert "bucket_search" in captured
        assert "acceptance_tests=" in captured

    def test_inspect_without_sidecar_stays_quiet(self, column_npy, tmp_path, capsys):
        out = tmp_path / "hist.bin"
        main(["build", str(column_npy), str(out), "--theta", "32"])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        assert "build profile" not in capsys.readouterr().out

    def test_build_table_profile_aggregates_phases(self, tmp_path, rng, capsys):
        data = tmp_path / "cols"
        data.mkdir()
        np.save(data / "a.npy", rng.integers(0, 500, size=20_000))
        np.save(data / "b.npy", rng.zipf(1.8, size=20_000))
        code = main(
            [
                "build-table",
                str(data),
                str(tmp_path / "cat"),
                "--executor",
                "thread",
                "--workers",
                "2",
                "--theta",
                "32",
                "--profile",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "phase totals across 2 builds" in captured
        assert "bucket_search" in captured
        assert "acceptance_tests=" in captured

    def test_analyze_profile_adds_acceptance_columns(self, column_npy, capsys):
        assert main(["analyze", str(column_npy), "--profile"]) == 0
        captured = capsys.readouterr().out
        assert "accept tests" in captured
        assert "accept ms" in captured

    def test_estimate_accuracy_through_cli(self, tmp_path, rng, capsys):
        raw = rng.integers(0, 300, size=30_000)
        path = tmp_path / "col.npy"
        np.save(path, raw)
        out = tmp_path / "hist.bin"
        main(["build", str(path), str(out), "--theta", "32"])
        capsys.readouterr()
        main(["estimate", str(out), "0", "150"])
        estimate = float(capsys.readouterr().out.strip())
        truth = int(np.count_nonzero(np.unique(raw, return_inverse=True)[1] < 150))
        assert max(estimate / truth, truth / estimate) < 2.0


class TestEstimateBatchFlag:
    @pytest.fixture
    def built(self, column_npy, tmp_path):
        out = tmp_path / "hist.bin"
        assert main(["build", str(column_npy), str(out), "--kind", "V8DincB"]) == 0
        return out

    def test_batch_file_prints_one_estimate_per_line(self, built, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text("# low high\n0 100\n5,60\n\n10 20\n")
        capsys.readouterr()
        assert main(["estimate", str(built), "--batch", str(queries)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(float(line) >= 0 for line in lines)

    def test_batch_matches_scalar(self, built, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text("3 80\n")
        capsys.readouterr()
        main(["estimate", str(built), "--batch", str(queries)])
        batched = capsys.readouterr().out.strip()
        main(["estimate", str(built), "3", "80"])
        assert capsys.readouterr().out.strip() == batched

    def test_profile_prints_plan_stats(self, built, capsys):
        capsys.readouterr()
        assert main(["estimate", str(built), "0", "50", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "cells" in out and "layout decodes" in out

    def test_malformed_line_names_file_and_line(self, built, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("0 10\nbad line\n")
        with pytest.raises(SystemExit, match="q.txt:2"):
            main(["estimate", str(built), "--batch", str(queries)])

    def test_missing_endpoints_without_batch(self, built):
        with pytest.raises(SystemExit, match="LOW and HIGH"):
            main(["estimate", str(built)])


class TestObservabilityCommands:
    @pytest.fixture
    def running(self, tmp_path, rng):
        from repro.dictionary.column import DictionaryEncodedColumn
        from repro.dictionary.table import Table
        from repro.service.server import StatisticsService, start_server_thread
        from repro.service.telemetry import ServiceTelemetry

        table = Table("orders")
        table.add_column(
            DictionaryEncodedColumn.from_values(
                rng.integers(1, 400, size=3_000), name="amount"
            )
        )
        service = StatisticsService(
            tmp_path / "catalog",
            seed=3,
            telemetry=ServiceTelemetry(trace_requests=True, slow_ms=0.0),
        )
        service.add_table(table)
        handle = start_server_thread(service)
        try:
            yield f"{handle.address[0]}:{handle.address[1]}", service
        finally:
            handle.stop()
            service.close()

    def test_parse_address_validates(self):
        from repro.cli import _parse_address

        assert _parse_address("localhost:7443") == ("localhost", 7443)
        for bad in ("localhost", ":7443", "host:port"):
            with pytest.raises(ValueError, match="host:port"):
                _parse_address(bad)

    def test_metrics_prometheus_output(self, running, capsys):
        address, _ = running
        assert main(["query", address, "10", "200",
                     "--table", "orders", "--column", "amount"]) == 0
        capsys.readouterr()
        assert main(["metrics", address, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert 'repro_requests_total{op="estimate"} 1' in out

    def test_metrics_json_output(self, running, capsys):
        import json

        address, _ = running
        capsys.readouterr()
        assert main(["metrics", address]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "metrics" in snapshot and "columns" in snapshot

    def test_slowlog_prints_traced_entries(self, running, capsys):
        import json

        address, _ = running
        assert main(["query", address, "10", "200",
                     "--table", "orders", "--column", "amount"]) == 0
        capsys.readouterr()
        assert main(["slowlog", address, "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert any(e["op"] == "estimate" for e in entries)
        assert all("request_id" in e for e in entries)

    def test_explain_prints_value_and_provenance(self, running, capsys):
        address, _ = running
        assert main(["explain", address, "10", "200",
                     "--table", "orders", "--column", "amount"]) == 0
        out = capsys.readouterr().out
        assert "(histogram)" in out
        assert "certified_q:" in out
        assert "plan:" in out
        assert "via: in-process" in out

    def test_explain_json_and_binary_agree(self, running, capsys):
        import json

        address, _ = running
        assert main(["explain", address, "10", "200", "--json",
                     "--table", "orders", "--column", "amount"]) == 0
        via_json = json.loads(capsys.readouterr().out)
        assert main(["explain", address, "10", "200", "--json", "--binary",
                     "--table", "orders", "--column", "amount"]) == 0
        via_binary = json.loads(capsys.readouterr().out)
        assert via_binary["value"] == via_json["value"]
        assert via_binary["provenance"] == via_json["provenance"]
        prov = via_json["provenance"]
        assert prov["table"] == "orders" and prov["column"] == "amount"

    def test_doctor_summarises_health(self, running, capsys):
        address, service = running
        # One answered-and-audited request so the report has content.
        assert main(["explain", address, "10", "200",
                     "--table", "orders", "--column", "amount"]) == 0
        capsys.readouterr()
        assert main(["doctor", address]) == 0
        out = capsys.readouterr().out
        assert "build:" in out and "version" in out
        assert "audit:" in out
        assert "journal:" in out
        assert "build" in out  # the build event from add_table

    def test_doctor_json_round_trips(self, running, capsys):
        import json

        address, _ = running
        assert main(["doctor", address, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["build_info"]["version"]
        assert "journal" in report and "audit" in report


class TestIngestCommand:
    @pytest.fixture
    def serving(self, tmp_path, rng):
        """A server with maintenance running: repairs can actually fire."""
        import numpy as np

        from repro.dictionary.column import DictionaryEncodedColumn
        from repro.dictionary.table import Table
        from repro.service.refresh import RefreshScheduler
        from repro.service.server import StatisticsService, start_server_thread

        # Skewed per-code frequencies -> a histogram with many buckets,
        # so a single hot code damages a small *fraction* of them and
        # the scheduler repairs instead of escalating.
        frequencies = rng.integers(1, 200, size=1000)
        values = np.repeat(np.arange(frequencies.size), frequencies)
        table = Table("orders")
        table.add_column(DictionaryEncodedColumn.from_values(values, name="amount"))
        service = StatisticsService(tmp_path / "catalog", seed=3)
        service.add_table(table)
        scheduler = RefreshScheduler(
            service.store,
            service.registry,
            threshold=0.05,
            interval=0.05,
            kind=service.kind,
            config=service.config,
            metrics=service.metrics,
        )
        scheduler.start()
        handle = start_server_thread(service)
        try:
            yield f"{handle.address[0]}:{handle.address[1]}", service
        finally:
            handle.stop()
            scheduler.stop()
            service.close()

    def test_hot_code_ingest_reports_repair(self, serving, capsys):
        address, service = serving
        assert main([
            "ingest", address,
            "--table", "orders", "--column", "amount",
            "--rows", "12000", "--hot-code", "500",
            "--batch-size", "3000", "--wait", "20", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "insert 12000/12000 rows" in out
        assert "done: 12000 rows (insert)" in out
        # The hot code broke its bucket's theta,q certificate and the
        # scheduler repaired it locally -- no full rebuild.
        assert "event: repair" in out
        assert "rebuilds=0" in out
        assert service.metrics.counter("repairs") >= 1
        assert service.metrics.counter("rebuilds_triggered") == 0

    def test_delete_stream_roundtrips(self, serving, capsys):
        address, _ = serving
        assert main([
            "ingest", address,
            "--table", "orders", "--column", "amount",
            "--rows", "200", "--hot-code", "500",
            "--batch-size", "200", "--wait", "0",
        ]) == 0
        capsys.readouterr()
        assert main([
            "ingest", address, "--delete",
            "--table", "orders", "--column", "amount",
            "--rows", "200", "--hot-code", "500",
            "--batch-size", "200", "--wait", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "done: 200 rows (delete)" in out
