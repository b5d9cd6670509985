"""Tests for the persistent run ledger (:mod:`repro.obs.ledger`).

Covers the append/stamp/read round trip, directory resolution
(argument → ``$REPRO_LEDGER_DIR`` → default, ``off`` disables), group
keying, gc, drift detection (the ``repro ledger check`` gate) and the
phase accumulator, plus the CLI surface (``ledger list/show/diff/gc/
check``, ``bench --history``, ``dashboard``).
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.cli import main
from repro.harness.runner import RunMetrics
from repro.obs.events import EventBus, RunStarted, Span
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    PhaseAccumulator,
    RunLedger,
    diff_entries,
    entry_label,
    format_ledger_rows,
    resolve_ledger_dir,
    run_key,
)


def make_metrics(benchmark="hop", mode="evr", redundant=0.35,
                 error=""):
    nan = float("nan")
    failed = bool(error)
    return RunMetrics(
        benchmark=benchmark, mode=mode,
        geometry_cycles=nan if failed else 1000.0,
        raster_cycles=nan if failed else 2000.0,
        energy_joules=nan if failed else 0.25,
        energy_breakdown={} if failed else {"l2": 0.1},
        shaded_fragments_per_pixel=nan if failed else 1.2,
        redundant_tile_rate=nan if failed else redundant,
        overshading_kills=0,
        predicted_occluded_rate=nan if failed else 0.4,
        error=error,
    )


class TestResolution:
    def test_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        assert resolve_ledger_dir(str(tmp_path / "arg")) == \
            str(tmp_path / "arg")

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        assert resolve_ledger_dir(None) == str(tmp_path / "env")
        assert resolve_ledger_dir("") == str(tmp_path / "env")

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        assert resolve_ledger_dir(None) == DEFAULT_LEDGER_DIR

    @pytest.mark.parametrize("value", ["off", "none", "OFF", "disabled"])
    def test_disabled_values(self, value):
        assert resolve_ledger_dir(value) == ""

    def test_disabled_ledger_is_inert(self):
        ledger = RunLedger("off")
        assert not ledger.enabled
        assert ledger.append({"kind": "run"}) is None
        assert ledger.entries() == []
        assert ledger.record_run("hash", make_metrics()) is None


class TestAppendAndRead:
    def test_append_stamps_provenance(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        stamped = ledger.append({"kind": "run", "benchmark": "hop"})
        assert stamped["v"] == 1
        assert stamped["ts"] > 0
        assert "git_sha" in stamped and "code_version" in stamped
        assert "machine" in stamped
        [entry] = ledger.entries()
        assert entry["benchmark"] == "hop"

    def test_append_only(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        for index in range(3):
            ledger.append({"kind": "run", "index": index})
        assert [entry["index"] for entry in ledger.entries()] == [0, 1, 2]

    def test_record_run_distills_metrics(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        stamped = ledger.record_run("abc123", make_metrics(),
                                    phases={"raster": 0.5},
                                    source="figure")
        assert stamped["kind"] == "run"
        assert stamped["spec_hash"] == "abc123"
        assert stamped["benchmark"] == "hop" and stamped["mode"] == "evr"
        assert stamped["source"] == "figure"
        assert stamped["metrics"]["redundant_tile_rate"] == 0.35
        assert stamped["phases"] == {"raster": 0.5}
        assert "benchmark" not in stamped["metrics"]
        assert "error" not in stamped["metrics"]

    def test_record_run_skips_failed_cells(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        assert ledger.record_run("abc", make_metrics(error="crashed")) \
            is None
        assert ledger.entries() == []

    def test_record_bench_extracts_ratios(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        stamped = ledger.record_bench({
            "preset": "default",
            "speedup": {"frames_per_second": 2.5},
            "backends": {
                "numpy": {"wall_seconds": 1.0, "frames_per_second": 10.0,
                          "memsys_sweep": {"cache_ops_per_second": 5e5}},
            },
        })
        assert stamped["kind"] == "bench"
        assert stamped["speedup"]["frames_per_second"] == 2.5
        assert stamped["backends"]["numpy"]["cache_ops_per_second"] == 5e5

    def test_torn_tail_is_tolerated(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        ledger.append({"kind": "run", "index": 0})
        with open(ledger.path, "a") as handle:
            handle.write('{"kind": "run", "ind')
        assert len(ledger.entries()) == 1

    def test_run_key_grouping(self):
        run = {"kind": "run", "spec_hash": "h", "benchmark": "hop",
               "mode": "evr", "git_sha": "a"}
        same_cell_other_commit = dict(run, git_sha="b")
        assert run_key(run) == run_key(same_cell_other_commit)
        assert run_key(run) != run_key(dict(run, mode="re"))
        assert run_key({"kind": "bench", "preset": "default"}) == \
            ("bench", "default")


class TestGcAndCheck:
    def seed(self, tmp_path, rates):
        ledger = RunLedger(str(tmp_path / "ledger"))
        for rate in rates:
            ledger.record_run("h", make_metrics(redundant=rate))
        return ledger

    def test_gc_keeps_newest_per_group(self, tmp_path):
        ledger = self.seed(tmp_path, [0.30, 0.31, 0.32, 0.33])
        ledger.record_run("h", make_metrics(mode="re", redundant=0.5))
        kept, dropped = ledger.gc(keep=2)
        assert (kept, dropped) == (3, 2)
        entries = ledger.entries()
        evr = [e for e in entries if e["mode"] == "evr"]
        assert [e["metrics"]["redundant_tile_rate"] for e in evr] == \
            [0.32, 0.33]

    def test_gc_rejects_nonpositive_keep(self, tmp_path):
        with pytest.raises(ValueError):
            self.seed(tmp_path, [0.3]).gc(keep=0)

    def test_check_passes_within_tolerance(self, tmp_path):
        ledger = self.seed(tmp_path, [0.30, 0.31, 0.32])
        assert ledger.check() == []

    def test_check_flags_rate_drift(self, tmp_path):
        ledger = self.seed(tmp_path, [0.30, 0.31, 0.30, 0.45])
        findings = ledger.check()
        assert len(findings) == 1
        assert "redundant_tile_rate" in findings[0]
        assert "drifted" in findings[0]

    def test_check_single_entry_groups_pass(self, tmp_path):
        ledger = self.seed(tmp_path, [0.30])
        assert ledger.check() == []

    def bench_entry(self, fps):
        return {"preset": "default",
                "speedup": {"frames_per_second": fps},
                "backends": {}}

    def test_check_flags_bench_ratio_drop(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        for fps in (2.0, 2.1, 1.2):  # >20% below median 2.0
            ledger.record_bench(self.bench_entry(fps))
        findings = ledger.check()
        assert len(findings) == 1 and "fell" in findings[0]

    def test_check_ignores_bench_speedups(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        for fps in (2.0, 2.1, 5.0):  # faster is never drift
            ledger.record_bench(self.bench_entry(fps))
        assert ledger.check() == []


class TestPhaseAccumulator:
    def test_attributes_phases_to_current_run(self):
        bus = EventBus()
        accumulator = PhaseAccumulator()
        bus.subscribe(accumulator)
        bus.emit(RunStarted(benchmark="hop", mode="evr", frames=2))
        bus.emit(Span("geometry", "phase", 0.0, 0.1))
        bus.emit(Span("raster", "phase", 0.1, 0.5))
        bus.emit(Span("execute", "raster", 1.0, 1.5))  # not a phase
        bus.emit(Span("raster", "phase", 1.0, 1.6))
        bus.emit(RunStarted(benchmark="hop", mode="re", frames=2))
        bus.emit(Span("raster", "phase", 2.0, 11.0))
        evr = accumulator.for_cell("hop", "evr")
        assert evr["geometry"] == pytest.approx(0.1)
        assert evr["raster"] == pytest.approx(1.0)
        assert accumulator.for_cell("hop", "re")["raster"] == \
            pytest.approx(9.0)
        assert accumulator.for_cell("hop", "oracle") == {}

    def test_phases_before_any_run_are_dropped(self):
        accumulator = PhaseAccumulator()
        accumulator(Span("raster", "phase", 0.0, 1.0))
        assert accumulator.phases == {}


class TestFormatting:
    def test_entry_label_and_rows(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        ledger.record_run("h", make_metrics())
        ledger.record_bench({"preset": "default",
                             "speedup": {"frames_per_second": 2.0},
                             "backends": {}})
        entries = ledger.entries()
        assert entry_label(entries[0]) == "hop:evr"
        assert entry_label(entries[1]) == "bench:default"
        rows = format_ledger_rows(entries)
        assert len(rows) == 2
        assert "redundant tiles 0.3500" in rows[0]
        assert "frames/s x2.00" in rows[1]

    def test_diff_entries_reports_deltas(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        ledger.record_run("h", make_metrics(redundant=0.30))
        ledger.record_run("h", make_metrics(redundant=0.40))
        old, new = ledger.entries()
        lines = diff_entries(old, new)
        assert any("redundant_tile_rate" in line and "0.3" in line
                   for line in lines)

    def test_diff_identical_entries(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger"))
        ledger.record_run("h", make_metrics())
        ledger.record_run("h", make_metrics())
        old, new = ledger.entries()
        assert diff_entries(old, new) == ["  (no numeric change)"]


class TestLedgerCli:
    SMALL = ["--frames", "2", "--width", "64", "--height", "48"]

    def ledger_dir(self, tmp_path):
        return str(tmp_path / "cli_ledger")

    def run_once(self, tmp_path):
        assert main(["run", "hop", "--modes", "evr", "--ledger",
                     self.ledger_dir(tmp_path)] + self.SMALL) == 0

    def test_run_appends_and_list_shows(self, tmp_path, capsys):
        self.run_once(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list", "--ledger",
                     self.ledger_dir(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "hop:evr" in out

    def test_show_dumps_json(self, tmp_path, capsys):
        self.run_once(tmp_path)
        capsys.readouterr()
        assert main(["ledger", "show", "--ledger",
                     self.ledger_dir(tmp_path)]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["benchmark"] == "hop" and entry["kind"] == "run"
        assert entry["source"] == "run"

    def test_check_gates_drift_through_cli(self, tmp_path, capsys):
        directory = self.ledger_dir(tmp_path)
        ledger = RunLedger(directory)
        for rate in (0.30, 0.31, 0.30):
            ledger.record_run("h", make_metrics(redundant=rate))
        assert main(["ledger", "check", "--ledger", directory]) == 0
        ledger.record_run("h", make_metrics(redundant=0.60))
        assert main(["ledger", "check", "--ledger", directory]) == 1
        assert "DRIFT" in capsys.readouterr().err

    def test_gc_through_cli(self, tmp_path, capsys):
        directory = self.ledger_dir(tmp_path)
        ledger = RunLedger(directory)
        for rate in (0.30, 0.31, 0.32):
            ledger.record_run("h", make_metrics(redundant=rate))
        assert main(["ledger", "gc", "--keep", "1",
                     "--ledger", directory]) == 0
        assert len(ledger.entries()) == 1

    def test_disabled_ledger_errors_cleanly(self, capsys):
        assert main(["ledger", "list", "--ledger", "off"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_ledger_off_disables_run_recording(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "unused"))
        assert main(["run", "hop", "--modes", "evr", "--ledger", "off"]
                    + self.SMALL) == 0
        assert not os.path.exists(str(tmp_path / "unused"))

    def test_bench_history_empty(self, tmp_path, capsys):
        assert main(["bench", "--history", "--preset", "default",
                     "--ledger", self.ledger_dir(tmp_path)]) == 0
        assert "no bench history" in capsys.readouterr().out

    def test_bench_history_prints_trajectory(self, tmp_path, capsys):
        directory = self.ledger_dir(tmp_path)
        ledger = RunLedger(directory)
        for fps in (2.0, 2.2):
            ledger.record_bench({"preset": "default",
                                 "speedup": {"frames_per_second": fps},
                                 "backends": {}})
        assert main(["bench", "--history", "--preset", "default",
                     "--ledger", directory]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "frames_per_second x2.00" in out
        assert "frames_per_second x2.20" in out

    def test_figure_records_cells(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        directory = self.ledger_dir(tmp_path)
        assert main(["figure", "fig9", "--benchmarks", "hop",
                     "--ledger", directory] + self.SMALL) == 0
        entries = RunLedger(directory).entries()
        assert {entry["mode"] for entry in entries} == \
            {"re", "evr", "oracle"}
        assert all(entry["source"] == "figure" for entry in entries)
