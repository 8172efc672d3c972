"""The CI benchmark gate must skip cleanly on unusable snapshots and
exit nonzero only on an actual regression."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
cr = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", cr)
_spec.loader.exec_module(cr)


class TestHeadlineOf:
    @pytest.mark.parametrize(
        "snapshot",
        [
            {},  # key missing
            {"headline_seconds": None},
            {"headline_seconds": "fast"},
            {"headline_seconds": True},  # bool is not a duration
            {"headline_seconds": 0},
            {"headline_seconds": -1.5},
            [1, 2, 3],  # not even an object
            "just a string",
            None,
        ],
    )
    def test_unusable_snapshots_are_none(self, snapshot):
        assert cr.headline_of(snapshot) is None

    def test_numeric_values_coerce(self):
        assert cr.headline_of({"headline_seconds": 2}) == 2.0
        assert cr.headline_of({"headline_seconds": 0.25}) == 0.25


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Run main() against a temp repo root with a stubbed baseline."""
    monkeypatch.setattr(cr, "REPO_ROOT", tmp_path)
    state = {"baseline": None}
    monkeypatch.setattr(cr, "load_baseline", lambda name, ref: state["baseline"])

    def run(current, baseline, *extra):
        state["baseline"] = baseline
        path = tmp_path / "BENCH_x.json"
        if current is not None:
            text = current if isinstance(current, str) else json.dumps(current)
            path.write_text(text)
        elif path.exists():
            path.unlink()
        return cr.main(["BENCH_x.json", *extra])

    return run


class TestMainExitCodes:
    def test_within_factor_ok(self, gate, capsys):
        assert gate({"headline_seconds": 1.1}, {"headline_seconds": 1.0}) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_fails(self, gate, capsys):
        assert gate({"headline_seconds": 10.0}, {"headline_seconds": 1.0}) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_key_skips(self, gate, capsys):
        assert gate({"headline_seconds": 1.0}, {"other": 1}) == 0
        assert "no usable headline_seconds; skipping" in capsys.readouterr().out

    def test_non_dict_baseline_skips(self, gate, capsys):
        assert gate({"headline_seconds": 1.0}, [1, 2, 3]) == 0
        assert "skipping" in capsys.readouterr().out

    def test_no_baseline_skips(self, gate, capsys):
        assert gate({"headline_seconds": 1.0}, None) == 0
        assert "no committed baseline" in capsys.readouterr().out

    def test_malformed_current_skips(self, gate, capsys):
        assert gate("{not json", {"headline_seconds": 1.0}) == 0
        assert "not valid JSON" in capsys.readouterr().out

    def test_unusable_current_value_skips(self, gate, capsys):
        assert gate({"headline_seconds": "so fast"}, {"headline_seconds": 1.0}) == 0
        assert "current snapshot has no usable" in capsys.readouterr().out

    def test_missing_current_file_is_usage_error(self, gate, capsys):
        assert gate(None, {"headline_seconds": 1.0}) == 2
        assert "did the benchmark run" in capsys.readouterr().err

    def test_qps_drop_fails(self, gate, capsys):
        current = {
            "headline_seconds": 1.0,
            "parallel": {"parallel_qps": 20.0},
        }
        baseline = {
            "headline_seconds": 1.0,
            "parallel": {"parallel_qps": 100.0},
        }
        assert gate(current, baseline) == 1
        out = capsys.readouterr().out
        assert "parallel.qps" in out and "REGRESSION" in out

    def test_qps_within_floor_ok(self, gate, capsys):
        current = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 90.0}}
        baseline = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 100.0}}
        assert gate(current, baseline) == 0
        assert "parallel.qps" in capsys.readouterr().out

    def test_qps_improvement_ok(self, gate, capsys):
        # qps regresses downward; a 10x gain must never trip the gate
        current = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 1000.0}}
        baseline = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 100.0}}
        assert gate(current, baseline) == 0
        assert "OK" in capsys.readouterr().out

    def test_sharded_block_gated_per_worker_count(self, gate, capsys):
        sharded = lambda w4_qps: {
            "single_process_qps": 100.0,
            "workers": [
                {"workers": 1, "qps": 90.0},
                {"workers": 4, "qps": w4_qps},
            ],
        }
        current = {"headline_seconds": 1.0, "sharded": sharded(50.0)}
        baseline = {"headline_seconds": 1.0, "sharded": sharded(300.0)}
        assert gate(current, baseline) == 1
        out = capsys.readouterr().out
        assert "sharded.w4.qps" in out and "REGRESSION" in out
        assert out.count("OK") >= 3  # headline, w1, single_process all fine

    def test_baseline_without_block_skips_with_message(self, gate, capsys):
        current = {
            "headline_seconds": 1.0,
            "sharded": {"single_process_qps": 100.0,
                        "workers": [{"workers": 2, "qps": 150.0}]},
        }
        baseline = {"headline_seconds": 1.0}  # written before sharding existed
        assert gate(current, baseline) == 0
        out = capsys.readouterr().out
        assert "sharded.w2.qps: baseline has no such figure; skipping" in out

    def test_custom_qps_factor(self, gate, capsys):
        current = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 60.0}}
        baseline = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 100.0}}
        assert gate(current, baseline, "--qps-factor", "1.25") == 1
        assert gate(current, baseline, "--qps-factor", "2.0") == 0

    def test_unusable_qps_values_ignored(self, gate, capsys):
        current = {
            "headline_seconds": 1.0,
            "parallel": {"parallel_qps": "fast"},
            "sharded": {"workers": [{"workers": True, "qps": 5.0},
                                    {"workers": 2, "qps": -1.0}, "junk"]},
        }
        baseline = {"headline_seconds": 1.0, "parallel": {"parallel_qps": 100.0}}
        assert gate(current, baseline) == 0
        assert "qps" not in capsys.readouterr().out

    def test_skip_and_regression_mix_still_fails(self, tmp_path, monkeypatch, capsys):
        # one snapshot skips (keyless baseline), the other regresses:
        # the skip must not mask the failure exit code
        monkeypatch.setattr(cr, "REPO_ROOT", tmp_path)
        baselines = {
            "BENCH_skip.json": {},
            "BENCH_slow.json": {"headline_seconds": 1.0},
        }
        monkeypatch.setattr(cr, "load_baseline", lambda name, ref: baselines[name])
        (tmp_path / "BENCH_skip.json").write_text(json.dumps({"headline_seconds": 1.0}))
        (tmp_path / "BENCH_slow.json").write_text(json.dumps({"headline_seconds": 9.0}))
        assert cr.main(["BENCH_skip.json", "BENCH_slow.json"]) == 1
        out = capsys.readouterr().out
        assert "skipping" in out and "REGRESSION" in out
