"""``repro.bench.perf --check`` judges a fresh run against the baseline
it reads, and never writes over that baseline."""

import json

import pytest

from repro.bench import perf


def _suite(speedup):
    return {"scenarios": {"logp_pingpong": {
        "events": 1, "events_per_sec": 1, "wall_s": 1.0, "peak_heap_bytes": 1024,
        "speedup_vs_reference": speedup}}}


@pytest.fixture
def fast_suite(monkeypatch):
    calls = []

    def run_suite(reference=False, quick=False, repeat=1):
        calls.append(reference)
        return _suite(1.0)

    monkeypatch.setattr(perf, "run_suite", run_suite)
    return calls


def test_check_fails_against_a_faster_baseline_and_leaves_it_alone(tmp_path, fast_suite):
    base = tmp_path / "BENCH_PERF.json"
    base.write_text(json.dumps(_suite(2.0)))
    before = base.read_bytes()
    out = tmp_path / "run.json"
    assert perf.main(["--check", "--baseline", str(base), "--out", str(out)]) == 1
    assert base.read_bytes() == before
    assert json.loads(out.read_text()) == _suite(1.0)
    assert fast_suite == [True]


def test_check_passes_against_a_baseline_within_tolerance(tmp_path, fast_suite):
    base = tmp_path / "BENCH_PERF.json"
    base.write_text(json.dumps(_suite(1.1)))
    assert perf.main(["--check", "--baseline", str(base),
                      "--out", str(tmp_path / "run.json")]) == 0


def test_check_refuses_to_write_over_its_baseline(tmp_path, fast_suite, monkeypatch):
    base = tmp_path / "BENCH_PERF.json"
    base.write_text(json.dumps(_suite(2.0)))
    before = base.read_bytes()
    monkeypatch.chdir(tmp_path)
    # the defaults name the same file for both
    with pytest.raises(SystemExit) as exc:
        perf.main(["--check"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        perf.main(["--check", "--baseline", str(base), "--out", "./BENCH_PERF.json"])
    assert base.read_bytes() == before
    assert fast_suite == []
