"""Tail-percentile rule and ``compare.py`` verdicts."""

import json

import pytest

import compare
from stats import quartiles, tail


def test_tail_is_p75_at_forty_samples():
    values = [float(v) for v in range(1, 41)]
    pct, value = tail(values)
    assert pct == 75.0
    assert value == 30.0
    assert sum(v > value for v in values) == 10


def test_tail_needs_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail([float(v) for v in range(11)])[0] == 50.0
    assert tail([]) == (50.0, None)


def test_quartiles_of_one_value():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "b, expected",
    [
        ([v * 1.03 for v in STEADY], "same"),
        ([v * 1.20 for v in STEADY], "worse"),
        ([v * 0.80 for v in STEADY], "better"),
        ([0.7, 1.0, 1.4, 0.8, 1.3, 1.1], "unresolved"),
        ([0.5, 0.52, 0.9, 0.55, 0.51, 0.53], "better"),
    ],
)
def test_verdict_lower_is_better(b, expected):
    assert compare.verdict(STEADY, b, 0.10, lower_better=True) == expected


def test_verdict_higher_is_better_flips_direction():
    assert compare.verdict(STEADY, [v * 0.8 for v in STEADY], 0.1, False) == "worse"


def _write(tmp_path, name, runs):
    for i, (latency, failed_frac, bits) in enumerate(runs):
        d = tmp_path / name / f"run{i}"
        d.mkdir(parents=True)
        report = {"workloads": {"w": {
            "metrics": {"setup_s": 1.0, "latency_p50_s": latency,
                        "latency_tail_s": latency, "peak_rss_mb": 100.0},
            "failed_frac": failed_frac,
            "precision_bits": bits,
        }}}
        (d / "results.json").write_text(json.dumps(report))
    return tmp_path / name


def test_main_exit_codes(tmp_path):
    base = _write(tmp_path, "a", [(1.0, 0.0, 8.0), (1.01, 0.0, 8.0), (0.99, 0.0, 8.0)])
    same = _write(tmp_path, "b", [(1.0, 0.0, 8.0), (1.02, 0.0, 8.0), (0.98, 0.0, 8.0)])
    slow = _write(tmp_path, "c", [(1.3, 0.0, 8.0), (1.31, 0.0, 8.0), (1.29, 0.0, 8.0)])
    failing = _write(tmp_path, "d", [(1.0, 0.25, 8.0), (1.0, 0.0, 8.0), (1.0, 0.0, 8.0)])
    blurry = _write(tmp_path, "e", [(1.0, 0.0, 7.5), (1.0, 0.0, 7.6), (1.0, 0.0, 7.7)])
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
    assert compare.main([str(base), str(failing)]) == 1
    assert compare.main([str(base), str(blurry)]) == 1
