"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs every workload at a tiny size, with and without tracing, and checks the
printed result line against BENCHMARK.json; checks that a corrupted pinned
expectation is counted as a failed request instead of raising.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _printed_result(workload: str, trace: bool, expected: dict | None = None) -> dict:
    report, result = run.bench(workload, 11, 0.5, trace, tiny=True,
                               expected=expected, setup_repeats=1)
    out = io.StringIO()
    with redirect_stdout(out):
        run.emit(report, result)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-2])["seed"] == 11
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _printed_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_expectation_counts_as_a_failed_request():
    expected = copy.deepcopy(run.load_expected())
    first = workloads.requests("oracle", tiny=True)[0]
    expected["outputs"][first.name] = expected["outputs"][first.name].replace('"value"', '"v"')
    expected["exact"]["gaussian 4 8"]["means"]["1"] = "5/1"
    result = _printed_result("oracle", False, expected)
    assert not result["correct"]
    # the exact output differs, and the simulate reference no longer matches
    assert result["failed"] == 2
    assert result["attempted"] >= 3


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)
    values = [float(i) for i in range(1, 74)]
    q, value = run.tail(values)
    assert (q, sum(v > value for v in values)) == (86, 10)


def test_midmean_cuts_a_quarter_from_each_end():
    assert run.midmean([5.0]) == 5.0
    assert run.midmean([1.0, 3.0]) == 2.0
    assert run.midmean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == 3.5


def test_probe_scales_by_the_timings_around_an_interval():
    probe = run.SpeedProbe(lambda: None, 0.001)
    probe.starts = [0.05 * i for i in range(41)]
    probe.times = [0.002] * 20 + [0.004] * 21  # half speed from t = 1 s on
    assert probe.scale(0.5, 0.6) == pytest.approx(0.05)
    assert probe.scale(1.5, 1.6) == pytest.approx(0.025)
    # too few timings close by: the nearest ones are taken, 8 at least
    probe.starts, probe.times = [0.0, 0.5, 9.0, 10.0], [0.002, 0.002, 0.004, 0.004]
    assert probe.scale(0.6, 0.7) == pytest.approx(0.1 * 0.001 / 0.003)
