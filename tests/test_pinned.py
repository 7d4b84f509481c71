"""The exact outputs pinned in perfbench/expected.json, replayed through the CLI.

The benchmark compares every exact request with these bytes; replaying them
here shows a changed output before a benchmark run does, on every supported
interpreter.  The file is read, never written.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from tracemoments import cli, enumeration
from tracemoments.weights import preset_moments

PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


@pytest.mark.parametrize("line", sorted(PINNED["outputs"]))
def test_pinned_output_is_byte_identical(capsys, line):
    # each request starts cold, as in the benchmark
    enumeration.clear_caches()
    status = cli.main([*line.split(), "--no-timestamp"])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out == PINNED["outputs"][line]


@pytest.mark.parametrize("shape", sorted(PINNED["exact"]))
def test_pinned_reference_moments_are_the_oracle(shape):
    dist, p, n = shape.split()
    p, n = int(p), int(n)
    moments = preset_moments(dist, 8)
    pinned = PINNED["exact"][shape]
    for l, value in pinned["means"].items():
        got = enumeration.exact_trace_moment(int(l), p, n, moments).value
        assert got == Fraction(value), (shape, l)
    for pair, value in pinned["covs"].items():
        l1, l2 = map(int, pair.split(","))
        got = enumeration.exact_trace_covariance(l1, l2, p, n, moments)
        assert got == Fraction(value), (shape, pair)
