"""The benchmark's per-layer tracer still finds every name it wraps."""

from __future__ import annotations

import sys
from pathlib import Path

import tracemoments
import tracemoments.cli
from tracemoments.weights import preset_moments

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_installs_on_the_package_and_restores_it():
    # the traced benchmark run wraps names such as weight_of_exponents,
    # signature_census, census_by_seed, census_double and trim_route by
    # attribute, so a renamed or removed one breaks it
    modules = [tracemoments.cli, tracemoments.closedform, tracemoments.enumeration,
               tracemoments.graphs, tracemoments.montecarlo, tracemoments.verify,
               tracemoments.weights]
    before = [dict(vars(module)) for module in modules]
    tracer = Tracer()
    tracer.install(tracemoments)
    try:
        tracemoments.enumeration.clear_caches()
        assert tracemoments.verify.run_suite("mean-coeffs", 2)["failures"] == []
        moments = preset_moments("gaussian", 4)
        tracemoments.enumeration.exact_trace_moment(2, 2, 3, moments)
        assert tracemoments.verify.run_suite("ring-census", 2)["failures"] == []
        assert tracemoments.verify.run_suite("double-census", 2)["failures"] == []
        tracemoments.enumeration.census_double(2, 2, 3)
        metrics = tracer.metrics()
    finally:
        tracer.restore()
    assert tracer.calls["enumeration.inner_weight_sum_affine"] == 3
    assert tracer.calls["verify.run_suite"] == 3
    assert tracer.calls["enumeration.census_double"] == 3  # b = 1, 2 at (1, 1), then (2, 2, 3)
    assert tracer.calls["closedform.A_coeff"] == 3
    assert metrics["weights.weight_of_exponents.calls"][0] > 0
    assert metrics["enumeration.signature_census.calls"][0] > 0
    assert metrics["graphs.classify_leaf_free_route.calls"][0] > 0
    for module, names in zip(modules, before):
        now = vars(module)
        assert now.keys() == names.keys(), module.__name__
        assert all(now[name] is value for name, value in names.items()), module.__name__
