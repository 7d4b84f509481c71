"""The named verification suites themselves."""

from __future__ import annotations

import pytest

from tracemoments import closedform
from tracemoments.verify import SUITES, run_suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


@pytest.mark.parametrize(
    "name,max_l",
    [
        ("taylor", 10),
        ("bs-mean", 8),
        ("bs-cov", 6),
        ("mean-coeffs", 3),
        ("tree-counts", 3),
        ("vanishing", 3),
        ("sprouting", 2),
        ("ring-census", 3),
        ("double-census", 3),
        ("cov-coeffs", 3),
    ],
)
def test_suites_pass_at_reduced_ranges(name, max_l):
    report = run_suite(name, max_l)
    assert report["suite"] == name
    assert report["cases"] > 0
    assert report["failures"] == []


def test_cov_coefficient_law_full_range():
    # Theorem 2's coefficients against the double-route enumeration
    report = run_suite("cov-coeffs", 4)
    assert report["failures"] == []
    assert report["cases"] == sum(
        l1 + l2 for l1 in range(1, 4) for l2 in range(1, 5 - l1)
    )


def test_sprouting_suite_case_counts():
    # perfbench/expected.json pins the report at max_l 2, so the ranges stay
    report = run_suite("sprouting")
    assert report == {"suite": "sprouting", "cases": 60, "failures": []}
    assert run_suite("sprouting", 2)["cases"] == 18


def test_allow_large_leaves_the_sprouting_cases_alone():
    # the suite has no cost guard to lift, so max_l alone sizes it
    for max_l in (1, 2, 3, None):
        assert run_suite("sprouting", max_l, allow_large=True) == run_suite(
            "sprouting", max_l
        )


def test_bs_cov_reports_a_corrupted_theorem2_entry(monkeypatch):
    true_rows = closedform.C_coeffs

    def corrupted(l1, l2):
        row = list(true_rows(l1, l2))
        if (l1, l2) == (2, 3):
            row[2] += 1
        return tuple(row)

    monkeypatch.setattr(closedform, "C_coeffs", corrupted)
    report = run_suite("bs-cov", 3)
    assert report["cases"] == sum(l1 + l2 for l1 in range(1, 4) for l2 in range(1, 4))
    assert report["failures"] == ["covariance coefficient mismatch at l1=2, l2=3, b=2"]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_max_l_below_one_is_rejected(name):
    for max_l in (0, -3):
        with pytest.raises(ValueError, match="max_l"):
            run_suite(name, max_l)


def test_every_suite_has_a_default():
    for name in SUITES:
        runner, default_max = SUITES[name]
        assert default_max >= 2
