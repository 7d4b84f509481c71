"""Moment sequences, affine fourth-moment values, and graph weights."""

from __future__ import annotations

import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    canonical_patterns,
    classified_covariance_weight,
    classified_weight,
    iter_route_pairs,
    split_route_pairs,
    surjective_routes,
)
from tracemoments.graphs import (
    balanced_leaf_labels,
    build_double_graph,
    build_graph,
    classify_leaf_free_double,
    classify_leaf_free_route,
    compact_labels,
    remove_leaf_from_route,
    reversed_edge_counts,
    trim_double,
    trim_route,
    zip_routes,
)
from tracemoments.weights import (
    AffineAlpha,
    MomentSequence,
    covariance_weight,
    preset_alpha,
    preset_moments,
    weight,
    weight_of_exponents,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence([1, 0])
    with pytest.raises(ValueError):
        MomentSequence([1, 1, 1])
    with pytest.raises(ValueError):
        MomentSequence([2, 0, 1])
    m = MomentSequence([1, 0, 1, 0, 3])
    assert m.order == 4 and m.fourth == 3
    with pytest.raises(ValueError):
        m[5]
    with pytest.raises(ValueError, match="^sequence does not reach the fourth moment$"):
        MomentSequence([1, 0, 1]).fourth


def test_moment_sequence_warnings_point_at_the_caller():
    with pytest.warns(UserWarning) as caught:
        MomentSequence([1, 0, 1, 0, 0])  # below 1
        MomentSequence([1, 0, 1, 2, 2])  # not positive semidefinite
    assert [w.filename for w in caught] == [__file__, __file__]


def test_moment_sequence_warns_on_impossible_fourth_moment():
    with pytest.warns(UserWarning, match="fourth moment 1/2 is below 1"):
        MomentSequence([1, 0, 1, 0, Fraction(1, 2)])
    # the warning cannot be switched off: the sequence takes no options
    with pytest.raises(TypeError):
        MomentSequence([1, 0, 1, 0, 0], warn_suspicious=False)


def two_point_mixture_moments(components, order):
    """m_0..m_order of a mixture of two-point laws on {a, -1/a}.

    P(a) = 1/(1 + a^2) centres each law with unit variance, so every mixture
    is a real distribution with exact rational moments, on at most
    2 * len(components) atoms.
    """
    total = sum(w for _, w in components)
    return [
        sum(Fraction(w, total) * (a**k + a * a * (-1 / a) ** k) / (1 + a * a)
            for a, w in components)
        for k in range(order + 1)
    ]


two_point_components = st.lists(
    st.tuples(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=2,
)


def test_moment_sequence_warns_on_an_infeasible_hankel_matrix():
    # [1, 0, 1, 2, 2] needs m_4 >= 1 + m_3^2 = 5; [1, 0, 1, 0, 1, 0, 0] needs
    # m_6 >= 1 once m_4 = 1; m_4 = 1 puts all mass on +-1, so m_5 = m_3
    for moments in ([1, 0, 1, 2, 2], [1, 0, 1, 0, 1, 0, 0], [1, 0, 1, 0, 1, 1, 5]):
        with pytest.warns(UserWarning, match="not positive semidefinite") as caught:
            MomentSequence(moments)
        assert len(caught) == 1, moments
    # a fourth moment below 1 gives its own warning, once
    with pytest.warns(UserWarning) as caught:
        MomentSequence([1, 0, 1, 0, 0, 0, 0])
    assert [str(w.message) for w in caught] == [
        "fourth moment 0 is below 1, impossible for a real unit-variance distribution"
    ]


def test_feasible_moment_sequences_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("gaussian", "rademacher", "uniform"):
            for order in range(4, 13):
                preset_moments(name, order)
        MomentSequence.parse("1,0,1,0,3,0,15,0,105")
        MomentSequence([1, 0, 1])
        MomentSequence([1, 0, 1, 2, 5])  # m_4 = 1 + m_3^2, the bound itself


@given(two_point_components, st.integers(min_value=4, max_value=12))
def test_moments_of_a_real_distribution_do_not_warn(components, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MomentSequence(two_point_mixture_moments(components, order))


@given(two_point_components, st.integers(min_value=4, max_value=6),
       st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000))
def test_lowering_the_top_moment_of_a_few_atom_law_warns(components, half, cut):
    # with at most `half` atoms the Hankel matrix is singular, and a null
    # vector (the atoms' monic polynomial times a power of x) ends in 1, so
    # any cut to m_(2 half) makes it indefinite
    moments = two_point_mixture_moments(components, 2 * half)
    moments[-1] -= cut
    with pytest.warns(UserWarning, match="not positive semidefinite"):
        MomentSequence(moments)


def test_presets():
    assert preset_moments("gaussian", 6).moments == (1, 0, 1, 0, 3, 0, 15)
    assert preset_moments("rademacher", 4).moments == (1, 0, 1, 0, 1)
    assert preset_moments("uniform", 4).fourth == Fraction(9, 5)
    assert preset_moments("uniform-scaled", 4).fourth == Fraction(9, 5)
    assert preset_alpha("gaussian") == 3
    assert preset_alpha("rademacher") == 1
    with pytest.raises(ValueError):
        preset_moments("cauchy", 4)
    with pytest.raises(ValueError):
        preset_moments("gaussian", 2)


def test_moment_parse():
    assert MomentSequence.parse("1,0,1,0,3").fourth == 3
    assert MomentSequence.parse("1,0,1,0,9/5").fourth == Fraction(9, 5)


@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_affine_alpha_algebra(a0, a1, b0, b1, s, alpha):
    x = AffineAlpha(a0, a1)
    y = AffineAlpha(b0, b1)
    assert (x + y).evaluate(alpha) == x.evaluate(alpha) + y.evaluate(alpha)
    assert (x - y).evaluate(alpha) == x.evaluate(alpha) - y.evaluate(alpha)
    assert x.scale(s).evaluate(alpha) == s * x.evaluate(alpha)
    assert AffineAlpha.constant(s).evaluate(alpha) == s


def test_weight_examples():
    gaussian = preset_moments("gaussian", 8)
    uniform = preset_moments("uniform", 8)
    assert weight(build_graph((1, 2)), gaussian) == 1
    assert weight(build_graph((1, 2)), uniform) == 1
    assert weight(build_graph((1, 2, 1, 2)), gaussian) == 3
    assert weight(build_graph((1, 2, 1, 2)), uniform) == Fraction(9, 5)
    assert weight(build_graph((2, 4, 4, 3, 1, 3, 2, 4)), gaussian) == 0


def test_weight_requires_coverage():
    short = MomentSequence([1, 0, 1])
    with pytest.raises(ValueError):
        weight(build_graph((1, 2, 1, 2)), short)


def test_covariance_weight_examples():
    gaussian = preset_moments("gaussian", 16)
    assert covariance_weight(build_double_graph((1, 2), (1, 2)), gaussian) == 2
    assert covariance_weight(build_double_graph((1,), (2,)), gaussian) == 0
    assert covariance_weight(
        build_double_graph((1, 2, 4, 3), (1, 2, 4, 3)), gaussian
    ) == 1
    rademacher = preset_moments("rademacher", 8)
    assert covariance_weight(build_double_graph((1, 2), (1, 2)), rademacher) == 0


def test_weight_invariant_under_leaf_removal():
    # trimming a balanced pair always removes a squared-entry factor of one
    gaussian = preset_moments("gaussian", 8)
    uniform = preset_moments("uniform", 8)
    for length in range(3, 9):
        for route in canonical_patterns(length):
            w_g = weight_of_exponents(reversed_edge_counts(route).values(), gaussian)
            w_u = weight_of_exponents(reversed_edge_counts(route).values(), uniform)
            for leaf in balanced_leaf_labels(route):
                trimmed = remove_leaf_from_route(route, leaf)
                counts = reversed_edge_counts(trimmed).values()
                assert weight_of_exponents(counts, gaussian) == w_g, (route, leaf)
                assert weight_of_exponents(counts, uniform) == w_u, (route, leaf)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_weight_classification_law_full_space(l):
    # on exactly l vertices with 2l edges the weight is alpha, 1, or 0
    # according to the seed class; checked at alpha in {1, 3}
    presets = [(preset_moments("gaussian", 2 * l + 2), Fraction(3)),
               (preset_moments("rademacher", 2 * l + 2), Fraction(1))]
    for route in surjective_routes(2 * l, l):
        counts = tuple(reversed_edge_counts(route).values())
        seed_class = classify_leaf_free_route(trim_route(route))
        for moments, alpha in presets:
            assert weight_of_exponents(counts, moments) == classified_weight(
                seed_class, alpha
            ), (route, alpha)


def test_weight_classification_law_l5_prefix_blacks():
    # at l = 5, every labelled route pair (i, k) on exactly 5 vertices with
    # black labels [b], for b = 1..5: i covers [b] exactly, k covers the
    # white labels [5]\[b], with no reduction by relabelling or rotation

    # every route is zipped, trimmed, classified and checked; both weights
    # are computed once per distinct (sorted exponents, seed class)
    presets = [(preset_moments("gaussian", 12), Fraction(3)),
               (preset_moments("rademacher", 12), Fraction(1))]
    agree: dict = {}
    for b in range(1, 6):
        for i, k in iter_route_pairs(5, 5, b):
            route = zip_routes(i, k)
            counts = tuple(sorted(reversed_edge_counts(route).values()))
            key = (counts, classify_leaf_free_route(trim_route(route)))
            verdict = agree.get(key)
            if verdict is None:
                verdict = agree[key] = all(
                    weight_of_exponents(counts, moments)
                    == classified_weight(key[1], alpha)
                    for moments, alpha in presets
                )
            assert verdict, (route, key)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_tree_law(l):
    # on l+1 vertices with 2l edges: weight one exactly on balanced trees
    gaussian = preset_moments("gaussian", 2 * l + 2)
    for route in canonical_patterns(2 * l, blocks=l + 1):
        w = weight_of_exponents(reversed_edge_counts(route).values(), gaussian)
        seed = trim_route(route)
        is_tree = len(seed) == 2 and len(set(seed)) == 2
        assert w in (0, 1), route
        assert (w == 1) == is_tree, route


def test_tree_law_l5_patterns():
    gaussian = preset_moments("gaussian", 12)
    for route in canonical_patterns(10, blocks=6):
        counts = reversed_edge_counts(route)
        w = weight_of_exponents(counts.values(), gaussian)
        seed = trim_route(route)
        is_tree = len(seed) == 2 and len(set(seed)) == 2
        assert (w == 1) == is_tree, route
        assert w in (0, 1), route


def test_covariance_classification_law():
    # double walks on exactly l1+l2 vertices follow the covariance weight table
    presets = [(preset_moments("gaussian", 16), Fraction(3)),
               (preset_moments("rademacher", 16), Fraction(1))]
    for l1, l2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
        r = l1 + l2
        for b in range(1, r + 1):
            for i, k, j, m in split_route_pairs(l1, l2, r, b):
                first, second = zip_routes(i, k), zip_routes(j, m)
                double = build_double_graph(first, second)
                seed_class = classify_leaf_free_double(*trim_double(first, second))
                for moments, alpha in presets:
                    assert covariance_weight(double, moments) == (
                        classified_covariance_weight(seed_class, alpha)
                    ), (first, second, alpha)


def test_covariance_weight_vanishes_beyond_vertex_budget():
    # quadruples visiting more than l1+l2 vertices contribute nothing
    gaussian = preset_moments("gaussian", 16)
    for l1, l2 in [(1, 1), (1, 2)]:
        r = l1 + l2 + 1
        for b in range(1, min(l1 + l2, r) + 1):
            for i, k, j, m in split_route_pairs(l1, l2, r, b):
                double = build_double_graph(zip_routes(i, k), zip_routes(j, m))
                assert covariance_weight(double, gaussian) == 0
