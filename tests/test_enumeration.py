"""Oracle enumeration: route pairs, inner sums, exact moments, censuses."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    double_bucket,
    iter_route_pairs,
    reference_affine,
    reference_census_by_seed,
    reference_census_double,
    reference_census_sprouting,
    reference_inner_sum,
    reference_orbit_census_double,
    reference_signature_census,
    reference_trace_covariance,
    rotation_orbits,
    split_route_pairs,
    surjective_routes,
    white_ordered_routes,
)
from tracemoments import enumeration
from tracemoments.closedform import (
    A_coeff,
    B_coeff,
    count_colored_trees,
    count_double_ring_sprouts,
    count_ring_sprouts,
    count_sprouting,
    theorem1_mean,
)
from tracemoments.enumeration import (
    CostGuardError,
    _census_block,
    _label_strings,
    census_by_seed,
    census_double,
    census_sprouting,
    clear_caches,
    covariance_inner_sum,
    covariance_inner_sum_affine,
    exact_trace_covariance,
    exact_trace_moment,
    inner_weight_sum,
    inner_weight_sum_affine,
    signature_census,
)
from tracemoments.graphs import (
    balanced_leaf_labels,
    build_double_graph,
    classify_leaf_free_route,
    compact_labels,
    double_two_d_ring,
    trim_double,
    trim_route,
    two_d_ring,
    zip_routes,
)
from tracemoments.weights import (
    AffineAlpha,
    MomentSequence,
    covariance_weight,
    preset_alpha,
    preset_moments,
)

GAUSSIAN_8 = preset_moments("gaussian", 8)
# x = 2 w.p. 1/5, -1/2 w.p. 4/5: mean 0, variance 1, nonzero odd moments
SKEWED_8 = MomentSequence.parse("1,0,1,3/2,13/4,51/8,205/16,819/32,3277/64")


def test_iter_route_pairs_examples():
    assert list(iter_route_pairs(1, 2, 1)) == [((1,), (2,))]
    assert list(iter_route_pairs(1, 1, 1)) == [((1,), (1,))]
    pairs = set(iter_route_pairs(2, 2, 1))
    assert pairs == {((1, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 1), (2, 2))}


def test_iter_route_pairs_count():
    # surjections times covering tuples
    def surj(l, b):
        return sum(
            (-1) ** j * comb(b, j) * (b - j) ** l for j in range(b + 1)
        )

    def covering(l, r, b):
        need = r - b
        return sum(
            (-1) ** j * comb(need, j) * (r - j) ** l for j in range(need + 1)
        )

    for l in range(1, 5):
        for r in range(1, min(2 * l, 6) + 1):
            for b in range(1, min(l, r) + 1):
                assert len(list(iter_route_pairs(l, r, b))) == surj(l, b) * covering(
                    l, r, b
                )


def test_split_route_pairs_are_the_double_walks():
    # split after l1, the pairs of length l1+l2 are exactly the quadruples
    # whose black routes jointly cover [b] and whose routes jointly cover
    # [r]\\[b], in the same order as a direct nested enumeration
    for l1, l2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        for r in range(1, 2 * (l1 + l2) + 1):
            for b in range(1, min(l1 + l2, r) + 1):
                blacks, needed = set(range(1, b + 1)), set(range(b + 1, r + 1))
                expected = [
                    (i, k, j, m)
                    for i in product(range(1, b + 1), repeat=l1)
                    for j in product(range(1, b + 1), repeat=l2)
                    if set(i) | set(j) == blacks
                    for k in product(range(1, r + 1), repeat=l1)
                    for m in product(range(1, r + 1), repeat=l2)
                    if needed <= set(k) | set(m)
                ]
                assert list(split_route_pairs(l1, l2, r, b)) == expected, (l1, l2, r, b)


def test_iter_route_pairs_validation():
    with pytest.raises(ValueError):
        list(iter_route_pairs(2, 5, 1))  # r > 2l
    with pytest.raises(ValueError):
        list(iter_route_pairs(2, 2, 3))  # b > min(l, r)
    with pytest.raises(ValueError):
        list(iter_route_pairs(0, 1, 1))


def test_inner_weight_sum_examples():
    assert inner_weight_sum(2, 2, 1, GAUSSIAN_8) == 5  # alpha + 2
    assert inner_weight_sum(2, 2, 1, preset_moments("rademacher", 4)) == 3
    assert inner_weight_sum(2, 3, 1, GAUSSIAN_8) == 2
    assert inner_weight_sum(1, 2, 1, GAUSSIAN_8) == 1
    with pytest.raises(ValueError):
        inner_weight_sum(3, 3, 1, preset_moments("gaussian", 4))  # order too low


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_sum_identity_small(l):
    for b in range(1, l + 1):
        got = inner_weight_sum_affine(l, l, b)
        expected = AffineAlpha(
            A_coeff(l, b) - 3 * B_coeff(l, b), Fraction(B_coeff(l, b))
        )
        assert got == expected
        if b == l:
            assert got.evaluate(3) == l * factorial(l)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_tree_sum_small(l):
    for b in range(1, l + 1):
        got = inner_weight_sum_affine(l, l + 1, b)
        assert got == AffineAlpha.constant(count_colored_trees(l, b))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_vanishing_small(l):
    for b in range(1, l + 1):
        assert inner_weight_sum_affine(l, l + 2, b) == AffineAlpha()


def test_affine_reading_below_l_vertices():
    # one vertex of each colour: the walk crosses its edge four times
    assert inner_weight_sum_affine(2, 1, 1) == AffineAlpha(Fraction(0), Fraction(1))
    # (3, 2, 1) is m6 + 6 m4, which no affine form can hold
    assert enumeration._moment_polynomial((3,), 2, 1) == {(6,): 1, (4,): 6}
    with pytest.raises(ValueError, match=r"carries m6$"):
        inner_weight_sum_affine(3, 2, 1)


def test_covariance_affine_reading_rejects_higher_moments(monkeypatch):
    # a joint signature of one m6 edge, against first and second walks of m2 and m4
    census = Counter({((6,), (2,), (4,)): 1})
    monkeypatch.setattr(enumeration, "signature_census", lambda *key: census)
    with pytest.raises(ValueError, match=r"lengths=\(1, 1\), r=2, b=1 .* carries m6$"):
        covariance_inner_sum_affine(1, 1, 1)


def test_affine_readings_match_the_formal_sequence_reference():
    # every (l, r, b) of the mean-coeffs, tree-counts and vanishing suites and
    # every (l1, l2, b) of cov-coeffs, at their default max_l of 4
    for l in range(1, 5):
        for r in (l, l + 1, l + 2):
            for b in range(1, l + 1):
                if r <= 2 * l:
                    assert inner_weight_sum_affine(l, r, b) == reference_affine(
                        (l,), r, b
                    ), (l, r, b)
    for l1 in range(1, 4):
        for l2 in range(1, 5 - l1):
            for b in range(1, l1 + l2 + 1):
                got = covariance_inner_sum_affine(l1, l2, b)
                assert got == reference_affine((l1, l2), l1 + l2, b), (l1, l2, b)
                assert covariance_inner_sum(l1, l2, b, GAUSSIAN_8) == got.evaluate(3)


def test_inner_sums_match_the_per_signature_reference():
    presets = [preset_moments(name, 8) for name in ("gaussian", "rademacher", "uniform")]
    for total in range(1, 5):
        for lengths in [(total,)] + [(l1, total - l1) for l1 in range(1, total)]:
            for r in range(1, 2 * total + 1):
                for b in range(1, min(total, r) + 1):
                    for moments in presets + [SKEWED_8]:
                        if len(lengths) == 1:
                            got = inner_weight_sum(total, r, b, moments)
                        else:
                            got = enumeration._inner_sum(lengths, r, b, moments)
                        expected = reference_inner_sum(lengths, r, b, moments)
                        assert got == expected, (lengths, r, b, moments)


def test_exact_trace_moment_examples():
    for moments in (GAUSSIAN_8, preset_moments("uniform", 8)):
        for p, n in [(1, 1), (2, 3), (3, 4)]:
            assert exact_trace_moment(1, p, n, moments).value == p
    assert exact_trace_moment(2, 1, 1, GAUSSIAN_8).value == 3  # tr(S^2) = Y^4
    custom = MomentSequence([1, 0, 1, 0, Fraction(7, 2)])
    assert exact_trace_moment(2, 1, 1, custom).value == Fraction(7, 2)
    assert exact_trace_moment(2, 2, 3, GAUSSIAN_8).value == 4


def test_exact_trace_moment_breakdown_invariant():
    result = exact_trace_moment(3, 2, 4, preset_moments("gaussian", 6))
    total = sum(
        (t.multiplicity * t.inner_sum for t in result.terms), Fraction(0)
    ) / Fraction(4**3)
    assert total == result.value
    assert all(t.multiplicity > 0 for t in result.terms)


def test_exact_trace_moment_l2_closed_form():
    for moments in (GAUSSIAN_8, preset_moments("rademacher", 4),
                    MomentSequence([1, 0, 1, 0, Fraction(7, 3)])):
        alpha = moments.fourth
        for n in range(1, 5):
            for p in range(1, n + 1):
                expected = p + Fraction(p * (alpha + p - 2), n)
                assert exact_trace_moment(2, p, n, moments).value == expected


def test_exact_trace_covariance_examples():
    for moments in (preset_moments("gaussian", 8), preset_moments("uniform", 8)):
        alpha = moments.fourth
        for n in range(1, 5):
            for p in range(1, n + 1):
                assert exact_trace_covariance(1, 1, p, n, moments) == Fraction(
                    p * (alpha - 1), n
                )
    assert exact_trace_covariance(1, 1, 1, 1, preset_moments("rademacher", 4)) == 0
    # frozen regression value, hand-audited through the term breakdown
    assert exact_trace_covariance(
        1, 2, 2, 2, preset_moments("gaussian", 12)
    ) == 10


def test_exact_trace_covariance_no_support_beyond_vertex_budget():
    moments = preset_moments("gaussian", 12)
    for l1, l2 in [(1, 1), (1, 2)]:
        for r in range(l1 + l2 + 1, 2 * (l1 + l2) + 1):
            for b in range(1, min(l1 + l2, r) + 1):
                total = Fraction(0)
                for i, k, j, m in split_route_pairs(l1, l2, r, b):
                    double = build_double_graph(zip_routes(i, k), zip_routes(j, m))
                    total += covariance_weight(double, moments)
                assert total == 0, (l1, l2, r, b)


@pytest.mark.parametrize("l1,l2", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_covariance_census_matches_per_quadruple_reference(l1, l2):
    # the signature census weighs each (joint, first, second) exponent
    # signature once; the reference weighs every double graph on its own.
    # At 4 x 8 and 8 x 4 every (r, b) with r <= 2(l1+l2), b <= l1+l2 occurs.
    presets = [preset_moments(name, 8) for name in ("gaussian", "rademacher", "uniform")]
    for moments in presets + [SKEWED_8]:
        for p, n in [(4, 8), (8, 4)]:
            assert exact_trace_covariance(l1, l2, p, n, moments) == (
                reference_trace_covariance(l1, l2, p, n, moments)
            ), (l1, l2, p, n, moments)


def _brute_force_mean(l: int, p: int, n: int, moments) -> Fraction:
    # raw product-space sum with no canonical relabelling at all
    from itertools import product as iproduct

    total = Fraction(0)
    for i in iproduct(range(p), repeat=l):
        for k in iproduct(range(n), repeat=l):
            expo: dict = {}
            for t in range(l):
                expo[(i[t], k[t])] = expo.get((i[t], k[t]), 0) + 1
                nxt = i[(t + 1) % l]
                expo[(nxt, k[t])] = expo.get((nxt, k[t]), 0) + 1
            w = Fraction(1)
            for e in expo.values():
                w *= moments[e]
                if w == 0:
                    break
            total += w
    return total / Fraction(n**l)


def test_oracle_matches_raw_bruteforce():
    moments = preset_moments("gaussian", 6)
    for l, p, n in [(1, 3, 2), (2, 2, 3), (2, 4, 2), (3, 2, 4), (3, 4, 2), (3, 3, 3)]:
        cover = preset_moments("gaussian", max(4, 2 * l))
        assert exact_trace_moment(l, p, n, cover).value == _brute_force_mean(
            l, p, n, moments
        ), (l, p, n)


def test_transposition_identity_of_the_oracle():
    # tr(S_{p,n}^l) = (p/n)^l tr(S_{n,p}^l) pathwise, so expectations and
    # covariances must transform exactly
    for l in (1, 2, 3):
        moments = preset_moments("uniform", max(4, 2 * l))
        for p in range(1, 5):
            for n in range(1, 5):
                lhs = exact_trace_moment(l, p, n, moments).value
                rhs = Fraction(p, n) ** l * exact_trace_moment(l, n, p, moments).value
                assert lhs == rhs, (l, p, n)
    moments = preset_moments("gaussian", 8)
    for p in range(1, 5):
        for n in range(1, 5):
            lhs = exact_trace_covariance(1, 1, p, n, moments)
            rhs = Fraction(p, n) ** 2 * exact_trace_covariance(1, 1, n, p, moments)
            assert lhs == rhs, (p, n)


@settings(max_examples=150, deadline=None)
@given(
    dist=st.sampled_from(("gaussian", "rademacher", "uniform")),
    l=st.integers(1, 4), p=st.integers(1, 6), n=st.integers(1, 6),
)
def test_transposition_identity_of_the_oracle_property(dist, l, p, n):
    moments = preset_moments(dist, 8)
    lhs = exact_trace_moment(l, p, n, moments).value
    assert lhs == Fraction(p, n) ** l * exact_trace_moment(l, n, p, moments).value
    for l1, l2 in ((1, 1), (1, 2)):
        lhs = exact_trace_covariance(l1, l2, p, n, moments)
        rhs = Fraction(p, n) ** (l1 + l2) * exact_trace_covariance(l1, l2, n, p, moments)
        assert lhs == rhs, (l1, l2)


@settings(max_examples=100, deadline=None)
@given(
    dist=st.sampled_from(("gaussian", "rademacher", "uniform")),
    l=st.integers(1, 4),
    shape=st.integers(1, 8).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
)
def test_oracle_leading_orders_match_theorem1_property(dist, l, shape):
    # the oracle's terms on l and l + 1 vertices are Theorem 1's expansion;
    # no walk reaches l + 2 vertices
    p, n = shape
    result = exact_trace_moment(l, p, n, preset_moments(dist, 2 * l + 2))
    assert all(term.r <= l + 1 for term in result.terms)
    leading = sum(
        term.multiplicity * term.inner_sum for term in result.terms if term.r >= l
    ) / Fraction(n**l)
    assert leading == theorem1_mean(l, p, n)[0].evaluate(preset_alpha(dist))


def test_cost_guards():
    with pytest.raises(CostGuardError):
        exact_trace_moment(5, 1, 2, preset_moments("gaussian", 10))
    value = exact_trace_moment(
        5, 1, 2, preset_moments("gaussian", 10), allow_large=True
    ).value
    assert value > 0
    with pytest.raises(CostGuardError):
        exact_trace_moment(6, 1, 2, preset_moments("gaussian", 12), allow_large=True)
    with pytest.raises(CostGuardError):
        exact_trace_covariance(2, 3, 1, 2, preset_moments("gaussian", 20))
    with pytest.raises(CostGuardError):
        census_by_seed(6, 1)
    with pytest.raises(CostGuardError):
        census_by_seed(7, 1, allow_large=True)
    with pytest.raises(CostGuardError):
        census_double(2, 3, 1)


def _census_keys(total: int):
    for lengths in [(total,)] + [(l1, total - l1) for l1 in range(1, total)]:
        for r in range(1, 2 * total + 1):
            for b in range(1, min(total, r) + 1):
                yield lengths, r, b


@pytest.mark.parametrize(
    "keys",
    [
        [key for total in range(1, 5) for key in _census_keys(total)],
        [((5,), 5, 3), ((5,), 6, 2), ((5,), 3, 3), ((3, 2), 5, 2), ((2, 3), 5, 2)],
    ],
    ids=["sum<=4", "l=5"],
)
def test_signature_census_matches_route_pair_reference(keys):
    # the set-partition census against the census of every labelled route pair
    for key in keys:
        assert signature_census(*key) == reference_signature_census(*key), key


def test_label_strings_are_the_white_ordered_routes():
    # entry w of _label_strings(length, b), against a filter of all of
    # [b+w]^length, as sequences: dict and census order rest on it
    for length in range(1, 7):
        for b in range(length + 1):
            strings = _label_strings(length, b)
            assert len(strings) == length + 1
            for w in range(length + 1):
                assert strings[w] == white_ordered_routes(length, b + w, b), (
                    length, b, w
                )


def test_census_blocks_are_memoized_per_lengths_b_s():
    clear_caches()
    census = signature_census((2, 1), 3, 2)
    assert _label_strings.cache_info().currsize == 1
    assert sum(census.values()) == len(list(split_route_pairs(2, 1, 3, 2)))
    # r = 3, b = 2 merges the blocks s = 1, 2, 3 of (2, 1); each block holds
    # every pair (pi, sigma) with |pi| = 2 and |sigma| = s once
    assert _census_block.cache_info().currsize == 3
    for s in (1, 2, 3):
        block = _census_block((2, 1), 2, s)
        assert sum(block.values()) == len(_label_strings(3, 0)[2]) * len(
            _label_strings(3, 0)[s]
        )
    # a second r for the same (lengths, b) reuses the blocks s = 2, 3 it admits
    hits = _census_block.cache_info().hits
    signature_census((2, 1), 4, 2)
    assert _census_block.cache_info().currsize == 3
    assert _census_block.cache_info().hits == hits + 2
    # the split point is part of the key, and so are b and s
    _census_block((1, 2), 2, 2)
    assert _census_block.cache_info().currsize == 4
    signature_census((2, 1), 3, 1)
    assert _census_block.cache_info().currsize == 6
    signature_census((3,), 3, 2)
    assert _census_block.cache_info().currsize == 9
    clear_caches()
    assert _census_block.cache_info().currsize == 0
    # the partition strings go too, so the next census starts cold
    assert _label_strings.cache_info().currsize == 0


@pytest.mark.parametrize("l", [4, 5])
def test_exact_trace_moment_visits_each_partition_pair_once(l, monkeypatch):
    walk_counts = enumeration._walk_counts
    calls = []

    def counted(i, k):
        calls.append(1)
        return walk_counts(i, k)

    monkeypatch.setattr(enumeration, "_walk_counts", counted)
    clear_caches()
    exact_trace_moment(l, 50, 100, preset_moments("gaussian", 2 * l), allow_large=True)
    bell = {4: 15, 5: 52}[l]
    assert len(calls) == bell**2


@pytest.mark.parametrize(
    "l,bs", [(l, range(1, l + 1)) for l in range(1, 6)] + [(6, [1])],
    ids=[f"l={l}" for l in range(1, 7)],
)
def test_census_by_seed_matches_route_pair_reference(l, bs):
    # one representative per relabelling class against every labelled route pair
    for b in bs:
        got = census_by_seed(l, b, allow_large=True)
        assert got == reference_census_by_seed(l, b), (l, b)


@pytest.mark.parametrize(
    "cases,orbit_cases",
    [
        ([(l1, total - l1, b) for total in range(2, 5) for l1 in range(1, total)
          for b in range(1, total + 1)], []),
        ([(2, 3, 2), (3, 2, 2)], [(2, 3, 3), (4, 1, 3), (1, 4, 4)]),
    ],
    ids=["sum<=4", "sum=5"],
)
def test_census_double_matches_route_pair_reference(cases, orbit_cases):
    for l1, l2, b in cases:
        got = census_double(l1, l2, b, allow_large=True)
        assert got == reference_census_double(l1, l2, b), (l1, l2, b)
    # the census that trims one route quadruple per rotation orbit, at sizes
    # where every labelled quadruple would take too long
    for l1, l2, b in orbit_cases:
        got = census_double(l1, l2, b, allow_large=True)
        assert got == reference_orbit_census_double(l1, l2, b), (l1, l2, b)


def _rotate(route):
    return route[1:] + route[:1]


def _canonical_relabelling(i, k):
    """(i, k) with its labels renamed 1, 2, ... in order of first appearance
    in i, then in k.  i covers the black labels [b] and k alone holds white
    ones, so each label keeps its colour."""
    names = {}
    for v in i + k:
        names.setdefault(v, len(names) + 1)
    return tuple(names[v] for v in i), tuple(names[v] for v in k)


def test_buckets_are_invariant_under_colour_preserving_relabelling():
    # both seed-class censuses visit one route pair per relabelling class,
    # (restricted growth string, white labels in order), and count it
    # b! (r-b)! times: each class meets that set once and has that size
    clear_caches()
    for l in range(1, 5):
        for b in range(1, l + 1):
            representatives = Counter()
            for i, k in iter_route_pairs(l, l, b):
                seed_class = classify_leaf_free_route(trim_route(zip_routes(i, k)))
                ci, ck = _canonical_relabelling(i, k)
                representatives[ci, ck] += 1
                canonical = classify_leaf_free_route(trim_route(zip_routes(ci, ck)))
                assert canonical == seed_class, (i, k)
            assert set(representatives) == set(
                product(_label_strings(l, 0)[b], _label_strings(l, b)[l - b])
            ), (l, b)
            assert set(representatives.values()) == {factorial(b) * factorial(l - b)}
    for total in range(2, 5):
        for l1 in range(1, total):
            for b in range(1, total + 1):
                for i, k, j, m in split_route_pairs(l1, total - l1, total, b):
                    ij, km = _canonical_relabelling(i + j, k + m)
                    assert double_bucket(i, k, j, m, b, trim_double) == double_bucket(
                        ij[:l1], km[:l1], ij[l1:], km[l1:], b, trim_double
                    ), (i, k, j, m)
    assert _label_strings.cache_info().currsize > 0
    clear_caches()
    assert _label_strings.cache_info().currsize == 0


def test_seed_classes_are_rotation_invariant():
    # reference_orbit_census_double, the independent reference for
    # census_double at l1+l2 = 5, rests on these invariances
    for l in range(1, 5):
        for b in range(1, l + 1):
            for i, k in iter_route_pairs(l, l, b):
                seed_class = classify_leaf_free_route(trim_route(zip_routes(i, k)))
                rotated = trim_route(zip_routes(_rotate(i), _rotate(k)))
                assert classify_leaf_free_route(rotated) == seed_class, (i, k)
    for total in range(2, 5):
        for l1 in range(1, total):
            for b in range(1, total + 1):
                for i, k, j, m in split_route_pairs(l1, total - l1, total, b):
                    bucket = double_bucket(i, k, j, m, b, trim_double)
                    assert bucket == double_bucket(
                        _rotate(i), _rotate(k), j, m, b, trim_double
                    ), (i, k, j, m)
                    assert bucket == double_bucket(
                        i, k, _rotate(j), _rotate(m), b, trim_double
                    ), (i, k, j, m)


def test_rotation_orbits_partition_the_surjections():
    for lengths, b in [((4,), 2), ((2, 2), 2), ((1, 3), 3), ((3, 1), 1)]:
        orbits = rotation_orbits(lengths, b)
        assert sum(size for _, size in orbits) == len(
            list(surjective_routes(sum(lengths), b))
        )
    assert rotation_orbits((4,), 2) == ((((1, 1, 1, 2), 4), ((1, 1, 2, 2), 4),
                                        ((1, 2, 1, 2), 2), ((1, 2, 2, 2), 4)))


def test_census_double_rejects_empty_walks():
    for l1, l2 in [(0, 2), (2, -1), (0, 0)]:
        with pytest.raises(ValueError, match="l1 and l2 must be positive"):
            census_double(l1, l2, 1)


def test_census_by_seed_examples():
    assert census_by_seed(1, 1) == {two_d_ring(1): 1}
    assert census_by_seed(2, 1) == {two_d_ring(1): 2, two_d_ring(2): 1}
    assert census_by_seed(3, 3)[two_d_ring(1)] == 18  # = 3 * 3!
    with pytest.raises(ValueError):
        census_by_seed(2, 3)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_ring_censuses_match_counting_formulas(l):
    for b in range(1, l + 1):
        census = census_by_seed(l, b)
        w = l - b
        for l0 in range(1, l + 1):
            b_prime = b - (l0 + 1) // 2
            w_prime = w - l0 // 2
            expected = 0
            if b_prime >= 0 and w_prime >= 0:
                expected = count_ring_sprouts("two-d", l0, b_prime, w_prime)
            assert census.get(two_d_ring(l0), 0) == expected, (l, b, l0)


def test_census_sprouting_examples():
    assert census_sprouting((1, 2, 1, 2), set(), set()) == 1
    assert census_sprouting((1, 2), {3}, set()) == 2
    assert census_sprouting((1, 2), set(), {3}) == 2
    assert census_sprouting((1, 1), {2}, {3}) == 9
    with pytest.raises(ValueError):
        census_sprouting((1, 2, 1, 3), {5}, set())  # seed still has leaves
    with pytest.raises(ValueError):
        census_sprouting((1, 2), {3}, {3})  # overlapping sprout sets
    with pytest.raises(ValueError):
        census_sprouting((1, 2), {2}, {3})  # sprout label collides with seed


@pytest.mark.parametrize("l0,seeds", [
    (1, [(1, 2)]),
    (2, [(1, 2, 1, 2), (1, 1, 2, 2)]),
    (3, [(1, 2, 3, 1, 2, 3), (1, 1, 1, 2, 2, 2), (1, 1, 1, 1, 1, 1)]),
])
def test_census_sprouting_matches_formula_and_seed_independence(l0, seeds):
    for b_prime in range(0, 5):
        for w_prime in range(0, 5 - b_prime):
            expected = count_sprouting(l0, b_prime, w_prime)
            counts = [
                census_sprouting(
                    seed,
                    set(range(101, 101 + b_prime)),
                    set(range(201, 201 + w_prime)),
                )
                for seed in seeds
            ]
            assert all(c == expected for c in counts), (l0, b_prime, w_prime, counts)


def test_census_sprouting_matches_the_walk_search():
    # every leaf-free seed of length <= 4 on the labels 1..m, m <= 3, with
    # b' + w' <= 2; seeds like (1, 2) count 0 unless the seed labels are
    # relabelled above the sprouts
    seeds = [
        seed
        for length in range(1, 5)
        for seed in product(range(1, 4), repeat=length)
        if compact_labels(seed) == seed and not balanced_leaf_labels(seed)
    ]
    assert len(seeds) == 42
    for seed in seeds:
        for b_prime in range(0, 3):
            for w_prime in range(0, 3 - b_prime):
                blacks = set(range(11, 11 + b_prime))
                whites = set(range(21, 21 + w_prime))
                assert census_sprouting(seed, blacks, whites) == (
                    reference_census_sprouting(seed, blacks, whites)
                ), (seed, b_prime, w_prime)


def test_census_double_examples():
    census = census_double(1, 1, 1)
    assert census[(double_two_d_ring(2), (0, 0, 0, 0))] == 1
    census = census_double(1, 1, 2)
    ring_keys = [key for key in census if key[0].ring_length is not None]
    assert ring_keys == []  # alternating colors force one black, one white
    census = census_double(2, 1, 1)
    assert census[(double_two_d_ring(2), (0, 0, 1, 0))] == 4
    assert census[(double_two_d_ring(2), (0, 0, 1, 0))] == count_double_ring_sprouts(
        "two-d", 2, 0, 0, 1, 0
    )
