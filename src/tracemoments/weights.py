"""Exact expectation weights of circuit multigraphs over a moment sequence.

The weight of a walk is the product of entry moments indexed by the reversed
adjacency matrix; everything here is exact rational arithmetic.  Floating
point lives only in the Monte Carlo module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .graphs import CircuitMultigraph, DoubleCircuitMultigraph, reversed_edge_counts

Rational = Fraction | int


@dataclass(frozen=True)
class AffineAlpha:
    """An exact value of the form c0 + c1*alpha, alpha being the fourth moment.

    Closed under addition and rational scaling; that is all the closed forms
    need, so multiplication is deliberately not provided.
    """

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)

    @staticmethod
    def constant(value: Rational) -> "AffineAlpha":
        return AffineAlpha(Fraction(value), Fraction(0))

    def __add__(self, other: "AffineAlpha") -> "AffineAlpha":
        return AffineAlpha(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "AffineAlpha") -> "AffineAlpha":
        return AffineAlpha(self.c0 - other.c0, self.c1 - other.c1)

    def scale(self, factor: Rational) -> "AffineAlpha":
        factor = Fraction(factor)
        return AffineAlpha(self.c0 * factor, self.c1 * factor)

    def evaluate(self, alpha: Rational) -> Fraction:
        return self.c0 + self.c1 * Fraction(alpha)


def _hankel_is_psd(values: tuple[Fraction, ...]) -> bool:
    """Whether H[i][j] = m_(i+j), 0 <= i, j <= K//2, is positive semidefinite.

    Every real distribution's moments pass.  Symmetric fraction-free
    elimination, exact: the moments are scaled to integers, and each step
    replaces the trailing block by pivot * (its Schur complement) divided by
    the previous pivot, which divides it exactly.  A negative pivot, or a
    zero pivot with a nonzero entry to its right, means not semidefinite.
    """
    size = (len(values) + 1) // 2
    scale = lcm(*(m.denominator for m in values))
    ints = [m.numerator * (scale // m.denominator) for m in values]
    h = [ints[i:i + size] for i in range(size)]
    previous = 1
    for k, row in enumerate(h):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1:])):
            return False
        if pivot == 0:
            continue  # a zero row and column: the rest does not depend on it
        for i in range(k + 1, size):
            target = h[i]
            for j in range(i, size):
                target[j] = (pivot * target[j] - row[i] * row[j]) // previous
        previous = pivot
    return True


@dataclass(frozen=True)
class MomentSequence:
    """Exact moments m_0..m_K of a centred, unit-variance entry distribution."""

    moments: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(Fraction(m) for m in self.moments)
        if len(values) < 3:
            raise ValueError("need at least m_0, m_1, m_2")
        if values[0] != 1 or values[1] != 0 or values[2] != 1:
            raise ValueError(
                f"m_0, m_1, m_2 must be 1, 0, 1; got {values[0]}, {values[1]}, {values[2]}"
            )
        if len(values) >= 5 and values[4] < 1:
            warnings.warn(
                f"fourth moment {values[4]} is below 1, impossible for a real "
                "unit-variance distribution",
                stacklevel=3,  # the caller of the generated __init__
            )
        elif not _hankel_is_psd(values):
            warnings.warn(
                f"moments {', '.join(map(str, values))} are impossible for a real "
                "distribution: their Hankel matrix m_(i+j) is not positive semidefinite",
                stacklevel=3,
            )
        object.__setattr__(self, "moments", values)

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    @property
    def fourth(self) -> Fraction:
        if self.order < 4:
            raise ValueError("sequence does not reach the fourth moment")
        return self.moments[4]

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise ValueError(f"moment of order {k} not covered (max {self.order})")
        return self.moments[k]

    @staticmethod
    def parse(text: str) -> "MomentSequence":
        """Parse a comma-separated rational list such as "1,0,1,0,3"."""
        try:
            moments = [Fraction(part) for part in text.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad moment list {text!r}") from exc
        return MomentSequence(moments)


_PRESET_ALIASES = {
    "gaussian": "gaussian",
    "normal": "gaussian",
    "rademacher": "rademacher",
    "uniform": "uniform",
    "uniform-scaled": "uniform",
    "uniform_scaled": "uniform",
}

PRESET_NAMES = ("gaussian", "rademacher", "uniform")


def distribution_name(name: str) -> str:
    """The preset a distribution tag or one of its aliases stands for."""
    key = _PRESET_ALIASES.get(name.lower())
    if key is None:
        raise ValueError(f"unknown distribution tag {name!r} (try {PRESET_NAMES})")
    return key


def preset_moments(name: str, order: int) -> MomentSequence:
    """Moment sequence of a named entry distribution, up to the given order.

    gaussian: m_{2k} = (2k-1)!!, rademacher: m_{2k} = 1, uniform: the moments
    of sqrt(3)*U[-1,1] (fourth moment 9/5).  Odd moments vanish for all three.
    """
    key = distribution_name(name)
    if order < 4:
        raise ValueError("presets must cover at least the fourth moment")
    values = [Fraction(0)] * (order + 1)
    values[0] = Fraction(1)
    for k in range(1, order // 2 + 1):
        if key == "gaussian":
            even = values[2 * k - 2] * (2 * k - 1)
        elif key == "rademacher":
            even = Fraction(1)
        else:
            even = Fraction(3**k, 2 * k + 1)
        values[2 * k] = even
    return MomentSequence(values)


def preset_alpha(name: str) -> Fraction:
    return preset_moments(name, 4).fourth


# ---------------------------------------------------------------------------
# weights


def weight_of_exponents(exponents: Iterable[int], moments: MomentSequence) -> Fraction:
    total = Fraction(1)
    for e in exponents:
        factor = moments[e]
        if factor == 0:
            return Fraction(0)
        total *= factor
    return total


def weight(graph: CircuitMultigraph, moments: MomentSequence) -> Fraction:
    """Product of entry moments given by the reversed adjacency matrix."""
    return weight_of_exponents(
        reversed_edge_counts(graph.route).values(), moments
    )


def covariance_weight(
    double: DoubleCircuitMultigraph, moments: MomentSequence
) -> Fraction:
    """Joint weight of the pair minus the product of the component weights."""
    c1 = reversed_edge_counts(double.first)
    c2 = reversed_edge_counts(double.second)
    combined = dict(c1)
    for edge, c in c2.items():
        combined[edge] = combined.get(edge, 0) + c
    return weight_of_exponents(combined.values(), moments) - weight_of_exponents(
        [*c1.values(), *c2.values()], moments
    )
