"""Size bounds for the studied families, and their numeric ingredients.

Upper bounds implemented:
  * recovering families on B_n:          sqrt(3) * 2^(0.4392 n)
  * strongly cancellative on B_n:        2^floor(n/2)          (tight)
  * strongly cancellative on D_{l1,l2}:  min(l1, l2)           (tight; l1, l2 >= 2)
  * strongly cancellative on D_l^k:      (2l)^(k/2) + k(l-1)/2 + 1

The recovering exponent comes from a two-case estimate of
g(x) = h(x^2) + h((1-x)^2) with h the binary entropy: g <= 1 + h(25/121)
when x is outside [5/11, 6/11] and g <= 2 h(36/121) inside, and a quarter
of the larger constant rounds up to 0.4392.  The true maximum of g is
g(1/2) = 2 h(1/4), about 1.6226 (proved in max_coordinate_entropy_term); it
sits below both case constants, and only the inequality direction is
asserted anywhere.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .entropy import Distribution, binary_entropy, subadditivity_check
from .lattice import ChainProductLattice, PointSet, format_lattice_spec
from .verify import (
    JOIN,
    MEET,
    RECOVERING,
    STRONGLY_CANCELLATIVE,
    is_recovering,
    normalize_property,
    pair_statistics,
)

_CONSISTENCY_SLACK = 1e-9


@dataclass(frozen=True)
class CaseConstants:
    """The two case bounds on g and the resulting exponent, max(cases)/4."""

    case1: float
    case2: float
    exponent: float


def recovering_case_constants() -> CaseConstants:
    """Constants of the two-case estimate behind the 0.4392 n exponent."""
    case1 = 1.0 + binary_entropy(25.0 / 121.0)
    case2 = 2.0 * binary_entropy(36.0 / 121.0)
    return CaseConstants(case1, case2, max(case1, case2) / 4.0)


def coordinate_entropy_term(x: float) -> float:
    """g(x) = h(x^2) + h((1-x)^2), the per-coordinate meet+join entropy term."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"needs x in [0, 1], got {x!r}")
    return binary_entropy(x * x) + binary_entropy((1.0 - x) * (1.0 - x))


def max_coordinate_entropy_term() -> tuple[float, float]:
    """Global maximum of g on [0, 1]: g(1/2) = 2 h(1/4), about 1.6225562.

    Write f(s) = h(s^2), so g(x) = f(x) + f(1-x).  Then
    f''(s) = 2 log2((1-s^2)/s^2) - 4/(ln2 (1-s^2)), which falls as s grows
    and is about -0.49 at s = 1/3, so f is concave on [1/3, 1].  For x in
    [1/3, 2/3] both x and 1-x lie there, and Jensen gives
    f(x) + f(1-x) <= 2 f(1/2).  Outside that interval one term is below
    h(1/9), about 0.5033, and the other is at most 1; their sum, at most
    1.5033, is below 2 h(1/4).
    """
    return 0.5, coordinate_entropy_term(0.5)


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

@contextmanager
def _overflow_names(params: str):
    """Turn a float overflow into a ValueError that names the parameters."""
    try:
        yield
    except OverflowError:
        raise ValueError(f"bound overflows a float at {params}") from None


def bound_recovering_bn(n: int) -> float:
    """sqrt(3) * 2^(0.4392 n), valid for any recovering family on B_n."""
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    with _overflow_names(f"n = {n}"):
        return math.sqrt(3.0) * 2.0 ** (0.4392 * n)


def bound_sc_bn(n: int) -> int:
    """2^floor(n/2), the tight bound for strongly cancellative sets on B_n.

    Restricted to n >= 2: at n = 1 the formula reads 1 while any pair of
    points is vacuously strongly cancellative.
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return 1 << (n // 2)


def bound_d2(l1: int, l2: int) -> int:
    """min(l1, l2), tight for strongly cancellative sets on two chains.

    Restricted to l1, l2 >= 2: with a chain of length 1 the lattice is a
    single chain, where any two points form a strongly cancellative family.
    """
    if l1 < 2 or l2 < 2:
        raise ValueError(f"chain lengths must be >= 2, got ({l1}, {l2})")
    return min(l1, l2)


def bound_dlk(l: int, k: int) -> float:
    """(2l)^(k/2) + k(l-1)/2 + 1 for strongly cancellative sets on D_l^k."""
    if l < 1 or k < 1:
        raise ValueError(f"needs l >= 1 and k >= 1, got ({l}, {k})")
    with _overflow_names(f"l = {l}, k = {k}"):
        return (2.0 * l) ** (k / 2.0) + k * (l - 1) / 2.0 + 1.0


@dataclass(frozen=True)
class BoundReport:
    """One applicable bound next to the best known construction size."""

    lattice: str
    property_name: str
    construction_size: Optional[int]
    upper_bound: float
    bound_name: str

    def __post_init__(self) -> None:
        if (
            self.construction_size is not None
            and self.construction_size > self.upper_bound + _CONSISTENCY_SLACK
        ):
            raise ValueError(
                f"construction size {self.construction_size} exceeds "
                f"bound {self.upper_bound}"
            )

    @property
    def tight(self) -> Optional[bool]:
        """True when no valid integer size fits strictly above the construction."""
        if self.construction_size is None:
            return None
        return self.construction_size + 1 > self.upper_bound

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "property": self.property_name,
            "constructionSize": self.construction_size,
            "upperBound": self.upper_bound,
            "boundName": self.bound_name,
            "tight": self.tight,
        }


def applicable_bounds(lattice: ChainProductLattice, prop: str) -> list[BoundReport]:
    """Every bound formula that applies to this lattice and property.

    Plain cancellative sets have no bound here, and recovering bounds exist
    only on B_n; such queries return an empty list.
    """
    prop = normalize_property(prop)
    desc = format_lattice_spec(lattice)
    reports: list[BoundReport] = []
    if prop == STRONGLY_CANCELLATIVE:
        if lattice.is_boolean and lattice.k >= 2:
            n = lattice.k
            with _overflow_names(f"n = {n}"):
                bound = float(bound_sc_bn(n))
            reports.append(BoundReport(desc, prop, 1 << (n // 2), bound, "2^floor(n/2)"))
        if lattice.k == 2 and min(lattice.lengths) >= 2:
            l1, l2 = lattice.lengths
            reports.append(
                BoundReport(desc, prop, min(l1, l2), float(bound_d2(l1, l2)), "min(l1,l2)")
            )
        if lattice.k >= 2 and len(set(lattice.lengths)) == 1:
            l, k = lattice.lengths[0], lattice.k
            # the bound first: where it overflows, l^(k/2) is too big to build
            bound = bound_dlk(l, k)
            reports.append(
                BoundReport(desc, prop, l ** (k // 2), bound, "(2l)^(k/2)+k(l-1)/2+1")
            )
    elif prop == RECOVERING:
        if lattice.is_boolean:
            reports.append(
                BoundReport(
                    desc, prop, None, bound_recovering_bn(lattice.k), "sqrt(3)*2^(0.4392n)"
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Empirical entropy sandwich for recovering families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropySandwich:
    """log2(|S|^2/3) <= H(pair values) <= sum of coordinate marginal entropies.

    The lower bound holds because at most three ordered pairs share a value
    in a recovering family; the upper bound is entropy subadditivity.
    """

    h_meet: float
    h_join: float
    lower_bound: float
    marginal_sum_meet: float
    marginal_sum_join: float

    def to_json_dict(self) -> dict:
        return {
            "hMeet": self.h_meet,
            "hJoin": self.h_join,
            "lowerBound": self.lower_bound,
            "marginalSumMeet": self.marginal_sum_meet,
            "marginalSumJoin": self.marginal_sum_join,
        }


def empirical_recovering_entropy(s: PointSet) -> EntropySandwich:
    """Entropies of the meet and join pair-value distributions of a
    recovering family, with the bounds that sandwich them.

    On B_n the marginal sums equal sum_t h(P(t)^2) for meets and
    sum_t h((1-P(t))^2) for joins, where P(t) is the fraction of members
    containing t; they are computed here from the empirical per-coordinate
    marginals, which gives the same numbers and extends to chain products.
    """
    if s.size < 2:
        raise ValueError("needs at least 2 points")
    if not is_recovering(s):
        raise ValueError("the family is not recovering")

    def joint_and_marginals(operation: str) -> tuple[float, float]:
        dist = pair_statistics(s, operation).pair_distribution
        as_tuples = Distribution({p.coords: q for p, q in dist.probabilities.items()})
        report = subadditivity_check(as_tuples)
        return report.joint_entropy, report.marginal_sum

    h_meet, marg_meet = joint_and_marginals(MEET)
    h_join, marg_join = joint_and_marginals(JOIN)
    lower = math.log2(s.size * s.size / 3.0)
    return EntropySandwich(h_meet, h_join, lower, marg_meet, marg_join)
