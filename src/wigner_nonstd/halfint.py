"""Exact half-integer quantum-number labels and admissibility predicates.

Angular-momentum labels (j, m, coupling ranks) are stored as their doubled
integer value so that all label arithmetic stays in exact integers; floats
appear only when a label is converted for numerical work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HalfInt:
    """A half-integer ``x`` stored as ``twice = 2x`` (so ``j = 3/2`` has ``twice == 3``)."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int) or isinstance(self.twice, bool):
            raise TypeError(f"twice must be a plain int, got {self.twice!r}")

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "3/2", "-1", "0", "4/2" (reduced or not, denominator 1 or 2)."""
        s = text.strip()
        if "/" in s:
            num_s, den_s = s.split("/", 1)
            num, den = int(num_s), int(den_s)
            if den == 2:
                return cls(num)
            if den == 1:
                return cls(2 * num)
            raise ValueError(f"half-integer denominator must be 1 or 2: {text!r}")
        return cls(2 * int(s))


def is_valid_j(j: HalfInt) -> bool:
    """j-type labels are non-negative half-integers."""
    return j.twice >= 0


def triangle(j1: HalfInt, j2: HalfInt, j3: HalfInt) -> bool:
    """Coupling admissibility: |j1-j2| <= j3 <= j1+j2 with integer perimeter.

    Equivalently, whether the product of the j1 and j2 representations
    contains the j3 representation.
    """
    for j in (j1, j2, j3):
        if not is_valid_j(j):
            raise ValueError(f"invalid j label: {j}")
    t1, t2, t3 = j1.twice, j2.twice, j3.twice
    return abs(t1 - t2) <= t3 <= t1 + t2 and (t1 + t2 + t3) % 2 == 0


def m_values(j: HalfInt) -> list[HalfInt]:
    """Projections -j, -j+1, ..., j in ascending order (length 2j+1)."""
    if not is_valid_j(j):
        raise ValueError(f"invalid j label: {j}")
    return [HalfInt(t) for t in range(-j.twice, j.twice + 1, 2)]


def coupled_j_values(j1: HalfInt, j2: HalfInt) -> list[HalfInt]:
    """All j appearing in the product j1 x j2: |j1-j2|, ..., j1+j2."""
    if not (is_valid_j(j1) and is_valid_j(j2)):
        raise ValueError("invalid j label")
    lo, hi = abs(j1.twice - j2.twice), j1.twice + j2.twice
    return [HalfInt(t) for t in range(lo, hi + 1, 2)]
