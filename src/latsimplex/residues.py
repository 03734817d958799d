"""Exact arithmetic for elements of (Q/Z)^e under one shared denominator.

A vector stores integer numerators 0 <= n_i < den and represents the residue
class (n_1/den, ..., n_e/den) mod 1, each coordinate taken with its canonical
representative in [0, 1).  Rescaling between denominators is always explicit;
``add`` refuses mismatched denominators rather than rescaling silently.

Coordinate indices are 1-based everywhere in the public API and in JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index

from .errors import DenominatorMismatch, DimensionMismatch


def as_int(value) -> int:
    """``value`` as an int; a float (even 2.0), str or bool is a TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return index(value)


def int_rows(value, name: str) -> list[tuple[int, ...]]:
    """A JSON list of integer lists as tuples; anything else is a TypeError."""
    if not (isinstance(value, list)
            and all(isinstance(row, list) for row in value)):
        raise TypeError(f"{name} must be a list of integer lists")
    return [tuple(map(as_int, row)) for row in value]


@dataclass(frozen=True)
class Residue:
    """A single coordinate value numerator/den taken mod 1."""

    numerator: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if not 0 <= self.numerator < self.den:
            raise ValueError("numerator must lie in [0, den)")

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.den)


class ResidueVector:
    """Immutable element of (Q/Z)^e with a shared denominator."""

    __slots__ = ("e", "den", "nums")

    def __init__(self, den: int, nums) -> None:
        den = as_int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        nums = tuple(map(as_int, nums))
        if not nums:
            raise ValueError("vector needs at least one coordinate")
        for x in nums:
            if not 0 <= x < den:
                raise ValueError("numerators must lie in [0, den)")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "e", len(nums))

    def __setattr__(self, name, value):
        raise AttributeError("ResidueVector is immutable")

    @classmethod
    def zero(cls, e: int, den: int = 1) -> "ResidueVector":
        return cls(den, (0,) * e)

    def entries(self) -> tuple[Residue, ...]:
        return tuple(Residue(n, self.den) for n in self.nums)

    def add(self, other: "ResidueVector") -> "ResidueVector":
        if self.e != other.e:
            raise DimensionMismatch(
                f"cannot add vectors of length {self.e} and {other.e}")
        if self.den != other.den:
            raise DenominatorMismatch(
                f"denominators differ ({self.den} vs {other.den}); "
                "rescale explicitly first")
        den = self.den
        return ResidueVector(den, tuple((a + b) % den
                                        for a, b in zip(self.nums, other.nums)))

    __add__ = add

    def neg(self) -> "ResidueVector":
        den = self.den
        return ResidueVector(den, tuple((-a) % den for a in self.nums))

    __neg__ = neg

    def scale(self, k: int) -> "ResidueVector":
        den = self.den
        return ResidueVector(den, tuple((a * k) % den for a in self.nums))

    def support(self) -> frozenset[int]:
        return frozenset(i + 1 for i, a in enumerate(self.nums) if a != 0)

    def weight(self) -> int:
        return self.e - self.nums.count(0)

    def height(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.nums)

    def rescale(self, new_den: int) -> "ResidueVector":
        """Change representation to ``new_den``, a multiple of ``den``."""
        new_den = as_int(new_den)
        if new_den % self.den != 0:
            raise DenominatorMismatch(
                f"{new_den} is not a multiple of {self.den}")
        k = new_den // self.den
        return ResidueVector(new_den, tuple(a * k for a in self.nums))

    def reduced(self) -> "ResidueVector":
        """Smallest-denominator representation of the same residue class."""
        g = self.den
        for a in self.nums:
            g = gcd(g, a)
        if g == 1:
            return self
        return ResidueVector(self.den // g, tuple(a // g for a in self.nums))

    def to_json(self) -> dict:
        return {"den": self.den, "entries": list(self.nums)}

    @classmethod
    def from_json(cls, obj: dict) -> "ResidueVector":
        return cls(obj["den"], obj["entries"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueVector):
            return NotImplemented
        a, b = self.reduced(), other.reduced()
        return a.den == b.den and a.nums == b.nums

    def __hash__(self) -> int:
        r = self.reduced()
        return hash((r.den, r.nums))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}/{self.den}" for n in self.nums)
        return f"ResidueVector({body})"


def add(u: ResidueVector, v: ResidueVector) -> ResidueVector:
    return u.add(v)


def support(v: ResidueVector) -> frozenset[int]:
    return v.support()


def weight(v: ResidueVector) -> int:
    return v.weight()


def height(v: ResidueVector) -> Fraction:
    return v.height()
