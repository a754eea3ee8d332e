"""Norm descriptors and their support functionals.

A quadrilateral norm on the plane is given by two independent facet
covectors a, b (the unit ball is {x : |a.x| <= 1, |b.x| <= 1}); its norm is
max(|a.x|, |b.x|) and the support functional at a direction off the cone
boundaries is the (signed) covector achieving the max, alike at every
positive multiple of the direction.  Smooth l^p norms (finite p > 1,
p != 2) have the usual gradient functional, taken at x / max|x_i| so that
no power overflows (a Framework refuses coordinates beyond a float).
Support covectors are stored unscaled by edge length: rank verdicts are
scaling-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf
from typing import Sequence, Union

Vector = tuple  # length-d tuple of Fraction or float


class NormError(ValueError):
    pass


class ZeroVector(NormError):
    """Support functional undefined for the zero vector."""


class ConeBoundary(NormError):
    """Direction lies on a boundary between facet cones (not differentiable)."""


@dataclass(frozen=True)
class PolyhedralNorm:
    """Quadrilateral norm from two independent facet covectors, with
    rational (int or Fraction) entries, so that orbit matrices under it
    are ranked exactly."""

    facets: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self):
        if len(self.facets) != 2:
            raise NormError("exactly two facet covectors required")
        if not all(isinstance(c, (int, Fraction)) for f in self.facets for c in f):
            raise NormError("facet covectors must have rational entries")
        (a1, a2), (b1, b2) = self.facets
        if a1 * b2 - a2 * b1 == 0:
            raise NormError("facet covectors must span the plane")

    @property
    def dimension(self) -> int:
        return 2

    def value(self, x: Sequence[Fraction]) -> Fraction:
        return max(abs(f[0] * x[0] + f[1] * x[1]) for f in self.facets)

    def facet_of(self, delta: Sequence[Fraction]) -> tuple[int, int]:
        """(facet index, sign) of the cone containing delta."""
        vals = [f[0] * delta[0] + f[1] * delta[1] for f in self.facets]
        if all(v == 0 for v in vals):
            raise ZeroVector("zero edge vector")
        if abs(vals[0]) == abs(vals[1]):
            raise ConeBoundary(f"direction {tuple(delta)} on a cone boundary")
        idx = 0 if abs(vals[0]) > abs(vals[1]) else 1
        return idx, (1 if vals[idx] > 0 else -1)

    def support_covector(self, delta: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
        idx, sign = self.facet_of(delta)
        f = self.facets[idx]
        return (sign * f[0], sign * f[1])

    @cached_property
    def colours(self) -> dict[tuple, int]:
        """Facet index of each signed facet, the possible support covectors."""
        return {(s * f[0], s * f[1]): i for i, f in enumerate(self.facets) for s in (1, -1)}


@dataclass(frozen=True)
class LpNorm:
    p: float
    dimension: int = 2

    def __post_init__(self):
        if not 1 < self.p < inf or self.p == 2:
            raise NormError("p must be finite and satisfy p > 1 and p != 2")
        if self.dimension < 2:
            raise NormError("dimension must be at least 2")

    def value(self, x: Sequence) -> float:
        top = max(abs(float(c)) for c in x)
        if top == 0.0:
            return 0.0
        return top * sum((abs(float(c)) / top) ** self.p for c in x) ** (1.0 / self.p)

    def support_covector(self, delta: Sequence) -> tuple:
        top = max(abs(float(c)) for c in delta)
        if top == 0.0:
            raise ZeroVector("zero edge vector")
        d = [float(c) / top for c in delta]  # the functional is scale-invariant
        nrm = self.value(d)
        q = self.p - 1.0
        return tuple(
            (1.0 if c > 0 else -1.0) * abs(c) ** q / nrm**q if c != 0.0 else 0.0
            for c in d
        )


Norm = Union[PolyhedralNorm, LpNorm]

# Integer facets: equal to (and hashing like) the same norm built from Fractions.
LINF = PolyhedralNorm(((1, 0), (0, 1)))
L1 = PolyhedralNorm(((1, 1), (1, -1)))
