"""Exact proof of the doubling identity  b S(2x)/S(x)^2 g_a(x) = g_a(2x)
for a = lg(b) + 1/4 - lg(pi)/2 and every x > 0.

Its log gap ln(lhs) - ln(rhs) is a formal Laurent polynomial (`Formal`)
in x, ln x and the free atoms ln 2, ln pi and ln b, built term by term as
`bounds.stirling_S`, `bounds.g_alpha` and `bounds.alpha_for_beta`
compute.  It cancels to exactly zero, and a polynomial that is zero over
free indeterminates is zero under every substitution, so the identity
holds for every x > 0 whatever values the atoms take.  A gap that does
not cancel is grouped by its (x, ln x) monomials, which are linearly
independent functions on x > 0, so any coefficient that is nonzero as a
real number makes the identity fail somewhere; `bounds` decides that on
intervals.

`bounds.check_lemma_gaS` is the entry point.  `bounds` and this module
import each other at the top; neither reads the other until a call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import mpmath

from . import bounds
from .errors import InvalidArgs

X_ATOMS = ("x", "ln x")


class Formal(dict):
    """A Laurent polynomial with Fraction coefficients: a dict from monomials,
    frozensets of (atom, nonzero power) pairs, to nonzero coefficients.
    Atoms are free indeterminates named "x", "ln x", "ln pi" or "ln q" for a
    rational q; only ln 2 takes negative powers, and it is nonzero."""

    @classmethod
    def atom(cls, name: str, power: int = 1) -> Formal:
        return cls({frozenset({(name, power)}): Fraction(1)})

    @classmethod
    def lift(cls, value: Formal | Fraction | int) -> Formal:
        if isinstance(value, Formal):
            return value
        return cls({frozenset(): Fraction(value)} if value else {})

    def __add__(self, other: Formal | Fraction | int) -> Formal:
        total = dict(self)
        for monomial, coefficient in Formal.lift(other).items():
            total[monomial] = total.get(monomial, 0) + coefficient
        return Formal({m: c for m, c in total.items() if c})

    def __neg__(self) -> Formal:
        return Formal({m: -c for m, c in self.items()})

    def __sub__(self, other: Formal | Fraction | int) -> Formal:
        return self + -Formal.lift(other)

    def __mul__(self, other: Formal | Fraction | int) -> Formal:
        product: dict[frozenset, Fraction] = {}
        for left, a in self.items():
            for right, b in Formal.lift(other).items():
                powers = dict(left)
                for atom, power in right:
                    powers[atom] = powers.get(atom, 0) + power
                monomial = frozenset((atom, p) for atom, p in powers.items() if p)
                product[monomial] = product.get(monomial, 0) + a * b
        return Formal({m: c for m, c in product.items() if c})

    __rmul__ = __mul__

    def coefficients_in_x(self) -> list[tuple[str, Formal]]:
        """(name of an (x, ln x) monomial, its coefficient in the constant
        atoms) for every such monomial present, sorted by name."""
        grouped: dict[str, Formal] = {}
        for monomial, coefficient in self.items():
            in_x = sorted(((a, p) for a, p in monomial if a in X_ATOMS), reverse=True)
            name = " ".join(a if p == 1 else f"({a})^{p}" for a, p in in_x) or "1"
            constant = Formal({monomial.difference(in_x): coefficient})
            grouped[name] = grouped.get(name, Formal()) + constant
        return sorted(grouped.items())

    def evaluate(self, value: Callable[[str], mpmath.iv.mpf] | None = None
                 ) -> mpmath.iv.mpf:
        """Interval of the polynomial at the ambient precision, with value(atom)
        the interval of an atom (by default `atom_value`, for constants)."""
        value = value or atom_value
        total = mpmath.iv.mpf(0)
        for monomial, coefficient in self.items():
            term = bounds.rational(coefficient)
            for atom, power in monomial:
                term = term * value(atom) ** power
            total = total + term
        return total


def ln(q: Fraction | int) -> Formal:
    """ln q for a rational q > 0, as a free atom."""
    return Formal.atom(f"ln {Fraction(q)}")


def atom_value(atom: str) -> mpmath.iv.mpf:
    """Interval of a constant atom, "ln pi" or "ln q", at the ambient precision."""
    argument = atom.removeprefix("ln ")
    pi = mpmath.iv.pi
    return bounds.enc_log(+pi if argument == "pi" else bounds.rational(Fraction(argument)))


def ln_S(x: Formal, ln_x: Formal) -> Formal:
    """ln S(x) = ln sqrt(2 pi x) + x (ln x - 1), as `bounds.stirling_S` computes it."""
    return Fraction(1, 2) * (ln(2) + Formal.atom("ln pi") + ln_x) + x * (ln_x - 1)


def ln_g(x: Formal, ln_x: Formal, alpha: Formal) -> Formal:
    """ln g_a(x) = x ln 4 + (a - lg(x)/4) ln x, as `bounds.g_alpha` computes it."""
    lg_x = ln_x * Formal.atom("ln 2", -1)
    return x * 2 * ln(2) + (alpha - Fraction(1, 4) * lg_x) * ln_x  # ln 4 = 2 ln 2


def alpha(beta: Fraction | int) -> Formal:
    """lg(beta) + 1/4 - lg(pi)/2, as `bounds.alpha_for_beta` computes it."""
    inverse_ln2 = Formal.atom("ln 2", -1)
    return (ln(beta) * inverse_ln2 + Fraction(1, 4)
            - Fraction(1, 2) * Formal.atom("ln pi") * inverse_ln2)


def gap(beta: Fraction | int, alpha_beta: Fraction | int) -> Formal:
    """ln(beta S(2x)/S(x)^2 g_a(x)) - ln(g_a(2x)) with a = alpha(alpha_beta);
    the identity pairs alpha_beta = beta."""
    for b in (beta, alpha_beta):
        if Fraction(b) <= 0:
            raise InvalidArgs(f"beta must be positive, got {b}")
    x, ln_x = Formal.atom("x"), Formal.atom("ln x")
    two_x, ln_2x = 2 * x, ln(2) + ln_x
    a = alpha(alpha_beta)
    return (ln(beta) + ln_S(two_x, ln_2x) - 2 * ln_S(x, ln_x)
            + ln_g(x, ln_x, a) - ln_g(two_x, ln_2x, a))
