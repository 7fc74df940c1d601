"""Graded polynomial ring descriptors, monomials, and term orders.

Monomials are exponent tuples, one entry per ring variable.  A ring
carries one integer weight per variable: the standard grading gives
every variable weight 1, and the Rees ring k[X, T] keeps weight 1 on
the source variables and gives each target variable T weight d+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fields import Field, QQ

Monomial = tuple  # exponent tuple, one entry per variable


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class TermOrder:
    """A monomial order: graded reverse-lex or a block order.

    ``kind`` is one of "grevlex", "elim".  ``var_order`` lists
    variable indices from most to least significant (defaults to the
    ring order).  For "elim", ``block`` is the set of variable indices
    to be eliminated: monomials are compared grevlex on the block
    first, then grevlex on the remaining variables, so any monomial
    touching the block beats any monomial that avoids it.
    """

    kind: str = "grevlex"
    var_order: Optional[tuple] = None
    block: Optional[frozenset] = None


GREVLEX = TermOrder("grevlex")


def elimination_order(block) -> TermOrder:
    """Order that eliminates the given variable indices."""
    return TermOrder("elim", block=frozenset(block))


def grevlex_with_last(nvars: int, last: int) -> TermOrder:
    """Grevlex with variable ``last`` moved to least significance.

    Used for saturating with respect to a single variable: dividing the
    reduced basis elements by their trailing-variable power then yields
    a Gröbner basis of the colon by that variable's powers.  For the last
    variable this is GREVLEX itself, so an ideal's grevlex basis is built
    once and shared.
    """
    if last == nvars - 1:
        return GREVLEX
    order = tuple(i for i in range(nvars) if i != last) + (last,)
    return TermOrder("grevlex", var_order=order)


@dataclass(frozen=True)
class RingDescriptor:
    """Variable names, coefficient field, and per-variable weights."""

    variables: tuple
    field: Field
    weights: tuple  # one integer weight per variable

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if len(self.weights) != len(self.variables):
            raise ValueError("weights length does not match variable count")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def weighted_degree(self, mono: Monomial) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def zero_mono(self) -> Monomial:
        return (0,) * self.nvars

    def var_mono(self, i: int) -> Monomial:
        e = [0] * self.nvars
        e[i] = 1
        return tuple(e)

    def extend(self, extra_names, extra_weight: int = 1) -> "RingDescriptor":
        """New ring with extra variables appended, each of weight
        ``extra_weight``."""
        return RingDescriptor(
            self.variables + tuple(extra_names),
            self.field,
            self.weights + (extra_weight,) * len(extra_names),
        )

    def adjoin(self, names) -> "RingDescriptor":
        """`extend` by fresh variables of weight 1, one per name: a name
        the ring (or an earlier new variable) already has gets trailing
        underscores until it is new, so auxiliary variables never collide
        with the user's."""
        fresh = []
        for name in names:
            while name in self.variables or name in fresh:
                name += "_"
            fresh.append(name)
        return self.extend(fresh)

    def subring(self, keep_indices) -> "RingDescriptor":
        keep = tuple(keep_indices)
        return RingDescriptor(
            tuple(self.variables[i] for i in keep),
            self.field,
            tuple(self.weights[i] for i in keep),
        )

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self.variables)}]"


def standard_ring(names, field: Field = QQ) -> RingDescriptor:
    names = tuple(names)
    return RingDescriptor(names, field, (1,) * len(names))
