"""Sparse multivariate polynomials over an exact coefficient field.

Terms live in a dict mapping exponent tuples to nonzero coefficients.
Text is parsed by :func:`mapfibers.mapfile.parse_polynomial`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .engine import EngineContext
from .rings import GREVLEX, Monomial, RingDescriptor, mono_mul


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: Optional[Dict[Monomial, object]] = None):
        self.ring = ring
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: RingDescriptor, c) -> "Polynomial":
        c = ring.field.from_int(c) if isinstance(c, int) else c
        if ring.field.is_zero(c):
            return cls(ring, {})
        return cls(ring, {ring.zero_mono(): c})

    @classmethod
    def variable(cls, ring: RingDescriptor, i: int) -> "Polynomial":
        return cls(ring, {ring.var_mono(i): ring.field.one()})

    @classmethod
    def from_terms(cls, ring: RingDescriptor, items: Iterable) -> "Polynomial":
        terms: Dict[Monomial, object] = {}
        F = ring.field
        for mono, c in items:
            if mono in terms:
                c = F.add(terms[mono], c)
            if F.is_zero(c):
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return cls(ring, terms)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        z = self.ring.zero_mono()
        return len(self.terms) == 1 and z in self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.ring.weighted_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree (max over terms), -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        F = self.ring.field
        big, small = (self.terms, other.terms) if len(self.terms) >= len(other.terms) else (other.terms, self.terms)
        out = dict(big)
        for m, c in small.items():
            if m in out:
                s = F.add(out[m], c)
                if F.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        F = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = F.sub(out[m], c)
                if F.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = F.neg(c)
        return Polynomial(self.ring, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        F = self.ring.field
        if not self.terms or not other.terms:
            return Polynomial(self.ring, {})
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out: Dict[Monomial, object] = {}
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = mono_mul(ma, mb)
                c = F.mul(ca, cb)
                if m in out:
                    s = F.add(out[m], c)
                    if F.is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        if F.is_zero(c):
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {m: F.mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def evaluate(self, values):
        """Evaluate at a full point (one field element per variable)."""
        F = self.ring.field
        total = F.zero()
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    vi = values[i]
                    for _ in range(e):
                        v = F.mul(v, vi)
            total = F.add(total, v)
        return total

    def substitute(self, assignment: Dict[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for some variables at once (others stay).

        One pass over the terms into a dict accumulator; each power of a
        value is computed once per call.
        """
        ring = self.ring
        F = ring.field
        subs = sorted(assignment)
        powers = {}             # (i, e) -> assignment[i] ** e
        out: Dict[Monomial, object] = {}
        for m, c in self.terms.items():
            residual = list(m)
            for i in subs:
                residual[i] = 0
            piece = Polynomial(ring, {tuple(residual): c})
            for i in subs:
                e = m[i]
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = assignment[i] ** e
                    piece = piece * power
            for mm, cc in piece.terms.items():
                if mm in out:
                    cc = F.add(out[mm], cc)
                    if F.is_zero(cc):
                        del out[mm]
                        continue
                out[mm] = cc
        return Polynomial(ring, out)

    # -- comparisons / hashing ---------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- display -----------------------------------------------------

    def sorted_terms(self):
        key = EngineContext(self.ring.nvars, GREVLEX).pack
        return sorted(self.terms.items(), key=lambda mc: key(mc[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.ring.field
        names = self.ring.variables
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            cs = F.to_str(c)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    term = body
                elif cs == "-1":
                    term = "-" + body
                else:
                    term = f"{cs}*{body}"
            else:
                term = cs
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"
