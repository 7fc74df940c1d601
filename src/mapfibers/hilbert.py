"""Hilbert series and functions, Krull dimension, degree, and the
comparison of Hilbert polynomials.

The series of a quotient by a monomial (initial) ideal is computed by
the classic pivot recursion: for a monomial pivot p,

    HN(I) = HN(I + (p)) + t^deg(p) · HN(I : p)

coming from 0 → R/(I:p)(−deg p) → R/I → R/(I+(p)) → 0.  Everything
downstream (Hilbert function, dimension, multiplicity) is derived from the
numerator over (1 − t)^nvars.  Two quotients have the same Hilbert
polynomial exactly when the difference of their series is a polynomial
(`HilbertData.same_polynomial`).

`numerator_from_leads` also takes variable weights w: then deg p is the
weighted degree and the numerator is over ∏_i (1 − t^{w_i}), the series
the Gröbner engine's Hilbert-driven criterion compares against.
"""

from __future__ import annotations

from math import comb
from operator import le
from typing import Dict, List, Sequence, Tuple


def _minimalize(monos: Sequence[tuple]) -> List[tuple]:
    """Drop monomials divisible by another (keeps the minimal generators)."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        for g in out:
            if all(map(le, g, m)):
                break
        else:
            out.append(m)
    return out


def _degree(m: tuple, weights) -> int:
    return sum(m) if weights is None else sum(e * w for e, w in zip(m, weights))


def _numerator(monos: Tuple[tuple, ...], memo: Dict[tuple, Dict[int, int]],
               weights=None) -> Dict[int, int]:
    """Numerator of HS(R/(monos)) over ∏_i (1 − t^{w_i}) (over (1−t)^nvars
    when ``weights`` is None), monos minimal; ``memo`` holds the numerators
    already found in this recursion."""
    if not monos:
        return {0: 1}
    if len(monos) == 1:
        return {0: 1, _degree(monos[0], weights): -1}
    cached = memo.get(monos)
    if cached is not None:
        return cached
    nv = len(monos[0])
    # pairwise coprime → product of (1 − t^deg)
    support = [set(i for i in range(nv) if m[i]) for m in monos]
    coprime = True
    seen = set()
    for s in support:
        if s & seen:
            coprime = False
            break
        seen |= s
    if coprime:
        out = {0: 1}
        for m in monos:
            d = _degree(m, weights)
            nxt = dict(out)
            for k, c in out.items():
                nxt[k + d] = nxt.get(k + d, 0) - c
            out = {k: c for k, c in nxt.items() if c}
        memo[monos] = out
        return out
    # pivot on the most frequent variable, at its least positive exponent
    counts = [0] * nv
    for m in monos:
        for i in range(nv):
            if m[i]:
                counts[i] += 1
    v = max(range(nv), key=lambda i: counts[i])
    e = min(m[v] for m in monos if m[v])
    pivot = tuple(e if i == v else 0 for i in range(nv))
    # I + (p)
    plus = _minimalize(list(monos) + [pivot])
    # I : p
    colon = _minimalize([tuple(max(0, m[i] - pivot[i]) for i in range(nv)) for m in monos])
    np = _numerator(tuple(plus), memo, weights)
    nc = _numerator(tuple(colon), memo, weights)
    shift = e if weights is None else e * weights[v]
    out = dict(np)
    for k, c in nc.items():
        out[k + shift] = out.get(k + shift, 0) + c
    out = {k: c for k, c in out.items() if c}
    memo[monos] = out
    return out


def numerator_from_leads(lead_monos: Sequence[tuple], nvars: int,
                         weights=None) -> Dict[int, int]:
    """Numerator of HS(R/(lead_monos)) over (1−t)^nvars, or over
    ∏_i (1 − t^{w_i}) for positive variable weights w."""
    monos = _minimalize([tuple(m) for m in lead_monos])
    if monos and not any(monos[0]):
        return {}          # unit ideal: quotient is 0
    return _numerator(tuple(monos), {}, weights)


class HilbertData:
    """HS = numerator / (1−t)^nvars for a graded quotient (or module)."""

    def __init__(self, numerator: Dict[int, int], nvars: int):
        self.numerator = dict(numerator)
        self.nvars = nvars
        q = dict(self.numerator)
        c = nvars
        # cancel (1−t) factors: numerator divisible by (1−t) iff Q(1) == 0
        while q and sum(q.values()) == 0:
            # divide by (1 − t): if Q = (1−t)·S then S_k = Σ_{j≤k} Q_j
            deg = max(q)
            s = {}
            acc = 0
            for k in range(deg):
                acc += q.get(k, 0)
                if acc:
                    s[k] = acc
            q = s
            c -= 1
        self.krull_dim = c if q else 0
        self.degree = sum(q.values()) if q else 0

    def hf(self, t: int) -> int:
        """Hilbert function at degree t (exact for all t)."""
        if t < 0:
            return 0
        n = self.nvars
        total = 0
        for k, c in self.numerator.items():
            a = t - k + n - 1
            if a >= n - 1 >= 0:
                total += c * comb(a, n - 1)
        return total

    def same_polynomial(self, other: HilbertData) -> bool:
        """Whether the two quotients, over the same number of variables,
        have the same Hilbert polynomial: the difference of their series,
        read as one, has no pole at t = 1, so its dimension is ≤ 0."""
        diff = dict(self.numerator)
        for k, c in other.numerator.items():
            diff[k] = diff.get(k, 0) - c
        return HilbertData({k: c for k, c in diff.items() if c},
                           self.nvars).krull_dim <= 0

    def __repr__(self):
        terms = " + ".join(f"{c}t^{k}" for k, c in sorted(self.numerator.items()))
        return f"<HilbertData ({terms}) / (1-t)^{self.nvars}, dim {self.krull_dim}, deg {self.degree}>"


def hilbert_series_quotient(gb) -> HilbertData:
    """HS of F/U from a reduced GB of U ⊆ F = ⊕_c R(−shifts[c]), summed
    componentwise over the initial module; R/J for an ideal J."""
    ctx = gb.ctx
    per_comp: List[List[tuple]] = [[] for _ in ctx.comp_offsets]
    for comp, mono in gb.leading_terms():
        per_comp[comp].append(mono)
    total: Dict[int, int] = {}
    for a, leads in zip(ctx.comp_offsets, per_comp):
        for k, coef in numerator_from_leads(leads, ctx.nvars).items():
            total[k + a] = total.get(k + a, 0) + coef
    return HilbertData({k: c for k, c in total.items() if c}, ctx.nvars)

