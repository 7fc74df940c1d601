"""Koszul-cycle presentation of the graded fiber module N.

For a map P^2 --> P^3 given by four forms f_0..f_3 of equal degree d with
finite base locus, the module N = ⊕_s H^1_m(R/I^s)_{sd-2} over the target
coordinate ring B = k[T_0..T_3] is presented by a matrix with linear entries.
The presentation is extracted from the Koszul complex K_* on (f_0..f_3):
writing Z_q = ker(K_q → K_{q-1}) for the cycle modules, graded local duality
turns the strand of the approximation complex in the relevant twist into

    B(-3)^l → B(-2)^mrank --P--> B(-1)^n → 0,        N = coker(P),

where n = dim Hom(Z_1, R)_{-d-1}, mrank = dim Hom(Z_2, R)_{-2d-1} and
l = dim Hom(Z_3, R)_{-3d-1}.  The entry P[a][b] is Σ_i (D_i)[b][a]·T_i with
D_i: Hom(Z_1,R)_{-d-1} → Hom(Z_2,R)_{-2d-1} given by composition with the
contraction e_i ⌟ (-): Z_2 → Z_1.

The rank l is C(d+1, 2), by the depth sensitivity of the Koszul complex
(Bruns–Herzog, Cohen–Macaulay Rings, Thm 1.6.17), so Z_3 is never built:

    The forms have gcd 1 (the `ParameterizedMap` invariant); in three
    variables that makes grade I ≥ 2.
    So H_q(f_0..f_3; R) = 0 for q > 4 − 2.
    Hence Z_3 = B_3 = d_4(K_4) ≅ R(−4d), and Hom(Z_3, R)_{−3d−1} = R_{d−1}.
    This holds for linearly dependent forms too, and when the base locus
    is empty (grade 3).

Z_1 = Syz(f_0..f_3), which also gives the Rees ideal's linear part, is the
map's own `syzygies`, and Z_2 is computed here.  Everything here is exact
linear algebra over the coefficient field.  A Hom piece Hom(Z_q, R)_e is
the nullspace, in degree e, of the dual of the syzygy map of the chosen
generators of Z_q (`cohomology.dual_map_rows`).  D_i is the dual, also
built by `dual_map_rows`, of the lift map that expands e_i ⌟ w over the
Z_1 generators for each Z_2 generator w (lifting through the cover map of
Z_1, against the graph basis that also gives its syzygy map); both duals
index Hom coordinates by `cohomology.hom_basis`, so D_i carries the
nullspace vectors of Hom(Z_1, R) to vectors whose coordinates are read
off the nullspace basis of Hom(Z_2, R) (`hom_coordinates`).
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .cohomology import dual_map_rows, hdim_difference
from .fields import Field
from .ideals import Ideal, intersect_many
from .modules import (FreeModule, FreeModuleMap, Vector, generator_map,
                      kernel_of_free_map, module_groebner,
                      submodule_colon_component, vec_is_zero)
from .hilbert import HilbertData, hilbert_series_quotient
from .poly import Polynomial
from .rings import RingDescriptor
from . import linalg

# exterior-algebra basis of K_2 on four generators
PAIRS: Tuple[Tuple[int, int], ...] = tuple(combinations(range(4), 2))


@dataclass
class KoszulData:
    """Koszul complex on four forms through K_2, with its cycle modules
    Z_1 and Z_2 (Z_3 ≅ R(−4d) is known, see the module docstring)."""
    ring: RingDescriptor
    d: int
    modules: List[FreeModule]              # K_0, K_1, K_2
    differentials: List[FreeModuleMap]     # d_q: K_q -> K_{q-1}, q = 1, 2
    cycles: Dict[int, List[Vector]]        # q -> minimal generators of Z_q
    covers: Dict[int, FreeModuleMap]       # q -> Z_q ← ⊕_j R(−deg g_j), e_j ↦ g_j
    syzygies: Dict[int, FreeModuleMap]     # q -> syzygy map of the cover: coker = Z_q


def presentation_applies(pmap) -> bool:
    """Whether the construction is defined for the map: four nonzero forms
    in three variables, a map P^2 ⇢ P^3."""
    return (pmap.m == 2 and len(pmap.forms) == 4
            and not any(f.is_zero() for f in pmap.forms))


def koszul_cycles(pmap) -> KoszulData:
    """The Koszul complex on the forms of a map P^2 ⇢ P^3 through K_2 and
    minimal generators of its cycle modules: Z_1 is the map's `syzygies`,
    and Z_2 is computed here."""
    if not presentation_applies(pmap):
        raise ValueError("the construction needs four nonzero forms in three "
                         "variables: a map from P^2 to P^3")
    forms, ring, d = pmap.forms, pmap.source, pmap.d

    zero = Polynomial.zero(ring)
    K = [FreeModule(ring, (q * d,) * comb(4, q)) for q in range(3)]
    # d_q(e_J) = Σ_k (−1)^k f_{J[k]} e_{J∖J[k]} on the bases J of K_q,
    # the q-subsets of {0..3} in lexicographic order
    bases = [list(combinations(range(4), q)) for q in range(3)]
    diffs = []
    for q in (1, 2):
        row_of = {J: r for r, J in enumerate(bases[q - 1])}
        matrix = [[zero] * len(bases[q]) for _ in bases[q - 1]]
        for c, J in enumerate(bases[q]):
            for k, j in enumerate(J):
                f = forms[j] if k % 2 == 0 else -forms[j]
                matrix[row_of[J[:k] + J[k + 1:]]][c] = f
        diffs.append(FreeModuleMap(K[q], K[q - 1], matrix))

    for lo, hi in zip(diffs, diffs[1:]):
        for c in range(hi.source.rank):
            if not vec_is_zero(lo.apply(hi.column(c))):
                raise ArithmeticError("Koszul differentials do not compose to zero")

    cycles = {1: pmap.syzygies, 2: kernel_of_free_map(diffs[1])}
    covers = {q: generator_map(gens, K[q]) for q, gens in cycles.items()}
    syzygies = {q: generator_map(kernel_of_free_map(c), c.source)
                for q, c in covers.items()}
    return KoszulData(ring, d, K, diffs, cycles, covers, syzygies)


def contract(i: int, vec: Vector, ring: RingDescriptor) -> Vector:
    """Interior product e_i ⌟ (-) on K_2 coordinates: e_i ⌟ e_{jk} = δ_ij e_k - δ_ik e_j.

    Anticommutes with the Koszul differential, so it carries Z_2 into Z_1.
    """
    out = [Polynomial.zero(ring)] * 4
    for p, (j, k) in enumerate(PAIRS):
        c = vec[p]
        if c.is_zero():
            continue
        if j == i:
            out[k] = out[k] + c
        elif k == i:
            out[j] = out[j] - c
    return tuple(out)


def hom_coordinates(basis: Sequence[List], x: Sequence, F: Field) -> List:
    """Coordinates of the vector x in ``basis``, a `linalg.nullspace` basis
    of a Hom piece.  Each basis vector is the only one nonzero at its last
    nonzero entry (its free column), so its coordinate is read off there.
    Subtracting the combination must leave zero, which certifies that x
    lies in Hom; ArithmeticError is raised if not."""
    x = list(x)
    lam = []
    for vec in basis:
        k = max(k for k, c in enumerate(vec) if not F.is_zero(c))
        a = F.div(x[k], vec[k])
        lam.append(a)
        if not F.is_zero(a):
            for r, c in enumerate(vec):
                if not F.is_zero(c):
                    x[r] = F.sub(x[r], F.mul(a, c))
    if any(not F.is_zero(r) for r in x):
        raise ArithmeticError("vector is not a homomorphism in Hom")
    return lam


@dataclass
class PresentationData:
    """Presentation of N over the target ring and derived invariants; its
    dimensions are read off one fact, dim_k N_s = ``hilbert.hf(s)``."""
    ranks: Tuple[int, int, int]            # (l, mrank, n)
    matrix: List[List[Polynomial]]         # n × mrank, entries linear in T
    hilbert: HilbertData                   # Hilbert series of coker over B
    annihilator: Ideal                     # ann_B(coker) — same radical as Fitt_0

    @property
    def stable_value(self) -> int:
        """dim_k N_s for s ≫ 0.  N lives on finitely many points (for a
        generically finite map, its fiber points; `presentation_matrix_N`
        refuses any other N), so this is deg N, or 0 if N has finite
        length."""
        return self.hilbert.degree if self.hilbert.krull_dim else 0


def poly_minor(M: Sequence[Sequence[Polynomial]], ring: RingDescriptor,
               rows: Tuple[int, ...], cols: Tuple[int, ...],
               memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Polynomial]
               ) -> Polynomial:
    """Determinant of M restricted to the given rows and columns (as many
    of each), by Laplace expansion along the last of the rows, with the
    sub-minors shared in `memo`, keyed by (rows, cols)."""
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if not cols:
        return memo.setdefault(key, Polynomial.constant(ring, 1))
    k = len(cols) - 1
    acc = Polynomial.zero(ring)
    for idx, c in enumerate(cols):
        entry = M[rows[k]][c]
        if entry.is_zero():
            continue
        term = entry * poly_minor(M, ring, rows[:k],
                                  cols[:idx] + cols[idx + 1:], memo)
        acc = acc + term if (k + idx) % 2 == 0 else acc - term
    memo[key] = acc
    return acc


def minors(M: Sequence[Sequence[Polynomial]], ring: RingDescriptor,
           ncols: int, k: int) -> List[Polynomial]:
    """The nonzero k × k minors of the len(M) × ncols matrix M, by row
    subsets and then column subsets in lexicographic order, sharing their
    sub-minors; [1] when k ≤ 0 (the ideal of minors of size ≤ 0 is the
    unit ideal)."""
    if k <= 0:
        return [Polynomial.constant(ring, 1)]
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Polynomial] = {}
    out = []
    for rows in combinations(range(len(M)), k):
        for cols in combinations(range(ncols), k):
            det = poly_minor(M, ring, rows, cols, memo)
            if not det.is_zero():
                out.append(det)
    return out


def presentation_matrix_N(pmap) -> PresentationData:
    """Compute the linear presentation matrix of N = ⊕_s H^1_m(R/I^s)_{sd-2}
    over the map's target ring B = k[T], its cokernel's Hilbert series
    and the support ideal, for the base ideal I of a map P^2 ⇢ P^3.  The
    ranks (l, mrank, n) are the dimensions of Hom(Z_q, R)_{-qd-1} for
    q = 3, 2, 1: l = C(d+1, 2) by depth (the module docstring), mrank and
    n from Z_2 and Z_1, and n is cross-checked against dim H^1_m(R/I)_{d-2}
    by the difference route.  ArithmeticError when that check fails, or
    when the cokernel has Krull dimension above 1 (as for a map that is
    not generically finite), where `PresentationData.stable_value` would
    mean nothing."""
    kd = koszul_cycles(pmap)
    ring, d = kd.ring, kd.d
    F = ring.field
    e1, e2 = -d - 1, -2 * d - 1

    W1 = linalg.nullspace(*dual_map_rows(kd.syzygies[1], e1), F)
    W2 = linalg.nullspace(*dual_map_rows(kd.syzygies[2], e2), F)
    l = comb(d + 1, 2)
    n, mrank = len(W1), len(W2)

    n_check = hdim_difference(pmap.base_ideal, 1, d - 2)
    if n_check != n:
        raise ArithmeticError(
            f"presentation rank n={n} disagrees with H^1_m(R/I)_{d - 2}={n_check}")

    # D_i sends φ_a to φ_a ∘ (e_i ⌟ -): the dual, in degree e1, of the
    # lift map L_i: ⊕_b R(d − deg w_b) → ⊕_j R(−deg z_j) whose column b
    # expands e_i ⌟ w_b over the Z_1 generators z_j; its rows are indexed
    # like W_2's coordinates, its columns like W_1's
    cover = kd.covers[1]
    shifted = FreeModule(ring, [s - d for s in kd.covers[2].source.shifts])
    D = []                                   # D[i][a]: W_2 coordinates
    for i in range(4):
        lifts = [cover.lift(contract(i, w, ring)) for w in kd.cycles[2]]
        if any(cs is None for cs in lifts):
            raise ArithmeticError("contraction left the cycle module Z_1")
        L = FreeModuleMap(shifted, cover.source,
                          [[cs[j] for cs in lifts]
                           for j in range(cover.source.rank)])
        rows, _ = dual_map_rows(L, e1)
        D.append([hom_coordinates(W2, [
            reduce(F.add, (F.mul(c, u[k]) for k, c in row.items()), F.zero())
            for row in rows], F) for u in W1])

    B = pmap.target
    P = [[Polynomial(B, {B.var_mono(i): D[i][a][b]
                         for i in range(4) if not F.is_zero(D[i][a][b])})
          for b in range(mrank)] for a in range(n)]

    cfree = FreeModule(B, (1,) * n)
    columns = [tuple(P[a][b] for a in range(n)) for b in range(mrank)]
    mgb = module_groebner(columns, cfree)
    H = hilbert_series_quotient(mgb)
    if H.krull_dim > 1:
        raise ArithmeticError(
            f"the presentation's cokernel N has Krull dimension {H.krull_dim} "
            "over the target ring, so it does not live on finitely many "
            "points and has no stable value")

    if n == 0:
        # coker is the zero module: no components to intersect
        ann = Ideal(B, [Polynomial.constant(B, 1)])
    else:
        ann = intersect_many([
            Ideal(B, submodule_colon_component(columns, cfree, j))
            for j in range(n)])

    return PresentationData((l, mrank, n), P, H, ann)


@dataclass
class BoundsItem:
    name: str
    applicable: bool
    holds: Optional[bool]
    detail: str


@dataclass
class SurfaceBoundsVerdict:
    items: List[BoundsItem]

    @property
    def all_hold(self) -> bool:
        return all(it.holds for it in self.items if it.applicable)


def check_surface_bounds(pres: PresentationData, d: int,
                         base_degree: Optional[int] = None,
                         lci: Optional[bool] = None,
                         indeg_sat: Optional[int] = None) -> SurfaceBoundsVerdict:
    """Verify the numerical consequences of the presentation of N.

    deg N = `stable_value` and dim N_s = ``hilbert.hf(s)`` are read off
    the cokernel's Hilbert series.  Always checked: deg N ≤ C(n+2, 3).
    When the base locus is a local complete intersection and
    indeg(I^sat) = d, additionally check that dim N_s = deg N for
    s = n, n+1, n+2 (a regularity witness), the sandwich d(d+1)/2 ≤
    deg(base locus) ≤ d^2-2d+3 and the exact count n = deg(base locus)
    - d(d-1)/2 together with d ≤ n ≤ d(d-3)/2 + 3.  Off those hypotheses
    the window item is not applicable, and its detail still shows the
    dimensions it read.
    """
    l, mrank, n = pres.ranks
    items = []
    strict = bool(lci) and indeg_sat == d
    why_not = ("requires a local complete intersection base locus with "
               f"indeg(I^sat) = d (got lci={lci}, indeg={indeg_sat})")

    stable = pres.stable_value
    dims = [pres.hilbert.hf(s) for s in range(n, n + 3)]
    constant = all(v == stable for v in dims)
    window = (f"dims on [n, n+2] = {dims}"
              + (f", constant at {stable}" if constant else ", not constant"))
    items.append(BoundsItem(
        "regularity_window", strict, constant if strict else None,
        window if strict else f"{window}; {why_not}"))

    cap = comb(n + 2, 3)
    items.append(BoundsItem(
        "module_degree_cap", True, stable <= cap,
        f"deg N = {stable} ≤ C(n+2,3) = {cap}"))

    if base_degree is None or not strict:
        items.append(BoundsItem("base_degree_sandwich", False, None, why_not
                                if not strict else "base locus degree unavailable"))
        items.append(BoundsItem("rank_formula", False, None, why_not
                                if not strict else "base locus degree unavailable"))
    else:
        lo, hi = d * (d + 1) // 2, d * d - 2 * d + 3
        items.append(BoundsItem(
            "base_degree_sandwich", True, lo <= base_degree <= hi,
            f"{lo} ≤ deg(base locus) = {base_degree} ≤ {hi}"))
        expected_n = base_degree - d * (d - 1) // 2
        n_hi = d * (d - 3) // 2 + 3
        items.append(BoundsItem(
            "rank_formula", True, n == expected_n and d <= n <= n_hi,
            f"n = {n}, deg(base locus) - d(d-1)/2 = {expected_n}, bounds [{d}, {n_hi}]"))

    return SurfaceBoundsVerdict(items)
