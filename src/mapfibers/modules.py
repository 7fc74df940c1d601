"""Graded free modules, kernels, and resolutions, on top of `groebner`.

Module elements are tuples of Polynomial, one per free-module component,
and a submodule's Gröbner basis is `groebner.GroebnerBasis` with the free
module's shifts.  Orders are position-over-term with a configurable
component priority and grevlex underneath; kernels are computed by the
standard elimination trick on the graph submodule {(M(e_c), e_c)} of
target ⊕ source.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .groebner import GroebnerBasis, Vector
from .poly import Polynomial
from .rings import GREVLEX, RingDescriptor, TermOrder


class FreeModule:
    """R^rank with per-component degree shifts: ⊕_c R(−shifts[c])."""

    def __init__(self, ring: RingDescriptor, shifts: Sequence[int]):
        self.ring = ring
        self.shifts = tuple(shifts)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def zero(self) -> Vector:
        return tuple(Polynomial.zero(self.ring) for _ in self.shifts)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.shifts == other.shifts)

    def __repr__(self):
        from collections import Counter
        parts = [f"R(-{a})^{k}" if k > 1 else f"R(-{a})"
                 for a, k in sorted(Counter(self.shifts).items())]
        return " + ".join(parts) if parts else "0"


def vector_degree(vec: Vector, shifts: Sequence[int]) -> Optional[int]:
    """Degree of a homogeneous vector under the shifts; None if zero."""
    degs = set()
    for c, p in enumerate(vec):
        if not p.is_zero():
            if not p.is_homogeneous():
                raise ValueError("vector component is not homogeneous")
            degs.add(p.degree() + shifts[c])
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"vector is not homogeneous: component degrees {sorted(degs)}")
    return degs.pop()


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(a: Vector, p: Polynomial) -> Vector:
    return tuple(p * x for x in a)


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero() for x in a)


class FreeModuleMap:
    """Graded map source → target given by a target.rank × source.rank matrix."""

    def __init__(self, source: FreeModule, target: FreeModule, matrix: Sequence[Sequence[Polynomial]]):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]
        if len(self.matrix) != target.rank or any(len(r) != source.rank for r in self.matrix):
            raise ValueError("matrix shape does not match module ranks")

    def column(self, c: int) -> Vector:
        return tuple(self.matrix[r][c] for r in range(self.target.rank))

    def apply(self, vec: Vector) -> Vector:
        cols = [self.column(c) for c in range(self.source.rank)]
        out = self.target.zero()
        for c, p in enumerate(vec):
            if not p.is_zero():
                out = vec_add(out, vec_scale(cols[c], p))
        return out

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.matrix for p in row)

    def check_homogeneous(self) -> bool:
        for r in range(self.target.rank):
            for c in range(self.source.rank):
                p = self.matrix[r][c]
                if p.is_zero():
                    continue
                if not p.is_homogeneous() or p.degree() != self.source.shifts[c] - self.target.shifts[r]:
                    return False
        return True

    def __repr__(self):
        return f"<FreeModuleMap {self.source!r} -> {self.target!r}>"


def module_groebner(vectors: Sequence[Vector], free: FreeModule,
                    comp_rank=None, order: TermOrder = GREVLEX) -> GroebnerBasis:
    return GroebnerBasis([v for v in vectors if not vec_is_zero(v)], free.ring,
                         order, free.shifts, comp_rank)


def minimal_generators(vectors: Sequence[Vector], free: FreeModule) -> List[Vector]:
    """Minimal homogeneous generating set, greedily by ascending degree."""
    vecs = [v for v in vectors if not vec_is_zero(v)]
    vecs.sort(key=lambda v: vector_degree(v, free.shifts))
    chosen: List[Vector] = []
    gb = None
    for v in vecs:
        if gb is not None and gb.contains(v):
            continue
        chosen.append(v)
        gb = module_groebner(chosen, free)
    return chosen


def kernel_of_free_map(M: FreeModuleMap, minimalize: bool = True) -> List[Vector]:
    """Homogeneous generators of ker(M) via the graph-module elimination."""
    ring = M.source.ring
    tr, sr = M.target.rank, M.source.rank
    combined = FreeModule(ring, M.target.shifts + M.source.shifts)
    one = Polynomial.constant(ring, 1)
    zero = Polynomial.zero(ring)
    gens = []
    for c in range(sr):
        col = M.column(c)
        aug = tuple(one if i == c else zero for i in range(sr))
        gens.append(col + aug)
    # target components strictly dominate source components
    comp_rank = tuple(range(tr + sr - 1, sr - 1, -1)) + tuple(range(sr - 1, -1, -1))
    gb = module_groebner(gens, combined, comp_rank=comp_rank)
    kernel = []
    for v in gb.vectors:
        if all(v[i].is_zero() for i in range(tr)):
            kernel.append(tuple(v[tr:]))
    if minimalize and kernel:
        kernel = minimal_generators(kernel, M.source)
    return kernel


def lift_through_generators(vec: Vector, gens: Sequence[Vector],
                            free: FreeModule) -> Optional[List[Polynomial]]:
    """Coefficients c with vec = Σ c_i gens[i], or None if not in the module."""
    ring = free.ring
    tr = free.rank
    sr = len(gens)
    combined = FreeModule(ring, free.shifts + tuple(
        vector_degree(g, free.shifts) or 0 for g in gens))
    one = Polynomial.constant(ring, 1)
    zero = Polynomial.zero(ring)
    graph = []
    for c, g in enumerate(gens):
        aug = tuple(one if i == c else zero for i in range(sr))
        graph.append(tuple(g) + aug)
    comp_rank = tuple(range(tr + sr - 1, sr - 1, -1)) + tuple(range(sr - 1, -1, -1))
    gb = module_groebner(graph, combined, comp_rank=comp_rank)
    nf = gb.normal_form(tuple(vec) + tuple(zero for _ in range(sr)))
    if any(not nf[i].is_zero() for i in range(tr)):
        return None
    return [-nf[tr + i] for i in range(sr)]


class FreeResolution:
    """Graded free resolution F_len → … → F_1 → F_0 (exact except at 0)."""

    def __init__(self, modules: List[FreeModule], maps: List[FreeModuleMap]):
        self.modules = modules
        self.maps = maps       # maps[i]: modules[i+1] -> modules[i]

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def betti(self) -> List[List[Tuple[int, int]]]:
        """Per homological position, sorted (shift, multiplicity) pairs."""
        from collections import Counter
        out = []
        for fm in self.modules:
            out.append(sorted(Counter(fm.shifts).items()))
        return out

    def __repr__(self):
        return " <- ".join(repr(fm) for fm in self.modules)


def free_resolution(gens: Sequence[Polynomial], max_length: Optional[int] = None) -> FreeResolution:
    """Minimal graded free resolution of R/(gens) via iterated kernels."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    F0 = FreeModule(ring, (0,))
    as_vectors = [(g,) for g in gens]
    min_gens = minimal_generators(as_vectors, F0)
    cap = ring.nvars if max_length is None else min(max_length, ring.nvars + 1)
    shifts1 = tuple(vector_degree(v, F0.shifts) for v in min_gens)
    F1 = FreeModule(ring, shifts1)
    phi1 = FreeModuleMap(F1, F0, [[v[0] for v in min_gens]])
    modules = [F0, F1]
    maps = [phi1]
    while len(maps) < cap:
        ker = kernel_of_free_map(maps[-1])
        if not ker:
            break
        prev = modules[-1]
        shifts = tuple(vector_degree(v, prev.shifts) for v in ker)
        Fk = FreeModule(ring, shifts)
        matrix = [[ker[c][r] for c in range(len(ker))] for r in range(prev.rank)]
        phi = FreeModuleMap(Fk, prev, matrix)
        modules.append(Fk)
        maps.append(phi)
    return FreeResolution(modules, maps)


def submodule_colon_component(vectors: Sequence[Vector], free: FreeModule, j: int) -> List[Polynomial]:
    """Generators of (U : e_j) = {b : b·e_j ∈ U} for U = ⟨vectors⟩.

    Uses a component-elimination order with component j least significant,
    so basis elements supported entirely on component j cut out U ∩ R·e_j.
    """
    rank = free.rank
    comp_rank = tuple(0 if c == j else (rank - c) for c in range(rank))
    gb = module_groebner(vectors, free, comp_rank=comp_rank)
    out = []
    for v in gb.vectors:
        if all(v[c].is_zero() for c in range(rank) if c != j):
            if not v[j].is_zero():
                out.append(v[j])
    return out
