"""Graded free modules, kernels, and resolutions, on top of `groebner`.

Module elements are tuples of Polynomial, one per free-module component,
and a submodule's Gröbner basis is `groebner.GroebnerBasis` with the free
module's shifts.  Orders are position-over-term with a configurable
component priority and grevlex underneath.  This module holds the one copy
of each graded-module primitive the package uses: minimal generators (a
Gröbner basis per degree, rebuilt only when the kept set has grown;
`Ideal.minimal_basis` is the rank-one call), the generator map
⊕_j R(−deg g_j) → F of a list of vectors, and the graph submodule
{(M(e_c), e_c)} of target ⊕ source, whose basis gives both kernels (by
elimination of the target components) and lifts through a map
(`FreeModuleMap.lift`, by normal form).  A lift keeps its graph basis on
the map for later lifts; `kernel_of_free_map` keeps none.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from . import linalg
from .groebner import GroebnerBasis, Vector
from .poly import Polynomial
from .rings import GREVLEX, RingDescriptor


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
        self._graph: Optional[GroebnerBasis] = None

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

    def lift(self, vec: Vector) -> Optional[List[Polynomial]]:
        """Coefficients c with vec = Σ_j c_j·column(j), or None if vec is
        not in the image: a normal form against the graph basis, which is
        built on the first lift and kept for the later ones."""
        if self._graph is None:
            self._graph = _graph_basis(self)
        tr = self.target.rank
        nf = self._graph.normal_form(tuple(vec) + self.source.zero())
        if not vec_is_zero(nf[:tr]):
            return None
        return [-c for c in nf[tr:]]

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
                    comp_rank=None) -> GroebnerBasis:
    return GroebnerBasis.compute([v for v in vectors if not vec_is_zero(v)],
                                 free.ring, GREVLEX, free.shifts, comp_rank)


def minimal_generators(vectors: Sequence[Vector], free: FreeModule) -> List[Vector]:
    """Minimal homogeneous generating set, greedily by ascending degree.

    Zero vectors drop out; the rest are taken in ascending degree, in input
    order within a degree, and a vector is kept unless the vectors kept
    before it generate it.  One Gröbner basis per degree t decides this for
    all degree-t vectors at once: the normal form modulo the vectors kept in
    lower degrees is k-linear and vanishes exactly on their submodule, so a
    degree-t vector is generated by the earlier ones iff its normal form lies
    in the span of the normal forms of the degree-t vectors kept before it,
    and the kept vectors are the pivot columns of the normal forms.  The
    basis is rebuilt only at a degree after one that kept a vector.
    """
    by_degree: Dict[int, List[Vector]] = {}
    for v in vectors:
        if not vec_is_zero(v):
            by_degree.setdefault(vector_degree(v, free.shifts), []).append(v)
    zero = free.ring.field.zero()
    chosen: List[Vector] = []
    gb, basis_size = None, 0    # gb is the basis of chosen[:basis_size]
    for t in sorted(by_degree):
        vecs = by_degree[t]
        if len(chosen) > basis_size:
            gb, basis_size = module_groebner(chosen, free), len(chosen)
        forms = vecs if gb is None else [gb.normal_form(v) for v in vecs]
        coords = sorted({(c, m) for f in forms
                         for c, p in enumerate(f) for m in p.terms})
        rows = [[f[c].terms.get(m, zero) for f in forms] for c, m in coords]
        chosen += [vecs[j] for j in linalg.pivot_columns(rows, free.ring.field)]
    return chosen


def generator_map(gens: Sequence[Vector], free: FreeModule) -> FreeModuleMap:
    """The map ⊕_j R(−deg gens[j]) → free sending e_j to gens[j]; a zero
    vector gets shift 0."""
    shifts = tuple(vector_degree(g, free.shifts) or 0 for g in gens)
    matrix = [[g[r] for g in gens] for r in range(free.rank)]
    return FreeModuleMap(FreeModule(free.ring, shifts), free, matrix)


def _graph_basis(M: FreeModuleMap) -> GroebnerBasis:
    """Gröbner basis of the graph {(M(e_c), e_c)} ⊆ target ⊕ source, in an
    order where the target components dominate the source components."""
    ring = M.source.ring
    tr, sr = M.target.rank, M.source.rank
    combined = FreeModule(ring, M.target.shifts + M.source.shifts)
    one = Polynomial.constant(ring, 1)
    zero = Polynomial.zero(ring)
    graph = [M.column(c) + tuple(one if i == c else zero for i in range(sr))
             for c in range(sr)]
    comp_rank = tuple(range(tr + sr - 1, sr - 1, -1)) + tuple(range(sr - 1, -1, -1))
    return module_groebner(graph, combined, comp_rank=comp_rank)


def kernel_of_free_map(M: FreeModuleMap) -> List[Vector]:
    """Minimal homogeneous generators of ker(M): the graph-basis elements
    with vanishing target part, which are those with a lead in a source
    component (the target components dominate)."""
    tr = M.target.rank
    gb = _graph_basis(M)
    kernel = [v[tr:] for v in gb.select(lambda k: gb.ctx.comp(k) >= tr)]
    return minimal_generators(kernel, M.source) if kernel else []


class FreeResolution:
    """Graded free resolution F_len → … → F_1 → F_0 (exact except at 0)."""

    def __init__(self, modules: List[FreeModule], maps: List[FreeModuleMap]):
        self.modules = modules
        self.maps = maps       # maps[i]: modules[i+1] -> modules[i]

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def __repr__(self):
        return " <- ".join(repr(fm) for fm in self.modules)


def free_resolution(gens: Sequence[Polynomial]) -> FreeResolution:
    """Minimal graded free resolution of R/(gens) via iterated kernels."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    F0 = FreeModule(ring, (0,))
    maps = [generator_map(minimal_generators([(g,) for g in gens], F0), F0)]
    while len(maps) < ring.nvars:
        ker = kernel_of_free_map(maps[-1])
        if not ker:
            break
        maps.append(generator_map(ker, maps[-1].source))
    return FreeResolution([F0] + [phi.source for phi in maps], maps)


def submodule_colon_component(vectors: Sequence[Vector], free: FreeModule, j: int) -> List[Polynomial]:
    """Generators of (U : e_j) = {b : b·e_j ∈ U} for U = ⟨vectors⟩.

    Uses a component-elimination order with component j least significant,
    so the basis elements with a lead in component j, which are supported
    entirely on it, cut out U ∩ R·e_j.
    """
    rank = free.rank
    comp_rank = tuple(0 if c == j else (rank - c) for c in range(rank))
    gb = module_groebner(vectors, free, comp_rank=comp_rank)
    return [v[j] for v in gb.select(lambda k: gb.ctx.comp(k) == j)]
