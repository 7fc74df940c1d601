"""Graded free modules, kernels, and resolutions, on top of `groebner`.

Module elements are tuples of Polynomial, one per free-module component,
and a submodule's Gröbner basis is `groebner.GroebnerBasis` with the free
module's shifts.  There is one order: position over term, component 0
first, with grevlex underneath.  This module holds the one copy of each
graded-module primitive the package uses: minimal generators (a Gröbner
basis per degree, rebuilt only when the kept set has grown;
`Ideal.minimal_basis` is the rank-one call), the generator map
⊕_j R(−deg g_j) → F of a list of vectors, and the graph submodule
{(M(e_c), e_c)} of target ⊕ source.  A map builds its graph basis once
(`FreeModuleMap.graph`), and it gives both the kernel (by elimination of
the target components, `kernel_of_free_map`) and lifts through the map
(`FreeModuleMap.lift`, by normal form).

Resolutions of R/J do not iterate kernels: `free_resolution` runs
Schreyer's algorithm on the reduced grevlex basis of J's packed
generators, in the engine's induced-order layout (one Buchberger run,
then S-pair reductions only), prunes the frame's unit entries to reach
the minimal resolution, and certifies it by the Hilbert numerator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, List, Optional, Sequence

from . import engine, linalg
from .groebner import GroebnerBasis, Vector, induced_context, induced_matrix
from .hilbert import numerator_from_leads
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

    def column(self, c: int) -> Vector:
        return tuple(self.matrix[r][c] for r in range(self.target.rank))

    def apply(self, vec: Vector) -> Vector:
        cols = [self.column(c) for c in range(self.source.rank)]
        out = self.target.zero()
        for c, p in enumerate(vec):
            if not p.is_zero():
                out = vec_add(out, vec_scale(cols[c], p))
        return out

    @cached_property
    def graph(self) -> GroebnerBasis:
        """The basis of the graph {(M(e_c), e_c)} ⊆ target ⊕ source,
        built once for the kernel and every lift."""
        return _graph_basis(self)

    def lift(self, vec: Vector) -> Optional[List[Polynomial]]:
        """Coefficients c with vec = Σ_j c_j·column(j), or None if vec is
        not in the image: a normal form against the graph basis."""
        tr = self.target.rank
        nf = self.graph.normal_form(tuple(vec) + self.source.zero())
        if not vec_is_zero(nf[:tr]):
            return None
        return [-c for c in nf[tr:]]

    def __repr__(self):
        return f"<FreeModuleMap {self.source!r} -> {self.target!r}>"


def module_groebner(vectors: Sequence[Vector], free: FreeModule) -> GroebnerBasis:
    return GroebnerBasis.compute([v for v in vectors if not vec_is_zero(v)],
                                 free.ring, GREVLEX, free.shifts)


def minimal_generators(vectors: Sequence[Vector], free: FreeModule) -> List[Vector]:
    """Minimal homogeneous generating set, greedily by ascending degree.

    Zero vectors drop out; the rest are taken in ascending degree, in input
    order within a degree, and a vector is kept unless the vectors kept
    before it generate it.  One Gröbner basis per degree t decides this for
    all degree-t vectors at once: the normal form modulo the vectors kept in
    lower degrees is k-linear and vanishes exactly on their submodule, so a
    degree-t vector is generated by the earlier ones iff its normal form lies
    in the span of the normal forms of the degree-t vectors before it.
    `linalg.independent` picks those out, with each normal form a row keyed
    by (component, monomial).  The basis is rebuilt only at a degree after
    one that kept a vector.
    """
    by_degree: Dict[int, List[Vector]] = {}
    for v in vectors:
        if not vec_is_zero(v):
            by_degree.setdefault(vector_degree(v, free.shifts), []).append(v)
    chosen: List[Vector] = []
    gb, basis_size = None, 0    # gb is the basis of chosen[:basis_size]
    for t in sorted(by_degree):
        vecs = by_degree[t]
        if len(chosen) > basis_size:
            gb, basis_size = module_groebner(chosen, free), len(chosen)
        forms = vecs if gb is None else [gb.normal_form(v) for v in vecs]
        rows = [{(c, m): a for c, p in enumerate(f) for m, a in p.terms.items()}
                for f in forms]
        chosen += [vecs[j] for j in linalg.independent(rows, free.ring.field)]
    return chosen


def generator_map(gens: Sequence[Vector], free: FreeModule) -> FreeModuleMap:
    """The map ⊕_j R(−deg gens[j]) → free sending e_j to gens[j]; a zero
    vector gets shift 0."""
    shifts = tuple(vector_degree(g, free.shifts) or 0 for g in gens)
    matrix = [[g[r] for g in gens] for r in range(free.rank)]
    return FreeModuleMap(FreeModule(free.ring, shifts), free, matrix)


def _graph_basis(M: FreeModuleMap) -> GroebnerBasis:
    """Gröbner basis of the graph {(M(e_c), e_c)} ⊆ target ⊕ source; the
    target components come first, so they dominate."""
    ring = M.source.ring
    sr = M.source.rank
    combined = FreeModule(ring, M.target.shifts + M.source.shifts)
    one = Polynomial.constant(ring, 1)
    zero = Polynomial.zero(ring)
    graph = [M.column(c) + tuple(one if i == c else zero for i in range(sr))
             for c in range(sr)]
    return module_groebner(graph, combined)


def kernel_of_free_map(M: FreeModuleMap) -> List[Vector]:
    """Minimal homogeneous generators of ker(M): the elements of M's graph
    basis with vanishing target part, which are those with a lead in a
    source component (the target components dominate)."""
    tr = M.target.rank
    gb = M.graph
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


# Room in the index field of the induced orders for the basis elements of
# one module of a Schreyer resolution.
INDEX_BITS = 24


def free_resolution(J) -> FreeResolution:
    """Minimal graded free resolution of R/J for an `Ideal` J with
    homogeneous generators, by Schreyer's algorithm.

    F_1 = ⊕ R(−deg g_i) maps onto the reduced grevlex basis G of J,
    computed here from J's packed generators (`Ideal.packed`) with no
    Hilbert hint and nothing shared with J's own bases; each further
    module is the Schreyer frame of the previous one
    (`engine.schreyer_syzygies`), whose syzygies are already a Gröbner
    basis, so no Buchberger run follows the first.  The frame is then
    pruned of its unit entries (`_prune`), which leaves the minimal
    resolution.  Certificate: Σ_k (−1)^k Σ_c z^{shift} over the pruned
    modules must equal the Hilbert numerator of R/J read off G's leads,
    else ArithmeticError.
    """
    ring = J.ring
    src, packed = J.packed()
    if not packed:
        raise ValueError("no nonzero generators")
    if any(src.deg(k) != src.deg(t[0][0]) for t, _ in packed for k, _ in t):
        raise ValueError("a graded resolution needs homogeneous generators")
    gb = GroebnerBasis.from_terms([t for t, _ in packed], src, ring, GREVLEX)
    ctx = induced_context(ring, INDEX_BITS)
    top, imask = ctx.rank_bits[0], ctx.index_mask
    # the index field lies below every field of the plain layout, so a
    # plain key shifted past it is the same monomial's key at index 0
    elems = [[((k << INDEX_BITS) + top, c) for k, c in t] for t in gb.raw]
    levels = []         # levels[k - 1]: the columns of d_k in F_k's order
    while elems:
        if len(levels) == ring.nvars:
            raise ArithmeticError("the Schreyer frame is longer than the "
                                  "number of variables")
        elems, syz = engine.schreyer_syzygies(elems, ctx)
        levels.append(elems)
        elems = [[(k + top, c) for k, c in s] for s in syz]
    # basis element c of F_k stands for the monomial of the lead of column
    # c of d_k; F_0's one element for 1
    bases = [[ctx.one]] + [[g[0][0] - top - (g[0][0] & imask) for g in lev]
                           for lev in levels]
    cols = [[{}]] + [[{k - top: c for k, c in g} for g in lev]
                     for lev in levels]
    scales = _prune(cols, bases, ctx)

    modules = [FreeModule(ring, (0,))]
    maps = []
    for k in range(1, len(cols)):
        keep = [c for c, col in enumerate(cols[k]) if col is not None]
        if not keep:
            break
        rows = {r: i for i, r in enumerate(
            c for c, col in enumerate(cols[k - 1]) if col is not None)}
        source = FreeModule(ring, [ctx.deg(bases[k][c]) for c in keep])
        matrix = induced_matrix(
            [cols[k][c] for c in keep], ctx, ring, rows,
            {r: ctx.exps(bases[k - 1][r]) for r in rows}, scales[k - 1])
        maps.append(FreeModuleMap(source, modules[-1], matrix))
        modules.append(source)

    euler: Dict[int, int] = {}
    for k, fm in enumerate(modules):
        for a in fm.shifts:
            euler[a] = euler.get(a, 0) + (-1) ** k
    want = numerator_from_leads([lead for _, lead in gb.leading_terms()],
                                ring.nvars)
    if {a: c for a, c in euler.items() if c} != want:
        raise ArithmeticError("the Betti numbers of the resolution miss the "
                              "Hilbert numerator of R/J")
    return FreeResolution(modules, maps)


def _prune(cols: List[List[Optional[dict]]], bases: List[List[int]],
           ctx) -> List[Dict[int, Fraction]]:
    """Prune a free resolution of its unit entries, in place.

    ``cols[k]`` holds the columns of d_k as {key: coeff} in the induced
    layout (a key's index field names its row, the basis element r of
    F_{k−1}, and the key is that of x^a · bases[k−1][r]).  A unit entry u
    at (r, c) of d_k splits off R·e_c → R·d(e_c): every other column loses
    its row-r entries by column operations with column c, then column c
    and row r of d_k, column r of d_{k−1} and row c of d_{k+1} go; a
    deleted column is set to None.  No unit appears in a column already
    passed over (it would have had one at row r), so one pass per map
    leaves a minimal resolution.  d_1 keeps its columns: G has no unit
    entry unless (gens) = R, whose resolution R ← R stays as it is.

    Over QQ the columns stay integral: eliminating with u·col′ − β·x^w·col
    replaces e_c′ by a multiple of itself, and the returned
    ``scales[k][c′]`` is the number by which row c′ of d_{k+1} must then
    be divided.
    """
    mod, imask = ctx.mod, ctx.index_mask
    scales: List[Dict[int, Fraction]] = [{} for _ in cols]
    for k in range(2, len(cols)):
        Dk, base = cols[k], bases[k - 1]
        dead = {r for r, col in enumerate(cols[k - 1]) if col is None}
        rowcols: Dict[int, set] = {}
        for c, col in enumerate(Dk):
            for key in [key for key in col if key & imask in dead]:
                del col[key]
            for key in col:
                rowcols.setdefault(key & imask, set()).add(c)
        for c, col in enumerate(Dk):
            piv = next((key for key in col
                        if key - (key & imask) == base[key & imask]), None)
            if piv is None:
                continue
            r, u = piv & imask, col[piv]
            for c2 in rowcols.pop(r) - {c}:
                col2 = Dk[c2]
                if col2 is None:
                    continue
                hits = [(key - piv, v) for key, v in col2.items()
                        if key & imask == r]
                if not hits:
                    continue
                a = _eliminate(col2, col, u, hits, mod)
                if a != 1:
                    scales[k][c2] = scales[k].get(c2, 1) * a
                for key in col:
                    rowcols.setdefault(key & imask, set()).add(c2)
            Dk[c] = None
            cols[k - 1][r] = None
    return scales


def _eliminate(col2: dict, col: dict, u: int, hits, mod) -> Fraction:
    """col2 −= Σ (β/u)·x^w·col over the (key of x^w, β) in ``hits``, in
    place; over QQ col2 is first multiplied by a = u / gcd(u, β…), which
    keeps it integral, and then by 1 / its content.  Returns the factor
    col2 was multiplied by (1 over GF(p)).  col2 may end zero: its basis
    element then lies in the image of the next map, which has a unit in
    its row."""
    get, pop = col2.get, col2.pop
    if mod is not None:
        inv = pow(u, mod - 2, mod)
        for d, beta in hits:
            f = beta * inv % mod
            for key, v in col.items():
                key += d
                w = (get(key, 0) - f * v) % mod
                if w:
                    col2[key] = w
                else:
                    pop(key, None)
        return 1
    g = gcd(u, *(beta for _, beta in hits))
    a = u // g
    if a != 1:
        for key in col2:
            col2[key] *= a
    for d, beta in hits:
        b = beta // g
        for key, v in col.items():
            key += d
            w = get(key, 0) - b * v
            if w:
                col2[key] = w
            else:
                pop(key, None)
    content = gcd(*col2.values())
    if content > 1:
        for key in col2:
            col2[key] //= content
    return Fraction(a, content or 1)


def submodule_colon_component(vectors: Sequence[Vector], free: FreeModule, j: int) -> List[Polynomial]:
    """Generators of (U : e_j) = {b : b·e_j ∈ U} for U = ⟨vectors⟩.

    Component j is moved last, where position over term ranks it least,
    so the basis elements with a lead in it, which are supported entirely
    on it, cut out U ∩ R·e_j.
    """
    order = [c for c in range(free.rank) if c != j] + [j]
    moved = FreeModule(free.ring, [free.shifts[c] for c in order])
    gb = module_groebner([tuple(v[c] for c in order) for v in vectors], moved)
    last = free.rank - 1
    return [v[last] for v in gb.select(lambda k: gb.ctx.comp(k) == last)]
