"""Slow or closed-form references the tests compare the package against.

Each one computes by a route independent of the code under test, or by
the textbook definition, and none is used by the package itself.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from mapfibers import linalg
from mapfibers.cohomology import dual_map_rows
from mapfibers.fields import PrimeField
from mapfibers.fibers import _specialize, fiber_ideal
from mapfibers.ideals import (Ideal, eliminate, exact_divide,
                              extend_polynomial, intersect, saturate_variable)
from mapfibers.modules import (FreeModule, FreeModuleMap, FreeResolution,
                               generator_map, kernel_of_free_map,
                               minimal_generators, vector_degree)
from mapfibers.poly import Polynomial


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def substitute_term_at_a_time(f, assignment):
    """f with the variables of ``assignment`` replaced at once by their
    values: each term multiplied out on its own and added into the running
    sum, with no power shared between terms."""
    ring = f.ring
    out = Polynomial.zero(ring)
    for m, c in f.terms.items():
        residual = list(m)
        piece = Polynomial.constant(ring, 1).scale(c)
        for i, e in enumerate(m):
            if e and i in assignment:
                residual[i] = 0
                piece = piece * assignment[i] ** e
        out = out + piece * Polynomial(ring, {tuple(residual): ring.field.one()})
    return out


def colon(I, f):
    """(I : f) = { g : g·f ∈ I }, through I ∩ (f)."""
    if f.is_zero():
        raise ZeroDivisionError("colon by zero")
    inter = intersect(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [exact_divide(g, f) for g in inter.generators])


def saturate_element(I, f):
    """(I : f^∞) by the inverse-adjunction trick: eliminate w from
    I + (w·f − 1) in R[w].  Needs no homogeneity."""
    R = I.ring
    big = R.extend(("_w",))
    w = Polynomial.variable(big, big.nvars - 1)
    one = Polynomial.constant(big, R.field.one())
    gens = [extend_polynomial(g, big) for g in I.generators]
    gens.append(w * extend_polynomial(f, big) - one)
    return eliminate(Ideal(big, gens), (big.nvars - 1,))


def hypersurface_hdim(d_f, mu, m):
    """dim H^m_𝔪(R/(f))_μ for a degree-d_f form in m+1 variables, in
    closed form."""
    if d_f < 1:
        raise ValueError("hypersurface degree must be positive")
    t = d_f - m - 1 - mu
    if mu > d_f - m - 1:
        return 0
    full = comb(t + m, m)
    cut = comb(t - d_f + m, m) if t - d_f + m >= 0 else 0
    return full - cut


def fibers_agree(pmap, y):
    """Do the graph fiber and the symmetric-algebra fiber (𝔓₁ specialized)
    agree at y (after saturating the irrelevant ideal away)?"""
    sym = Ideal(pmap.source, _specialize(pmap, y, pmap.rees.linear_part))
    return fiber_ideal(pmap, y).saturation() == sym.saturation()


def lci_proxy_by_variable(pmap):
    """The lci proxy 𝔓 ⊆ J1 : 𝔪^∞ (J1 = 𝔓₁·S) decided by the definition
    𝔪^∞-torsion = X_i^∞-torsion for every i: for each source variable X_i
    in order, whether 𝔓 ⊆ J1 : X_i^∞.  The proxy holds when all do."""
    rd = pmap.rees
    J1 = Ideal(rd.ambient, rd.linear_part)
    return [rd.rees.is_subideal_of(saturate_variable(J1, i))
            for i in range(pmap.source.nvars)]


def cofactor_det(M, ring):
    """Determinant of a square polynomial matrix by the textbook cofactor
    expansion along the first row, with nothing shared; 1 for 0 × 0."""
    if not M:
        return Polynomial.constant(ring, 1)
    det = Polynomial.zero(ring)
    for c, entry in enumerate(M[0]):
        sub = [row[:c] + row[c + 1:] for row in M[1:]]
        term = entry * cofactor_det(sub, ring)
        det = det + term if c % 2 == 0 else det - term
    return det


def top_cycle_reference(pmap):
    """For the four forms of a map P^2 ⇢ P^3: the generator degrees of the
    top Koszul cycle module Z_3 = ker(d_3: K_3 → K_2) and
    dim Hom(Z_3, R)_{−3d−1}, with d_3 built by the Koszul formula
    d_3(e_J) = Σ_k (−1)^k f_{J[k]} e_{J∖J[k]}."""
    ring, d, forms = pmap.source, pmap.d, pmap.forms
    pairs = list(combinations(range(4), 2))
    triples = list(combinations(range(4), 3))
    matrix = [[Polynomial.zero(ring)] * len(triples) for _ in pairs]
    for c, J in enumerate(triples):
        for k, j in enumerate(J):
            matrix[pairs.index(J[:k] + J[k + 1:])][c] = \
                forms[j] if k % 2 == 0 else -forms[j]
    K3 = FreeModule(ring, (3 * d,) * len(triples))
    d3 = FreeModuleMap(K3, FreeModule(ring, (2 * d,) * len(pairs)), matrix)
    z3 = kernel_of_free_map(d3)
    cover = generator_map(z3, K3)
    syzygies = generator_map(kernel_of_free_map(cover), cover.source)
    return ([vector_degree(v, K3.shifts) for v in z3],
            len(linalg.nullspace(*dual_map_rows(syzygies, -3 * d - 1),
                                 ring.field)))


def iterated_kernel_resolution(gens):
    """Minimal graded free resolution of R/(gens) by iterated kernels: the
    minimal generators of (gens), then the minimal generators of each
    kernel, read off a position-over-term graph basis."""
    gens = [g for g in gens if not g.is_zero()]
    ring = gens[0].ring
    F0 = FreeModule(ring, (0,))
    maps = [generator_map(minimal_generators([(g,) for g in gens], F0), F0)]
    while len(maps) < ring.nvars:
        ker = kernel_of_free_map(maps[-1])
        if not ker:
            break
        maps.append(generator_map(ker, maps[-1].source))
    return FreeResolution([F0] + [phi.source for phi in maps], maps)


# dense exact elimination: the column-by-column echelon `linalg` used
# before it went sparse; rows are lists of field elements

def _int_rows(rows):
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append(_strip_row([x.numerator * (den // x.denominator)
                               for x in row]))
    return out


def _strip_row(r):
    g = 0
    for x in r:
        g = gcd(g, x)
    return [x // g for x in r] if g > 1 else r


def _echelon_qq(rows):
    """Fraction-free echelon of integer rows, pivoting column by column
    on the smallest entry; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    pivots, done = [], []
    col = 0
    while rows and col < ncols:
        live = [i for i, r in enumerate(rows) if r[col]]
        if not live:
            col += 1
            continue
        piv = rows.pop(min(live, key=lambda i: abs(rows[i][col])))
        pv = piv[col]
        nxt = []
        for r in rows:
            if r[col]:
                g = gcd(pv, r[col])
                a, b = pv // g, r[col] // g
                r = _strip_row([a * x - b * y for x, y in zip(r, piv)])
            if any(r):
                nxt.append(r)
        rows = nxt
        done.append(piv)
        pivots.append(col)
        col += 1
    return done, pivots


def _echelon_gf(rows, p):
    rows = [r for r in ([int(x) % p for x in r] for r in rows) if any(r)]
    ncols = len(rows[0]) if rows else 0
    pivots, done = [], []
    col = 0
    while rows and col < ncols:
        pr = next((i for i, r in enumerate(rows) if r[col]), None)
        if pr is None:
            col += 1
            continue
        piv = rows.pop(pr)
        inv = pow(piv[col], p - 2, p)
        piv = [(x * inv) % p for x in piv]
        rows = [[(x - r[col] * y) % p for x, y in zip(r, piv)]
                if r[col] else r for r in rows]
        rows = [r for r in rows if any(r)]
        done.append(piv)
        pivots.append(col)
        col += 1
    return done, pivots


def _dense_echelon(rows, field):
    if isinstance(field, PrimeField):
        return _echelon_gf(rows, field.p)
    return _echelon_qq(_int_rows(rows))


def dense_pivot_columns(rows, field):
    """Ascending indices of the columns of the dense matrix ``rows`` that
    are not in the span of the columns before them."""
    return _dense_echelon(rows, field)[1]


def dense_rank_nullspace(rows, ncols, field):
    """The rank of the dense matrix ``rows`` and a basis of {x : A·x = 0}
    by back-substitution on its echelon: one vector per free column, 1
    there over GF(p) and made a primitive integer vector over QQ."""
    ech, pivots = _dense_echelon(rows, field)
    p = field.p if isinstance(field, PrimeField) else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols if p else [Fraction(0)] * ncols
        x[fc] = 1
        for r, pc in reversed(list(zip(ech, pivots))):
            s = sum(r[c] * x[c] for c in range(pc + 1, ncols))
            x[pc] = -s % p if p else -Fraction(s) / r[pc]
        if not p:
            den = 1
            for v in x:
                den = den * v.denominator // gcd(den, v.denominator)
            x = [Fraction(v) for v in _strip_row([int(v * den) for v in x])]
        basis.append(x)
    return len(pivots), basis
