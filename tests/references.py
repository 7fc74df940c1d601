"""Slow or closed-form references the tests compare the package against.

Each one computes by a route independent of the code under test, or by
the textbook definition, and none is used by the package itself.
"""

from math import comb

from mapfibers.fibers import _specialize, fiber_ideal
from mapfibers.ideals import (Ideal, eliminate, exact_divide,
                              extend_polynomial, intersect)
from mapfibers.modules import (FreeModule, FreeResolution, generator_map,
                               kernel_of_free_map, minimal_generators)
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
    return eliminate(Ideal(big, gens), (big.nvars - 1,))[0]


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
