"""Fiber analysis for rational maps between projective spaces.

A map φ: P^m --> P^n is given by n+1 forms of equal degree d with gcd 1.
The central objects are the Rees ideal 𝔓 (the defining ideal of the closed
graph), its specializations at target points y (the fibers of the graph
projection), and for each fiber of dimension m-1 the unmixed divisor

    h_y = gcd(f_0 - p_0 f_i, ..., f_n - p_n f_i),     y = (p_0 : ... : p_n),

where i is the pivot with p_i = 1.  `find_one_dim_fibers` assembles the full
inventory of (m-1)-dimensional fibers by two routes: a saturation/gcd search
through the powers I^s (sound for any m, restricted here to divisors that
factor into rational linear forms) and, for m = 2, the support of the
presented module N from `approx`, which is complete when the base locus is a
local complete intersection.  `check_divisor_degree_bound` verifies the
headline inequality Σ_y deg h_y ≤ indeg((I^s)^sat) < sd whenever some power
realizes it.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .approx import (PresentationData, minors, presentation_applies,
                     presentation_matrix_N)
from .groebner import normal_form
from .ideals import (Ideal, eliminate, exact_divide,
                     extend_polynomial, ideal_power, poly_gcd_list,
                     restrict_polynomial, saturate_variable)
from .modules import FreeModule, FreeModuleMap, Vector, kernel_of_free_map
from .poly import Polynomial
from .rings import RingDescriptor, elimination_order, standard_ring
from .solve import PointProjective, _affine_points, rational_points_zero_dim


class NotGenericallyFiniteError(ValueError):
    """The closed image has dimension < m, so the generic fiber is positive-
    dimensional and the (m-1)-fiber inventory is not defined."""

    def __init__(self, image_dimension: int, expected: int):
        self.image_dimension = image_dimension
        self.expected = expected
        super().__init__(
            f"map is not generically finite: image dimension "
            f"{image_dimension} < source dimension {expected}")


@dataclass(frozen=True)
class ParameterizedMap:
    """A rational map P^m --> P^n: n+1 forms of common degree d, gcd 1.

    The map is immutable and owns every object derived from it: each is
    computed on first use and then shared by all stages of the analysis.
    """
    source: RingDescriptor
    target: RingDescriptor
    forms: Tuple[Polynomial, ...]
    d: int
    common_factor: Optional[Polynomial] = None   # divided out by build_map
    _powers: Dict[int, Ideal] = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.source.nvars - 1

    @property
    def n(self) -> int:
        return len(self.forms) - 1

    @cached_property
    def base_ideal(self) -> Ideal:
        """I = (f_0, ..., f_n); zero forms drop out."""
        return Ideal(self.source, self.forms)

    def power(self, s: int) -> Ideal:
        """I^s, built once per s; its saturation is memoized on it."""
        if s not in self._powers:
            self._powers[s] = (ideal_power(self.base_ideal, s) if s > 1
                               else self.base_ideal)
        return self._powers[s]

    @cached_property
    def syzygies(self) -> List[Vector]:
        """Syz(f_0, …, f_n): minimal generators of the kernel of
        ⊕_j R(−d) → R, e_j ↦ f_j.  They give both the linear part 𝔓_(*,1)
        of the Rees ideal and the first Koszul cycle module Z_1."""
        return kernel_of_free_map(FreeModuleMap(
            FreeModule(self.source, (self.d,) * len(self.forms)),
            FreeModule(self.source, (0,)), [list(self.forms)]))

    @cached_property
    def rees(self) -> "ReesData":
        return rees_ideal(self)

    @cached_property
    def image(self) -> "ImageData":
        return image_ideal(self)

    @cached_property
    def locus(self) -> Tuple[Ideal, int, int]:
        """`base_locus`: I^sat and the (cone dimension, degree) of V(I)."""
        return base_locus(self)

    @cached_property
    def lci_proxy(self) -> bool:
        """`lci_proxy_check`; True when the base locus is empty."""
        return self.locus[1] <= 0 or lci_proxy_check(self)

    @cached_property
    def presentation(self) -> Tuple[Optional[PresentationData], Optional[str]]:
        """(presentation of N, None) when `presentation_applies` (m = 2
        with four nonzero forms), (None, message) when
        `presentation_matrix_N` raised ArithmeticError (the map misses a
        hypothesis of the rank cross-check, or N has Krull dimension
        above 1), and (None, None) when the construction does not
        apply."""
        if not presentation_applies(self):
            return None, None
        try:
            return presentation_matrix_N(self), None
        except ArithmeticError as exc:
            return None, str(exc)

    @cached_property
    def support(self) -> Tuple[List[PointProjective], bool]:
        """`rational_points_zero_dim` on the annihilator of N: the rational
        support points in solver order and whether they are all of its
        points.  The support V(ann N) is finite: `presentation_matrix_N`
        refuses a cokernel of Krull dimension above 1.  Only defined when
        `presentation` succeeded."""
        return rational_points_zero_dim(self.presentation[0].annihilator)


def build_map(forms: Sequence[Polynomial],
              target_names: Optional[Sequence[str]] = None) -> ParameterizedMap:
    """Validate the forms and divide out their common gcd if nontrivial."""
    forms = list(forms)
    if len(forms) < 2:
        raise ValueError("a map needs at least two forms")
    ring = forms[0].ring
    if ring.nvars < 2:
        raise ValueError("source must be a projective space of dimension ≥ 1")
    live = [f for f in forms if not f.is_zero()]
    if not live:
        raise ValueError("all forms are zero")
    degs = set()
    for f in live:
        if f.ring != ring:
            raise ValueError("forms live in different rings")
        if not f.is_homogeneous():
            raise ValueError("forms must be homogeneous")
        degs.add(f.degree())
    if len(degs) != 1:
        raise ValueError(f"forms must share one degree, got {sorted(degs)}")

    g = poly_gcd_list(live)
    factor = None
    if g.degree() > 0:
        factor = g
        forms = [Polynomial.zero(ring) if f.is_zero() else exact_divide(f, g)
                 for f in forms]
    d = next(f for f in forms if not f.is_zero()).degree()
    if d == 0:
        raise ValueError("map is degenerate: forms are constant after "
                         "dividing out the common factor")
    if target_names is None:
        target_names = tuple(f"T{j}" for j in range(len(forms)))
    shared = [nm for nm in target_names if nm in ring.variables]
    if shared:
        raise ValueError(f"variable {shared[0]!r} names both a source and "
                         f"a target variable")
    target = standard_ring(tuple(target_names), field=ring.field)
    return ParameterizedMap(ring, target, tuple(forms), d, factor)


@dataclass
class ReesData:
    """The Rees ideal 𝔓 ⊂ S = k[X, T] of the graph, with its linear part."""
    ambient: RingDescriptor        # k[X, T], deg X_i = 1, deg T_j = d+1
    rees: Ideal                    # 𝔓
    linear_part: List[Polynomial]  # syzygy forms Σ_j z_j T_j, generate 𝔓_(*,1)


def rees_ideal(pmap: ParameterizedMap) -> ReesData:
    """𝔓 = (T_j - t·f_j : j) ∩ k[X, T], eliminating the auxiliary t.

    The elimination is Hilbert-driven: in lex with the T_j first the
    generators T_j − t·f_j have the pairwise coprime leads T_j, so they
    form a regular sequence of forms of degree d+1 and
    k[X, T, t]/(T_j − t·f_j) ≅ k[X, t], whose series is ∏_j (1 − z^{d+1})
    over the ring's ∏_i (1 − z^{w_i}).  𝔓 comes out holding its grevlex
    basis (`eliminate`).

    The linear part 𝔓_(*,1) comes independently from the map's syzygies
    of (f_0 .. f_n).  Two containments guard the elimination: 𝔓 lies in the
    ideal (T_j − f_j : j) of the graph, and 𝔓_(*,1) lies in 𝔓.  The first
    is tested against the basis of (T_j − f_j) in the elimination order of
    the T block, which is the binomials themselves (their leads T_j are
    pairwise coprime, so no S-pair is formed); the normal form of g there
    is g(X, f).
    """
    R = pmap.source
    nx, nt = R.nvars, len(pmap.forms)
    S = R.extend(pmap.target.variables, pmap.d + 1)
    big = S.adjoin(("t_aux",))
    t = Polynomial.variable(big, big.nvars - 1)
    graph = Ideal(big, [Polynomial.variable(big, nx + j)
                        - t * extend_polynomial(f, big)
                        for j, f in enumerate(pmap.forms)])
    graph.set_known_series({k * (pmap.d + 1): (-1) ** k * comb(nt, k)
                            for k in range(nt + 1)})
    P = eliminate(graph, drop=(big.nvars - 1,))
    if P.ring != S:
        raise ArithmeticError("elimination returned an unexpected ring")

    linear = []
    for z in pmap.syzygies:
        lin = Polynomial.zero(S)
        for j, zj in enumerate(z):
            lin = lin + extend_polynomial(zj, S) * Polynomial.variable(S, nx + j)
        linear.append(lin)

    on_graph = Ideal(S, [Polynomial.variable(S, nx + j) - extend_polynomial(f, S)
                         for j, f in enumerate(pmap.forms)])
    on_graph.groebner(elimination_order(range(nx, nx + nt)))
    if not P.is_subideal_of(on_graph):
        raise ArithmeticError("Rees generator does not vanish on the graph")
    if not Ideal(S, linear).is_subideal_of(P):
        raise ArithmeticError("syzygy form missing from the Rees ideal")
    return ReesData(S, P, linear)


@dataclass
class ImageData:
    """The closed image in P^n and the generic-finiteness verdict."""
    ideal: Ideal                   # 𝔓 ∩ k[T], in the standard target ring
    dimension: int                 # projective dimension of the image
    degree: int
    generically_finite: bool


def image_ideal(pmap: ParameterizedMap) -> ImageData:
    """𝔓 ∩ k[T]; the map is generically finite iff the image has dimension m.

    𝔓 holds its grevlex basis, so the elimination is Hilbert-driven by the
    series of that basis, and the image comes out holding its own, moved
    into the standard target ring so that Hilbert data uses degree 1.
    """
    nx = pmap.source.nvars
    img = eliminate(pmap.rees.rees, drop=tuple(range(nx)), ring=pmap.target)
    cone_dim, deg = img.dimension_degree()
    dim = cone_dim - 1
    return ImageData(img, dim, deg, dim == pmap.m)


def _pivot(y: PointProjective) -> int:
    for i, c in enumerate(y.coords):
        if c:
            return i
    raise ValueError("zero point")


def _differences(pmap: ParameterizedMap, y: PointProjective,
                 i: int) -> List[Polynomial]:
    """f_j - p_j·f_i for j ≠ i, in order of j; zero entries are kept."""
    fi = pmap.forms[i]
    return [fj - fi.scale(y.coords[j])
            for j, fj in enumerate(pmap.forms) if j != i]


def _specialize(pmap: ParameterizedMap, y: PointProjective,
                gens: Sequence[Polynomial]) -> List[Polynomial]:
    """The nonzero forms g(X, y) in k[X] for g in k[X, T]."""
    R = pmap.source
    nx = R.nvars
    S = pmap.rees.ambient
    subs = {nx + j: Polynomial.constant(S, c) for j, c in enumerate(y.coords)}
    out = []
    for g in gens:
        sp = g.substitute(subs)
        if not sp.is_zero():
            out.append(restrict_polynomial(sp, R, range(nx)))
    return out


def fiber_ideal(pmap: ParameterizedMap, y: PointProjective) -> Ideal:
    """𝔓 specialized at T = y: the ideal of the fiber π⁻¹(y) of the graph
    projection."""
    return Ideal(pmap.source, _specialize(pmap, y, pmap.rees.rees.generators))


def fiber_dimension(pmap: ParameterizedMap, y: PointProjective) -> int:
    """Projective dimension of the fiber π⁻¹(y); -1 when it is empty."""
    return fiber_ideal(pmap, y).dimension_degree()[0] - 1


def unmixed_part(pmap: ParameterizedMap, y: PointProjective) -> Polynomial:
    """The divisor h_y = gcd(f_j - p_j f_i : j), monic; 1 when the fiber has
    no codimension-one component."""
    R = pmap.source
    gens = [g for g in _differences(pmap, y, _pivot(y)) if not g.is_zero()]
    if not gens:
        # all forms proportional at y — degenerate, whole source is the fiber
        return Polynomial.constant(R, R.field.one())
    return poly_gcd_list(gens)


def _scalar_ratio(a: Polynomial, b: Polynomial):
    """c with a = c·b, or None; b ≠ 0."""
    F = a.ring.field
    if a.is_zero():
        return F.zero()
    if set(a.terms) != set(b.terms):
        return None
    mono = next(iter(b.terms))
    c = F.mul(a.terms[mono], F.inv(b.terms[mono]))
    return c if a == b.scale(c) else None


def recover_points_from_divisor(pmap: ParameterizedMap,
                                h: Polynomial) -> List[PointProjective]:
    """All y with h | f_j - p_j f_i for every j: reduce each form modulo (h)
    and solve the proportionality f_j ≡ λ_j f_i for scalars λ_j."""
    if h.degree() < 1:
        raise ValueError("divisor must be nonconstant")
    gb = Ideal(pmap.source, [h]).groebner()
    nfs = [normal_form(f, gb) for f in pmap.forms]
    pivot = next((i for i, nf in enumerate(nfs) if not nf.is_zero()), None)
    if pivot is None:
        return []
    lam = []
    for nf in nfs:
        c = _scalar_ratio(nf, nfs[pivot])
        if c is None:
            return []
        lam.append(c)
    return [PointProjective(tuple(lam), pmap.source.field)]


def linear_factors(G: Polynomial) -> Tuple[List[Polynomial], bool]:
    """Monic linear factors of G with multiplicity.

    A linear form ℓ divides G iff G vanishes on the hyperplane ℓ = 0; per
    pivot chart of the dual space, substituting the parameterized hyperplane
    into G and equating coefficients gives a polynomial system in the ℓ
    coefficients, solved exactly.  The flag is True when G factors completely
    into the rational linear forms found.
    """
    R = G.ring
    nv = R.nvars
    factors: List[Polynomial] = []
    work = G
    for k in range(nv):
        if work.degree() < 1:
            break
        unknowns = nv - 1 - k
        candidates: List[Polynomial] = []
        if unknowns == 0:
            candidates.append(Polynomial.variable(R, k))
        else:
            # work in R extended by the unknown ℓ-coefficients a_j
            C = R.adjoin(tuple(f"a_{j}" for j in range(unknowns)))
            avars = C.subring(range(nv, C.nvars))
            plane = Polynomial.zero(C)
            for idx, v in enumerate(range(k + 1, nv)):
                plane = plane - (Polynomial.variable(C, nv + idx)
                                 * Polynomial.variable(C, v))
            restricted = extend_polynomial(G, C).substitute({k: plane})
            # coefficient of each X-monomial is a polynomial in the a's
            eqs: Dict[tuple, Polynomial] = {}
            for mono, c in restricted.terms.items():
                xpart, apart = mono[:nv], mono[nv:]
                if xpart not in eqs:
                    eqs[xpart] = Polynomial.zero(avars)
                eqs[xpart] = eqs[xpart] + Polynomial(avars, {apart: c})
            # finitely many linear forms divide G, so the system is
            # zero-dimensional
            sols, _ = _affine_points([e for e in eqs.values()
                                      if not e.is_zero()], avars)
            for sol in sols:
                ell = Polynomial.variable(R, k)
                for idx, v in enumerate(range(k + 1, nv)):
                    ell = ell + Polynomial.variable(R, v).scale(sol[idx])
                candidates.append(ell)
        for ell in candidates:
            while True:
                try:
                    quot = exact_divide(work, ell)
                except ValueError:
                    break
                factors.append(ell)
                work = quot
    return factors, work.degree() == 0


@dataclass
class FiberRecord:
    """One (m-1)-dimensional fiber: the point, its divisor, and diagnostics."""
    point: PointProjective
    pivot: int
    divisor: Polynomial
    divisor_degree: int
    fiber_dimension: int
    route: str = ""


@dataclass
class FiberSearch:
    """Result of the fiber inventory: records plus a completeness verdict."""
    records: List[FiberRecord]
    complete: bool
    route_a: Dict[int, dict] = field(default_factory=dict)
    route_b_ran: bool = False
    route_b_points_complete: Optional[bool] = None
    notes: List[str] = field(default_factory=list)


def base_locus(pmap: ParameterizedMap) -> Tuple[Ideal, int, int]:
    """Saturated base ideal I^sat and (cone dimension, degree) of V(I)."""
    sat = pmap.base_ideal.saturation()
    dim, deg = sat.dimension_degree()
    return sat, dim, deg


def lci_proxy_check(pmap: ParameterizedMap) -> bool:
    """Proxy for the local-complete-intersection hypothesis: the Rees ideal
    agrees with the symmetric-algebra ideal J1 = 𝔓₁·S up to irrelevant
    torsion, i.e. 𝔓 ⊆ J1 : 𝔪^∞ with 𝔪 = (X_0, …, X_m).

    When dim R/I ≤ 1 (a finite base locus) it is decided in R by Fitting
    ideals: it holds exactly when R/(I + I_{n+1−m}(φ)) has Krull dimension
    0, where φ is the (n+1) × r matrix whose columns are the map's
    `syzygies` (the minors of size ≤ 0 generate the unit ideal).

        𝔓/J1 is the kernel of Sym(I) → Rees(I), so it is 𝔪-torsion
        exactly when I_p is of linear type for every homogeneous prime
        p ≠ 𝔪 of R.
        If dim R/I ≤ 1, the only such p that contain I are the base
        points; at each one R_p is regular of dimension m and I_p is
        p-primary.
        If I_p is of linear type, its fiber cone is a polynomial ring in
        μ(I_p) variables, so μ(I_p) = ℓ(I_p) ≤ m; a p-primary ideal needs
        at least m generators, so I_p is a complete intersection.
        Conversely, a regular sequence is of linear type.
        By Fitting's lemma, μ(I_p) ≤ m exactly when I_{n+1−m}(φ) ⊄ p, for
        any presentation of I, and the syzygies are one.
        So the proxy holds exactly when V(I + I_{n+1−m}(φ)) is empty in
        P^m.

    When dim R/I ≥ 2, 𝔪^∞-torsion is torsion for each X_i, and the test
    is 𝔓 ⊆ J1 : X_i^∞ for every i.
    """
    I = pmap.base_ideal
    if I.hilbert().krull_dim <= 1:
        # the syzygies as rows: φ transposed, which has the same minors
        fitt = minors(pmap.syzygies, pmap.source, len(pmap.forms),
                      pmap.n + 1 - pmap.m)
        return Ideal(pmap.source,
                     list(pmap.forms) + fitt).hilbert().krull_dim == 0
    rd = pmap.rees
    J1 = Ideal(rd.ambient, rd.linear_part)
    return all(rd.rees.is_subideal_of(saturate_variable(J1, i))
               for i in range(pmap.source.nvars))


def find_one_dim_fibers(pmap: ParameterizedMap, s_max: int = 3) -> FiberSearch:
    """Inventory of the (m-1)-dimensional fibers of the graph projection.

    Route A (any m): for each s ≤ s_max with ν = indeg((I^s)^sat) < sd, the
    gcd G of the degree-ν piece of (I^s)^sat is a multiple of Π_y h_y; its
    rational linear factors propose points, each verified by an honest fiber
    dimension computation.  Route B (m = 2, four forms): the support of the
    presented module N is exactly the fiber locus when the base locus is lci;
    each support point is verified the same way.  The union is returned with
    a completeness flag that is True only when a complete route ran.

    An empty base locus proves the inventory empty when m ≥ 2 (the forms,
    proportional to y on a fiber divisor of positive dimension, vanish
    together somewhere on it); for m = 1 nothing is searched.
    """
    img = pmap.image
    if not img.generically_finite:
        raise NotGenericallyFiniteError(img.dimension, pmap.m)

    d = pmap.d
    m = pmap.m
    base_empty = pmap.locus[1] == 0
    result = FiberSearch([], False)

    found: Dict[tuple, FiberRecord] = {}

    def try_point(y: PointProjective, route: str):
        key = y.coords
        if key in found:
            if route not in found[key].route:
                found[key].route += "+" + route
            return
        h = unmixed_part(pmap, y)
        if h.degree() < 1:
            return
        dim = fiber_dimension(pmap, y)
        if dim != m - 1:
            return
        found[key] = FiberRecord(y, _pivot(y), h, h.degree(), dim, route)

    if base_empty:
        result.complete = m >= 2
        result.notes.append(
            "base locus empty: no fiber can contain a divisor" if m >= 2 else
            "base locus empty, but for m = 1 a fiber divisor is a set of "
            "points and need not meet it: inventory not searched")
        return result

    seen = set()
    factored: Dict[tuple, Tuple[List[Polynomial], bool]] = {}
    for s in range(1, s_max + 1):
        Jsat = pmap.power(s).saturation()
        nu = Jsat.initial_degree()
        entry = {"nu": nu, "sd": s * d, "applicable": nu < s * d}
        result.route_a[s] = entry
        if nu >= s * d:
            continue
        # the degree-ν elements of a reduced basis span (I^s)^sat_ν
        gb = Jsat.basis()
        G = poly_gcd_list([g for (g,) in gb.select(
            lambda k: gb.ctx.deg(k) == nu)])
        entry["gcd_degree"] = G.degree()
        if G.degree() < 1:
            continue
        g_key = tuple(sorted(G.terms.items()))
        if g_key not in factored:
            factored[g_key] = linear_factors(G)
        factors, complete_factorization = factored[g_key]
        entry["factors_complete"] = complete_factorization
        for ell in factors:
            key = tuple(sorted(ell.terms.items()))
            if key in seen:
                continue
            seen.add(key)
            for y in recover_points_from_divisor(pmap, ell):
                try_point(y, "A")

    pres, pres_error = pmap.presentation
    if pres_error is not None:
        # the gcd route above is still sound on its own
        result.notes.append(f"support route unavailable: {pres_error}")
    if pres is not None:
        result.route_b_ran = True
        pts, pts_complete = pmap.support
        result.route_b_points_complete = pts_complete
        for y in pts:
            try_point(y, "B")
        result.complete = pts_complete and pmap.lci_proxy
        if not pts_complete:
            result.notes.append(
                "support has components with no rational point: "
                "inventory restricted to the base field")
    if not result.complete and not result.route_b_ran:
        result.notes.append(
            "only the gcd route ran: inventory is sound but may be incomplete")
    if result.route_b_ran and not pmap.lci_proxy:
        result.notes.append(
            "lci proxy failed: support route results verified individually")

    result.records = sorted(found.values(), key=lambda r: r.point.coords)
    return result


@dataclass
class DivisorBoundVerdict:
    """Σ_y deg h_y ≤ ν = indeg((I^s)^sat) < sd, when ν < sd realizes it."""
    s: int
    nu: int
    sd: int
    divisor_sum: int
    applicable: bool
    holds: Optional[bool]
    prior_bound: int              # informational: ⌊d/2⌋·d - 1


def check_divisor_degree_bound(pmap: ParameterizedMap, s: int,
                               records: Sequence[FiberRecord]) -> DivisorBoundVerdict:
    """Verify the divisor-degree bound at power s against found fibers."""
    nu = pmap.power(s).saturation().initial_degree()
    sd = s * pmap.d
    total = sum(r.divisor_degree for r in records)
    applicable = nu < sd
    holds = (total <= nu) if applicable else None
    prior = (pmap.d // 2) * pmap.d - 1
    return DivisorBoundVerdict(s, nu, sd, total, applicable, holds, prior)


@dataclass
class FactorizationVerdict:
    """The two ideal identities behind a divisor record."""
    ideal_matches: bool            # I = (f_i) + h_y·(g_j : j ≠ i)
    saturation_contained: bool     # I^sat ⊆ (f_i, h_y)

    @property
    def passes(self) -> bool:
        return self.ideal_matches and self.saturation_contained


def check_fiber_factorization(pmap: ParameterizedMap,
                              rec: FiberRecord) -> FactorizationVerdict:
    """Materialize the cofactors g_j = (f_j - p_j f_i)/h_y and verify
    I = (f_i) + h_y·(g_j) and I^sat ⊆ (f_i, h_y).  A divisibility failure
    signals a false fiber record and raises."""
    R = pmap.source
    fi = pmap.forms[rec.pivot]
    # exact_divide raises if h_y is not a divisor
    cofactors = [exact_divide(num, rec.divisor)
                 for num in _differences(pmap, rec.point, rec.pivot)]
    I = pmap.base_ideal
    rebuilt = Ideal(R, [fi] + [rec.divisor * g for g in cofactors])
    ideal_match = I == rebuilt
    contained = I.saturation().is_subideal_of(Ideal(R, [fi, rec.divisor]))
    return FactorizationVerdict(ideal_match, contained)


def brute_force_fiber_oracle(pmap: ParameterizedMap) -> List[FiberRecord]:
    """Enumerate P^m over a small finite field, bucket by image point, and
    return the image points whose fiber has dimension m-1.

    Sound but only sees points rational over the ground field.
    """
    from .solve import projective_points
    F = pmap.source.field
    if F.characteristic() == 0:
        raise ValueError("oracle enumeration needs a finite field")
    m = pmap.m
    images = {}
    for x in projective_points(F, m):
        vals = [f.evaluate(list(x.coords)) for f in pmap.forms]
        if all(F.is_zero(v) for v in vals):
            continue
        y = PointProjective(tuple(vals), F)
        images.setdefault(y.coords, y)
    records = []
    for y in images.values():
        if fiber_dimension(pmap, y) == m - 1:
            h = unmixed_part(pmap, y)
            records.append(FiberRecord(y, _pivot(y), h, h.degree(), m - 1,
                                       "oracle"))
    return sorted(records, key=lambda r: r.point.coords)
