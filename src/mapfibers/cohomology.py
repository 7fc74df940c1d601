"""Graded dimensions of local cohomology, two independent ways, and the
fiber-counting table.

Route one is the Grothendieck–Serre difference formula: for a quotient
R/J of dimension ≤ 1 only H⁰ and H¹ survive, so both are read off from
Hilbert data of J and its saturation.  Route two is graded local
duality: dim H^i_𝔪(M)_t = dim Ext^{c−i}(M, R(−c))_{−t} with c = #vars,
computed from a minimal free resolution by transposing matrices and
taking homology dimensions degree by degree.  The resolution is a
Schreyer resolution of J's packed generators, pruned to a minimal one
(`modules.free_resolution`); it reads only J's generators and ring, never
the bases, series or saturation the difference route uses.  One
resolution serves every (i, t) of its ideal (`resolution_hdim`).

The table N_s = dim H^m_𝔪(Iˢ)_{sd−m} counts fiber divisors: N_s for
s ≫ 0 equals Σ_y binom(deg h_y + m − 1, m) over the points with
(m−1)-dimensional fiber.  That value is certified by the presentation
cokernel (`approx`), or is 0 for an empty base locus, not by the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .ideals import Ideal, degree_monomials, ideal_power
from .modules import FreeModuleMap, FreeResolution, free_resolution
from .rings import mono_mul


# ---------------------------------------------------------------------------
# route one: difference formula

def hdim_difference(J: Ideal, i: int, t: int) -> int:
    """dim H^i_𝔪(R/J)_t for i ∈ {0,1}, valid when dim R/J ≤ 1.

    R/J and R/J^sat share their Krull dimension (when it is ≥ 1) and
    their Hilbert polynomial, so both, and HF(R/J^sat), are read off the
    saturation; only i = 0 reads HF(R/J) as well.  For dimension ≤ 1 the
    Hilbert polynomial of R/J^sat is the constant `degree` (a saturated
    quotient of dimension 0 is the zero module, of degree 0).
    """
    if i not in (0, 1):
        raise ValueError("difference route only yields H⁰ and H¹")
    h_sat = J.saturation().hilbert()
    if h_sat.krull_dim > 1:
        raise ValueError("difference route requires dim R/J ≤ 1")
    hf_sat = h_sat.hf(t)
    if i == 0:
        return J.hilbert().hf(t) - hf_sat
    return h_sat.degree - hf_sat


# ---------------------------------------------------------------------------
# route two: duality via a transposed resolution

def hom_basis(shifts: Sequence[int], e: int, nvars: int) -> List[Tuple[int, tuple]]:
    """The k-basis of Hom(⊕_c R(−shifts[c]), R)_e: one (component c,
    monomial of degree e + shifts[c]) pair per basis element."""
    monos: Dict[int, Tuple[tuple, ...]] = {}
    out = []
    for c, a in enumerate(shifts):
        if e + a not in monos:
            monos[e + a] = degree_monomials(nvars, e + a)
        out.extend((c, m) for m in monos[e + a])
    return out


def dual_map_rows(d: FreeModuleMap, e: int) -> Tuple[List[dict], int]:
    """Matrix of Hom(−, R) applied to d, in degree e, as `linalg` rows.

    Its columns are the basis of Hom(target of d)_e and its rows that of
    Hom(source of d)_e (`hom_basis`); returns (rows, number of columns).
    Row (b, m′) holds, at column (r, m), the coefficient of m′/m in
    d[r][b], so each entry is one term of one matrix entry.
    ArithmeticError when a term lands outside the basis of Hom(source of
    d)_e, which happens exactly when d is not homogeneous of degree 0.
    """
    nv = d.target.ring.nvars
    src = hom_basis(d.target.shifts, e, nv)
    tgt = hom_basis(d.source.shifts, e, nv)
    tgt_index = {bm: k for k, bm in enumerate(tgt)}
    rows: List[dict] = [{} for _ in tgt]
    for col, (r, m) in enumerate(src):
        for b, p in enumerate(d.matrix[r]):
            for mm, c in p.terms.items():
                k = tgt_index.get((b, mono_mul(mm, m)))
                if k is None:
                    raise ArithmeticError(
                        "a term of the map lands outside the Hom basis: "
                        "the map is not homogeneous")
                rows[k][col] = c
    return rows, len(src)


def hdim_duality(J: Ideal, i: int, t: int) -> int:
    """dim H^i_𝔪(R/J)_t by local duality; valid in any dimension.

    Builds the resolution of J's generators for this one value; a caller
    asking several (i, t) of one ideal builds it once with
    `free_resolution` and asks `resolution_hdim`.
    """
    return resolution_hdim(free_resolution(J), i, t)


def resolution_hdim(res: FreeResolution, i: int, t: int) -> int:
    """dim H^i_𝔪(R/J)_t by local duality from ``res``, a minimal graded
    free resolution of R/J: the homology at Hom(F_j, R) in degree
    e = −t − c, j = c − i, from the ranks of its two dual maps."""
    c = res.modules[0].ring.nvars
    j = c - i
    if j < 0 or j > res.length:
        return 0
    e = -t - c
    dim_j = len(hom_basis(res.modules[j].shifts, e, c))
    if dim_j == 0:
        return 0

    def dual_rank(k):
        return linalg.rank(dual_map_rows(res.maps[k], e)[0],
                           res.modules[0].ring.field)
    return (dim_j - (dual_rank(j) if j < res.length else 0)
            - (dual_rank(j - 1) if j else 0))


# ---------------------------------------------------------------------------
# the fiber-counting table

@dataclass
class CohomologyTable:
    """Per-s dimensions of H^m_𝔪(Iˢ) in one internal degree strand."""

    mu: int
    m: int
    values: Dict[int, int] = field(default_factory=dict)
    cross_values: Dict[int, int] = field(default_factory=dict)
    stable_value: Optional[int] = None
    stable_from: Optional[int] = None

    @property
    def stabilized(self) -> bool:
        return self.stable_value is not None

    def detect_stabilization(self) -> None:
        """Stable from the first of three consecutive equal values that
        every later value repeats.  This describes the computed table
        and certifies nothing; no verdict reads it."""
        run = 3
        ss = sorted(self.values)
        for k in range(len(ss) - run + 1):
            window = ss[k:k + run]
            if window[-1] - window[0] != run - 1:
                continue
            vals = {self.values[s] for s in window}
            if len(vals) == 1 and all(
                    self.values[s] == self.values[window[0]]
                    for s in ss[k:]):
                self.stable_value = self.values[window[0]]
                self.stable_from = window[0]
                return


def m_mu_dims(I: Ideal, d: int, mu: int,
              s_range: Sequence[int]) -> CohomologyTable:
    """dim H^m_𝔪(Iˢ)_{μ+sd} per s, via H^{m−1}_𝔪(R/Iˢ), for I in m+1
    variables.

    The identification uses 0 → Iˢ → R → R/Iˢ → 0 and the vanishing of
    H^{m−1}_𝔪(R) and H^m_𝔪(R) (depth m+1).  For m = 2 the difference
    route is used; higher m goes through duality alone.  Nothing is
    cross-checked (`n_table` is).  Each power is built for its own step
    and dropped after it, while I keeps I : X_i^∞ and the colon of the
    last power (`ideals.saturate_variable`), from which the next power's
    colon starts.
    """
    return _strand_table(lambda s: ideal_power(I, s) if s > 1 else I,
                         d, mu, s_range, I.ring.nvars - 1, False)


def _strand_table(power: Callable[[int], Ideal], d: int, mu: int,
                  s_range: Sequence[int], m: int,
                  cross_check: bool) -> CohomologyTable:
    table = CohomologyTable(mu=mu, m=m)
    for s in sorted(set(s_range)):
        if s < 1:
            raise ValueError("s must be ≥ 1")
        J = power(s)
        t = mu + s * d
        if m == 2:
            val = hdim_difference(J, 1, t)
            if cross_check:
                table.cross_values[s] = hdim_duality(J, 1, t)
        else:
            val = hdim_duality(J, m - 1, t)
        table.values[s] = val
    return table


def n_table(pmap, s_range: Sequence[int]) -> CohomologyTable:
    """The strand μ = −m of a map's base ideal: N_s = dim H^m_𝔪(Iˢ)_{sd−m},
    on the powers (and their saturations) the map already holds, with the
    duality cross-check for m = 2 recorded in ``cross_values``: an s where
    it differs from ``values`` is a failed certificate
    (`pipeline.run_pipeline`)."""
    return _strand_table(pmap.power, pmap.d, -pmap.m, s_range, pmap.m, True)


@dataclass
class ModuleDegreeVerdict:
    stabilized_value: Optional[int]
    divisor_sum: int
    holds: bool
    inconclusive: bool
    detail: str


def check_module_degree_formula(divisor_degrees: Sequence[int], m: int,
                                stable_value: Optional[int], source: str,
                                incomplete: Optional[str] = None
                                ) -> ModuleDegreeVerdict:
    """dim N_s for s ≫ 0 against Σ binom(deg h_y + m − 1, m).

    ``stable_value`` is that dimension, certified, and ``source`` names
    what certified it; when it is None, ``source`` says why there is no
    certified value, and the verdict is inconclusive.

    ``incomplete`` names why the fiber inventory behind ``divisor_degrees``
    is not certified complete (None when it is).  The sum is then only a
    lower bound, so a stable value above it is inconclusive, while one
    below it still fails."""
    rhs = sum(comb(deg + m - 1, m) for deg in divisor_degrees)
    if stable_value is None:
        return ModuleDegreeVerdict(None, rhs, False, True,
                                   f"no certified stable value: {source}")
    found = f"stabilized value {stable_value} taken from {source}"
    if stable_value > rhs and incomplete is not None:
        return ModuleDegreeVerdict(
            stable_value, rhs, False, True,
            f"{found} exceeds divisor sum {rhs}, only a lower bound as "
            f"the inventory is incomplete: {incomplete}")
    return ModuleDegreeVerdict(stable_value, rhs, stable_value == rhs, False,
                               f"{found} vs divisor sum {rhs}")
