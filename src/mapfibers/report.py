"""Report documents: assembly helpers, JSON output, and the text view.

The report is a plain dict with a fixed, versioned key layout (see
docs/report_schema.md).  Every number in it is exact: rational scalars are
serialized as ``p/q`` strings and polynomials by their canonical string
form, so a report can be parsed back without loss.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .fibers import (FiberRecord, FiberSearch, ImageData, ParameterizedMap,
                     DivisorBoundVerdict, FactorizationVerdict)
from .solve import PointProjective

SCHEMA_VERSION = 2


def point_json(pt: PointProjective) -> List[str]:
    return [pt.field.to_str(c) for c in pt.coords]


def field_tag(field) -> str:
    p = field.characteristic()
    return "QQ" if p == 0 else f"GF {p}"


def input_block(pmap: ParameterizedMap, path: Optional[str] = None) -> Dict:
    block = {
        "field": field_tag(pmap.source.field),
        "source": list(pmap.source.variables),
        "target": list(pmap.target.variables),
        "forms": [str(f) for f in pmap.forms],
        "degree": pmap.d,
        "common_factor": str(pmap.common_factor)
        if pmap.common_factor is not None else "1",
    }
    if path is not None:
        block["path"] = path
    return block


def image_block(img: ImageData) -> Dict:
    return {
        "dimension": img.dimension,
        "degree": img.degree,
        "generically_finite": img.generically_finite,
        "equations": [str(g) for g in img.ideal.minimal_basis()],
    }


def record_json(rec: FiberRecord) -> Dict:
    return {
        "point": point_json(rec.point),
        "pivot": rec.pivot,
        "divisor": str(rec.divisor),
        "divisor_degree": rec.divisor_degree,
        "fiber_dimension": rec.fiber_dimension,
        "route": rec.route,
    }


def fibers_block(search: FiberSearch) -> Dict:
    return {
        "complete": search.complete,
        "count": len(search.records),
        "records": [record_json(r) for r in search.records],
        "routes": {
            "gcd": {str(s): entry for s, entry in sorted(search.route_a.items())},
            "support_ran": search.route_b_ran,
            "support_complete": search.route_b_points_complete,
        },
        "notes": list(search.notes),
    }


def divisor_bound_json(v: DivisorBoundVerdict) -> Dict:
    return {
        "s": v.s,
        "nu": v.nu,
        "sd": v.sd,
        "divisor_sum": v.divisor_sum,
        "applicable": v.applicable,
        "holds": v.holds,
        "prior_bound": v.prior_bound,
    }


def factorization_json(rec: FiberRecord, v: FactorizationVerdict) -> Dict:
    return {
        "point": point_json(rec.point),
        "ideal_matches": v.ideal_matches,
        "saturation_contained": v.saturation_contained,
        "passes": v.passes,
    }


def dumps(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False)


def write_json(report: Dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(report) + "\n")


# ------------------------------------------------------------------ text view

def _verdict(flag: Optional[bool]) -> str:
    if flag is None:
        return "n/a"
    return "holds" if flag else "FAILS"


def render_text(report: Dict) -> str:
    """Human-readable summary of a report document."""
    out: List[str] = []
    inp = report["input"]
    out.append(f"map: P^{len(inp['source']) - 1} -> P^{len(inp['target']) - 1}"
               f" over {inp['field']}, degree {inp['degree']}")
    for j, f in enumerate(inp["forms"]):
        out.append(f"  f{j} = {f}")

    hyp = report.get("hypotheses")
    if hyp:
        out.append("hypotheses:")
        out.append(f"  gcd(f) = 1:           {_verdict(hyp['gcd_is_one'])}")
        out.append(f"  generically finite:   {_verdict(hyp['generically_finite'])}"
                   f" (image dimension {hyp['image_dimension']})")
        bl = hyp["base_locus"]
        desc = "empty" if bl["empty"] else \
            f"dimension {bl['dimension']}, degree {bl['degree']}"
        out.append(f"  base locus:           {desc}")
        out.append(f"  indeg(I^sat) = {hyp['indeg_sat']}"
                   f" (degree of forms: {inp['degree']})")
        if hyp.get("lci_proxy") is not None:
            out.append(f"  lci proxy:            {_verdict(hyp['lci_proxy'])}")

    img = report.get("image")
    if img:
        out.append(f"image: dimension {img['dimension']}, degree {img['degree']}")
        for g in img["equations"]:
            out.append(f"  {g}")

    fib = report.get("fibers")
    if fib:
        out.append(f"fibers of dimension m-1: {fib['count']} point(s), "
                   f"inventory {'complete' if fib['complete'] else 'INCOMPLETE'}")
        for rec in fib["records"]:
            pt = "(" + " : ".join(rec["point"]) + ")"
            out.append(f"  {pt}  h = {rec['divisor']}"
                       f"  (degree {rec['divisor_degree']}, route {rec['route']})")
        for note in fib["notes"]:
            out.append(f"  note: {note}")

    for row in report.get("divisor_bound", []):
        if row["applicable"]:
            out.append(
                f"divisor bound s={row['s']}: sum deg h_y = {row['divisor_sum']}"
                f" <= nu = {row['nu']} < sd = {row['sd']}: {_verdict(row['holds'])}")
        else:
            out.append(f"divisor bound s={row['s']}: not applicable"
                       f" (nu = {row['nu']} >= sd = {row['sd']})")

    mod = report.get("module")
    if mod:
        dims = ", ".join(f"s={s}: {v}" for s, v in sorted(
            mod["table"].items(), key=lambda kv: int(kv[0])))
        out.append(f"module N dimensions ({dims})")
        if mod.get("stable_value") is not None:
            out.append(f"  stabilizes at {mod['stable_value']}"
                       f" from s = {mod['stable_from']}")
        df = mod.get("degree_formula")
        if df:
            m = len(inp["source"]) - 1
            shift = f" + {m - 1}" if m > 1 else ""
            verdict = (f"inconclusive ({df['detail']})" if df["inconclusive"]
                       else _verdict(df["holds"]))
            stab = ("not stabilized" if df["stabilized"] is None
                    else f"stabilized {df['stabilized']}")
            out.append(f"  deg N = sum C(deg h_y{shift}, {m}): expected"
                       f" {df['expected']}, {stab}: {verdict}")

    pres = report.get("presentation")
    if pres:
        r = pres["ranks"]
        out.append(f"presentation over target ring: ranks l = {r['l']},"
                   f" m = {r['mrank']}, n = {r['n']}")
        out.append(f"  cokernel: dimension {pres['dimension']},"
                   f" degree {pres['degree']}")
        pts = pres.get("support_points", [])
        if pts:
            shown = ", ".join("(" + " : ".join(p) + ")" for p in pts)
            out.append(f"  support: {shown}")

    sb = report.get("surface_bounds")
    if sb:
        out.append("numerical bounds:")
        for it in sb["items"]:
            flag = _verdict(it["holds"]) if it["applicable"] else "n/a"
            out.append(f"  {it['name']}: {flag} ({it['detail']})")

    tm = report.get("timings")
    if tm:
        total = sum(tm.values())
        out.append(f"timings: total {total:.2f}s ("
                   + ", ".join(f"{k} {v:.2f}s" for k, v in tm.items()) + ")")
    return "\n".join(out) + "\n"
