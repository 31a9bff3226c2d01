"""Command-line front end: analysis bundles, polygon SVG, HN runs,
model verifications, and the property-suite runner.

Exit codes: 0 success, 1 rejected input or failed verification suite,
2 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from itertools import combinations, product

from . import canonical_tower as tower
from . import group_models as gm
from . import hn_engine as hn
from . import lt_crystals as lt
from . import period_calculus as pc
from . import polygons as pg
from . import signature_core as sc
from .errors import InternalInvariantBreach, MufiltError
from .serialize import (
    _fracs,
    _ints,
    _node_desc,
    _read_object,
    dump_json,
    parse_frac,
    parse_int,
    parse_lattice,
    parse_signature,
    relaxed_literal,
)
from .svg import render_polygons


# === report assembly ========================================================

def hasse_values(sig: sc.Signature, raw: str | None) -> tuple[str, tuple[Fraction, ...]]:
    """Read --ha: a scalar applies to whichever embedding is under report,
    a map literal gives one valuation per embedding."""
    if raw is None:
        return "scalar", (Fraction(0),) * sig.f
    text = raw.strip()
    if text.startswith("{"):
        data = relaxed_literal(text)
        vals = [Fraction(0)] * sig.f
        for key, value in data.items():
            t = sc._check_index(parse_int(key, "ha map key"), sig.f, "ha map key")
            vals[t] = parse_frac(value)
        return "map", tuple(vals)
    v = parse_frac(text)
    return "scalar", (v,) * sig.f


def _threshold_entries(sig, taus, n):
    out = []
    for t in taus:
        if sig.is_degenerate(t):
            out.append({"tau": t, "degenerate": True})
            continue
        for m in range(1, n + 1):
            out.append(
                {
                    "tau": t,
                    "n": m,
                    "value": sc.hasse_threshold(sig, t, m),
                    "h3": sc.threshold_h3(sig, t, m),
                }
            )
        out[-1]["h1"] = sc.threshold_h1(sig, t)
        out[-1]["existence"] = sc.threshold_existence(sig, t)
    return out


def _certificates(sig, n):
    steps = gm.mu_ord_canonical_filtration(sig, n)
    classical = hn.classical_weighting(sig.p, sig.f)
    crans = []
    for members, desc in steps:
        rep = members[0]
        entry = {
            "tau_class": members,
            "o_height": desc.o_height,
            "deg": desc.deg,
        }
        for mode_name, w in (
            ("classical", classical),
            ("tau_mode", hn.tau_weighting(sig.p, sig.f, rep)),
        ):
            cert = hn.break_certificate(sig, n, w, rep, desc)
            entry[mode_name] = {
                "break": cert.break_ok,
                "cran": cert.cran_ok,
                "weighted_degree": cert.weighted_degree,
                "break_bound": cert.break_bound,
                "cran_bound": cert.cran_bound,
            }
        crans.append(entry)
    nested = []
    for i in range(len(steps) - 1):
        inner = steps[i][1]
        outer = steps[i + 1][1]
        fires = hn.bijakowski_containment(
            sig,
            n,
            inner.o_height,
            outer.o_height,
            inner.total_degree,
            outer.total_degree,
        )
        nested.append(
            {
                "inner_height": inner.o_height,
                "outer_height": outer.o_height,
                "fires": fires,
            }
        )
    return {"crans": crans, "bijakowski": nested}


def _polygons(sig, taus):
    return {
        "hodge": pg.hodge_polygon(sig),
        "reversed_hodge": pg.reversed_hodge(sig),
        "hn_tau": [{"tau": t, "polygon": pg.hn_mu_ordinary_tau(sig, t)} for t in taus],
    }


def build_report_bundle(
    sig: sc.Signature,
    ha_kind: str,
    ha_vals: tuple[Fraction, ...],
    n: int,
    tau: int | None = None,
) -> dict:
    sc._check_level(n)
    # heights, levels and the Hasse inputs multiply the powers of p
    scale = sig.h * n * sig.f * max(abs(v.numerator) + v.denominator for v in ha_vals)
    sc._check_level_work(sig.f, sig.p, n, scale)
    consts = sc.constants(sig)
    ok, diags = sc.prime_admissible(sig)
    taus = list(range(sig.f)) if tau is None else [sig.check_embedding(tau)]
    bundle = {
        "signature": sig,
        "constants": {
            "k": consts.k,
            "K": consts.K,
            "r": consts.r,
            "n_class": consts.n,
            "k_dual": consts.k_dual,
        },
        "prime_admissible": {"ok": ok, "diagnostics": diags},
        "mu_ordinary_factors": [
            {"A": sorted(A), "mult": m}
            for A, m in sc.mu_ordinary_decomposition(sig)
        ],
        "hasse_input": {
            "kind": ha_kind,
            "values": ha_vals,
            "mu_ha": sum(ha_vals, Fraction(0)) if ha_kind == "map" else ha_vals[0],
        },
        "thresholds": _threshold_entries(sig, taus, n),
        "polygons": _polygons(sig, taus),
        "towers": [],
        "ptorsion": [],
        "duality": [],
        "certificates": _certificates(sig, n),
    }
    for t in taus:
        ha_t = ha_vals[t]
        report = tower.tower_report(sig, t, ha_t, n)
        bundle["towers"].append(
            {
                "tau": t,
                "ha": ha_t,
                "levels": [
                    {
                        "level": lv.level,
                        "deg_dual_tau": lv.deg_dual_tau,
                        "ha_quotient": lv.ha_quotient,
                        "deg_lower_bound": lv.deg_lower_bound,
                        "classical_lower_bound": lv.classical_lower_bound,
                        "hypotheses": dict(lv.hypotheses),
                    }
                    for lv in report.levels
                ],
            }
        )
        if sig.is_degenerate(t):
            bundle["ptorsion"].append({"tau": t, "degenerate": True})
            bundle["duality"].append({"tau": t, "degenerate": True})
            continue
        rep = tower.ptorsion_report(sig, t, ha_t)
        bundle["ptorsion"].append(
            {
                "tau": t,
                "deg_identity_rhs": rep.deg_identity_rhs,
                "coker_degree": rep.coker_degree,
                "eps_tau": rep.eps_tau,
                "slot_lower_bounds": rep.slot_lower_bounds,
                "dual_deg_upper_bound": rep.dual_deg_upper_bound,
                "classical_lower_bound": rep.classical_lower_bound,
                "h1_ok": rep.h1_ok,
            }
        )
        try:
            dual = tower.duality_bookkeeping(sig, t, ha_t)
            bundle["duality"].append(
                {
                    "tau": t,
                    "chain": dual.chain,
                    "perp_deg_lower_bound": dual.perp_deg_lower_bound,
                    "consistent": dual.consistent,
                }
            )
        except MufiltError as exc:
            bundle["duality"].append({"tau": t, "skipped": str(exc)})
    return bundle


# === verification suites ====================================================
#
# A suite is a tuple of parts (tag, cases, check): cases() yields argument
# tuples and check(*case) is true when the case passes.  A failing case is
# recorded as [tag, *case], with every non-integer argument written by str().

_PRIMES_TO_97 = [p for p in range(98) if sc._is_prime(p)]
_GRID_PRIMES = (2, 3, 5, 7)
_SEED = 20260818


def _sigs(fmax, hmax, primes, expand=lambda sig: [()]):
    """Cases (sig, *rest) over a signature box, one per rest in expand(sig)."""

    def cases():
        for f in range(1, fmax + 1):
            for h in range(1, hmax + 1):
                for p in primes:
                    for q in product(range(h + 1), repeat=f):
                        sig = sc.Signature(f=f, p=p, h=h, q=q)
                        for rest in expand(sig):
                            yield (sig, *rest)

    return cases


def _levels(sig):
    return [(1,), (2,)]


def _flags(compute, *names):
    """Check that passes when every named flag of compute(*case) is true."""
    return lambda *case: all(getattr(compute(*case), name) for name in names)


def _slots(sig):
    return [t for t in range(sig.f) if not sig.is_degenerate(t)]


def _reference_values(sig):
    c = sc.constants(sig)
    return (
        c.k == (0, 1)
        and c.K == (Fraction(0), Fraction(7, 48))
        and c.r == (1, 2)
        and sc.hasse_threshold(sig, 1, 1) == Fraction(23, 48)
        and sc.hasse_threshold(sig, 1, 2) == Fraction(23, 2352)
    )


def _constant_laws(sig):
    c = sc.constants(sig)
    qmin = min(sig.q)
    for t in range(sig.f):
        if sig.q[t] == qmin and c.k[t] != 0:
            return False
        if sig.q[t] <= sig.p - 2 and not 0 <= c.K[t] < 1:
            return False
    rs = [c.r[t] for t in sorted(range(sig.f), key=lambda t: sig.q[t])]
    return rs == sorted(rs)


def _hn_equalities(sig, n):
    """The split product's HN polygons are the reversed Hodge polygon and
    the tau profiles, with one filtration for every mode; the integer walk
    of hn --sig and the descriptor engine agree in every mode."""
    G = gm.mu_ordinary_product(sig, n)
    nodes = gm.enumerate_split_subgroups(G)
    rows = gm._split_nodes(G)
    w = hn.classical_weighting(sig.p, sig.f)
    classical = hn.hn_from_lattice(nodes, w)
    if _split_select(rows, n, w) != classical:
        return False
    if pg.renormalize(classical.polygon, n) != pg.reversed_hodge(sig):
        return False
    for t in range(sig.f):
        w = hn.tau_weighting(sig.p, sig.f, t)
        res = hn.hn_from_lattice(nodes, w)
        if _split_select(rows, n, w) != res or res.filtration != classical.filtration:
            return False
        mu_poly = pg.hn_mu_ordinary_tau(sig, t)
        for x, y in pg.renormalize(res.polygon, n).points:
            if y != sig.f * mu_poly.value(x):
                return False
    return True


def _raynaud_cases(per_combo=200, fmax=4):
    rng = random.Random(_SEED)
    for f in range(1, fmax + 1):
        for p in _GRID_PRIMES:
            for _ in range(per_combo):
                vd = tuple(Fraction(rng.randrange(0, 33), 32) for _ in range(f))
                yield (gm.RaynaudDatum(f=f, p=p, vdelta=vd),)


def _raynaud_identities(d):
    """Duality flips every degree d -> 1 - d, and the closed-form cokernel
    degree equals the point-valuation recursion at every slot."""
    desc = gm.raynaud_degrees(d)
    dual = gm.raynaud_degrees(gm.raynaud_dual(d))
    return tuple(dual.deg) == tuple(1 - x for x in desc.deg) and all(
        gm.raynaud_hodge_tate_coker_degree(d, t)
        == gm._raynaud_point_valuation(d.p, d.vgamma, t)
        for t in range(d.f)
    )


def _k_match(sig):
    K = sc.constants(sig).K
    for t in _slots(sig):
        m = pc.multiplication_map(sig, t)
        if m.K_value != K[t] or not m.transport_ok:
            return False
    return True


def _transport_cases(count=50):
    rng = random.Random(_SEED)
    done = 0
    while done < count:
        f = rng.randrange(1, 7)
        h = rng.randrange(1, 7)
        p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23))
        q = tuple(rng.randrange(0, h + 1) for _ in range(f))
        sig = sc.Signature(f=f, p=p, h=h, q=q)
        if _slots(sig):
            yield sig, rng.choice(_slots(sig))
            done += 1


def _lts_cases(fmax=5):
    for f in range(1, fmax + 1):
        for p in _GRID_PRIMES:
            for size in range(f):
                for S in combinations(range(f), size):
                    for tau0 in range(f):
                        if tau0 not in S:
                            yield (lt.LTSModel(f=f, p=p, S=frozenset(S), tau0=tau0),)


def _tower_bounds(sig, t, ha=Fraction(1, 100)):
    if sig.p**sig.f * ha + ha < 1:
        if tower.hasse_recursion(sig, t, ha, ha) != tower.worst_case(sig, ha):
            return False
    return all(
        lv.ha_quotient <= sig.p ** (lv.level * sig.f) * ha
        for lv in tower.tower_report(sig, t, ha, 2).levels
    )


def _ptorsion_identities(sig):
    for members, desc in gm.mu_ord_canonical_filtration(sig, 1):
        t = members[0]
        if sig.is_degenerate(t):
            continue
        lhs = tower.ptorsion_report(sig, t, Fraction(0)).deg_identity_rhs
        if lhs != hn.deg_weighted(desc, hn.tau_weighting(sig.p, sig.f, t)):
            return False
    return True


def _appendix_grid():
    return product(_PRIMES_TO_97, range(1, 9), range(1, 9))


def _nested_certificates(sig, n):
    steps = [desc for _, desc in gm.mu_ord_canonical_filtration(sig, n)]
    for d1, d2 in zip(steps, steps[1:]):
        if d1.o_height and not hn.bijakowski_containment(
            sig, n, d1.o_height, d2.o_height, d1.total_degree, d2.total_degree
        ):
            return False
    return True


def _no_false_positive(sig, n):
    nodes = gm.enumerate_split_subgroups(gm.mu_ordinary_product(sig, n))
    for a in nodes:
        for b in nodes:
            if a.o_height == 0 or a.o_height > b.o_height or b.contains(a):
                continue
            if hn.bijakowski_containment(
                sig, n, a.o_height, b.o_height, a.total_degree, b.total_degree
            ):
                return False
    return True


SUITES = {
    "constants": (
        ("reference", lambda: [(sc.Signature(f=2, p=7, h=3, q=(1, 2)),)],
         _reference_values),
        ("laws", _sigs(3, 3, (2, 5)), _constant_laws),
    ),
    "hn": (("hn", _sigs(2, 3, _GRID_PRIMES, _levels), _hn_equalities),),
    "raynaud": (("duality", _raynaud_cases, _raynaud_identities),),
    "periods": (
        ("t-check", lambda: product(range(1, 9), _PRIMES_TO_97),
         pc.t_decomposition_check),
        ("K-match", _sigs(4, 4, (2, 3, 5, 7, 11, 13)), _k_match),
        ("transport", _transport_cases, _flags(pc.multiplication_map, "transport_ok")),
    ),
    "lts": (
        ("phi", _lts_cases, _flags(lt.verify_phi_eq_p, "eigen_ok", "fil_pattern_ok")),
        ("count", _lts_cases, lambda m: lt.solution_count_mod_p(m) == m.p**m.f),
    ),
    "tower": (
        ("bounds", _sigs(3, 4, (7,), lambda sig: [(t,) for t in _slots(sig)[:1]]),
         _tower_bounds),
        ("ptorsion", _sigs(3, 4, _GRID_PRIMES), _ptorsion_identities),
    ),
    "deformation": (
        ("deformation", _sigs(3, 3, _GRID_PRIMES, _levels),
         _flags(tower.frobenius_deformation_check, "heights_match", "subgroup_match")),
    ),
    "appendix": (
        ("displayed", _appendix_grid,
         _flags(tower.appendix_lemma_detail, "displayed_ok")),
        ("reduced-or-anchor", _appendix_grid,
         _flags(tower.appendix_lemma_detail, "reduced_ok", "anchor_ok")),
        ("nested", _sigs(2, 3, (2, 7), _levels), _nested_certificates),
        ("false-positive", _sigs(2, 3, (2, 7), _levels), _no_false_positive),
    ),
}


def run_suite(name: str) -> dict:
    """Run every case of a suite: ok, the case count and the first five
    failure records.  The appendix also lists its failures per inequality."""
    cases = 0
    failures = []
    for tag, make_cases, check in SUITES[name]:
        for case in make_cases():
            cases += 1
            if not check(*case):
                record = [a if isinstance(a, int) else str(a) for a in case]
                failures.append([tag] + record)
    result = {"ok": not failures, "cases": cases, "failures": failures[:5]}
    if name == "appendix":
        by_tag = {tag: [rec[1:] for rec in failures if rec[0] == tag]
                  for tag, _, _ in SUITES[name]}
        result["displayed_failures"] = by_tag["displayed"]
        result["reduced_or_anchor_failures"] = by_tag["reduced-or-anchor"]
        result["nested_certificates_ok"] = not by_tag["nested"]
        result["false_positives"] = by_tag["false-positive"][:5]
    return result


# === argument parsing and dispatch ==========================================

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise MufiltError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first call and shared after it:
    parse_args keeps no state between calls."""
    parser = _Parser(prog="mufilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sig(p):
        p.add_argument("--sig", required=True, help="signature literal {f,p,h,q:[...]}")

    pa = sub.add_parser("analyze", help="full signature report bundle")
    add_sig(pa)
    pa.add_argument("--ha", help="Hasse valuation: scalar a/b or map {tau:a/b}")
    pa.add_argument("--n", type=int, default=1, help="tower depth")
    pa.add_argument("--tau", type=int, help="restrict to one embedding")
    pa.add_argument("--human", action="store_true")

    pp = sub.add_parser("polygons", help="hodge, reversed hodge, tau profiles")
    add_sig(pp)
    pp.add_argument("--tau", type=int)
    pp.add_argument("--svg", help="write an SVG overlay to this path (- for stdout)")
    pp.add_argument("--human", action="store_true")

    ph = sub.add_parser("hn", help="Harder-Narasimhan run on a lattice")
    source = ph.add_mutually_exclusive_group(required=True)
    source.add_argument("--sig", help="signature literal {f,p,h,q:[...]}")
    source.add_argument("--lattice", help="lattice JSON file path")
    ph.add_argument("--n", type=int, help="level for --sig (default 1)")
    ph.add_argument("--mode", choices=("classical", "tau"), default="classical")
    ph.add_argument("--tau", type=int)
    ph.add_argument("--p", type=int, help="prime for tau weights on lattice input")
    ph.add_argument("--human", action="store_true")

    pr = sub.add_parser("raynaud", help="Raynaud scheme degrees and cokernel")
    pr.add_argument("--datum", required=True, help="literal {f,p,vdelta:[...]}")
    pr.add_argument("--human", action="store_true")

    pe = sub.add_parser("periods", help="period multiplication map report")
    add_sig(pe)
    pe.add_argument("--tau", type=int)
    pe.add_argument("--human", action="store_true")

    pl = sub.add_parser("lts", help="LT_S crystal report")
    pl.add_argument("--model", required=True, help="literal {f,p,S:[...],tau0}")
    pl.add_argument("--human", action="store_true")

    pv = sub.add_parser("verify", help="run property suites")
    pv.add_argument("--suite", default="all", help="suite name or 'all'")
    return parser


def _cmd_analyze(args) -> int:
    sig = parse_signature(args.sig)
    kind, vals = hasse_values(sig, args.ha)
    bundle = build_report_bundle(sig, kind, vals, args.n, tau=args.tau)
    sys.stdout.write(dump_json(bundle, args.human))
    return 0


def _cmd_polygons(args) -> int:
    sig = parse_signature(args.sig)
    sc._check_level_work(sig.f, sig.p, 1, sig.h * sig.f)
    taus = list(range(sig.f)) if args.tau is None else [sig.check_embedding(args.tau)]
    if not args.svg:
        out = _polygons(sig, taus)
        out["signature"] = sig
        sys.stdout.write(dump_json(out, args.human))
        return 0
    items = [
        (pg.hodge_polygon(sig), "hodge"),
        (pg.reversed_hodge(sig), "reversed hodge"),
    ]
    for t in taus:
        items.append((pg.hn_mu_ordinary_tau(sig, t), f"tau profile {t}"))
    doc = render_polygons(items, title=f"signature {args.sig}")
    if args.svg == "-":
        sys.stdout.write(doc)
    else:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise MufiltError(f"cannot write SVG file {args.svg!r}: {exc}")
    return 0


def _split_select(rows, n: int, w: hn.DegreeWeighting) -> hn.HNResult:
    """HN selection over the _split_nodes rows of a split product at level
    n, ordered by their torsion keys; descriptors are built for the
    filtration's nodes only."""
    ht, _, degs, keys = zip(*rows)
    return hn._hn_select(ht, degs, 1, w, lambda i: gm._split_desc(rows[i], n), keys)


def _cmd_hn(args) -> int:
    if args.mode == "tau" and args.tau is None:
        raise MufiltError("--mode tau needs --tau")
    if args.mode == "classical" and args.tau is not None:
        raise MufiltError("--tau applies to --mode tau only")
    if args.p is not None and (args.sig is not None or args.mode == "classical"):
        raise MufiltError(
            "--p applies to --lattice with --mode tau only:"
            " a signature carries its own p, and classical weights read none"
        )
    if args.sig is not None:
        sig = parse_signature(args.sig)
        n = 1 if args.n is None else args.n
        if args.mode == "tau":
            # Deg_tau weights reach p^(f-1); classical weights are all 1
            sc._check_level_work(sig.f, sig.p, 1, sig.h * n * sig.f)
        rows = gm._split_nodes(gm.mu_ordinary_product(sig, n))
        f, p = sig.f, sig.p
    else:
        if args.n is not None:
            raise MufiltError(
                "--n applies to --sig only: a lattice file carries its own levels"
            )
        try:
            with open(args.lattice, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MufiltError(f"cannot read lattice file {args.lattice!r}: {exc}")
        rows, pairs = parse_lattice(text)
        if not rows:
            raise MufiltError("lattice file holds no nodes")
        f = len(rows[0][1])
        if args.mode == "tau" and args.p is None:
            raise MufiltError("--mode tau on a lattice file needs --p")
        # classical weights are all 1; any prime passes the weighting's check
        p = 2 if args.p is None else args.p
    if args.mode == "classical":
        w = hn.classical_weighting(p, f)
    else:
        w = hn.tau_weighting(p, f, args.tau)
    if args.sig is not None:
        result = _split_select(rows, n, w)
    else:
        ht, fdegs, _, keys = zip(*rows)
        degs, L = hn._integer_rows(fdegs)
        if args.mode == "tau":
            top = max(max(row, default=0) for row in degs)
            sc._check_level_work(f, p, 1, L * f * max(ht) * top)
        result = hn._hn_select(
            ht, degs, L, w, lambda i: _node_desc(rows[i]),
            None if None in keys else keys, pairs,
        )
    out = {"mode": args.mode, "tau": args.tau, "nodes": len(rows), "result": result}
    sys.stdout.write(dump_json(out, args.human))
    return 0


def _cmd_raynaud(args) -> int:
    fields = {"f": parse_int, "p": parse_int, "vdelta": _fracs}
    d = gm.RaynaudDatum(**_read_object(args.datum, "datum", fields))
    desc = gm.raynaud_degrees(d)
    out = {
        "datum": {"f": d.f, "p": d.p, "vdelta": d.vdelta},
        "degrees": desc,
        "hodge_tate_coker": [
            gm.raynaud_hodge_tate_coker_degree(d, t) for t in range(d.f)
        ],
        "dual_vdelta": gm.raynaud_dual(d).vdelta,
    }
    sys.stdout.write(dump_json(out, args.human))
    return 0


def _cmd_periods(args) -> int:
    sig = parse_signature(args.sig)
    taus = list(range(sig.f)) if args.tau is None else [sig.check_embedding(args.tau)]
    K = sc.constants(sig).K
    entries = []
    for t in taus:
        if sig.is_degenerate(t):
            entries.append({"tau": t, "degenerate": True})
            continue
        m = pc.multiplication_map(sig, t)
        margin = pc.faltings_margin(sig, t)
        entries.append(
            {
                "tau": t,
                "coeffs": m.coeffs.entries,
                "K_value": m.K_value,
                "transport_ok": m.transport_ok,
                "d_matrix": pc.d_matrix(sig, t),
                "faltings_margin": margin.value,
                "margin_ok": margin.margin_ok,
                "mod_fil1_valuation": K[t],
                "mod_p_filp_valuation": pc.mod_p_filp_valuation(sig, t),
            }
        )
    out = {
        "signature": sig,
        "t_decomposition_ok": pc.t_decomposition_check(sig.f, sig.p),
        "maps": entries,
    }
    sys.stdout.write(dump_json(out, args.human))
    return 0


def _cmd_lts(args) -> int:
    fields = {"f": parse_int, "p": parse_int, "S": _ints, "tau0": parse_int}
    model = lt.LTSModel(**_read_object(args.model, "model", fields))
    sc._check_level_work(model.f, model.p)
    gen = lt.tate_generator(model)
    check = lt.verify_phi_eq_p(model)
    exponents = lt.frobenius_matrix(model)
    out = {
        "model": {
            "f": model.f,
            "p": model.p,
            "S": sorted(model.S),
            "tau0": model.tau0,
        },
        "frobenius_exponents": exponents,
        "generator": gen.entries,
        "generator_valuation": lt.generator_valuation(model),
        "eigen_ok": check.eigen_ok,
        "fil_pattern_ok": check.fil_pattern_ok,
        "solution_count_mod_p": lt.solution_count_mod_p(model),
        "d_s_exponents": exponents,
    }
    sys.stdout.write(dump_json(out, args.human))
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise MufiltError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or all"
        )
    results = {}
    ok = True
    for name in names:
        results[name] = run_suite(name)
        ok = ok and results[name]["ok"]
    sys.stdout.write(dump_json({"ok": ok, "suites": results}))
    return 0 if ok else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "polygons": _cmd_polygons,
    "hn": _cmd_hn,
    "raynaud": _cmd_raynaud,
    "periods": _cmd_periods,
    "lts": _cmd_lts,
    "verify": _cmd_verify,
}


def run_command(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except MufiltError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalInvariantBreach as exc:
        sys.stderr.write(f"internal invariant breach: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
