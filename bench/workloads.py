"""Workload inputs, made from the seed, and the checks on their outputs.

Nothing here imports mufilt.  A workload is one round of operations that
the worker repeats until the run's time is up.  Each round has a fixed
make-up (sizes, command proportions, bit-lengths of p); the seed draws the
details that leave the cost of an operation about the same (which
embedding holds which q, the prime of a given bit-length, ha values, tau).
That keeps the medians of two seeds close while the inputs differ.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("period-sweep", "hn-sig", "hn-lattice", "report-mix")

SWEEP_H = 6
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
SWEEP_SIGS = 2000
SWEEP_WARMUP = 50

# (n, multiplicities): node count prod(n*m+1) and factor count fix the cost
HN_SIG_SHAPES = (
    (1, (3, 3, 3, 3)),  # 256 nodes
    (3, (1, 1, 1, 1)),  # 256 nodes
    (2, (1, 2, 2, 1)),  # 225 nodes
    (1, (2, 2, 2, 2, 2)),  # 243 nodes
)
HN_SIG_PER_SHAPE = 3
HN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# two lattices of 125 nodes (300 covering pairs) per one of 225 (660 pairs)
HN_LATTICE_SMALL = ((1, (4, 4, 4)), (2, (2, 2, 2)), (4, (1, 1, 1)))
HN_LATTICE_LARGE = ((1, (2, 2, 4, 4)), (2, (1, 1, 2, 2)))
HN_LATTICE_COUNTS = (8, 4)

REPORT_BITS = (3, 10, 20, 30)
REPORT_SMALL_COMMANDS = ("periods", "polygons", "lts", "raynaud")
REPORT_SMALL_EACH = 18


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Inputs of one run: {"ops": [...], "warmup": [...], "files": {...}}.

    Lattice files for hn-lattice are returned under "files" (relative path
    to text); the caller writes them under workdir before the run.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "period-sweep":
        return _period_sweep(rng)
    if workload == "hn-sig":
        return _hn_sig(rng)
    if workload == "hn-lattice":
        return _hn_lattice(rng, workdir)
    if workload == "report-mix":
        return _report_mix(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _shuffled(rng, ops) -> dict:
    """Ops in a seeded order.  Warm-up runs the first op made of each kind,
    wherever the shuffle puts it, so its cost does not depend on the seed."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    first = {}
    for i, op in enumerate(ops):
        first.setdefault(op["kind"], i)
    return {"ops": [ops[i] for i in order],
            "warmup": sorted(order.index(i) for i in first.values())}


def _sig_literal(f, p, h, q) -> str:
    return "{f:%d,p:%d,h:%d,q:[%s]}" % (f, p, h, ",".join(map(str, q)))


# === period-sweep ===========================================================

def _period_sweep(rng) -> dict:
    # signatures per f in the sweep box's own proportions (7^f of them)
    weights = [(SWEEP_H + 1) ** f for f in range(1, 7)]
    total = sum(weights)
    counts = [max(1, SWEEP_SIGS * w // total) for w in weights]
    counts[-1] += SWEEP_SIGS - sum(counts)
    ops = []
    for f, count in zip(range(1, 7), counts):
        primes = list(SWEEP_PRIMES)
        rng.shuffle(primes)
        for i in range(count):
            q = [rng.randrange(SWEEP_H + 1) for _ in range(f)]
            ops.append({"kind": "sweep", "f": f, "p": primes[i % len(primes)], "q": q})
    return {**_shuffled(rng, ops), "warmup": list(range(SWEEP_WARMUP)), "files": {}}


# === split mu-ordinary signatures ===========================================

def _shape_signature(rng, mults, fmax):
    """A signature whose mu-ordinary factors have the given multiplicities:
    every interior ladder value appears, the other slots are drawn from the
    whole ladder."""
    ladder = [0]
    for m in mults:
        ladder.append(ladder[-1] + m)
    h = ladder[-1]
    interior = ladder[1:-1]
    f = rng.randint(max(1, len(interior)), max(fmax, len(interior)))
    q = list(interior) + [rng.choice(ladder) for _ in range(f - len(interior))]
    rng.shuffle(q)
    return f, h, q


def _hn_argv(source, mode, tau, p, n):
    argv = ["hn", *source]
    if n is not None:
        argv += ["--n", str(n)]
    if mode == "tau":
        argv += ["--mode", "tau", "--tau", str(tau)]
        if source[0] == "--lattice":
            argv += ["--p", str(p)]
    return argv


def _hn_pair(rng, pair_id, n, mults, source_of, fmax=5):
    f, h, q = _shape_signature(rng, mults, fmax)
    p = rng.choice(HN_PRIMES)
    tau = rng.randrange(f)
    meta = {"f": f, "p": p, "h": h, "q": q, "n": n, "pair": pair_id}
    source, n_arg = source_of(f, p, h, q, n)
    return [
        {"kind": f"hn-{mode}", "argv": _hn_argv(source, mode, tau, p, n_arg),
         **meta, "mode": mode, "tau": tau if mode == "tau" else None}
        for mode in ("classical", "tau")
    ]


def _hn_sig(rng) -> dict:
    ops = []
    for n, mults in HN_SIG_SHAPES:
        for _ in range(HN_SIG_PER_SHAPE):
            ops += _hn_pair(
                rng, len(ops) // 2, n, mults,
                lambda f, p, h, q, n: (["--sig", _sig_literal(f, p, h, q)], n),
            )
    return {**_shuffled(rng, ops), "files": {}}


def lattice_text(f, h, q, n) -> str:
    """A split product written as a generic lattice: no torsion keys, the
    order given by covering containment pairs."""
    nodes, pairs = ref.split_lattice(f, h, q, n)
    return json.dumps({
        "nodes": [{"o_height": ht, "deg": deg, "level": n} for _, ht, deg in nodes],
        "containment": pairs,
    })


def _hn_lattice(rng, workdir) -> dict:
    ops = []
    files = {}
    shapes = [HN_LATTICE_SMALL[i % len(HN_LATTICE_SMALL)] for i in range(HN_LATTICE_COUNTS[0])]
    shapes += [HN_LATTICE_LARGE[i % len(HN_LATTICE_LARGE)] for i in range(HN_LATTICE_COUNTS[1])]
    for n, mults in shapes:
        mults = list(mults)
        rng.shuffle(mults)

        def source_of(f, p, h, q, n):
            path = f"{workdir}/lattice-{len(files)}.json"
            files[path] = lattice_text(f, h, q, n)
            return ["--lattice", path], None

        ops += _hn_pair(rng, len(ops) // 2, n, mults, source_of)
    return {**_shuffled(rng, ops), "files": files}


# === report-mix =============================================================

def _report_sig(rng, f, bits, degenerate):
    h = rng.randint(3, 6)
    q = [rng.randint(1, h - 1) for _ in range(f)]
    if degenerate and f > 1:
        q[rng.randrange(f)] = rng.choice((0, h))
    return ref.random_prime(rng, bits), h, q


def _small_fraction(rng):
    den = rng.randint(2, 400)
    return Fraction(rng.randint(0, den // 2), den)


def _report_mix(rng) -> dict:
    ops = []
    i = 0
    for f in range(1, 7):
        for n in range(1, 5):
            for ha_kind in ("scalar", "map"):
                p, h, q = _report_sig(rng, f, REPORT_BITS[(i + f) % 4], i % 3 == 2)
                if ha_kind == "scalar":
                    ha = [_small_fraction(rng)]
                    ha_text = str(ha[0])
                else:
                    ha = [_small_fraction(rng) for _ in range(f)]
                    ha_text = "{%s}" % ",".join(f"{t}:{v}" for t, v in enumerate(ha))
                human = i % 8 in (1, 6)  # map ha at n=1, scalar at n=4
                argv = ["analyze", "--sig", _sig_literal(f, p, h, q), "--ha", ha_text,
                        "--n", str(n)] + (["--human"] if human else [])
                ops.append({"kind": "analyze", "argv": argv, "f": f, "p": p, "h": h,
                            "q": q, "n": n, "ha_kind": ha_kind,
                            "ha": [str(v) for v in ha], "human": human})
                i += 1
    for kind in REPORT_SMALL_COMMANDS:
        for j in range(REPORT_SMALL_EACH):
            f = j % 6 + 1
            ops.append(_small_command(rng, kind, f, REPORT_BITS[j % 4]))
    return {**_shuffled(rng, ops), "files": {}}


def _small_command(rng, kind, f, bits):
    if kind in ("periods", "polygons"):
        p, h, q = _report_sig(rng, f, bits, f % 2 == 0)
        return {"kind": kind, "argv": [kind, "--sig", _sig_literal(f, p, h, q)],
                "f": f, "p": p, "h": h, "q": q}
    p = ref.random_prime(rng, bits)
    if kind == "lts":
        tau0 = rng.randrange(f)
        S = sorted(t for t in range(f) if t != tau0 and rng.random() < 0.5)
        model = "{f:%d,p:%d,S:[%s],tau0:%d}" % (f, p, ",".join(map(str, S)), tau0)
        return {"kind": kind, "argv": ["lts", "--model", model], "f": f, "p": p,
                "S": S, "tau0": tau0}
    vdelta = [_small_fraction(rng) * 2 for _ in range(f)]
    datum = "{f:%d,p:%d,vdelta:[%s]}" % (f, p, ",".join(str(v) for v in vdelta))
    return {"kind": kind, "argv": ["raynaud", "--datum", datum], "f": f, "p": p,
            "vdelta": [str(v) for v in vdelta]}


# === checks =================================================================

def _fr(pair) -> Fraction:
    return Fraction(pair[0], pair[1])


def check_sweep(op, result) -> list[str]:
    """result: (constants, [(tau, MultiplicationMap)]) from the library."""
    f, p, q = op["f"], op["p"], op["q"]
    consts, maps = result
    errors = []
    k, K, r, n, kd = ref.constants(f, p, SWEEP_H, q)
    if list(consts.K) != K:
        errors.append("constants K differs from the defining sum")
    taus = [t for t in range(f) if q[t] not in (0, SWEEP_H)]
    if [t for t, _ in maps] != taus:
        errors.append("maps computed at the wrong embeddings")
    for t, mm in maps:
        if mm.K_value != ref.K_defining_sum(f, p, q, t) or mm.K_value != consts.K[t]:
            errors.append(f"K_value at tau={t} differs from the defining sum")
        if mm.transport_ok is not True:
            errors.append(f"transport fails at tau={t}")
        for u, c in enumerate(mm.coeffs.entries):
            a, b, cc = ref.multiplication_coeff(f, q, t, u)
            if (c.a, list(c.b), c.c) != (a, b, cc):
                errors.append(f"coefficient exponents at tau={t}, slot {u}")
    return errors


def check_output(op, out: str) -> list[str]:
    data = json.loads(out)
    return _CHECKS[op["kind"]](op, data)


def _check_analyze(op, data):
    f, p, h, q, n = op["f"], op["p"], op["h"], op["q"], op["n"]
    errors = []
    k, K, r, ncl, kd = ref.constants(f, p, h, q)
    c = data["constants"]
    if (c["k"], c["r"], c["n_class"], c["k_dual"]) != (k, r, ncl, kd):
        errors.append("integer constants differ")
    if [_fr(x) for x in c["K"]] != K:
        errors.append("K differs")
    if op["human"] != all(len(x) == 3 for x in c["K"]):
        errors.append("--human decimals present or missing")
    ha = [Fraction(v) for v in op["ha"]]
    got_ha = [_fr(v) for v in data["hasse_input"]["values"]]
    want_mu = sum(ha) if op["ha_kind"] == "map" else ha[0]
    if got_ha != (ha if op["ha_kind"] == "map" else ha * f) or \
            _fr(data["hasse_input"]["mu_ha"]) != want_mu:
        errors.append("hasse input misread")
    expected = []
    for t in range(f):
        if q[t] in (0, h):
            expected.append({"tau": t, "degenerate": True})
            continue
        for m in range(1, n + 1):
            expected.append({"tau": t, "n": m,
                             "value": ref.threshold(f, p, q, K[t], t, m),
                             "h3": ref.threshold_h3(f, p, q, K[t], t, m)})
        expected[-1]["h1"] = ref.threshold_h1(p, q, K[t], t)
        expected[-1]["existence"] = ref.threshold_existence(p, q, K[t], t)
    got = [{key: (_fr(v) if isinstance(v, list) else v) for key, v in e.items()}
           for e in data["thresholds"]]
    if got != expected:
        errors.append("thresholds differ")
    return errors


def _check_polygons(op, data):
    f, p, h, q = op["f"], op["p"], op["h"], op["q"]
    errors = []
    if not ref.same_function(ref.polygon_from_json(data["hodge"]), ref.hodge(f, h, q)):
        errors.append("hodge polygon differs")
    if not ref.same_function(ref.polygon_from_json(data["reversed_hodge"]),
                             ref.reversed_hodge(f, h, q)):
        errors.append("reversed hodge polygon differs")
    for entry in data["hn_tau"]:
        t = entry["tau"]
        if not ref.same_function(ref.polygon_from_json(entry["polygon"]),
                                 ref.tau_profile(f, p, h, q, t)):
            errors.append(f"tau profile {t} differs")
    if [e["tau"] for e in data["hn_tau"]] != list(range(f)):
        errors.append("tau profiles missing")
    return errors


def _check_periods(op, data):
    f, p, h, q = op["f"], op["p"], op["h"], op["q"]
    errors = []
    for entry in data["maps"]:
        t = entry["tau"]
        if q[t] in (0, h):
            if not entry.get("degenerate"):
                errors.append(f"tau={t} should be degenerate")
            continue
        if _fr(entry["K_value"]) != ref.K_defining_sum(f, p, q, t):
            errors.append(f"K_value at tau={t} differs from the defining sum")
        if entry["transport_ok"] is not True:
            errors.append(f"transport fails at tau={t}")
        for u, c in enumerate(entry["coeffs"]):
            a, b, cc = ref.multiplication_coeff(f, q, t, u)
            if (c["a"], c["b"], c["c"]) != (a, b, cc):
                errors.append(f"coefficient exponents at tau={t}, slot {u}")
    if [e["tau"] for e in data["maps"]] != list(range(f)):
        errors.append("maps missing")
    return errors


def _check_lts(op, data):
    errors = []
    if data["eigen_ok"] is not True:
        errors.append("Phi = p fails")
    if data["solution_count_mod_p"] != op["p"] ** op["f"]:
        errors.append("solution count is not p^f")
    return errors


def _check_raynaud(op, data):
    f, p = op["f"], op["p"]
    vdelta = [Fraction(v) for v in op["vdelta"]]
    vgamma = [1 - v for v in vdelta]
    deg = [_fr(x) for x in data["degrees"]["deg"]]
    dual_deg = [1 - _fr(x) for x in data["dual_vdelta"]]  # the dual's v(gamma)
    errors = []
    if deg != vgamma:
        errors.append("degrees are not v(gamma) = 1 - v(delta)")
    if dual_deg != [1 - d for d in deg]:
        errors.append("dual degrees are not 1 - deg")
    for t in range(f):
        if _fr(data["hodge_tate_coker"][t]) != ref.raynaud_affine_cycle(p, vgamma, t):
            errors.append(f"Hodge-Tate cokernel at slot {t} differs")
    return errors


def _check_hn(op, data):
    f, p, h, q, n = op["f"], op["p"], op["h"], op["q"], op["n"]
    errors = []
    if data["nodes"] != ref.node_count(f, h, q, n):
        errors.append("node count is not prod(n*m+1)")
    poly = ref.polygon_from_json(data["result"]["polygon"])
    scaled = [(x / n, y / n) for x, y in poly]
    if op["mode"] == "classical":
        if not ref.same_function(scaled, ref.reversed_hodge(f, h, q)):
            errors.append("classical polygon / n is not the reversed Hodge polygon")
    else:
        target = [(x, f * y) for x, y in ref.tau_profile(f, p, h, q, op["tau"])]
        if not ref.same_function(scaled, target):
            errors.append("tau polygon / n is not f * V_tau")
    return errors


_CHECKS = {
    "analyze": _check_analyze,
    "polygons": _check_polygons,
    "periods": _check_periods,
    "lts": _check_lts,
    "raynaud": _check_raynaud,
    "hn-classical": _check_hn,
    "hn-tau": _check_hn,
}


def check_pairs(ops, outputs) -> list[str]:
    """hn workloads: both modes of one signature give the same filtration."""
    by_pair = {}
    for op, out in zip(ops, outputs):
        if "pair" in op and out is not None:
            filt = [(d["o_height"], d["deg"]) for d in json.loads(out)["result"]["filtration"]]
            by_pair.setdefault(op["pair"], []).append(filt)
    return [f"pair {k}: filtrations differ between modes"
            for k, filts in by_pair.items() if len(filts) == 2 and filts[0] != filts[1]]
