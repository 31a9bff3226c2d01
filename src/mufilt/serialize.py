"""JSON encoding and relaxed literal parsing.

Machine output renders every rational as an exact [numerator, denominator]
pair; human mode appends a decimal approximation string prefixed with "~".
Input literals may use bare keys and a/b fractions; they are quoted into
strict JSON before parsing.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import MufiltError
from .group_models import FiniteOModuleDesc, SplitSubgroupDesc
from .polygons import Polygon
from .signature_core import Signature


def approx_str(x: Fraction, places: int = 6) -> str:
    """Decimal approximation by integer long division, marked with "~"."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    whole, rem = divmod(n, d)
    digits = []
    for _ in range(places):
        rem *= 10
        dig, rem = divmod(rem, d)
        digits.append(str(dig))
        if rem == 0:
            break
    frac_part = "".join(digits).rstrip("0")
    if not frac_part:
        return f"~{sign}{whole}"
    return f"~{sign}{whole}.{frac_part}"


def frac_json(x, human: bool = False):
    x = Fraction(x)
    if human:
        return [x.numerator, x.denominator, approx_str(x)]
    return [x.numerator, x.denominator]


def parse_frac(obj) -> Fraction:
    """Accept [num, den] pairs (extra entries ignored), a/b strings,
    decimal strings, and plain integers."""
    if isinstance(obj, bool):
        raise MufiltError(f"cannot read {obj!r} as a rational")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj.strip())
        except (ValueError, ZeroDivisionError):
            raise MufiltError(f"cannot read {obj!r} as a rational")
    if isinstance(obj, (list, tuple)) and len(obj) >= 2:
        num, den = obj[0], obj[1]
        if isinstance(num, int) and isinstance(den, int) and den != 0:
            return Fraction(num, den)
    raise MufiltError(f"cannot read {obj!r} as a rational")


def parse_int(obj, what: str) -> int:
    """Read an integer field of literal input: an int or an integer string
    such as a map key.  Rejects bool and floats, which int() would accept
    as 1 or truncate (1.9 -> 1)."""
    if isinstance(obj, str):
        try:
            obj = int(obj)
        except ValueError:
            pass
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise MufiltError(f"{what} must be an integer, got {obj!r}")
    return obj


def _parse_list(obj, what: str):
    """Read a list field of literal input.  Rejects strings and objects,
    which iteration would read character by character or key by key."""
    if not isinstance(obj, (list, tuple)):
        raise MufiltError(f"{what} must be a list, got {obj!r}")
    return obj


_BARE_KEY = re.compile(r'([{\s,])([A-Za-z_][A-Za-z0-9_]*|\d+)\s*:')
_BARE_FRAC = re.compile(r'(?<![\w".])(-?\d+)\s*/\s*(\d+)(?![\w".])')


def relaxed_literal(text: str):
    """Parse a compact literal like {f:2,p:7,h:3,q:[1,2]} into JSON data.

    Bare keys are quoted, and a/b fraction tokens become "a/b" strings so
    they survive json parsing.
    """
    quoted = _BARE_KEY.sub(r'\1"\2":', text.strip())
    quoted = _BARE_FRAC.sub(r'"\1/\2"', quoted)
    try:
        return json.loads(quoted)
    except json.JSONDecodeError as exc:
        raise MufiltError(f"cannot parse literal {text!r}: {exc}")


def parse_signature(obj) -> Signature:
    if isinstance(obj, str):
        obj = relaxed_literal(obj)
    if not isinstance(obj, dict):
        raise MufiltError(f"signature literal must be an object, got {obj!r}")
    try:
        f = parse_int(obj["f"], "f")
        p = parse_int(obj["p"], "p")
        h = parse_int(obj["h"], "h")
        q = tuple(parse_int(x, "q entry") for x in _parse_list(obj["q"], "q"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MufiltError(f"signature literal needs f, p, h, q: {exc}")
    return Signature(f=f, p=p, h=h, q=q)


def signature_json(sig: Signature) -> dict:
    return {"f": sig.f, "p": sig.p, "h": sig.h, "q": list(sig.q)}


def polygon_json(poly: Polygon, human: bool = False) -> dict:
    pts = []
    for x, y in poly.points:
        entry = [x.numerator, x.denominator, y.numerator, y.denominator]
        if human:
            entry.append(approx_str(x))
            entry.append(approx_str(y))
        pts.append(entry)
    return {"convexity": poly.convexity, "points": pts}


def parse_polygon(obj) -> Polygon:
    if not isinstance(obj, dict) or "points" not in obj or "convexity" not in obj:
        raise MufiltError("polygon object needs convexity and points")
    pts = []
    for entry in obj["points"]:
        if not isinstance(entry, (list, tuple)) or len(entry) < 4:
            raise MufiltError(f"polygon point {entry!r} needs four integers")
        xn, xd, yn, yd = entry[:4]
        pts.append((Fraction(xn, xd), Fraction(yn, yd)))
    return Polygon(tuple(pts), obj["convexity"])


def monomial_json(m, human: bool = False) -> dict:
    out = {"a": m.a, "b": list(m.b), "c": m.c, "text": m.text()}
    return out


def desc_json(desc: FiniteOModuleDesc, human: bool = False) -> dict:
    out = {
        "o_height": desc.o_height,
        "deg": [frac_json(d, human) for d in desc.deg],
        "level": desc.level,
    }
    if isinstance(desc, SplitSubgroupDesc):
        out["torsion"] = list(desc.torsion)
    return out


def parse_desc(obj) -> FiniteOModuleDesc:
    if not isinstance(obj, dict):
        raise MufiltError(f"descriptor must be an object, got {obj!r}")
    try:
        ht = parse_int(obj["o_height"], "o_height")
        deg = tuple(parse_frac(d) for d in _parse_list(obj["deg"], "deg"))
        level = parse_int(obj["level"], "level")
    except (KeyError, TypeError, ValueError) as exc:
        raise MufiltError(f"descriptor needs o_height, deg, level: {exc}")
    if "torsion" in obj:
        return SplitSubgroupDesc(
            o_height=ht,
            deg=deg,
            level=level,
            torsion=tuple(
                parse_int(s, "torsion entry")
                for s in _parse_list(obj["torsion"], "torsion")
            ),
        )
    return FiniteOModuleDesc(o_height=ht, deg=deg, level=level)


def parse_lattice(obj) -> tuple[list[FiniteOModuleDesc], list | None]:
    """Read a lattice file: {nodes: [...], containment: [[i,j],...]?}."""
    if isinstance(obj, str):
        obj = relaxed_literal(obj)
    if isinstance(obj, list):
        obj = {"nodes": obj}
    if not isinstance(obj, dict) or "nodes" not in obj:
        raise MufiltError("lattice input needs a nodes list")
    nodes = [parse_desc(n) for n in obj["nodes"]]
    pairs = None
    if obj.get("containment") is not None:
        pairs = []
        for pair in obj["containment"]:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise MufiltError(f"containment pair {pair!r} must be [i, j]")
            i, j = pair
            pairs.append((parse_int(i, "node index"), parse_int(j, "node index")))
    return nodes, pairs


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
