"""JSON rendering and relaxed literal parsing.

dump_json is the one renderer: report builders put library values
(Fraction, Polygon, descriptors, PeriodMonomial, Signature, HNResult) in
the output tree, and dump_json writes the tree in one recursive pass
through a closed type table, every rational as an exact [numerator,
denominator] pair; human mode appends a decimal approximation string
prefixed with "~".  Input literals may be strict JSON, which is read as
it stands, or use bare keys and a/b fractions, which are quoted into
strict JSON before parsing.
"""

from __future__ import annotations

import io
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import DigitCapExceeded, MufiltError
from .group_models import FiniteOModuleDesc, RaynaudDatum, SplitSubgroupDesc, _check_desc
from .hn_engine import HNResult
from .lt_crystals import LTSModel
from .period_calculus import PeriodMonomial
from .polygons import Polygon
from .signature_core import Signature, _check_index, _decimal_cap_bits


def approx_str(x: Fraction, places: int = 6) -> str:
    """Decimal approximation truncated to `places` digits, trailing zeros
    dropped, marked with "~"."""
    n, d = x.as_integer_ratio()
    sign = "-" if n < 0 else ""
    whole, rem = divmod(abs(n), d)
    frac_part = f"{rem * 10**places // d:0{places}d}".rstrip("0")
    if not frac_part:
        return f"~{sign}{whole}"
    return f"~{sign}{whole}.{frac_part}"


# Lattice degrees are mostly small integers.  A Fraction is immutable, so
# one instance per such integer, built at import, serves every node.
_SMALL_FRACTIONS = tuple(Fraction(i) for i in range(256))


def parse_frac(obj) -> Fraction:
    """Accept [num, den] pairs (extra entries ignored), a/b strings,
    decimal strings, and plain integers."""
    if type(obj) is int:
        return _SMALL_FRACTIONS[obj] if 0 <= obj < 256 else Fraction(obj)
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
    if type(obj) is int:
        return obj
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


def _ints(obj, what: str) -> tuple[int, ...]:
    return tuple(parse_int(x, f"{what} entry") for x in _parse_list(obj, what))


def _fracs(obj, what: str) -> tuple[Fraction, ...]:
    return tuple(parse_frac(x) for x in _parse_list(obj, what))


_BARE_KEY = re.compile(r'([{\s,])([A-Za-z_][A-Za-z0-9_]*|\d+)\s*:')
_BARE_FRAC = re.compile(r'(?<![\w".])(-?\d+)\s*/\s*(\d+)(?![\w".])')


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise MufiltError(f"literal repeats keys {repeated}")
    return obj


def _loads(text: str):
    """json.loads with repeated keys rejected.  Past the interpreter's limit
    on decimal digits json.loads raises a plain ValueError for an integer
    literal; that becomes a MufiltError, and a JSONDecodeError passes."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise MufiltError(
            "literal holds an integer of more than"
            f" {sys.get_int_max_str_digits()} decimal digits"
        ) from None


def relaxed_literal(text: str):
    """Parse a compact literal like {f:2,p:7,h:3,q:[1,2]} into JSON data.

    Strict JSON is read as it stands.  Any other text has its bare keys
    quoted and its a/b fraction tokens turned into "a/b" strings before
    json parsing.  A key repeated within one object is rejected on either
    path, where json.loads alone would keep the last value.
    """
    try:
        return _loads(text)
    except json.JSONDecodeError:
        pass
    quoted = _BARE_KEY.sub(r'\1"\2":', text.strip())
    quoted = _BARE_FRAC.sub(r'"\1/\2"', quoted)
    try:
        return _loads(quoted)
    except json.JSONDecodeError as exc:
        raise MufiltError(f"cannot parse literal {text!r}: {exc}")


def _check_keys(obj: dict, what: str, fields, optional) -> None:
    """Raise naming the unknown and missing keys unless the keys of obj are
    all of `fields` plus any of `optional`."""
    keys = obj.keys()
    unknown = keys - fields - optional
    missing = fields - keys
    if unknown or missing:
        raise MufiltError(
            f"{what} has unknown keys {sorted(unknown)}"
            f" and missing keys {sorted(missing)}"
        )


def _read_object(obj, what: str, fields: dict, optional: dict = {}) -> dict:
    """Read a literal object (a dict, or text for relaxed_literal) whose keys
    are exactly `fields` plus any of `optional`.  Each value is read by its
    reader(value, key); the result maps the keys present to what was read."""
    if isinstance(obj, str):
        obj = relaxed_literal(obj)
    if not isinstance(obj, dict):
        raise MufiltError(f"{what} must be an object, got {obj!r}")
    if obj.keys() != fields.keys():
        _check_keys(obj, what, fields.keys(), optional.keys())
    out = {key: read(obj[key], key) for key, read in fields.items()}
    for key, read in optional.items():
        if key in obj:
            out[key] = read(obj[key], key)
    return out


def parse_signature(obj) -> Signature:
    fields = {"f": parse_int, "p": parse_int, "h": parse_int, "q": _ints}
    return Signature(**_read_object(obj, "signature literal", fields))


def parse_datum(obj) -> RaynaudDatum:
    fields = {"f": parse_int, "p": parse_int, "vdelta": _fracs}
    return RaynaudDatum(**_read_object(obj, "datum", fields))


def parse_model(obj) -> LTSModel:
    fields = {"f": parse_int, "p": parse_int, "S": _ints, "tau0": parse_int}
    return LTSModel(**_read_object(obj, "model", fields))


def parse_hasse(sig: Signature, raw: str | None) -> tuple[str, tuple[Fraction, ...]]:
    """Read --ha: a scalar applies to whichever embedding is under report,
    a map literal gives one valuation per embedding."""
    if raw is None:
        return "scalar", (Fraction(0),) * sig.f
    text = raw.strip()
    if text.startswith("{"):
        vals = [Fraction(0)] * sig.f
        for key, value in relaxed_literal(text).items():
            t = _check_index(parse_int(key, "ha map key"), sig.f, "ha map key")
            vals[t] = parse_frac(value)
        return "map", tuple(vals)
    return "scalar", (parse_frac(text),) * sig.f


_DESC_KEYS = frozenset(("o_height", "deg", "level"))
_SPLIT_KEYS = _DESC_KEYS | {"torsion"}


def _read_node(obj) -> tuple[int, tuple[Fraction, ...], int, tuple[int, ...] | None]:
    """Read a descriptor {o_height, deg, level, torsion?} in one pass, as
    the row (o_height, deg, level, torsion or None): its keys are compared
    once with the two allowed sets, then each field is read in place, in
    that order, so the first bad field is the one named.  The fields are
    then checked as FiniteOModuleDesc checks them."""
    if isinstance(obj, str):
        obj = relaxed_literal(obj)
    if not isinstance(obj, dict):
        raise MufiltError(f"descriptor must be an object, got {obj!r}")
    keys = obj.keys()
    split = keys == _SPLIT_KEYS
    if not split and keys != _DESC_KEYS:
        _check_keys(obj, "descriptor", _DESC_KEYS, {"torsion"})
    o_height = parse_int(obj["o_height"], "o_height")
    deg = tuple([parse_frac(x) for x in _parse_list(obj["deg"], "deg")])
    level = parse_int(obj["level"], "level")
    torsion = _ints(obj["torsion"], "torsion") if split else None
    _check_desc(o_height, deg, level)
    return o_height, deg, level, torsion


def _nodes(obj, what: str) -> list:
    return [_read_node(node) for node in _parse_list(obj, what)]


def _pairs(obj, what: str) -> list[tuple[int, int]] | None:
    if obj is None:
        return None
    pairs = []
    for pair in _parse_list(obj, what):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MufiltError(f"containment pair {pair!r} must be [i, j]")
        i, j = pair
        # most indices are ints: skip the call for them
        if type(i) is not int:
            i = parse_int(i, "node index")
        if type(j) is not int:
            j = parse_int(j, "node index")
        pairs.append((i, j))
    return pairs


def parse_lattice(obj) -> tuple[list, list | None]:
    """Read a lattice file: {nodes: [...], containment: [[i,j],...]?}; a bare
    list is the nodes, and a null or absent containment means no pairs.
    Each node is read as a _read_node row, not as a descriptor."""
    if isinstance(obj, str):
        obj = relaxed_literal(obj)
    if isinstance(obj, list):
        obj = {"nodes": obj}
    data = _read_object(obj, "lattice", {"nodes": _nodes}, {"containment": _pairs})
    return data["nodes"], data.get("containment")


def dump_json(data, human: bool = False) -> str:
    """The one renderer: data as JSON with sorted keys, an indent of 2 and
    ASCII escapes, the bytes the json module writes with those settings,
    written by one recursive pass into one buffer.

    The type table is closed: str, int, bool, None, list and tuple, dict
    with str keys, and the library types Fraction, Polygon, descriptors,
    PeriodMonomial, Signature and HNResult.  Anything else, a float among
    them, raises TypeError.  A Fraction is [num, den], plus approx_str in
    human mode, so human output only appends "~" strings to the machine
    output; a polygon point is [xn, xd, yn, yd], plus its two "~" strings.
    An integer, or a numerator or denominator, that the interpreter cannot
    write in decimal raises DigitCapExceeded, with both sizes in bits; a
    limit of 0 lifts it.
    """
    digits = sys.get_int_max_str_digits()
    cap = _decimal_cap_bits(digits) if digits else 0
    buf = io.StringIO()
    write = buf.write

    def ratio(x: Fraction) -> tuple[int, int]:
        num, den = x.as_integer_ratio()
        if cap and (num.bit_length() > cap or den.bit_length() > cap):
            raise DigitCapExceeded(cap, max(num.bit_length(), den.bit_length()))
        return num, den

    def members(items, lead: str, nl: str) -> None:
        """An object from its (quoted key + ": ", value) pairs, keys sorted."""
        inner = nl + "  "
        sep = lead + "{" + inner
        for key, value in items:
            put(value, sep + key, inner)
            sep = "," + inner
        write(nl + "}")

    def put(o, lead: str, nl: str) -> None:
        """Write lead, then o, whose own lines are indented as nl is."""
        t = type(o)
        if t is Fraction:
            num, den = ratio(o)
            inner = nl + "  "
            if human:
                write(f'{lead}[{inner}{num},{inner}{den},{inner}"{approx_str(o)}"{nl}]')
            else:
                write(f"{lead}[{inner}{num},{inner}{den}{nl}]")
        elif t is int:
            if cap and o.bit_length() > cap:
                raise DigitCapExceeded(cap, o.bit_length())
            write(lead + int.__repr__(o))
        elif t is bool:
            write(lead + ("true" if o else "false"))
        elif t is list or t is tuple:
            if not o:
                write(lead + "[]")
                return
            inner = nl + "  "
            sep = lead + "[" + inner
            for x in o:
                # ints fill most lists: write them without the call
                if type(x) is int and not (cap and x.bit_length() > cap):
                    write(sep + int.__repr__(x))
                else:
                    put(x, sep, inner)
                sep = "," + inner
            write(nl + "]")
        elif t is dict:
            if not o:
                write(lead + "{}")
                return
            for key in o:
                if type(key) is not str:
                    raise TypeError(f"cannot render {type(key).__name__} key")
            inner = nl + "  "
            sep = lead + "{" + inner
            for key in sorted(o):
                put(o[key], sep + _quote(key) + ": ", inner)
                sep = "," + inner
            write(nl + "}")
        elif t is str:
            write(lead + _quote(o))
        elif o is None:
            write(lead + "null")
        elif t is Polygon:
            inner = nl + "  "
            points = nl + "    "
            point = points + "  "
            write(f'{lead}{{{inner}"convexity": {_quote(o.convexity)},{inner}"points": ')
            sep = "[" + points
            for x, y in o.points:
                xn, xd = ratio(x)
                yn, yd = ratio(y)
                text = f"{sep}[{point}{xn},{point}{xd},{point}{yn},{point}{yd}"
                if human:
                    text += f',{point}"{approx_str(x)}",{point}"{approx_str(y)}"'
                write(f"{text}{points}]")
                sep = "," + points
            write(f"{inner}]{nl}}}")
        elif t is FiniteOModuleDesc or t is SplitSubgroupDesc:
            items = [('"deg": ', o.deg), ('"level": ', o.level), ('"o_height": ', o.o_height)]
            if t is SplitSubgroupDesc:
                items.append(('"torsion": ', o.torsion))
            members(items, lead, nl)
        elif t is PeriodMonomial:
            members(
                (('"a": ', o.a), ('"b": ', o.b), ('"c": ', o.c), ('"text": ', o.text())),
                lead, nl,
            )
        elif t is Signature:
            members((('"f": ', o.f), ('"h": ', o.h), ('"p": ', o.p), ('"q": ', o.q)), lead, nl)
        elif t is HNResult:
            members(
                (('"filtration": ', o.filtration), ('"polygon": ', o.polygon),
                 ('"slopes": ', o.slopes)),
                lead, nl,
            )
        else:
            raise TypeError(f"cannot render {t.__name__}")

    put(data, "", "\n")
    write("\n")
    return buf.getvalue()
