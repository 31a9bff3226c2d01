"""The CLI on drawn argv: every subcommand, with literals that are well
formed, malformed, missing keys, carrying unknown or repeated keys, or
holding values of the wrong type.  Each argv exits 0 or 1 with no escaped
exception, gives the same output on a second run, and every tree it
renders gives the bytes of the reference renderer.

f stays at most 12: periods without --tau prints O(f^3) bytes."""

import contextlib
import io
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import mufilt.cli_reports as cli
import oracles
from mufilt.serialize import dump_json

GOLDEN_LATTICE = str(Path(__file__).parent / "golden" / "lattice.json")
P61 = 2**61 - 1
PRIMES = [2, 3, 5, 7, 11, 13, 31, 8191, 65537, 2**31 - 1, P61]

# value texts that are wrong for most fields
JUNK = ["x", "1.5", "-3", "0", "true", "null", "1/0", "[]", "{}", "[1,", '"7"',
        "1/2", "9" * 4400]


def _text(value) -> str:
    if isinstance(value, list):
        return "[" + ",".join(map(_text, value)) + "]"
    return str(value)


def mostly(good, bad, one_in=10):
    """bad in about one draw of one_in, good in the others.  The bad draw
    is a middle value: hypothesis favours the ends of a range."""
    return st.integers(1, one_in).flatmap(lambda i: bad if i == one_in // 2 else good)


@st.composite
def literal(draw, fields):
    """A relaxed literal {key:value,...} from a dict of key -> value, in
    one draw of five damaged: a key dropped, an unknown or a repeated key,
    a junk value, or the text cut short."""
    items = [(key, _text(value)) for key, value in fields.items()]
    damage = draw(st.sampled_from(
        [None] * 20 + ["drop", "unknown", "repeat", "junk", "cut"]))
    if damage == "drop":
        del items[draw(st.integers(0, len(items) - 1))]
    elif damage == "unknown":
        items.append((draw(st.sampled_from(["z", "tau", "F", "0"])), "1"))
    elif damage == "repeat":
        items.append(draw(st.sampled_from(items)))
    elif damage == "junk":
        i = draw(st.integers(0, len(items) - 1))
        items[i] = (items[i][0], draw(st.sampled_from(JUNK)))
    text = "{" + ",".join(f"{key}:{value}" for key, value in items) + "}"
    if damage == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


degrees = mostly(st.integers(1, 12), st.sampled_from([0, -1]))
primes = mostly(st.sampled_from(PRIMES), st.integers(-1, 2**61))
heights = mostly(st.integers(1, 8), st.just(0))
# a/b in [0, 1], or in one draw of forty a value out of it or no rational
fractions = mostly(
    st.integers(1, 9).flatmap(lambda b: st.integers(0, b).map(lambda a: f"{a}/{b}")),
    st.sampled_from(["-1/2", "3/2", "1/0", "x", "2"]),
    one_in=40,
)


def indices(f, one_in=10):
    """An embedding index of 0..f-1, or one out of range."""
    return mostly(st.integers(0, max(f, 1) - 1), st.sampled_from([-1, f]), one_in)


def lists(f, entries):
    """f entries, or a list of the wrong length."""
    return mostly(
        st.lists(entries, min_size=max(f, 0), max_size=max(f, 0)),
        st.lists(entries, max_size=4),
    )


@st.composite
def signatures(draw, f):
    h = draw(heights)
    q = draw(lists(f, mostly(st.integers(0, max(h, 0)), st.sampled_from([-1, h + 1]), 40)))
    return draw(literal({"f": f, "p": draw(primes), "h": h, "q": q}))


def _options(draw, table):
    """Each option of table, {flag: strategy of its value or None}, in a
    drawn subset; a None strategy is a bare flag."""
    argv = []
    for flag, values in table.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, str(draw(values))]
    return argv


levels = mostly(st.integers(1, 4), st.sampled_from([0, -1]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["analyze", "polygons", "hn", "raynaud", "periods", "lts", "verify"]))
    f = draw(degrees)
    human = {"--human": None}
    if command == "analyze":
        ha = fractions | st.builds(
            lambda keys, vals: "{" + ",".join(f"{k}:{v}" for k, v in zip(keys, vals)) + "}",
            st.lists(indices(f), max_size=3, unique=True),
            st.lists(fractions, min_size=3, max_size=3))
        argv = ["analyze", "--sig", draw(signatures(f))] + _options(
            draw, {"--ha": ha, "--n": levels, "--tau": indices(f), **human})
    elif command == "polygons":
        argv = ["polygons", "--sig", draw(signatures(f))] + _options(
            draw, {"--tau": indices(f), "--svg": st.just("-"), **human})
    elif command == "hn":
        if draw(st.booleans()):
            argv = ["hn", "--sig", draw(signatures(f))] + _options(draw, {"--n": levels})
        else:
            lattice = mostly(st.just(GOLDEN_LATTICE), st.just("no/such/lattice.json"))
            argv = ["hn", "--lattice", draw(lattice)]
            f = 2  # the golden lattice's
        mode = draw(mostly(st.sampled_from(["classical", "tau"]), st.just("x")))
        argv += ["--mode", mode]
        if mode == "tau" and draw(mostly(st.just(True), st.just(False))):
            argv += ["--tau", str(draw(indices(f)))]
        if mode == "tau" and argv[1] == "--lattice":
            argv += ["--p", str(draw(primes))]
        argv += _options(draw, human)
    elif command == "raynaud":
        vdelta = draw(lists(f, fractions))
        datum = draw(literal({"f": f, "p": draw(primes), "vdelta": vdelta}))
        argv = ["raynaud", "--datum", datum] + _options(draw, human)
    elif command == "periods":
        argv = ["periods", "--sig", draw(signatures(f))] + _options(
            draw, {"--tau": indices(f), **human})
    elif command == "lts":
        tau0 = draw(indices(f))
        S = draw(st.lists(indices(f, 40).filter(lambda t: t != tau0),
                          max_size=max(f - 1, 0), unique=True))
        model = {"f": f, "p": draw(primes), "S": S, "tau0": tau0}
        argv = ["lts", "--model", draw(literal(model))] + _options(draw, human)
    else:
        # the default, all, runs for about 1.6 s; TestVerifyCommand covers it
        suite = draw(st.sampled_from(["constants", "lts", "deformation", "appendix", "x"]))
        argv = ["verify", "--suite", suite]
    # argv damage: an unknown flag, or the last value left off
    damage = draw(st.sampled_from([None] * 18 + ["flag", "cut"]))
    if damage == "flag":
        argv.append("--bogus")
    elif damage == "cut":
        argv = argv[:-1]
    return argv


def _checked_dump_json(data, human=False):
    out = dump_json(data, human)
    assert out == oracles.dump_json_reference(data, human)
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=1500, deadline=2000)
@given(argvs())
def test_cli_exits_cleanly_and_repeats(argv):
    with mock.patch.object(cli, "dump_json", _checked_dump_json):
        first = _run(argv)
        assert first[0] in (0, 1), first
        assert _run(argv) == first
