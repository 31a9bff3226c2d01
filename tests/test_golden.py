"""Byte equality of CLI stdout with golden files.

Each file in tests/golden/<name>.out holds the stdout of the command in
CASES, captured before the threshold, guard and verify-suite code was
merged into single definitions; the lattice input lives next to them.
"""

import json
from pathlib import Path

import pytest

from mufilt.cli_reports import run_command

GOLDEN = Path(__file__).parent / "golden"
REF = "{f:2,p:7,h:3,q:[1,2]}"
LATTICE = str(GOLDEN / "lattice.json")

CASES = {
    "analyze_ref_map_n2_human": [
        "analyze", "--sig", REF, "--ha", "{0:1/100,1:1/200}", "--n", "2",
        "--human",
    ],
    "analyze_f6_n4": [
        "analyze", "--sig", "{f:6,p:5,h:6,q:[0,1,3,3,5,6]}", "--ha", "1/5000",
        "--n", "4",
    ],
    "analyze_ref_tau_large_ha": ["analyze", "--sig", REF, "--ha", "1/2", "--tau", "1"],
    "hn_sig_classical": ["hn", "--sig", REF, "--n", "2"],
    "hn_sig_tau": [
        "hn", "--sig", "{f:3,p:5,h:4,q:[1,3,2]}", "--n", "2", "--mode", "tau",
        "--tau", "2",
    ],
    "hn_lattice_classical": ["hn", "--lattice", LATTICE, "--human"],
    "hn_lattice_tau": [
        "hn", "--lattice", LATTICE, "--mode", "tau", "--tau", "1", "--p", "3",
    ],
    "periods_degenerate_slot": [
        "periods", "--sig", "{f:3,p:5,h:3,q:[0,2,3]}", "--human",
    ],
    "periods_ref": ["periods", "--sig", REF],
    "lts": ["lts", "--model", "{f:4,p:3,S:[0,2],tau0:1}", "--human"],
    "polygons_json": ["polygons", "--sig", "{f:3,p:5,h:4,q:[1,3,2]}", "--human"],
    "polygons_svg": ["polygons", "--sig", REF, "--svg", "-"],
    "raynaud": ["raynaud", "--datum", "{f:3,p:5,vdelta:[1/2,1/3,0]}", "--human"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert run_command(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def _drop_approximations(data):
    """data without the "~" strings that human mode appends."""
    if isinstance(data, list):
        return [
            _drop_approximations(x)
            for x in data
            if not (isinstance(x, str) and x.startswith("~"))
        ]
    if isinstance(data, dict):
        return {key: _drop_approximations(value) for key, value in data.items()}
    return data


@pytest.mark.parametrize("name", sorted(n for n in CASES if "--human" in CASES[n]))
def test_human_mode_only_appends(name, capsys):
    """dump_json renders every value once: human output less its "~"
    strings is the machine output of the same argv."""
    argv = CASES[name]
    assert run_command(list(argv)) == 0
    human = json.loads(capsys.readouterr().out)
    assert run_command([a for a in argv if a != "--human"]) == 0
    machine = capsys.readouterr().out
    assert json.dumps(_drop_approximations(human), sort_keys=True, indent=2) + "\n" == machine


# argv that fail while parsing or while running, between the reuse passes
FAILING = [
    ["hn"],
    ["analyze", "--sig", REF, "--n", "0"],
    ["no-such-command"],
    ["hn", "--lattice", LATTICE, "--n", "1"],
]


def test_one_parser_serves_every_call(capsys):
    """The argparse tree is built once per process: running every case
    forward, some failing argv, then every case in reverse gives the golden
    stdout each time and exit 1 for each failing argv."""
    names = sorted(CASES)
    for order in (names, FAILING, names[::-1], FAILING):
        for item in order:
            argv = item if isinstance(item, list) else CASES[item]
            code = run_command(list(argv))
            out = capsys.readouterr().out
            if isinstance(item, list):
                assert (code, out) == (1, "")
            else:
                assert code == 0
                assert out.encode("utf-8") == (GOLDEN / f"{item}.out").read_bytes()
