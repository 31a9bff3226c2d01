"""Byte equality of CLI stdout with golden files.

Each file in tests/golden/<name>.out holds the stdout of the command in
CASES, captured before the threshold, guard and verify-suite code was
merged into single definitions; the lattice input lives next to them.
"""

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
