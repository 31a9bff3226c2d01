"""Command-line interface: exit codes, JSON shapes, determinism, parsing."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mufilt.cli_reports as cli
import mufilt.signature_core as sc
import oracles
from conftest import iter_signatures
from mufilt import (
    DigitCapExceeded,
    InternalNonIntegral,
    LevelCapExceeded,
    MufiltError,
    Polygon,
    RaynaudDatum,
    classical_weighting,
    enumerate_split_subgroups,
    hn_from_lattice,
    hodge_polygon,
    mu_ordinary_product,
    raynaud_degrees,
    raynaud_hodge_tate_coker_degree,
    tau_weighting,
)
from mufilt.cli_reports import build_report_bundle, run_command
from mufilt.group_models import FiniteOModuleDesc, SplitSubgroupDesc
from mufilt.serialize import (
    _fracs,
    _ints,
    _node_desc,
    _read_node,
    _read_object,
    approx_str,
    dump_json,
    parse_frac,
    parse_int,
    parse_lattice,
    parse_signature,
    relaxed_literal,
)
from mufilt.svg import render_polygons

F = Fraction

SIG = "{f:2,p:7,h:3,q:[1,2]}"
LATTICE = str(Path(__file__).parent / "golden" / "lattice.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, err = run(capsys, "analyze", "--sig", SIG)
        assert code == 0
        assert err == ""
        json.loads(out)

    def test_rejected_input_is_one(self, capsys):
        code, out, err = run(capsys, "analyze", "--sig", "{f:2,p:9,h:3,q:[1,2]}")
        assert code == 1
        assert err.startswith("error:")

    def test_usage_error_is_one(self, capsys):
        code, _, err = run(capsys, "analyze", "--no-such-flag")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_subcommand_is_one(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_internal_breach_is_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InternalNonIntegral("forced for the exit-code contract")

        monkeypatch.setattr(cli, "build_report_bundle", boom)
        code, _, err = run(capsys, "analyze", "--sig", SIG)
        assert code == 2
        assert err.startswith("internal invariant breach:")


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--sig", SIG, "--ha", "{x:1/2}"],
            ["analyze", "--sig", "{f:true,p:7,h:3,q:[1]}"],
            ["analyze", "--sig", "{f:2,p:7,h:3,q:[1.9,2]}"],
            ["lts", "--model", "{f:2,p:5,S:[0],tau0:1.5}"],
            ["raynaud", "--datum", "{f:2.0,p:5,vdelta:[1/2,1/3]}"],
        ],
    )
    def test_non_integer_fields_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "must be an integer" in err

    @pytest.mark.parametrize(
        "literal",
        [
            "{f:1,p:7,h:%s,q:[1]}" % ("1" * 4400),
            '{"f": 1, "p": 7, "h": %s, "q": [1]}' % ("1" * 4400),
        ],
        ids=["relaxed", "strict"],
    )
    def test_over_long_integer_literal(self, capsys, literal):
        # json.loads raises a plain ValueError past the digit limit
        code, out, err = run(capsys, "periods", "--sig", literal)
        assert (code, out) == (1, "")
        assert err == (
            "error: literal holds an integer of more than"
            f" {sys.get_int_max_str_digits()} decimal digits\n"
        )

    def test_missing_lattice_file(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        code, _, err = run(capsys, "hn", "--lattice", path)
        assert code == 1 and err.startswith("error:") and "missing.json" in err

    def test_unwritable_svg_path(self, capsys, tmp_path):
        path = str(tmp_path / "no-such-dir" / "out.svg")
        code, _, err = run(capsys, "polygons", "--sig", SIG, "--svg", path)
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--sig", '{f:2,p:7,h:3,q:"12"}'],
            ["lts", "--model", '{f:2,p:5,S:"0",tau0:1}'],
            ["raynaud", "--datum", '{f:2,p:5,vdelta:"10"}'],
        ],
    )
    def test_list_fields_need_arrays(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "must be a list" in err

    @pytest.mark.parametrize(
        "node",
        [
            '{"o_height": 0, "deg": "00", "level": 1}',
            '{"o_height": 0, "deg": [0, 0], "level": 1, "torsion": "0"}',
        ],
    )
    def test_lattice_list_fields_need_arrays(self, capsys, tmp_path, node):
        path = tmp_path / "lattice.json"
        path.write_text('{"nodes": [%s]}' % node)
        code, out, err = run(capsys, "hn", "--lattice", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "must be a list" in err

    def test_composite_p_on_lattice_rejected(self, capsys):
        code, out, err = run(
            capsys, "hn", "--lattice", LATTICE, "--mode", "tau", "--tau", "0",
            "--p", "4",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "prime" in err

    def test_svg_title_is_escaped(self):
        items = [(hodge_polygon(parse_signature(SIG)), "hodge")]
        doc = render_polygons(items, title="</text><script>alert(1)</script>")
        assert "<script" not in doc
        assert "&lt;/text&gt;&lt;script&gt;" in doc

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["polygons", "--sig",
              '{f:1,p:2,h:1,q:[0],x:"</text><script>alert(1)</script>"}',
              "--svg", "-"], "x"),
            (["analyze", "--sig", "{f:2,p:7,h:3,q:[1,2],n:2}"], "n"),
            (["periods", "--sig", "{f:2,p:7,h:3,q:[1,2],tau:0}"], "tau"),
            (["lts", "--model", "{f:2,p:5,S:[0],tau0:1,tau:7}"], "tau"),
            (["raynaud", "--datum", "{f:2,p:5,vdelta:[1/2,1/3],tau:9}"], "tau"),
        ],
    )
    def test_unknown_keys_rejected(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"unknown keys [{key!r}]" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"nodes": [{"o_height": 0, "deg": [0], "level": 1, "id": 7}]}', "id"),
            ('{"nodes": [{"o_height": 0, "deg": [0], "level": 1}], "order": []}',
             "order"),
        ],
    )
    def test_lattice_unknown_keys_rejected(self, capsys, tmp_path, text, key):
        path = tmp_path / "lattice.json"
        path.write_text(text)
        code, out, err = run(capsys, "hn", "--lattice", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"unknown keys [{key!r}]" in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["raynaud", "--datum", "{f:2,p:5}"], "vdelta"),
            (["analyze", "--sig", "{f:2,p:7,q:[1,2]}"], "h"),
        ],
    )
    def test_missing_key_named(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"missing keys [{key!r}]" in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["periods", "--sig", "{f:2,p:7,h:3,q:[1,2],q:[0,0]}"], "q"),
            (["analyze", "--sig", SIG, "--ha", "{0:1/2,0:1/3}"], "0"),
            (["raynaud", "--datum", "{f:2,p:5,vdelta:[1/2,1/3],f:2}"], "f"),
        ],
    )
    def test_repeated_keys_rejected(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"repeats keys [{key!r}]" in err

    def test_repeated_key_in_lattice_node_rejected(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        node = '{"o_height": 0, "deg": [0], "level": 1, "level": 1}'
        path.write_text('{"nodes": [%s]}' % node)
        code, out, err = run(capsys, "hn", "--lattice", str(path))
        assert code == 1 and out == ""
        assert "repeats keys ['level']" in err

    @pytest.mark.parametrize(
        "extra", [[[3, 0]], [[1, 2], [2, 1]]], ids=["top-below-bottom", "middle-two-cycle"]
    )
    def test_cyclic_lattice_rejected(self, capsys, tmp_path, extra):
        degs = [[0, 0], [1, 0], [0, 1], [1, 1]]
        lattice = {
            "nodes": [
                {"o_height": sum(deg), "deg": deg, "level": 1} for deg in degs
            ],
            "containment": [[0, 1], [0, 2], [1, 3], [2, 3]] + extra,
        }
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice), encoding="utf-8")
        code, out, err = run(capsys, "hn", "--lattice", str(path))
        assert code == 1 and out == ""
        assert err == "error: containment pairs form a cycle\n"

    def test_level_rejected_on_lattice_input(self, capsys):
        for n in ("0", "1", "2"):
            code, out, err = run(capsys, "hn", "--lattice", LATTICE, "--n", n)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "carries its own levels" in err

    def test_level_defaults_to_one_on_signature_input(self, capsys):
        _, default, _ = run(capsys, "hn", "--sig", SIG)
        _, one, _ = run(capsys, "hn", "--sig", SIG, "--n", "1")
        assert default == one and json.loads(default)["nodes"] == 8
        code, out, err = run(capsys, "hn", "--sig", SIG, "--n", "0")
        assert code == 1 and out == "" and "level n" in err


class TestAnalyze:
    def test_deterministic_output(self, capsys):
        argv = ("analyze", "--sig", SIG, "--ha", "1/100", "--n", "2")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_bundle_reference_values(self, capsys):
        code, out, _ = run(capsys, "analyze", "--sig", SIG)
        assert code == 0
        bundle = json.loads(out)
        assert bundle["signature"] == {"f": 2, "p": 7, "h": 3, "q": [1, 2]}
        assert bundle["constants"]["k"] == [0, 1]
        assert bundle["constants"]["K"] == [[0, 1], [7, 48]]
        assert bundle["constants"]["k_dual"] == [1, 0]
        assert bundle["prime_admissible"]["ok"] is True
        assert bundle["mu_ordinary_factors"] == [
            {"A": [], "mult": 1},
            {"A": [0], "mult": 1},
            {"A": [0, 1], "mult": 1},
        ]
        values = {
            (e["tau"], e["n"]): e["value"]
            for e in bundle["thresholds"]
            if "value" in e
        }
        assert values[(1, 1)] == [23, 48]
        assert bundle["polygons"]["hodge"]["points"] == [
            [0, 1, 0, 1],
            [1, 1, 0, 1],
            [2, 1, 1, 2],
            [3, 1, 3, 2],
        ]

    def test_certificates_section(self, capsys):
        _, out, _ = run(capsys, "analyze", "--sig", SIG)
        certs = json.loads(out)["certificates"]
        assert len(certs["crans"]) == 2
        first = certs["crans"][0]
        assert first["tau_class"] == [1]
        assert first["o_height"] == 1
        assert first["tau_mode"]["weighted_degree"] == [8, 1]
        assert first["tau_mode"]["break_bound"] == [15, 2]
        assert first["tau_mode"]["cran_bound"] == [43, 6]
        assert certs["bijakowski"] == [
            {"inner_height": 1, "outer_height": 2, "fires": True}
        ]

    def test_tau_restriction(self, capsys):
        _, out, _ = run(capsys, "analyze", "--sig", SIG, "--tau", "1")
        bundle = json.loads(out)
        assert [e["tau"] for e in bundle["towers"]] == [1]
        assert all(e["tau"] == 1 for e in bundle["thresholds"])

    def test_ha_map_literal(self, capsys):
        _, out, _ = run(
            capsys, "analyze", "--sig", SIG, "--ha", "{0:1/100,1:1/200}"
        )
        hi = json.loads(out)["hasse_input"]
        assert hi["kind"] == "map"
        assert hi["values"] == [[1, 100], [1, 200]]
        assert hi["mu_ha"] == [3, 200]

    def test_ha_scalar(self, capsys):
        _, out, _ = run(capsys, "analyze", "--sig", SIG, "--ha", "1/100")
        hi = json.loads(out)["hasse_input"]
        assert hi["kind"] == "scalar"
        assert hi["mu_ha"] == [1, 100]

    def test_human_triples(self, capsys):
        _, out, _ = run(capsys, "analyze", "--sig", SIG, "--human")
        bundle = json.loads(out)
        K1 = bundle["constants"]["K"][1]
        assert K1 == [7, 48, "~0.145833"]

    def test_bad_depth_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--sig", SIG, "--n", "0")
        assert code == 1 and err.startswith("error:")

    def test_level_cap_bounds_huge_n(self, capsys):
        code, out, err = run(capsys, "analyze", "--sig", SIG, "--n", "100000")
        # (n - 1) f bitlen(7) = 99999 * 2 * 3
        assert code == 1 and out == ""
        assert err == (
            "error: the level loop needs p^((n-1)f) of up to 599994 bits,"
            " cap is 4096\n"
        )

    def test_level_cap_fields(self, monkeypatch):
        sig = parse_signature(SIG)
        monkeypatch.setattr(sc, "LEVEL_CAP", 12)
        build_report_bundle(sig, "scalar", (F(0), F(0)), 3)  # 2 * 2 * 3 = 12
        with pytest.raises(LevelCapExceeded) as err:
            build_report_bundle(sig, "scalar", (F(0), F(0)), 4)
        assert (err.value.cap, err.value.required) == (12, 18)

    def test_level_cap_admits_report_sizes(self):
        # n <= 4 with a 30-bit p and f = 6: 3 * 6 * 30 bits
        sig = parse_signature("{f:6,p:1073741789,h:6,q:[1,2,3,4,5,1]}")
        bundle = build_report_bundle(sig, "scalar", (F(0),) * 6, 4)
        assert len(bundle["towers"][0]["levels"]) == 4

    def test_bundle_rejects_level_zero(self):
        with pytest.raises(MufiltError, match="level n"):
            build_report_bundle(parse_signature(SIG), "scalar", (F(0), F(0)), 0)

    def test_bundle_rejects_tau_out_of_range(self):
        with pytest.raises(MufiltError, match="out of range"):
            build_report_bundle(
                parse_signature(SIG), "scalar", (F(0), F(0)), 1, tau=2
            )

    def test_ha_map_key_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--sig", SIG, "--ha", "{5:1/100}"
        )
        assert code == 1 and "out of range" in err

    def test_p_value_reads_grow_linearly_in_f(self, capsys, monkeypatch):
        # a timer-free cost guard: one analyze reads p_values a bounded
        # number of times per embedding, so doubling f at most about
        # doubles the reads; a read per min(p_tau, p_u) grows them as f^2
        reads = 0
        p_values = sc.Signature.p_values.fget

        def counted(sig):
            nonlocal reads
            reads += 1
            return p_values(sig)

        monkeypatch.setattr(sc.Signature, "p_values", property(counted))
        counts = []
        for f in (60, 120):
            reads = 0
            q = ",".join(str(i % 3) for i in range(f))
            code, _, _ = run(capsys, "analyze", "--sig", f"{{f:{f},p:2,h:3,q:[{q}]}}")
            assert code == 0
            counts.append(reads)
        assert counts[1] <= 2.5 * counts[0]


class TestPolygonsCommand:
    def test_json_reference(self, capsys):
        code, out, _ = run(capsys, "polygons", "--sig", SIG)
        assert code == 0
        data = json.loads(out)
        assert data["reversed_hodge"]["points"] == [
            [0, 1, 0, 1],
            [1, 1, 1, 1],
            [2, 1, 3, 2],
            [3, 1, 3, 2],
        ]
        assert [e["tau"] for e in data["hn_tau"]] == [0, 1]

    def test_svg_to_stdout(self, capsys):
        code, out, _ = run(capsys, "polygons", "--sig", SIG, "--svg", "-")
        assert code == 0
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    def test_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "plot.svg"
        code, out, _ = run(capsys, "polygons", "--sig", SIG, "--svg", str(target))
        assert code == 0 and out == ""
        _, stdout_doc, _ = run(capsys, "polygons", "--sig", SIG, "--svg", "-")
        assert target.read_text(encoding="utf-8") == stdout_doc

    @pytest.mark.parametrize("command", ["polygons", "analyze"])
    def test_large_height_runs_fast(self, capsys, command):
        # the Hodge polygons take no loop over h
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--sig", "{f:1,p:2,h:1000000,q:[1]}")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        data = json.loads(out)
        polygons = data["polygons"] if command == "analyze" else data
        assert polygons["hodge"]["points"] == [
            [0, 1, 0, 1], [1, 1, 0, 1], [10**6, 1, 10**6 - 1, 1]
        ]
        assert polygons["reversed_hodge"]["points"] == [
            [0, 1, 0, 1], [10**6 - 1, 1, 10**6 - 1, 1], [10**6, 1, 10**6 - 1, 1]
        ]

    def test_bad_tau(self, capsys):
        code, _, err = run(capsys, "polygons", "--sig", SIG, "--tau", "7")
        assert code == 1 and err.startswith("error:")


class TestHNCommand:
    def test_signature_run_matches_reversed_hodge(self, capsys):
        code, out, _ = run(capsys, "hn", "--sig", SIG, "--mode", "classical")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["polygon"]["points"] == [
            [0, 1, 0, 1],
            [1, 1, 1, 1],
            [2, 1, 3, 2],
            [3, 1, 3, 2],
        ]
        assert data["result"]["slopes"] == [[1, 1], [1, 2], [0, 1]]
        assert data["nodes"] == 8

    def test_lattice_file_run(self, capsys, tmp_path):
        lattice = {
            "nodes": [
                {"o_height": 0, "deg": [0, 0], "level": 1},
                {"o_height": 1, "deg": ["1/1", 0], "level": 1},
                {"o_height": 2, "deg": [1, 1], "level": 1},
            ],
            "containment": [[0, 1], [1, 2], [0, 2]],
        }
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice), encoding="utf-8")
        code, out, _ = run(capsys, "hn", "--lattice", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == 3
        # both steps carry slope 1/2, so the polygon is one segment
        assert data["result"]["polygon"]["points"] == [[0, 1, 0, 1], [2, 1, 1, 1]]
        assert data["result"]["slopes"] == [[1, 2]]

    def test_sig_and_lattice_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nodes:[]}", encoding="utf-8")
        code, _, err = run(capsys, "hn", "--sig", SIG, "--lattice", str(path))
        assert code == 1 and err.startswith("error:")

    def test_needs_sig_or_lattice(self, capsys):
        code, out, err = run(capsys, "hn")
        assert code == 1 and out == "" and err.startswith("error:")

    def test_tau_mode_needs_tau(self, capsys):
        code, _, err = run(capsys, "hn", "--sig", SIG, "--mode", "tau")
        assert code == 1 and "--tau" in err

    def test_tau_mode_on_lattice_needs_p(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_text(
            '{"nodes": [{"o_height": 0, "deg": [0], "level": 1}]}',
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "hn", "--lattice", str(path), "--mode", "tau", "--tau", "0"
        )
        assert code == 1 and "--p" in err


    @pytest.mark.parametrize(
        "source", [["--sig", SIG], ["--lattice", LATTICE]], ids=["sig", "lattice"]
    )
    def test_tau_needs_tau_mode(self, capsys, source):
        code, out, err = run(capsys, "hn", *source, "--tau", "1")
        assert code == 1 and out == ""
        assert err == "error: --tau applies to --mode tau only\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sig", SIG, "--p", "4"],
            ["--sig", SIG, "--mode", "tau", "--tau", "1", "--p", "7"],
            ["--lattice", LATTICE, "--p", "0"],
            ["--lattice", LATTICE, "--p", "3"],
        ],
        ids=["sig", "sig-tau", "lattice-p0", "lattice-classical"],
    )
    def test_p_needs_lattice_tau_mode(self, capsys, argv):
        code, out, err = run(capsys, "hn", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: --p applies to --lattice with --mode tau only")

    def test_tau_mode_lattice_p_zero_is_not_prime(self, capsys):
        # --p 0 is a value to check, not an absent flag to default
        code, out, err = run(
            capsys, "hn", "--lattice", LATTICE, "--mode", "tau", "--tau", "1",
            "--p", "0",
        )
        assert code == 1 and out == ""
        assert err == "error: p must be prime, got 0\n"

    def test_sig_matches_descriptor_engine_on_grid(self, capsys):
        # hn --sig selects over integer rows; its stdout is the JSON that
        # hn_from_lattice gives over enumerate_split_subgroups
        cases = 0
        for sig in iter_signatures(3, 4, (2, 3, 5, 7)):
            literal = "{f:%d,p:%d,h:%d,q:[%s]}" % (
                sig.f, sig.p, sig.h, ",".join(map(str, sig.q))
            )
            for n in (1, 2):
                nodes = enumerate_split_subgroups(mu_ordinary_product(sig, n))
                for tau in (None, *range(sig.f)):
                    argv = ["hn", "--sig", literal, "--n", str(n)]
                    w = classical_weighting(sig.p, sig.f)
                    if tau is not None:
                        argv += ["--mode", "tau", "--tau", str(tau)]
                        w = tau_weighting(sig.p, sig.f, tau)
                    expected = dump_json({
                        "mode": "classical" if tau is None else "tau",
                        "tau": tau,
                        "nodes": len(nodes),
                        "result": hn_from_lattice(nodes, w),
                    })
                    assert run(capsys, *argv) == (0, expected, "")
                    cases += 1
        assert cases == 8688


P61 = 2**61 - 1


def _sig61(q):
    return "{f:%d,p:%d,h:2,q:[%s]}" % (len(q), P61, ",".join(map(str, q)))


class TestDigitCap:
    """Reports whose integers could pass the interpreter's limit on decimal
    digits stop before any work with DigitCapExceeded; raynaud and periods,
    whose reduced values no (f, p) bound predicts, stop when dump_json meets
    such an integer."""

    CAP = (10 ** sys.get_int_max_str_digits()).bit_length() - 1

    @pytest.mark.parametrize(
        "argv, required",
        [
            (["hn", "--sig", _sig61([1] * 240), "--mode", "tau", "--tau", "0"],
             240 * 61 + (2 * 240).bit_length()),
            (["lts", "--model", "{f:250,p:%d,S:[0],tau0:1}" % P61], 250 * 61 + 1),
            (["polygons", "--sig", _sig61([0, 1] * 125), "--tau", "1"],
             250 * 61 + (2 * 250).bit_length()),
        ],
        ids=["hn", "lts", "polygons"],
    )
    def test_typed_error(self, capsys, argv, required):
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(DigitCapExceeded) as err:
            cli._COMMANDS[args.command](args)
        assert (err.value.cap, err.value.required) == (self.CAP, required)
        assert self.CAP < required
        assert run(capsys, *argv) == (1, "", f"error: {err.value}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["raynaud", "--datum",
             "{f:250,p:%d,vdelta:[1/2%s]}" % (P61, ",0" * 249)],
            ["periods", "--sig",
             "{f:250,p:%d,h:3,q:[%s]}" % (P61, ",".join(str(i % 3) for i in range(250))),
             "--tau", "1"],
        ],
        ids=["raynaud", "periods"],
    )
    def test_typed_error_at_render(self, capsys, argv):
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(DigitCapExceeded) as err:
            cli._COMMANDS[args.command](args)
        assert err.value.cap == self.CAP < err.value.required
        assert run(capsys, *argv) == (1, "", f"error: {err.value}\n")

    def test_render_check_reads_every_rational(self):
        big = F(1, 2**self.CAP)  # a denominator of CAP + 1 bits
        for data in (
            {"x": [F(1, 3), big]},
            Polygon(((F(0), F(0)), (F(1), big)), "convex"),
            # a plain integer gets the same check, in a list or not
            {"n": 2**self.CAP},
            [0, -(2**self.CAP)],
        ):
            with pytest.raises(DigitCapExceeded) as err:
                dump_json(data, human=True)
            assert (err.value.cap, err.value.required) == (self.CAP, self.CAP + 1)
        assert json.loads(dump_json(F(2**self.CAP - 1, 2))) == [2**self.CAP - 1, 2]
        assert json.loads(dump_json({"n": [1 - 2**self.CAP]})) == {"n": [1 - 2**self.CAP]}
        # 0 lifts the interpreter's limit, and the check with it
        digits = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert json.loads(dump_json(big)) == [1, 2**self.CAP]
            assert json.loads(dump_json([2**self.CAP])) == [2**self.CAP]
        finally:
            sys.set_int_max_str_digits(digits)

    def test_guard_runs_before_enumeration(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.gm, "_split_nodes", None)
        code, out, err = run(
            capsys, "hn", "--sig", _sig61([1] * 240), "--mode", "tau", "--tau", "0"
        )
        assert code == 1 and out == "" and "cap is" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["hn", "--sig", _sig61([1] * 230), "--mode", "tau", "--tau", "0"],
            ["hn", "--sig", _sig61([1] * 240)],
            ["periods", "--sig", _sig61([0, 1] * 125), "--tau", "1"],
            ["raynaud", "--datum", "{f:250,p:%d,vdelta:[%s]}" % (P61, ",".join("0" * 250))],
        ],
        ids=["hn-tau-230", "hn-classical-240", "periods-250", "raynaud-250"],
    )
    def test_smaller_or_unguarded_reports_run(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        json.loads(out)

    def test_cap_follows_interpreter_limit(self, monkeypatch):
        for digits in (640, 4300, 5000):
            bits = sc._decimal_cap_bits(digits)
            assert 2**bits <= 10**digits < 2 ** (bits + 1)
        # 0 lifts the interpreter's limit, and the guard's with it
        monkeypatch.setattr(sc.sys, "get_int_max_str_digits", lambda: 0)
        sc._check_level_work(250, P61)
        monkeypatch.setattr(sc.sys, "get_int_max_str_digits", lambda: 5000)
        sc._check_level_work(250, P61)
        with pytest.raises(DigitCapExceeded):
            sc._check_level_work(300, P61)


class TestRaynaudCommand:
    def test_report_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "raynaud", "--datum", "{f:2,p:5,vdelta:[1/2,1/3]}"
        )
        assert code == 0
        data = json.loads(out)
        d = RaynaudDatum(f=2, p=5, vdelta=(F(1, 2), F(1, 3)))
        desc = raynaud_degrees(d)
        assert data["degrees"]["deg"] == [
            [x.numerator, x.denominator] for x in desc.deg
        ]
        assert data["hodge_tate_coker"] == [
            [v.numerator, v.denominator]
            for v in (
                raynaud_hodge_tate_coker_degree(d, 0),
                raynaud_hodge_tate_coker_degree(d, 1),
            )
        ]
        assert data["dual_vdelta"] == [[1, 2], [2, 3]]

    def test_bad_datum(self, capsys):
        code, _, err = run(capsys, "raynaud", "--datum", "{f:2,p:5}")
        assert code == 1 and err.startswith("error:")


class TestPeriodsCommand:
    def test_reference_report(self, capsys):
        code, out, _ = run(capsys, "periods", "--sig", SIG)
        assert code == 0
        data = json.loads(out)
        assert data["t_decomposition_ok"] is True
        tau1 = data["maps"][1]
        assert tau1["K_value"] == [7, 48]
        assert tau1["d_matrix"] == [1, 2]
        assert tau1["faltings_margin"] == [17, 48]
        assert tau1["margin_ok"] is True
        assert tau1["mod_p_filp_valuation"] == [1, 48]
        assert [c["text"] for c in tau1["coeffs"]] == [
            "t_O^1",
            "(phi^1 t_O / p)^1",
        ]

    def test_degenerate_slot_flagged(self, capsys):
        _, out, _ = run(capsys, "periods", "--sig", "{f:2,p:7,h:3,q:[0,2]}")
        data = json.loads(out)
        assert data["maps"][0] == {"tau": 0, "degenerate": True}


class TestLTSCommand:
    def test_reference_report(self, capsys):
        code, out, _ = run(capsys, "lts", "--model", "{f:2,p:5,S:[0],tau0:1}")
        assert code == 0
        data = json.loads(out)
        assert data["frobenius_exponents"] == [1, 0]
        assert data["d_s_exponents"] == [1, 0]
        assert [g["text"] for g in data["generator"]] == [
            "t_O^1",
            "(phi^1 t_O / p)^1",
        ]
        assert data["generator_valuation"] == [5, 24]
        assert data["eigen_ok"] and data["fil_pattern_ok"]
        assert data["solution_count_mod_p"] == 25

    def test_bad_model(self, capsys):
        code, _, err = run(capsys, "lts", "--model", "{f:2,p:5,S:[0],tau0:0}")
        assert code == 1 and err.startswith("error:")


class TestVerifyCommand:
    def test_constants_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "constants")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["suites"]["constants"]["ok"] is True

    def test_unknown_suite_named_in_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 1 and "nope" in err

    def test_appendix_suite_reports_failures(self, capsys):
        # the displayed inequality genuinely fails at small (p, f)
        code, out, _ = run(capsys, "verify", "--suite", "appendix")
        assert code == 1
        data = json.loads(out)["suites"]["appendix"]
        assert [2, 3, 1] in data["displayed_failures"]
        assert data["reduced_or_anchor_failures"] == []
        assert data["nested_certificates_ok"] is True
        assert data["false_positives"] == []


def _parse_desc(obj):
    """One descriptor literal, read as hn --lattice reads a node."""
    return _node_desc(_read_node(obj))


def _parse_desc_per_field(obj):
    """A descriptor read field by field through _read_object, one reader
    per key: the reference for _parse_desc's one-pass reader."""
    fields = {"o_height": parse_int, "deg": _fracs, "level": parse_int}
    data = _read_object(obj, "descriptor", fields, {"torsion": _ints})
    if "torsion" in data:
        return SplitSubgroupDesc(**data)
    return FiniteOModuleDesc(**data)


def _node(**changes):
    node = {"o_height": 2, "deg": [1, "1/2"], "level": 1}
    node.update(changes)
    return {key: value for key, value in node.items() if value is not ...}


# Descriptor inputs, accepted and rejected, on which _parse_desc must agree
# with _parse_desc_per_field (value or message).
DESC_CASES = {
    "deg-forms": _node(o_height=4, deg=[2, "1/2", [3, 4], "0.25"]),
    "int-strings": _node(o_height="3", level="2"),
    "bool-height": _node(o_height=True),
    "float-height": _node(o_height=2.0),
    "float-level": _node(level=1.9),
    "bool-level": _node(level=False),
    "bool-deg-entry": _node(deg=[True, 0]),
    "float-deg-entry": _node(deg=[1.5, 0]),
    "junk-deg-entry": _node(deg=["x/y", 0]),
    "zero-den-entry": _node(deg=[[1, 0], 0]),
    "deg-string": _node(deg="12"),
    "deg-object": _node(deg={"0": 1}),
    "deg-null": _node(deg=None),
    "unknown-key": _node(tau=0),
    "missing-key": _node(level=...),
    "unknown-and-missing": _node(deg=..., degs=[1]),
    "relaxed-string": "{o_height:1,deg:[1/2,0],level:1}",
    "relaxed-string-bad-key": "{o_height:1,deg:[1/2,0],lvl:1}",
    "string-not-object": "[1, 2]",
    "not-object": 5,
    "torsion": _node(torsion=[1, 0]),
    "torsion-strings": _node(torsion=["1", "0"]),
    "torsion-bool": _node(torsion=[True]),
    "torsion-string": _node(torsion="10"),
    "negative-deg": _node(deg=[1, "-1/2"]),
    "negative-height": _node(o_height=-1),
    "negative-level-string": _node(level="-1"),
    "bad-height-and-deg": _node(o_height="x", deg="12"),
}


class TestSerializeHelpers:
    def test_approx_str(self):
        assert approx_str(F(7, 48)) == "~0.145833"
        assert approx_str(F(-1, 2)) == "~-0.5"
        assert approx_str(F(2)) == "~2"
        assert approx_str(F(1, 4)) == "~0.25"

    @given(
        st.fractions(max_denominator=10**12)
        | st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
        st.integers(0, 12),
    )
    def test_approx_str_matches_digit_loop(self, x, places):
        assert approx_str(x, places) == oracles.approx_str_digit_loop(x, places)

    def test_approx_str_truncates_toward_zero(self):
        assert approx_str(F(-1, 10**7)) == "~-0"
        assert approx_str(F(2, 3)) == "~0.666666"
        assert approx_str(F(-7, 3), 3) == "~-2.333"

    def test_parse_frac_accepts_common_shapes(self):
        assert parse_frac("3/4") == F(3, 4)
        assert parse_frac("0.25") == F(1, 4)
        assert parse_frac(5) == F(5)
        assert parse_frac([7, 48]) == F(7, 48)
        assert parse_frac([7, 48, "~0.145833"]) == F(7, 48)

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 10**30, -1, -256])
    def test_parse_frac_integers(self, n):
        # inside and outside the range of shared small-integer Fractions
        got = parse_frac(n)
        assert type(got) is Fraction and got == n

    def test_parse_frac_rejects_junk(self):
        for bad in (True, "x/y", [1, 0], {}):
            with pytest.raises(Exception):
                parse_frac(bad)

    def test_relaxed_literal(self):
        data = relaxed_literal("{f:2,p:7,h:3,q:[1,2],ha:1/100}")
        assert data == {"f": 2, "p": 7, "h": 3, "q": [1, 2], "ha": "1/100"}

    def test_strict_json_read_verbatim(self):
        # the bare-key and a/b rewrites must not reach inside JSON strings
        assert relaxed_literal('{"a": "x, y: 1/2"}') == {"a": "x, y: 1/2"}
        assert relaxed_literal(' [1, "2/3", {"b": null}] ') == [1, "2/3", {"b": None}]

    @pytest.mark.parametrize(
        "text",
        [
            '{"nodes": [{"o_height": 0, "deg": [0], "level": 1, "level": 1}]}',
            "{f:2,p:7,h:3,q:[1,2],q:[0,0]}",
        ],
        ids=["strict", "relaxed"],
    )
    def test_repeated_keys_rejected_on_both_paths(self, text):
        with pytest.raises(MufiltError, match=r"repeats keys \['(level|q)'\]"):
            relaxed_literal(text)

    def test_relaxed_literal_unparseable(self):
        with pytest.raises(MufiltError, match="cannot parse literal"):
            relaxed_literal("{f:2,p:")

    def test_parse_desc_degrees_are_fractions(self):
        desc = _parse_desc({"o_height": 3, "deg": [2, "1/2", [3, 4]], "level": 1})
        assert desc.deg == (F(2), F(1, 2), F(3, 4))
        assert all(type(d) is Fraction for d in desc.deg)

    @pytest.mark.parametrize("name", sorted(DESC_CASES))
    def test_parse_desc_matches_per_field_reader(self, name):
        obj = DESC_CASES[name]
        try:
            expected = _parse_desc_per_field(obj)
        except MufiltError as exc:
            with pytest.raises(MufiltError) as got:
                _parse_desc(obj)
            assert str(got.value) == str(exc)
            return
        got = _parse_desc(obj)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("deg-forms", None),
            ("int-strings", None),
            ("relaxed-string", None),
            ("bool-height", "o_height must be an integer, got True"),
            ("float-level", "level must be an integer, got 1.9"),
            ("deg-string", "deg must be a list, got '12'"),
            ("unknown-key", "descriptor has unknown keys ['tau'] and missing keys []"),
            ("missing-key", "descriptor has unknown keys [] and missing keys ['level']"),
            ("negative-deg", "deg[1]=-1/2 must be >= 0"),
        ],
    )
    def test_parse_desc_outcomes(self, name, message):
        # the per-field comparison above is relative; these pin the outcomes
        if message is None:
            _parse_desc(DESC_CASES[name])
        else:
            with pytest.raises(MufiltError) as got:
                _parse_desc(DESC_CASES[name])
            assert str(got.value) == message

    @pytest.mark.parametrize("name", sorted(DESC_CASES))
    def test_lattice_rows_match_parse_desc(self, name):
        # the lattice reader builds rows, not descriptors, with the same
        # reads and checks: the same values or the same message
        obj = DESC_CASES[name]
        try:
            expected = _parse_desc(obj)
        except MufiltError as exc:
            with pytest.raises(MufiltError) as got:
                parse_lattice([obj])
            assert str(got.value) == str(exc)
            return
        (row,), _ = parse_lattice([obj])
        torsion = getattr(expected, "torsion", None)
        assert row == (expected.o_height, expected.deg, expected.level, torsion)
        assert all(type(d) is Fraction for d in row[1])

    def test_parse_desc_torsion_gives_split_descriptor(self):
        desc = _parse_desc(DESC_CASES["torsion"])
        assert type(desc) is SplitSubgroupDesc and desc.torsion == (1, 0)
        assert type(_parse_desc(DESC_CASES["deg-forms"])) is FiniteOModuleDesc

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([True, 1], "node index must be an integer, got True"),
            ([0, "x"], "node index must be an integer, got 'x'"),
            ([0, 1.0], "node index must be an integer, got 1.0"),
            ([0, 1, 2], "containment pair [0, 1, 2] must be [i, j]"),
        ],
    )
    def test_containment_index_rejected(self, pair, message):
        with pytest.raises(MufiltError) as got:
            parse_lattice({"nodes": [], "containment": [[0, 1], pair]})
        assert str(got.value) == message

    def test_containment_index_strings_read(self):
        _, pairs = parse_lattice({"nodes": [], "containment": [["0", "1"], [1, "2"]]})
        assert pairs == [(0, 1), (1, 2)]
        assert all(type(i) is int for pair in pairs for i in pair)

    def test_parse_signature_round_trip(self, ref_sig):
        assert parse_signature(SIG) == ref_sig

    def test_parse_lattice_shapes(self):
        nodes, pairs = parse_lattice(
            '{"nodes": [{"o_height": 1, "deg": ["1/2"], "level": 1}],'
            ' "containment": [[0, 0]]}'
        )
        # nodes are read as rows (o_height, deg, level, torsion or None)
        assert nodes == [(1, (F(1, 2),), 1, None)]
        assert pairs == [(0, 0)]
        nodes, pairs = parse_lattice(
            '[{"o_height": 0, "deg": [0], "level": 1}]'
        )
        assert pairs is None

    def test_parse_lattice_null_containment(self):
        _, pairs = parse_lattice(
            '{"nodes": [{"o_height": 0, "deg": [0], "level": 1}], "containment": null}'
        )
        assert pairs is None
