"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import reference as ref
import workloads
from tracer import self_times

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def test_reference_hand_values():
    f, p, h, q = 2, 7, 3, (1, 2)
    k, K, r, n, kd = ref.constants(f, p, h, q)
    assert K == [0, Fraction(7, 48)]
    assert (k, r, n, kd) == ([0, 1], [1, 2], [1, 1], [1, 0])
    assert ref.K_defining_sum(f, p, q, 1) == Fraction(7, 48)
    assert ref.threshold(f, p, q, K[1], 1, 1) == Fraction(23, 48)
    assert ref.threshold(f, p, q, K[1], 1, 2) == Fraction(23, 2352)


def test_reference_polygons_and_lattice():
    # reversed Hodge of q=(1,2), h=3: p-values (2,1), slopes 1, 1/2, 0
    assert ref.reversed_hodge(2, 3, (1, 2)) == [(0, 0), (1, 1), (2, Fraction(3, 2)), (3, Fraction(3, 2))]
    assert ref.same_function([(0, 0), (2, 2)], [(0, 0), (1, 1), (2, 2)])
    assert not ref.same_function([(0, 0), (2, 2)], [(0, 0), (1, 1), (2, 1)])
    nodes, pairs = ref.split_lattice(3, 12, (4, 8, 8), 1)
    assert len(nodes) == ref.node_count(3, 12, (4, 8, 8), 1) == 5 * 5 * 5
    assert len(pairs) == 300
    assert ref.raynaud_affine_cycle(5, [Fraction(1, 2)], 0) == Fraction(1, 8)
    assert [ref.is_prime(n) for n in (1, 2, 9, 97, 2**31 - 1, 2**31 + 1)] == [
        False, True, False, True, True, False]


def test_self_times_nested_and_overlapping():
    # 0 [0,100] holds 1 [10,30] and 2 [40,90]; 2 holds 3 [50,60]
    parent = [-1, 0, 0, 2]
    t0 = [0, 10, 40, 50]
    t1 = [100, 30, 90, 60]
    assert self_times(parent, t0, t1) == [30, 20, 40, 10]
    # overlapping children count once; a child sticking out is clipped
    parent = [-1, 0, 0, 0]
    t0 = [0, 10, 20, 90]
    t1 = [100, 30, 50, 120]
    assert self_times(parent, t0, t1) == [100 - 40 - 10, 20, 30, 30]


def test_tracer_wraps_every_binding():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import mufilt.cli_reports as cli
        import mufilt.hn_engine as hn
        import mufilt.signature_core as sc
        from tracer import Tracer

        original = sc.constants
        tracer = Tracer("mufilt")
        tracer.install()
        try:
            for ns in (sc, hn, sys.modules["mufilt.period_calculus"]):
                assert ns.constants.__wrapped__ is original
            assert cli.dump_json is sys.modules["mufilt.serialize"].dump_json
            assert cli.dump_json is not cli.dump_json.__wrapped__
            root = tracer.begin_op()
            sc.hasse_threshold(sc.Signature(f=2, p=7, h=3, q=(1, 2)), 1, 2)
            tracer.end_op(root)
        finally:
            tracer.uninstall()
        assert sc.constants is original and hn.constants is original
        names = [tracer.names[i] for i in tracer.name]
        assert names == ["op", "hasse_threshold", "constants"]
        assert list(tracer.parent) == [-1, 0, 1]
        assert list(tracer.op) == [0, 0, 0]
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))


def test_inputs_depend_on_seed_only():
    for w in workloads.WORKLOADS:
        a = workloads.make_inputs(w, 7, "x")
        assert a == workloads.make_inputs(w, 7, "x")
        assert a != workloads.make_inputs(w, 8, "x")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if trace and workload not in ("hn-sig", "report-mix"):
            continue
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 100
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            k: v["unit"] for k, v in result["metrics"].items()}
