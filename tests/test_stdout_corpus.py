"""CLI stdout pinned by hash over a wide corpus of argv.

corpus/stdout.json pairs each argv with its exit code and the sha256 of its
stdout.  The argv are every report-mix, hn-sig and hn-lattice operation that
bench/workloads.py makes for seeds 1, 2, 3 and 7 (analyze with and without
--human, periods, polygons, lts, raynaud and hn over signatures and lattice
files), then `verify --suite NAME` for each suite.  The lattice files the hn
argv read are stored next to them, under relative names, and written below
tmp_path.

A hash changes only when an output is meant to change.  Then
`PYTHONPATH=src python tests/test_stdout_corpus.py` rewrites the exit codes
and hashes from the current tree, keeping the argv.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mufilt.cli_reports import run_command

CORPUS = Path(__file__).parent / "corpus" / "stdout.json"


def _replay(corpus, workdir: Path):
    """(exit code, stdout sha256) of every corpus argv, run in-process."""
    files = corpus["files"]
    for rel, text in files.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for case in corpus["cases"]:
        argv = [str(workdir / a) if a in files else a for a in case["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(argv)
        yield code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_stdout_matches_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = [
        case["argv"]
        for case, got in zip(corpus["cases"], _replay(corpus, tmp_path))
        if got != (case["exit"], case["sha256"])
    ]
    assert len(corpus["cases"]) == 680
    assert changed == []


def _rewrite() -> None:
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as workdir:
        for case, (code, digest) in zip(corpus["cases"], _replay(corpus, Path(workdir))):
            case["exit"], case["sha256"] = code, digest
    # one case, and one file, per line
    cases = ",\n".join("  " + json.dumps(c) for c in corpus["cases"])
    files = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(corpus["files"].items())
    )
    CORPUS.write_text(
        f'{{\n "cases": [\n{cases}\n ],\n "files": {{\n{files}\n }}\n}}\n', encoding="utf-8"
    )


if __name__ == "__main__":
    sys.exit(_rewrite())
