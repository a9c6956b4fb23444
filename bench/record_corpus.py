"""Rewrite bench/corpus.json: the cover corpus of tests/oracles.py as CLI
cover documents, each with the SHA-256 of its ``analyze --split`` stdout.

Run from the repository root when the corpus or the expected output is meant
to change:

    python3 bench/record_corpus.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import cover_corpus  # noqa: E402
from tropjac import ThetaCover, cli  # noqa: E402
from workloads import CORPUS_FILE  # noqa: E402


def _rational(value):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def cover_document(cover):
    curve = cover.curve
    if isinstance(cover, ThetaCover):
        kind, lengths = "theta", (curve.l_e, curve.l_e1, curve.l_e2)
    else:
        kind, lengths = "dumbbell", (curve.l_loop1, curve.l_loop2, curve.l_bridge)
    return {
        "kind": kind,
        "lengths": [_rational(x) for x in lengths],
        "windings": list(cover.windings),
        "dilations": list(cover.dilations),
    }


def main():
    covers = []
    strongly_optimal = 0
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        path = Path(scratch) / "cover.json"
        for cover in cover_corpus():
            document = cover_document(cover)
            path.write_text(json.dumps(document), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run_command(["analyze", str(path), "--split"])
            if code != 0:
                raise SystemExit(f"analyze --split exited {code} on {document}")
            stdout = out.getvalue()
            strongly_optimal += "applicable" not in json.loads(stdout)["split"]
            covers.append({"doc": document, "sha256": hashlib.sha256(stdout.encode()).hexdigest()})
    with contextlib.suppress(OSError):  # left when a benchmark run is using it
        work.rmdir()
    with open(CORPUS_FILE, "w", encoding="utf-8") as handle:
        # one cover per line, so a changed digest shows as a one-line diff
        handle.write('{"covers": [\n' + ",\n".join(json.dumps(c) for c in covers) + "\n]}\n")
    print(f"{len(covers)} covers, {strongly_optimal} strongly optimal -> {CORPUS_FILE}")


if __name__ == "__main__":
    main()
