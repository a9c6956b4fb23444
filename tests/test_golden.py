"""Golden CLI output: every corpus cover must print byte for byte what the
recorded digests say.

``bench/corpus.json`` holds each corpus cover document with the SHA-256 of
its ``analyze --split`` stdout.  ``complement_digests.json`` holds the same
for ``complement`` on every strongly optimal corpus cover; it was recorded
before the cover pipeline was unified, so it pins the complementary walk
covers to their earlier output.  ``wide_digests.json`` holds the same for
``analyze --split`` on eight covers past the corpus, (g, g) dumbbells and
(2g, g, g) thetas with g in {97, 360, 5040}, some with a target length that
is not an integer, so that the pullback kernel lists thousands of positions
with denominators other than g; it was recorded before the pullback kernel
was built from integers.  The three files are only read here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from tropjac.cli import run_command

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS.parent / "bench" / "corpus.json"
COMPLEMENTS = TESTS / "complement_digests.json"
WIDE = TESTS / "wide_digests.json"


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["covers"]


def _mismatches(entries, command, tmp_path):
    path = tmp_path / "cover.json"
    wrong = []
    for entry in entries:
        path.write_text(json.dumps(entry["doc"]), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command([*command[:1], str(path), *command[1:]])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != entry["sha256"]:
            wrong.append((entry["doc"], code))
    return wrong


def test_analyze_split_matches_corpus_digests(tmp_path):
    entries = _load(CORPUS)
    assert len(entries) == 406
    assert _mismatches(entries, ["analyze", "--split"], tmp_path) == []


def test_complement_matches_recorded_digests(tmp_path):
    entries = _load(COMPLEMENTS)
    assert len(entries) == 83
    assert _mismatches(entries, ["complement"], tmp_path) == []



def test_analyze_split_matches_wide_kernel_digests(tmp_path):
    entries = _load(WIDE)
    assert len(entries) == 8
    assert _mismatches(entries, ["analyze", "--split"], tmp_path) == []
