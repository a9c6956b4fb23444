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
was built from integers.  ``ladder_digests.json`` holds the same for
``analyze --split`` on three strongly optimal dumbbells of the benchmark's
degree ladder, lengths 1/k, 1/(k+1), 1 with dilations (k, k+1) for k in
{50, 500, 1000}, whose split kernels list 101, 1001 and 2001 points; it was
recorded while the split kernel was still listed by a coset closure, before
the Smith box replaced it.  ``text_digests.json`` holds, in the order of
``corpus.json`` and ``wide_digests.json``, the SHA-256 of the
``analyze --split --format text`` stdout of each of those covers; it was
recorded while the CLI still built one dict per pullback-kernel divisor,
before the divisors were written from the kernel's generator.
``split_digests.json`` holds, in the order of ``complement_digests.json``
(the 83 strongly optimal corpus covers) and then ``ladder_digests.json``,
the SHA-256 of the ``split`` stdout of each cover in the json and the text
format, and the SHA-256 of the ``analyze --split --format text`` stdout of
the three ladder covers; it was recorded while each split kernel point was
still built as a column of Fractions and printed through ``str``, before
the split kernel was kept as int numerators up to its writer.  The six
files are only read here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from tropjac.cli import run_command

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS.parent / "bench" / "corpus.json"
COMPLEMENTS = TESTS / "complement_digests.json"
WIDE = TESTS / "wide_digests.json"
LADDER = TESTS / "ladder_digests.json"
TEXT = TESTS / "text_digests.json"
SPLIT = TESTS / "split_digests.json"


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


def test_analyze_split_matches_ladder_digests(tmp_path):
    entries = _load(LADDER)
    assert [entry["doc"]["dilations"] for entry in entries] == [[50, 51], [500, 501], [1000, 1001]]
    assert _mismatches(entries, ["analyze", "--split"], tmp_path) == []


def test_analyze_split_text_matches_recorded_digests(tmp_path):
    with open(TEXT, encoding="utf-8") as handle:
        digests = json.load(handle)
    assert [len(digests["wide"]), len(digests["corpus"])] == [8, 406]
    entries = [
        {"doc": entry["doc"], "sha256": digest}
        for name, path in (("wide", WIDE), ("corpus", CORPUS))
        for entry, digest in zip(_load(path), digests[name], strict=True)
    ]
    assert _mismatches(entries, ["analyze", "--split", "--format", "text"], tmp_path) == []


@pytest.mark.parametrize(
    "name, command",
    [
        ("split", ["split"]),
        ("split_text", ["split", "--format", "text"]),
        ("analyze_split_text", ["analyze", "--split", "--format", "text"]),
    ],
)
def test_split_kernels_match_recorded_digests(name, command, tmp_path):
    with open(SPLIT, encoding="utf-8") as handle:
        digests = json.load(handle)[name]
    paths = {"complement": COMPLEMENTS, "ladder": LADDER}
    assert {group: len(digests[group]) for group in digests} == (
        {"ladder": 3} if name == "analyze_split_text" else {"complement": 83, "ladder": 3}
    )
    entries = [
        {"doc": entry["doc"], "sha256": digest}
        for group in sorted(digests)
        for entry, digest in zip(_load(paths[group]), digests[group], strict=True)
    ]
    assert _mismatches(entries, command, tmp_path) == []
