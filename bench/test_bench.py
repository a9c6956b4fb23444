"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload_at_tiny_size(workload, trace):
    header, result = run.run(workload, seed=7, seconds=0, trace=trace, size=4)
    assert result["correct"], header["failures"]
    assert result["attempted"] == 8  # two untraced passes, or one pass run twice
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    if trace:
        layers = sum(metrics[f"{layer}.self_ms"] for layer in tracer.LAYERS)
        assert layers + metrics["unattributed.self_ms"] == pytest.approx(metrics["traced.item_ms"])
        assert metrics["exact_lattice.calls"] > 0
    else:
        assert all(value > 0 for value in metrics.values())
    assert header["env"]["seed"] == 7 and header["env"]["python"]


@pytest.mark.parametrize("workload", ["degree_ladder", "wide_kernel"])
def test_the_seed_fixes_the_inputs(workload, tmp_path):
    tj = run.fresh_import()

    def labels(seed):
        items = workloads.build(workload, tj, random.Random(seed), tmp_path, size=8)
        return [item.label for item in items]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)


def test_corpus_has_the_406_covers():
    assert len(workloads.load_corpus()) == 406


def test_tracer_intercepts_calls_that_cross_modules():
    run.fresh_import()
    cover_analysis = sys.modules["tropjac.cover_analysis"]
    curves = sys.modules["tropjac.curves_covers"]
    cover = curves.DumbbellCover(curves.DumbbellCurve(Fraction(1, 2), Fraction(1, 3), 1), (1, 1), (2, 3))
    with tracer.Tracer() as t:
        cover_analysis.pushforward_morphism(cover)
    # pushforward_morphism reaches require_valid through cover_analysis's own
    # `from .curves_covers import require_valid` binding
    assert t.calls["cover_analysis.pushforward_morphism"] == 1
    assert t.calls["curves_covers.require_valid"] >= 1
    assert t.calls["curves_covers.validate_cover"] >= 1
    assert t.calls["curves_covers.jacobian"] >= 1
    assert t.calls["torus_category.TorusMorphism.new"] >= 1
    assert t.calls["exact_lattice.Matrix.new"] >= 1
    assert t.self_ns["curves_covers"] > 0 and t.self_ns["exact_lattice"] > 0


def _bindings():
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "tropjac" or name.startswith("tropjac."):
            for attr, obj in vars(module).items():
                seen[name, attr] = obj
                if isinstance(obj, type) and obj.__module__.startswith("tropjac"):
                    for cls_attr, raw in vars(obj).items():
                        seen[f"{obj.__module__}.{obj.__qualname__}", cls_attr] = raw
    return seen


def test_tracer_restores_every_binding():
    tj = run.fresh_import()
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    during = _bindings()
    changed = [key for key in before if during[key] is not before[key]]
    assert ("tropjac.cover_analysis", "require_valid") in changed
    assert ("tropjac", "pushforward_morphism") in changed
    assert ("tropjac.exact_lattice.Matrix", "__init__") in changed
    t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    # the program still runs untraced afterwards
    assert tj.cli.run_command(["--help"]) == 0


def test_compare_verdicts():
    base = [(seed, 100.0 + seed % 3) for seed in range(10)]
    faster = [(seed, 130.0 + seed % 3) for seed in range(10)]
    slower = [(seed, 70.0 + seed % 3) for seed in range(10)]
    noisy = [(seed, 100.0 + 60 * (seed % 2)) for seed in range(10)]
    assert compare.verdict(base, faster, "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, base, "higher", 0.1)[0] == "no worse"
    assert compare.verdict(base, slower, "higher", 0.1)[0] == "worse"
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "corpus_split", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
