"""The tropjac benchmark.

One timed run of one workload, from the root of a checkout:

    python3 bench/run.py --workload corpus_split --seed 1 --seconds 20 --trace 0

Every workload in turn, with a table of every end-to-end metric and its unit:

    python3 bench/run.py --workload all --seed 1 --seconds 20

tropjac is imported from ``src/`` of the checkout and driven in this one
process, one thread, one caller in a closed loop: the next item starts when
the previous one has returned and been checked.  Set-up (import, input
generation, warm-up) is done ``SETUPS`` times and its median reported.  The
run then makes passes over the item pool, each in a fresh seeded order,
while the next pass is expected to end within ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from passes that alternate
untraced and traced execution of the same items (see tracer.py).  Stdout
holds two JSON lines: a header with the environment, sample counts and the
first failures, then the result.  A result set for compare.py is any number
of these outputs appended to one file.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUPS = 3
WARMUP_ITEMS = 4
SHOWN_FAILURES = 5
MIN_PASSES = 2  # untraced, so that even degree_ladder has 128 item samples
# Times are scaled to the machine speed seen by reference_probe(): an item's
# wall time is multiplied by REFERENCE_S over the median probe time of the
# WINDOW items run before and after it.  See README.md, "Noise".
REFERENCE_S = 0.0005
WINDOW = 8
SETUP_PROBES = 15

# per-layer counters named by the benchmark's predictions (README.md)
NAMED_CALLS = {
    "curves_covers.validate_cover.calls": "curves_covers.validate_cover",
    "cover_analysis.pushforward_morphism.calls": "cover_analysis.pushforward_morphism",
    "exact_lattice.Matrix.new": "exact_lattice.Matrix.new",
    "tav.reduce_point.calls": "tav.reduce_point",
    "exact_lattice.smith_normal_form.calls": "exact_lattice.smith_normal_form",
}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- environment ---------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
    }


# -- set-up ------------------------------------------------------------------------


def fresh_import():
    """Import tropjac from the checkout's sources, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "tropjac" or n.startswith("tropjac.")]:
        del sys.modules[name]
    package = importlib.import_module("tropjac")
    if Path(package.__file__).resolve().parent != SRC / "tropjac":
        raise ImportError(f"tropjac was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=importlib.import_module("tropjac.cli"),
        Matrix=package.Matrix,
        torus_category=importlib.import_module("tropjac.torus_category"),
        tav=importlib.import_module("tropjac.tav"),
    )


def reference_probe():
    """Seconds taken by a fixed piece of stdlib work of about 0.5 ms: exact
    Fraction arithmetic and dict updates, the kind of work tropjac does.
    Garbage collection is held off, so that no garbage left by tropjac is
    collected on the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for _ in range(3):
        for i in range(6):
            for j in range(6):
                x = Fraction(7 * i + j, j + 3)
                total += x * x
    counts = {}
    for i in range(900):
        counts[i % 17] = counts.get(i % 17, 0) + i
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def set_up(workload, seed, workdir, size=None):
    """Import, generate the pool and warm up.

    Returns (scaled seconds, wall seconds, items); the scale comes from
    reference probes run just before and just after.
    """
    probes = [reference_probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    tj = fresh_import()
    items = workloads.build(workload, tj, random.Random(f"{workload}:{seed}"), workdir, size)
    for item in items[:WARMUP_ITEMS]:
        with contextlib.suppress(Exception):  # a failing item is reported by the timed passes
            item.call()
    wall = time.perf_counter() - start
    probes += [reference_probe() for _ in range(SETUP_PROBES)]
    return wall * REFERENCE_S / statistics.median(probes), wall, items


# -- measurement -------------------------------------------------------------------


class Tally:
    """Per-item times, scaled (item_s) and wall (wall_s), and outcomes."""

    def __init__(self):
        self.item_s = []
        self.wall_s = []
        self.attempted = 0
        self.failures = []
        self.out_bytes = 0

    def add_pass(self, wall, probes):
        """Add the wall times of a pass, given the probe run after each item;
        returns the pass's summed scaled time (s)."""
        self.wall_s += wall
        scaled = [
            elapsed * REFERENCE_S / statistics.median(probes[max(0, k - WINDOW): k + WINDOW + 1])
            for k, elapsed in enumerate(wall)
        ]
        self.item_s += scaled
        return sum(scaled)

    def record(self, item, output):
        self.attempted += 1
        if isinstance(output, Exception):
            message = "".join(traceback.format_exception(output)).strip()
        else:
            if isinstance(output, workloads.CliResult):
                self.out_bytes += len(output.stdout.encode())
            try:
                message = item.check(output)
            except Exception as exc:  # a malformed output is a failed item, not a crash
                message = f"check raised {exc!r}"
        if message is not None:
            self.failures.append(f"{item.label}: {message}")


def run_pass(items, order, tally):
    """Run the items in the given order, each followed by a reference probe;
    returns the summed scaled time of the items (s)."""
    wall, probes = [], []
    for index in order:
        item = items[index]
        start = time.perf_counter()
        try:
            output = item.call()
        except Exception as exc:  # counted as a failed item; the run goes on
            output = exc
        wall.append(time.perf_counter() - start)
        probes.append(reference_probe())
        tally.record(item, output)
    return tally.add_pass(wall, probes)


def measure(items, seed_label, seconds, tracer=None):
    """Make passes over the pool, each in a fresh seeded order, while the
    next pass is expected to end within ``seconds``; at least MIN_PASSES
    untraced, at least one traced.

    Returns (tally, traced tally, ratios).  With a tracer, each pass runs the
    items untraced and traced, alternating which goes first; the traced runs
    go to the second tally, and ratios holds traced over untraced scaled time per
    pass.  Without one, the traced tally is None and ratios is empty.
    """
    order_rng = random.Random(f"order:{seed_label}")
    tally = Tally()
    traced_tally = Tally() if tracer else None
    ratios = []
    begin = time.perf_counter()
    while True:
        order = list(range(len(items)))
        order_rng.shuffle(order)
        started = time.perf_counter()
        if tracer is None:
            run_pass(items, order, tally)
        else:
            times = {}
            for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
                with tracer if traced else contextlib.nullcontext():
                    times[traced] = run_pass(items, order, traced_tally if traced else tally)
            ratios.append(times[True] / times[False])
        now = time.perf_counter()
        done = len(ratios) if tracer else tally.attempted // len(items)
        if now - begin + (now - started) > seconds and done >= (1 if tracer else MIN_PASSES):
            return tally, traced_tally, ratios


def timing(item_s, setup_s):
    deciles = statistics.quantiles([1000 * s for s in item_s], n=10, method="inclusive")
    return {
        "items_per_s": len(item_s) / sum(item_s),
        "item_ms.p50": deciles[4],
        "item_ms.p90": deciles[8],
        "setup_s": statistics.median(setup_s),
    }


def end_to_end_metrics(tally, setup_s):
    return {
        **timing(tally.item_s, setup_s),
        "ok_frac": 1 - len(tally.failures) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(traced, ratios, tracer):
    n = traced.attempted
    traced_ms = 1000 * sum(traced.wall_s)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = tracer.self_ns[layer] / 1e6 / n
        metrics[f"{layer}.calls"] = tracer.layer_calls(layer) / n
    metrics["unattributed.self_ms"] = (traced_ms - sum(tracer.self_ns.values()) / 1e6) / n
    metrics["traced.item_ms"] = traced_ms / n
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    for metric, key in NAMED_CALLS.items():
        metrics[metric] = tracer.calls[key] / n
    metrics["exact_lattice.smith_normal_form.max_bits"] = tracer.snf_max_bits
    metrics["cli.out_bytes"] = traced.out_bytes / n
    return metrics


def run(workload, seed, seconds, trace, size=None):
    """One benchmark run; returns (header, result) as printed."""
    spec = load_spec()
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_wall_s = [], []
        for _ in range(SETUPS):
            scaled, wall, items = set_up(workload, seed, workdir, size)
            setup_s.append(scaled)
            setup_wall_s.append(wall)
        tracer = Tracer() if trace else None
        tally, traced, ratios = measure(items, f"{workload}:{seed}", seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run is using it
            workdir.parent.rmdir()
    if trace:
        values, declared = per_layer_metrics(traced, ratios, tracer), spec["per_layer"]
        failures = tally.failures + traced.failures
    else:
        values, declared = end_to_end_metrics(tally, setup_s), spec["end_to_end"]
        failures = tally.failures
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    attempted = tally.attempted + (traced.attempted if trace else 0)
    header = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(seed),
        "pool": len(items),
        "passes": tally.attempted // len(items),
        "items": attempted,
        "setups": SETUPS,
        "wall": timing(tally.wall_s, setup_wall_s),
        "failures": failures[:SHOWN_FAILURES],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return header, result


def run_all(seed, seconds):
    """Run every workload in its own process and print every end-to-end metric."""
    print(f"{'workload':<16} {'metric':<14} {'value':>12}  unit")
    for entry in load_spec()["workloads"]:
        argv = [sys.executable, __file__, "--workload", entry["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        header, result = (json.loads(line) for line in child.stdout.splitlines()[-2:])
        for name, metric in result["metrics"].items():
            print(f"{entry['name']:<16} {name:<14} {metric['value']:>12.4f}  {metric['unit']}")
        print(f"{entry['name']:<16} {'items':<14} {result['attempted']:>12}  "
              f"count ({header['passes']} passes, {result['failed']} failed)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropjac" / "__init__.py").is_file():
        print(f"error: tropjac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.POOL_SIZE:
        parser.error(f"unknown workload {args.workload!r}")
    header, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(header))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
