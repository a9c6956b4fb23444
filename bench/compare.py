"""Summarise one result set, or compare two, per workload and metric.

A result set is a file holding the stdout of any number of ``run.py`` runs
(a header line and a result line each), for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload corpus_split --seed $seed --seconds 20 --trace 0
    done >> base.jsonl

    python3 bench/compare.py base.jsonl             # median and quartiles
    python3 bench/compare.py base.jsonl change.jsonl

With two sets, each end-to-end metric of each workload gets a verdict, by
the rules of the benchmark's README:

* improved   -- the change wins at least 9/10 of the runs paired by seed
                (ties count for neither), and the medians differ by more
                than the base's quartile distance;
* unresolved -- the run-to-run spread (quartile distance over median) of
                either set is wider than the metric's bound, unless every
                change run reads better than every base run;
* worse      -- the change's median is worse than the base's by more than
                the bound (a share of the base median);
* no worse   -- otherwise.

Per-layer metrics (runs with ``--trace 1``) are listed with their medians
and no verdict.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): [(seed, {metric: value})]} and the environments seen."""
    runs, envs, header = {}, [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "metrics" not in record:
                header = record
                continue
            if header is None:
                raise ValueError(f"{path}: result line without a header line before it")
            values = {name: m["value"] for name, m in record["metrics"].items()}
            runs.setdefault((header["workload"], header["trace"]), []).append((header["seed"], values))
            env = {k: v for k, v in header["env"].items() if k != "seed"}
            if env not in envs:
                envs.append(env)
            header = None
    return runs, envs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base, change, better, bound):
    """base and change are lists of (seed, value)."""
    sign = 1 if better == "higher" else -1
    b = [v for _, v in base]
    c = [v for _, v in change]
    change_by_seed = dict(change)
    if all(seed in change_by_seed for seed, _ in base):
        pairs = [(v, change_by_seed[seed]) for seed, v in base]
    else:
        pairs = list(zip(b, c))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    b_q1, b_med, b_q3 = quartiles(b)
    c_med = statistics.median(c)
    if wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > b_q3 - b_q1:
        return "improved", wins, len(pairs)
    all_better = min(sign * x for x in c) > max(sign * x for x in b)
    if max(spread(b), spread(c)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if sign * (b_med - c_med) > bound * abs(b_med):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def _fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(path) for path in argv]
    for path, (_, envs) in zip(argv, sets):
        for env in envs:
            print(f"# {path}: {json.dumps(env)}")
    base = sets[0][0]
    change = sets[1][0] if len(sets) == 2 else None
    for workload, trace in sorted(base):
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(base[workload, trace])} runs)")
        for name, metric in declared.items():
            b = [(seed, values[name]) for seed, values in base[workload, trace] if name in values]
            if not b:
                continue
            line = f"  {name:42} {metric['unit']:6} {_fmt([v for _, v in b])}"
            c = change.get((workload, trace), []) if change is not None else None
            if c:
                c = [(seed, values[name]) for seed, values in c if name in values]
                line += f"  -> {_fmt([v for _, v in c])}"
                if "bound" in metric:
                    result, wins, pairs = verdict(b, c, metric["better"], metric["bound"])
                    line += f"  {wins}/{pairs} wins  {result}"
            elif "bound" in metric:
                line += f"  spread {spread([v for _, v in b]):.3f} (bound {metric['bound']})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
