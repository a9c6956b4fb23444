"""Input pools and output checks of the four benchmark workloads.

Every pool is drawn from a ``random.Random`` the caller seeds, so a seed
fixes the inputs.  Pools list their cheapest items first, which makes the
warm-up (the first few items) cheap and the same from seed to seed; the
timed passes run the pool in shuffled order.  tropjac receives only the generated inputs: cover
documents written to files and read by ``tropjac analyze --split``, or tori
and morphisms handed to the torus API.  An item is one cover or one torus
problem; ``call`` runs it through tropjac and ``check`` returns None when
the output is right, else a message saying what is wrong.
"""

import contextlib
import hashlib
import io
import json
import math
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

CORPUS_FILE = Path(__file__).resolve().parent / "corpus.json"

# Items per pool.  A pass over the pool takes a few seconds, so a timed run
# holds several passes (their median is the run's throughput) and enough
# items that at least ten lie beyond the 90th percentile.
POOL_SIZE = {
    "corpus_split": None,  # all 406 covers of the corpus
    "degree_ladder": 64,
    "wide_kernel": 128,
    "torus_rank": 64,
}

# torus_rank isogenies have kernels of at most this many points, so that
# rank-6 kernel enumeration stays comparable in cost to the other problems
MAX_KERNEL = 36

Item = namedtuple("Item", ["label", "call", "check"])
CliResult = namedtuple("CliResult", ["code", "stdout"])


def build(workload, tj, rng, workdir, size=None):
    """The item pool of a workload; ``size`` overrides the pool size."""
    builder = _BUILDERS[workload]
    return builder(tj, rng, Path(workdir), size or POOL_SIZE[workload])


def log_uniform_ints(rng, low, high, count):
    """``count`` integers log-uniform on [low, high], one from each of
    ``count`` equal slices of the log range, smallest first.  Stratifying
    keeps the cost of a pool nearly the same from seed to seed."""
    a, b = math.log(low), math.log(high + 1)
    return [
        min(high, int(math.exp(a + (i + rng.random()) * (b - a) / count)))
        for i in range(count)
    ]


# -- cover workloads, through the command line -------------------------------


def _analyze(cli, path):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run_command(["analyze", str(path), "--split"])
        return CliResult(code, out.getvalue())

    return call


def _write(workdir, name, document):
    path = workdir / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def load_corpus():
    with open(CORPUS_FILE, encoding="utf-8") as handle:
        return json.load(handle)["covers"]


def _corpus_split(tj, rng, workdir, size):
    items = []
    for index, entry in enumerate(load_corpus()[:size]):
        path = _write(workdir, f"corpus-{index}.json", entry["doc"])

        def check(out, digest=entry["sha256"]):
            if out.code != 0:
                return f"exit code {out.code}"
            if hashlib.sha256(out.stdout.encode()).hexdigest() != digest:
                return "stdout differs from the recorded digest"
            return None

        items.append(Item(f"corpus #{index}", _analyze(tj.cli, path), check))
    return items


def _degree_ladder(tj, rng, workdir, size):
    items = []
    for k in log_uniform_ints(rng, 2, 1000, size):
        document = {
            "kind": "dumbbell",
            "lengths": [f"1/{k}", f"1/{k + 1}", 1],
            "windings": [1, 1],
            "dilations": [k, k + 1],
        }
        path = _write(workdir, f"ladder-{len(items)}.json", document)

        def check(out, degree=2 * k + 1):
            if out.code != 0:
                return f"exit code {out.code}"
            report = json.loads(out.stdout)
            flags = report["split"]["flags"]
            if report["degree"] != degree:
                return f"degree {report['degree']}, expected {degree}"
            if len(flags) != 6 or not all(value is True for value in flags.values()):
                return f"split flags {flags}"
            if len(report["split"]["kernel_points"]) != degree:
                return f"{len(report['split']['kernel_points'])} kernel points, expected {degree}"
            return None

        items.append(Item(f"degree_ladder k={k}", _analyze(tj.cli, path), check))
    return items


def _wide_kernel(tj, rng, workdir, size):
    half = size // 2
    specs = [("dumbbell", g) for g in log_uniform_ints(rng, 10, 20000, size - half)]
    specs += [("theta", g) for g in log_uniform_ints(rng, 10, 20000, half)]
    items = []
    for kind, g in specs:
        if kind == "dumbbell":
            document = {"kind": kind, "lengths": [1, 1, 1], "windings": [1, 1], "dilations": [g, g]}
            length = g
        else:
            document = {"kind": kind, "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [2 * g, g, g]}
            length = 3 * g
        path = _write(workdir, f"wide-{len(items)}.json", document)

        def check(out, g=g, length=length):
            if out.code != 0:
                return f"exit code {out.code}"
            report = json.loads(out.stdout)
            if Fraction(report["target_length"]) != length:
                return f"target length {report['target_length']}, expected {length}"
            expected = [
                {"position": str(Fraction(j * length, g)), "order": g // math.gcd(j, g)}
                for j in range(g)
            ]
            if report["pullback_kernel"] != expected:
                return f"pullback kernel is not the {g}-torsion of the circle"
            split = report["split"]
            if split.get("applicable") is not False or f"multiplication-by-{g} " not in split["reason"]:
                return f"split verdict {split}"
            return None

        items.append(Item(f"wide_kernel {kind} g={g}", _analyze(tj.cli, path), check))
    return items


# -- torus problems, through the torus API ------------------------------------


def _unimodular(matrix, rng, n):
    """A random unimodular matrix: integer shears, then a permutation."""
    m = matrix.identity(n)
    for _ in range(2 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows = [[int(r == c) for c in range(n)] for r in range(n)]
            rows[i][j] = rng.randint(-2, 2)
            m = m * matrix(rows)
    order = list(range(n))
    rng.shuffle(order)
    return m * matrix([[int(c == order[r]) for c in range(n)] for r in range(n)])


def _exact_sequence(tj, rng, n):
    """An (inclusion, projection) pair exact by construction: the image of a
    random probe from a product of unit circles, and the quotient by it."""
    matrix, tc = tj.Matrix, tj.torus_category
    middle = tc.IntegralTorus(n, matrix.diagonal([rng.randint(1, 4) for _ in range(n)]))
    j = rng.randint(1, n - 1)
    y = matrix([[rng.randint(-3, 3) for _ in range(j)] for _ in range(n)])
    probe = tc.TorusMorphism(
        tc.IntegralTorus(j, matrix.identity(j)), middle, (middle.pairing * y).transpose(), y
    )
    _, inclusion = tc.image(probe)
    _, projection = tc.quotient_by_subtorus(middle, inclusion)
    return inclusion, projection


def _isogeny(tj, rng, n):
    """u2 . diag(factors) . u1 for random unimodular changes of basis u1, u2;
    its kernel has prod(factors) points."""
    matrix, tc = tj.Matrix, tj.torus_category
    base = tc.IntegralTorus(n, matrix.diagonal([rng.randint(1, 4) for _ in range(n)]))
    factors = [rng.randint(1, 3) for _ in range(n)]
    while math.prod(factors) > MAX_KERNEL:
        factors = [rng.randint(1, 3) for _ in range(n)]
    dilation = tc.TorusMorphism(base, base, matrix.diagonal(factors), matrix.diagonal(factors))
    a1, b1 = _unimodular(matrix, rng, n), _unimodular(matrix, rng, n)
    source = tc.IntegralTorus(n, a1.transpose().inv() * base.pairing * b1)
    u1 = tc.TorusMorphism(source, base, a1, b1)
    a2, b2 = _unimodular(matrix, rng, n), _unimodular(matrix, rng, n)
    target = tc.IntegralTorus(n, a2.transpose() * base.pairing * b2.inv())
    u2 = tc.TorusMorphism(base, target, a2, b2)
    return tc.compose(u2, tc.compose(dilation, u1)), math.prod(factors)


def _torus_rank(tj, rng, workdir, size):
    tc, tav = tj.torus_category, tj.tav
    items = []
    for i in range(size):
        n = 3 + 4 * i // size  # ranks 3..6 in equal shares, lowest first
        if i % 2 == 0:
            f, g = _exact_sequence(tj, rng, n)

            def call(f=f, g=g):
                return tav.check_exact_sequence(f, g), tc.kernel_component_count(g)

            def check(out):
                return None if out == (True, 1) else f"(exact, components) = {out}"

            items.append(Item(f"torus_rank sequence rank {n}", call, check))
        else:
            m, points = _isogeny(tj, rng, n)

            def call(m=m):
                return tav.isogeny_kernel_points(m)

            def check(out, points=points):
                return None if len(out) == points else f"{len(out)} kernel points, expected {points}"

            items.append(Item(f"torus_rank isogeny rank {n}", call, check))
    return items


_BUILDERS = {
    "corpus_split": _corpus_split,
    "degree_ladder": _degree_ladder,
    "wide_kernel": _wide_kernel,
    "torus_rank": _torus_rank,
}
