"""Each cover derives its invariants once: one immutable analysis per cover."""

import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropjac.cli as cli
import tropjac.cover_analysis as cover_analysis
import tropjac.curves_covers as curves_covers
import tropjac.exact_lattice as exact_lattice
import tropjac.split_jacobian as split_jacobian
import tropjac.tav as tav
import tropjac.torus_category as torus_category
from oracles import (
    degree_two_cover,
    dumbbell_covers,
    random_unimodular,
    theta_covers,
    theta_jacobian,
)
from test_presentations import subdivided
from test_split_jacobian import BROKEN_FLAGS
from tropjac.cli import run_command
from tropjac.cover_analysis import (
    CyclicKernel,
    TorsionDivisor,
    component_count,
    is_optimal,
    kernel_length,
    pullback_kernel,
    pullback_kernel_group,
    pullback_morphism,
    pushforward_morphism,
    quotient_and_gamma,
)
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    ThetaCover,
    circle_graph,
    cover_degree,
    harmonic_form,
    target_length,
    validate_cover,
)
from tropjac.errors import TropjacError
from tropjac.split_jacobian import (
    complementary_cover,
    complementary_pushforward,
    splitting_isogeny,
    strong_optimality_gap,
    verify_split_package,
)

THETA = {"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [2, 1, 1]}
DUMBBELL = {"kind": "dumbbell", "lengths": ["1/2", "1/3", 1], "windings": [1, 1], "dilations": [2, 3]}
GENERAL = {
    "kind": "general_circle",
    "target_length": "1",
    "vertices": ["v"],
    "edges": [["v", "v", "2"]],
    "walks": [{"dilation": 2, "start": "0", "signed_length": "4"}],
}
FIGURE_EIGHT = {
    "kind": "general_circle",
    "target_length": "1",
    "vertices": ["v"],
    "edges": [["v", "v", "1"], ["v", "v", "2"]],
    "walks": [
        {"dilation": 1, "start": "0", "signed_length": "1"},
        {"dilation": 1, "start": "0", "signed_length": "2"},
    ],
}


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize(
    "document, pushforwards",
    # the genus-1 general cover gets only the genus-free fields, which need
    # no pushforward; the genus-2 figure eight gets the full report
    [(THETA, 1), (DUMBBELL, 1), (GENERAL, 0), (FIGURE_EIGHT, 1)],
    ids=["theta", "dumbbell", "general", "figure-eight"],
)
def test_analyze_split_validates_and_pushes_forward_once(
    document, pushforwards, tmp_path, monkeypatch, capsys
):
    calls = Counter()
    for cover_type in (ThetaCover, DumbbellCover, GeneralCircleCover):
        _count_calls(monkeypatch, cover_type, "_validate", calls)
    _count_calls(monkeypatch, curves_covers, "jacobian", calls)
    _count_calls(monkeypatch, curves_covers, "_universal_row", calls)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    assert run_command(["analyze", str(path), "--split"]) == 0
    report = json.loads(capsys.readouterr().out)
    if pushforwards:
        assert all(report["split"]["flags"].values())
    assert calls == Counter(
        _validate=1, jacobian=pushforwards, _universal_row=pushforwards
    )


@pytest.mark.parametrize(
    "command, document",
    # analyze parses a general cover; complement and optimal-factor build
    # one, the walk cover
    [("analyze", GENERAL), ("complement", THETA), ("optimal-factor", THETA)],
    ids=["analyze-general", "complement-theta", "optimal-factor-theta"],
)
def test_each_general_cover_is_validated_once(command, document, tmp_path, monkeypatch, capsys):
    calls = Counter()
    for module in (curves_covers, cli, split_jacobian):
        if hasattr(module, "validate_general_cover"):
            _count_calls(monkeypatch, module, "validate_general_cover", calls)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    assert run_command([command, str(path)]) == 0
    capsys.readouterr()
    assert calls == Counter(validate_general_cover=1)


def _listed_report(report, cover):
    """report with its pullback kernel as the list of divisor dicts it
    prints as, and its split kernel, if any, as the lists of "p/q" strings
    of its points, which json.dumps can write"""
    divisors = [{"position": str(position), "order": order} for position, order in pullback_kernel(cover)]
    listed = {**report, "pullback_kernel": divisors}
    if "kernel_points" in report.get("split", {}):
        points = [[str(x) for (x,) in p.entries()] for p in verify_split_package(cover).kernel_points]
        listed["split"] = {**report["split"], "kernel_points": points}
    return listed


@pytest.mark.parametrize(
    "document",
    # g = 2000: pullback kernels of 2000 points
    [
        {"kind": "dumbbell", "lengths": [1, 1, 1], "windings": [1, 1], "dilations": [2000, 2000]},
        {"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [4000, 2000, 2000]},
    ],
    ids=["dumbbell", "theta"],
)
def test_reports_never_run_the_pure_python_encoder(document, tmp_path, monkeypatch, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    cover = cli.parse_cover(path.read_text())
    expected = json.dumps(_listed_report(cli._analysis_report(cover, True), cover), indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert run_command(["analyze", str(path), "--split"]) == 0
    assert capsys.readouterr().out == expected


def _ladder_cover(k):
    """The strongly optimal dumbbell cover of degree 2k + 1."""
    return DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))


def test_split_package_classifies_each_morphism_once(monkeypatch):
    # an analysed, strongly optimal cover of degree 101: the package reuses
    # what the analysis holds and classifies nothing; its one Smith
    # elimination presents the kernel of phi, which takes no inverse.
    # kernel0 reads the kernel circle off the integer kernels of two rows,
    # and the four f_hash matrices of its two exact sequences are single
    # rows and columns, whose invariant factor is a gcd: neither eliminates.
    cover = _ladder_cover(50)
    assert strong_optimality_gap(cover) is None and pullback_morphism(cover)
    calls = Counter()
    classified = []
    _count_calls(monkeypatch, exact_lattice, "_smith", calls)
    _count_calls(monkeypatch, exact_lattice.Matrix, "inv", calls)
    for module in (torus_category, tav, split_jacobian):
        if hasattr(module, "classify"):
            original = getattr(module, "classify")
            monkeypatch.setattr(
                module, "classify", lambda m, original=original: classified.append(m) or original(m)
            )
    assert verify_split_package(cover).all_flags_hold
    assert calls == Counter(_smith=1)
    assert classified == []


def test_split_kernel_is_listed_from_its_generator_with_no_box(monkeypatch):
    # the kernel of phi of a strongly optimal cover is cyclic with a unit
    # TE' coordinate, so the report keeps it as its generator, unlisted: no
    # box of multiples is listed and no listing is sorted
    cover = _ladder_cover(50)
    calls = Counter()
    _count_calls(monkeypatch, tav, "_box_points", calls)
    _count_calls(monkeypatch, tav, "_listed_points", calls)
    _count_calls(monkeypatch, tav, "isogeny_kernel_numerators", calls)
    report = verify_split_package(cover)
    assert report.all_flags_hold and report.kernel.order == 101
    assert type(report.kernel) is split_jacobian.SplitKernel
    assert calls == Counter()


@pytest.mark.parametrize(
    "case", sorted(case for case, (binding, _, _) in BROKEN_FLAGS.items() if binding == "quotient_group")
)
def test_a_broken_kernel_group_lists_nothing(case, monkeypatch):
    # a kernel group that breaks a torsion flag is kept unlisted, as the
    # KernelGroup of the presentation already taken or as a SplitKernel:
    # no box is listed, no listing sorted, and the package makes the one
    # Smith elimination of an unbroken cover, with no second presentation
    cover = _ladder_cover(52)  # degree 105 = 3·5·7
    assert strong_optimality_gap(cover) is None and pullback_morphism(cover)
    binding, patch, broken = BROKEN_FLAGS[case]
    monkeypatch.setattr(split_jacobian, binding, patch(getattr(split_jacobian, binding), cover))
    calls = Counter()
    for name in ("_box_points", "_listed_points", "isogeny_kernel_numerators"):
        _count_calls(monkeypatch, tav, name, calls)
    _count_calls(monkeypatch, exact_lattice, "_smith", calls)
    report = verify_split_package(cover)
    assert {flag for flag, holds in report.flags.items() if not holds} == broken
    assert calls == Counter(_smith=1)


def test_kernel_listing_makes_no_matrix_products_per_point(monkeypatch):
    # the points are listed on int tuples, so degrees 101 and 2001 cost the
    # same Matrix products, the same reads by Matrix.__init__ and, apart
    # from one per returned column, the same unread builds by Matrix._of;
    # each column is built from its quotients, with at most one Fraction
    # per coordinate, two per point at rank 2
    counts, sizes = [], []
    for k in (50, 1000):
        phi, _ = splitting_isogeny(_ladder_cover(k))
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "__init__", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "_of", calls)
        _count_fractions(monkeypatch, "__new__", calls)
        points = tav.isogeny_kernel_points(phi)
        monkeypatch.undo()
        assert len(points) == 2 * k + 1
        counts.append(calls)
        sizes.append(len(points))
    assert counts[0]["__mul__"] == counts[1]["__mul__"]
    assert counts[0]["__init__"] == counts[1]["__init__"]
    assert counts[0]["_of"] - sizes[0] == counts[1]["_of"] - sizes[1]
    assert counts[1]["__new__"] - counts[0]["__new__"] <= 2 * (sizes[1] - sizes[0])


def test_exactness_check_saturates_and_classifies_nothing(monkeypatch):
    # the two sequences of the degree-2 theta cover's split package: each
    # check reads the invariant factors of f.f_hash and of g.f_hash and
    # takes one product, g.f_hash * f.f_hash; no HNF builds a lattice basis
    # and no classify runs.  The four matrices are single rows or columns,
    # whose invariant factor is the gcd of the entries, so no Smith
    # elimination runs either.
    cover = degree_two_cover()
    push = pushforward_morphism(cover)
    _, inclusion = torus_category.kernel0(push)
    pairs = [(inclusion, push), (pullback_morphism(cover), complementary_pushforward(cover))]
    for f, g in pairs:
        calls, factored = Counter(), []
        factors = tav.invariant_factors
        monkeypatch.setattr(tav, "invariant_factors", lambda a: factored.append(a) or factors(a))
        for module in (exact_lattice, torus_category, tav):
            for name in ("_smith", "row_hnf", "classify"):
                if hasattr(module, name):
                    _count_calls(monkeypatch, module, name, calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        assert tav.check_exact_sequence(f, g)
        monkeypatch.undo()
        assert factored == [f.f_hash, g.f_hash]
        assert all(1 in a.shape for a in factored)
        assert calls == Counter(__mul__=1)


def test_exactness_check_reduces_its_matrices_on_every_call(monkeypatch):
    # 0 -> J -> J x J -> J -> 0 for the theta Jacobian J: the 4x2 f_hash of
    # the first injection and the 2x4 f_hash of the second projection are
    # each eliminated once per check, with no transform built, and a second
    # check of the same morphisms eliminates them again: no Smith form is
    # kept between calls
    _, injection, _, _, projection = torus_category.product(theta_jacobian(), theta_jacobian())
    runs = []
    for _ in range(2):
        eliminated = []
        snf = exact_lattice._smith

        def recording_snf(a, left, right):
            eliminated.append((a, left, right))
            return snf(a, left, right)

        monkeypatch.setattr(exact_lattice, "_smith", recording_snf)
        assert tav.check_exact_sequence(injection, projection)
        monkeypatch.undo()
        runs.append(eliminated)
    expected = [(injection.f_hash, False, False), (projection.f_hash, False, False)]
    assert runs == [expected, expected]


def test_classify_makes_one_smith_form_and_no_product(monkeypatch):
    # the flags are read off the invariant factors of f_hash alone: every
    # morphism holds the pairing law, checked or proved when it was built.
    # The 2x2 f_hash of the degree-91 ladder's phi takes one Smith
    # elimination; the 1x2 row of the degree-2 pushforward is read off the
    # gcd of its entries, with none.
    morphisms = [pushforward_morphism(degree_two_cover()), splitting_isogeny(_ladder_cover(45))[0]]
    for m, eliminations in zip(morphisms, (0, 1)):
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice, "_smith", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "inv", calls)
        torus_category.classify(m)
        monkeypatch.undo()
        assert calls == Counter(_smith=eliminations)


def test_stein_factorization_takes_no_smith_form(monkeypatch):
    # criterion 6's surjection ([[4], [-2]], [[2, 0]]) on the theta
    # Jacobian: its kernel0 and the cokernel of its inclusion, which is
    # injective as built and is not classified again, are both circles,
    # read off the integer kernels of 1x2 rows; classify reads the row
    # f_hash off the gcd of its entries, and phi is solved by
    # rational_solve, so none of them eliminates
    m = torus_category.TorusMorphism(
        theta_jacobian(),
        torus_category.circle(3),
        exact_lattice.Matrix([[4], [-2]]),
        exact_lattice.Matrix([[2, 0]]),
    )
    calls = Counter()
    _count_calls(monkeypatch, exact_lattice, "_smith", calls)
    stein = torus_category.stein_factorization(m)
    monkeypatch.undo()
    assert torus_category.compose(stein.phi, stein.pi) == m
    assert calls == Counter()


def test_kernel_length_takes_no_smith_form(monkeypatch):
    # the kernel circle of a genus-2 cover is read off the integer kernels
    # of the rows f_hash and f_sharp^T, each the perpendicular of one row:
    # the degree-2 theta cover and the degree-(10^12 + 1) ladder, whose
    # entries are about 10^12, make no Smith elimination
    k = 5 * 10**11
    for cover, length in ((degree_two_cover(), 1), (_ladder_cover(k), Fraction(1, k * (k + 1)))):
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice, "_smith", calls)
        assert kernel_length(cover) == length
        monkeypatch.undo()
        assert calls == Counter()


def test_kernel0_makes_no_inverse(monkeypatch):
    # the kernel pairing is read off (a circle) or solved from (any other
    # rank) the inclusion's pairing law, with one product,
    # P_src * kernel_basis, and the inclusion holds that law by
    # construction, so nothing checks it again: on a rank-1 kernel (the
    # degree-2 theta pushforward), a rank-2 one (a product projection) and
    # a rank-0 one (the degree-91 ladder's splitting isogeny)
    _, _, _, projection, _ = torus_category.product(
        torus_category.circle(2), theta_jacobian()
    )
    morphisms = [
        pushforward_morphism(degree_two_cover()),
        projection,
        splitting_isogeny(_ladder_cover(45))[0],
    ]
    for m, rank in zip(morphisms, (1, 2, 0)):
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "inv", calls)
        torus, _ = torus_category.kernel0(m)
        monkeypatch.undo()
        assert torus.rank == rank
        assert calls == Counter(__mul__=1)


def test_dual_morphism_makes_no_product_and_no_determinant(monkeypatch):
    # the dual swaps the two matrices and transposes the two pairings; its
    # law is the transpose of the law of m, so nothing is multiplied to
    # check it and no determinant checks the transposed pairings
    _, _, _, projection, _ = torus_category.product(
        torus_category.circle(2), theta_jacobian()
    )
    for m in (pushforward_morphism(degree_two_cover()), projection):
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "det", calls)
        dual = torus_category.dual_morphism(m)
        monkeypatch.undo()
        assert (dual.f_sharp, dual.f_hash) == (m.f_hash, m.f_sharp)
        assert calls == Counter()


def test_compose_makes_its_two_products(monkeypatch):
    # f_sharp and f_hash of the composite are one product each; the law
    # follows from the laws of the two factors and is not checked again
    push = pushforward_morphism(degree_two_cover())
    pull = torus_category.dual_morphism(push)
    for outer, inner in ((push, pull), (pull, push)):
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        _count_calls(monkeypatch, exact_lattice.Matrix, "det", calls)
        torus_category.compose(outer, inner)
        monkeypatch.undo()
        assert calls == Counter(__mul__=2)


def test_analyze_split_checks_one_morphism_and_one_torus(tmp_path, monkeypatch, capsys):
    # one analyze --split of the degree-91 ladder: the pushforward, which
    # turns the cover data into a morphism, and its target circle are the
    # only values the constructors check; the Jacobian, the kernel circle,
    # the pullback, phi and phi_tilde are derived from them unchecked
    built = Counter()
    for cls in (torus_category.IntegralTorus, torus_category.TorusMorphism, tav.PolarizedVariety):
        original = cls.__init__

        def counting(self, *args, name=cls.__name__, original=original):
            built[name] += 1
            original(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    ladder = {"kind": "dumbbell", "lengths": ["1/45", "1/46", 1], "windings": [1, 1], "dilations": [45, 46]}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder))
    assert run_command(["analyze", str(path), "--split"]) == 0
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert report["split"]["degree"] == 91 and all(report["split"]["flags"].values())
    assert built == Counter(TorusMorphism=1, IntegralTorus=1)


def test_isogeny_kernel_makes_one_elimination_and_no_inverse(monkeypatch):
    # the kernel of the degree-91 ladder's splitting isogeny is listed from
    # one Smith elimination of f_hash that builds V alone, and that Smith
    # form alone decides that phi is an isogeny, with no inverse, no HNF
    # and no product
    phi, _ = splitting_isogeny(_ladder_cover(45))
    calls, transforms = Counter(), []
    snf = exact_lattice._smith

    def recording_snf(a, left, right):
        transforms.append((left, right))
        return snf(a, left, right)

    monkeypatch.setattr(exact_lattice, "_smith", recording_snf)
    _count_calls(monkeypatch, exact_lattice, "row_hnf", calls)
    _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
    _count_calls(monkeypatch, exact_lattice.Matrix, "inv", calls)
    assert len(tav.isogeny_kernel_numerators(phi).numerators) == 91
    monkeypatch.undo()
    assert transforms == [(False, True)]
    assert calls == Counter()


def test_polarization_transport_classifies_once(monkeypatch):
    # is_polarized_isogeny classifies m and writes the pullback itself;
    # pushforward_polarization classifies m and takes the invariant
    # factors of the two polarizations it dualizes.  Of those three, only
    # the 2x2 principal polarization of the source is eliminated: the 1x2
    # f_hash of the degree-2 pushforward and the 1x1 polarization it
    # pulls back to the circle are read off the gcd of their entries
    phi, _ = splitting_isogeny(_ladder_cover(45))
    principal = tav.principal_polarization(phi.target)
    pulled = tav.pullback_polarization(phi, principal)
    push = pushforward_morphism(degree_two_cover())
    source_principal = tav.principal_polarization(push.source)
    for run, smith_forms in (
        (lambda: tav.is_polarized_isogeny(phi, pulled, principal), 1),
        (lambda: tav.pushforward_polarization(push, source_principal), 1),
    ):
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice, "_smith", calls)
        assert run()
        monkeypatch.undo()
        assert calls == Counter(_smith=smith_forms)


def _wide_dumbbell(g):
    """The (g, g) dumbbell over a target of length 7/5, whose pullback kernel
    is the g-torsion of the circle."""
    return DumbbellCover(DumbbellCurve(Fraction(7, 5 * g), Fraction(14, 5 * g), 1), (1, 2), (g, g))


def _count_fractions(monkeypatch, name, calls):
    # patched on the class, so Fraction arithmetic inside fractions counts too
    original = getattr(Fraction, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Fraction, name, staticmethod(counting) if name == "__new__" else counting)


def _integral_dumbbell(g):
    """The (g, g) dumbbell over a target of length g, whose pullback kernel
    sits at the integers 0..g-1."""
    return DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (g, g))


def test_pullback_kernel_builds_one_fraction_per_divisor(monkeypatch):
    # each position is one _quotient of ints, j·l/g over the step l/g in
    # lowest terms: an int when it is integral, else one Fraction, with no
    # Fraction products, whatever g is; the integral dumbbells build none
    products = []
    for g in (1000, 2000):
        # only 0 is integral in 7/5 · j/g, with g prime to 7
        for cover, length, fractions in (
            (_wide_dumbbell(g), Fraction(7, 5), g - 1),
            (_integral_dumbbell(g), g, 0),
        ):
            expected = [Fraction(j * length, g) for j in range(g)]
            harmonic_form(cover)
            calls = Counter()
            _count_fractions(monkeypatch, "__mul__", calls)
            _count_fractions(monkeypatch, "__new__", calls)
            kernel = pullback_kernel(cover)
            monkeypatch.undo()
            assert [d.position for d in kernel] == expected
            assert sum(x.denominator != 1 for x in expected) == fractions
            assert calls["__new__"] == fractions == sum(type(d.position) is Fraction for d in kernel)
            products.append(calls["__mul__"])
    assert products == [0, 0, 0, 0]


def test_divisor_orders_cost_no_gcd_per_divisor(monkeypatch):
    # the orders come from the divisor sieve: over an int generator (the
    # integral dumbbells), writing the kernel in both formats and expanding
    # it make the same gcd calls at g = 1000 and 20000.  Over the generator
    # 7/(5g) of the wide dumbbells, each written divisor makes exactly one
    # gcd, for its position in lowest terms, and expanding still makes none.
    counts = {}
    for g in (1000, 20000):
        for generator, cover in (("int", _integral_dumbbell(g)), ("fraction", _wide_dumbbell(g))):
            report = {"pullback_kernel": pullback_kernel_group(cover)}  # the cover keeps its parts
            calls = Counter()
            for module in (cli, cover_analysis):
                _count_calls(monkeypatch, module, "gcd", calls)
            texts = [cli._render(report, fmt) for fmt in ("json", "text")]
            written = calls["gcd"]
            divisors = pullback_kernel(cover)
            monkeypatch.undo()
            assert len(divisors) == g == len(json.loads(texts[0])["pullback_kernel"])
            counts.setdefault(generator, []).append((written, calls["gcd"] - written))
    (int_1000, int_20000), (fraction_1000, fraction_20000) = counts["int"], counts["fraction"]
    assert int_1000 == int_20000
    assert fraction_20000[0] - fraction_1000[0] == 2 * (20000 - 1000)
    assert fraction_1000[1] == fraction_20000[1]


def test_divisors_are_written_up_to_the_listing_bound():
    # g = 10^6 = 1000^2: trial division reaches isqrt(g) = 1000, and the
    # multiples of 1000 that no larger divisor of g divides have order 1000
    g = tav.MAX_LISTED_POINTS
    texts = cli._divisors(CyclicKernel(g, 1), "{", ", ", "}")
    assert len(texts) == g
    assert texts[0] == '{"position": "0", "order": 1}'
    assert texts[1000] == '{"position": "1000", "order": 1000}'
    assert texts[-1] == f'{{"position": "{g - 1}", "order": {g}}}'


def test_renderer_writes_int_children_in_place(monkeypatch):
    # _json makes one call per value: the report and its one child, the
    # kernel, held as its generator, whose 1000 or 2000 divisors its item
    # writer writes from ints with no call each: two _json calls either way
    counts = []
    for g in (1000, 2000):
        cover = _wide_dumbbell(g)
        report = {"pullback_kernel": pullback_kernel_group(cover)}
        calls = Counter()
        _count_calls(monkeypatch, cli, "_json", calls)
        text = cli._render(report, "json")
        monkeypatch.undo()
        assert text == json.dumps(_listed_report(report, cover), indent=2)
        counts.append(calls["_json"])
    assert counts == [2, 2]


def test_cli_prints_the_pullback_kernel_without_building_fractions(monkeypatch):
    # on an analysed cover, building the report makes one Fraction, the
    # generator 7/(5g), and no TorsionDivisor, and rendering it in either
    # format makes neither, for kernels of 1000 and 2000 points
    for g in (1000, 2000):
        cover = _wide_dumbbell(g)
        cli._analysis_report(cover, True)  # the cover keeps its parts
        fractions, divisors = Counter(), Counter()
        _count_fractions(monkeypatch, "__new__", fractions)
        _count_calls(monkeypatch, TorsionDivisor, "__new__", divisors)
        report = cli._analysis_report(cover, True)
        built = [fractions["__new__"], divisors["__new__"]]
        texts = [cli._render(report, fmt) for fmt in ("json", "text")]
        monkeypatch.undo()
        assert built == [fractions["__new__"], divisors["__new__"]] == [1, 0]
        listed = json.loads(texts[0])["pullback_kernel"]
        assert listed[1] == {"position": f"7/{5 * g}", "order": g}
        assert texts[0] == json.dumps(_listed_report(report, cover), indent=2)
        assert f"pullback_kernel: {json.dumps(listed)}" in texts[1].splitlines()


def test_renderer_writes_kernel_points_in_place(monkeypatch):
    # the analyze --split reports of the ladder dumbbells of degree 101 and
    # 2001 cost the same _json calls: the kernel is one value, and its item
    # writer writes each point, a list of strings, with no call
    counts = []
    for k in (50, 1000):
        cover = _ladder_cover(k)
        report = cli._analysis_report(cover, True)
        assert report["split"]["kernel_points"].order == 2 * k + 1
        calls = Counter()
        _count_calls(monkeypatch, cli, "_json", calls)
        text = cli._render(report, "json")
        monkeypatch.undo()
        assert text == json.dumps(_listed_report(report, cover), indent=2)
        counts.append(calls["_json"])
    assert counts[0] == counts[1]


def test_split_package_reads_each_kernel_point_once(monkeypatch):
    # the kernel columns are read through Matrix.entries, so degrees 101
    # and 2001 cost the same Matrix.__getitem__ calls
    counts = []
    for k in (50, 1000):
        cover = _ladder_cover(k)
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice.Matrix, "__getitem__", calls)
        assert verify_split_package(cover).all_flags_hold
        monkeypatch.undo()
        counts.append(calls["__getitem__"])
    assert counts[0] == counts[1]


def test_split_kernel_builds_no_fraction_or_matrix_per_point(monkeypatch):
    # building and rendering, in both formats, the analyze --split reports
    # of the ladder dumbbells of degree 101 and 2001 makes the same
    # Fraction and Matrix constructions, and so does verify_split_package
    # alone: the kernel stays int numerators from its listing to its text.
    # A derived matrix skips Matrix.__init__, so its builder is counted too.
    def report(cover):
        built = cli._analysis_report(cover, True)
        return [cli._render(built, fmt) for fmt in ("json", "text")]

    runs = {"report": report, "package": lambda cover: verify_split_package(cover).all_flags_hold}
    counts = {name: [] for name in runs}
    for k in (50, 1000):
        for name, run in runs.items():
            cover = _ladder_cover(k)
            calls = Counter()
            _count_fractions(monkeypatch, "__new__", calls)
            _count_calls(monkeypatch, exact_lattice.Matrix, "__init__", calls)
            _count_calls(monkeypatch, exact_lattice.Matrix, "_of", calls)
            assert run(cover)
            monkeypatch.undo()
            counts[name].append(calls)
    assert counts["report"][0] == counts["report"][1]
    assert counts["package"][0] == counts["package"][1]


# Fraction addition, subtraction and multiplication, in both operand orders
FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def _count_fraction_work(monkeypatch):
    calls = Counter()
    for name in FRACTION_ARITHMETIC + ("__new__",):
        _count_fractions(monkeypatch, name, calls)
    return calls


def _fraction_entries(m):
    return sum(type(x) is Fraction for row in m.entries() for x in row)


def test_solve_and_inverse_run_on_ints(monkeypatch):
    rng = random.Random(7)
    unimodular = random_unimodular(rng, 6)
    system = exact_lattice.Matrix([[rng.randrange(-99, 100) for _ in range(6)] for _ in range(6)])
    rhs = exact_lattice.Matrix([[rng.randrange(-99, 100) for _ in range(2)] for _ in range(6)])
    calls = _count_fraction_work(monkeypatch)
    inverse = unimodular.inv()
    solution = exact_lattice.rational_solve(system, rhs)
    monkeypatch.undo()
    assert inverse.is_integral() and unimodular * inverse == exact_lattice.Matrix.identity(6)
    # one Fraction per non-integral entry of the answer, and no arithmetic
    assert 0 < _fraction_entries(solution) == calls.pop("__new__")
    assert calls == Counter()


def test_product_of_rational_matrices_builds_one_fraction_per_entry(monkeypatch):
    rng = random.Random(4)

    def rational():
        rows = [[Fraction(rng.randrange(-50, 50), rng.randrange(1, 30)) for _ in range(4)] for _ in range(4)]
        return rows, exact_lattice.Matrix(rows)

    (rows_a, a), (rows_b, b) = rational(), rational()
    calls = _count_fraction_work(monkeypatch)
    product = a * b
    monkeypatch.undo()
    assert calls.pop("__new__") == _fraction_entries(product) <= 16
    assert calls == Counter()
    expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*rows_b)] for row in rows_a]
    assert product == exact_lattice.Matrix(expected)


def _count_builds(monkeypatch, name):
    """Count, per graph, the builds of a part a MetricGraph keeps."""
    builds = Counter()
    build = getattr(curves_covers.MetricGraph, name).func

    def counting(graph):
        builds[id(graph)] += 1
        return build(graph)

    counted = cached_property(counting)
    counted.__set_name__(curves_covers.MetricGraph, name)
    monkeypatch.setattr(curves_covers.MetricGraph, name, counted)
    return builds


def test_each_graph_builds_one_bfs_tree(monkeypatch):
    # the theta cover over its plain graph with the edge e subdivided, so
    # the cycle basis, the tree paths and the walk cover all read the tree
    trees = _count_builds(monkeypatch, "_root_paths")
    cover = subdivided(degree_two_cover(), 0)
    assert verify_split_package(cover).all_flags_hold
    complementary_cover(cover)
    assert trees and max(trees.values()) == 1


def test_cycle_basis_walks_one_tree_path_per_cycle(monkeypatch):
    # a path of ten vertices with three loops: genus 3 and twelve edges, of
    # which only the three loops close a cycle, so the basis walks three
    # tree paths, not one per edge
    vertices = list(range(10))
    edges = [(v, v + 1, 1) for v in range(9)] + [(0, 0, 1), (4, 4, 2), (9, 9, 3)]
    graph = curves_covers.MetricGraph(vertices, edges)
    calls = Counter()
    _count_calls(monkeypatch, curves_covers.MetricGraph, "tree_path", calls)
    cycles = graph.cycle_basis()
    monkeypatch.undo()
    assert graph.genus == 3 and len(cycles) == 3
    assert calls == Counter(tree_path=3)


def test_each_graph_builds_one_cycle_basis(monkeypatch):
    # the Jacobian, the pushforward row and the complementary walk cover all
    # read the basis of the subdivided theta graph
    bases = _count_builds(monkeypatch, "_cycles")
    cover = subdivided(degree_two_cover(), 0)
    assert is_optimal(cover).kernel_connected
    kernel_length(cover)
    pullback_kernel(cover)
    assert verify_split_package(cover).all_flags_hold
    complementary_cover(cover)
    assert bases and max(bases.values()) == 1


def test_each_graph_builds_one_period_matrix(monkeypatch):
    # abel_jacobi and every cover of a graph share the Jacobian it keeps
    graph = curves_covers.MetricGraph(["v"], [("v", "v", k) for k in range(1, 9)])
    cover = GeneralCircleCover(graph, 1, [(1, 0, k) for k in range(1, 9)])
    calls = Counter()
    _count_calls(monkeypatch, curves_covers.MetricGraph, "period_matrix", calls)
    for k in range(8):
        curves_covers.abel_jacobi(graph, "v", (k, Fraction(1, 2)))
    pushforward_morphism(cover)
    assert calls == Counter(period_matrix=1)


def test_optimality_builds_no_kernel_circle(monkeypatch):
    # gamma is read off the contents of f_sharp and f_hash
    calls = Counter()
    for module in (curves_covers, torus_category):
        _count_calls(monkeypatch, module, "kernel0", calls)
    for cover in (degree_two_cover(), _ladder_cover(50), _wide_dumbbell(6)):
        assert is_optimal(cover).component_count >= 1
    assert calls == Counter()


def test_covers_and_what_they_keep_refuse_assignment():
    theta = degree_two_cover()
    dumbbell = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))
    general = GeneralCircleCover(circle_graph(2), 1, [(1, 0, 2)])
    report = validate_cover(theta)
    gamma = quotient_and_gamma(theta)
    push = pushforward_morphism(theta)
    for value, attribute in (
        (theta, "windings"),
        (theta, "arcs"),
        (dumbbell, "target_length"),
        (general, "edge_data"),
        (theta.curve, "edges"),
        (general.graph, "vertices"),
        (report, "violations"),
        (gamma, "a_sharp"),
        (push, "f_sharp"),
        (push.source, "pairing"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
    assert isinstance(report.violations, tuple)
    assert isinstance(theta.curve.edges, tuple) and isinstance(general.edge_data, tuple)
    assert validate_cover(theta) is report


def _walks(form):
    return form.graph, form.target_length, form.edge_data


def _complement(cover):
    # the walk cover is a cover, which compares by identity
    comp = complementary_cover(cover)
    return comp._replace(general=_walks(comp.general))


# every public invariant of a cover, as a value that compares by content
INVARIANTS = {
    "validate_cover": validate_cover,
    "cover_degree": cover_degree,
    "target_length": target_length,
    "harmonic_form": lambda cover: _walks(harmonic_form(cover)),
    "pushforward_morphism": pushforward_morphism,
    "pullback_morphism": pullback_morphism,
    "kernel_length": kernel_length,
    "quotient_and_gamma": quotient_and_gamma,
    "component_count": component_count,
    "is_optimal": is_optimal,
    "pullback_kernel": pullback_kernel,
    "strong_optimality_gap": strong_optimality_gap,
    "complementary_pushforward": complementary_pushforward,
    "splitting_isogeny": splitting_isogeny,
    "complementary_cover": _complement,
    "verify_split_package": verify_split_package,
}


def _rebuilt(cover):
    """A fresh cover from the same data, with nothing derived yet."""
    if isinstance(cover, ThetaCover):
        return ThetaCover(cover.curve, cover.windings, cover.dilations, cover.arcs)
    return DumbbellCover(cover.curve, cover.windings, cover.dilations, cover.target_length)


def _outcome(invariant, cover):
    try:
        return INVARIANTS[invariant](cover)
    except TropjacError as exc:  # NotOptimal for the split invariants
        return type(exc), str(exc)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    st.one_of(theta_covers(), dumbbell_covers()),
    st.permutations(sorted(INVARIANTS)),
)
def test_invariants_do_not_depend_on_query_order(cover, order):
    answers = {invariant: _outcome(invariant, cover) for invariant in order}
    fresh = _rebuilt(cover)
    for invariant in sorted(INVARIANTS):
        assert answers[invariant] == _outcome(invariant, fresh), invariant


# makers of the covers whose lifetime is checked; the ladder dumbbell of
# degree 1001 is past the corpus
LIFETIME_COVERS = {
    "theta": degree_two_cover,
    "dumbbell": lambda: cli.parse_cover(json.dumps(DUMBBELL)),
    "subdivided": lambda: subdivided(degree_two_cover(), 0),
    "ladder-1001": lambda: _ladder_cover(500),
    "complement": lambda: complementary_cover(degree_two_cover()).general,
}


def _analyse_fully(cover):
    cli._analysis_report(cover, True)
    if strong_optimality_gap(cover) is None:
        assert verify_split_package(cover).all_flags_hold
        complementary_cover(cover)


def test_reference_counting_alone_frees_an_analysed_cover():
    # nothing a cover keeps refers back to it, so the cover dies on del
    # with the cyclic collector off, and it leaves no cycle behind
    for make in LIFETIME_COVERS.values():  # warm-up: anything built once per process
        _analyse_fully(make())
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, make in LIFETIME_COVERS.items():
            cover = make()
            _analyse_fully(cover)
            alive = weakref.ref(cover)
            del cover
            assert alive() is None, name
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
