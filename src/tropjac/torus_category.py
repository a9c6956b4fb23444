"""The category of real tori with integral structure.

An object is a pair of rank-n integer lattices glued by a non-degenerate
rational pairing P; the underlying real torus is R^n modulo the column
lattice of P.  A morphism is a pair of integer matrices (f_sharp, f_hash)
satisfying the pairing law, and the category admits kernels, cokernels,
images, quotients, biproducts, (co)equalizers, duals and a Stein-style
factorization of surjections through an isogeny.

Conventions used throughout:

* ``f_sharp`` has shape (rank source, rank target) and encodes the lattice
  map from the target's Lambda to the source's Lambda.
* ``f_hash`` has shape (rank target, rank source) and encodes the map on the
  second lattices, in the direction of the morphism.
* the induced map on universal covers is ``f_sharp`` transposed.
"""

from .errors import (
    CompatibilityViolation,
    NotInjective,
    NotSurjective,
    ShapeMismatch,
)
from .exact_lattice import (
    Matrix,
    _Value,
    _require_size,
    block_diagonal,
    hstack,
    integer_kernel,
    integer_solve,
    invariant_factors,
    rational_solve,
    smith_normal_form,
    snf_rank,
    vstack,
)

from collections import namedtuple
from math import prod


class IntegralTorus(_Value):
    """A rank-n real torus with integral structure, presented by its pairing."""

    __slots__ = ("rank", "pairing")

    def __init__(self, rank, pairing):
        _require_size(rank)
        if pairing.shape != (rank, rank):
            raise ValueError("pairing shape must match the rank")
        if pairing.det() == 0:
            raise ValueError("pairing must be non-degenerate")
        self._set(rank=rank, pairing=pairing)


def circle(length):
    """The circle torus C(l) with 1x1 pairing [l]."""
    return IntegralTorus(1, Matrix([[length]]))


def zero_torus():
    """The rank-0 torus (empty pairing)."""
    return IntegralTorus(0, Matrix([], ncols=0))


class TorusMorphism(_Value):
    """A morphism of integral tori; the pairing law is checked on construction."""

    __slots__ = ("source", "target", "f_sharp", "f_hash")

    def __init__(self, source, target, f_sharp, f_hash):
        if f_sharp.shape != (source.rank, target.rank):
            raise ValueError("f_sharp must have shape (rank source, rank target)")
        if f_hash.shape != (target.rank, source.rank):
            raise ValueError("f_hash must have shape (rank target, rank source)")
        if not f_sharp.is_integral() or not f_hash.is_integral():
            raise ValueError("morphism matrices must be integral")
        if f_sharp.transpose() * source.pairing != target.pairing * f_hash:
            raise CompatibilityViolation(
                "pairing law f_sharp^T * P_src = P_tgt * f_hash fails"
            )
        self._set(source=source, target=target, f_sharp=f_sharp, f_hash=f_hash)

    @property
    def universal_cover_matrix(self):
        """The matrix of the induced linear map on universal covers."""
        return self.f_sharp.transpose()


def identity_morphism(torus):
    eye = Matrix.identity(torus.rank)
    return TorusMorphism(torus, torus, eye, eye)


def zero_morphism(source, target):
    return TorusMorphism(
        source,
        target,
        Matrix.zeros(source.rank, target.rank),
        Matrix.zeros(target.rank, source.rank),
    )


def compose(outer, inner):
    """The composite outer ∘ inner."""
    if inner.target != outer.source:
        raise ShapeMismatch("morphisms are not composable")
    return TorusMorphism(
        inner.source,
        outer.target,
        inner.f_sharp * outer.f_sharp,
        outer.f_hash * inner.f_hash,
    )


MorphismFlags = namedtuple("MorphismFlags", ["surjective", "finite", "injective", "isogeny"])


def classify(m):
    """Surjective / finite / injective / isogeny flags of a morphism, read
    off the invariant factors of f_hash alone.

    The pairing law f_sharp^T * P_src = P_tgt * f_hash, checked when the
    morphism is built, with both pairings non-degenerate, gives f_sharp
    and f_hash one rank r, the number of nonzero invariant factors of
    f_hash.  The morphism is surjective when r is the target rank (the
    cover map f_sharp^T is onto), finite when r is the source rank
    (ker f_hash is 0), injective when it is finite and every factor is 1
    (im f_hash is saturated), and an isogeny when it is both surjective
    and finite.

    Note that all four flags can be true for a non-invertible morphism
    (dilations such as ([2], [1]) : C(3) -> C(6)), so none of them implies
    the existence of an inverse.
    """
    factors = invariant_factors(m.f_hash)
    surjective = len(factors) == m.target.rank
    finite = len(factors) == m.source.rank
    injective = finite and prod(factors) == 1
    return MorphismFlags(surjective, finite, injective, surjective and finite)


def dual(torus):
    """The dual torus: same lattices with the transposed pairing."""
    return IntegralTorus(torus.rank, torus.pairing.transpose())


def dual_morphism(m):
    """The dual morphism: swaps the two matrices and reverses direction."""
    return TorusMorphism(dual(m.target), dual(m.source), m.f_hash, m.f_sharp)


def kernel0(m):
    """Connected component of the kernel, with its inclusion.

    In coordinates the kernel torus is (Lambda_src / im(f_sharp) saturated,
    ker(f_hash), restricted pairing).  The quotient coordinates come from the
    Smith form of f_sharp, so they are deterministic: the projection is the
    rows of U past the rank.  The pairing P_K is the one the inclusion's
    pairing law projection^T * P_K = P_src * kernel_basis leaves: the rows of
    the unimodular U are independent, so projection^T has full column rank
    and the solve has exactly one solution.
    """
    n1 = m.source.rank
    u, s, _ = smith_normal_form(m.f_sharp)
    r = snf_rank(s)
    k = n1 - r
    projection = u.submatrix(range(r, n1), range(n1))
    kernel_basis = integer_kernel(m.f_hash)
    pairing = rational_solve(projection.transpose(), m.source.pairing * kernel_basis)
    if k == 1 and pairing[0, 0] < 0:
        # orient rank-1 kernels so the circle length is positive; the law
        # holds for the projection and the pairing flipped together
        projection = -projection
        pairing = -pairing
    torus = IntegralTorus(k, pairing)
    inclusion = TorusMorphism(torus, m.source, projection, kernel_basis)
    return torus, inclusion


def cokernel(m):
    """Cokernel torus with its projection: the dual of the kernel of the
    dual morphism.

    In coordinates: (ker(f_sharp), Lambda'_tgt / im(f_hash) saturated,
    induced pairing), quotient coordinates from the Smith form of f_hash.
    """
    torus, inclusion = kernel0(dual_morphism(m))
    return dual(torus), dual_morphism(inclusion)


def image(m):
    """Image subtorus with its inclusion into the target."""
    _, proj = cokernel(m)
    return kernel0(proj)


def quotient_by_subtorus(torus, inclusion):
    """Quotient of a torus by an injectively included subtorus.

    Returns the quotient and its projection; raises NOT_INJECTIVE when the
    inclusion fails to be injective.
    """
    if inclusion.target != torus:
        raise ShapeMismatch("inclusion does not land in the torus being quotiented")
    if not classify(inclusion).injective:
        raise NotInjective("subtorus inclusion must be injective")
    return cokernel(inclusion)


def product(t1, t2):
    """Biproduct of two tori: (product torus, inj1, inj2, proj1, proj2)."""
    n1, n2 = t1.rank, t2.rank
    torus = IntegralTorus(n1 + n2, block_diagonal(t1.pairing, t2.pairing))
    eye1 = Matrix.identity(n1)
    eye2 = Matrix.identity(n2)
    iota1 = TorusMorphism(
        t1, torus, hstack(eye1, Matrix.zeros(n1, n2)), vstack(eye1, Matrix.zeros(n2, n1))
    )
    iota2 = TorusMorphism(
        t2, torus, hstack(Matrix.zeros(n2, n1), eye2), vstack(Matrix.zeros(n1, n2), eye2)
    )
    proj1 = TorusMorphism(
        torus, t1, vstack(eye1, Matrix.zeros(n2, n1)), hstack(eye1, Matrix.zeros(n1, n2))
    )
    proj2 = TorusMorphism(
        torus, t2, vstack(Matrix.zeros(n1, n2), eye2), hstack(Matrix.zeros(n2, n1), eye2)
    )
    return torus, iota1, iota2, proj1, proj2


def _difference(f, g):
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("the two morphisms are not parallel")
    return TorusMorphism(f.source, f.target, f.f_sharp - g.f_sharp, f.f_hash - g.f_hash)


def equalizer(f, g):
    """Equalizer of a parallel pair, as (torus, map in)."""
    return kernel0(_difference(f, g))


def coequalizer(f, g):
    """Coequalizer of a parallel pair, as (torus, map out)."""
    return cokernel(_difference(f, g))


# a surjection written as (isogeny phi) ∘ (connected-kernel part pi)
SteinFactorization = namedtuple("SteinFactorization", ["pi", "phi", "middle"])


def stein_factorization(m):
    """Canonical factorization of a surjection through an isogeny.

    pi is the projection onto the quotient by the connected kernel component;
    phi is the unique induced isogeny with phi ∘ pi = m.
    """
    if not classify(m).surjective:
        raise NotSurjective("stein factorization requires a surjective morphism")
    _, inclusion = kernel0(m)
    middle, pi = quotient_by_subtorus(m.source, inclusion)
    sharp = integer_solve(pi.f_sharp, m.f_sharp)
    hash_t = integer_solve(pi.f_hash.transpose(), m.f_hash.transpose())
    if sharp is None or hash_t is None:
        raise CompatibilityViolation("morphism does not factor through its connected kernel")
    phi = TorusMorphism(middle, m.target, sharp, hash_t.transpose())
    if compose(phi, pi) != m:
        raise CompatibilityViolation("stein factorization failed to reproduce the morphism")
    return SteinFactorization(pi, phi, middle)


def kernel_component_count(m):
    """Number of connected components of the group kernel of a surjection.

    Equals the geometric degree of the isogeny part phi of the Stein
    factorization m = phi ∘ pi, the index of im(phi.f_hash) in the target
    second lattice.  The rows of pi.f_hash are rows of a unimodular matrix,
    so pi.f_hash is onto and im(m.f_hash) = im(phi.f_hash): the index is
    read off m itself, without building the factorization.  It is the
    product of the invariant factors of m.f_hash, which has full row rank
    exactly when m is surjective (see classify).
    """
    factors = invariant_factors(m.f_hash)
    if len(factors) != m.target.rank:
        raise NotSurjective("component count requires a surjective morphism")
    return prod(factors)
