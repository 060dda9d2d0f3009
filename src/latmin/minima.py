"""Successive minima and canonical instances.

The ``i``-th successive minimum of a 0-symmetric convex body ``K`` with
respect to a lattice is the smallest dilation factor at which ``mu*K``
contains ``i`` linearly independent lattice points.  The result equals a
greedy sweep of all lattice points in increasing gauge order keeping each
point that grows the span; the implementation computes the same answer
stage by stage.  With ``k`` witnesses fixed, a unimodular change of basis
moves their span onto a coordinate subspace, and a pruned coordinate search
finds the exact minimal-gauge point outside that subspace without ever
enumerating the (possibly huge) point mass inside it.

From the body pulled back to the standard lattice onward, the search runs in
exact integers: the change of basis is the Hermite reduction of the
witnesses, carried from stage to stage, one column step per new witness
(:func:`~latmin.matrices._hermite_step`); each stage's view is derived
from the last one's integer data by that step's elementary operations, as
column operations on the integer normals or as congruences of the Gram
form; and the coordinate search compares integer gauge keys.  The body is
pulled back once, onto the standard lattice.

Ties are broken deterministically: points are ordered by exact gauge, then
by preferring support on earlier coordinates, after normalizing each
+-pair to the representative whose first nonzero coordinate is positive.

``canonicalize`` moves an instance to the standard lattice and applies the
unimodular change of basis that aligns witness ``i`` with the span of the
first ``i`` standard basis vectors.  It then certifies from the definition
that the aligned body has the same minima: each aligned witness has its
minimum's gauge and a nonzero ``i``-th entry, and the open dilate at the
``i``-th minimum holds no integer point outside the span of the first
``i - 1`` basis vectors, which one strict walk per minimum checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bodies import Box, Ellipsoid, HPolytope, SymmetricBody, _derived
from .enumeration import (_standard_body, min_key_point_outside,
                          open_point_outside)
from .gauges import GaugeValue
from .lattices import Lattice
from .matrices import _hermite_step, align_witnesses

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class MinimaResult:
    """Successive minima with witness lattice points (basis coordinates).

    ``witnesses[i]`` is linearly independent of the earlier witnesses and
    has gauge exactly ``minima[i]``; the minima are sorted ascending and the
    first one is positive.
    """

    minima: tuple[GaugeValue, ...]
    witnesses: tuple[IntPoint, ...]

    @property
    def dim(self) -> int:
        return len(self.minima)


@dataclass(frozen=True)
class CanonicalInstance:
    """An instance over the standard lattice with flag-aligned witnesses."""

    body: SymmetricBody
    minima: MinimaResult


def _box_minima(zbody: Box) -> MinimaResult:
    """Closed form for axis boxes over the standard lattice.

    The witnesses are the unit vectors ordered by gauge ``1/w_i`` with ties
    going to the smaller axis index, which is exactly what the general
    greedy sweep picks for a box.
    """
    dim = zbody.dim
    inv = [Fraction(w.denominator, w.numerator) for w in zbody.halfwidths]
    axes = sorted(range(dim), key=lambda i: (inv[i], i))
    minima = tuple(GaugeValue.rational(inv[i]) for i in axes)
    witnesses = tuple(tuple(int(j == i) for j in range(dim)) for i in axes)
    return MinimaResult(minima, witnesses)


def _mirror(ops: list[tuple], cols: list[list[int]], dim: int,
            symmetric: bool) -> None:
    """Apply :func:`_hermite_step`'s row operations on ``u`` to the
    current view, in place, as column operations.

    ``cols`` holds the columns of the view's transform ``R`` (``u^-1``
    with its columns reversed) stacked over those of its integer data:
    the normals ``N R``, or the Gram form ``R^T M R``, which ``symmetric``
    marks and which takes each column operation as a row operation too.
    Row ``i`` of ``u`` losing ``q`` times row ``j`` is column ``j`` of
    ``u^-1`` gaining ``q`` times column ``i``: view column ``d - 1 - j``
    gains ``q`` times view column ``d - 1 - i``.  Swaps and negations
    map the same way."""
    last = dim - 1
    for op in ops:
        if op[0] == "swap":
            a, b = last - op[1], last - op[2]
            cols[a], cols[b] = cols[b], cols[a]
            if symmetric:
                for c in cols:
                    c[dim + a], c[dim + b] = c[dim + b], c[dim + a]
        elif op[0] == "sub":
            a, b, q = last - op[2], last - op[1], op[3]
            cols[a] = [x + q * y for x, y in zip(cols[a], cols[b])]
            if symmetric:
                for c in cols:
                    c[dim + a] += q * c[dim + b]
        else:
            a = last - op[1]
            cols[a] = [-x for x in cols[a]]
            if symmetric:
                for c in cols:
                    c[dim + a] = -c[dim + a]


def successive_minima(body: SymmetricBody, lattice: Lattice) -> MinimaResult:
    """Compute all ``d`` successive minima with witnesses.

    Witnesses are found one stage at a time.  At each stage the span of the
    current witnesses is mapped unimodularly onto a coordinate subspace and
    :func:`min_key_point_outside` finds the exact minimal-gauge points
    outside it within the dilation ``mu``, doubling ``mu`` until one
    appears.  The dilation never shrinks between stages because the minima
    are nondecreasing.

    Each stage's view is the body pulled back through the integer rows of
    ``u^-1``, columns reversed, for the ``u`` of :func:`align_witnesses` on
    the witnesses so far.  The Hermite reduction's state is kept from stage
    to stage: each new witness takes one :func:`_hermite_step`, whose row
    operations on ``u`` are mirrored as column operations on the transform
    and the view's integer data (:func:`_mirror`), starting from the
    body's integer form with its coordinates reversed.  Unimodular
    operations keep the data's content and scale, so the view equals
    ``zbody.preimage(rows)`` entry for entry, with no congruence,
    determinant or gcd per stage.  An ellipsoid view still builds its
    Schur chain, which raises unless every pivot is positive.
    """
    dim = body.dim
    zbody = _standard_body(body, lattice)
    if isinstance(zbody, Box):
        return _box_minima(zbody)

    identity = tuple(tuple(int(i == j) for j in range(dim))
                     for i in range(dim))
    symmetric = isinstance(zbody, Ellipsoid)
    data, scale = zbody._integer_gram if symmetric else zbody._integer_normals
    # Column j of the reversal stacked over column j of the reversed data;
    # the Gram form is symmetric, so its column is a row.
    cols = [list(identity[-1 - j])
            + (list(reversed(data[-1 - j])) if symmetric
               else [row[-1 - j] for row in data])
            for j in range(dim)]
    u = [list(row) for row in identity]
    minima: list[GaugeValue] = []
    witnesses: list[IntPoint] = []
    view, rows = zbody, identity
    mu = 1
    while len(witnesses) < dim:
        found = min_key_point_outside(view, dim - len(witnesses), mu, rows)
        if found is None:
            mu *= 2
            continue
        gauge, witness = found
        minima.append(gauge)
        witnesses.append(witness)
        if len(witnesses) < dim:
            # Reversing the columns of ``u^-1`` reverses the rows of ``u``,
            # which puts the witness span on the last coordinates.  The
            # search receives these rows to express its preference directly
            # on the original coordinates.
            _mirror(_hermite_step(u, witness, len(witnesses) - 1)[1], cols,
                    dim, symmetric)
            stacked = tuple(zip(*cols))
            rows = stacked[:dim]
            if symmetric:
                view = _derived(Ellipsoid,
                                _integer_gram=(stacked[dim:], scale))
                view._integer_forms  # raises unless every pivot is positive
            else:
                view = _derived(HPolytope,
                                _integer_normals=(stacked[dim:], scale))
    return MinimaResult(tuple(minima), tuple(witnesses))


def align(zbody: SymmetricBody, witnesses: tuple[IntPoint, ...],
          ) -> tuple[SymmetricBody, tuple[IntPoint, ...]]:
    """The body and witnesses moved onto the standard flag.

    ``witnesses`` are ``d`` independent integer points in the coordinates of
    ``zbody``.  With the unimodular ``u`` of :func:`align_witnesses`, returns
    the pull-back of ``zbody`` through the integer rows of ``u^-1`` and the
    Hermite columns ``u w``, so witness ``i`` lies in the span of the first
    ``i`` standard basis vectors and every gauge (hence every count and
    minimum over the standard lattice) is unchanged."""
    aligned, inverse = align_witnesses(witnesses)
    return zbody.preimage(inverse), aligned


def _certify_flag(body: SymmetricBody, minima: tuple[GaugeValue, ...],
                  witnesses: tuple[IntPoint, ...]) -> None:
    """Raise unless ``minima`` are the successive minima of ``body`` over
    the standard lattice, for flag-aligned ``witnesses``.

    Three checks for each ``i`` (1-based, ``w_i`` the ``i``-th witness):
    (a) ``gauge(w_i) = lambda_i``; (b) ``w_i`` lies in ``span(e_1..e_i)``
    with a nonzero ``i``-th entry; (c) the open dilate ``lambda_i * body``
    holds no integer point outside ``span(e_1..e_{i-1})``.

    Every ``w_j`` with ``j >= i`` lies outside that span by (b), so (a) and
    (c) give ``lambda_j >= lambda_i``: the minima are sorted.  Then
    ``w_1..w_i`` are ``i`` independent points (b) of gauge at most
    ``lambda_i`` (a), so the ``i``-th minimum of ``body`` is at most
    ``lambda_i``.  Any ``i`` independent points of gauge below ``lambda_i``
    include one outside the ``(i-1)``-dimensional span, which (c) rules
    out, so it is at least ``lambda_i``.  The proof uses only the
    definition of the minima, none of the search's tie-breaking.

    For (c) the body is pulled back once through the coordinate reversal,
    which turns ``span(e_1..e_{i-1})`` into the points whose first
    ``d - i + 1`` coordinates vanish: the subspace that
    :func:`open_point_outside` leaves out."""
    dim = body.dim
    for i, (w, lam) in enumerate(zip(witnesses, minima)):
        if body.gauge(w) != lam:
            raise AssertionError("alignment changed a witness gauge")
        if not w[i] or any(w[i + 1:]):
            raise AssertionError("witnesses are not aligned with the flag")
    reversed_body = body.preimage(
        [[int(i + j == dim - 1) for j in range(dim)] for i in range(dim)])
    for i, lam in enumerate(minima):
        if open_point_outside(reversed_body, lam, dim - i):
            raise AssertionError("canonicalization changed the minima")


def canonicalize(body: SymmetricBody, lattice: Lattice) -> CanonicalInstance:
    """Standard-lattice instance with witnesses aligned to the flag.

    The returned body is the original pulled back through the lattice basis
    and then mapped by the unimodular alignment (:func:`align`), so witness
    ``i`` lies in the span of the first ``i`` standard basis vectors and all
    gauges (hence all minima) are preserved.  :func:`_certify_flag` then
    proves from the definition that the aligned body has the same minima,
    with one strict walk per minimum instead of a second search.
    """
    zbody = _standard_body(body, lattice)
    base = successive_minima(zbody, Lattice.standard(body.dim))
    aligned_body, aligned_wits = align(zbody, base.witnesses)
    _certify_flag(aligned_body, base.minima, aligned_wits)
    return CanonicalInstance(aligned_body,
                             MinimaResult(base.minima, aligned_wits))
