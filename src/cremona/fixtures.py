"""Built-in example maps used by the tests, the demos and the CLI corpus.

Each constructor returns a ``MapFixture`` holding the map together with
the saturation target that matches its geometry (``None`` means the
irrelevant maximal ideal is the right target).
"""

from __future__ import annotations


from .families import signed_minors
from .ideals import Ideal
from .maps import RationalMapSpec
from .rings import FormMatrix, PolyRing, QQ
from .symbolic import SaturationTarget

__all__ = [
    "MapFixture",
    "standard_quadratic",
    "p4_monomial",
    "polar_quartic",
    "sub_hankel",
    "noether",
    "no_name",
    "de_jonquieres",
    "alberich_matrix",
    "all_fixtures",
]


class MapFixture:
    """A named rational map plus the saturation target for its base ideal."""

    __slots__ = ("name", "spec", "target")

    def __init__(self, name, spec, target=None):
        self.name = name
        self.spec = spec
        self.target = target

    @property
    def ring(self):
        return self.spec.ring

    @property
    def ideal(self):
        return self.spec.base_ideal()

    def __repr__(self):
        return "MapFixture(%r)" % (self.name,)


def standard_quadratic():
    """The plane quadratic map sending a point to its coordinate reciprocals."""
    R = PolyRing(("x0", "x1", "x2"), QQ)
    forms = (R.parse("x1*x2"), R.parse("x0*x2"), R.parse("x0*x1"))
    return MapFixture("standard-quadratic", RationalMapSpec(R, forms))


def p4_monomial():
    """Monomial quadratic map of four-space whose base ideal is squarefree.

    The base ideal has five codimension-two minimal primes and picks up a
    codimension-three embedded prime in its square, so saturating powers
    by the irrelevant ideal overshoots.  The stored target is the product
    ideal cutting out exactly the union of the minimal primes.
    """
    R = PolyRing(("x0", "x1", "x2", "x3", "x4"), QQ)
    forms = tuple(R.parse(s) for s in
                  ("x0*x1", "x1*x2", "x0*x2", "x2*x3", "x3*x4"))
    J = Ideal(R, tuple(R.parse(s) for s in
                       ("x0*x4", "x2*x4", "x1*x4", "x1*x3", "x0*x3")))
    return MapFixture("p4-monomial", RationalMapSpec(R, forms),
                      SaturationTarget.ideal(J))


def polar_quartic():
    """Gradient map of the quartic (x1^2 - x0*x2) * x2 * x3 (scalars dropped)."""
    R = PolyRing(("x0", "x1", "x2", "x3"), QQ)
    forms = tuple(R.parse(s) for s in
                  ("x2^2*x3", "x1*x2*x3", "x1^2*x3-2*x0*x2*x3",
                   "x1^2*x2-x0*x2^2"))
    element = R.parse("x1^2+x2^2+x0*x3")
    return MapFixture("polar-quartic", RationalMapSpec(R, forms),
                      SaturationTarget.element(element))


def sub_hankel():
    """Polar map of the generic four-variable sub-Hankel determinant."""
    R = PolyRing(("x0", "x1", "x2", "x3"), QQ)
    forms = tuple(R.parse(s) for s in
                  ("x3^2", "x2*x3", "-3*x2^2+2*x1*x3", "x1*x2-x0*x3"))
    return MapFixture("sub-hankel", RationalMapSpec(R, forms))


def noether():
    """Degree-three map of three-space with quadratic inverse (classical)."""
    R = PolyRing(("x0", "x1", "x2", "x3"), QQ)
    m = FormMatrix(R, [
        [R.zero, -R.var("x1"), -R.var("x1")],
        [-R.var("x0"), R.var("x0"), R.var("x1")],
        [R.var("x0"), R.zero, R.zero],
        [R.var("x2"), R.zero, R.var("x3")],
    ])
    return MapFixture("noether", RationalMapSpec(R, signed_minors(m)))


def no_name():
    """Degree-three map of three-space inverse to the sub-Hankel polar map."""
    R = PolyRing(("x0", "x1", "x2", "x3"), QQ)
    half3 = R.const(3) / 2
    m = FormMatrix(R, [
        [2 * R.var("x0"), R.zero, R.zero],
        [R.var("x1"), 2 * R.var("x0"), R.zero],
        [R.zero, half3 * R.var("x1"), 2 * R.var("x0")],
        [-R.var("x3"), R.var("x2"), R.var("x1")],
    ])
    return MapFixture("no-name", RationalMapSpec(R, signed_minors(m)))


def de_jonquieres():
    """Plane cubic map fixing the pencil of lines through one base point."""
    R = PolyRing(("x0", "x1", "x2"), QQ)
    forms = tuple(R.parse(s) for s in
                  ("x0^2*x2+x0*x1^2", "x0*x1*x2+x1^3", "x1^2*x2+x0^3"))
    return MapFixture("de-jonquieres", RationalMapSpec(R, forms))


def alberich_matrix():
    """Syzygy matrix of a plane quartic map satisfying the two-column shape.

    Entries are quadrics without pure-power terms; the signed maximal
    minors of this matrix are the map's coordinate forms.
    """
    R = PolyRing(("x0", "x1", "x2"), QQ)
    rows = [
        [R.parse("-x0*x2+2*x1*x2"), R.zero],
        [R.parse("x0*x1-x1*x2"), R.parse("x0*x1-x1*x2")],
        [R.zero, R.parse("-x0*x1+x0*x2")],
    ]
    return FormMatrix(R, rows)


def all_fixtures():
    """The named fixtures, in a stable order."""
    return (standard_quadratic(), p4_monomial(), polar_quartic(),
            sub_hankel(), noether(), no_name(), de_jonquieres())
