"""Rees algebra presentations by elimination.

The presentation ideal of the Rees algebra of a base ideal lives in
k[x, y] with one y-variable per generator.  Its x-linear part packs into
the Jacobian dual matrix, whose syzygies drive inverse extraction.
Weighted extra generators give presentations of larger subalgebras of
R[t].  A presentation keeps the reduced grevlex basis that its
elimination leaves and reads its Jacobian dual and image ideal off it.
"""

from __future__ import annotations

from .groebner import _hilbert_numerator, eliminate
from .ideals import _fresh_names, _with_basis
from .rings import FormMatrix, PolyRing, Polynomial, _coefficients, transfer

__all__ = ["ReesPresentation", "jacobian_dual", "rees_ideal",
           "subalgebra_presentation"]


def _uniform_degree(gens):
    degs = {g.degree() if g.is_homogeneous() else None for g in gens}
    if len(degs) != 1 or None in degs:
        raise ValueError("mixed generator degrees")
    return degs.pop()


class ReesPresentation:
    """Bigraded presentation ideal J of the Rees algebra of a base ideal,
    kept as basis, its reduced grevlex basis, ascending by lead key, of
    bihomogeneous elements; the Jacobian dual reads its x-linear
    elements and the image ideal, made when first asked for, its
    elements of x-degree 0."""

    __slots__ = ("ambient", "basis", "xnames", "ynames", "_xdeg",
                 "_image")

    def __init__(self, ambient, basis, xnames, ynames):
        self.ambient = ambient
        self.basis = basis
        self.xnames = xnames
        self.ynames = ynames
        self._xdeg = ambient.grading(
            [int(nm in xnames) for nm in ambient.names])
        self._image = None

    def bidegree(self, g):
        """(x-degree, y-degree) of a bihomogeneous form g of the ambient
        ring; any other polynomial raises ValueError."""
        if g.ring == self.ambient and g.is_homogeneous():
            xdegs = self._xdeg(g)
            if len(xdegs) == 1:
                a, = xdegs
                return a, g.degree() - a
        raise ValueError("polynomial is not bihomogeneous")

    def image_ideal(self):
        """The y-only part of J, its intersection with k[y]; zero exactly
        for dominant maps.

        Read off the basis with no elimination.  J is bihomogeneous for
        deg x = (1, 0), deg y = (0, 1), so its reduced basis consists of
        bihomogeneous forms.  The lead of a y-only element of J is
        divisible by the lead of some g in the basis, which is then free
        of x; g has x-degree 0, as all its terms have that of its lead,
        so g lies in k[y].  The basis elements with x-free leads are thus
        the reduced grevlex basis of the y-only part: grevlex on (x, y)
        restricts to grevlex on y.  They are moved once into k[y],
        ascending still.
        """
        if self._image is None:
            self._image = _with_basis(self.basis.restrict(self.ynames))
        return self._image

    def __repr__(self):
        return "ReesPresentation(%d basis elements)" % len(self.basis)


def rees_ideal(I):
    """Presentation of the Rees algebra of I, kept as the reduced basis
    that subalgebra_presentation(I) leaves.
    """
    J = subalgebra_presentation(I)
    xnames = I.ring.names
    return ReesPresentation(J.ring, J.groebner(), xnames,
                            J.ring.names[len(xnames):])


def jacobian_dual(P):
    """Matrix of y-form coefficients of the x-linear elements of J's
    reduced basis, ascending by lead key: row r lists, per x-variable,
    the y-form coefficient inside the r-th of them, so that element
    equals sum(x_i * row[i]).

    These elements generate the x-linear part of J over k[y] when J has
    no y-only part (the map is dominant): J and its reduced basis are
    bihomogeneous, dividing an element of bidegree (1, b) by the basis
    uses only basis elements of x-degree at most 1, and none has
    x-degree 0, so every cofactor lies in k[y].  The rows then span the
    same k[y]-module as those of the x-linear minimal generators of J:
    the same rank at every point, and the same column relation module,
    whose reduced basis syzygies reads, so the same syzygy columns.  A
    map that is not dominant has no inverse by any rows: a column g
    passing g(f) = x * D with D nonzero would make it birational onto
    P^n.
    """
    ring = P.ambient
    yring = PolyRing(P.ynames, ring.field)
    xs = [ring.var(n) for n in P.xnames]
    rows = [_coefficients(g, xs, yring) for g in P.basis.polys
            if P.bidegree(g)[0] == 1]
    if not rows:
        raise ValueError("no x-linear generators; Jacobian dual undefined")
    return FormMatrix(yring, rows)


def _column_relations(mat, P):
    """One form sum(y_i * mat[i][j]) of P.ambient per column j of a
    matrix over the base ring of P."""
    amb = P.ambient
    ys = [amb.var(nm) for nm in P.ynames]
    return [sum((ys[i] * transfer(mat[i, j], amb)
                 for i in range(mat.nrows) if mat[i, j]), amb.zero)
            for j in range(mat.ncols)]


def subalgebra_presentation(I, extra=()):
    """Kernel of k[x, y, z] -> k[x, t] with y_i -> f_i*t, z_j -> F_j*t^w_j.

    extra lists pairs (F, w); with no extras this presents the plain Rees
    algebra.  Generators are not minimalized (weighted z-variables break
    the standard grading); they are the reduced basis of the kernel in
    the default (grevlex) order, ascending.

    The elimination of t is Hilbert-driven.  With deg t = deg x_i = 1,
    deg y_i = d + 1 (d the degree of the f_i) and deg z_j = w_j + deg F_j
    every relation y_i - f_i*t, z_j - F_j*t^w_j is homogeneous, and the
    quotient by them is k[t, x], as it is by the y- and z-variables: the
    two ideals have the same Hilbert series.
    """
    ring = I.ring
    gens = I.gens
    if not gens:
        raise ValueError("need a nonzero ideal")
    d = _uniform_degree(gens)
    extras = tuple(extra)
    for F, w in extras:
        if not isinstance(w, int) or w < 1:
            raise ValueError("weights must be positive integers")
        if (not isinstance(F, Polynomial) or F.ring != ring or not F
                or not F.is_homogeneous()):
            raise ValueError("extra generators must be nonzero forms")
    xnames = ring.names
    taken = set(xnames)
    ynames = _fresh_names(taken, ("y", "Y", "v"), len(gens))
    taken |= set(ynames)
    znames = ()
    if extras:
        znames = _fresh_names(taken, ("z", "Z", "u"), len(extras), start=1)
        taken |= set(znames)
    tname, = _fresh_names(taken, ("t", "s", "w"))
    work = PolyRing((tname,) + xnames + ynames + znames, ring.field)
    t = work.var(tname)
    rel = [work.var(yn) - t * transfer(f, work)
           for yn, f in zip(ynames, gens)]
    for zn, (F, w) in zip(znames, extras):
        rel.append(work.var(zn) - t ** w * transfer(F, work))
    weights = ((1,) * (1 + len(xnames)) + (d + 1,) * len(ynames)
               + tuple(w + F.homogeneous_degree() for F, w in extras))
    # the y- and z-variables as exponent vectors
    n = work.nvars
    yz = [tuple(int(i == j) for i in range(n))
          for j in range(1 + len(xnames), n)]
    series = (weights, _hilbert_numerator(yz, weights))
    return _with_basis(eliminate(rel, [tname], ring=work, series=series))
