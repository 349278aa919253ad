"""The two structured families: template matrices and the plane quartic
construction.

A template matrix has n-1 columns of linear forms and a last column of
degree-r forms; the signed maximal minors cut a codimension-2 ideal
defining a map onto a hypersurface, and Sylvester forms of the linear
relations build Rees-ideal elements of prescribed bidegrees.  The plane
construction assembles, from a 3x2 syzygy matrix of quadrics without
pure-power terms, the 4x3 matrix whose maximal minors present the graph
of a quartic map together with its inverse.
"""

from __future__ import annotations

import random
from itertools import combinations

from .groebner import _hilbert_numerator, check_deadline, groebner_basis
from .ideals import Ideal
from .maps import (InverseData, RationalMapSpec, _coprime, _factor_at_zero,
                   inversion_factor)
from .rees import _column_relations, rees_ideal
from .rings import (FormMatrix, PolyRing, Polynomial, QQ, _coefficients,
                    transfer)

__all__ = ["AppendixData", "DegenerateTemplate", "SylvesterChain",
           "TemplateInstance", "TemplateMatrix", "appendix_construct",
           "signed_minors", "sylvester_chain", "sylvester_form",
           "template_ideal"]


class DegenerateTemplate(ValueError):
    """A drawn instance fell out of general position; redraw with a new
    seed."""


def signed_minors(mat):
    """Row-deleted maximal minors with alternating signs.

    For an (m+1) x m matrix the returned vector annihilates every
    column, so it lists Hilbert-Burch generators in the order matching
    the rows.
    """
    m = mat.ncols
    if mat.nrows != m + 1:
        raise ValueError("need one more row than columns")
    # minors() lists the minor that drops row m first
    return tuple(-d if i % 2 else d
                 for i, d in enumerate(reversed(mat.minors(m))))


class TemplateMatrix:
    """(n+1) x n matrix over k[x_0..x_{n-1}]: n-1 linear columns, then
    one column of degree-r forms."""

    __slots__ = ("n", "r", "ring", "matrix")

    def __init__(self, matrix, r):
        ring = matrix.ring
        n = matrix.ncols
        if n < 2 or matrix.nrows != n + 1:
            raise ValueError("template must be (n+1) x n with n >= 2")
        if ring.nvars != n:
            raise ValueError("template needs as many variables as columns")
        if r < 1:
            raise ValueError("last-column degree must be positive")
        for i in range(n + 1):
            for j in range(n):
                e = matrix[i, j]
                want = r if j == n - 1 else 1
                if e and e.homogeneous_degree() != want:
                    raise ValueError("entry (%d, %d) has degree %d, want %d"
                                     % (i, j, e.homogeneous_degree(), want))
        self.n = n
        self.r = r
        self.ring = ring
        self.matrix = matrix

    def linear_part(self):
        rows = tuple(tuple(self.matrix[i, j] for j in range(self.n - 1))
                     for i in range(self.n + 1))
        return FormMatrix(self.ring, rows)

    def forms(self):
        return signed_minors(self.matrix)

    def ideal(self):
        return Ideal(self.ring, self.forms())

    def __repr__(self):
        return "TemplateMatrix(n=%d, r=%d over %s)" % (self.n, self.r,
                                                       self.ring)


def _draw_template(n, r, rng, ring):
    lin_monos = [tuple(1 if k == j else 0 for k in range(n))
                 for j in range(n)]
    pow_monos = list(ring.monomials_of_degree(r))
    rows = []
    for _i in range(n + 1):
        row = []
        for j in range(n):
            check_deadline()
            monos = pow_monos if j == n - 1 else lin_monos
            row.append(ring.from_terms(
                [(m, rng.randint(-5, 5)) for m in monos]))
        rows.append(row)
    return FormMatrix(ring, rows)


class TemplateInstance:
    """A template matrix with its minor ideal and lazily computed
    numerology."""

    __slots__ = ("template", "ideal", "seed", "_rees", "_relations",
                 "_inverses")

    def __init__(self, template, seed=None):
        self.template = template
        self.ideal = template.ideal()
        self.seed = seed
        self._rees = None
        self._relations = None
        self._inverses = None

    @property
    def n(self):
        return self.template.n

    @property
    def r(self):
        return self.template.r

    @property
    def ring(self):
        return self.template.ring

    def codimension(self):
        return self.ideal.codimension()

    def multiplicity(self):
        return self.ideal.hilbert().multiplicity

    def expected_multiplicity(self):
        n, r = self.n, self.r
        return r * r + (n - 1) * r + n * (n - 1) // 2

    def rees(self):
        if self._rees is None:
            self._rees = rees_ideal(self.ideal)
        return self._rees

    def relations(self):
        """The forms sum_i y_i * M[i][j] of the Rees ambient, one per
        column j of the template matrix M, the last of x-degree r."""
        if self._relations is None:
            self._relations = _column_relations(self.template.matrix,
                                                self.rees())
        return self._relations

    def edeg(self):
        """Degree of the implicit equation of the image hypersurface."""
        # principal exactly when its reduced basis has one element
        gens = self.rees().image_ideal().gens
        if len(gens) != 1:
            raise DegenerateTemplate("image is not a hypersurface")
        return gens[0].homogeneous_degree()

    def map_spec(self):
        return RationalMapSpec(self.ring, self.ideal.gens)

    def inverses(self):
        """Degree-2 inverse representatives from the x-linear relations.

        Each linear column c gives the coefficient row theta over k[y]
        of its relation sum_i y_i * M[i][c] = sum_j x_j * theta_j, and
        the signed minors of each pair of rows, their cross product, are
        a candidate; they are validated by the composition check.  r = 1
        yields three pairs, r >= 2 just one.

        One coordinate decides the check.  A row theta of a column c
        satisfies theta(f) . x = sum_i f_i * M[i][c] = 0, as the signed
        minors annihilate every column, so the cross product g of two
        rows has g(f) orthogonal to both rows at f, as x is: g(f) is
        lambda * x for a polynomial lambda (x_0 divides g_0(f) as
        x_1 * g_0(f) = x_0 * g_1(f)), zero when the rows are dependent.
        So g passes exactly when g_0(f) is nonzero, and D = g_0(f) / x_0.
        """
        if self._inverses is not None:
            return self._inverses
        if self.n != 3:
            raise ValueError("inverse extraction implemented for n = 3")
        P = self.rees()
        yring = PolyRing(P.ynames, self.ring.field)
        xs = [P.ambient.var(nm) for nm in P.xnames]
        rels = self.relations()[:self.n if self.r == 1 else self.n - 1]
        theta = [_coefficients(rel, xs, yring) for rel in rels]
        spec = self.map_spec()
        found = []
        for ta, tb in combinations(theta, 2):
            g = signed_minors(FormMatrix(yring, list(zip(ta, tb))))
            if all(not gi for gi in g):
                raise DegenerateTemplate("vanishing coefficient matrix")
            d = _factor_at_zero(g[0], spec)
            if d is None:
                raise DegenerateTemplate(
                    "composition check failed for a column pair")
            inv = self.ring.field.inv(d.leading_coefficient())
            found.append(InverseData(tuple(gi * inv for gi in g), d * inv, 2))
        self._inverses = tuple(found)
        return self._inverses

    def diagnostics(self):
        out = {"codimension": self.codimension(),
               "multiplicity": self.multiplicity(),
               "expected_multiplicity": self.expected_multiplicity()}
        if self.n == 3:
            out["edeg"] = self.edeg()
        return out

    def __repr__(self):
        return ("TemplateInstance(n=%d, r=%d, seed=%r)"
                % (self.n, self.r, self.seed))


def template_ideal(n, r, seed=None, field=QQ):
    """Draw a template instance over field[x0..x_{n-1}]; degenerate
    draws raise DegenerateTemplate so the caller can reseed."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    mat = _draw_template(n, r, random.Random(seed), ring)
    inst = TemplateInstance(TemplateMatrix(mat, r), seed)
    if inst.codimension() < 2:
        raise DegenerateTemplate("codimension below 2 (seed %r)" % (seed,))
    return inst


# -- Sylvester chains -------------------------------------------------


def sylvester_form(h1, h2, h3, wrt):
    """Determinant of the coefficient matrix writing three forms as
    combinations of three variables, named by wrt.

    A term goes to the first of the variables that divides it; a form
    with a term that none divides fails the content check.
    """
    ring = h1.ring
    names = tuple(wrt)
    if len(names) != 3 or len(set(names)) != 3:
        raise ValueError("need three distinct variables")
    for nm in names:
        if nm not in ring.names:
            raise ValueError("no variable %r in %r" % (nm, ring))
    vs = [ring.var(nm) for nm in names]
    rows = []
    for h in (h1, h2, h3):
        if not isinstance(h, Polynomial) or h.ring != ring:
            raise ValueError("forms from a different ring")
        try:
            rows.append(_coefficients(h, vs, ring))
        except ValueError:
            raise ValueError("content check failed: %s is not in (%s)"
                             % (h, ", ".join(names))) from None
    return FormMatrix(ring, rows).det()


class SylvesterChain:
    """Sylvester forms f_1..f_r generated from the linear relations of a
    template presentation; f_i has bidegree (r-i, 2i+1)."""

    __slots__ = ("forms", "bidegrees", "conjecture_equal")

    def __init__(self, forms, bidegrees, conjecture_equal):
        self.forms = forms
        self.bidegrees = bidegrees
        self.conjecture_equal = conjecture_equal

    def __repr__(self):
        return ("SylvesterChain(%d forms, bidegrees %s, equality %s)"
                % (len(self.forms), list(self.bidegrees),
                   self.conjecture_equal))


def sylvester_chain(inst):
    """Build the chain for a template instance and verify each form
    against its Rees ideal, inst.rees().

    Requires the 2-minors of the linear part to be irrelevant-primary;
    records whether the linear relations plus the chain already give the
    whole Rees ideal J.  Every form of the chain lies in J: each Sylvester
    form passes a membership test, and the column relations
    sum(y_i * M[i][j]) map to 0 as the f_i are the signed maximal minors
    of M.  So the chain generates J exactly when its reduced grevlex
    basis has the leads of J's, inst.rees().basis.
    """
    T = inst.template
    if T.n != 3:
        raise ValueError("chains are defined over three variables")
    lin = Ideal(T.ring, T.linear_part().minors(2))
    if lin.codimension() != 3:
        raise DegenerateTemplate("standing assumption fails: 2-minors of "
                                 "the linear part are not irrelevant-primary")
    P = inst.rees()
    amb = P.ambient
    l1, l2, f0 = inst.relations()
    if not l1 or not l2 or not f0:
        raise DegenerateTemplate("vanishing linear relation")
    gb = P.basis
    forms = []
    bidegrees = []
    prev = f0
    for _i in range(1, T.r + 1):
        fi = sylvester_form(l1, l2, prev, P.xnames)
        if not fi:
            raise DegenerateTemplate("chain degenerated to zero")
        if not gb.contains(fi):
            raise RuntimeError("chain form fell outside the Rees ideal")
        forms.append(fi)
        bidegrees.append(P.bidegree(fi))
        prev = fi
    # the chain lies in the Rees ideal, whose Hilbert series bounds that
    # of its ideal; the two are equal exactly when their lead ideals
    # are, and both reduced grevlex bases list them ascending
    weights = (1,) * amb.nvars
    series = (weights, _hilbert_numerator(gb.leads, weights))
    chain = groebner_basis([l1, l2, f0] + forms, ring=amb, series=series)
    return SylvesterChain(tuple(forms), tuple(bidegrees),
                          chain.leads == gb.leads)


# -- the plane quartic construction -----------------------------------


class AppendixData:
    """The base ideal of a 3x2 syzygy matrix of quadrics, the inverse map
    read off the quadrics from the top rows of the 4x3 matrix B, and the
    verdicts tying them to the Rees ideal."""

    __slots__ = ("base", "inverse", "verdicts")

    def __init__(self, base, inverse, verdicts):
        self.base = base
        self.inverse = inverse
        self.verdicts = verdicts

    def __repr__(self):
        return "AppendixData(verdicts %s)" % (self.verdicts,)


def appendix_construct(phi):
    """Run the plane quartic construction on a 3x2 syzygy matrix.

    Entries must be quadrics with no pure-power term; the rows pair with
    the signed minors, so the matrix columns are genuine syzygies.  A
    vanishing quadric q_i is recorded (never raised) since it would
    contradict the construction.
    """
    ring = phi.ring
    if phi.nrows != 3 or phi.ncols != 2:
        raise ValueError("need a 3 x 2 matrix")
    if ring.nvars != 3:
        raise ValueError("need three variables")
    squarefree = [a * b for a, b in combinations(ring.gens, 2)]
    for i in range(3):
        for j in range(2):
            e = phi[i, j]
            if not e:
                continue
            if not e.is_homogeneous() or e.homogeneous_degree() != 2:
                raise ValueError("entry (%d, %d) is not a quadric" % (i, j))
            try:
                _coefficients(e, squarefree, ring)
            except ValueError:
                raise ValueError("pure power term in entry (%d, %d)"
                                 % (i, j)) from None
    base_forms = signed_minors(phi)
    if any(not f for f in base_forms):
        raise ValueError("degenerate syzygy matrix: vanishing maximal minor")
    spec = RationalMapSpec(ring, base_forms)
    base = Ideal(ring, base_forms)
    P = rees_ideal(base)
    amb = P.ambient
    xs = [amb.var(nm) for nm in P.xnames]
    sym = _column_relations(phi, P)
    # rows 1..2 of B: the y-linear coefficient forms of the two columns
    squarefree = [a * b for a, b in combinations(xs, 2)]
    yforms = [_coefficients(s, squarefree, amb) for s in sym]
    (_, b1, c1), (_, b2, c2) = yforms
    brows = (*yforms, (-xs[2], xs[1], amb.zero), (-xs[2], amb.zero, xs[0]))
    # delta_i drops row i of B; minors() drops the last row first
    deltas = FormMatrix(amb, brows).minors(3)[::-1]
    d1, d2, d3, d4 = deltas
    q3, q2, q1 = FormMatrix(amb, yforms).minors(2)
    verdicts = {
        "pure_power_free": True,
        "sym_match": d2 == sym[0] and d1 == sym[1],
        "eq3": b2 * d2 - b1 * d1 == d3 * xs[1],
        "eq4": c2 * d2 - c1 * d1 == -(d4 * xs[0]),
        "q_nonzero": bool(q1) and bool(q2) and bool(q3),
    }
    i3b = Ideal(amb, tuple(deltas))
    verdicts["codim_b"] = i3b.codimension()
    verdicts["rees_match"] = i3b.groebner().polys == P.basis.polys
    yring = PolyRing(P.ynames, ring.field)
    qy = [transfer(q, yring) if q else yring.zero for q in (q1, q2, q3)]
    phi_prime = FormMatrix(yring, ((qy[2], yring.zero),
                                   (yring.zero, -qy[1]),
                                   (-qy[0], -qy[0])))
    inverse = None
    if verdicts["q_nonzero"]:
        verdicts["codim_phi_prime"] = Ideal(
            yring, phi_prime.minors(2)).codimension()
        g = signed_minors(phi_prime)
        verdicts["inverse_gcd_one"] = _coprime([gi for gi in g if gi])
        try:
            d = inversion_factor(spec, g)
        except ValueError:
            verdicts["inverse_ok"] = False
        else:
            scale = ring.field.inv(d.leading_coefficient())
            inverse = tuple(gi * scale for gi in g)
            verdicts["inverse_ok"] = True
            verdicts["inverse_degree"] = max(
                gi.homogeneous_degree() for gi in inverse if gi)
    else:
        verdicts["codim_phi_prime"] = None
        verdicts["inverse_gcd_one"] = False
        verdicts["inverse_ok"] = False
    return AppendixData(base, inverse, verdicts)
