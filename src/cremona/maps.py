"""Birationality testing and inverse extraction for rational maps of P^n.

The inverse of a Cremona map is read off from the syzygies of the
Jacobian dual of its Rees presentation; a candidate syzygy column is
accepted once the composition g_i(f) = x_i * D holds with one common
factor D.  A product-based projective comparison is kept as an
independent oracle.
"""

from __future__ import annotations

from .groebner import check_deadline, syzygies
from .ideals import Ideal
from .rees import jacobian_dual, rees_ideal
from .rings import NotDivisibleError, Polynomial

__all__ = ["InverseData", "RationalMapSpec", "check_graph_identification",
           "inversion_factor", "invert", "is_birational",
           "plane_composition_oracle"]


class RationalMapSpec:
    """Rational map given by a representative of equal-degree forms.

    The representative must have no fixed part: the gcd of the forms is a
    unit.  Forms may include zeros (the map then misses coordinates) but
    not all of them.
    """

    __slots__ = ("ring", "forms", "degree")

    def __init__(self, ring, forms):
        forms = tuple(forms)
        if not forms or all(not f for f in forms):
            raise ValueError("need at least one nonzero form")
        degs = set()
        for f in forms:
            if not isinstance(f, Polynomial) or f.ring != ring:
                raise ValueError("form from a different ring")
            if not f:
                continue
            if not f.is_homogeneous():
                raise ValueError("representatives must be forms")
            degs.add(f.homogeneous_degree())
        if len(degs) != 1:
            raise ValueError("representatives must share one degree")
        d = degs.pop()
        if d < 1:
            raise ValueError("constant representatives define no map")
        g = _poly_gcd_list([f for f in forms if f])
        if g.degree() > 0:
            raise ValueError("representatives share a common factor")
        self.ring = ring
        self.forms = forms
        self.degree = d

    @classmethod
    def from_ideal(cls, I):
        return cls(I.ring, I.gens)

    def base_ideal(self):
        return Ideal(self.ring, self.forms)

    def is_square(self):
        return len(self.forms) == self.ring.nvars

    def __repr__(self):
        return ("RationalMapSpec(%d forms of degree %d on %s)"
                % (len(self.forms), self.degree, self.ring))


class InverseData:
    """Inverse representative plus its inversion factor.

    Satisfies g_i(f) = x_i * D with deg D = d*d' - 1; D is normalized to
    leading coefficient 1 and the g_i are scaled to match.
    """

    __slots__ = ("inverse", "factor", "degree", "yring", "presentation")

    def __init__(self, inverse, factor, degree, yring, presentation):
        self.inverse = inverse
        self.factor = factor
        self.degree = degree
        self.yring = yring
        self.presentation = presentation

    def __repr__(self):
        return ("InverseData(degree %d, factor %s)"
                % (self.degree, self.factor))


def _poly_gcd(a, b):
    if not a:
        return b.normalized()
    if not b:
        return a.normalized()
    ring = a.ring
    inter = Ideal(ring, (a,)).intersect(Ideal(ring, (b,)))
    lcm = inter.gens[0]
    return (a * b).exact_divide(lcm).normalized()


def _poly_gcd_list(polys):
    acc = polys[0]
    for f in polys[1:]:
        if acc.degree() == 0:
            break
        acc = _poly_gcd(acc, f)
    return acc


def _compose(candidate, F):
    """Evaluate y-forms at the representative, landing in the source ring."""
    images = dict(zip(candidate[0].ring.names, F.forms))
    return [g.substitute(images, ring=F.ring) if g else F.ring.zero
            for g in candidate]


def _factor_from(comp, F):
    """Common quotient D with comp[i] = x_i * D, or None."""
    xs = F.ring.gens
    d = None
    for i, h in enumerate(comp):
        check_deadline()
        if not h:
            return None
        try:
            q = h.exact_divide(xs[i])
        except NotDivisibleError:
            return None
        if d is None:
            d = q
        elif q != d:
            return None
    return d


def invert(F, bound=None, all_candidates=False):
    """Inverse data of a square map, or None when no candidate passes.

    Minimal syzygies of the Jacobian dual are tried in increasing degree;
    bound caps the candidate degree (no cap by default).  With
    all_candidates=True, returns the tuple of every passing candidate of
    the first passing degree.
    """
    if not F.is_square():
        raise ValueError("inverse extraction needs a square map")
    if any(not f for f in F.forms):
        return () if all_candidates else None
    P = rees_ideal(Ideal(F.ring, F.forms))
    try:
        psi = jacobian_dual(P)
    except ValueError:
        return () if all_candidates else None
    S = syzygies(psi.matrix)
    yring = psi.matrix.ring
    cols = []
    for j in range(S.ncols):
        col = tuple(S[i, j] for i in range(S.nrows))
        deg = max(g.homogeneous_degree() for g in col if g)
        cols.append((deg, j, col))
    cols.sort(key=lambda t: (t[0], t[1]))
    found = []
    found_deg = None
    for deg, _j, col in cols:
        if bound is not None and deg > bound:
            break
        if found_deg is not None and deg > found_deg:
            break
        comp = _compose(col, F)
        d = _factor_from(comp, F)
        if d is None:
            continue
        lc = d.leading_coefficient()
        inv = F.ring.field.inv(lc)
        data = InverseData(tuple(g * inv for g in col), d * inv,
                           deg, yring, P)
        if not all_candidates:
            return data
        found.append(data)
        found_deg = deg
    if all_candidates:
        return tuple(found)
    return None


def is_birational(F):
    """Whether a square map is birational; use invert for the witness."""
    return invert(F) is not None


def inversion_factor(F, G):
    """The common factor D with g_i(f) = x_i * D, exactly as given.

    G is an inverse representative in the y-ring; raises when the
    quotients disagree or division fails.
    """
    comp = _compose(tuple(G), F)
    d = _factor_from(comp, F)
    if d is None:
        raise ValueError("candidate fails the composition check")
    return d


def plane_composition_oracle(F, G):
    """Projective identity g_i(f)*x_j = g_j(f)*x_i, checked by products."""
    comp = _compose(tuple(G), F)
    if all(not h for h in comp):
        return False
    xs = F.ring.gens
    n = len(comp)
    for i in range(n):
        for j in range(i + 1, n):
            check_deadline()
            if comp[i] * xs[j] != comp[j] * xs[i]:
                return False
    return True


def check_graph_identification(I, J):
    """Whether the Rees ideals of two square maps match after swapping
    the x- and y-blocks."""
    P = rees_ideal(I)
    Q = rees_ideal(J)
    if (len(P.xnames) != len(Q.ynames)
            or len(P.ynames) != len(Q.xnames)):
        return False
    amb = P.ambient
    images = {}
    for n1, n2 in zip(Q.xnames, P.ynames):
        images[n1] = amb.var(n2)
    for n1, n2 in zip(Q.ynames, P.xnames):
        images[n1] = amb.var(n2)
    swapped = [g.substitute(images, ring=amb) for g in Q.generators]
    gb = P.ideal.groebner()
    if not all(gb.contains(g) for g in swapped):
        return False
    back = Ideal(amb, tuple(swapped))
    gbb = back.groebner()
    return all(gbb.contains(g) for g in P.generators)
