"""Symbolic powers and the expected form of the symbolic Rees algebra.

Symbolic powers are computed as saturations of ordinary powers against a
configurable target (the irrelevant ideal by default, a user ideal or a
single user element otherwise).  On top of the resulting filtration sit
the condition diagnostics, fresh and essential generator detection, the
expected-form check and presentations of the two-generator symbolic
algebra.
"""

from __future__ import annotations

from .groebner import _minimal_forms, check_deadline
from .ideals import Ideal, _fresh_names
from .rees import rees_ideal
from .rings import PolyRing, Polynomial, transfer

__all__ = ["SaturationTarget", "SymbolicFiltration", "condition_i",
           "expected_form_check", "grade_two_check", "symbolic_presentation"]

DEFAULT_LMAX = 4


class SaturationTarget:
    """What ordinary powers get saturated against."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload=None):
        if kind not in ("irrelevant-ideal", "user-ideal", "user-element"):
            raise ValueError("unknown target kind %r" % kind)
        self.kind = kind
        self.payload = payload

    @classmethod
    def irrelevant(cls):
        return cls("irrelevant-ideal")

    @classmethod
    def ideal(cls, J):
        if not isinstance(J, Ideal) or J.is_zero() or J.is_unit():
            raise ValueError("target must be a nonzero proper ideal")
        return cls("user-ideal", J)

    @classmethod
    def element(cls, f):
        if (not isinstance(f, Polynomial) or not f
                or not f.is_homogeneous() or f.homogeneous_degree() < 1):
            raise ValueError("target element must be a nonconstant form")
        return cls("user-element", f)

    def __repr__(self):
        return "SaturationTarget(%s)" % self.kind


class SymbolicFiltration:
    """Levels of the symbolic filtration of a base ideal, cached.

    The target is resolved once, at construction, into what every level
    is saturated against: the irrelevant ideal, the user ideal or the
    user element, which must lie in the base ring.  A user-element
    target must also be a nonzerodivisor modulo the saturated base ideal.
    """

    __slots__ = ("base", "target", "_against", "_powers", "_levels",
                 "_mins", "_fresh")

    def __init__(self, base, target=None):
        if not isinstance(base, Ideal) or base.is_zero() or base.is_unit():
            raise ValueError("base must be a nonzero proper ideal")
        if not base.is_homogeneous():
            raise ValueError("base must be homogeneous")
        ring = base.ring
        self.base = base
        self.target = target if target is not None else SaturationTarget.irrelevant()
        self._powers = {1: base}
        self._levels = {}
        self._mins = {}
        self._fresh = {}
        if self.target.kind == "irrelevant-ideal":
            self._against = Ideal(ring, ring.gens)
            return
        self._against = f = self.target.payload
        if f.ring != ring:
            raise ValueError("target %s from a different ring" % (
                "ideal" if self.target.kind == "user-ideal" else "element"))
        if self.target.kind == "user-element":
            sat, _ = base.saturate(Ideal(ring, ring.gens))
            # sat : f = sat exactly when sat : f^inf = sat
            if sat.saturate(f)[1]:
                raise ValueError(
                    "target element is a zerodivisor on the saturated base")

    def power(self, ell):
        got = self._powers.get(ell)
        if got is None:
            got = self.base.power(ell)
            self._powers[ell] = got
        return got

    def level(self, ell):
        """The saturated power at level ell."""
        if ell < 1:
            raise ValueError("levels start at 1")
        got = self._levels.get(ell)
        if got is None:
            # the level and whether it is larger than the power
            got = self.power(ell).saturate(self._against)
            self._levels[ell] = got
        return got[0]

    def grew(self, ell):
        """Whether the level at ell is larger than the power."""
        self.level(ell)
        return self._levels[ell][1]

    def minimal(self, ell):
        got = self._mins.get(ell)
        if got is None:
            got = self.level(ell).minimal_generators()
            self._mins[ell] = got
        return got

    def _survivors(self, ell, seeds):
        """Minimal module generators of the level modulo the ideal of the
        seeds: one graded minimalization of the seeds followed by the
        level's generators, normalized, of which the kept ones are
        returned.  Within a degree the seeds come first, so a generator
        is kept when it is outside the seeds plus those kept before it.
        A generator that the level's own minimalization would drop lies
        in the ideal of the generators before it, so it is dropped here
        too: the kept ones are those of a pass over the minimal ones."""
        gens = tuple(g.normalized() for g in self.level(ell).gens)
        forms = tuple(seeds) + gens
        n = len(forms) - len(gens)
        return tuple(gens[i - n] for i in _minimal_forms(self.base.ring, forms)
                     if i >= n)

    def fresh(self, ell):
        """Minimal module generators of level/power (_survivors)."""
        if ell not in self._fresh:
            self._fresh[ell] = self._survivors(ell, self.power(ell).gens)
        return self._fresh[ell]

    def essential(self, ell):
        """Minimal module generators of the level modulo all products of
        complementary lower levels (s and ell - s give the same ones)."""
        prods = []
        for s in range(1, ell // 2 + 1):
            check_deadline()
            prods.extend(a * b for a in self.minimal(s)
                         for b in self.minimal(ell - s))
        return self._survivors(ell, prods)


def condition_i(F, lmax):
    """Whether each level/power quotient of the filtration F is zero or
    irrelevant-primary, for the levels 1 to lmax: a map from each level
    to "ZERO", "PRIMARY" or "FAILS:<witness variable>".

    The quotient is zero when the saturation of the power did not grow.
    Otherwise a variable x lies in the radical of power : level exactly
    when level lies in power : x^inf, one saturation per variable; the
    first variable of the ring that fails is the witness.  For the
    irrelevant ideal as target no saturation is needed: the level is
    power : m^inf, which lies in power : x^inf for every variable x, so
    a nonzero quotient is PRIMARY by definition.
    """
    if lmax < 1:
        raise ValueError("lmax must be at least 1")
    out = {}
    for ell in range(1, lmax + 1):
        check_deadline()
        if not F.grew(ell):
            out[ell] = "ZERO"
            continue
        witness = None
        if F.target.kind != "irrelevant-ideal":
            power, level = F.power(ell), F.level(ell)
            witness = next((x for x in F.base.ring.gens
                            if not all(map(power._saturation(x).contains,
                                           level.gens))), None)
        out[ell] = "PRIMARY" if witness is None else "FAILS:%s" % witness
    return out


def expected_form_check(F, D, dprime, lmax=DEFAULT_LMAX):
    """Level-by-level test of level(ell) = sum_j D^j * power(ell - j*d')
    on the filtration F, for the levels 1 to lmax: None when D is not in
    level(d'), else a map from each level to whether it holds.  Given D
    in level(d') the right side lies in the level (level(a) * level(b)
    lies in level(a + b)) and holds the power, so a level holds when its
    fresh generators lie in the right side."""
    if dprime < 1:
        raise ValueError("the factor weight must be positive")
    ring = F.base.ring
    if D.ring != ring or not D or not D.is_homogeneous():
        raise ValueError("factor must be a nonzero form of the base ring")
    if not F.level(dprime).contains(D):
        return None
    levels = {}
    for ell in range(1, lmax + 1):
        check_deadline()
        fresh = F.fresh(ell)
        if not fresh:
            levels[ell] = True
            continue
        rhs_gens = []
        j = 0
        dj = ring.one
        while j * dprime <= ell:
            rest = ell - j * dprime
            if rest == 0:
                rhs_gens.append(dj)
            else:
                rhs_gens.extend(dj * g for g in F.power(rest).gens)
            j += 1
            dj = dj * D
        levels[ell] = all(map(Ideal(ring, tuple(rhs_gens)).contains, fresh))
    return levels


def symbolic_presentation(I, G):
    """The ideal (Rees presentation, {x_i*z - g_i(y)}) in k[x, y, z1],
    the presentation given by its reduced basis.

    Ambient naming matches subalgebra_presentation(I, [(D, w)]) so the
    two routes can be compared by mutual membership.
    """
    P = rees_ideal(I)
    amb = P.ambient
    G = tuple(G)
    if len(G) != len(P.xnames):
        raise ValueError("inverse representative has the wrong length")
    zname, = _fresh_names(amb.names, ("z", "Z", "u"), start=1)
    ring2 = PolyRing(amb.names + (zname,), amb.field)
    z = ring2.var(zname)
    gens = [transfer(g, ring2) for g in P.basis.polys]
    for xn, gi in zip(P.xnames, G):
        gens.append(ring2.var(xn) * z - transfer(gi, ring2))
    return Ideal(ring2, tuple(gens))


def grade_two_check(presentation, elements):
    """Grade >= 2 of the variable ideal on the presented quotient, via a
    supplied length-two regular sequence."""
    a, b = elements
    # X : f = X exactly when X : f^inf = X
    if presentation.saturate(a)[1]:
        return False
    bigger = presentation + Ideal(presentation.ring, (a,))
    return not bigger.saturate(b)[1]
