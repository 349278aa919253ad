"""Ideal arithmetic on top of the Groebner layer.

Powers, colon quotients, intersections, saturations, graded minimal
generators, minor ideals and Hilbert series data.  All computations are
exact and deterministic.
"""

from __future__ import annotations

import itertools
import math

from .groebner import (GroebnerBasis, _divide_out, _hilbert_numerator,
                       _interreduce, _minimal_subset, check_deadline,
                       eliminate, groebner_basis)
from .rings import MonomialOrder, PolyRing, Polynomial, _times, transfer

__all__ = ["HilbertData", "Ideal", "minors"]


def _fresh_names(taken, bases, count=1, start=0):
    """count names base<start>, base<start+1>, ... for the first of the
    bases that gives none in taken, else bases[0]_<k>_<i> for the least
    such k."""
    for base in bases:
        names = tuple("%s%d" % (base, i + start) for i in range(count))
        if all(n not in taken for n in names):
            return names
    k = 0
    while True:
        names = tuple("%s_%d_%d" % (bases[0], k, i + start)
                      for i in range(count))
        if all(n not in taken for n in names):
            return names
        k += 1


def _exponent_vectors(m, ell):
    """Exponent vectors of the products of ell of m factors, with
    repetition, in the order of combinations_with_replacement (descending
    lex).  A step is O(m): the rightmost nonzero entry before the last
    moves one unit, and all of the last, to its right."""
    e = [ell] + [0] * (m - 1)
    while m:
        yield tuple(e)
        i = next((i for i in range(m - 2, -1, -1) if e[i]), -1)
        if i < 0:
            return
        e[i] -= 1
        e[i + 1:] = [e[-1] + 1] + [0] * (m - i - 2)


# cache key of the polynomials of a reduced grevlex basis known in advance
_KNOWN_BASIS = "known basis"


def _with_basis(ring, gens, basis):
    """The ideal of gens, given its reduced grevlex basis as polynomials
    ascending by lead, normalized as groebner_basis leaves them; the
    GroebnerBasis is built from them when first asked for."""
    out = Ideal(ring, gens)
    out._cache[_KNOWN_BASIS] = tuple(basis)
    return out


class HilbertData:
    """Hilbert series of R/I as numerator/(1-t)^n plus derived numbers."""

    __slots__ = ("numerator", "dim", "codim", "multiplicity")

    def __init__(self, numerator, dim, codim, multiplicity):
        self.numerator = tuple(numerator)
        self.dim = dim
        self.codim = codim
        self.multiplicity = multiplicity

    def __repr__(self):
        return ("HilbertData(dim=%d, codim=%d, multiplicity=%d)"
                % (self.dim, self.codim, self.multiplicity))

    def __eq__(self, other):
        return (isinstance(other, HilbertData)
                and self.numerator == other.numerator
                and self.dim == other.dim and self.codim == other.codim
                and self.multiplicity == other.multiplicity)


class Ideal:
    """Ideal of a polynomial ring; generators keep their given order."""

    __slots__ = ("ring", "gens", "_cache")

    def __init__(self, ring, gens=()):
        kept = []
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise ValueError("generator from a different ring")
            if g:
                kept.append(g)
        self.ring = ring
        self.gens = tuple(kept)
        self._cache = {}

    # -- basics --------------------------------------------------------

    def groebner(self, order=None):
        key = order if order is not None else MonomialOrder.grevlex()
        gb = self._cache.get(key)
        if gb is None:
            basis = None
            if key == MonomialOrder.grevlex():
                basis = self._cache.pop(_KNOWN_BASIS, None)
            if basis is None:
                gb = groebner_basis(list(self.gens), order=key, ring=self.ring)
            else:
                gb = GroebnerBasis(self.ring._packed, self.gens,
                                   [g._t for g in basis])
            self._cache[key] = gb
        return gb

    def contains(self, f):
        return self.groebner().contains(f)

    def contains_ideal(self, other):
        gb = self.groebner()
        return all(gb.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.groebner().contains(self.ring.one)

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            return NotImplemented
        if self.gens == other.gens:
            return True
        return self.groebner().polys == other.groebner().polys

    def __repr__(self):
        return "Ideal(%s; %d gens)" % (self.ring, len(self.gens))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Ideal(self.ring, tuple(other * g for g in self.gens))
        self._check(other)
        return self._from_products(itertools.product(self.gens, other.gens))

    __rmul__ = __mul__

    def power(self, ell):
        if not isinstance(ell, int) or ell < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if ell == 0:
            return Ideal(self.ring, (self.ring.one,))
        if ell == 1:
            return self
        # products of powers, each of which checks its degree first
        return self._from_products(
            [g if e == 1 else g ** e for g, e in zip(self.gens, exps) if e]
            for exps in _exponent_vectors(len(self.gens), ell))

    def _from_products(self, factor_lists):
        """The ideal of the products of the factor lists, minimalized when
        homogeneous; the deadline is checked before each product."""
        prods = []
        for factors in factor_lists:
            check_deadline()
            prods.append(math.prod(factors))
        out = Ideal(self.ring, prods)
        if out.is_homogeneous():
            return Ideal(self.ring, out.minimal_generators())
        return out

    def _check(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise ValueError("ideals live in different rings")

    # -- quotients and intersections -----------------------------------

    def intersect(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, ())
        ring = self.ring
        w, = _fresh_names(ring.names, ("_w",))
        aux = PolyRing((w,) + ring.names, ring.field)
        tw = aux.var(w)
        one = aux.one
        gens = [tw * transfer(f, aux) for f in self.gens]
        gens += [(one - tw) * transfer(f, aux) for f in other.gens]
        _sub, out = eliminate(gens, [w], ring=aux)
        return Ideal(ring, tuple(transfer(p, ring) for p in out))

    def quotient(self, other):
        """Colon ideal self : other for an ideal or a single polynomial."""
        ring = self.ring
        if isinstance(other, Polynomial):
            if other.ring != ring:
                raise ValueError("polynomial from a different ring")
            if not other:
                return Ideal(ring, (ring.one,))
            inter = self.intersect(Ideal(ring, (other,)))
            quots = tuple(g.exact_divide(other).normalized()
                          for g in inter.gens)
            return Ideal(ring, quots)
        self._check(other)
        acc = None
        for f in other.gens:
            check_deadline()
            q = self.quotient(f)
            acc = q if acc is None else acc.intersect(q)
        if acc is None:
            return Ideal(ring, (ring.one,))
        return acc

    def saturate(self, other):
        """Saturation K = self : other^inf and whether it is larger than
        self; other is an ideal or one polynomial.

        K is the intersection of the saturations K_f = self : f^inf by
        the generators f of other (_saturation), built in one loop that
        takes them in reverse order: K_f is skipped when K lies in it,
        becomes K when it lies in K, and is otherwise intersected with K.
        For a homogeneous ideal and the irrelevant ideal m (the
        variables, in any order) the last variable goes first, as its
        K_f comes from self's own grevlex basis, and the loop stops at
        the first K that the lead sets certify: K contains self : m^inf
        and lies in it exactly when K/self has finite length, which the
        leads of K and of self in K's order decide (_failing_variables).
        The variables a failed certificate names go next, ascending,
        then the rest.
        Returns (self, False) when every generator of K lies in self.
        Otherwise (K, True), K as its reduced grevlex basis by ascending
        lead key, except for a single f with two or more terms: then the
        reduced basis of f*K divided by f, as self.quotient(f) lists a
        colon by f.
        """
        ring = self.ring
        if isinstance(other, Polynomial):
            if other.ring != ring:
                raise ValueError("polynomial from a different ring")
            targets = (other,) if other else ()
        else:
            self._check(other)
            targets = other.gens
        certify = self.is_homogeneous() and set(targets) == set(ring.gens)
        todo = ([ring.gens[-1]] + list(ring.gens[:-1]) if certify
                else list(reversed(targets)))
        k = None
        named = ()
        while todo:
            check_deadline()
            f = min(todo, key=lambda g: g not in named)
            todo.remove(f)
            kf = self._saturation(f)
            if k is not None and _inside(k, kf):
                continue
            if k is None or _inside(kf, k):
                k = kf
            else:
                both = Ideal(ring, k.polys).intersect(Ideal(ring, kf.polys))
                k = GroebnerBasis(ring._packed, None,
                                  [g._t for g in both.gens])
            if certify:
                named = {ring.gens[i] for i in _failing_variables(
                    k.leads, self.groebner(k.order).leads, ring.nvars)}
                if not named:
                    break
        if k is None:
            # no target: the whole ring
            k = GroebnerBasis(ring._packed, None, [ring.one._t])
        if all(map(self.groebner().contains, k.polys)):
            return self, False
        gens = _reduced_grevlex(k)
        if len(targets) == 1 and len(targets[0]) > 1:
            gens = _divided_form(gens, targets[0])
        return Ideal(ring, gens), True

    def _saturation(self, f):
        """Groebner basis of self : f^inf, in the order that found it.

        For a homogeneous ideal and a term f, Bayer's trick once per
        variable of f (a term's saturation is the iterated one by its
        variables): a basis in the grevlex order with that variable last,
        divided by the variable's largest powers.  The first variable's
        step is the saturation by that variable, from the ideal's basis
        in that order, both kept in the cache.  Otherwise t is
        eliminated from (self, 1 - t*f).  The basis is kept in the
        ideal's cache and shared with later calls.
        """
        key = ("saturation", f)
        gb = self._cache.get(key)
        if gb is not None:
            return gb
        ring = self.ring
        if len(f) == 1 and self.is_homogeneous():
            (exps, _c), = f.items()
            gb = None
            for i, x in enumerate(exps):
                if not x:
                    continue
                check_deadline()
                if gb is None and f != ring.gens[i]:
                    gb = self._saturation(ring.gens[i])
                    continue
                order = _grevlex_last(ring, i)
                gb = _divide_out(
                    self.groebner(order) if gb is None else
                    groebner_basis(list(gb.polys), order=order, ring=ring),
                    i)
            if gb is None:
                gb = self.groebner()
        else:
            t, = _fresh_names(ring.names, ("_t",))
            aux = PolyRing((t,) + ring.names, ring.field)
            gens = [transfer(g, aux) for g in self.gens]
            gens.append(aux.one - aux.var(t) * transfer(f, aux))
            _sub, out = eliminate(gens, [t], ring=aux)
            gb = GroebnerBasis(ring._packed, None,
                               [transfer(g, ring)._t for g in out])
        self._cache[key] = gb
        return gb

    # -- graded structure ----------------------------------------------

    def minimal_generators(self):
        """Minimal homogeneous generators, ascending degree, stable order."""
        gens = [g.normalized() for g in self.gens]
        if not gens:
            return ()
        if any(not g.is_homogeneous() for g in gens):
            raise ValueError("minimal generators need a homogeneous ideal")
        cands = [(g.homogeneous_degree(), g._t) for g in gens]
        return tuple(gens[i] for i in _minimal_subset(self.ring._packed,
                                                      cands))

    def hilbert(self):
        """Hilbert series data of R/I from the leading-term ideal."""
        ring = self.ring
        n = ring.nvars
        if any(not g.is_homogeneous() for g in self.gens):
            raise ValueError("Hilbert series needs a homogeneous ideal")
        leads = self.groebner().leads
        if any(sum(e) == 0 for e in leads):
            return HilbertData((), -1, n + 1, 0)
        num, codim, mult = _series_data(leads, n)
        numer = tuple(num.get(d, 0) for d in range(max(num) + 1)) if num else ()
        return HilbertData(numer, n - codim, codim, mult)

    def codimension(self):
        """Codimension via the leading-term ideal; no homogeneity needed."""
        leads = self.groebner().leads
        if any(sum(e) == 0 for e in leads):
            return self.ring.nvars + 1
        return _series_data(leads, self.ring.nvars)[1]


def _grevlex_last(ring, i):
    """The grevlex order whose smallest variable is the i-th."""
    names = ring.names
    if i == len(names) - 1:
        return MonomialOrder.grevlex()
    return MonomialOrder.grevlex(names[:i] + names[i + 1:] + (names[i],))


def _inside(small, big):
    """Whether the ideal of the basis small lies in that of big."""
    return all(big.contains(g) for g in small.polys)


def _reduced_grevlex(gb):
    """The reduced grevlex basis of the ideal of gb, ascending."""
    if gb.order != MonomialOrder.grevlex():
        return groebner_basis(list(gb.polys), ring=gb.ring).polys
    ring = gb.ring
    return tuple(Polynomial(ring, t, ring._unit) for t in
                 _interreduce([g.terms for g in gb._elts], gb._po))


def _divided_form(basis, f):
    """The reduced basis of f*K divided by f, for the reduced grevlex
    basis of K: the products f*g form a basis of f*K with the leads of
    the g times that of f, so interreducing them is all it takes."""
    ring = f.ring
    po = ring._packed
    prods = _interreduce([_times(g._t, f._t, po) for g in basis], po)
    return tuple(Polynomial(ring, t, ring._unit).exact_divide(f).normalized()
                 for t in prods)


def minors(mat, k):
    """Ideal of k x k minors of a form matrix, minimalized."""
    vals = mat.minors(k)
    out = Ideal(mat.ring, tuple(vals))
    if out.is_homogeneous() and out.gens:
        return Ideal(mat.ring, out.minimal_generators())
    return out


def _one_minus_t_part(q, most):
    """(k, q / (1-t)^k) for the numerator q, {degree: coefficient}, and
    the largest k up to most for which 1-t divides it k times."""
    k = 0
    while q and k < most and not sum(q.values()):
        nq = {}
        acc = 0
        for d in range(max(q) + 1):
            acc += q.get(d, 0)
            if acc:
                nq[d] = acc
        q = nq
        k += 1
    return k, q


def _failing_variables(leads, other, n):
    """The indices i, ascending, for which some lead u of an ideal K
    containing I times no power of x_i lies in in(I), for the leads
    (other) of I in the same order.  There are none exactly when
    in(K)/in(I) has finite length, and then so has K/I, which has the
    same Hilbert function.  u times a power of x_i lies in in(I) when
    some lead of I divides u with the exponent of x_i ignored."""
    out = set()
    for u in leads:
        pushed = set()
        for v in other:
            over = [i for i, (a, b) in enumerate(zip(v, u)) if a > b]
            if not over:
                break
            if len(over) == 1:
                pushed.add(over[0])
        else:
            out.update(i for i in range(n) if i not in pushed)
            if len(out) == n:
                break
    return sorted(out)


def _series_data(leads, n):
    """Numerator, (1-t)-multiplicity and residual value for a lead set in
    n variables."""
    num = _hilbert_numerator(leads, (1,) * n)
    codim, q = _one_minus_t_part(num, n)
    mult = sum(q.values()) if q else 0
    return num, codim, mult
