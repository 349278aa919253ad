"""Buchberger engine on packed integer monomials.

Terms are integer keys from rings.PackedOrder, whose numeric comparison
agrees with the term order.  Multiplication then becomes integer
addition up to a constant and divisibility a two-mask borrow test, so
the reduction loop never touches exponent tuples.  One engine serves
ideals and submodules of free modules (keys with a component field,
position over term).  Coefficients stay exact: fraction-free integers
over QQ, residues over Fp.  A run on weighted homogeneous input can be
Hilbert-driven: given a lower bound of the Hilbert series of R/I, it
drops the pairs of every degree that the bound shows complete.
"""

from __future__ import annotations

import heapq
import weakref
from fractions import Fraction
from math import gcd
from operator import mul

from .rings import (DeadlineExceeded, FormMatrix, MonomialOrder, PackedOrder,
                    PolyRing, Polynomial, _primitive_part, _times,
                    check_deadline, deadline, transfer)

__all__ = [
    "DeadlineExceeded",
    "GroebnerBasis",
    "check_deadline",
    "deadline",
    "eliminate",
    "groebner_basis",
    "live_bases",
    "syzygies",
]


class _Elt:
    __slots__ = ("key", "terms", "lc", "tdeg", "sugar", "alive", "idx")

    def __init__(self, key, terms, lc, tdeg, sugar, idx):
        self.key = key
        self.terms = terms
        self.lc = lc
        self.tdeg = tdeg
        self.sugar = sugar
        self.alive = True
        self.idx = idx


def _engine_in(po, poly):
    """Convert to packed integer terms; see rings._primitive_part."""
    enc = po.encode
    return _primitive_part({enc(e): c for e, c in poly.items()},
                           po.ring.field.characteristic)


def _normalize(terms, p):
    """Scale to the canonical representative: monic over Fp, primitive
    integer with positive lead over QQ.  Mutates nothing; returns dict."""
    lead = max(terms)
    if p:
        lc = terms[lead]
        if lc == 1:
            return dict(terms)
        inv = pow(lc, -1, p)
        return {k: v * inv % p for k, v in terms.items()}
    g = 0
    for v in terms.values():
        g = gcd(g, v)
    if terms[lead] < 0:
        g = -g
    if g == 1:
        return dict(terms)
    return {k: v // g for k, v in terms.items()}


def _reduce(fterms, basis, po, p, early=False):
    """Full normal form of fterms against basis (ascending lead keys).

    Mutates fterms to empty.  Returns (out, snum, sden) so the exact
    remainder is (snum/sden) * out over QQ (snum = sden = 1 over Fp), or
    None in early mode as soon as the remainder is known to be nonzero.
    """
    down = po.down
    up = po.up
    guards = po.guards
    out = {}
    snum = sden = 1
    heap = [-k for k in fterms]
    heapq.heapify(heap)
    steps = 0
    while heap:
        k = -heapq.heappop(heap)
        c = fterms.get(k)
        if c is None:
            continue
        g = None
        for cand in basis:
            ck = cand.key
            if ck > k:
                break
            x = (k & down) | (ck & up)
            y = (ck & down) | (k & up)
            if ((x | guards) - y) & guards == guards:
                g = cand
                break
        if g is None:
            if early:
                return None
            del fterms[k]
            out[k] = c
            continue
        if p:
            off = k - g.key
            for kk, cc in g.terms.items():
                nk = kk + off
                v = fterms.get(nk)
                if v is None:
                    nv = -c * cc % p
                    if nv:
                        fterms[nk] = nv
                        heapq.heappush(heap, -nk)
                else:
                    nv = (v - c * cc) % p
                    if nv:
                        fterms[nk] = nv
                    else:
                        del fterms[nk]
        else:
            glc = g.lc
            cg = gcd(c if c > 0 else -c, glc)
            a = glc // cg
            b = c // cg
            if a != 1:
                for kk in fterms:
                    fterms[kk] *= a
                for kk in out:
                    out[kk] *= a
                sden *= a
            off = k - g.key
            for kk, cc in g.terms.items():
                nk = kk + off
                v = fterms.get(nk)
                if v is None:
                    fterms[nk] = -b * cc
                    heapq.heappush(heap, -nk)
                else:
                    nv = v - b * cc
                    if nv:
                        fterms[nk] = nv
                    else:
                        del fterms[nk]
        steps += 1
        if not steps & 255:
            check_deadline()
            if not p:
                g0 = 0
                for v in fterms.values():
                    g0 = gcd(g0, v)
                    if g0 == 1:
                        break
                if g0 > 1:
                    for v in out.values():
                        g0 = gcd(g0, v)
                        if g0 == 1:
                            break
                if g0 > 1:
                    for kk in fterms:
                        fterms[kk] //= g0
                    for kk in out:
                        out[kk] //= g0
                    snum *= g0
    return out, snum, sden


def _spoly(gi, gj, lk, p):
    """S-polynomial of two engine elements over the lcm key lk, with
    fraction-free cofactors over QQ."""
    cg = gcd(gi.lc, gj.lc)
    a = gj.lc // cg
    b = gi.lc // cg
    offi = lk - gi.key
    offj = lk - gj.key
    s = {kk + offi: a * cc for kk, cc in gi.terms.items()}
    for kk, cc in gj.terms.items():
        nk = kk + offj
        nv = s.get(nk, 0) - b * cc
        if p:
            nv %= p
        if nv:
            s[nk] = nv
        elif nk in s:
            del s[nk]
    return s


# -- Hilbert series of monomial ideals --------------------------------


def _series_add(a, b, shift=0, sign=1):
    """The series a + sign * z^shift * b of {degree: coefficient} dicts,
    zero coefficients left out."""
    out = dict(a)
    for d, c in b.items():
        d += shift
        v = out.get(d, 0) + sign * c
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def _monomial_min(gens):
    """Minimal generators, sorted, of the monomial ideal of gens."""
    out = []
    for e in sorted(gens, key=lambda m: (sum(m), m)):
        if not any(all(x <= y for x, y in zip(m, e)) for m in out):
            out.append(e)
    return tuple(sorted(out))


def _hilbert_numerator(gens, weights, cache=None):
    """Numerator N of the Hilbert series N(z) / prod(1 - z^w_i) of R/M,
    M the monomial ideal of the exponent vectors gens and w_i the
    positive weights of the variables; {degree: coefficient}.

    A variable x among the generators gives the factor 1 - z^w(x) and
    takes out every generator it divides.  Pure powers alone give a
    product of such factors.  Otherwise the pivot is the variable x in
    most mixed generators: N(M) = N(M + (x)) + z^w(x) N(M : x) (Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 119 (1997)).
    """
    if cache is None:
        cache = {}
    lin = {e.index(1) for e in gens if sum(e) == 1}
    if lin:
        gens = [e for e in gens if not any(e[i] for i in lin)]
    gens = _monomial_min(gens)
    res = cache.get(gens)
    if res is None:
        if not gens:
            res = {0: 1}
        elif not any(gens[0]):
            res = {}
        else:
            counts = {}
            for e in gens:
                if sum(1 for x in e if x) > 1:
                    for i, x in enumerate(e):
                        if x:
                            counts[i] = counts.get(i, 0) + 1
            if not counts:
                res = {0: 1}
                for e in gens:
                    res = _series_add(res, res, sum(map(mul, e, weights)),
                                      -1)
            else:
                piv = max(counts, key=lambda i: (counts[i], -i))
                colon = [e[:piv] + (e[piv] - 1,) + e[piv + 1:] if e[piv]
                         else e for e in gens]
                plus = [e for e in gens if not e[piv]]
                plus.append(tuple(int(i == piv)
                                   for i in range(len(gens[0]))))
                res = _series_add(_hilbert_numerator(plus, weights, cache),
                                  _hilbert_numerator(colon, weights, cache),
                                  weights[piv])
        cache[gens] = res
    for i in lin:
        res = _series_add(res, res, weights[i], -1)
    return res


class _HilbertBound:
    """Hilbert-function bound of a homogeneous Buchberger run (Traverso,
    "Hilbert functions and the Buchberger algorithm", J. Symbolic Comput.
    22 (1996)).

    num is the numerator, over prod(1 - z^w_i), of the series of R/LT
    minus the target series, LT the ideal of the leads so far; each new
    lead m of degree d updates it by HS(R/(LT + m)) = HS(R/LT) -
    z^d HS(R/(LT : m)).  Its coefficient in degree D, rem, counts the
    leads of degree D still missing at most: a new element of degree D
    lowers it by one, and at 0 the basis is complete in degree D.
    """

    __slots__ = ("weights", "num", "leads", "counts", "deg", "rem")

    def __init__(self, weights, target):
        self.weights = weights
        self.num = _series_add({0: 1}, target, 0, -1)
        self.leads = []
        # counts[e]: monomials of degree e
        self.counts = [1]
        self.deg = None
        self.rem = None

    def add(self, lead, d):
        """Account for a new lead (exponent vector) of degree d."""
        colon = [tuple(a - b if a > b else 0 for a, b in zip(m, lead))
                 for m in self.leads]
        self.num = _series_add(self.num,
                               _hilbert_numerator(colon, self.weights), d, -1)
        self.leads = [m for m in self.leads
                      if not all(a <= b for a, b in zip(lead, m))]
        self.leads.append(lead)
        if d == self.deg and self.rem:
            self.rem -= 1

    def complete(self, d, pairs):
        """Whether the basis is complete in degree d, the degree of a pair
        just taken off pairs; then the pending pairs of degree d are
        dropped.  rem is computed when a new degree has two or more
        pairs; one alone is cheaper to reduce."""
        if d != self.deg:
            self.deg = d
            self.rem = None
            if any(v[0] == d for v in pairs.values()):
                self.rem = self.missing(d)
                if self.rem < 0:
                    raise ValueError("the target Hilbert function exceeds "
                                     "that of the ideal in degree %d" % d)
        if self.rem != 0:
            return False
        for key in [k for k, v in pairs.items() if v[0] == d]:
            del pairs[key]
        return True

    def missing(self, d):
        """HF(R/LT)(d) minus the target's value at d."""
        counts = self.counts
        if len(counts) <= d:
            top = 2 * d
            counts = [1] + [0] * top
            for w in self.weights:
                for e in range(w, top + 1):
                    counts[e] += counts[e - w]
            self.counts = counts
        return sum(c * counts[d - k] for k, c in self.num.items() if k <= d)


class _Engine:
    """Incremental Buchberger state over one PackedOrder.

    Holds the elements, the live view (alive elements sorted by lead
    key), the pending pairs as {(i, j): (sugar, lcm key)} and a heap on
    (sugar, lcm key, i, j).  Elements may be added between runs, so a
    run can stop at a sugar bound and resume later.  With po.rank > 0
    the elements are module elements; pairs across components are never
    formed and the coprime criterion, which only holds for ideals, is
    skipped.

    With a series (weights, numerator), the input is homogeneous for the
    positive weights of the variables, degrees and sugar are weighted,
    and numerator(z) / prod(1 - z^w_i) bounds the Hilbert series of R/I
    from below degree by degree: a _HilbertBound then drops the pairs
    of every degree it shows complete.
    """

    __slots__ = ("po", "p", "ideal", "elts", "live", "dirty", "pairs",
                 "heap", "degree", "bound")

    def __init__(self, po, series=None):
        self.po = po
        self.p = po.ring.field.characteristic
        self.ideal = not po.rank
        self.elts = []
        self.live = []
        self.dirty = False
        self.pairs = {}
        self.heap = []
        if series is None:
            self.degree = po.tdeg
            self.bound = None
        else:
            self.degree = po.grading(series[0])
            self.bound = _HilbertBound(*series)

    def view(self):
        """The alive elements, ascending lead keys."""
        if self.dirty:
            self.live = sorted((g for g in self.elts if g.alive),
                               key=lambda g: g.key)
            self.dirty = False
        return self.live

    def reduce(self, terms):
        """Remainder of terms (consumed) against the live elements."""
        return _reduce(terms, self.view(), self.po, self.p)[0]

    def add(self, terms, sugar):
        """Append a nonzero remainder as a new element and update."""
        terms = _normalize(terms, self.p)
        key = max(terms)
        idx = len(self.elts)
        d = self.degree(key)
        self.elts.append(_Elt(key, terms, terms[key], d, sugar, idx))
        if self.bound is not None:
            self.bound.add(self.po.decode(key), d)
        self.update(idx)

    def update(self, hidx):
        """Gebauer-Moeller: new pairs of element hidx, old pairs pruned.

        A candidate's lcm is dropped when another one divides it.  The
        candidates are sorted by lcm, and a later lcm divides an earlier
        one only when they are equal, so of the later ones only the next
        needs a look."""
        po = self.po
        elts = self.elts
        pairs = self.pairs
        heap = self.heap
        lcmf = po.lcm
        divides = po.divides
        degree = self.degree
        ideal = self.ideal
        key0 = po.key0
        h = elts[hidx]
        lmh = h.key
        cand = []
        for g in elts:
            if g.idx != hidx and g.alive:
                lk = lcmf(lmh, g.key)
                if lk is not None:
                    cand.append((lk, g.idx))
        cand.sort()
        last = len(cand) - 1
        kept = []
        for pos, (lk, gi) in enumerate(cand):
            cop = ideal and lk == lmh + elts[gi].key - key0
            if not cop:
                if pos < last and cand[pos + 1][0] == lk:
                    continue
                if any(divides(l2, lk) for l2, _g, _c in kept):
                    continue
            kept.append((lk, gi, cop))
        for key, (sug, lk) in list(pairs.items()):
            if divides(lmh, lk):
                i, j = key
                if lcmf(elts[i].key, lmh) != lk and lcmf(lmh, elts[j].key) != lk:
                    del pairs[key]
        for lk, gi, cop in kept:
            if cop:
                continue
            g = elts[gi]
            dl = degree(lk)
            sug = max(g.sugar + dl - g.tdeg, h.sugar + dl - h.tdeg)
            pairs[(gi, hidx)] = (sug, lk)
            heapq.heappush(heap, (sug, lk, gi, hidx))
        for g in elts:
            if g.alive and g.idx != hidx and divides(lmh, g.key):
                g.alive = False
        self.dirty = True

    def run(self, upto=None):
        """Process the pairs of sugar at most upto (all when None)."""
        heap = self.heap
        pairs = self.pairs
        elts = self.elts
        p = self.p
        bound = self.bound
        while heap and (upto is None or heap[0][0] <= upto):
            sug, lk, i, j = heapq.heappop(heap)
            if pairs.get((i, j)) != (sug, lk):
                continue
            del pairs[(i, j)]
            check_deadline()
            if bound is not None and bound.complete(sug, pairs):
                continue
            s = _spoly(elts[i], elts[j], lk, p)
            if not s:
                continue
            out = self.reduce(s)
            if out:
                self.add(out, sug)


def _buchberger(seeds, po, series=None):
    """Reduced basis, as packed term dicts, of the (terms, sugar) seeds;
    see _Engine for series."""
    eng = _Engine(po, series)
    for terms, sugar in sorted(seeds, key=lambda s: max(s[0])):
        out = eng.reduce(dict(terms))
        if out:
            eng.add(out, sugar)
    eng.run()
    return _interreduce([g.terms for g in eng.view()], po)


def _elements(dicts, po):
    """Engine elements of nonzero packed term dicts."""
    out = []
    for idx, terms in enumerate(dicts):
        key = max(terms)
        out.append(_Elt(key, terms, terms[key], po.tdeg(key), 0, idx))
    return out


def _interreduce(dicts, po):
    """Reduced basis, as packed term dicts by ascending lead key, of a
    Groebner basis given as term dicts.  An element whose lead is
    divisible by another lead is dropped first (of equal leads the first
    stays); then each tail is reduced by the other elements."""
    divides = po.divides
    final = []
    for g in sorted(_elements(dicts, po), key=lambda g: g.key):
        if not any(divides(h.key, g.key) for h in final):
            final.append(g)
    p = po.ring.field.characteristic
    reduced = []
    for g in final:
        others = [h for h in final if h is not g]
        red = _reduce(dict(g.terms), others, po, p)
        reduced.append(_normalize(red[0], p))
    return reduced


def _minimal_subset(po, cands):
    """Positions of a minimal generating subset of graded candidates.

    cands lists (degree, engine terms), homogeneous for the grading in
    which the sugar of an element is its degree.  Degree by degree, the
    basis of the kept candidates is completed through that degree; a
    pair made with a new degree-d element has sugar above d, so the
    basis stays complete through d while the degree-d candidates are
    tested, in input order.  A candidate is kept when its normal form is
    nonzero.  Returns positions by ascending degree, then input order.
    """
    eng = _Engine(po)
    by_degree = {}
    for pos, (d, _terms) in enumerate(cands):
        by_degree.setdefault(d, []).append(pos)
    kept = []
    for d in sorted(by_degree):
        check_deadline()
        eng.run(upto=d)
        for pos in by_degree[d]:
            out = eng.reduce(dict(cands[pos][1]))
            if out:
                eng.add(out, d)
                kept.append(pos)
    return kept


def _divide_out(gb, i):
    """Basis of I : x_i^inf from a basis gb of a homogeneous ideal I in a
    grevlex order whose smallest variable is x_i (Bayer's trick).

    In such an order x_i divides the lead of a form exactly as often as
    it divides the form, so removing from each element the largest power
    of x_i dividing it gives a basis of the saturation in the same order.
    Dividing a term by x_i^a subtracts a times the weight of x_i from its
    key.  The result is a basis, not necessarily a reduced one.
    """
    po = gb._po
    w = po.weights[i]
    decode = po.decode
    dicts = []
    for g in gb._elts:
        a = min(decode(k)[i] for k in g.terms)
        dicts.append({k - a * w: c for k, c in g.terms.items()}
                     if a else g.terms)
    # the reduction loop wants ascending leads
    dicts.sort(key=max)
    return GroebnerBasis(gb.ring, gb.order, None, po, dicts)


def _colon_exponent(gb, gens, targets):
    """Least s with J^s * K inside the ideal I of the basis gb, where K is
    generated by gens and J by targets, and K lies in I : J^inf.

    W_0 holds the nonzero normal forms modulo gb of the generators of K
    and W_s those of the products f * w, f in targets and w in W_(s-1),
    so W_s generates J^s * K modulo I; s is the first index where W_s is
    empty.  Normal forms are kept as normalized packed terms, duplicates
    once, and every product and reduction stays on packed terms.
    """
    po = gb._po
    p = po.ring.field.characteristic
    elts = gb._elts
    fs = [_engine_in(po, f)[0] for f in targets]
    cur = [_engine_in(po, g)[0] for g in gens]
    s = 0
    while True:
        check_deadline()
        seen = {}
        for terms in cur:
            out = _reduce(terms, elts, po, p)[0]
            if out:
                out = _normalize(out, p)
                seen.setdefault(frozenset(out.items()), out)
        if not seen:
            return s
        cur = [_times(w, f, po) for w in seen.values() for f in fs]
        s += 1


# every basis still referenced somewhere; lets audits certify whatever
# a session is actually relying on
_LIVE_BASES = weakref.WeakSet()


def live_bases():
    """Snapshot of all GroebnerBasis objects currently alive."""
    return tuple(_LIVE_BASES)


def _polynomial(po, terms):
    """The Polynomial of packed terms with engine coefficients."""
    if po.ring.field.characteristic:
        coeffs = {po.decode(k): v for k, v in terms.items()}
    else:
        coeffs = {po.decode(k): Fraction(v) for k, v in terms.items()}
    return Polynomial(po.ring, coeffs)


class GroebnerBasis:
    """Groebner basis supporting exact normal forms; groebner_basis and
    eliminate build reduced ones.  A source of None stands for the basis
    itself."""

    __slots__ = ("ring", "order", "source", "polys", "_po", "_elts",
                 "_leads", "__weakref__")

    def __init__(self, ring, order, source, po, term_dicts):
        _LIVE_BASES.add(self)
        self.ring = ring
        self.order = order
        self._po = po
        self._elts = _elements(term_dicts, po)
        self.polys = tuple(_polynomial(po, terms) for terms in term_dicts)
        self.source = self.polys if source is None else tuple(source)
        self._leads = tuple(po.decode(g.key) for g in self._elts)

    @property
    def leads(self):
        """Leading exponent vectors, ascending in the basis order."""
        return self._leads

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def normal_form(self, f):
        if not isinstance(f, Polynomial) or f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not f or not self._elts:
            return f
        po = self._po
        p = self.ring.field.characteristic
        terms, scale = _engine_in(po, f)
        out, snum, sden = _reduce(terms, self._elts, po, p)
        if not out:
            return self.ring.zero
        if p:
            return Polynomial(self.ring,
                              {po.decode(k): v * scale % p
                               for k, v in out.items() if v * scale % p})
        sc = scale * Fraction(snum, sden)
        return Polynomial(self.ring, {po.decode(k): v * sc for k, v in out.items()})

    def contains(self, f):
        if not isinstance(f, Polynomial) or f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not f:
            return True
        if not self._elts:
            return False
        po = self._po
        terms, _scale = _engine_in(po, f)
        red = _reduce(terms, self._elts, po, self.ring.field.characteristic,
                      early=True)
        return red is not None

    def certify(self):
        """Re-check the Buchberger criterion and source membership."""
        po = self._po
        p = self.ring.field.characteristic
        elts = self._elts
        for i in range(len(elts)):
            for j in range(i + 1, len(elts)):
                check_deadline()
                lk = po.lcm(elts[i].key, elts[j].key)
                s = _spoly(elts[i], elts[j], lk, p)
                if s and _reduce(s, elts, po, p, early=True) is None:
                    return False
        return all(self.contains(f) for f in self.source)


def groebner_basis(gens, order=None, ring=None, *, series=None):
    """Reduced Groebner basis of the given generators.

    series, when given, is (weights, numerator): positive integer weights
    of the ring's variables, for which every generator must be
    homogeneous, and the numerator {degree: coefficient} of a series
    numerator(z) / prod(1 - z^w_i) that is at most the Hilbert series of
    R/I in every degree, such as that series itself.  The run then skips
    the pairs of each degree the bound shows complete (see _Engine); the
    basis is the same.
    """
    gens = [g for g in gens]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for an empty generating set")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    if order is None:
        order = MonomialOrder.grevlex()
    po = PackedOrder(ring, order)
    if series is None:
        seeds = [(_engine_in(po, g)[0], g.degree()) for g in gens if g]
    else:
        weights = tuple(series[0])
        if any(not isinstance(w, int) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        degree = po.grading(weights)
        seeds = []
        for g in gens:
            if g:
                terms = _engine_in(po, g)[0]
                degs = {degree(k) for k in terms}
                if len(degs) != 1:
                    raise ValueError("generators must be homogeneous for "
                                     "the weights")
                seeds.append((terms, degs.pop()))
        series = (weights, series[1])
    return GroebnerBasis(ring, order, gens, po,
                         _buchberger(seeds, po, series))


def eliminate(gens, drop, ring=None, *, series=None):
    """Intersect the ideal with the subring omitting the drop variables.

    Returns (subring, generators): a Groebner basis of the elimination
    ideal transferred into the subring, sorted by its default order.  It
    is the reduced basis in that (grevlex) order, to which the block
    order ((drop), (rest)) restricts.  series goes to groebner_basis.
    """
    gens = [g for g in gens]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for an empty generating set")
        ring = gens[0].ring
    dropset = set(drop)
    for nm in dropset:
        ring.index(nm)
    keep = tuple(nm for nm in ring.names if nm not in dropset)
    if not keep:
        raise ValueError("cannot eliminate every variable")
    if len(keep) == ring.nvars:
        raise ValueError("nothing to eliminate")
    first = tuple(nm for nm in ring.names if nm in dropset)
    order = MonomialOrder.block(first, keep)
    gb = groebner_basis(gens, order=order, ring=ring, series=series)
    blocks = tuple(tuple(nm for nm in b if nm not in dropset)
                   for b in ring.blocks)
    blocks = tuple(b for b in blocks if b)
    sub = PolyRing(keep, ring.field, blocks=blocks or None)
    keepset = set(keep)
    out = [transfer(g, sub) for g in gb.polys
           if all(nm in keepset for nm in g.support())]
    out.sort(key=lambda f: sub._defkey(f.leading_monomial()))
    return sub, tuple(out)


# -- module Groebner bases and syzygies --------------------------------


def _column_shifts(mat):
    """Column degree shifts making every entry graded; raises otherwise."""
    if mat.col_degrees is not None:
        return list(mat.col_degrees)
    r, c = mat.nrows, mat.ncols
    degs = {}
    for i in range(r):
        for j in range(c):
            e = mat[i, j]
            if e:
                degs[(i, j)] = e.homogeneous_degree()
    rho = [None] * r
    delta = [None] * c
    for seed in range(r):
        if rho[seed] is not None or not any((seed, j) in degs for j in range(c)):
            continue
        rho[seed] = 0
        queue = [("r", seed)]
        while queue:
            kind, a = queue.pop()
            if kind == "r":
                for j in range(c):
                    d = degs.get((a, j))
                    if d is None:
                        continue
                    want = rho[a] + d
                    if delta[j] is None:
                        delta[j] = want
                        queue.append(("c", j))
                    elif delta[j] != want:
                        raise ValueError("matrix is not graded")
            else:
                for i in range(r):
                    d = degs.get((i, a))
                    if d is None:
                        continue
                    want = delta[a] - d
                    if rho[i] is None:
                        rho[i] = want
                        queue.append(("r", i))
                    elif rho[i] != want:
                        raise ValueError("matrix is not graded")
    for j in range(c):
        if delta[j] is None:
            delta[j] = 0
    return delta


def syzygies(mat):
    """Minimal generating syzygies of the columns of mat.

    Returns a matrix S with mat @ S = 0 whose columns generate the whole
    column relation module, listed by ascending degree.  The matrix must
    be graded (consistent row and column shifts).
    """
    ring = mat.ring
    field = ring.field
    p = field.characteristic
    r, c = mat.nrows, mat.ncols
    delta = _column_shifts(mat)
    # column j is seeded as (column j, e_{r+j}); the basis elements living
    # in components r.. alone are the relations among the columns
    po = PackedOrder(ring, MonomialOrder.grevlex(), rank=r + c)
    enc = po.encode
    step = po.cstep
    seeds = []
    for j in range(c):
        v = {po.key0 + (r + j) * step: field.coerce(1)}
        for i in range(r):
            for e, cf in mat[i, j].items():
                v[enc(e) + i * step] = cf
        sugar = max((mat[i, j].degree() for i in range(r) if mat[i, j]),
                    default=0)
        seeds.append((_primitive_part(v, p)[0], sugar))
    # descending keys list leads in lower components first, as in
    # position over term; the minimalization keeps the first of
    # equal-degree candidates.  The candidates stay in components r..,
    # where the sugar of a column is its shifted degree.
    graded = []
    for terms in reversed(_buchberger(seeds, po)):
        lead = max(terms)
        if po.component(lead) < r:
            continue
        deg = delta[po.component(lead) - r] + po.tdeg(lead)
        if any(delta[po.component(k) - r] + po.tdeg(k) != deg
               for k in terms):
            raise ValueError("syzygy grading inconsistent")
        graded.append((deg, terms))
    # the engine's canonical scaling (monic over Fp, primitive with a
    # positive lead over QQ) is the column's
    columns = []
    for i in _minimal_subset(po, graded):
        parts = [{} for _ in range(c)]
        for k, cf in graded[i][1].items():
            parts[po.component(k) - r][po.decode(k)] = (
                cf if p else Fraction(cf))
        columns.append([Polynomial(ring, t) for t in parts])
    entries = [[col[j] for col in columns] for j in range(c)]
    return FormMatrix(ring, entries)
