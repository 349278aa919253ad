"""Buchberger engine on packed integer monomials.

Terms are integer keys from rings.PackedOrder, whose numeric comparison
agrees with the term order.  Multiplication then becomes integer
addition up to a constant and divisibility a two-mask borrow test, so
the reduction loop never touches exponent tuples.  One engine serves
ideals and submodules of free modules (keys with a component field,
position over term).  Coefficients stay exact: one fraction-free
reduction step serves both fields, over Fp taking residues as it reads
terms, and an element is normalized once, as the engine adds it (see
_normalize); an interreduction reduces only the tails that another
lead divides a term of (see _interreduce).  A Polynomial stores the
same terms in its ring's grevlex order, so other orders cost one key
remap each way.  A run on weighted homogeneous input can be
Hilbert-driven: given a lower bound of the Hilbert series of R/I, it
drops the pairs of every degree that the bound shows complete.
Elimination and syzygies finish only the elements they keep, those
with leads free of the dropped variables or in the relation components
(see _Engine); elimination returns its reduced basis as a GroebnerBasis
of the subring.  Two monomial ideals intersect by the lcms of their
generator pairs, with no engine run.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import mul

from .rings import (_GUARD, _MAXF, _W, DeadlineExceeded, FormMatrix,
                    MonomialOrder, PolyRing, Polynomial, _canonical,
                    _packed_order, _primitive, check_deadline, deadline)

__all__ = [
    "DeadlineExceeded",
    "GroebnerBasis",
    "check_deadline",
    "deadline",
    "eliminate",
    "groebner_basis",
    "syzygies",
]


class _Elt:
    """An engine element: lead key, terms, lead coefficient, degree and
    sugar in the run's grading, and over, by how much the top total
    degree of its terms exceeds that of its lead (0 in a graded order)."""

    __slots__ = ("key", "terms", "lc", "tdeg", "sugar", "over", "alive",
                 "idx")

    def __init__(self, key, terms, tdeg, sugar, idx, po):
        self.key = key
        self.terms = terms
        self.lc = terms[key]
        self.tdeg = tdeg
        self.sugar = sugar
        self.over = 0 if po.graded else max(map(po.tdeg, terms)) - po.tdeg(key)
        self.alive = True
        self.idx = idx


def _check_multiple(po, k, g):
    """Reject the multiple of g with lead key k when a term of it would
    pass the degree limit and overflow a field."""
    d = po.tdeg(k) + g.over
    if d > _MAXF:
        raise ValueError("total degree %d exceeds the limit %d" % (d, _MAXF))


def _terms(po, f):
    """f's terms on the keys of po, without its scale: its own dict (read
    only) when po packs as its ring's order does, else one key remap."""
    conv = f.ring._packed.remap(po)
    if conv is None:
        return f._t
    return {conv(k): c for k, c in f._t.items()}


def _poly(ring, po, terms, scale):
    """The Polynomial scale * terms of ring, terms on the keys of po."""
    conv = po.remap(ring._packed)
    if conv is not None:
        terms = {conv(k): c for k, c in terms.items()}
    return _canonical(ring, terms, scale)


def _normalize(terms, p):
    """The canonical multiple of nonzero terms: primitive with a positive
    lead over QQ, which may be the same dict; over Fp, where the terms
    may be any integers, monic residues without zeros."""
    if not p:
        return _primitive(terms)[1]
    inv = pow(terms[max(terms)], -1, p)
    return {k: r for k, v in terms.items() if (r := v * inv % p)}


# the deadline is checked every 256 reduction steps and whenever the
# work since the last check reaches _STEP_WORK: a step costs about its
# reducer's length times the 64-bit words of the coefficient it cancels
_STEP_WORK = 4096


def _reduce(fterms, basis, po, p, keep=None):
    """Normal form of fterms against basis (ascending lead keys) up to a
    nonzero factor, by one fraction-free step for both fields.  Over Fp
    a coefficient is taken mod p when its term is read, the basis is
    monic, and every 256 steps the remainder is taken mod p, where over
    QQ its content is divided out.  keep, when given, is a predicate on
    keys: a remainder whose lead is irreducible and not kept is returned
    at once as fterms itself, its tail unreduced (and over Fp not taken
    mod p); a membership test keeps nothing.  Otherwise fterms is
    mutated to empty and the normal form holds residues over Fp.
    """
    down = po.down
    up = po.up
    guards = po.guards
    out = {}
    heap = [-k for k in fterms]
    heapq.heapify(heap)
    steps = 0
    # work since the last deadline check
    work = 0
    while heap:
        k = -heapq.heappop(heap)
        c = fterms.get(k)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                del fterms[k]
                continue
            fterms[k] = c
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
            if keep is not None and not out and not keep(k):
                return fterms
            del fterms[k]
            out[k] = c
            continue
        if g.over:
            _check_multiple(po, k, g)
        glc = g.lc
        cg = gcd(c if c > 0 else -c, glc)
        a = glc // cg
        b = c // cg
        if a != 1:
            for kk in fterms:
                fterms[kk] *= a
            for kk in out:
                out[kk] *= a
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
        work += len(g.terms) * (1 + (c.bit_length() >> 6))
        if not steps & 255 or work >= _STEP_WORK:
            work = 0
            check_deadline()
            if p and not steps & 255:
                for kk in fterms:
                    fterms[kk] %= p
            elif not steps & 255:
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
    return out


def _spoly(gi, gj, lk, po):
    """S-polynomial of two engine elements over the lcm key lk, with
    fraction-free cofactors over QQ; over Fp both are monic and the
    coefficients lie in (-p, p)."""
    for g in (gi, gj):
        if g.over:
            _check_multiple(po, lk, g)
    cg = gcd(gi.lc, gj.lc)
    a = gj.lc // cg
    b = gi.lc // cg
    offi = lk - gi.key
    offj = lk - gj.key
    s = {kk + offi: a * cc for kk, cc in gi.terms.items()}
    for kk, cc in gj.terms.items():
        nk = kk + offj
        nv = s.get(nk, 0) - b * cc
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


def _lcm_sum(gens, weights):
    """The sum over the subsets S of gens of (-1)^|S| z^deg lcm(S), the
    numerator of R/M by inclusion-exclusion; {} for the unit ideal.  The
    lcm of S and a generator e differs from lcm(S) only on the support
    of e, and so does its degree."""
    subsets = [((0,) * len(weights), 0, 1)]
    for e in gens:
        support = [(i, x, weights[i]) for i, x in enumerate(e) if x]
        more = []
        for m, d, s in subsets:
            m = list(m)
            for i, x, w in support:
                if x > m[i]:
                    d += w * (x - m[i])
                    m[i] = x
            more.append((m, d, -s))
        subsets += more
    res = {}
    for _m, d, s in subsets:
        res[d] = res.get(d, 0) + s
    return {d: c for d, c in res.items() if c}


def _hilbert_numerator(gens, weights, cache=None):
    """Numerator N of the Hilbert series N(z) / prod(1 - z^w_i) of R/M,
    M the monomial ideal of the exponent vectors gens and w_i the
    positive weights of the variables; {degree: coefficient}.

    A variable x among the generators gives the factor 1 - z^w(x) and
    takes out every generator it divides.  At most four minimal
    generators left give N by inclusion-exclusion over the lcms of their
    subsets (see _lcm_sum), and pure powers alone a product of factors
    1 - z^w(e).  Otherwise the pivot is the variable x in most mixed
    generators: N(M) = N(M + (x)) + z^w(x) N(M : x) (Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 119 (1997)).  The
    deadline is checked once per call.
    """
    check_deadline()
    if cache is None:
        cache = {}
    lin = {e.index(1) for e in gens if sum(e) == 1}
    if lin:
        gens = [e for e in gens if not any(e[i] for i in lin)]
    gens = _monomial_min(gens)
    res = cache.get(gens)
    if res is None:
        if len(gens) <= 4:
            res = _lcm_sum(gens, weights)
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

    leads are the minimal leads so far, each packed into one integer
    with a field of _W bits per variable, exponent e_i at bit shifts[i]:
    the engine hands over the complement fields of a lead's key XOR
    _MAXF (see PackedOrder).  No exponent passes _MAXF, so the top
    (guard) bit of every field stays clear.  Subtracting m from a lead
    with every guard set, a field borrows from its guard exactly where
    m's exponent is the larger: the fields that keep their guard hold
    the generator k : m of the colon, and m divides the lead k when
    every field keeps it.
    """

    __slots__ = ("weights", "shifts", "guards", "linear", "num", "leads",
                 "counts", "deg", "rem")

    def __init__(self, weights, target, shifts):
        self.weights = weights
        self.shifts = shifts
        self.guards = sum(_GUARD << s for s in shifts)
        # each variable, packed, with its weight
        self.linear = {1 << s: w for s, w in zip(shifts, weights)}
        self.num = _series_add({0: 1}, target, 0, -1)
        self.leads = []
        # counts[e]: monomials of degree e
        self.counts = [1]
        self.deg = None
        self.rem = None

    def add(self, m, d):
        """Account for a new lead m, packed, of degree d.

        A colon whose minimal generators are all variables has the
        numerator prod(1 - z^w_i); otherwise the generators that no
        variable among them divides are minimalized, decoded once and
        handed to _hilbert_numerator."""
        g = self.guards
        linear = self.linear
        leads = []
        colon = []
        # the fields of the variables among the colon's generators
        lin = 0
        for k in self.leads:
            t = (k | g) - m
            take = t & g
            if take != g:
                leads.append(k)
            take -= take >> (_W - 1)
            c = t & take
            if c in linear:
                lin |= c * _MAXF
            else:
                colon.append(c)
        leads.append(m)
        self.leads = leads
        rest = sorted(c for c in colon if not c & lin)
        # a zero generator, of a lead dividing m, makes the colon the
        # unit ideal, whose numerator is 0; sorted keys put a divisor first
        if not rest or rest[0]:
            mins = []
            for c in rest:
                cg = c | g
                for a in mins:
                    if (cg - a) & g == g:
                        break
                else:
                    mins.append(c)
            shifts = self.shifts
            num = _hilbert_numerator(
                [tuple((c >> s) & _MAXF for s in shifts) for c in mins],
                self.weights) if mins else {0: 1}
            for c, w in linear.items():
                if c & lin:
                    num = _series_add(num, num, w, -1)
            self.num = _series_add(self.num, num, d, -1)
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

    keep, a predicate on lead keys true on every key below a kept one
    (an elimination order), marks the part a caller keeps; no other
    element can reduce a term of it.  A remainder with a lead outside it
    is reduced only until that lead is irreducible.  On homogeneous
    input, taken degree by degree, the leads of each degree do not
    depend on tails; on other input they can, and the run can lengthen.
    """

    __slots__ = ("po", "p", "ideal", "elts", "live", "dirty", "pairs",
                 "heap", "degree", "bound", "keep")

    def __init__(self, po, series=None, keep=None):
        self.po = po
        self.p = po.ring.field.characteristic
        self.keep = keep
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
            self.bound = _HilbertBound(*series, po.shifts)

    def view(self):
        """The alive elements, ascending lead keys."""
        if self.dirty:
            self.live = sorted((g for g in self.elts if g.alive),
                               key=lambda g: g.key)
            self.dirty = False
        return self.live

    def reduce(self, terms):
        """Remainder of terms (consumed) against the live elements."""
        return _reduce(terms, self.view(), self.po, self.p, self.keep)

    def add(self, terms, sugar):
        """Append a nonzero remainder as a new element and update."""
        terms = _normalize(terms, self.p)
        key = max(terms)
        idx = len(self.elts)
        d = self.degree(key)
        self.elts.append(_Elt(key, terms, d, sugar, idx, self.po))
        if self.bound is not None:
            # the exponents of key: its complement fields XOR _MAXF
            up = self.po.up
            self.bound.add((key & up) ^ up, d)
        self.update(idx)

    def update(self, hidx):
        """Gebauer-Moeller: new pairs of element hidx, old pairs pruned.

        A candidate's lcm is dropped when another one divides it.  The
        candidates are sorted by lcm, and a later lcm divides an earlier
        one only when they are equal, so of the later ones only the next
        needs a look.  A pair with coprime leads, or of two monomials,
        has an S-polynomial that reduces to zero by the pair itself (of
        two monomials it is zero): it is kept for the chain criterion and
        never queued.  An element whose lead the new lead divides, the
        lcm of the two, is no longer alive.  Divisibility is
        PackedOrder.divides' borrow test, written out on the split keys."""
        po = self.po
        elts = self.elts
        pairs = self.pairs
        heap = self.heap
        lcmf = po.lcm
        down = po.down
        up = po.up
        guards = po.guards
        degree = self.degree
        ideal = self.ideal
        key0 = po.key0
        h = elts[hidx]
        lmh = h.key
        # lmh split as a divisor
        hu = lmh & up | guards
        hd = lmh & down
        mono = len(h.terms) == 1
        cand = []
        for g in elts:
            if g.idx != hidx and g.alive:
                lk = lcmf(lmh, g.key)
                if lk is not None:
                    cand.append((lk, g.idx))
                    if lk == g.key:
                        g.alive = False
        cand.sort()
        last = len(cand) - 1
        kept = []
        # the kept lcms, split as divisors: (key & up | guards, key & down)
        splits = []
        for pos, (lk, gi) in enumerate(cand):
            g = elts[gi]
            cop = ((mono and len(g.terms) == 1)
                   or (ideal and lk == lmh + g.key - key0))
            ld = lk & down
            lu = lk & up
            if not cop:
                if pos < last and cand[pos + 1][0] == lk:
                    continue
                divided = False
                for su, sd in splits:
                    if ((ld | su) - (sd | lu)) & guards == guards:
                        divided = True
                        break
                if divided:
                    continue
            kept.append((lk, gi, cop))
            splits.append((lu | guards, ld))
        for key, (sug, lk) in list(pairs.items()):
            if ((lk & down | hu) - (hd | lk & up)) & guards == guards:
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
        self.dirty = True

    def run(self, upto=None):
        """Process the pairs of sugar at most upto (all when None)."""
        heap = self.heap
        pairs = self.pairs
        elts = self.elts
        po = self.po
        bound = self.bound
        while heap and (upto is None or heap[0][0] <= upto):
            sug, lk, i, j = heapq.heappop(heap)
            if pairs.get((i, j)) != (sug, lk):
                continue
            del pairs[(i, j)]
            check_deadline()
            if bound is not None and bound.complete(sug, pairs):
                continue
            s = _spoly(elts[i], elts[j], lk, po)
            if not s:
                continue
            out = self.reduce(s)
            if out:
                self.add(out, sug)


def _buchberger(seeds, po, series=None, keep=None, graded=False):
    """Reduced basis, as packed term dicts, of the (terms, sugar) seeds,
    or only its elements with leads in keep.  Only a graded run, on
    homogeneous seeds, leaves the tails outside keep unreduced; see
    _Engine."""
    eng = _Engine(po, series, keep if graded else None)
    for terms, sugar in sorted(seeds, key=lambda s: max(s[0])):
        check_deadline()
        out = eng.reduce(dict(terms))
        if out:
            eng.add(out, sugar)
    eng.run()
    return _interreduce([g for g in eng.view()
                         if keep is None or keep(g.key)], po)


def _seeds(gens, po, series):
    """The (terms, sugar) seeds of the nonzero gens on the keys of po,
    and series with its weights checked; see groebner_basis."""
    if series is not None:
        weights = tuple(series[0])
        if any(not isinstance(w, int) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        degree = po.grading(weights)
        series = (weights, series[1])
    seeds = []
    for g in gens:
        if g.ring != po.ring:
            raise ValueError("generators live in different rings")
        if not g:
            continue
        terms = _terms(po, g)
        if series is None:
            seeds.append((terms, g.degree()))
            continue
        degs = {degree(k) for k in terms}
        if len(degs) != 1:
            raise ValueError("generators must be homogeneous for the weights")
        seeds.append((terms, degs.pop()))
    return seeds, series


def _tail_reducible(g, leads, divides):
    """Whether one of the ascending lead keys divides a tail term of g.
    A divisor's key is at most the key it divides, so g's own lead,
    above every tail term, is never tried."""
    for k in g.terms:
        if k == g.key:
            continue
        for hk in leads:
            if hk > k:
                break
            if divides(hk, k):
                return True
    return False


def _interreduce(elts, po):
    """Reduced basis, as packed term dicts by ascending lead key, of a
    Groebner basis given as normalized engine elements.  An element
    whose lead is divisible by another lead is dropped first (of equal
    leads the first stays).  A tail is reduced by the other elements,
    and the remainder normalized, only when one of their leads divides
    a term of it; else the tail is in normal form already and the
    element goes out as it is."""
    divides = po.divides
    final = []
    for g in sorted(elts, key=lambda g: g.key):
        if not any(divides(h.key, g.key) for h in final):
            final.append(g)
    leads = [g.key for g in final]
    p = po.ring.field.characteristic
    reduced = []
    for g in final:
        check_deadline()
        if _tail_reducible(g, leads, divides):
            others = [h for h in final if h is not g]
            reduced.append(_normalize(_reduce(dict(g.terms), others, po, p),
                                      p))
        else:
            reduced.append(g.terms)
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


def _minimal_forms(ring, forms):
    """Positions of a minimal generating subset of nonzero forms of ring,
    by _minimal_subset on their degrees and stored terms."""
    return _minimal_subset(ring._packed, [(f.homogeneous_degree(), f._t)
                                          for f in forms])


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
    shift = next(s for s, j in po.dfields if j == i)
    dicts = []
    for g in gb._elts:
        # the exponent of x_i in the lead, from its complement field
        a = _MAXF - ((g.key >> shift) & _MAXF)
        dicts.append({k - a * w: c for k, c in g.terms.items()}
                     if a else g.terms)
    # the reduction loop wants ascending leads
    dicts.sort(key=max)
    return GroebnerBasis(po, None, dicts)


def _reduced_grevlex(gb):
    """The reduced grevlex basis of the ideal of gb."""
    if gb.order != MonomialOrder.grevlex():
        return groebner_basis(list(gb.polys), ring=gb.ring)
    return GroebnerBasis(gb._po, None, _interreduce(gb._elts, gb._po))


class GroebnerBasis:
    """Groebner basis supporting membership tests; groebner_basis builds
    reduced ones.  The elements are engine terms on the keys of po,
    which also gives the ring and the order; their polynomials are made
    when first asked for.  source holds the generators it was computed
    from, None for a basis given as one.  The term dicts are wrapped as
    they come, so they must be normalized (see _normalize)."""

    __slots__ = ("ring", "order", "leads", "source", "_polys", "_po",
                 "_elts")

    def __init__(self, po, source, term_dicts):
        self.ring = po.ring
        self.order = po.order
        self._po = po
        self._elts = [_Elt(max(t), t, po.tdeg(max(t)), 0, idx, po)
                      for idx, t in enumerate(term_dicts)]
        self._polys = None
        self.source = None if source is None else tuple(source)
        # leading exponent vectors, ascending in the basis order
        self.leads = tuple(po.decode(g.key) for g in self._elts)

    @property
    def polys(self):
        if self._polys is None:
            ring = self.ring
            self._polys = tuple(_poly(ring, self._po, g.terms, ring._unit)
                                for g in self._elts)
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._elts)

    def contains(self, f):
        if not isinstance(f, Polynomial) or f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not f:
            return True
        if not self._elts:
            return False
        po = self._po
        return not _reduce(dict(_terms(po, f)), self._elts, po,
                           self.ring.field.characteristic,
                           lambda k: False)

    def restrict(self, names):
        """The elements whose leads use only the names, as a basis of the
        subring on names; see _restrict."""
        return _restrict(self._po, [g.terms for g in self._elts], names)

    def certify(self):
        """Re-check the Buchberger criterion and source membership.  A
        pair with coprime leads is skipped (Buchberger's first criterion:
        its S-polynomial reduces to zero by the pair itself), and so is a
        pair of two monomials, whose S-polynomial is zero."""
        po = self._po
        p = self.ring.field.characteristic
        elts = self._elts
        for i in range(len(elts)):
            for j in range(i + 1, len(elts)):
                check_deadline()
                ki, kj = elts[i].key, elts[j].key
                lk = po.lcm(ki, kj)
                if (lk == ki + kj - po.key0
                        or len(elts[i].terms) == 1 == len(elts[j].terms)):
                    continue
                s = _spoly(elts[i], elts[j], lk, po)
                if s and _reduce(s, elts, po, p, lambda k: False):
                    return False
        return all(self.contains(f) for f in self.source or ())


def _monomial_intersection(fs, gs):
    """The reduced grevlex basis of the intersection of the ideals of the
    nonzero polynomials fs and gs of one ring when every one of them is
    a term, else None.  The intersection of two monomial ideals is
    generated by the lcms of their generator pairs (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, 4.3); the minimal ones
    with coefficient 1, ascending by key, are its reduced basis.  In a
    graded order a proper divisor has the smaller key, so a key is kept
    when no smaller kept key divides it."""
    if any(len(f._t) != 1 for f in fs) or any(len(g._t) != 1 for g in gs):
        return None
    po = fs[0].ring._packed
    lcmf = po.lcm
    divides = po.divides
    gkeys = [max(g._t) for g in gs]
    kept = []
    for k in sorted({lcmf(max(f._t), kb) for f in fs for kb in gkeys}):
        check_deadline()
        if not any(divides(h, k) for h in kept):
            kept.append(k)
    return GroebnerBasis(po, None, [{k: 1} for k in kept])


def _unit_basis(ring):
    """The reduced basis of the whole ring, in its grevlex order."""
    return GroebnerBasis(ring._packed, None, [ring.one._t])


def _ring_of(gens, ring):
    """The given ring, else that of the first generator."""
    if ring is not None:
        return ring
    if not gens:
        raise ValueError("need a ring for an empty generating set")
    return gens[0].ring


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
    gens = list(gens)
    ring = _ring_of(gens, ring)
    if order is None:
        order = MonomialOrder.grevlex()
    po = _packed_order(ring, order)
    seeds, series = _seeds(gens, po, series)
    return GroebnerBasis(po, gens, _buchberger(seeds, po, series))


def eliminate(gens, drop, ring=None, *, series=None):
    """Intersect the ideal with the subring omitting the drop variables.

    Returns the reduced GroebnerBasis of the elimination ideal in the
    default (grevlex) order of the subring, its ring, read off the basis
    in the block order ((drop), (rest)) by _restrict.  The engine keeps
    the leads free of the drop variables: by the Elimination Theorem
    those elements alone are a basis of the elimination ideal, so only
    they are interreduced, and on homogeneous input (for the weights of
    series, if given) only they are fully reduced.  series is as for
    groebner_basis.
    """
    gens = list(gens)
    ring = _ring_of(gens, ring)
    dropset = set(drop)
    for nm in dropset:
        ring.index(nm)
    keep = tuple(nm for nm in ring.names if nm not in dropset)
    if not keep:
        raise ValueError("cannot eliminate every variable")
    if len(keep) == ring.nvars:
        raise ValueError("nothing to eliminate")
    first = tuple(nm for nm in ring.names if nm in dropset)
    po = _packed_order(ring, MonomialOrder.block(first, keep))
    seeds, series = _seeds(gens, po, series)
    # in the block order a lead free of the drop variables has none below
    dropped = po.grading([int(nm in dropset) for nm in ring.names])
    graded = series is not None or all(g.is_homogeneous() for g in gens)
    basis = _buchberger(seeds, po, series, lambda k: not dropped(k), graded)
    return _restrict(po, basis, keep)


def _restrict(po, dicts, names):
    """GroebnerBasis, in the grevlex order of the subring on names, of
    the term dicts on the keys of po, ascending by lead key, whose leads
    use only the names, each remapped once.  For a reduced basis in an
    order that restricts to grevlex on the subring and puts every
    element with such a lead inside it (a block order ending in names,
    or grevlex on a basis bihomogeneous for the split, as a Rees
    presentation's is) that is the reduced grevlex basis of the
    ideal's part in the subring, ascending still."""
    ring = po.ring
    sub = PolyRing(names, ring.field)._packed
    move = po.remap(sub)
    outside = po.grading([int(nm not in names) for nm in ring.names])
    return GroebnerBasis(sub, None, [{move(k): c for k, c in t.items()}
                                     for t in dicts if not outside(max(t))])


# -- module Groebner bases and syzygies --------------------------------


def syzygies(mat):
    """Minimal generating syzygies of the columns of mat.

    Returns a matrix S with mat @ S = 0 whose columns generate the whole
    column relation module, by ascending degree, then input order.  Each
    row of mat must be homogeneous of one degree (zero entries allowed),
    as a row of a Jacobian dual is: it holds the y-coefficients of an
    x-linear Rees generator of bidegree (1, b).  The relations are then
    graded with the columns unshifted.  The engine keeps the leads in the
    relation components: only those elements are fully reduced,
    interreduced and then minimalized.
    """
    ring = mat.ring
    p = ring.field.characteristic
    r, c = mat.nrows, mat.ncols
    for i in range(r):
        if len({f.degree() for f in mat.row(i) if f}) > 1:
            raise ValueError("row %d of the matrix mixes degrees" % i)
    # column j is seeded as (column j, e_{r+j}); the basis elements living
    # in components r.. alone are the relations among the columns
    po = _packed_order(ring, MonomialOrder.grevlex(), r + c)
    # the term of ring key k in component i has key k + off + i * step
    off = po.key0 - ring._packed.key0
    step = po.cstep
    seeds = []
    for j, col in enumerate(zip(*mat.entries)):
        # over QQ the column times the common denominator of its scales
        den = 1 if p else lcm(*(f._s.denominator for f in col))
        v = {po.key0 + (r + j) * step: den}
        for i, f in enumerate(col):
            m = 1 if p else (f._s * den).numerator
            for k, cf in f._t.items():
                v[k + off + i * step] = m * cf
        sugar = max((f.degree() for f in col if f), default=0)
        seeds.append((v, sugar))
    # descending keys list leads in lower components first, as in
    # position over term; the minimalization keeps the first of
    # equal-degree candidates.  The kept part is components r.., whose
    # keys lie below the others; there a column's sugar is its degree.
    graded = []
    for terms in reversed(_buchberger(
            seeds, po, keep=lambda k: po.component(k) >= r, graded=True)):
        deg = po.tdeg(max(terms))
        if any(po.tdeg(k) != deg for k in terms):
            raise ValueError("syzygy grading inconsistent")
        graded.append((deg, terms))
    # the engine's canonical scaling (monic over Fp, primitive with a
    # positive lead over QQ) is the column's
    columns = []
    for i in _minimal_subset(po, graded):
        parts = [{} for _ in range(c)]
        for k, cf in graded[i][1].items():
            comp = po.component(k)
            parts[comp - r][k - off - comp * step] = cf
        columns.append([_canonical(ring, t, ring._unit) for t in parts])
    entries = [[col[j] for col in columns] for j in range(c)]
    return FormMatrix(ring, entries)
