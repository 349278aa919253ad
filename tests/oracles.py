"""Slow independent oracles that the fast code paths are checked against.

Nearly everything here sticks to degreewise exact linear algebra,
explicit products of Polynomials and exponent tuples, avoiding the
Groebner engine and the packed keys entirely, so agreement between the
two routes is meaningful.  Polynomial arithmetic itself is checked
against sums, products, division and printing on exponent tuples.  The
colon-based oracles at the end use the engine, but only through colons
and intersections (by elimination, or of monomial ideals by lcms, which
the intersection oracle checks), one basis per span and Rabinowitsch's
trick, not the saturation and graded minimalization code they check.
The two-pass survivors minimalize a level on its own before the pass
over the seeds and the level, which the program makes on its basis.
The saturation by every variable is the one saturate took by the
irrelevant ideal before it stopped at the first certified intersection:
every variable's Bayer basis, intersected.
The Hilbert-polynomial comparison of two lead sets, by their series
numerators, is the reference for the lead-set certificate of saturate.
The depth test, whether I : m^inf = I, has no caller in the program;
the symbolic tests use it.
The inverse oracle composes every coordinate of a candidate with the
map, which the rank certificate of maps.invert avoids; the plane
composition oracle compares g_i(f) * x_j with g_j(f) * x_i by products,
and the graph identification compares two maps' Rees ideals by
membership.  The gcd oracle takes lcms by intersection, where the
program certifies coprime forms on a random line or by codimension.
The elimination and syzygy oracles reduce the whole basis fully and
then keep a part of it, where the program finishes only the part it
keeps; the full interreduction reduces every tail, where the program
reduces only those that a lead of another element divides a term of.
The intersection by elimination is the one route the program took for
every intersection before it took those of monomial ideals by the lcms
of the generator pairs.  The image oracle eliminates the x-variables from a Rees
presentation, where the program reads the image off the presentation's
basis; the chain oracle tests every minimal generator of the Rees ideal
for membership in the chain's ideal, where the program compares leads.
The pair-update oracle queues the pairs of two monomials, as the engine
did before it treated them as coprime pairs; the pair update by divides
is the engine's before it wrote the borrow test out.  The Hilbert bound
on exponent tuples is the engine's before it packed its leads, and its
numerator is Bigatti's recursion alone, without the base case by
inclusion-exclusion.  The Rees minimal
generators come from the graded minimalization of the presentation's
basis that the program ran before its Jacobian dual read the basis's
x-linear elements; the Jacobian dual of those generators is the
reference for the one of the basis.  The Jacobian dual oracles
read terms as exponent tuples, not key fields, as do the oracle of the
coefficient reader rings._coefficients and the Sylvester form oracle,
the latter by the sequential extraction that the reader replaced; the
expression parser oracle is the one that tokenized each polynomial
text on its own before sessions and PolyRing.parse shared one
tokenizer.  The two-loop
reduction is the engine's kernel as it was before both fields ran the
one fraction-free step: over Fp it takes every new coefficient mod p.
The product of two form matrices, by which the tests check syzygies,
and the named forms of the polar quartic fixture serve the tests alone.
"""

import heapq
import itertools
import re
from fractions import Fraction
from math import gcd
from operator import mul
from unittest import mock

from cremona import groebner
from cremona.fixtures import polar_quartic
from cremona.groebner import (_hilbert_numerator, _minimal_subset,
                              _monomial_min, _reduced_grevlex, _series_add,
                              eliminate, groebner_basis, syzygies)
from cremona.ideals import Ideal, _fresh_names, _inside, _one_minus_t_part
from cremona.linalg import Echelon
from cremona.maps import InverseData, _compose, _factor_from
from cremona.rees import jacobian_dual, rees_ideal
from cremona.rings import (_MAXF, FormMatrix, MonomialOrder,
                           NotDivisibleError, ParseError, PolyRing,
                           Polynomial, QQ, transfer)


def span_dimension(ring, polys, deg):
    """Dimension of the degree-deg slice of the ideal the polys generate."""
    ech = Echelon(ring.field)
    for p in polys:
        if not p:
            continue
        d = p.homogeneous_degree()
        if d > deg:
            continue
        for m in ring.monomials_of_degree(deg - d):
            ech.insert(dict((p * ring.monomial(m)).items()))
    return len(ech)


def homogeneous_member(ring, gens, p):
    """Whether homogeneous p lies in the homogeneous ideal the gens span.

    Membership of a homogeneous element is a single-degree linear
    question, so one echelon pass settles it.
    """
    if not p:
        return True
    d = p.homogeneous_degree()
    ech = Echelon(ring.field)
    for g in gens:
        if not g:
            continue
        dg = g.homogeneous_degree()
        if dg > d:
            continue
        for m in ring.monomials_of_degree(d - dg):
            ech.insert(dict((g * ring.monomial(m)).items()))
    return ech.contains(dict(p.items()))


def minimal_generators(gens):
    """Minimal generators of a homogeneous ideal by dense linear algebra.

    Degree by degree, every monomial multiple of every kept lower-degree
    generator goes into one echelon form; a degree-d generator is kept,
    in input order, when it is not in the span so far.  Same contract as
    Ideal.minimal_generators: normalized forms, ascending degree, stable.
    """
    gens = [g.normalized() for g in gens if g]
    if not gens:
        return ()
    ring = gens[0].ring
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.homogeneous_degree(), []).append(g)
    mins = []
    for d in sorted(by_degree):
        ech = Echelon(ring.field)
        for g0 in mins:
            for m in ring.monomials_of_degree(d - g0.homogeneous_degree()):
                ech.insert(dict((g0 * ring.monomial(m)).items()))
        for g in by_degree[d]:
            if ech.insert(dict(g.items())) is not None:
                mins.append(g)
    return tuple(mins)


def minimal_columns(ring, graded):
    """Minimal subset of graded vectors of forms by dense linear algebra.

    graded lists (shifted degree, vector); a vector is kept, by ascending
    degree and then input order, when it is not in the span of the
    monomial multiples of the vectors kept before it.  Returns positions.
    """
    def flat(w):
        return {(j, e): c for j, f in enumerate(w) for e, c in f.items()}

    keep = []
    for s in sorted({d for d, _w in graded}):
        ech = Echelon(ring.field)
        for i in keep:
            s0, w0 = graded[i]
            for m in ring.monomials_of_degree(s - s0):
                mono = ring.monomial(m)
                ech.insert(flat([f * mono for f in w0]))
        for i, (d, w) in enumerate(graded):
            if d == s and ech.insert(flat(w)) is not None:
                keep.append(i)
    return keep


def random_form(ring, deg, rng, sparsity=0.6):
    """Random homogeneous form with small integer coefficients."""
    terms = []
    for m in ring.monomials_of_degree(deg):
        if rng.random() < sparsity:
            c = rng.randint(-4, 4)
            if c:
                terms.append((m, c))
    if not terms:
        m = rng.choice(list(ring.monomials_of_degree(deg)))
        terms.append((m, rng.randint(1, 4)))
    return ring.from_terms(terms)


def random_homogeneous_ideal(nvars, rng, max_gens=4, max_deg=4):
    """Seeded homogeneous ideal over up to three variables."""
    names = tuple("x%d" % k for k in range(nvars))
    ring = PolyRing(names, QQ)
    gens = tuple(random_form(ring, rng.randint(1, max_deg), rng)
                 for _ in range(rng.randint(1, max_gens)))
    return ring, gens


def power_gens(gens, k):
    """All k-fold products of the generators, the textbook power."""
    return tuple(_prod(combo) for combo
                 in itertools.combinations_with_replacement(gens, k))


def _prod(polys):
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def order_key(order, ring):
    """Tuple sort key on exponent vectors for a MonomialOrder.

    The order written out field by field, independent of the packed
    integer keys of PackedOrder that the library compares with.
    """
    n = ring.nvars
    if order.kind == "grevlex":
        seq = [ring.index(v) for v in order.data] if order.data else range(n)
        rev = tuple(reversed(seq))
        return lambda e: (sum(e),) + tuple(-e[i] for i in rev)
    if order.kind == "lex":
        return tuple
    if order.kind == "block":
        groups = [tuple(ring.index(v) for v in g) for g in order.data]

        def key(e):
            out = []
            for g in groups:
                out.append(sum(e[i] for i in g))
                out.extend(-e[i] for i in reversed(g))
            return tuple(out)

        return key
    raise ValueError("unknown order kind %r" % order.kind)


# -- polynomial arithmetic on exponent tuples ------------------------
#
# {exponent tuple: coefficient} dicts with Fraction coefficients over QQ
# and residues over Fp, no zero coefficients: the reference for the
# arithmetic on packed keys with integer terms and a scale.


def tuple_terms(ring, pairs):
    """The tuple dict of (exponent tuple, coefficient) pairs; repeated
    tuples add up."""
    out = {}
    for e, c in pairs:
        v = out.get(tuple(e), 0) + ring.field.coerce(c)
        if ring.field.characteristic:
            v %= ring.field.characteristic
        out[tuple(e)] = v
    return {e: c for e, c in out.items() if c}


def tuple_sum(ring, a, b, sign=1):
    """a + sign * b."""
    p = ring.field.characteristic
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if p:
            v %= p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def tuple_product(ring, a, b):
    p = ring.field.characteristic
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            out[e] = v % p if p else v
    return {e: c for e, c in out.items() if c}


def tuple_exact_divide(ring, a, b):
    """a / b by long division in the grevlex order; raises
    NotDivisibleError when inexact."""
    p = ring.field.characteristic
    key = order_key(MonomialOrder.grevlex(), ring)
    dlm = max(b, key=key)
    dinv = ring.field.inv(b[dlm])
    rem = dict(a)
    quot = {}
    while rem:
        lm = max(rem, key=key)
        me = tuple(x - y for x, y in zip(lm, dlm))
        if any(x < 0 for x in me):
            raise NotDivisibleError("division is not exact")
        c = rem[lm] * dinv
        if p:
            c %= p
        quot[me] = c
        rem = tuple_sum(ring, rem, tuple_product(ring, {me: c}, b), -1)
    return quot


def tuple_str(ring, a):
    """The text form of a tuple dict: terms descending in grevlex."""
    if not a:
        return "0"
    key = order_key(MonomialOrder.grevlex(), ring)
    text = ""
    for e in sorted(a, key=key, reverse=True):
        c = a[e]
        factors = [n if x == 1 else "%s^%d" % (n, x)
                   for n, x in zip(ring.names, e) if x]
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        if text:
            text += " %s %s" % (sign, "*".join(factors))
        else:
            text = "*".join(factors) if sign == "+" else "-" + "*".join(
                factors)
    return text


def substitute_by_products(poly, images, ring=None):
    """Polynomial.substitute by Polynomial products and sums: each term
    is the coefficient times cached powers of the images, added to the
    result one at a time."""
    target = ring
    coerced = {}
    for name, img in images.items():
        poly.ring.index(name)
        if isinstance(img, Polynomial):
            if target is None:
                target = img.ring
            elif img.ring != target:
                raise ValueError("images live in different rings")
        coerced[name] = img
    if target is None:
        target = poly.ring
    for name in poly.support():
        if name not in coerced:
            raise ValueError("missing image for variable %r" % name)
    imgs = {}
    for name, img in coerced.items():
        imgs[poly.ring.index(name)] = (
            img if isinstance(img, Polynomial) else target.const(img))
    pw = {i: {0: target.one} for i in imgs}
    out = target.zero
    for e, c in poly.items():
        term = target.const(c)
        for i, x in enumerate(e):
            if not x:
                continue
            cache = pw[i]
            if x not in cache:
                top = max(cache)
                acc = cache[top]
                while top < x:
                    acc = acc * imgs[i]
                    top += 1
                    cache[top] = acc
            term = term * cache[x]
        out = out + term
    return out


def lcm_by_decoding(po, ka, kb):
    """PackedOrder.lcm through exponent tuples: decode both keys, take
    the larger exponent of each variable and encode the result."""
    c = po.component(ka)
    if c != po.component(kb):
        return None
    ea = po.decode(ka)
    eb = po.decode(kb)
    return po.encode(tuple(map(max, ea, eb))) + c * po.cstep


def saturate_by_quotients(I, J):
    """I : J^inf and the least s with I : J^s equal to it, by iterated
    colons: I : J^(s+1) is computed from I : J^s until it adds nothing.
    J is an ideal or one polynomial."""
    cur = I
    s = 0
    while True:
        nxt = cur.quotient(J)
        if all(map(cur.contains, nxt.gens)):
            return cur, s
        cur = nxt
        s += 1


def saturate_by_every_variable(I):
    """I : m^inf for a homogeneous ideal I and m generated by the
    variables, and whether it is larger than I, as saturate returns them:
    the Bayer saturations by every variable (from a copy of I, so none
    is shared with I's cache), of which those containing none of the
    others are intersected."""
    ring = I.ring
    copy = Ideal(ring, I.gens)
    kept = []
    for x in reversed(ring.gens):
        gb = copy._saturation(x)
        if not any(_inside(k, gb) for k in kept):
            kept = [k for k in kept if not _inside(gb, k)] + [gb]
    if len(kept) == 1:
        gens = kept[0].polys
    else:
        acc = Ideal(ring, kept[0].polys)
        for gb in kept[1:]:
            acc = acc.intersect(Ideal(ring, gb.polys))
        gens = acc.gens
    if all(map(copy.groebner().contains, gens)):
        return I, False
    if len(kept) == 1:
        gens = _reduced_grevlex(kept[0]).polys
    return Ideal(ring, gens), True


def same_hilbert_polynomial(leads, other, n):
    """Whether R/M and R/N have the same Hilbert polynomial, M and N the
    monomial ideals of two lead sets in n variables: their series differ
    by (numerator(M) - numerator(N)) / (1-t)^n, which is a polynomial
    exactly when (1-t)^n divides the difference."""
    ones = (1,) * n
    q = groebner._series_add(groebner._hilbert_numerator(leads, ones),
                             groebner._hilbert_numerator(other, ones), 0, -1)
    return not q or _one_minus_t_part(q, n)[0] == n


def survivors_by_spans(F, ell, base):
    """Minimal module generators of level(ell) modulo the ideal base:
    sweep the level's minimal generators by ascending degree, keeping
    those not yet absorbed into base plus the earlier survivors, with a
    new basis for every survivor."""
    span = base
    out = []
    for g in sorted(F.minimal(ell), key=lambda p: p.homogeneous_degree()):
        if not span.contains(g):
            out.append(g)
            span = span + Ideal(F.base.ring, (g,))
    return tuple(out)


def fresh_by_spans(F, ell):
    """SymbolicFiltration.fresh by survivors_by_spans."""
    return survivors_by_spans(F, ell, F.power(ell))


def essential_by_spans(F, ell):
    """SymbolicFiltration.essential by survivors_by_spans over the sum
    of the minimalized products of complementary lower levels."""
    ring = F.base.ring
    acc = Ideal(ring, ())
    for s in range(1, ell):
        acc = acc + Ideal(ring, F.minimal(s)) * Ideal(ring, F.minimal(ell - s))
    return survivors_by_spans(F, ell, acc)


def survivors_two_pass(F, ell, seeds):
    """Minimal module generators of level(ell) modulo the ideal of the
    seeds by two graded minimalizations: the level's minimal generators
    first, then the seeds followed by those, of which the kept ones are
    returned (SymbolicFiltration._survivors makes the second pass over
    the level's basis)."""
    mins = F.minimal(ell)
    cands = [(g.homogeneous_degree(), g._t) for g in tuple(seeds) + mins]
    n = len(cands) - len(mins)
    return tuple(mins[i - n] for i in _minimal_subset(
        F.base.ring._packed, cands) if i >= n)


def fresh_two_pass(F, ell):
    """SymbolicFiltration.fresh by survivors_two_pass."""
    return survivors_two_pass(F, ell, F.power(ell).gens)


def essential_two_pass(F, ell):
    """SymbolicFiltration.essential by survivors_two_pass over the
    products of the minimal generators of complementary lower levels."""
    return survivors_two_pass(F, ell, [
        a * b for s in range(1, ell // 2 + 1)
        for a in F.minimal(s) for b in F.minimal(ell - s)])


def depth_positive(I):
    """Whether the irrelevant ideal avoids the associated primes of R/I,
    via the colon identity I : m = I, which holds exactly when
    I : m^inf = I."""
    if I.is_unit():
        raise ValueError("need a proper ideal")
    if not I.is_homogeneous():
        raise ValueError("need a homogeneous ideal")
    m = Ideal(I.ring, I.ring.gens)
    return not I.saturate(m)[1]


def radical_contains(I, f):
    """Whether some power of f lies in I: 1 lies in (I, 1 - w*f)."""
    ring = I.ring
    if not f:
        return True
    if I.is_zero():
        return False
    w, = _fresh_names(ring.names, ("_w",))
    aux = PolyRing((w,) + ring.names, ring.field)
    gens = [transfer(g, aux) for g in I.gens]
    gens.append(aux.one - aux.var(w) * transfer(f, aux))
    return groebner_basis(gens, ring=aux).contains(aux.one)


def condition_by_annihilator(I, lmax, F):
    """condition_i through the annihilator power : level, by colons, and
    radical membership of each variable in it."""
    out = {}
    for ell in range(1, lmax + 1):
        power = F.power(ell)
        level = F.level(ell)
        if all(map(power.contains, level.gens)):
            out[ell] = "ZERO"
            continue
        ann = power.quotient(level)
        witness = next((str(x) for x in I.ring.gens
                        if not radical_contains(ann, x)), None)
        out[ell] = "PRIMARY" if witness is None else "FAILS:" + witness
    return out


def expected_form_two_sided(F, D, dprime, lmax):
    """symbolic.expected_form_check's levels by mutual containment: level
    ell holds exactly when level(ell) = sum_j D^j * power(ell - j*d') as
    ideals, with no use of the precondition D in level(d')."""
    ring = F.base.ring
    levels = {}
    for ell in range(1, lmax + 1):
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
        rhs = Ideal(ring, tuple(rhs_gens))
        lvl = F.level(ell)
        levels[ell] = (all(map(rhs.contains, lvl.gens))
                       and all(map(lvl.contains, rhs.gens)))
    return levels


def invert_by_composition(F):
    """maps.invert as it was before the rank certificate: every syzygy
    column of the Jacobian dual, in increasing degree, is composed with
    the map in all n + 1 coordinates and passes when g_i(f) = x_i * D with
    one common D."""
    if not F.is_square():
        raise ValueError("inverse extraction needs a square map")
    if any(not f for f in F.forms):
        return None
    P = rees_ideal(Ideal(F.ring, F.forms))
    try:
        psi = jacobian_dual(P)
    except ValueError:
        return None
    S = syzygies(psi)
    cols = []
    for j in range(S.ncols):
        col = tuple(S[i, j] for i in range(S.nrows))
        deg = max(g.homogeneous_degree() for g in col if g)
        cols.append((deg, j, col))
    cols.sort(key=lambda t: (t[0], t[1]))
    for deg, _j, col in cols:
        d = _factor_from(_compose(col, F), F)
        if d is None:
            continue
        inv = F.ring.field.inv(d.leading_coefficient())
        return InverseData(tuple(g * inv for g in col), d * inv, deg)
    return None


def poly_gcd_list(polys):
    """Greatest common divisor of nonzero polynomials, normalized, one
    pair at a time: gcd(a, b) = a * b / lcm(a, b), the lcm read off the
    intersection of the principal ideals."""
    acc = polys[0].normalized()
    for f in polys[1:]:
        if acc.degree() == 0:
            break
        ring = f.ring
        lcm = Ideal(ring, (acc,)).intersect(Ideal(ring, (f,))).gens[0]
        acc = (acc * f).exact_divide(lcm).normalized()
    return acc


def plane_composition_oracle(F, G):
    """Projective identity g_i(f)*x_j = g_j(f)*x_i, checked by products."""
    comp = _compose(tuple(G), F)
    if all(not h for h in comp):
        return False
    xs = F.ring.gens
    n = len(comp)
    return all(comp[i] * xs[j] == comp[j] * xs[i]
               for i in range(n) for j in range(i + 1, n))


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
    swapped = [g.substitute(images, ring=amb)
               for g in rees_minimal_generators(Q)[0]]
    back = Ideal(amb, tuple(swapped))
    mine = Ideal(amb, rees_minimal_generators(P)[0])
    return (all(map(mine.contains, back.gens))
            and all(map(back.contains, mine.gens)))


def rees_minimal_generators(P):
    """(generators, bidegrees) of a Rees presentation: the minimal
    generators of J by one graded minimalization of its reduced basis,
    sorted by total degree, then x-degree, as the presentation listed
    them before the Jacobian dual read its rows off the basis."""
    keyed = sorted(((P.bidegree(g), g) for g in Ideal(
        P.ambient, P.basis.polys).minimal_generators()),
                   key=lambda bg: (sum(bg[0]), bg[0][0]))
    return tuple(g for _, g in keyed), tuple(b for b, _ in keyed)


def _rows_by_terms(P, gens):
    """The Jacobian dual rows of x-linear forms of P.ambient, read from
    exponent tuples: each term is split by variable name into its
    x-index and its y-exponents, and each entry is rebuilt with
    from_terms.  No rows raise ValueError, as in rees.jacobian_dual."""
    ring = P.ambient
    yring = PolyRing(P.ynames, ring.field)
    xindex = {n: i for i, n in enumerate(P.xnames)}
    yindex = {n: i for i, n in enumerate(P.ynames)}
    rows = []
    for g in gens:
        row = [{} for _ in P.xnames]
        for exps, c in g.items():
            xi = None
            yexp = [0] * len(P.ynames)
            for pos, e in enumerate(exps):
                if not e:
                    continue
                name = ring.names[pos]
                if name in xindex:
                    xi = xindex[name]
                else:
                    yexp[yindex[name]] = e
            row[xi][tuple(yexp)] = c
        rows.append([yring.from_terms(r) for r in row])
    if not rows:
        raise ValueError("no x-linear generators; Jacobian dual undefined")
    return FormMatrix(yring, rows)


def jacobian_dual_by_terms(P):
    """rees.jacobian_dual built from exponent tuples: the rows of the
    x-linear elements of P.basis, ascending by lead key."""
    return _rows_by_terms(P, [g for g in P.basis.polys
                              if P.bidegree(g)[0] == 1])


def jacobian_dual_of_minimal_generators(P):
    """rees.jacobian_dual as it was before it read the basis: the rows,
    read from exponent tuples, of the x-linear minimal generators of J
    in the order rees_minimal_generators lists them."""
    gens, bidegrees = rees_minimal_generators(P)
    return _rows_by_terms(P, [g for g, (a, _b) in zip(gens, bidegrees)
                              if a == 1])


def coefficients_by_terms(g, monomials, ring):
    """rings._coefficients on exponent tuples: each term of g goes to the
    first monomial whose exponents it bounds, the difference is rebuilt
    in ring by variable name, which must hold every variable it uses,
    and a term that no monomial divides raises ValueError."""
    names = g.ring.names
    mexps = [m.items()[0][0] for m in monomials]
    parts = [[] for _ in monomials]
    for exps, c in g.items():
        for me, part in zip(mexps, parts):
            if all(a >= b for a, b in zip(exps, me)):
                quot = {nm: a - b for nm, a, b in zip(names, exps, me)}
                assert all(not e for nm, e in quot.items()
                           if nm not in ring.names)
                part.append((tuple(quot.get(nm, 0) for nm in ring.names), c))
                break
        else:
            raise ValueError("no monomial divides a term of %s" % g)
    return [ring.from_terms(t) for t in parts]


def sylvester_form_by_terms(h1, h2, h3, wrt):
    """families.sylvester_form by sequential extraction on exponent
    tuples: terms divisible by the first variable are collected and
    divided out, then the second on the remainder; the last variable
    must divide the rest exactly (content check)."""
    ring = h1.ring
    positions = [ring.index(nm) for nm in wrt]
    rows = []
    for h in (h1, h2, h3):
        rem = h
        row = []
        for pos in positions[:-1]:
            part = ring.from_terms({e: c for e, c in rem.items()
                                    if e[pos] > 0})
            row.append(part.exact_divide(ring.gens[pos]) if part
                       else ring.zero)
            rem = rem - part
        try:
            row.append(rem.exact_divide(ring.gens[positions[-1]]) if rem
                       else ring.zero)
        except NotDivisibleError:
            raise ValueError("content check failed") from None
        rows.append(row)
    return FormMatrix(ring, rows).det()


# -- elimination and syzygies from a fully reduced basis --------------


def interreduce_fully(elts, po):
    """groebner._interreduce as it was before it passed settled tails
    through: an element whose lead another lead divides is dropped (of
    equal leads the first stays), then every tail is reduced by the
    other elements and every remainder normalized."""
    divides = po.divides
    final = []
    for g in sorted(elts, key=lambda g: g.key):
        if not any(divides(h.key, g.key) for h in final):
            final.append(g)
    p = po.ring.field.characteristic
    return [groebner._normalize(groebner._reduce(
        dict(g.terms), [h for h in final if h is not g], po, p), p)
        for g in final]


def intersect_by_elimination(I, J):
    """The reduced grevlex basis of the intersection of I and J, by
    eliminating w from (w*I, (1 - w)*J), as Ideal.intersect takes every
    intersection that is not of two monomial ideals."""
    ring = I.ring
    w, = _fresh_names(ring.names, ("_w",))
    aux = PolyRing((w,) + ring.names, ring.field)
    tw = aux.var(w)
    gens = [tw * transfer(f, aux) for f in I.gens]
    gens += [(aux.one - tw) * transfer(f, aux) for f in J.gens]
    return eliminate(gens, [w], ring=aux)


def eliminate_by_full_basis(gens, drop, ring=None, series=None):
    """groebner.eliminate from the whole reduced basis in the block order
    ((drop), (rest)): its elements free of the drop variables, moved into
    the subring that eliminate builds."""
    gens = list(gens)
    ring = ring or gens[0].ring
    keep = tuple(nm for nm in ring.names if nm not in drop)
    first = tuple(nm for nm in ring.names if nm in drop)
    gb = groebner_basis(gens, order=MonomialOrder.block(first, keep),
                        ring=ring, series=series)
    sub = PolyRing(keep, ring.field)
    return sub, tuple(transfer(g, sub) for g in gb.polys
                      if not set(g.support()) & set(drop))


def image_by_elimination(P):
    """ReesPresentation.image_ideal by elimination: the reduced basis of
    the x-variables eliminated from the presentation's basis, under the
    Hilbert series its leads give in the standard grading."""
    weights = (1,) * P.ambient.nvars
    series = (weights, _hilbert_numerator(P.basis.leads, weights))
    return eliminate(list(P.basis.polys), list(P.xnames), ring=P.ambient,
                     series=series)


def generates_by_membership(gens, P):
    """Whether forms of P.ambient lying in the Rees ideal of P generate
    it: each minimal generator of P is tested for membership in the
    basis of gens, which the Hilbert series of P bounds."""
    amb = P.ambient
    weights = (1,) * amb.nvars
    series = (weights, _hilbert_numerator(P.basis.leads, weights))
    chain = groebner_basis(gens, ring=amb, series=series)
    return all(map(chain.contains, rees_minimal_generators(P)[0]))


def _update_queueing_monomial_pairs(self, hidx):
    """groebner._Engine.update with only coprime leads exempted from the
    queue: a pair of two monomials is queued as any other."""
    po = self.po
    elts = self.elts
    pairs = self.pairs
    heap = self.heap
    lcmf = po.lcm
    divides = po.divides
    h = elts[hidx]
    lmh = h.key
    cand = []
    for g in elts:
        if g.idx != hidx and g.alive:
            lk = lcmf(lmh, g.key)
            if lk is not None:
                cand.append((lk, g.idx))
    cand.sort()
    kept = []
    for pos, (lk, gi) in enumerate(cand):
        cop = self.ideal and lk == lmh + elts[gi].key - po.key0
        if not cop:
            if pos < len(cand) - 1 and cand[pos + 1][0] == lk:
                continue
            if any(divides(l2, lk) for l2, _g, _c in kept):
                continue
        kept.append((lk, gi, cop))
    for key, (_sug, lk) in list(pairs.items()):
        if divides(lmh, lk):
            i, j = key
            if lcmf(elts[i].key, lmh) != lk and lcmf(lmh, elts[j].key) != lk:
                del pairs[key]
    for lk, gi, cop in kept:
        if cop:
            continue
        g = elts[gi]
        dl = self.degree(lk)
        sug = max(g.sugar + dl - g.tdeg, h.sugar + dl - h.tdeg)
        pairs[(gi, hidx)] = (sug, lk)
        heapq.heappush(heap, (sug, lk, gi, hidx))
    for g in elts:
        if g.alive and g.idx != hidx and divides(lmh, g.key):
            g.alive = False
    self.dirty = True


def groebner_basis_queueing_monomial_pairs(gens, order=None, ring=None):
    """groebner_basis with every pair of two monomials reduced."""
    with mock.patch.object(groebner._Engine, "update",
                           _update_queueing_monomial_pairs):
        return groebner_basis(gens, order=order, ring=ring)


# -- the Hilbert bound on exponent tuples, the pair update by divides --


def hilbert_numerator_by_bigatti(gens, weights, cache=None):
    """groebner._hilbert_numerator as it was before its base case by
    inclusion-exclusion and its deadline check: Bigatti's recursion alone.

    Numerator N of the Hilbert series N(z) / prod(1 - z^w_i) of R/M,
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
                res = _series_add(
                    hilbert_numerator_by_bigatti(plus, weights, cache),
                    hilbert_numerator_by_bigatti(colon, weights, cache),
                    weights[piv])
        cache[gens] = res
    for i in lin:
        res = _series_add(res, res, weights[i], -1)
    return res


class HilbertBoundOnTuples:
    """groebner._HilbertBound as it was before it packed its leads:
    exponent tuples, colons and pruning by comprehensions.

    Hilbert-function bound of a homogeneous Buchberger run (Traverso,
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
        self.num = _series_add(
            self.num, hilbert_numerator_by_bigatti(colon, self.weights), d,
            -1)
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


def update_by_divides(self, hidx):
    """groebner._Engine.update as it was before it wrote the borrow test
    out: PackedOrder.divides in any() over the kept candidates, and per
    pending pair and live element.

    Gebauer-Moeller: new pairs of element hidx, old pairs pruned.

    A candidate's lcm is dropped when another one divides it.  The
    candidates are sorted by lcm, and a later lcm divides an earlier
    one only when they are equal, so of the later ones only the next
    needs a look.  A pair with coprime leads, or of two monomials,
    has an S-polynomial that reduces to zero by the pair itself (of
    two monomials it is zero): it is kept for the chain criterion and
    never queued."""
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
    mono = len(h.terms) == 1
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
        g = elts[gi]
        cop = ((mono and len(g.terms) == 1)
               or (ideal and lk == lmh + g.key - key0))
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


def matmul(a, b):
    """The product of two FormMatrix objects over one ring, entry by
    entry as sums of Polynomial products."""
    if a.ring != b.ring:
        raise ValueError("can only multiply matrices over the same ring")
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    return FormMatrix(a.ring, [[sum((a[i, k] * b[k, j]
                                     for k in range(a.ncols)), a.ring.zero)
                                for j in range(b.ncols)]
                               for i in range(a.nrows)])


def syzygies_by_full_basis(mat):
    """groebner.syzygies from the whole reduced module basis: every
    element fully reduced, then those with leads in the relation
    components r.. handed to the same grading check and minimalization."""
    full_basis = groebner._buchberger

    def kept_afterwards(seeds, po, series=None, keep=None, graded=False):
        return [t for t in full_basis(seeds, po, series)
                if po.component(max(t)) >= mat.nrows]

    with mock.patch.object(groebner, "_buchberger", kept_afterwards):
        return syzygies(mat)


def reduce_two_loops(fterms, basis, po, p, keep=None):
    """groebner._reduce as it was with one subtraction loop per field:
    over Fp every new coefficient is taken mod p as it is formed, over
    QQ the step is fraction-free and the content is divided out every
    256 steps.  Same contract as _reduce."""
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
            groebner._check_multiple(po, k, g)
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
        if not steps & 255 or work >= groebner._STEP_WORK:
            work = 0
            groebner.check_deadline()
            if not p and not steps & 255:
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


# -- the expression parser on its own tokens -------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            break
        pos = m.end()
        num, name, sym = m.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif name is not None:
            out.append(("name", name))
        elif sym.strip():
            out.append(("sym", sym))
    out.append(("end", None))
    return out


class _ExprParser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_sym(self, sym):
        kind, val = self.next()
        if kind != "sym" or val != sym:
            raise ParseError("expected %r" % sym)

    def parse_expr(self):
        sign = 1
        kind, val = self.peek()
        if kind == "sym" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        acc = self.parse_term() * sign
        while True:
            kind, val = self.peek()
            if kind == "sym" and val in "+-":
                self.next()
                term = self.parse_term()
                acc = acc - term if val == "-" else acc + term
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "sym" and val == "*":
                self.next()
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self):
        base = self.parse_base()
        kind, val = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            kind, val = self.next()
            if kind != "num":
                raise ParseError("exponent must be an integer literal")
            if val > _MAXF:
                raise ParseError("exponent %d exceeds the limit %d"
                                 % (val, _MAXF))
            return base ** val
        return base

    def parse_base(self):
        kind, val = self.next()
        if kind == "num":
            k2, v2 = self.peek()
            if k2 == "sym" and v2 == "/":
                self.next()
                k3, v3 = self.next()
                if k3 != "num":
                    raise ParseError("expected integer denominator")
                return self.ring.const(Fraction(val, v3))
            return self.ring.const(val)
        if kind == "name":
            try:
                return self.ring.var(val)
            except KeyError:
                raise ParseError("unknown variable %r" % val) from None
        if kind == "sym" and val == "(":
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if kind == "sym" and val == "-":
            return -self.parse_factor()
        raise ParseError("unexpected token %r" % (val,))


def parse_on_own_tokens(ring, text):
    """PolyRing.parse as it was when each polynomial text was tokenized
    on its own, without comments, positions or a token length limit."""
    parser = _ExprParser(ring, _tokenize(text))
    try:
        value = parser.parse_expr()
    except ParseError:
        raise
    except ValueError as e:
        # a product past the degree limit
        raise ParseError(str(e)) from None
    kind, _ = parser.peek()
    if kind != "end":
        raise ParseError("trailing input in %r" % text)
    return value


def polar_quartic_data():
    """Named forms attached to the polar quartic fixture.

    Keys: ``q`` and ``c`` (the conic and cubic factors of the fixture's
    distinguished products), ``element`` (the saturation witness),
    ``extras`` (generator/weight pairs adjoined to the Rees algebra) and
    ``grade_witness`` (the ideal whose extension should have grade two in
    the presented subalgebra).
    """
    R = polar_quartic().ring
    q = R.parse("x1^2-x0*x2")
    c = R.parse("x2^2*x3")
    element = R.parse("x1^2+x2^2+x0*x3")
    extras = (
        (c * q, 2),
        (R.parse("x2*x3") * c, 2),
        (R.var("x1") * c * q * q, 3),
        (R.var("x2") * c * q * q * q, 4),
    )
    witness = Ideal(R, (element, R.parse("x1*x2*x3")))
    return {"q": q, "c": c, "element": element, "extras": extras,
            "grade_witness": witness}
