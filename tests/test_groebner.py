"""Groebner engine: bases, certificates, elimination, syzygies."""

import itertools
import json
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cremona import cli, fixtures, groebner, rees
from cremona.families import signed_minors, template_ideal
from cremona.groebner import (DeadlineExceeded, deadline, eliminate,
                              groebner_basis, syzygies)
from cremona.ideals import Ideal
from cremona.rees import jacobian_dual, rees_ideal
from cremona.groebner import _hilbert_numerator
from cremona.rings import (_MAXF, FormMatrix, GF, MonomialOrder, PolyRing,
                           QQ, _packed_order, transfer)

from oracles import (HilbertBoundOnTuples, eliminate_by_full_basis,
                     groebner_basis_queueing_monomial_pairs,
                     hilbert_numerator_by_bigatti, homogeneous_member,
                     interreduce_fully, matmul, minimal_columns,
                     poly_gcd_list, random_form, random_homogeneous_ideal,
                     reduce_two_loops, rees_minimal_generators,
                     syzygies_by_full_basis, update_by_divides)

R3 = PolyRing(("x0", "x1", "x2"), QQ)
# lex on R3: the block order of one variable per group
LEX = MonomialOrder.block(*zip(R3.names))


class TestBasis:
    def test_principal(self):
        gb = groebner_basis((R3.parse("2*x0^2 - 4*x1^2"),))
        assert [str(p) for p in gb.polys] == ["x0^2 - 2*x1^2"]

    def test_linear_reduction(self):
        gb = groebner_basis((R3.parse("x0"), R3.parse("x0 + x1")))
        assert sorted(str(p) for p in gb.polys) == ["x0", "x1"]

    def test_contains_generators(self):
        gens = (R3.parse("x0^2 + x1*x2"), R3.parse("x1^3 - x2^3"))
        gb = groebner_basis(gens)
        assert all(gb.contains(g) for g in gens)
        assert gb.contains(gens[0] * R3.parse("x2") + gens[1])
        assert not gb.contains(R3.parse("x0"))

    def test_certify(self):
        gens = (R3.parse("x0*x1 - x2^2"), R3.parse("x1^2 - x0*x2"))
        assert groebner_basis(gens).certify()

    def test_char_p(self):
        F = PolyRing(("x0", "x1"), GF(7))
        gb = groebner_basis((F.parse("3*x0^2 + x1"),))
        assert str(gb.polys[0].leading_coefficient()) == "1"

    def test_zero_ideal(self):
        gb = groebner_basis((R3.zero,), ring=R3)
        assert gb.polys == ()
        assert gb.contains(R3.zero)
        assert not gb.contains(R3.one)


    def test_exponent_overflow_rejected(self):
        # a polynomial past the limit cannot be formed at all
        x0, x1, _ = R3.gens
        with pytest.raises(ValueError, match="exceeds the limit"):
            f = x0 ** 2**23 * x1 + x1**2
            groebner_basis([f, x0**2])

    @pytest.mark.parametrize("n", (4194304, 5000000))
    def test_lex_tail_past_the_limit_rejected(self, n):
        # in lex (one variable per block) the tail x1^n outgrows the lead
        # x0, and reducing x0*x1^n by x0 - x1^n would form x1^(2n), past
        # the limit
        x0, x1, _ = R3.gens
        with pytest.raises(ValueError, match="exceeds the limit"):
            groebner_basis([x0 - x1**n, x0**2], order=LEX)

    def test_lex_tail_at_the_limit(self):
        x0, x1, _ = R3.gens
        n = 4194303
        gb = groebner_basis([x0 - x1**n, x0**2], order=LEX)
        assert [str(g) for g in gb.polys] == ["x1^8388606",
                                              "-x1^4194303 + x0"]
        assert gb.certify()


def _monomials(weights, d):
    """Exponent vectors of weighted degree d."""
    if not weights:
        return [()] if d == 0 else []
    w = weights[-1]
    return [e + (a,) for a in range(d // w + 1)
            for e in _monomials(weights[:-1], d - a * w)]


def _series_value(num, weights, d):
    """Coefficient of z^d in num(z) / prod(1 - z^w)."""
    return sum(c * len(_monomials(weights, d - k))
               for k, c in num.items() if k <= d)


def _count_spolys(monkeypatch):
    """Count the S-polynomials formed from now on, in count[0]."""
    count = [0]
    real_spoly = groebner._spoly

    def counting(*args):
        count[0] += 1
        return real_spoly(*args)

    monkeypatch.setattr(groebner, "_spoly", counting)
    return count


@st.composite
def weighted_ideals(draw):
    """Generators, each homogeneous for drawn positive weights, over QQ
    or GF(32003), with a drawn term order."""
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from((QQ, GF(32003))))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n,
                                  max_size=n)))
    order = draw(st.sampled_from((MonomialOrder.grevlex(),
                                  MonomialOrder.block(*zip(ring.names)),
                                  MonomialOrder.block(ring.names[:1],
                                                      ring.names[1:]))))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 6))
        mons = _monomials(weights, d)
        if not mons:
            continue
        picked = draw(st.lists(st.sampled_from(mons), min_size=1,
                               max_size=4, unique=True))
        gens.append(ring.from_terms(
            (e, draw(st.integers(-5, 5).filter(bool))) for e in picked))
    return ring, weights, order, gens


@st.composite
def numerator_inputs(draw):
    """Up to eight exponent vectors in one to six variables, zero vectors
    and variables among them, and positive weights."""
    n = draw(st.integers(1, 6))
    weights = tuple(draw(st.lists(st.integers(1, 5), min_size=n,
                                  max_size=n)))
    exps = st.tuples(*([st.integers(0, 4)] * n))
    special = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    special.append((0,) * n)
    gens = draw(st.lists(st.one_of(exps, exps, st.sampled_from(special)),
                         max_size=8))
    return gens, weights


@st.composite
def bound_inputs(draw):
    """A term order, weights, a sequence of leads and a target for the
    Hilbert bound, and for each lead the degrees of some pending pairs.

    The order, grevlex or a block order, lays out the fields the bound
    packs the leads in.  Leads have one to eight variables and exponents
    up to 6, with repeats, multiples and divisors of drawn leads among
    them, and a few pure powers near the field limit (a mixed one would
    send Bigatti's recursion, which lowers one exponent by one per colon,
    that deep).  The target is the numerator of the ideal of some of the
    leads."""
    n = draw(st.integers(1, 8))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), QQ)
    cut = draw(st.integers(0, n - 1))
    order = (MonomialOrder.block(ring.names[:cut], ring.names[cut:]) if cut
             else MonomialOrder.grevlex())
    weights = tuple(draw(st.lists(st.integers(1, 5), min_size=n,
                                  max_size=n)))
    small = st.integers(0, 6)
    leads = draw(st.lists(st.tuples(*([small] * n)), min_size=1,
                          max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.sampled_from(leads))
        shift = draw(st.tuples(*([st.integers(0, 2)] * n)))
        how = draw(st.sampled_from(("repeat", "multiple", "divisor")))
        if how == "multiple":
            e = tuple(a + b for a, b in zip(e, shift))
        elif how == "divisor":
            e = tuple(max(a - b, 0) for a, b in zip(e, shift))
        leads.append(e)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        top = draw(st.integers(_MAXF - 2, _MAXF))
        leads.append(tuple(top if j == i else 0 for j in range(n)))
    leads = draw(st.permutations(leads))
    subset = draw(st.lists(st.sampled_from(leads), max_size=len(leads)))
    target = hilbert_numerator_by_bigatti(subset, weights)
    pending = draw(st.lists(st.lists(st.integers(0, 12), max_size=4),
                            min_size=len(leads), max_size=len(leads)))
    return _packed_order(ring, order), weights, leads, target, pending


def _outcome(call):
    """call()'s value, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


class TestHilbertNumerator:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_standard_monomial_count(self, data):
        n = data.draw(st.integers(1, 4))
        weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n,
                                           max_size=n)))
        gens = data.draw(st.lists(
            st.tuples(*([st.integers(0, 3)] * n)), max_size=6))
        num = _hilbert_numerator(gens, weights)
        assert all(num.values())
        for d in range(13):
            standard = [e for e in _monomials(weights, d)
                        if not any(all(a <= b for a, b in zip(g, e))
                                   for g in gens)]
            assert _series_value(num, weights, d) == len(standard)

    def test_standard_grading_examples(self):
        # (x0^2, x0*x1): (1 + t - t^2) / (1 - t), so 1 - 2t^2 + t^3
        # over (1 - t)^2
        assert _hilbert_numerator([(2, 0), (1, 1)], (1, 1)) == {
            0: 1, 2: -2, 3: 1}
        assert _hilbert_numerator([], (1, 1)) == {0: 1}
        assert _hilbert_numerator([(0, 0), (1, 0)], (1, 1)) == {}
        # variables only: one factor 1 - z^w each
        assert _hilbert_numerator([(1, 0, 0), (0, 0, 1)], (2, 1, 3)) == {
            0: 1, 2: -1, 3: -1, 5: 1}

    @given(numerator_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_bigatti(self, drawn):
        # the base case by inclusion-exclusion against Bigatti's
        # recursion alone
        gens, weights = drawn
        assert (_hilbert_numerator(gens, weights)
                == hilbert_numerator_by_bigatti(gens, weights))

    def test_deadline_checked(self):
        # 600 random monomials of degree 8-16 in 14 variables: the
        # numerator takes about 2.6 s (2-vCPU host) without a check
        rng = random.Random(0)
        gens = []
        for _ in range(600):
            e = [0] * 14
            for _ in range(rng.randint(8, 16)):
                e[rng.randrange(14)] += 1
            gens.append(tuple(e))
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.05):
                _hilbert_numerator(gens, (1,) * 14)
        assert time.monotonic() - t0 < 0.5


class TestHilbertDriven:
    @given(weighted_ideals(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_same_basis_as_plain(self, drawn, bigger):
        ring, weights, order, gens = drawn
        plain = groebner_basis(gens, order=order, ring=ring)
        target = plain
        if bigger:
            # the series of a larger ideal bounds that of I from below
            extra = [ring.var(ring.names[-1]) ** 2]
            target = groebner_basis(gens + extra, order=order, ring=ring)
        series = (weights, _hilbert_numerator(target.leads, weights))
        gb = groebner_basis(gens, order=order, ring=ring, series=series)
        assert [str(p) for p in gb.polys] == [str(p) for p in plain.polys]
        assert gb.certify()

    def test_pairs_skipped(self, monkeypatch):
        # the Rees elimination of the r = 3 template at seed 0: 82 pairs
        # without the bound, 29 with it
        calls = []

        def spy(gens, drop, ring=None, series=None):
            calls.append((list(gens), drop, ring, series))
            return eliminate(gens, drop, ring=ring, series=series)

        monkeypatch.setattr(rees, "eliminate", spy)
        rees_ideal(template_ideal(3, 3, seed=0).ideal)
        monkeypatch.undo()
        (gens, drop, ring, series), = calls
        count = _count_spolys(monkeypatch)
        counts = []
        results = []
        for s in (None, series):
            count[0] = 0
            results.append(eliminate(gens, drop, ring=ring, series=s))
            counts.append(count[0])
        assert counts == [82, 29]
        assert [str(g) for g in results[0].polys] == [
            str(g) for g in results[1].polys]

    def test_composite_pairs_skipped(self, monkeypatch):
        # the Rees elimination of a quartic sigma o L o sigma, such as the
        # inverse workload draws, L = [[1, 1, -2], [0, 2, 1], [1, 0, 1]]:
        # 36 pairs without the bound, 13 with it
        calls = []

        def spy(gens, drop, ring=None, series=None):
            calls.append((list(gens), drop, ring, series))
            return eliminate(gens, drop, ring=ring, series=series)

        monkeypatch.setattr(rees, "eliminate", spy)
        rees_ideal(_sigma_l_sigma(0))
        monkeypatch.undo()
        (gens, drop, ring, series), = calls
        count = _count_spolys(monkeypatch)
        counts = []
        results = []
        for s in (None, series):
            count[0] = 0
            results.append(eliminate(gens, drop, ring=ring, series=s))
            counts.append(count[0])
        assert counts == [36, 13]
        assert [str(g) for g in results[0].polys] == [
            str(g) for g in results[1].polys]

    def test_target_above_the_ideal_raises(self):
        # the twisted cubic; the series of R itself is above that of R/I
        R4 = PolyRing(("x0", "x1", "x2", "x3"), QQ)
        gens = [R4.parse(g) for g in ("x0*x2 - x1^2", "x0*x3 - x1*x2",
                                      "x1*x3 - x2^2")]
        with pytest.raises(ValueError, match="exceeds that of the ideal"):
            groebner_basis(gens, series=((1, 1, 1, 1), {0: 1}))
        # the exact series is accepted
        exact = _hilbert_numerator(groebner_basis(gens).leads, (1,) * 4)
        assert groebner_basis(gens, series=((1,) * 4, exact)).certify()

    def test_input_checked_against_the_weights(self):
        gens = [R3.parse("x0^2 - x1")]
        with pytest.raises(ValueError, match="homogeneous for the weights"):
            groebner_basis(gens, series=((1, 1, 1), {0: 1, 2: -1}))
        gb = groebner_basis(gens, series=((1, 2, 1), {0: 1, 2: -1}))
        assert [str(p) for p in gb.polys] == ["x0^2 - x1"]
        with pytest.raises(ValueError, match="positive integers"):
            groebner_basis(gens, series=((1, 2, 0), {0: 1, 2: -1}))


class TestPackedBound:
    """_HilbertBound keeps its leads packed and builds colons by the
    borrow test; the reference builds them on exponent tuples."""

    @given(bound_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_bound(self, drawn):
        po, weights, leads, target, pending = drawn
        packed = groebner._HilbertBound(weights, target, po.shifts)
        tuples = HilbertBoundOnTuples(weights, target)
        for lead, degs in zip(leads, pending):
            d = sum(a * w for a, w in zip(lead, weights))
            # the exponent fields of the lead's key, as _Engine.add
            # hands them
            packed.add((po.encode(lead) & po.up) ^ po.up, d)
            tuples.add(lead, d)
            assert packed.num == tuples.num
            assert ([packed.missing(k) for k in range(13)]
                    == [tuples.missing(k) for k in range(13)])
            pairs = {(k, 0): (e, 0) for k, e in enumerate(degs)}
            mine = dict(pairs)
            for e in degs:
                assert (_outcome(lambda: packed.complete(e, mine))
                        == _outcome(lambda: tuples.complete(e, pairs)))
                assert mine == pairs


def _logged_run(update, run):
    """run() with _Engine.update replaced by update, logging the pending
    pairs and the alive flags after every update; (result, log, number
    of S-polynomials)."""
    log = []
    spolys = [0]
    real_spoly = groebner._spoly

    def logged(self, hidx):
        update(self, hidx)
        log.append((dict(self.pairs), [g.alive for g in self.elts]))

    def counting(*args):
        spolys[0] += 1
        return real_spoly(*args)

    with mock.patch.object(groebner._Engine, "update", logged), \
            mock.patch.object(groebner, "_spoly", counting):
        result = run()
    return result, log, spolys[0]


class TestPairUpdate:
    """_Engine.update writes the borrow test out; the reference calls
    PackedOrder.divides.  Both keep the same pairs after every update."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_update_by_divides(self, data):
        kind = data.draw(st.sampled_from(("basis", "eliminate",
                                          "syzygies")))
        if kind == "syzygies":
            mat = data.draw(graded_matrices())

            def run():
                return [_strs(row) for row in syzygies(mat).entries]
        else:
            ring, gens, drop, series = data.draw(elimination_inputs())

            def run():
                if kind == "basis":
                    return _strs(groebner_basis(gens, ring=ring,
                                                series=series).polys)
                return _strs(eliminate(gens, drop, ring=ring,
                                       series=series).polys)
        assert (_logged_run(groebner._Engine.update, run)
                == _logged_run(update_by_divides, run))


def _sigma_l_sigma(seed):
    """sigma o L o sigma over QQ, sigma the standard quadratic map and L
    the first invertible integer matrix with entries in [-2, 2] that
    random.Random(seed) draws and that leaves quartic forms once their
    common factor is divided out."""
    sigma = list(fixtures.standard_quadratic().spec.forms)
    ring = sigma[0].ring
    rng = random.Random(seed)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if not FormMatrix(ring, [[ring.one * c for c in row]
                                 for row in m]).det():
            continue
        inner = [sum((c * f for c, f in zip(row, sigma)), ring.zero)
                 for row in m]
        forms = [f.substitute(dict(zip(ring.names, inner)), ring=ring)
                 for f in sigma]
        common = poly_gcd_list(forms)
        forms = [f.exact_divide(common) for f in forms]
        if forms[0].homogeneous_degree() == 4:
            return Ideal(ring, forms)


class TestPairCriteria:
    def test_pinned_pair_count(self, monkeypatch):
        # a plain run (no Hilbert bound): the grevlex basis of the r = 3
        # template's Rees ideal, from its minimal generators, forms 19
        # S-polynomials; they are listed before the count starts
        P = rees_ideal(template_ideal(3, 3, seed=0).ideal)
        gens, _bidegrees = rees_minimal_generators(P)
        count = _count_spolys(monkeypatch)
        gb = groebner_basis(list(gens), ring=P.ambient)
        assert count[0] == 19
        assert len(gb) == 10


@st.composite
def monomials_and_binomials(draw):
    """Monomials and binomials of a ring of two to four variables over QQ
    or GF(32003), with a drawn term order."""
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from((QQ, GF(32003))))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    order = draw(st.sampled_from((MonomialOrder.grevlex(),
                                  MonomialOrder.block(*zip(ring.names)))))
    exps = st.tuples(*([st.integers(0, 3)] * n))
    coeffs = st.integers(-5, 5).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        picked = draw(st.lists(exps, min_size=1, max_size=2, unique=True))
        gens.append(ring.from_terms((e, draw(coeffs)) for e in picked))
    return ring, order, gens


class TestMonomialPairs:
    """A pair of two monomials has S-polynomial zero: the engine keeps
    it for the chain criterion and never forms it."""

    @pytest.mark.parametrize("ell", (2, 3))
    def test_monomial_power_forms_no_spolynomial(self, p4, monkeypatch,
                                                 ell):
        gens = list(p4.ideal.power(ell).gens)
        count = _count_spolys(monkeypatch)
        gb = groebner_basis(gens, ring=p4.ring)
        assert count[0] == 0
        assert len(gb) and all(len(g) == 1 for g in gb.polys)
        assert gb.certify()

    @given(monomials_and_binomials())
    @settings(max_examples=150, deadline=None)
    def test_same_basis_as_queueing_them(self, drawn):
        ring, order, gens = drawn
        gb = groebner_basis(gens, order=order, ring=ring)
        want = groebner_basis_queueing_monomial_pairs(gens, order=order,
                                                      ring=ring)
        assert [str(p) for p in gb.polys] == [str(p) for p in want.polys]
        assert gb.certify()


class TestMembershipOracle:
    def test_agreement_on_random_ideals(self):
        rng = random.Random(11)
        for _ in range(10):
            ring, gens = random_homogeneous_ideal(rng.randint(1, 3), rng)
            gb = groebner_basis(gens, ring=ring)
            for _ in range(4):
                probe = random_form(ring, rng.randint(1, 6), rng)
                assert gb.contains(probe) == homogeneous_member(
                    ring, gens, probe)
            inside = gens[0] * random_form(ring, 2, rng)
            assert gb.contains(inside)
            assert homogeneous_member(ring, gens, inside)


class TestElimination:
    def test_classical_twisted_curve(self):
        R = PolyRing(("t", "y", "z"), QQ)
        gb = eliminate((R.parse("t^2 - y"), R.parse("t^3 - z")), ("t",),
                       ring=R)
        assert gb.ring.names == ("y", "z")
        assert [str(p) for p in gb.polys] == ["y^3 - z^2"]

    def test_drop_everything_from_unit(self):
        gb = eliminate((R3.parse("x0 - 1"), R3.parse("x0")), ("x0",),
                       ring=R3)
        assert [str(p) for p in gb.polys] == ["1"]


class TestSyzygies:
    def test_product_is_zero(self):
        x0, x1, x2 = R3.gens
        m = FormMatrix(R3, [[x0 * x1, x1 * x2, x0 * x2]])
        s = syzygies(m)
        prod = matmul(m, s)
        assert all(not e for row in prod.entries for e in row)
        assert s.ncols >= 2

    def test_koszul_pair(self):
        x0, x1, _ = R3.gens
        m = FormMatrix(R3, [[x0, x1]])
        s = syzygies(m)
        cols = [tuple(s.entries[i][j] for i in range(2))
                for j in range(s.ncols)]
        assert any(a.normalized() == x1 and b.normalized() == x0
                   for a, b in cols)


def _column_degrees(s):
    return [max(s[i, j].homogeneous_degree() for i in range(s.nrows)
                if s[i, j]) for j in range(s.ncols)]


def _jacobian_dual_matrix(fx, field):
    ring = PolyRing(fx.ring.names, field)
    forms = tuple(ring.from_terms(f.items()) for f in fx.spec.forms)
    return jacobian_dual(rees_ideal(Ideal(ring, forms)))


def _proportional(u, v):
    cu = next(f for f in u if f).leading_coefficient()
    cv = next(f for f in v if f).leading_coefficient()
    return all(a * cv == b * cu for a, b in zip(u, v))


def _check_minimalization(monkeypatch, mat):
    """Run syzygies(mat), catching the candidate columns handed to the
    graded minimalization; the kept ones must be the dense oracle's."""
    seen = []
    real = groebner._minimal_subset

    def spy(po, cands):
        kept = real(po, cands)
        seen.append((po, cands, kept))
        return kept

    monkeypatch.setattr(groebner, "_minimal_subset", spy)
    s = syzygies(mat)
    monkeypatch.undo()
    (po, cands, kept), = seen
    ring, r, c = mat.ring, mat.nrows, mat.ncols
    graded = []
    for deg, terms in cands:
        parts = [{} for _ in range(c)]
        for k, v in terms.items():
            parts[po.component(k) - r][po.decode(k)] = v
        graded.append((deg, [ring.from_terms(p.items()) for p in parts]))
    assert kept == minimal_columns(ring, graded)
    assert s.ncols == len(kept)
    for j, i in enumerate(kept):
        assert _proportional([s[k, j] for k in range(c)], graded[i][1])
    return s, len(cands)


class TestSyzygyCrossChecks:
    # column degrees of the syzygies of each fixture's Jacobian dual, as
    # the earlier module Buchberger (no pair criteria) computed them
    PINNED = {
        "standard-quadratic": [2],
        "p4-monomial": [3],
        "polar-quartic": [3],
        "sub-hankel": [3],
        "noether": [2],
        "no-name": [2],
        "de-jonquieres": [3],
    }

    @pytest.mark.parametrize("fx", fixtures.all_fixtures(),
                             ids=lambda fx: fx.name)
    def test_jacobian_dual(self, fx):
        degrees = []
        for field in (QQ, GF(32003)):
            mat = _jacobian_dual_matrix(fx, field)
            s = syzygies(mat)
            assert all(not e for row in matmul(mat, s).entries for e in row)
            degrees.append(_column_degrees(s))
        assert degrees[0] == degrees[1] == self.PINNED[fx.name]

    @pytest.mark.parametrize("fx", fixtures.all_fixtures(),
                             ids=lambda fx: fx.name)
    def test_minimalization_oracle_jacobian_dual(self, fx, monkeypatch):
        for field in (QQ, GF(32003)):
            _check_minimalization(monkeypatch,
                                  _jacobian_dual_matrix(fx, field))

    def test_minimalization_oracle_shifted_rows(self, monkeypatch):
        # the two row degrees differ, so the sugar of a seed, its larger
        # row degree, is not the degree of its relation part; 2 x 3
        # matrices of rank 2 have one syzygy, the wider ones give
        # redundant candidates
        pruned = 0
        for seed in range(12):
            rng = random.Random(seed)
            ring = PolyRing(("x0", "x1", "x2"), (QQ, GF(32003))[seed % 2])
            ncols = (3, 4, 5)[seed % 3]
            mat = FormMatrix(ring, [[random_form(ring, d, rng, sparsity=0.3)
                                     for _ in range(ncols)]
                                    for d in rng.sample([1, 2, 3], 2)])
            s, ncands = _check_minimalization(monkeypatch, mat)
            assert all(not e for row in matmul(mat, s).entries for e in row)
            pruned += ncands - s.ncols
        assert pruned

    def test_mixed_degree_row_rejected(self):
        x0, x1, x2 = R3.gens
        # graded by column shifts, which rows of one degree rule out
        m = FormMatrix(R3, [[x0, x1 * x2], [R3.zero, x0 * x1], [x1, x2**2]])
        with pytest.raises(ValueError, match="row 0 of the matrix mixes"):
            syzygies(m)
        m = FormMatrix(R3, [[x0, x1, x2], [x0, R3.zero, x1 * x2]])
        with pytest.raises(ValueError, match="row 1 of the matrix mixes"):
            syzygies(m)

    def test_components_kept_apart(self):
        x0, x1, x2 = R3.gens
        # det = x0^2 - x1^2: the columns are independent, and an engine
        # dividing across components would invent relations
        assert syzygies(FormMatrix(R3, [[x0, x1], [x1, x0]])).ncols == 0
        m = FormMatrix(R3, [[x0, x1, R3.zero], [R3.zero, x0, x1]])
        s = syzygies(m)
        assert _column_degrees(s) == [2]
        assert [s[i, 0] for i in range(3)] == [x1**2, -x0 * x1, x0**2]


# the rationals, the prime of the fixture studies and a second large one
FIELDS = (QQ, GF(32003), GF(2147483647))


def _draw_poly(draw, ring, weights=None, degree=None):
    """A nonzero polynomial of up to four terms: of total degree at most
    2, or of the given degree for the weights."""
    if weights is None:
        mons = [e for e in itertools.product(range(3), repeat=ring.nvars)
                if sum(e) <= 2]
    else:
        mons = _monomials(weights, degree)
    picked = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4,
                           unique=True))
    return ring.from_terms(
        (e, draw(st.integers(-5, 5).filter(bool))) for e in picked)


@st.composite
def elimination_inputs(draw):
    """(ring, generators, drop, series) for eliminate: generators
    homogeneous for drawn weights, with no series, their exact one or
    that of a larger ideal; inhomogeneous ones; or the (I, 1 - t*f) of a
    saturation, t dropped."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(("homogeneous", "inhomogeneous",
                                 "saturation")))
    # inhomogeneous bases in block orders grow fast: at most three
    # variables, degree 2
    n = draw(st.integers(2, 4 if kind == "homogeneous" else 3))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    drop = draw(st.lists(st.sampled_from(ring.names), min_size=1,
                         max_size=n - 1, unique=True))
    if kind == "homogeneous":
        weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n,
                                      max_size=n)))
        degrees = [d for d in range(1, 6) if _monomials(weights, d)]
        gens = [_draw_poly(draw, ring, weights,
                           draw(st.sampled_from(degrees)))
                for _ in range(draw(st.integers(1, 4)))]
        target = draw(st.sampled_from((None, [], [ring.gens[-1] ** 2])))
        if target is None:
            return ring, gens, drop, None
        leads = groebner_basis(gens + target, ring=ring).leads
        return ring, gens, drop, (weights, _hilbert_numerator(leads, weights))
    gens = [_draw_poly(draw, ring) for _ in range(draw(st.integers(1, 3)))]
    if kind == "inhomogeneous":
        return ring, gens, drop, None
    aux = PolyRing(("t",) + ring.names, ring.field)
    f = transfer(_draw_poly(draw, ring), aux)
    gens = [transfer(g, aux) for g in gens] + [aux.one - aux.var("t") * f]
    return aux, gens, ["t"], None


@st.composite
def graded_matrices(draw):
    """A matrix with rows of one degree each: entry (i, j) zero or a form
    of degree c + s_i, one c per matrix."""
    field = draw(st.sampled_from(FIELDS))
    ring = PolyRing(tuple("x%d" % i for i in range(draw(st.integers(2, 3)))),
                    field)
    nrows = draw(st.integers(1, 2))
    ncols = draw(st.integers(2, 4))
    c = draw(st.integers(1, 3))
    rows = draw(st.lists(st.integers(0, 1), min_size=nrows, max_size=nrows))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return FormMatrix(ring, [[random_form(ring, c + s, rng, sparsity=0.4)
                              if draw(st.integers(0, 4)) else ring.zero
                              for _ in range(ncols)] for s in rows])


def _strs(polys):
    return [str(p) for p in polys]


class TestKeptPart:
    """eliminate and syzygies finish only the elements they keep; the
    oracles reduce the whole basis fully and keep the part afterwards."""

    @given(elimination_inputs())
    @settings(max_examples=300, deadline=None)
    def test_eliminate_matches_full_basis(self, drawn):
        ring, gens, drop, series = drawn
        gb = eliminate(gens, drop, ring=ring, series=series)
        osub, opolys = eliminate_by_full_basis(gens, drop, ring=ring,
                                               series=series)
        assert gb.ring.names == osub.names
        assert _strs(gb.polys) == _strs(opolys)

    @given(graded_matrices())
    @settings(max_examples=200, deadline=None)
    def test_syzygies_match_full_basis(self, mat):
        s, oracle = syzygies(mat), syzygies_by_full_basis(mat)
        assert s.ncols == oracle.ncols
        assert ([_strs(row) for row in s.entries]
                == [_strs(row) for row in oracle.entries])

    @pytest.mark.parametrize("fx", fixtures.all_fixtures(),
                             ids=lambda fx: fx.name)
    def test_jacobian_duals_match_full_basis(self, fx):
        for field in FIELDS:
            mat = _jacobian_dual_matrix(fx, field)
            assert ([_strs(row) for row in syzygies(mat).entries]
                    == [_strs(row)
                        for row in syzygies_by_full_basis(mat).entries])


def _interreduced_sizes(monkeypatch):
    """Record the number of elements each _interreduce call gets."""
    sizes = []
    real = groebner._interreduce

    def spy(dicts, po):
        sizes.append(len(dicts))
        return real(dicts, po)

    monkeypatch.setattr(groebner, "_interreduce", spy)
    return sizes


class TestKeptPartCost:
    def test_rees_elimination_interreduces_the_kept_part(self, monkeypatch):
        # the Rees elimination of the r = 3 template at seed 0: of the 29
        # elements of the block basis, the 19 with t are not interreduced
        calls = []

        def spy(gens, drop, ring=None, series=None):
            calls.append((list(gens), drop, ring, series))
            return eliminate(gens, drop, ring=ring, series=series)

        monkeypatch.setattr(rees, "eliminate", spy)
        rees_ideal(template_ideal(3, 3, seed=0).ideal)
        (gens, drop, ring, series), = calls
        sizes = _interreduced_sizes(monkeypatch)
        gb = eliminate(gens, drop, ring=ring, series=series)
        assert sizes == [10] and len(gb.polys) == 10
        del sizes[:]
        eliminate_by_full_basis(gens, drop, ring=ring, series=series)
        assert sizes == [29]

    def test_syzygies_interreduce_the_relation_components(self,
                                                          monkeypatch):
        # the polar quartic's Jacobian dual: the module basis has 9
        # elements, and only the one in the relation components is
        # interreduced
        fx, = (fx for fx in fixtures.all_fixtures()
               if fx.name == "polar-quartic")
        mat = _jacobian_dual_matrix(fx, QQ)
        sizes = _interreduced_sizes(monkeypatch)
        assert syzygies(mat).ncols == 1
        assert sizes == [1]
        del sizes[:]
        syzygies_by_full_basis(mat)
        assert sizes == [9]

    def test_inhomogeneous_elimination_reduces_every_tail(self,
                                                         monkeypatch):
        # a saturation's (I, 1 - t*f) is not homogeneous, and there the
        # tails decide the leads: left unreduced outside the kept part,
        # they made this run form 370 S-polynomials instead of 309 and
        # take five times as long
        R = PolyRing(("t", "x0", "x1", "x2", "x3"), GF(32003))
        gens = [R.parse(g) for g in (
            "5*x0*x1*x2^2 + 2*x1^2*x2^2 - x0*x1",
            "-4*x0^2*x1^2*x2*x3^2 + 2*x0*x1^2*x2*x3 + 2*x1^2*x2*x3^2"
            " + 5*x0^2*x2*x3",
            "-x1*x2^2*x3 - x0^2*x2",
            "1 - 3*t*x0^2*x1^2*x2^2*x3^2")]
        count = _count_spolys(monkeypatch)
        gb = eliminate(gens, ["t"], ring=R)
        assert count[0] == 309 and len(gb.polys) == 11


# the fields of the reduction kernel's reference checks, the largest
# prime below 2^61 among them
KERNEL_FIELDS = (GF(2), GF(3), GF(32003), GF(2**61 - 1), QQ)


def _normal(terms, p):
    """A remainder's canonical form, {} for zero."""
    return groebner._normalize(terms, p) if terms else {}


def _basis_elements(po, dicts):
    """Engine elements of normalized term dicts, ascending lead keys."""
    out = []
    for t in sorted(dicts, key=max):
        key = max(t)
        out.append(groebner._Elt(key, t, po.tdeg(key), 0, len(out), po))
    return out


@st.composite
def reduction_inputs(draw):
    """A field, the packed order of a ring in three variables over it, a
    random normalized basis and a term dict to reduce, its coefficients
    in (-p, p) over Fp as an S-polynomial's are."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    p = field.characteristic
    po = PolyRing(("x0", "x1", "x2"), field)._packed
    bound = p - 1 if p else 50
    coeffs = st.integers(-bound, bound).filter(bool)
    exps = st.tuples(*[st.integers(0, 3)] * 3)

    def terms(most):
        d = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=most))
        return {po.encode(e): c for e, c in d.items()}

    basis = [groebner._normalize(terms(5), p)
             for _ in range(draw(st.integers(1, 4)))]
    return (po, p, _basis_elements(po, basis), terms(12),
            draw(st.integers(2, 5)))


class TestOneReductionStep:
    """The kernel runs one fraction-free step for both fields; the
    reference takes every new coefficient mod p over Fp.  Both give the
    same remainder up to a nonzero factor."""

    @given(reduction_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_loops(self, drawn):
        po, p, basis, f, m = drawn
        for keep in (None, lambda k: k % m != 0, lambda k: False):
            old = reduce_two_loops(dict(f), basis, po, p, keep)
            new = groebner._reduce(dict(f), basis, po, p, keep)
            assert _normal(new, p) == _normal(old, p)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
    def test_long_reduction_matches_two_loops(self, field, monkeypatch):
        # c * g + r with c of 364 terms takes more than 256 steps, so
        # over Fp the remainder is taken mod p once on the way
        R = PolyRing(("x0", "x1", "x2", "x3"), field)
        rng = random.Random(1)
        top = field.characteristic or 1000

        def form(d, count=None):
            mons = list(R.monomials_of_degree(d))
            return R.from_terms((e, rng.randrange(1, top))
                                for e in mons[:count])

        g = form(2)
        gb = groebner_basis([g], ring=R)
        po, p = gb._po, field.characteristic
        checks = []
        monkeypatch.setattr(groebner, "check_deadline",
                            lambda: checks.append(None))
        f = form(11) * g + form(13, 40)
        old = reduce_two_loops(dict(groebner._terms(po, f)), gb._elts, po,
                               p)
        new = groebner._reduce(dict(groebner._terms(po, f)), gb._elts, po,
                               p)
        assert new and _normal(new, p) == _normal(old, p)
        assert checks
        assert gb.contains(form(11) * g)


def _replay(stem, field):
    """Records of a bundled session with its ring taken over field."""
    source = cli.corpus_dir().joinpath(stem + ".session").read_text(
        encoding="utf-8")
    return cli.run_script(cli.parse_session(
        source.replace("QQ[", field.label + "[")))


CORPUS = sorted(p.name[:-len(".session")] for p in cli.corpus_dir().iterdir()
                if p.name.endswith(".session"))
PINNED = Path(__file__).parent / "data"


class TestCorpusOverPrimeFields:
    """The bundled sessions with QQ[ replaced by Fp(p)[, against records
    pinned under tests/data before both fields shared one reduction
    step (elapsed_ms left out)."""

    @pytest.mark.parametrize("p", [32003, 2**61 - 1])
    @pytest.mark.parametrize("stem", CORPUS)
    def test_matches_pinned(self, stem, p):
        want = [json.loads(line) for line in PINNED.joinpath(
            "%s.fp%d.jsonl" % (stem, p)).read_text().splitlines()]
        assert [{k: v for k, v in rec.items() if k != "elapsed_ms"}
                for rec in _replay(stem, GF(p))] == want


class TestNormalizedOnce:
    """The engine's canonical form is the only normalization a basis
    gets: a GroebnerBasis wraps its elements as they come, and an
    interreduction normalizes only the remainders of the tails it
    reduces."""

    def test_normalize_calls(self, monkeypatch):
        # every dict _normalize returned, kept alive so that no id is
        # reused; none of them is normalized again
        calls = []
        twice = []
        normalize = groebner._normalize

        def spy_normalize(t, p):
            twice.append(any(t is s for s in calls))
            out = normalize(t, p)
            calls.append(out)
            return out

        monkeypatch.setattr(groebner, "_normalize", spy_normalize)
        interreduced = []
        interreduce = groebner._interreduce

        def spy_interreduce(elts, po):
            before = len(calls)
            out = interreduce(elts, po)
            interreduced.append((len(calls) - before, len(out)))
            return out

        monkeypatch.setattr(groebner, "_interreduce", spy_interreduce)
        wrapped = []
        init = groebner.GroebnerBasis.__init__

        def spy_init(self, po, source, dicts):
            before = len(calls)
            init(self, po, source, dicts)
            wrapped.append(len(calls) - before)

        monkeypatch.setattr(groebner.GroebnerBasis, "__init__", spy_init)
        for field in (QQ, GF(32003)):
            for stem in ("standard-quadratic", "sub-hankel"):
                assert all(rec["status"] == "ok"
                           for rec in _replay(stem, field))
        assert wrapped and not any(wrapped)
        assert twice and not any(twice)
        assert interreduced and all(n <= m for n, m in interreduced)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_wrapped_elements_are_normalized(self, field, monkeypatch):
        seen = []
        init = groebner.GroebnerBasis.__init__

        def checking_init(self, po, source, dicts):
            dicts = list(dicts)
            p = po.ring.field.characteristic
            seen.extend(groebner._normalize(dict(t), p) == t for t in dicts)
            init(self, po, source, dicts)

        monkeypatch.setattr(groebner.GroebnerBasis, "__init__",
                            checking_init)
        for stem in CORPUS:
            _replay(stem, field)
        assert seen and all(seen)


class TestSettledTails:
    """_interreduce reduces a tail only when a lead of another element
    divides a term of it; it returns what the full interreduction
    returns."""

    @staticmethod
    def _checked(verdicts):
        """_interreduce, appending to verdicts whether each call agrees
        with the full interreduction of its input."""
        real = groebner._interreduce

        def checked(elts, po):
            out = real(elts, po)
            verdicts.append(out == interreduce_fully(elts, po))
            return out

        return mock.patch.object(groebner, "_interreduce", checked)

    @given(elimination_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bases_match_full_interreduction(self, drawn):
        # eliminate keeps a part (graded on homogeneous input), and a
        # Bayer basis is a GroebnerBasis with no engine history
        ring, gens, drop, series = drawn
        verdicts = []
        with self._checked(verdicts):
            eliminate(gens, drop, ring=ring, series=series)
            gb = groebner_basis(gens, ring=ring)
            if all(g.is_homogeneous() for g in gens):
                groebner._reduced_grevlex(
                    groebner._divide_out(gb, ring.nvars - 1))
        assert verdicts and all(verdicts)

    @given(graded_matrices())
    @settings(max_examples=60, deadline=None)
    def test_syzygies_match_full_interreduction(self, mat):
        verdicts = []
        with self._checked(verdicts):
            syzygies(mat)
        assert verdicts and all(verdicts)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_reduced_basis_is_not_reduced_again(self, monkeypatch, field):
        # the bases of two intersections, one by elimination and one by
        # lcms, come back from _reduced_grevlex with no reduction; a
        # basis whose tail a lead divides is reduced
        ring = PolyRing(("x0", "x1", "x2"), field)
        x0, x1, x2 = ring.gens
        quadrics = Ideal(ring, [x0 * x1 - x2**2, x1**2 - x0 * x2])
        bases = [quadrics.intersect(Ideal(ring, [x0])).groebner(),
                 Ideal(ring, [x0**2, x1 * x2]).intersect(
                     Ideal(ring, [x0 * x1, x2**3])).groebner()]
        calls = []
        reduce = groebner._reduce
        monkeypatch.setattr(groebner, "_reduce",
                            lambda *a, **k: calls.append(None)
                            or reduce(*a, **k))
        for gb in bases:
            assert _strs(groebner._reduced_grevlex(gb).polys) == _strs(
                gb.polys)
        assert not calls
        po = ring._packed
        k0, k1 = po.encode((1, 0, 0)), po.encode((0, 1, 0))
        again = groebner._reduced_grevlex(
            groebner.GroebnerBasis(po, None, [{k1: 1}, {k0: 1, k1: 1}]))
        assert len(calls) == 1 and _strs(again.polys) == ["x1", "x0"]


class TestDeadline:
    def test_budget_exhausts(self):
        R = PolyRing(tuple("x%d" % k for k in range(6)), QQ)
        rng = random.Random(3)
        gens = tuple(random_form(R, 3, rng) for _ in range(5))
        with pytest.raises(DeadlineExceeded):
            with deadline(1e-4):
                groebner_basis(gens, ring=R)

    def test_syzygies_budget_exhausts(self):
        # the relations among the signed minors of the Alberich matrix,
        # which give the matrix back
        M = fixtures.alberich_matrix()
        row = FormMatrix(M.ring, [list(signed_minors(M))])
        with pytest.raises(DeadlineExceeded):
            with deadline(1e-4):
                syzygies(row)

    def test_few_steps_on_long_coefficients(self):
        # eliminating x0 and x2 here builds coefficients of over 100k bits
        # within a second; a single reduction then takes seconds in a few
        # dozen steps, never reaching a 256-step check
        gens = [R3.parse(t) for t in (
            "-3*x0^2*x1 - 4*x0*x2^2 - x0*x2", "x0^3 + 2*x1^2",
            "2*x0^3 - 3*x0*x1^2 + 4*x0*x1*x2 + x2")]
        t0 = time.process_time()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.5):
                eliminate(gens, ["x0", "x2"], ring=R3)
        assert time.process_time() - t0 < 2.5

    @pytest.mark.parametrize("degree, checks", [(28, 20), (3, 0)])
    def test_checks_by_reducer_terms(self, monkeypatch, degree, checks):
        # f = c*g reduces to zero by g in one step per term of c; each
        # step by the 4495 terms of a degree-28 form in four variables
        # checks the deadline, steps by a 20-term cubic check none before
        # step 256
        R = PolyRing(("x0", "x1", "x2", "x3"), GF(32003))
        rng = random.Random(0)
        g = R.from_terms((e, rng.randrange(1, 32003))
                         for e in R.monomials_of_degree(degree))
        c = R.from_terms((e, 1) for e in itertools.islice(
            R.monomials_of_degree(4), 20))
        gb = groebner_basis([g], ring=R)
        calls = []
        monkeypatch.setattr(groebner, "check_deadline",
                            lambda: calls.append(None))
        assert gb.contains(c * g)
        assert len(calls) == checks

    def test_checks_by_coefficient_words(self, monkeypatch):
        # over QQ a step costs its reducer's length times the 64-bit words
        # of the coefficient it cancels: each of the 20 steps by a 64-term
        # form with 4096-bit coefficients checks the deadline
        R = PolyRing(("x0", "x1", "x2", "x3"), QQ)
        rng = random.Random(0)
        g = R.from_terms((e, rng.randrange(1 << 4095, 1 << 4096))
                         for e in itertools.islice(
                             R.monomials_of_degree(6), 64))
        c = R.from_terms((e, 1) for e in itertools.islice(
            R.monomials_of_degree(4), 20))
        gb = groebner_basis([g], ring=R)
        calls = []
        monkeypatch.setattr(groebner, "check_deadline",
                            lambda: calls.append(None))
        assert gb.contains(c * g)
        assert len(calls) == 20

    def test_zero_means_no_limit(self):
        with deadline(0):
            gb = groebner_basis((R3.parse("x0"),))
        assert gb.contains(R3.parse("x0"))
