"""Ideal arithmetic: products, colons, saturation, Hilbert data."""

import math
import random
import time
from itertools import combinations_with_replacement

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cremona import groebner, ideals
from cremona.families import template_ideal
from cremona.fixtures import all_fixtures
from cremona.groebner import DeadlineExceeded, deadline
from cremona.ideals import Ideal
from cremona.rees import rees_ideal, subalgebra_presentation
from cremona.rings import FormMatrix, GF, PolyRing, QQ
from cremona.symbolic import SaturationTarget, SymbolicFiltration

from oracles import (intersect_by_elimination, minimal_generators,
                     power_gens, radical_contains, random_form,
                     random_homogeneous_ideal,
                     same_hilbert_polynomial, saturate_by_every_variable,
                     saturate_by_quotients, span_dimension)

R2 = PolyRing(("x0", "x1"), QQ)
R3 = PolyRing(("x0", "x1", "x2"), QQ)


def ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


def count_calls(monkeypatch):
    """Counts of groebner_basis, eliminate and Ideal.intersect calls from
    here on, in a dict that the spies keep current."""
    calls = {"eliminate": 0, "groebner_basis": 0, "intersect": 0}
    for name in ("eliminate", "groebner_basis"):
        original = getattr(groebner, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (groebner, ideals):
            monkeypatch.setattr(module, name, spy)
    original = Ideal.intersect

    def intersect(self, other):
        calls["intersect"] += 1
        return original(self, other)

    monkeypatch.setattr(Ideal, "intersect", intersect)
    return calls


def _strs(polys):
    return [str(g) for g in polys]


def _listing(want, grew):
    """How saturate lists the oracle's saturation want: by its reduced
    grevlex basis when it grew, else as the ideal it was given."""
    return _strs(want.groebner().polys if grew else want.gens)


def fixture(name):
    return next(fx for fx in all_fixtures() if fx.name == name)


class TestBasics:
    def test_power(self):
        I = ideal(R2, "x0", "x1")
        sq = I.power(2)
        expect = ideal(R2, "x0^2", "x0*x1", "x1^2")
        assert sq == expect

    def test_power_matches_brute_products(self):
        rng = random.Random(5)
        for _ in range(5):
            ring, gens = random_homogeneous_ideal(rng.randint(2, 3), rng,
                                                  max_gens=3, max_deg=2)
            I = Ideal(ring, gens)
            assert I.power(2) == Ideal(ring, power_gens(gens, 2))

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_power_forms_the_textbook_products_in_order(self, field,
                                                         monkeypatch):
        # the products of powers of distinct factors are those of
        # combinations_with_replacement, in its order
        seen = []
        monkeypatch.setattr(Ideal, "_from_products", lambda self, lists:
                            seen.append(tuple(map(math.prod, lists))))
        rng = random.Random(11)
        ring = PolyRing(("x0", "x1", "x2"), field)
        for _ in range(4):
            I = Ideal(ring, [random_form(ring, rng.randint(1, 2), rng)
                             for _ in range(rng.randint(1, 4))])
            for ell in range(2, 5):
                del seen[:]
                I.power(ell)
                assert seen == [power_gens(I.gens, ell)]

    def test_sum_and_product(self):
        I = ideal(R2, "x0")
        J = ideal(R2, "x1")
        assert (I + J) == ideal(R2, "x0", "x1")
        assert (I * J) == ideal(R2, "x0*x1")

    def test_contains_ideal(self):
        I = ideal(R2, "x0", "x1")
        J = ideal(R2, "x0^2", "x0*x1")
        assert all(map(I.contains, J.gens))
        assert not all(map(J.contains, I.gens))

    def test_unit_and_zero(self):
        assert ideal(R2, "1").is_unit()
        assert Ideal(R2, ()).is_zero()
        assert not ideal(R2, "x0").is_unit()


class TestColonAndIntersection:
    def test_quotient(self):
        I = ideal(R2, "x0*x1")
        assert I.quotient(ideal(R2, "x0")) == ideal(R2, "x1")

    def test_intersect(self):
        assert (ideal(R2, "x0").intersect(ideal(R2, "x1"))
                == ideal(R2, "x0*x1"))

    def test_saturate_reaches_unit(self):
        I = ideal(R2, "x0^2", "x0*x1")
        sat, grew = I.saturate(ideal(R2, "x0"))
        assert sat.is_unit()
        assert grew

    def test_saturate_strips_primary_part(self):
        I = ideal(R3, "x0^2*x2", "x0^2*x1")
        sat, _ = I.saturate(ideal(R3, "x1", "x2"))
        assert sat == ideal(R3, "x0^2")


@st.composite
def monomial_ideal_pairs(draw):
    """Two monomial ideals of a ring of three to five variables over QQ
    or GF(32003): terms with coefficients other than 1, some repeated or
    a multiple of another, and at times the unit ideal."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    n = draw(st.integers(3, 5))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    exps = st.tuples(*([st.integers(0, 3)] * n))
    coeffs = st.integers(-7, 7).filter(bool)

    def side():
        gens = [ring.from_terms([(e, draw(coeffs))])
                for e in draw(st.lists(exps, min_size=1, max_size=4))]
        extra = draw(st.sampled_from(("none", "repeat", "multiple", "unit")))
        if extra == "repeat":
            gens.append(gens[0])
        elif extra == "multiple":
            gens.append(gens[0] * ring.gens[draw(st.integers(0, n - 1))])
        elif extra == "unit":
            gens.append(ring.one * draw(coeffs))
        return Ideal(ring, draw(st.permutations(gens)))

    return side(), side()


class TestMonomialIntersection:
    """Two monomial ideals intersect by the minimal lcms of their
    generator pairs; the oracle eliminates as for any other ideals."""

    @given(monomial_ideal_pairs())
    @settings(max_examples=120, deadline=None)
    def test_matches_elimination(self, pair):
        I, J = pair
        both = I.intersect(J)
        want = _strs(intersect_by_elimination(I, J).polys)
        assert _strs(both.gens) == want
        assert _strs(both.groebner().polys) == want

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_mixed_ideals_eliminate(self, monkeypatch, field):
        ring = PolyRing(("x0", "x1", "x2"), field)
        I = ideal(ring, "3*x0^2*x1", "x1*x2^2")
        J = ideal(ring, "x0*x2 - 2*x1^2")
        calls = count_calls(monkeypatch)
        both = I.intersect(J)
        assert calls["eliminate"] == 1
        assert _strs(both.gens) == _strs(intersect_by_elimination(I, J).polys)

    def test_deadline_checked(self):
        # degree-10 monomials in x0..x2 and in x3..x5: all 66^2 lcms are
        # minimal, and keeping them takes about 3 s (2-vCPU host) of
        # divisibility tests, with a check before each lcm
        ring = PolyRing(tuple("x%d" % i for i in range(6)), QQ)
        I, J = (Ideal(ring, [ring.parse("*".join(c)) for c in
                             combinations_with_replacement(names, 10)])
                for names in (ring.names[:3], ring.names[3:]))
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.05):
                I.intersect(J)
        assert time.monotonic() - t0 < 0.5


@st.composite
def saturation_cases(draw):
    """An ideal and a saturation target over QQ or GF(32003).

    Targets: the irrelevant ideal, a user ideal of one or of two or three
    generators, or a user element.  Generators of the ideal are random
    forms, target generators times random forms (a nontrivial
    saturation) and powers of target generators (a unit result);
    in two variables, a generator of degree 2 or 3 sometimes gets a
    random lower-degree tail, which sends the saturation down the
    elimination route.
    """
    field = draw(st.sampled_from((QQ, GF(32003))))
    n = draw(st.integers(2, 3))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("irrelevant", "ideal-1", "ideal-2",
                                 "element")))
    if kind == "irrelevant":
        tgens = ring.gens
    else:
        count = {"ideal-2": rng.randint(2, 3)}.get(kind, 1)
        tgens = tuple(random_form(ring, rng.randint(1, 2), rng)
                      for _ in range(count))
    gens = []
    for part in draw(st.lists(st.sampled_from(("form", "multiple", "power")),
                              min_size=1, max_size=3)):
        f = rng.choice(tgens)
        if part == "form":
            g = random_form(ring, rng.randint(1, 3), rng)
        elif part == "multiple":
            g = f * random_form(ring, rng.randint(1, 2), rng)
        else:
            g = f ** rng.randint(1, 3)
        # tails only in two variables and low degrees: over QQ both
        # routes can run for minutes on inhomogeneous ternary cubics
        if n == 2 and 1 < g.degree() < 4 and draw(st.booleans()):
            g = g + random_form(ring, rng.randint(0, g.degree() - 1), rng)
        gens.append(g)
    target = tgens[0] if kind == "element" else Ideal(ring, tgens)
    return Ideal(ring, gens), target


class TestSaturation:
    @given(saturation_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_iterated_quotients(self, case):
        I, J = case
        got, grew = I.saturate(J)
        want, t = saturate_by_quotients(I, J)
        assert grew == (t > 0)
        assert got == want
        assert _strs(got.gens) == _listing(want, grew)

    @pytest.mark.parametrize("fx", all_fixtures(), ids=lambda fx: fx.name)
    def test_fixture_level_two_as_iterated_quotients(self, fx):
        ring = fx.ring
        J = (fx.target.payload if fx.target is not None
             else Ideal(ring, ring.gens))
        P = fx.ideal.power(2)
        got, grew = P.saturate(J)
        want, t = saturate_by_quotients(P, J)
        assert grew == (t > 0)
        assert _strs(got.gens) == _listing(want, grew)

    def test_deadline_checked(self):
        I = template_ideal(3, 3, seed=0).ideal
        P = I.power(4)
        m = Ideal(I.ring, I.ring.gens)
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.01):
                P.saturate(m)
        # the checks sit between bases, before each seed's reduction and
        # each element's interreduction, in every S-pair and every 256
        # reduction steps, which the membership pass for the grew flag
        # runs too; the overrun measured 1-2 ms, while the whole call
        # takes about 5 s (2-vCPU host, CPU time)
        assert time.monotonic() - t0 < 0.1

    def test_bases_per_level_two(self, monkeypatch):
        """Cost guard: the base's basis (its unit check) and the power's
        grevlex basis, whose Bayer saturation by the last variable the
        two lead sets certify; no elimination.  One basis per
        variable took 4 bases, iterated colons 15 eliminations and 19
        bases (those inside the eliminations included) here."""
        calls = count_calls(monkeypatch)
        inst = template_ideal(3, 2, seed=0)
        SymbolicFiltration(inst.ideal).level(2)
        assert calls == {"eliminate": 0, "groebner_basis": 2, "intersect": 0}

    def test_uncertified_level_stops_at_first_certified_intersection(
            self, monkeypatch):
        """Cost guard: the Noether map's square has a component on
        x3 = 0, so its saturation K_3 by x3 exceeds the power by more
        than a module of finite length and the lead-set certificate
        fails, naming x0, x1 and x2.  The level then takes the base's
        basis, the power's, x0's Bayer basis and one intersection of
        K_3 and K_0, which the certificate accepts; x1's and x2's bases
        are never built (taking every variable took 5 bases and 2
        intersections)."""
        base = fixture("noether").ideal
        calls = count_calls(monkeypatch)
        F = SymbolicFiltration(base)
        P = F.power(2)
        level = F.level(2)
        gb = P._saturation(P.ring.gens[-1])
        assert ideals._failing_variables(gb.leads, P.groebner().leads,
                                         P.ring.nvars) == [0, 1, 2]
        assert calls == {"eliminate": 1, "groebner_basis": 3, "intersect": 1}
        want, _ = saturate_by_quotients(P, Ideal(P.ring, P.ring.gens))
        assert [str(g) for g in level.gens] == [str(g) for g in want.gens]

    def test_sub_hankel_level_four_takes_no_elimination(self, monkeypatch):
        """Cost guard: K_3 of the sub-Hankel fourth power fails the
        certificate, naming x0 and x1, and x0's Bayer basis lies in it
        and passes; the bases are the base's, the power's, x0's and the
        reduced grevlex basis of the level, converted from x0's order.
        Taking every variable took 6 bases, x1's and x2's among them."""
        base = fixture("sub-hankel").ideal
        calls = count_calls(monkeypatch)
        F = SymbolicFiltration(base)
        P = F.power(4)
        F.level(4)
        gb = P._saturation(P.ring.gens[-1])
        assert ideals._failing_variables(gb.leads, P.groebner().leads,
                                         P.ring.nvars) == [0, 1]
        assert calls == {"eliminate": 0, "groebner_basis": 4, "intersect": 0}
        # the variables in reverse order are m too and take the same
        # steps; the target's own basis (its unit check) is left out
        ring = P.ring
        target = SaturationTarget.ideal(Ideal(ring, ring.gens[::-1]))
        want = dict(calls), [str(g) for g in F.level(4).gens]
        calls.update(dict.fromkeys(calls, 0))
        level = SymbolicFiltration(fixture("sub-hankel").ideal,
                                   target).level(4)
        assert (calls, [str(g) for g in level.gens]) == want

    @pytest.mark.parametrize("ell", [2, 3])
    def test_p4_monomial_levels_by_an_ideal(self, monkeypatch, ell):
        """Cost guard for a target other than m: p4-monomial's five
        products of two variables, taken in reverse order.  Each takes
        two Bayer steps, the first from the power's basis with x0, x1 or
        x2 last (three bases, shared through the cache) and the second
        its own basis (five); each of the last four saturations is
        intersected in, all of them monomial ideals, so by the lcms of
        their generator pairs and with no elimination, and the power's
        grevlex basis settles whether the level grew."""
        fx = fixture("p4-monomial")
        F = SymbolicFiltration(fx.ideal, fx.target)
        P = F.power(ell)
        calls = count_calls(monkeypatch)
        level = F.level(ell)
        assert calls == {"eliminate": 0, "groebner_basis": 9, "intersect": 4}
        want, _ = saturate_by_quotients(P, fx.target.payload)
        assert [str(g) for g in level.gens] == [str(g) for g in want.gens]


@st.composite
def homogeneous_cases(draw):
    """A homogeneous ideal over QQ or GF(32003) in two or three
    variables: random forms, some of them times a power of a variable
    (an m-primary or embedded part), and sometimes all of them times one
    variable, which adds a hypersurface component on which that variable
    vanishes; for the last variable that sends saturate down the
    per-variable path."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    n = draw(st.integers(2, 3))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    rng = draw(st.randoms(use_true_random=False))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = random_form(ring, rng.randint(1, 2), rng)
        if draw(st.booleans()):
            g = g * ring.gens[rng.randrange(n)] ** rng.randint(1, 2)
        gens.append(g)
    scale = draw(st.sampled_from((None, 0, n - 1)))
    if scale is not None:
        gens = [ring.gens[scale] * g for g in gens]
    return Ideal(ring, gens)


class TestIrrelevantSaturation:
    @given(homogeneous_cases())
    @settings(max_examples=50, deadline=None)
    def test_matches_iterated_quotients(self, I):
        m = Ideal(I.ring, I.ring.gens)
        got, grew = I.saturate(m)
        want, t = saturate_by_quotients(I, m)
        assert grew == (t > 0)
        assert [str(g) for g in got.gens] == [str(g) for g in want.gens]

    @given(homogeneous_cases())
    @settings(max_examples=50, deadline=None)
    def test_lead_certificate_matches_hilbert_polynomial(self, I):
        gb = I._saturation(I.ring.gens[-1])
        leads = I.groebner().leads
        assert (not ideals._failing_variables(gb.leads, leads, I.ring.nvars)
                == same_hilbert_polynomial(gb.leads, leads, I.ring.nvars))

    def test_hypersurface_component_falls_back(self):
        I = ideal(R3, "x2*x0^2 - x2*x1^2", "x2*x0*x1")
        gb = I._saturation(R3.var("x2"))
        assert ideals._failing_variables(gb.leads, I.groebner().leads, 3)
        sat, grew = I.saturate(Ideal(R3, R3.gens))
        assert (sat, grew) == (I, False)


@st.composite
def uncertified_cases(draw):
    """A homogeneous ideal over QQ or GF(32003) in four variables whose
    saturation by the last variable x3 the lead sets do not certify:
    one or two random forms, each times x3 (a component on x3 = 0) or
    times both forms x3 and l of a line in x3 = 0, plus up to two
    embedded parts (a generator replaced by its products with every
    variable, which adds an m-primary component) or further generators
    (a product of two powers of variables)."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    ring = PolyRing(("x0", "x1", "x2", "x3"), field)
    x = ring.gens
    rng = draw(st.randoms(use_true_random=False))
    factors = [x[3]]
    if draw(st.booleans()):
        lead = rng.randrange(3)
        factors.append(x[lead] + sum(rng.randint(-4, 4) * x[i]
                                     for i in range(3) if i != lead))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        f = random_form(ring, rng.randint(1, 2), rng)
        gens += [f * h for h in factors]
    for part in draw(st.lists(st.sampled_from(("embedded", "power")),
                              max_size=2)):
        if part == "embedded":
            g = gens.pop(rng.randrange(len(gens)))
            gens += [g * v for v in x]
        else:
            gens.append(x[rng.randrange(4)] ** rng.randint(1, 2)
                        * x[rng.randrange(4)] ** rng.randint(1, 2))
    return Ideal(ring, gens)


class TestSaturationByVariables:
    """Saturation by m against taking every variable's Bayer basis, on
    ideals where the last variable's basis alone is not certified."""

    @given(uncertified_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_every_variable_and_quotients(self, I):
        m = Ideal(I.ring, I.ring.gens)
        got, grew = I.saturate(m)
        every, every_grew = saturate_by_every_variable(I)
        colons, t = saturate_by_quotients(I, m)
        assert grew == every_grew == (t > 0)
        strs = [str(g) for g in got.gens]
        assert strs == [str(g) for g in every.gens]
        assert strs == [str(g) for g in colons.gens]

    @pytest.mark.parametrize("name, ell", [("sub-hankel", 2),
                                           ("sub-hankel", 3),
                                           ("sub-hankel", 4),
                                           ("noether", 2), ("noether", 3)])
    def test_pinned_levels(self, name, ell):
        F = SymbolicFiltration(fixture(name).ideal)
        P = F.power(ell)
        gb = P._saturation(P.ring.gens[-1])
        assert ideals._failing_variables(gb.leads, P.groebner().leads,
                                         P.ring.nvars)
        want, grew = saturate_by_every_variable(P)
        assert F.grew(ell) == grew
        assert ([str(g) for g in F.level(ell).gens]
                == [str(g) for g in want.gens])


class TestKeptBasis:
    """A level, an intersection and an image ideal hold the reduced
    grevlex basis they were built from: asking for it runs no
    Buchberger, and it certifies."""

    @pytest.mark.parametrize("name, ell", [("standard-quadratic", 2),
                                           ("sub-hankel", 4)])
    def test_level(self, monkeypatch, name, ell):
        F = SymbolicFiltration(fixture(name).ideal)
        level = F.level(ell)
        assert F.grew(ell)
        calls = count_calls(monkeypatch)
        gb = level.groebner()
        assert calls["groebner_basis"] == 0
        assert _strs(gb.polys) == _strs(level.gens)
        assert gb.certify()

    @pytest.mark.parametrize("name", ["standard-quadratic", "sub-hankel"])
    def test_intersection_and_image(self, monkeypatch, name):
        I = fixture(name).ideal
        ring = I.ring
        both = I.intersect(Ideal(ring, ring.gens[:1]))
        image = rees_ideal(I).image_ideal()
        calls = count_calls(monkeypatch)
        bases = [both.groebner(), image.groebner()]
        assert calls["groebner_basis"] == 0
        assert all(gb.certify() for gb in bases)


def _leads(I):
    return I.groebner().leads


class TestHilbertPolynomial:
    """The reference of the lead-set certificate, two lead sets compared
    by their Hilbert series numerators, and the certificate itself on
    an ideal over a smaller one."""

    m3 = Ideal(R3, R3.gens)

    @pytest.mark.parametrize("texts", [
        ("x0*x1 - x2^2",),
        ("x0^2", "x0*x1"),
        ("x0*x2 - x1^2", "x0*x1 - x2^2", "x1*x2 - x0^2"),
        ("x0",),
    ])
    def test_agrees_with_intersection_by_power(self, texts):
        I = ideal(R3, *texts)
        for k in (1, 2, 4):
            J = I.intersect(self.m3.power(k))
            assert same_hilbert_polynomial(_leads(J), _leads(I), 3)
            assert same_hilbert_polynomial(_leads(I), _leads(J), 3)
            assert not ideals._failing_variables(_leads(I), _leads(J), 3)

    @pytest.mark.parametrize("texts, form", [
        (("x0*x1 - x2^2",), "x0"),
        (("x0^2", "x0*x1"), "x1 + x2"),
        (("x0*x1",), "x2"),
        ((), "x0 - 2*x1"),
    ])
    def test_differs_after_adding_a_form(self, texts, form):
        I = ideal(R3, *texts)
        J = I + ideal(R3, form)
        assert not same_hilbert_polynomial(_leads(J), _leads(I), 3)
        assert ideals._failing_variables(_leads(J), _leads(I), 3)

    def test_points_and_unit(self):
        # an m-primary ideal has Hilbert polynomial 0, as the unit ideal
        assert same_hilbert_polynomial(
            _leads(ideal(R2, "x0^2", "x1^3")), _leads(ideal(R2, "1")), 2)
        assert not same_hilbert_polynomial(
            _leads(ideal(R2, "x0")), _leads(ideal(R2, "1")), 2)


class TestMinimalGenerators:
    def test_prunes_redundant(self):
        I = ideal(R2, "x0^2", "x0^2+x1^2", "x1^2", "x0^3")
        mins = I.minimal_generators()
        assert [str(p) for p in mins] == ["x0^2", "x0^2 + x1^2"]

    def test_span_dimensions_agree(self):
        rng = random.Random(9)
        for _ in range(5):
            ring, gens = random_homogeneous_ideal(rng.randint(2, 3), rng)
            mins = Ideal(ring, gens).minimal_generators()
            for d in range(1, 6):
                assert (span_dimension(ring, gens, d)
                        == span_dimension(ring, mins, d))


@st.composite
def redundant_forms(draw):
    """Random forms with redundant ones injected at random places:
    products with forms, sums of earlier generators, duplicates, scalar
    multiples and, sometimes, the constant 1."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    n = draw(st.integers(1, 3))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), field)
    rng = draw(st.randoms(use_true_random=False))
    gens = [random_form(ring, rng.randint(1, 3), rng)
            for _ in range(draw(st.integers(1, 4)))]
    kinds = st.sampled_from(("product", "sum", "duplicate", "multiple",
                             "one"))
    for kind in draw(st.lists(kinds, max_size=6)):
        forms = [f for f in gens if f]  # a sum may have cancelled to 0
        g = rng.choice(forms)
        if kind == "product":
            new = g * random_form(ring, rng.randint(1, 2), rng)
        elif kind == "sum":
            h = rng.choice(forms)
            if h.homogeneous_degree() > g.homogeneous_degree():
                g, h = h, g
            d = g.homogeneous_degree() - h.homogeneous_degree()
            new = g + h * random_form(ring, d, rng)
        elif kind == "duplicate":
            new = g
        elif kind == "multiple":
            new = g * rng.choice((-3, 2, 5))
        else:
            new = ring.one
        gens.insert(rng.randint(0, len(gens)), new)
    return ring, gens


class TestMinimalGeneratorsOracle:
    @given(redundant_forms())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_linear_algebra(self, case):
        ring, gens = case
        got = Ideal(ring, gens).minimal_generators()
        assert [str(g) for g in got] == [str(g)
                                         for g in minimal_generators(gens)]

    def test_deadline_checked(self):
        # the un-minimalized Rees elimination output of the corpus r = 3
        # template instance
        P = subalgebra_presentation(template_ideal(3, 3, seed=0).ideal)
        with pytest.raises(DeadlineExceeded):
            with deadline(1e-4):
                P.minimal_generators()


class TestHilbert:
    def test_hypersurface(self):
        h = ideal(R2, "x0^2", "x0*x1").hilbert()
        assert h.numerator == (1, 0, -2, 1)
        assert (h.dim, h.codim, h.multiplicity) == (1, 1, 1)

    def test_complete_intersection(self):
        h = ideal(R2, "x0^2", "x1^3").hilbert()
        assert (h.dim, h.codim, h.multiplicity) == (0, 2, 6)

    def test_unit_sentinel(self):
        h = ideal(R2, "1").hilbert()
        assert (h.dim, h.codim, h.multiplicity) == (-1, 3, 0)

    def test_codimension_non_homogeneous(self):
        I = ideal(R3, "x0 - 1", "x1 - x0^2")
        assert I.codimension() == 2


class TestMinors:
    def test_two_by_two(self):
        x0, x1 = R2.gens
        m = FormMatrix(R2, [[x0, x1], [x1, x0]])
        I = Ideal(R2, m.minors(2))
        assert I == ideal(R2, "x0^2 - x1^2")


class TestRadicalMembership:
    def test_detects_nilpotent_class(self):
        I = ideal(R2, "x0^2")
        assert radical_contains(I, R2.parse("x0"))
        assert not radical_contains(I, R2.parse("x1"))
