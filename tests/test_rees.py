"""Rees presentations, Jacobian duals, subalgebra presentations."""

from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cremona import groebner, ideals, rees, rings
from cremona.cli import parse_session, run_script
from cremona.families import template_ideal
from cremona.fixtures import (all_fixtures, de_jonquieres, p4_monomial,
                              standard_quadratic, sub_hankel)
from cremona.groebner import eliminate, groebner_basis
from cremona.ideals import Ideal
from cremona.rees import jacobian_dual, rees_ideal, subalgebra_presentation
from cremona.rings import GF, PolyRing, QQ, transfer

from oracles import (coefficients_by_terms, image_by_elimination,
                     rees_minimal_generators)

R2 = PolyRing(("x0", "x1"), QQ)


class TestReesIdeal:
    def test_koszul_pair(self):
        I = Ideal(R2, R2.gens)
        gens, bidegrees = rees_minimal_generators(rees_ideal(I))
        assert [str(g) for g in gens] == ["x1*y0 - x0*y1"]
        assert bidegrees == ((1, 1),)

    def test_standard_quadratic(self):
        gens, bidegrees = rees_minimal_generators(
            rees_ideal(standard_quadratic().ideal))
        assert [str(g) for g in gens] == ["x1*y1 - x2*y2", "x0*y0 - x2*y2"]
        assert bidegrees == ((1, 1), (1, 1))

    def test_dominant_map_has_no_image_equation(self):
        P = rees_ideal(standard_quadratic().ideal)
        assert P.image_ideal().is_zero()

    def test_de_jonquieres_three_generators(self):
        gens, bidegrees = rees_minimal_generators(
            rees_ideal(de_jonquieres().ideal))
        assert len(gens) == 3
        assert bidegrees == ((1, 1), (1, 2), (2, 1))

    def test_p4_bidegrees(self):
        _gens, bidegrees = rees_minimal_generators(
            rees_ideal(p4_monomial().ideal))
        assert bidegrees == ((1, 1),) * 5 + ((2, 1),)

    def test_generators_vanish_on_graph(self):
        fx = standard_quadratic()
        P = rees_ideal(fx.ideal)
        amb = P.ambient
        images = {xn: transfer(amb.var(xn), amb) for xn in P.xnames}
        for yn, f in zip(P.ynames, fx.spec.forms):
            images[yn] = transfer(f, amb)
        for g in rees_minimal_generators(P)[0]:
            assert not g.substitute(images)

    def test_name_collision_avoided(self):
        R = PolyRing(("y0", "y1"), QQ)
        P = rees_ideal(Ideal(R, R.gens))
        assert not set(P.ynames) & set(P.xnames)

    @pytest.mark.parametrize("fx", all_fixtures(), ids=lambda fx: fx.name)
    def test_bidegree_matches_exponents(self, fx):
        P = rees_ideal(fx.ideal)
        amb = P.ambient
        isx = [nm in P.xnames for nm in amb.names]
        gens, bidegrees = rees_minimal_generators(P)
        for g in gens:
            summed = {(sum(e for e, x in zip(exps, isx) if x),
                       sum(e for e, x in zip(exps, isx) if not x))
                      for exps, _ in g.items()}
            assert summed == {P.bidegree(g)}
        assert bidegrees == tuple(map(P.bidegree, gens))
        x0, y0 = amb.var(P.xnames[0]), amb.var(P.ynames[0])
        for bad in (x0 + y0, x0 * y0 + y0 ** 2, amb.zero,
                    PolyRing(amb.names, GF(7)).var(P.xnames[0])):
            with pytest.raises(ValueError, match="not bihomogeneous"):
                P.bidegree(bad)


class TestJacobianDual:
    def test_rows_contract_to_generators(self):
        P = rees_ideal(standard_quadratic().ideal)
        jd = jacobian_dual(P)
        amb = P.ambient
        lin = [g for g in P.basis.polys if P.bidegree(g)[0] == 1]
        assert jd.nrows == len(lin)
        for row, g in zip(jd.entries, lin):
            s = amb.zero
            for e, xn in zip(row, P.xnames):
                s = s + transfer(e, amb) * amb.var(xn)
            assert s == g

    def test_needs_x_linear_generators(self):
        R = PolyRing(("x0", "x1"), QQ)
        I = Ideal(R, (R.parse("x0^3"), R.parse("x1^3")))
        with pytest.raises(ValueError):
            jacobian_dual(rees_ideal(I))


class TestSubalgebraPresentation:
    def test_plain_rees_matches(self):
        fx = standard_quadratic()
        K = subalgebra_presentation(fx.ideal)
        Q = rees_ideal(fx.ideal)
        for g in rees_minimal_generators(Q)[0]:
            assert K.contains(transfer(g, K.ring))

    def test_extra_generator_weights(self):
        fx = standard_quadratic()
        D = fx.ring.parse("x0*x1*x2")
        K = subalgebra_presentation(fx.ideal, extra=((D, 2),))
        assert K.ring.names[-1] == "z1"
        assert not K.is_zero()

    def test_rejects_bad_weights(self):
        fx = standard_quadratic()
        D = fx.ring.parse("x0*x1*x2")
        with pytest.raises(ValueError):
            subalgebra_presentation(fx.ideal, extra=((D, 0),))
        with pytest.raises(ValueError):
            subalgebra_presentation(fx.ideal,
                                    extra=((fx.ring.zero, 2),))


def _plain_eliminate(gens, drop, ring=None, series=None):
    return eliminate(gens, drop, ring=ring)


def _strs(polys):
    return [str(p) for p in polys]


@st.composite
def presentations(draw):
    """A small ideal of forms of one degree and weighted extras."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    ring = PolyRing(("x0", "x1", "x2"), field)
    d = draw(st.integers(1, 2))
    mons = list(ring.monomials_of_degree(d))
    coeffs = st.integers(-3, 3).filter(bool)

    def form(mons):
        picked = draw(st.lists(st.sampled_from(mons), min_size=1,
                               max_size=3, unique=True))
        return ring.from_terms((e, draw(coeffs)) for e in picked)

    gens = [form(mons) for _ in range(draw(st.integers(2, 3)))]
    extras = []
    for _ in range(draw(st.integers(0, 2))):
        deg = draw(st.integers(1, 3))
        extras.append((form(list(ring.monomials_of_degree(deg))),
                       draw(st.integers(1, 2))))
    return Ideal(ring, gens), extras


class TestHilbertDriven:
    @given(presentations())
    @settings(max_examples=30, deadline=None)
    def test_subalgebra_presentation_as_plain(self, drawn):
        I, extras = drawn
        K = subalgebra_presentation(I, extra=extras)
        with mock.patch.object(rees, "eliminate", _plain_eliminate):
            plain = subalgebra_presentation(I, extra=extras)
        assert _strs(K.gens) == _strs(plain.gens)
        gb = K.groebner()
        assert _strs(gb.polys) == _strs(K.gens)
        assert gb.certify()

    @pytest.mark.parametrize("fx", all_fixtures(), ids=lambda fx: fx.name)
    def test_cached_basis_fixture(self, fx):
        self._check_cached_basis(fx.ideal)

    @pytest.mark.parametrize("r, seed", ((3, 0), (2, 0), (2, 1), (2, 2)))
    def test_cached_basis_template(self, r, seed):
        self._check_cached_basis(template_ideal(3, r, seed=seed).ideal)

    @staticmethod
    def _check_cached_basis(I):
        """The basis the elimination leaves is the one a fresh run from
        J's minimal generators finds, and certifies with them as its
        source, and the Hilbert-driven image is the plain one."""
        P = rees_ideal(I)
        gb = P.basis
        gens, _bidegrees = rees_minimal_generators(P)
        fresh = groebner_basis(list(gens), ring=P.ambient)
        assert _strs(gb.polys) == _strs(fresh.polys)
        assert gb.leads == fresh.leads
        assert gb.certify()
        assert all(map(gb.contains, gens))
        plain = eliminate(list(gens), list(P.xnames), ring=P.ambient)
        image = P.image_ideal()
        assert image.ring.names == plain.ring.names
        assert _strs(image.gens) == _strs(plain.polys)


def _over(I, field):
    """The ideal of I's generators read over field, by their texts."""
    R = PolyRing(I.ring.names, field)
    return Ideal(R, [R.parse(str(g)) for g in I.gens])


def _check_image(I):
    """The image read off the basis is the eliminated one, string for
    string, and the ideal holds it as its basis."""
    P = rees_ideal(I)
    want = image_by_elimination(P)
    image = P.image_ideal()
    assert image.ring.names == want.ring.names == P.ynames
    assert _strs(image.gens) == _strs(want.polys)
    assert image.groebner().leads == want.leads
    return image


FIELDS = pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)


@st.composite
def binary_forms(draw):
    """Three or four forms of one degree in x0, x1 only, inside
    k[x0, x1, x2]: a map that is not dominant."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    ring = PolyRing(("x0", "x1", "x2"), field)
    d = draw(st.integers(1, 3))
    mons = [(a, d - a, 0) for a in range(d + 1)]
    coeffs = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(3, 4))):
        picked = draw(st.lists(st.sampled_from(mons), min_size=1,
                               max_size=3, unique=True))
        gens.append(ring.from_terms((e, draw(coeffs)) for e in picked))
    return Ideal(ring, gens)


class TestImageIdeal:
    """image_ideal, read off the presentation's basis, against
    oracles.image_by_elimination."""

    @FIELDS
    @pytest.mark.parametrize("fx", all_fixtures(), ids=lambda fx: fx.name)
    def test_fixtures_zero(self, fx, field):
        assert _check_image(_over(fx.ideal, field)).is_zero()

    @FIELDS
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_template_hypersurface(self, r, field):
        for seed in range(3):
            image = _check_image(template_ideal(3, r, seed=seed,
                                                field=field).ideal)
            assert len(image.gens) == 1

    @FIELDS
    def test_twisted_cubic(self, field):
        R = PolyRing(("s", "u"), field)
        image = _check_image(Ideal(R, [R.parse(t) for t in (
            "s^3", "s^2*u", "s*u^2", "u^3")]))
        assert [g.homogeneous_degree() for g in image.gens] == [2, 2, 2]

    @FIELDS
    def test_linear_equation(self, field):
        R = PolyRing(("x0", "x1", "x2"), field)
        image = _check_image(Ideal(R, [R.parse(t) for t in (
            "x0^2", "x0*x1", "x0^2 - 2*x0*x1")]))
        assert _strs(image.gens) == [str(image.ring.parse(
            "y0 - 2*y1 - y2"))]

    @given(binary_forms())
    @settings(max_examples=40, deadline=None)
    def test_binary_forms(self, I):
        assert not _check_image(I).is_zero()


class TestLaziness:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_template_command_cost(self, r, monkeypatch):
        """Cost guard: a template command makes one elimination, the
        presentation's, and lists no minimal generators (the image took
        a second elimination, and the presentation minimalized J)."""
        calls = {"eliminate": 0, "minimal_generators": 0}
        original = groebner.eliminate

        def spy(*args, **kwargs):
            calls["eliminate"] += 1
            return original(*args, **kwargs)

        for module in (groebner, ideals, rees):
            monkeypatch.setattr(module, "eliminate", spy)
        minimal = Ideal.minimal_generators

        def minimal_spy(self):
            calls["minimal_generators"] += 1
            return minimal(self)

        monkeypatch.setattr(Ideal, "minimal_generators", minimal_spy)
        rec, = run_script(parse_session("ring R = QQ[x0..x2];\n"
                                        "template 3 %d;" % r))
        assert rec["status"] == "ok"
        assert calls == {"eliminate": 1, "minimal_generators": 0}

    def test_inversion_and_symrees_minimalize_nothing(self, monkeypatch):
        """Cost guard: the Jacobian dual reads J's basis, so inverse,
        invfactor and symrees list no minimal generators of J (each
        minimalized J once while the Jacobian dual read them)."""
        calls = []
        minimal = Ideal.minimal_generators

        def spy(self):
            calls.append(self)
            return minimal(self)

        monkeypatch.setattr(Ideal, "minimal_generators", spy)
        fx = sub_hankel()
        head = "ring R = QQ[%s];\nideal I = %s;\n" % (
            ", ".join(fx.ring.names), ", ".join(map(str, fx.spec.forms)))
        # one session per command, so each builds its own presentation
        for command in ("inverse I;", "invfactor I;", "symrees I lmax=2;"):
            rec, = run_script(parse_session(head + command))
            assert rec["status"] == "ok"
        assert calls == []


def _exponents(n, deg):
    return st.lists(st.integers(0, deg), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= deg).map(tuple)


@st.composite
def coefficient_cases(draw):
    """(g, monomials, ring) for rings._coefficients.  Either g and the
    monomials are drawn freely and ring is g's own, or g is a sum of
    m_j * c_j for distinct x-monomials m_j of one degree and forms c_j
    in the y-variables, read into the ring of the y-variables alone, at
    times with an added y-term that no m_j divides."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    names = tuple("x%d" % i for i in range(nx)) + tuple(
        "y%d" % i for i in range(ny))
    ring = PolyRing(names, field)
    coeff = st.integers(-5, 5)
    if draw(st.booleans()):
        monos = [ring.monomial(e) for e in draw(st.lists(
            _exponents(nx + ny, 2), min_size=1, max_size=4))]
        g = ring.from_terms(draw(st.lists(
            st.tuples(_exponents(nx + ny, 4), coeff), max_size=8)))
        return g, monos, ring
    d = draw(st.integers(1, 2))
    mexps = draw(st.lists(_exponents(nx, d).filter(lambda e: sum(e) == d),
                          min_size=1, max_size=4, unique=True))
    terms = []
    for me in mexps:
        for ye, c in draw(st.lists(st.tuples(_exponents(ny, 3), coeff),
                                   max_size=4)):
            terms.append((me + ye, c))
    if draw(st.booleans()):
        terms.append(((0,) * nx + draw(_exponents(ny, 3)), 1))
    monos = [ring.monomial(me + (0,) * ny) for me in mexps]
    return ring.from_terms(terms), monos, PolyRing(names[nx:], field)


class TestCoefficients:
    """rings._coefficients, read on packed keys, against
    oracles.coefficients_by_terms, which reads exponent tuples."""

    @given(coefficient_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_reader(self, case):
        g, monos, ring = case
        try:
            want = coefficients_by_terms(g, monos, ring)
        except ValueError:
            with pytest.raises(ValueError):
                rings._coefficients(g, monos, ring)
            return
        got = rings._coefficients(g, monos, ring)
        assert got == want
        assert [str(c) for c in got] == [str(c) for c in want]

    def test_first_divisor_takes_the_term(self):
        R = PolyRing(("x0", "x1", "x2"), QQ)
        x0, x1, x2 = R.gens
        got = rings._coefficients(R.parse("x0*x1 + 2*x1^2 - 1/3*x2^3"),
                                 [x0, x1, x2], R)
        assert [str(c) for c in got] == ["x1", "2*x1", "-1/3*x2^2"]

    def test_undivided_term_raises(self):
        R = PolyRing(("x0", "x1", "x2"), QQ)
        x0, x1, _x2 = R.gens
        with pytest.raises(ValueError):
            rings._coefficients(R.parse("x0 + x2"), [x0, x1], R)
