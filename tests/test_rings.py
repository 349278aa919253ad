"""Polynomial arithmetic, orders, parsing and form matrices."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cremona import rings
from cremona.groebner import groebner_basis
from cremona.rings import (DeadlineExceeded, Field, FormMatrix, GF,
                           MonomialOrder, NotDivisibleError, PackedOrder,
                           ParseError, PolyRing, Polynomial, QQ, deadline,
                           transfer)

from oracles import (lcm_by_decoding, order_key, parse_on_own_tokens,
                     substitute_by_products, tuple_exact_divide,
                     tuple_product, tuple_str, tuple_sum, tuple_terms)

R3 = PolyRing(("x0", "x1", "x2"), QQ)
F31 = PolyRing(("x0", "x1", "x2"), GF(31))
G3 = PolyRing(("x0", "x1", "x2"), GF(32003))


def exps(nvars=3, deg=4):
    return st.tuples(*([st.integers(0, deg)] * nvars))


def term_lists(nvars=3, nterms=5, coeff=8, deg=4):
    return st.lists(st.tuples(exps(nvars, deg), st.integers(-coeff, coeff)),
                    max_size=nterms)


def polys(ring=R3, nterms=5, coeff=8):
    return term_lists(ring.nvars, nterms, coeff).map(ring.from_terms)


@st.composite
def ordered_rings(draw):
    """A ring in 1-8 variables with a grevlex (on the ring's or a drawn
    variable sequence), lex or block order."""
    n = draw(st.integers(1, 8))
    ring = PolyRing(tuple("x%d" % i for i in range(n)), QQ)
    kind = draw(st.sampled_from(("grevlex", "lex", "block")))
    if kind == "lex":
        return ring, MonomialOrder.lex()
    names = draw(st.permutations(ring.names))
    if kind == "grevlex":
        return ring, MonomialOrder.grevlex(draw(st.sampled_from(((), names))))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    bounds = [0] + cuts + [n]
    groups = [names[a:b] for a, b in zip(bounds, bounds[1:])]
    return ring, MonomialOrder.block(*groups)


def exponent_vectors(draw, ring, count):
    # entries up to the limit over nvars keep the total degree in range
    top = draw(st.sampled_from((3, 40, (2**23 - 1) // ring.nvars)))
    vec = st.tuples(*([st.integers(0, top)] * ring.nvars))
    return draw(st.lists(vec, min_size=count, max_size=count + 6))


class TestField:
    def test_prime_check(self):
        with pytest.raises(ValueError):
            Field(6)
        assert GF(31991).characteristic == 31991

    def test_coerce(self):
        assert QQ.coerce(2) == Fraction(2)
        assert GF(7).coerce(-1) == 6
        assert GF(7).coerce(Fraction(1, 2)) == 4

    def test_inv(self):
        assert GF(7).inv(3) * 3 % 7 == 1
        assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)


class TestArithmetic:
    def test_basic(self):
        x0, x1, x2 = R3.gens
        p = (x0 + x1) * (x0 - x1)
        assert p == x0 * x0 - x1 * x1
        assert not p - p
        assert (x0 + 1) ** 3 == x0**3 + 3 * x0**2 + 3 * x0 + 1

    def test_char_p(self):
        x0 = F31.var("x0")
        assert (x0 + 1) ** 31 == x0**31 + 1

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_neg_and_zero(self, a):
        assert a + (-a) == R3.zero
        assert a * R3.one == a
        assert a * R3.zero == R3.zero

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_degree_of_product(self, a, b):
        if a and b:
            assert (a * b).degree() == a.degree() + b.degree()

    @given(term_lists(), term_lists())
    @settings(max_examples=40, deadline=None)
    def test_mod_p_reduction_is_a_homomorphism(self, ta, tb):
        a, b = R3.from_terms(ta), R3.from_terms(tb)
        ap, bp = F31.from_terms(ta), F31.from_terms(tb)

        def red(p):
            return F31.from_terms([(m, c) for m, c in p.items()])

        assert red(a * b) == ap * bp
        assert red(a + b) == ap + bp


class TestDivision:
    def test_exact_divide(self):
        x0, x1, _ = R3.gens
        p = (x0 + x1) * (x0**2 + x1)
        assert p.exact_divide(x0 + x1) == x0**2 + x1
        with pytest.raises(NotDivisibleError):
            (x0 + 1).exact_divide(x1)

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_exact_divide_round_trip(self, a, b):
        if a and b:
            assert (a * b).exact_divide(b) == a

    @given(st.sampled_from((R3, G3)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_and_inexact_division(self, ring, data):
        a = data.draw(polys(ring, nterms=8))
        b = data.draw(polys(ring, nterms=6))
        if not b:
            return
        assert (a * b).exact_divide(b) == a
        deg = b.degree()
        if not deg:
            return  # every division by a constant is exact
        # a nonzero c of lower degree than b is not a multiple of b
        c = data.draw(term_lists(ring.nvars, deg=deg - 1)
                      .map(ring.from_terms)
                      .filter(lambda c: c and c.degree() < deg))
        with pytest.raises(NotDivisibleError):
            (a * b + c).exact_divide(b)


def rational_terms(nvars=3, nterms=6, deg=4):
    return st.lists(st.tuples(exps(nvars, deg),
                              st.fractions(-9, 9, max_denominator=6)),
                    max_size=nterms)


def typed_items(p):
    return sorted((e, c, type(c)) for e, c in p.items())


class TestAgainstTupleArithmetic:
    """Sums, products, quotients and printing on packed keys against the
    same operations on exponent tuples (oracles.tuple_*), over QQ and
    GF(32003)."""

    @given(st.sampled_from((R3, G3)), rational_terms(), rational_terms())
    @settings(max_examples=150, deadline=None)
    def test_sum_difference_product(self, ring, ta, tb):
        a, b = ring.from_terms(ta), ring.from_terms(tb)
        oa, ob = tuple_terms(ring, ta), tuple_terms(ring, tb)
        assert typed_items(a) == typed_items(ring.from_terms(oa))
        assert str(a) == tuple_str(ring, oa)
        for got, want in ((a + b, tuple_sum(ring, oa, ob)),
                          (a - b, tuple_sum(ring, oa, ob, -1)),
                          (-a, tuple_sum(ring, {}, oa, -1)),
                          (a * b, tuple_product(ring, oa, ob))):
            assert str(got) == tuple_str(ring, want)
            assert sorted(got.items()) == sorted(want.items())
            assert got == ring.from_terms(want)

    @given(st.sampled_from((R3, G3)), rational_terms(), rational_terms(),
           rational_terms(nterms=3))
    @settings(max_examples=150, deadline=None)
    def test_exact_divide(self, ring, ta, tb, tc):
        b = ring.from_terms(tb)
        if not b:
            return
        oa, ob, oc = (tuple_terms(ring, t) for t in (ta, tb, tc))
        # an exact quotient, and a dividend that is a multiple of b only
        # when tc happens to be
        for num in (tuple_product(ring, oa, ob),
                    tuple_sum(ring, tuple_product(ring, oa, ob), oc)):
            try:
                want = tuple_exact_divide(ring, num, ob)
            except NotDivisibleError:
                with pytest.raises(NotDivisibleError):
                    ring.from_terms(num).exact_divide(b)
                continue
            got = ring.from_terms(num).exact_divide(b)
            assert str(got) == tuple_str(ring, want)
            assert typed_items(got) == sorted(
                (e, c, type(c)) for e, c in want.items())


class TestParsing:
    def test_parse_known(self):
        p = R3.parse("x0^2 - 2*x1*x2 + 1/3*x2^2")
        assert p == (R3.var("x0") ** 2 - 2 * R3.var("x1") * R3.var("x2")
                     + Fraction(1, 3) * R3.var("x2") ** 2)

    def test_parse_errors(self):
        for bad in ("x0 +", "y0", "x0^^2", ""):
            with pytest.raises(ParseError):
                R3.parse(bad)

    def test_exponent_limit(self):
        assert R3.parse("x0^8388607").degree() == 2**23 - 1
        for bad in ("x0^8388608", "x1*x0^8388607", "2^99999999"):
            with pytest.raises(ParseError, match="exceeds the limit"):
                R3.parse(bad)

    def test_power_past_the_limit_rejected_before_squaring(self):
        # degree 2 * (2^23 - 1): squaring up to it would outlast the
        # deadline, which would end it with DeadlineExceeded
        with deadline(1.0):
            with pytest.raises(ParseError, match="total degree 16777214 "
                               "exceeds the limit"):
                R3.parse("(x0^2+1)^8388607")
            with pytest.raises(ValueError, match="exceeds the limit"):
                R3.parse("x0*x1 + x2^2") ** 4194304
        assert R3.parse("(x0^2+1)^0") == 1
        # zero and constants take any exponent
        for e in (8388609, 2**40 + 1):
            assert R3.zero ** e == 0
            assert R3.one ** e == 1
            assert R3.const(-1) ** e == -1

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_round_trip(self, p):
        assert R3.parse(str(p)) == p

    @given(polys(F31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_char_p(self, p):
        assert F31.parse(str(p)) == p

    def test_overlong_numbers(self):
        for bad in ("1" * 4301, "x0^" + "9" * 5000):
            with pytest.raises(ParseError, match="exceeds the limit"):
                R3.parse(bad)
        assert R3.parse("1" * 4300) == int("1" * 4300)

    def test_zero_denominator(self):
        for ring in (R3, G3):
            with pytest.raises(ParseError, match="zero denominator"):
                ring.parse("x0 + 1/0")

    def test_comments_between_tokens(self):
        assert R3.parse("x0 # c\n + x1^2 #") == R3.parse("x0 + x1^2")

    def test_error_positions(self):
        with pytest.raises(ParseError) as info:
            R3.parse("x0 +\n  x1 * y0")
        assert (info.value.line, info.value.col) == (2, 8)


SPACES = st.sampled_from(("", " ", "  ", "\n", "\t "))
ATOMS = st.one_of(
    st.sampled_from(("x0", "x1", "x2", "x0^2", "x2^0", "-x1", "-2/3")),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 12)).map("%d/%d".__mod__))


def expression_texts():
    """Polynomial text over x0..x2 with random spacing and parentheses:
    sums, products, signs and small powers of parenthesized text.  A
    leading '+' stands only at the start of a parenthesized sum, where
    the grammar allows it."""
    def extend(inner):
        return st.one_of(
            st.tuples(inner, SPACES, st.sampled_from("+-*"), SPACES,
                      inner).map("".join),
            st.tuples(st.sampled_from(("(", "(+", "-(")), SPACES, inner,
                      SPACES, st.just(")")).map("".join),
            st.tuples(st.just("("), inner, st.just(")^"),
                      st.integers(0, 3).map(str)).map("".join))
    return st.recursive(ATOMS, extend, max_leaves=8)


@st.composite
def mangled_texts(draw):
    """Expression text with a few characters cut out or spliced in."""
    text = draw(expression_texts())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1:]
        else:
            text = (text[:at] + draw(st.sampled_from("+-*^/()0x2y ;,.$"))
                    + text[at:])
    return text


def _outcome(parse, text):
    try:
        p = parse(text)
    except ParseError:
        return None
    return p, str(p)


class TestParserOracle:
    """PolyRing.parse, which reads the session tokenizer's tokens,
    against oracles.parse_on_own_tokens, the parser that tokenized each
    text on its own: the same polynomials, by == and by str, and a
    ParseError from both on the same text."""

    @given(st.sampled_from((R3, G3)), expression_texts())
    @settings(max_examples=200, deadline=None)
    def test_valid_text(self, ring, text):
        want = parse_on_own_tokens(ring, text)
        got = ring.parse(text)
        assert got == want and str(got) == str(want)

    @given(st.sampled_from((R3, G3)), mangled_texts())
    @settings(max_examples=300, deadline=None)
    def test_mangled_text(self, ring, text):
        try:
            want = _outcome(lambda t: parse_on_own_tokens(ring, t), text)
        except ZeroDivisionError:
            # the oracle let Fraction's error for a zero denominator out
            want = None
        assert _outcome(ring.parse, text) == want


@st.composite
def long_sums(draw):
    """A sum of 50-500 terms in x0..x2, built from a drawn seed so that
    long texts cost Hypothesis little.  A term is a product of numbers,
    fractions a/b, number powers and variables with exponents (0 among
    them), in any order; some terms cancel an earlier one.  A drawn few
    special terms are added: exponents at the limit 2^23 - 1, alone, past
    the degree limit or times zero, an unknown name, and fractions whose
    denominator is a multiple of 32003."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.lists(st.sampled_from((
        "x1^8388607", "x0^8388607*x2", "0*x2^8388607*x1^5",
        "x2^8388607*32003*x0", "y0*x1", "x0*y1^2", "5/64006*x2",
        "32003/64006*x1^2", "2^10/3^7*x0^0")), max_size=3))
    numbers = (lambda: str(rng.randint(0, 10 ** rng.randint(1, 30))),
               lambda: "%d/%d" % (rng.randint(0, 99), rng.randint(1, 99)),
               lambda: "%d^%d" % (rng.randint(0, 12), rng.randint(0, 40)),
               lambda: "%d/%d^%d" % (rng.randint(0, 9), rng.randint(1, 9),
                                     rng.randint(0, 9)))
    terms = []
    for _ in range(draw(st.integers(50, 500))):
        if terms and rng.random() < 0.15:
            sign, body = rng.choice(terms)
            terms.append(("-" if sign == "+" else "+", body))
            continue
        factors = [rng.choice(("x0", "x1", "x2"))
                   + rng.choice(("", "", "^0", "^2", "^3", "^11"))
                   for _ in range(rng.randint(0, 3))]
        for _ in range(rng.choice((0, 1, 1, 2))):
            factors.insert(rng.randint(0, len(factors)),
                           rng.choice(numbers)())
        terms.append((rng.choice("+-"), "*".join(factors) or "1"))
    for body in specials:
        terms.insert(rng.randint(0, len(terms)), (rng.choice("+-"), body))
    return "".join(" %s %s" % t for t in terms)


class TestMonomialSums:
    """Long sums of monomials, which the parser adds up on packed keys
    without Polynomial arithmetic, against the parser that adds every
    term as a Polynomial, and the printer against oracles.tuple_str."""

    @given(st.sampled_from((R3, G3)), long_sums())
    @settings(max_examples=40, deadline=None)
    def test_long_sums_match_the_oracle(self, ring, text):
        assert _outcome(ring.parse, text) == _outcome(
            lambda t: parse_on_own_tokens(ring, t), text)

    def test_monomial_sum_adds_no_polynomials(self, monkeypatch):
        calls = []
        combine = rings._combine
        monkeypatch.setattr(rings, "_combine",
                            lambda *a: calls.append(a) or combine(*a))
        text = " - ".join("%d/%d*x0^%d*x1^%d" % (k + 1, k % 7 + 1, k % 64,
                                                  k // 64)
                          for k in range(4096))
        for ring in (R3, G3):
            assert len(ring.parse(text)) == 4096
        assert not calls

    @given(st.sampled_from((R3, G3)),
           st.lists(st.tuples(st.tuples(*[st.sampled_from(
               (0, 1, 2, 7, 2**21)) for _ in range(3)]),
               st.fractions(-50, 50, max_denominator=40)), max_size=8),
           st.fractions(-9, 9, max_denominator=12).filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_str_matches_tuple_str(self, ring, terms, scale):
        p = ring.from_terms(terms) * ring.field.coerce(scale)
        want = tuple_terms(ring, [(e, c * scale) for e, c in terms])
        assert str(p) == tuple_str(ring, want)

    def test_number_power_past_the_literal_limit(self):
        cases = (("12345^1000000", 1), ("9^8388607", 1),
                 ("12345^8388607", 1), ("10^4300", 1), ("-7^6000*x2", 2),
                 ("x1*(2/3)^10000", 4), ("x0 - x1*(12345)^1000000", 9),
                 ("x0*x1 + 3*x2^2*(1/2)^99999", 16))
        for text, col in cases:
            t0 = time.process_time()
            with deadline(1.0):
                with pytest.raises(ParseError, match="more than 4300 "
                                   "digits") as info:
                    R3.parse(text)
            assert time.process_time() - t0 < 1
            assert (info.value.line, info.value.col) == (1, col)
        # the largest powers within the limit, and any power over Fp
        assert R3.parse("10^4299") == 10**4299
        assert R3.parse("(1/10)^4299*x0") == Fraction(1, 10**4299) * R3.var(
            "x0")
        assert R3.parse("(-1)^8388607 + 1^8388607 + 0^8388607") == 0
        with deadline(1.0):
            assert G3.parse("12345^8388607*x0") == pow(
                12345, 8388607, 32003) * G3.var("x0")

    def test_long_products_of_numbers_stop_at_deadline(self):
        # every factor multiplies a longer running coefficient, in a
        # monomial and in a term with a parenthesized factor
        digits = "9" * 4000
        for text in ("*".join([digits] * 2000),
                     "x0*(1)*" + "*".join(["(%s)" % digits] * 2000)):
            t0 = time.process_time()
            with deadline(0.2):
                with pytest.raises(DeadlineExceeded):
                    R3.parse(text)
            assert time.process_time() - t0 < 5

    def test_denominator_not_invertible_over_fp(self):
        G7 = PolyRing(("x0", "x1"), GF(7))
        for text, pos in (("x0 +\n 1/14*x1", (2, 4)),
                          ("(x0 + 3/7)^2", (1, 9))):
            with pytest.raises(ParseError, match=r"denominator (14|7) is "
                               r"not invertible in Fp\(7\)") as info:
                G7.parse(text)
            assert (info.value.line, info.value.col) == pos
        # a fraction in lower terms may have a unit denominator
        assert G7.parse("7/14*x1") == 4 * G7.var("x1")


@st.composite
def substitutions(draw):
    """A polynomial in x0..x2 with rational coefficients, not homogeneous
    in general, and images over the same field (QQ or GF(32003)): each
    one zero, a constant (as a Polynomial or a plain number) or a
    polynomial, all in x0..x2 or all in y0, y1 as maps._compose uses
    them.  Returns (poly, images, ring argument)."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    src = PolyRing(("x0", "x1", "x2"), field)
    other = draw(st.booleans())
    target = PolyRing(("y0", "y1"), field) if other else src
    coeffs = st.fractions(-6, 6, max_denominator=5)

    def poly(ring, nterms, deg):
        return draw(st.lists(st.tuples(exps(ring.nvars, deg), coeffs),
                             max_size=nterms).map(ring.from_terms))

    images = {}
    for name in src.names:
        kind = draw(st.sampled_from(("zero", "const", "number", "poly",
                                     "poly", "poly")))
        if kind == "zero":
            images[name] = target.zero
        elif kind == "const":
            images[name] = target.const(draw(coeffs))
        elif kind == "number":
            images[name] = draw(st.one_of(st.integers(-3, 3), coeffs))
        else:
            images[name] = poly(target, 4, 3)
    if other and not any(isinstance(v, Polynomial) for v in images.values()):
        images["x0"] = target.var("y1")
    # the ring argument is needed when no image is a Polynomial
    ring = draw(st.sampled_from((None, target))) if other else None
    return poly(src, 8, 4), images, ring


def typed_terms(p):
    return sorted((e, type(c)) for e, c in p.items())


class TestSubstitution:
    def test_composition(self):
        x0, x1, x2 = R3.gens
        p = x0 * x1 + x2**2
        images = {"x0": x1, "x1": x2, "x2": x0}
        assert p.substitute(images) == x1 * x2 + x0**2

    @given(polys(), polys())
    @settings(max_examples=30, deadline=None)
    def test_substitute_is_a_homomorphism(self, a, b):
        x0, x1, x2 = R3.gens
        images = {"x0": x1 + x2, "x1": x0 * x0, "x2": x2}
        assert ((a * b).substitute(images)
                == a.substitute(images) * b.substitute(images))
        assert ((a + b).substitute(images)
                == a.substitute(images) + b.substitute(images))

    @given(substitutions())
    @settings(max_examples=150, deadline=None)
    def test_matches_products(self, case):
        p, images, ring = case
        got = p.substitute(images, ring=ring)
        want = substitute_by_products(p, images, ring=ring)
        assert got == want
        assert str(got) == str(want)
        assert typed_terms(got) == typed_terms(want)

    def test_missing_image_and_mixed_rings_raise(self):
        x0, x1, x2 = R3.gens
        with pytest.raises(ValueError, match="missing image"):
            (x0 + x1).substitute({"x0": x2})
        y = PolyRing(("y0", "y1"), QQ)
        with pytest.raises(ValueError, match="different rings"):
            x0.substitute({"x0": x1, "x1": y.var("y0")})
        with pytest.raises(KeyError):
            x0.substitute({"x0": x1, "z": x2})

    @pytest.mark.parametrize("shape", ("dense-images", "many-terms"))
    def test_deadline_stops_a_large_composition(self, shape):
        """Dense quadrics into a degree-7 polynomial (large products,
        4 s without a deadline), or a renaming of the 12870 terms of
        degree at most 8 in eight variables (small ones, 0.5 s)."""
        if shape == "dense-images":
            ring = PolyRing(("x0", "x1", "x2", "x3"), QQ)
            xs = ring.gens
            p = (sum(xs, ring.one) + Fraction(1, 3)) ** 7
            images = {nm: (sum(((k + 2) * x for k, x in enumerate(xs)),
                               ring.const(j)) + x) ** 2
                      for j, (nm, x) in enumerate(zip(ring.names, xs))}
        else:
            ring = PolyRing(tuple("x%d" % i for i in range(8)), QQ)
            p = ring.from_terms((e, k % 7 - 3) for d in range(9) for k, e
                                in enumerate(ring.monomials_of_degree(d)))
            names = ring.names
            images = {a: ring.var(b)
                      for a, b in zip(names, names[1:] + names[:1])}
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.01):
                p.substitute(images)
        assert time.monotonic() - start < 0.1

    def test_degree_limit_before_any_product(self, monkeypatch):
        def no_products(*args):
            raise AssertionError("a product was formed")

        x0, x1, x2 = R3.gens
        p = R3.monomial((2**22, 0, 0)) * x1
        images = {"x0": x0**2 + x2, "x1": x1, "x2": x2}
        monkeypatch.setattr(rings, "_times", no_products)
        start = time.monotonic()
        with pytest.raises(ValueError, match="total degree %d exceeds the "
                           "limit %d" % (2**23 + 1, 2**23 - 1)):
            p.substitute(images)
        assert time.monotonic() - start < 0.1


def lead_in(p, order):
    """The leading exponent vector of p in order, from the basis of the
    principal ideal of p, whose terms the engine remaps into order."""
    lead, = groebner_basis([p], order=order).leads
    return lead


class TestOrders:
    def test_grevlex_vs_lex_leads(self):
        p = R3.parse("x0*x2^2 + x1^3")
        assert (lead_in(p, MonomialOrder.grevlex())
                != lead_in(p, MonomialOrder.lex()))

    def test_block_order_separates(self):
        order = MonomialOrder.block(("x0",), ("x1", "x2"))
        p = R3.parse("x0 + x1^5")
        assert lead_in(p, order) == (1, 0, 0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_packed_order_matches_oracle(self, data):
        ring, order = data.draw(ordered_rings())
        po = PackedOrder(ring, order)
        key = order_key(order, ring)
        vecs = exponent_vectors(data.draw, ring, 2)
        a, b = vecs[0], vecs[1]
        assert (po.encode(a) < po.encode(b)) == (key(a) < key(b))
        assert (po.encode(a) == po.encode(b)) == (a == b)
        p = ring.from_terms((e, 1) for e in vecs)
        assert lead_in(p, order) == max(vecs, key=key)
        assert sorted(set(vecs), key=po.encode, reverse=True) == sorted(
            set(vecs), key=key, reverse=True)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_packed_round_trip(self, data):
        ring, order = data.draw(ordered_rings())
        po = PackedOrder(ring, order)
        for e in exponent_vectors(data.draw, ring, 1):
            assert po.decode(po.encode(e)) == e
            assert po.tdeg(po.encode(e)) == sum(e)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_lcm_matches_decoding(self, data):
        ring, order = data.draw(ordered_rings())
        rank = data.draw(st.integers(0, 3))
        po = PackedOrder(ring, order, rank=rank)
        comps = st.integers(0, max(rank - 1, 0))
        a, b = (list(v) for v in exponent_vectors(data.draw, ring, 2)[:2])
        if data.draw(st.booleans()):
            # one coordinate takes up the rest of the limit, so that the
            # lcm can exceed it
            for v in (a, b):
                v[data.draw(st.integers(0, ring.nvars - 1))] += (
                    2**23 - 1 - sum(v))
        ka = po.encode(a) + data.draw(comps) * po.cstep
        kb = po.encode(b) + data.draw(comps) * po.cstep
        try:
            want = lcm_by_decoding(po, ka, kb)
        except ValueError:
            with pytest.raises(ValueError, match="exceeds the limit"):
                po.lcm(ka, kb)
            return
        assert po.lcm(ka, kb) == want
        assert po.lcm(kb, ka) == want

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_degrees_from_fields(self, data):
        ring, order = data.draw(ordered_rings())
        rank = data.draw(st.integers(0, 3))
        po = PackedOrder(ring, order, rank=rank)
        weights = data.draw(st.lists(st.integers(0, 4), min_size=ring.nvars,
                                     max_size=ring.nvars))
        grading = po.grading(weights)
        comps = st.integers(0, max(rank - 1, 0))
        for e in exponent_vectors(data.draw, ring, 1):
            k = po.encode(e) + data.draw(comps) * po.cstep
            assert po.tdeg(k) == sum(po.decode(k)) == sum(e)
            assert grading(k) == sum(w * x for w, x in zip(weights, e))

    def test_total_degree_limit(self):
        po = PackedOrder(R3, MonomialOrder.lex())
        assert po.decode(po.encode((2**23 - 2, 1, 0))) == (2**23 - 2, 1, 0)
        with pytest.raises(ValueError, match="exceeds the limit"):
            po.encode((2**23 - 1, 1, 0))
        with pytest.raises(ValueError, match="exceeds the limit"):
            str(R3.var("x0") ** 2**23)

    def test_equal_rings_share_one_order(self):
        names = ("x0", "x1", "x2")
        a, b = PolyRing(names, QQ), PolyRing(names, QQ)
        assert a is not b and a._packed is b._packed
        assert a._packed.ring == b
        assert PolyRing(names, GF(7))._packed is not a._packed
        blocks = (("x0",), ("x1", "x2"))
        assert PolyRing(names, QQ, blocks=blocks)._packed.ring.blocks == blocks

    def test_module_keys_divide_within_a_component(self):
        po = PackedOrder(R3, MonomialOrder.grevlex(), rank=3)
        x0 = po.encode((1, 0, 0))
        x0x1 = po.encode((1, 1, 0))
        assert po.divides(x0, x0x1)
        assert po.divides(x0 + 2 * po.cstep, x0x1 + 2 * po.cstep)
        assert not po.divides(x0, x0x1 + po.cstep)
        assert not po.divides(x0 + po.cstep, x0x1)
        # position over term: a lower component is the larger term
        assert po.encode((0, 0, 0)) > po.encode((5, 0, 0)) + po.cstep
        assert po.component(x0x1 + 2 * po.cstep) == 2
        assert po.lcm(x0, x0x1 + po.cstep) is None
        assert po.lcm(x0 + po.cstep, po.encode((0, 1, 0)) + po.cstep) == (
            x0x1 + po.cstep)


class TestNormalization:
    def test_normalized_monic_over_qq(self):
        p = R3.parse("2*x0^2 + 4*x1^2")
        q = p.normalized()
        assert q == R3.parse("x0^2 + 2*x1^2")

    def test_homogeneous_checks(self):
        assert R3.parse("x0^2 + x1*x2").is_homogeneous()
        assert not R3.parse("x0^2 + x1").is_homogeneous()
        assert R3.parse("x0^3").homogeneous_degree() == 3


class TestFormMatrix:
    def test_det_and_minors(self):
        x0, x1, _ = R3.gens
        m = FormMatrix(R3, [[x0, x1], [x1, x0]])
        assert m.det() == x0 * x0 - x1 * x1
        assert m.minors(1) == [x0, x1, x1, x0]

    def test_det_stops_at_deadline(self):
        # a 7 x 7 determinant of linear forms takes about a second, in
        # products too small to check the deadline themselves
        rows = [[R3.from_terms((e, (7 * i + 3 * j + k) % 11 - 5)
                               for k, e in enumerate(((1, 0, 0), (0, 1, 0),
                                                      (0, 0, 1))))
                 for j in range(7)] for i in range(7)]
        m = FormMatrix(R3, rows)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.01):
                m.det()
        assert time.monotonic() - start < 0.1

    def test_rejects_inhomogeneous_column(self):
        x0, _, _ = R3.gens
        with pytest.raises(ValueError):
            FormMatrix(R3, [[x0], [x0 + 1]])

    def test_matmul(self):
        x0, x1, x2 = R3.gens
        a = FormMatrix(R3, [[x0, x1]])
        b = FormMatrix(R3, [[x1], [x2]])
        assert (a @ b).entries[0][0] == x0 * x1 + x1 * x2

    def test_transfer_matches_variables_by_name(self):
        big = PolyRing(("x0", "x1", "x2", "x3"), QQ)
        p = R3.parse("3*x0^2 - x1*x2")
        q = transfer(p, big)
        assert q.ring is big
        assert str(q) == "3*x0^2 - x1*x2"
        with pytest.raises(ValueError):
            transfer(p, F31)
