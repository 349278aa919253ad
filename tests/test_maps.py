"""Inversion of square rational maps and the composition oracles."""

import functools
import importlib.util
import itertools
import random
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cremona import maps as cremona_maps
from cremona.cli import parse_session
from cremona.families import appendix_construct, template_ideal
from cremona.fixtures import (alberich_matrix, all_fixtures, de_jonquieres,
                              polar_quartic, standard_quadratic)
from cremona.groebner import syzygies
from cremona.ideals import Ideal
from cremona.maps import (RationalMapSpec, _coprime, _coprime_on_line,
                          inversion_factor, invert)
from cremona.rees import jacobian_dual, rees_ideal
from cremona.rings import GF, PolyRing, Polynomial, QQ

from oracles import (check_graph_identification, invert_by_composition,
                     jacobian_dual_by_terms,
                     jacobian_dual_of_minimal_generators,
                     plane_composition_oracle, polar_quartic_data,
                     poly_gcd_list, random_form, substitute_by_products)

R3 = PolyRing(("x0", "x1", "x2"), QQ)
SESSIONS = Path(__file__).resolve().parents[1] / "perfbench" / "sessions.py"


class TestSpec:
    def test_from_ideal_round_trip(self, std):
        F = RationalMapSpec.from_ideal(std.ideal)
        assert F.forms == std.spec.forms
        assert F.base_ideal() == std.ideal

    def test_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            RationalMapSpec(R3, (R3.parse("x0"), R3.parse("x1^2"),
                                 R3.parse("x2^2")))

    def test_rejects_fixed_part(self):
        with pytest.raises(ValueError):
            RationalMapSpec(R3, (R3.parse("x0*x1"), R3.parse("x0*x2"),
                                 R3.parse("x0^2")))

    def test_square_gate(self):
        F = RationalMapSpec(R3, (R3.parse("x0"), R3.parse("x1")))
        assert not F.is_square()
        with pytest.raises(ValueError, match="square"):
            invert(F)


class TestStandardQuadratic:
    def test_inverse_forms(self, std):
        inv = invert(std.spec)
        assert inv.degree == 2
        assert [str(g) for g in inv.inverse] == ["y1*y2", "y0*y2", "y0*y1"]
        assert str(inv.factor) == "x0*x1*x2"

    def test_factor_recomputed(self, std):
        inv = invert(std.spec)
        assert inversion_factor(std.spec, inv.inverse) == inv.factor

    def test_plane_oracle(self, std):
        inv = invert(std.spec)
        assert plane_composition_oracle(std.spec, inv.inverse)
        bad = (inv.inverse[1], inv.inverse[0], inv.inverse[2])
        assert not plane_composition_oracle(std.spec, bad)

    def test_graph_identification(self, std):
        inv = invert(std.spec)
        J = Ideal(inv.inverse[0].ring, inv.inverse)
        assert check_graph_identification(std.ideal, J)

    def test_involution_up_to_names(self, std):
        inv = invert(std.spec)
        G = RationalMapSpec(inv.inverse[0].ring, inv.inverse)
        back = invert(G)
        assert back.degree == 2
        got = [str(g).lower() for g in back.inverse]
        assert got == [str(g).replace("x", "y") for g in std.spec.forms]


class TestP4Monomial:
    def test_inverse(self, p4_inverse):
        assert p4_inverse.degree == 3
        assert [str(g) for g in p4_inverse.inverse] == [
            "y0*y2*y3", "y0*y1*y3", "y1*y2*y3", "y0*y3^2", "y1*y2*y4"]
        assert str(p4_inverse.factor) == "x0*x1*x2^2*x3"


class TestPolarQuartic:
    def test_inverse_degree_and_factor(self):
        fx = polar_quartic()
        data = polar_quartic_data()
        inv = invert(fx.spec)
        assert inv is not None
        assert inv.degree == 3
        c, q = data["c"], data["q"]
        assert inv.factor == c * c * q


class TestNonBirational:
    def test_coordinate_powers(self):
        F = RationalMapSpec(R3, (R3.parse("x0^2"), R3.parse("x1^2"),
                                 R3.parse("x2^2")))
        assert invert(F) is None

    def test_zero_coordinate(self):
        F = RationalMapSpec(R3, (R3.parse("x0^2"), R3.zero,
                                 R3.parse("x1^2")))
        assert invert(F) is None

    def test_factor_rejects_bad_candidate(self, std):
        inv = invert(std.spec)
        y = inv.inverse[0].ring
        bad = (y.parse("y0^2"), y.parse("y1^2"), y.parse("y2^2"))
        with pytest.raises(ValueError, match="composition"):
            inversion_factor(std.spec, bad)

    def test_factor_rejects_unequal_quotients(self, std):
        # g_i(f) = x_i * D_i with D_2 = 2 * D_0 = 2 * D_1
        y = invert(std.spec).inverse[0].ring
        bad = (y.parse("y1*y2"), y.parse("y0*y2"), y.parse("2*y0*y1"))
        with pytest.raises(ValueError,
                           match="candidate fails the composition check"):
            inversion_factor(std.spec, bad)


@functools.lru_cache(maxsize=None)
def _composite_ideals(seed=0):
    """The ideals of the plane composites C0, C1, ... of the inverse
    benchmark workload at a seed, as its session script binds them."""
    spec = importlib.util.spec_from_file_location("bench_sessions", SESSIONS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    script = parse_session(dict(module.inverse_sessions(seed))["composites"])
    return [I for _kind, I in script.bindings.values()]


@functools.lru_cache(maxsize=None)
def _inverse_composites(seed=0):
    return [RationalMapSpec.from_ideal(I) for I in _composite_ideals(seed)]


def _inverse_text(F):
    data = invert(F)
    return str(data.factor), [str(g) for g in data.inverse]


class TestCompositionByProducts:
    """invert, whose composition check substitutes on packed integer
    terms, against the same run with oracles.substitute_by_products."""

    @pytest.mark.parametrize("fx", all_fixtures(), ids=lambda fx: fx.name)
    def test_pinned_fixture(self, fx, monkeypatch):
        got = _inverse_text(fx.spec)
        monkeypatch.setattr(Polynomial, "substitute", substitute_by_products)
        assert got == _inverse_text(fx.spec)

    def test_pinned_benchmark_composites(self, monkeypatch):
        maps = _inverse_composites()
        assert len(maps) == 62
        got = [_inverse_text(F) for F in maps]
        monkeypatch.setattr(Polynomial, "substitute", substitute_by_products)
        assert got == [_inverse_text(F) for F in maps]


def _reduced(f, ring):
    """f with every coefficient taken into ring's field."""
    return ring.from_terms(f.items())


def _over(F, field):
    ring = PolyRing(F.ring.names, field)
    return RationalMapSpec(ring, [_reduced(f, ring) for f in F.forms])


FIXTURES = {fx.name: fx for fx in all_fixtures()}


class TestFieldAgreement:
    """invert over QQ and over GF(32003) agree: both find an inverse or
    neither does, of the same degree, and with D normalized to be monic
    the GF(32003) inverse and factor are the rational ones reduced."""

    @pytest.mark.parametrize("case", list(FIXTURES) + ["composite-%d" % i
                                                       for i in range(3)])
    def test_inverse(self, case):
        if case in FIXTURES:
            F = FIXTURES[case].spec
        else:
            F = _inverse_composites()[int(case.rsplit("-", 1)[1])]
        q = invert(F)
        g = invert(_over(F, GF(32003)))
        assert (q is None) == (g is None)
        if q is None:
            return
        assert q.degree == g.degree
        assert ([_reduced(h, g.inverse[0].ring) for h in q.inverse]
                == list(g.inverse))
        assert _reduced(q.factor, g.factor.ring) == g.factor


def _summary(data):
    """An invert result as text: inverse, factor and degree."""
    if data is None:
        return None
    return [str(g) for g in data.inverse], str(data.factor), data.degree


def _agree(F):
    """invert equals the all-coordinates oracle on F."""
    assert _summary(invert(F)) == _summary(invert_by_composition(F))


class TestAgainstComposition:
    """invert, certified by the rank of the Jacobian dual, against
    oracles.invert_by_composition, which composes every coordinate."""

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixture(self, name, field):
        F = FIXTURES[name].spec
        _agree(F if field == QQ else _over(F, field))

    def test_alberich(self):
        A = appendix_construct(alberich_matrix())
        _agree(RationalMapSpec(A.base.ring, A.base.gens))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_composites(self, seed):
        maps = _inverse_composites(seed)
        assert len(maps) == 62
        for F in maps:
            _agree(F)


class TestJacobianDualOnKeys:
    """rees.jacobian_dual, read from key fields, against
    oracles.jacobian_dual_by_terms, which reads exponent tuples."""

    @staticmethod
    def _agree(F):
        P = rees_ideal(Ideal(F.ring, F.forms))
        got = jacobian_dual(P)
        want = jacobian_dual_by_terms(P)
        assert got == want
        assert str(got) == str(want)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixture(self, name, field):
        F = FIXTURES[name].spec
        self._agree(F if field == QQ else _over(F, field))

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_benchmark_composites(self, field):
        for F in _inverse_composites(0):
            self._agree(F if field == QQ else _over(F, field))


def _invertible(m):
    return sum(m[0][i] * (m[1][(i + 1) % 3] * m[2][(i + 2) % 3]
                          - m[1][(i + 2) % 3] * m[2][(i + 1) % 3])
               for i in range(3)) != 0


@st.composite
def plane_composites(draw):
    """base o L o sigma over QQ or GF(32003): base is the standard
    quadratic map sigma or de Jonquieres' cubic map, L an invertible
    integer matrix, and the common factor of the forms divided out."""
    field = draw(st.sampled_from([QQ, GF(32003)]))
    ring = PolyRing(("x0", "x1", "x2"), field)
    sigma = [_reduced(f, ring) for f in standard_quadratic().spec.forms]
    base = [_reduced(f, ring) for f in draw(st.sampled_from(
        [standard_quadratic(), de_jonquieres()])).spec.forms]
    # |det L| <= 48, so L stays invertible modulo 32003
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      min_size=3, max_size=3).filter(_invertible))
    inner = [sum((c * f for c, f in zip(row, sigma)), ring.zero)
             for row in m]
    forms = [f.substitute(dict(zip(ring.names, inner)), ring=ring)
             for f in base]
    common = poly_gcd_list(forms)
    return RationalMapSpec(ring, [f.exact_divide(common) for f in forms])


def _syzygy_texts(psi):
    return [[str(g) for g in row] for row in syzygies(psi).entries]


def _invert_by_minimal_generators(F):
    """invert with the Jacobian dual of J's minimal generators."""
    with mock.patch.object(cremona_maps, "jacobian_dual",
                           jacobian_dual_of_minimal_generators):
        return invert(F)


class TestBasisRows:
    """The Jacobian dual read off J's reduced basis against the one of
    J's x-linear minimal generators: string for string the same
    syzygies, and invert finds the same inverse through either."""

    @staticmethod
    def _agree(F, square=True):
        P = rees_ideal(Ideal(F.ring, F.forms))
        assert (_syzygy_texts(jacobian_dual(P)) == _syzygy_texts(
            jacobian_dual_of_minimal_generators(P)))
        if square:
            assert (_summary(invert(F))
                    == _summary(_invert_by_minimal_generators(F)))

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixture(self, name, field):
        F = FIXTURES[name].spec
        self._agree(F if field == QQ else _over(F, field))

    @given(plane_composites())
    @settings(max_examples=20, deadline=None)
    def test_plane_composites(self, F):
        self._agree(F)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_template_r1(self, field):
        # P^2 to P^3 onto a hypersurface: there is no inverse to compare
        for seed in range(3):
            self._agree(template_ideal(3, 1, seed=seed,
                                       field=field).map_spec(),
                        square=False)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_not_dominant(self, field):
        # the image is a conic, and psi(f) has rank 1
        R = PolyRing(("x0", "x1", "x2"), field)
        F = RationalMapSpec(R, [R.parse(t) for t in ("x0^2", "x0*x1",
                                                     "x1^2")])
        assert invert(F) is None
        assert _invert_by_minimal_generators(F) is None


def _spy(monkeypatch, owner, name, calls):
    """Wrap owner.name to append its results to calls[name]."""
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.setdefault(name, []).append(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)


def _spy_codimension(monkeypatch, calls):
    """Record in calls["codimension"] the codimension of every ideal
    that maps builds and asks for one: the fixed-part fallback."""

    class SpyIdeal(Ideal):
        def codimension(self):
            out = super().codimension()
            calls.setdefault("codimension", []).append(out)
            return out

    monkeypatch.setattr(cremona_maps, "Ideal", SpyIdeal)


class TestCost:
    def test_benchmark_composites(self, monkeypatch):
        """Building and inverting the seed-0 composites eliminates only
        for the Rees presentations and composes once per map."""
        ideals = _composite_ideals(0)
        calls = {}
        _spy(monkeypatch, Ideal, "intersect", calls)
        _spy(monkeypatch, Polynomial, "substitute", calls)
        for I in ideals:
            assert invert(RationalMapSpec.from_ideal(I)) is not None
        assert "intersect" not in calls
        assert len(calls["substitute"]) == len(ideals)


class _Point:
    """Stands in for the random generator of maps, drawing given values."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, p):
        return next(self._values) % p


class TestFallback:
    """Which path each case takes: a certificate, or composition in
    every coordinate and the codimension of the forms' ideal."""

    NAMES = ("_full_rank", "_coprime_on_line", "_compose")

    def _calls(self, monkeypatch):
        calls = {}
        for name in self.NAMES:
            _spy(monkeypatch, cremona_maps, name, calls)
        _spy_codimension(monkeypatch, calls)
        return calls

    def _map(self, *texts):
        return RationalMapSpec(R3, [R3.parse(t) for t in texts])

    def test_non_birational(self, monkeypatch):
        # the Rees ideal has no x-linear generators: neither path runs
        F = self._map("x0^2", "x1^2", "x2^2")
        calls = self._calls(monkeypatch)
        assert invert(F) is None
        assert calls == {}

    def test_non_dominant(self, monkeypatch):
        # psi(f) has rank 1 < 2, so every column is composed
        F = self._map("x0^2", "x0*x1", "x1^2")
        calls = self._calls(monkeypatch)
        assert invert(F) is None
        assert calls["_full_rank"] == [False]
        assert len(calls["_compose"]) >= 1
        assert invert_by_composition(F) is None

    def test_fixed_part(self, monkeypatch):
        calls = self._calls(monkeypatch)
        with pytest.raises(ValueError, match="share a common factor"):
            self._map("x0*x1", "x0*x2", "x0^2")
        assert calls["_coprime_on_line"] == [False]
        assert calls["codimension"] == [1]

    def test_certified(self, monkeypatch, std):
        calls = self._calls(monkeypatch)
        self._map("x1*x2", "x0*x2", "x0*x1")
        invert(std.spec)
        assert calls == {"_coprime_on_line": [True], "_full_rank": [True]}

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_field_every_point(self, monkeypatch, std, p):
        """Over GF(2) and GF(3) many points miss: every point of the
        plane gives the oracle's inverse, by either path."""
        F = _over(std.spec, GF(p))
        want = _summary(invert_by_composition(F))
        assert want is not None
        paths = set()
        for a in itertools.product(range(p), repeat=3):
            monkeypatch.setattr(cremona_maps, "_draws",
                                lambda ring, a=a: (p, _Point(a)))
            calls = self._calls(monkeypatch)
            assert _summary(invert(F)) == want
            certified = calls["_full_rank"] == [True]
            assert ("_compose" in calls) != certified
            paths.add(certified)
            monkeypatch.undo()
        assert paths == {True, False}


FIELDS = [QQ, GF(32003)]


def _forms(seed, field, factor):
    """Two to four random forms in x0..x2 of one degree, times a random
    common factor of degree 1 or 2 when factor is set."""
    rng = random.Random(seed)
    ring = PolyRing(("x0", "x1", "x2"), field)
    d = rng.randint(1, 3)
    forms = [random_form(ring, d, rng) for _ in range(rng.randint(2, 4))]
    if factor:
        G = random_form(ring, rng.randint(1, 2), rng)
        forms = [G * f for f in forms]
    return forms


class TestLineCertificate:
    """The fixed-part certificate on a random line is one-sided: it never
    certifies forms with a common factor."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(FIELDS))
    @settings(max_examples=40, deadline=None)
    def test_common_factor_never_certified(self, seed, field):
        forms = _forms(seed, field, factor=True)
        assert not _coprime_on_line(forms)
        assert not _coprime(forms)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(FIELDS))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_gcd(self, seed, field):
        forms = _forms(seed, field, factor=False)
        exact = poly_gcd_list(forms).degree() == 0
        certified = _coprime_on_line(forms)
        assert exact or not certified
        # modulo 2^31 - 1 a coprime draw misses with odds below 1e-8
        if field == QQ:
            assert certified == exact

    def test_alberich_verdict_certified(self, monkeypatch):
        calls = {}
        _spy_codimension(monkeypatch, calls)
        A = appendix_construct(alberich_matrix())
        assert A.verdicts["inverse_gcd_one"]
        assert calls == {}
