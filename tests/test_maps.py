"""Inversion of square rational maps and the composition oracles."""

import functools
import importlib.util
from pathlib import Path

import pytest

from cremona.cli import parse_session
from cremona.fixtures import all_fixtures, polar_quartic, polar_quartic_data
from cremona.ideals import Ideal
from cremona.maps import (RationalMapSpec, check_graph_identification,
                          inversion_factor, invert, is_birational,
                          plane_composition_oracle)
from cremona.rings import GF, PolyRing, Polynomial, QQ

from oracles import substitute_by_products

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
        J = Ideal(inv.yring, inv.inverse)
        assert check_graph_identification(std.ideal, J)

    def test_involution_up_to_names(self, std):
        inv = invert(std.spec)
        G = RationalMapSpec(inv.yring, inv.inverse)
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
        assert not is_birational(F)

    def test_factor_rejects_bad_candidate(self, std):
        inv = invert(std.spec)
        y = inv.yring
        bad = (y.parse("y0^2"), y.parse("y1^2"), y.parse("y2^2"))
        with pytest.raises(ValueError, match="composition"):
            inversion_factor(std.spec, bad)


class TestAllCandidates:
    def test_same_degree_and_all_pass(self, std):
        cands = invert(std.spec, all_candidates=True)
        assert cands
        degs = {c.degree for c in cands}
        assert len(degs) == 1
        for c in cands:
            assert plane_composition_oracle(std.spec, c.inverse)

    def test_bound_below_true_degree(self, std):
        assert invert(std.spec, bound=1) is None


@functools.lru_cache(maxsize=None)
def _inverse_composites():
    """The plane composites C0, C1, ... of the inverse benchmark
    workload at seed 0, as its session script binds them."""
    spec = importlib.util.spec_from_file_location("bench_sessions", SESSIONS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    script = parse_session(dict(module.inverse_sessions(0))["composites"])
    return [RationalMapSpec.from_ideal(I)
            for _kind, I in script.bindings.values()]


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
    ring = PolyRing(F.ring.names, field, blocks=F.ring.blocks)
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
        assert [_reduced(h, g.yring) for h in q.inverse] == list(g.inverse)
        assert _reduced(q.factor, g.factor.ring) == g.factor
