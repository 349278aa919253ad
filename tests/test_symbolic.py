"""Symbolic powers, the primality condition, and the expected form."""

import pytest

from cremona.ideals import Ideal
from cremona.maps import invert
from cremona.rees import subalgebra_presentation
from cremona.rings import PolyRing, QQ, transfer
from cremona.symbolic import (SaturationTarget, SymbolicFiltration,
                              condition_i, depth_positive,
                              expected_form_check, grade_two_check,
                              symbolic_presentation)

R3 = PolyRing(("x0", "x1", "x2"), QQ)


def strs(polys):
    return [str(g) for g in polys]


class TestTarget:
    def test_element_must_be_form(self):
        with pytest.raises(ValueError):
            SaturationTarget.element(R3.one)
        with pytest.raises(ValueError):
            SaturationTarget.element(R3.zero)

    def test_ideal_must_be_proper(self):
        with pytest.raises(ValueError):
            SaturationTarget.ideal(Ideal(R3, (R3.one,)))
        with pytest.raises(ValueError):
            SaturationTarget.ideal(Ideal(R3, ()))

    def test_ring_mismatch_caught(self):
        other = PolyRing(("t0", "t1"), QQ)
        tgt = SaturationTarget.element(other.parse("t0"))
        I = Ideal(R3, (R3.parse("x0*x1"),))
        with pytest.raises(ValueError):
            SymbolicFiltration(I, tgt)


class TestFiltration:
    def test_levels_start_at_one(self, std):
        F = SymbolicFiltration(std.ideal)
        with pytest.raises(ValueError):
            F.level(0)

    def test_level_one_of_saturated_base(self, std):
        F = SymbolicFiltration(std.ideal)
        assert F.level(1) == std.ideal

    def test_filtration_containments(self, std):
        F = SymbolicFiltration(std.ideal)
        for a, b in ((1, 1), (1, 2)):
            prod = F.level(a) * F.level(b)
            assert F.level(a + b).contains_ideal(prod)


class TestFreshEssential:
    def test_standard_quadratic_level_two(self, std):
        F = SymbolicFiltration(std.ideal)
        assert strs(F.fresh(2)) == ["x0*x1*x2"]
        assert strs(F.essential(2)) == ["x0*x1*x2"]

    def test_standard_quadratic_level_three(self, std):
        F = SymbolicFiltration(std.ideal)
        assert strs(F.fresh(3)) == [
            "x0*x1^2*x2^2", "x0^2*x1*x2^2", "x0^2*x1^2*x2"]
        assert F.essential(3) == ()

    def test_essential_implies_fresh_membership(self, polar_filtration):
        F = polar_filtration
        for ell in (2, 3):
            power = F.power(ell)
            for g in F.essential(ell):
                assert not power.contains(g)


class TestConditionI:
    def test_standard_quadratic(self, std):
        verdicts = condition_i(std.ideal, 3)
        assert [(v.level, v.verdict) for v in verdicts] == [
            (1, "ZERO"), (2, "PRIMARY"), (3, "PRIMARY")]

    def test_p4_fails_with_witness(self, p4, p4_filtration):
        verdicts = condition_i(p4.ideal, 2, filtration=p4_filtration)
        assert verdicts[0].verdict == "ZERO"
        assert verdicts[1].verdict == "FAILS"
        assert verdicts[1].witness == "x4"


class TestDepth:
    def test_depth_zero_in_two_variables(self):
        R2 = PolyRing(("x0", "x1"), QQ)
        I = Ideal(R2, (R2.parse("x0^2"), R2.parse("x0*x1")))
        assert not depth_positive(I)

    def test_same_ideal_deeper_ring(self):
        I = Ideal(R3, (R3.parse("x0^2"), R3.parse("x0*x1")))
        assert depth_positive(I)


class TestExpectedForm:
    def test_standard_quadratic_holds(self, std):
        D = std.ring.parse("x0*x1*x2")
        res = expected_form_check(std.ideal, D, 2, lmax=4)
        assert res.precondition
        assert res.levels == {1: True, 2: True, 3: True, 4: True}

    def test_precondition_failure_short_circuits(self, std):
        bad = std.ring.parse("x0^4")
        res = expected_form_check(std.ideal, bad, 2, lmax=3)
        assert not res.precondition
        assert res.levels == {}

    def test_weight_validated(self, std):
        D = std.ring.parse("x0*x1*x2")
        with pytest.raises(ValueError):
            expected_form_check(std.ideal, D, 0)


class TestPresentation:
    def test_matches_elimination_route(self, std):
        inv = invert(std.spec)
        D = std.ring.parse("x0*x1*x2")
        SP = symbolic_presentation(std.ideal, inv.inverse)
        SA = subalgebra_presentation(std.ideal, extra=((D, 2),))
        assert SP.ring.names == SA.ring.names
        assert all(SP.contains(transfer(g, SP.ring)) for g in SA.gens)
        assert all(SA.contains(transfer(g, SA.ring)) for g in SP.gens)

    def test_arity_checked(self, std):
        inv = invert(std.spec)
        with pytest.raises(ValueError):
            symbolic_presentation(std.ideal, inv.inverse[:2])

    def test_grade_two(self, std):
        inv = invert(std.spec)
        SP = symbolic_presentation(std.ideal, inv.inverse)
        assert grade_two_check(SP) is None
        a = transfer(std.ring.parse("x0 + x1 + x2"), SP.ring)
        b = transfer(std.ring.parse("x0 - x1"), SP.ring)
        assert grade_two_check(SP, (a, b))

