"""Groebner engine: bases, certificates, elimination, syzygies."""

import random

import pytest

from cremona import fixtures, groebner
from cremona.families import signed_minors
from cremona.groebner import (DeadlineExceeded, deadline, eliminate,
                              groebner_basis, syzygies)
from cremona.ideals import Ideal
from cremona.rees import jacobian_dual, rees_ideal
from cremona.rings import FormMatrix, GF, MonomialOrder, PolyRing, QQ

from oracles import (homogeneous_member, minimal_columns, random_form,
                     random_homogeneous_ideal)

R3 = PolyRing(("x0", "x1", "x2"), QQ)


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

    def test_normal_form_idempotent(self):
        gens = (R3.parse("x0^2 - x1"), R3.parse("x1^2 - x2"))
        gb = groebner_basis(gens)
        p = R3.parse("x0^4 + x0^2*x1 + x2")
        nf = gb.normal_form(p)
        assert gb.normal_form(nf) == nf
        assert gb.contains(p - nf)

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
        x0, x1, _ = R3.gens
        f = x0 ** 2**23 * x1 + x1**2
        with pytest.raises(ValueError, match="exceeds the limit"):
            groebner_basis([f, x0**2])


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
        sub, polys = eliminate((R.parse("t^2 - y"), R.parse("t^3 - z")),
                               ("t",), ring=R)
        assert sub.names == ("y", "z")
        assert [str(p) for p in polys] == ["y^3 - z^2"]

    def test_drop_everything_from_unit(self):
        sub, polys = eliminate((R3.parse("x0 - 1"), R3.parse("x0")),
                               ("x0",), ring=R3)
        assert [str(p) for p in polys] == ["1"]


class TestSyzygies:
    def test_product_is_zero(self):
        x0, x1, x2 = R3.gens
        m = FormMatrix(R3, [[x0 * x1, x1 * x2, x0 * x2]])
        s = syzygies(m)
        prod = m @ s
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
    ring = PolyRing(fx.ring.names, field, blocks=fx.ring.blocks)
    forms = tuple(ring.from_terms(f.items()) for f in fx.spec.forms)
    return jacobian_dual(rees_ideal(Ideal(ring, forms))).matrix


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
            assert all(not e for row in (mat @ s).entries for e in row)
            degrees.append(_column_degrees(s))
        assert degrees[0] == degrees[1] == self.PINNED[fx.name]

    @pytest.mark.parametrize("fx", fixtures.all_fixtures(),
                             ids=lambda fx: fx.name)
    def test_minimalization_oracle_jacobian_dual(self, fx, monkeypatch):
        for field in (QQ, GF(32003)):
            _check_minimalization(monkeypatch,
                                  _jacobian_dual_matrix(fx, field))

    def test_minimalization_oracle_shifted_columns(self, monkeypatch):
        # column degrees differ, so the sugar of a candidate is its
        # shifted degree; 2 x 3 matrices of rank 2 have one syzygy, the
        # wider ones give redundant candidates
        pruned = 0
        for seed in range(12):
            rng = random.Random(seed)
            ring = PolyRing(("x0", "x1", "x2"), (QQ, GF(32003))[seed % 2])
            nrows, ncols = ((2, 3), (1, 4), (2, 4))[seed % 3]
            degs = [1, 2, 3, rng.randint(1, 3)][:ncols]
            rng.shuffle(degs)
            mat = FormMatrix(ring, [[random_form(ring, d, rng, sparsity=0.3)
                                     for d in degs] for _ in range(nrows)])
            s, ncands = _check_minimalization(monkeypatch, mat)
            assert all(not e for row in (mat @ s).entries for e in row)
            pruned += ncands - s.ncols
        assert pruned

    def test_components_kept_apart(self):
        x0, x1, x2 = R3.gens
        # det = x0^2 - x1^2: the columns are independent, and an engine
        # dividing across components would invent relations
        assert syzygies(FormMatrix(R3, [[x0, x1], [x1, x0]])).ncols == 0
        m = FormMatrix(R3, [[x0, x1, R3.zero], [R3.zero, x0, x1]])
        s = syzygies(m)
        assert _column_degrees(s) == [2]
        assert [s[i, 0] for i in range(3)] == [x1**2, -x0 * x1, x0**2]


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

    def test_zero_means_no_limit(self):
        with deadline(0):
            gb = groebner_basis((R3.parse("x0"),))
        assert gb.contains(R3.parse("x0"))
