"""Template family, Sylvester chains, and the plane quartic appendix."""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cremona import families
from cremona.cli import parse_session, run_script
from cremona.families import (DegenerateTemplate, TemplateMatrix,
                              appendix_construct, signed_minors,
                              sylvester_chain, sylvester_form,
                              template_ideal)
from cremona.fixtures import alberich_matrix
from cremona.ideals import Ideal
from cremona.maps import inversion_factor
from cremona.rings import FormMatrix, GF, PolyRing, Polynomial, QQ

from oracles import (generates_by_membership, plane_composition_oracle,
                     sylvester_form_by_terms)

R3 = PolyRing(("x0", "x1", "x2"), QQ)
SQUAREFREE = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def random_syzygy_matrix(seed):
    rng = random.Random(seed)
    rows = []
    for _i in range(3):
        rows.append([R3.from_terms([(m, rng.randint(-3, 3))
                                    for m in SQUAREFREE])
                     for _j in range(2)])
    return FormMatrix(R3, rows)


class TestSignedMinors:
    def test_annihilates_columns(self):
        T = template_ideal(3, 2, seed=0)
        mat = T.template.matrix
        v = signed_minors(mat)
        for j in range(mat.ncols):
            acc = R3.zero
            for i in range(mat.nrows):
                acc = acc + v[i] * mat[i, j]
            assert not acc

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            signed_minors(FormMatrix(R3, ((R3.parse("x0"), R3.parse("x1")),
                                          (R3.parse("x1"), R3.parse("x2")))))


class TestTemplateMatrix:
    def test_degree_validation(self):
        R2v = PolyRing(("x0", "x1"), QQ)
        with pytest.raises(ValueError):
            TemplateMatrix(FormMatrix(R2v, [[R2v.parse("x0"), R2v.parse("x1")],
                                            [R2v.parse("x1"), R2v.parse("x0")],
                                            [R2v.parse("x0"), R2v.parse("x1")]]),
                           2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            template_ideal(1, 1)
        with pytest.raises(ValueError):
            template_ideal(3, 0)


class TestNumerology:
    @pytest.mark.parametrize("r,mult,edeg", [(1, 6, 3), (2, 11, 5),
                                             (3, 18, 7)])
    def test_seed_seven(self, r, mult, edeg):
        T = template_ideal(3, r, seed=7)
        d = T.diagnostics()
        assert d["codimension"] == 2
        assert d["multiplicity"] == mult == T.expected_multiplicity()
        assert d["edeg"] == edeg == 2 * r + 1

    @pytest.mark.parametrize("seed", range(3))
    def test_second_symbolic_power_multiplicity(self, seed):
        # I defines reduced points, so e(R/I^(2)) = 3 e(R/I) = 3 * 11
        T = template_ideal(3, 2, seed=seed)
        ring = T.ring
        sym2, _grew = T.ideal.power(2).saturate(Ideal(ring, ring.gens))
        assert T.ideal.hilbert().multiplicity == 11
        assert sym2.hilbert().multiplicity == 33

    def test_degenerate_draw_raises(self, monkeypatch):
        monkeypatch.setattr(
            families, "_draw_template",
            lambda n, r, rng, ring: FormMatrix(ring, [[ring.zero] * n]
                                               * (n + 1)))
        with pytest.raises(DegenerateTemplate, match="codimension"):
            template_ideal(3, 1)


class TestInverses:
    def test_r1_three_representatives(self):
        T = template_ideal(3, 1, seed=7)
        invs = T.inverses()
        assert len(invs) == 3
        spec = T.map_spec()
        for data in invs:
            assert data.degree == 2
            assert data.factor.homogeneous_degree() == 5
            assert plane_composition_oracle(spec, data.inverse)

    def test_r2_single_representative(self):
        T = template_ideal(3, 2, seed=7)
        invs = T.inverses()
        assert len(invs) == 1
        assert invs[0].factor.homogeneous_degree() == 7

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_factor_matches_composition(self, r, field):
        """The factor read from one coordinate is the common factor of
        the composition in every coordinate, maps.inversion_factor."""
        for seed in range(16):
            T = template_ideal(3, r, seed=seed, field=field)
            spec = T.map_spec()
            invs = T.inverses()
            assert len(invs) == (3 if r == 1 else 1)
            for data in invs:
                assert inversion_factor(spec, data.inverse) == data.factor

    def test_one_substitution_per_candidate(self, monkeypatch):
        T = template_ideal(3, 1, seed=7)
        T.rees()
        calls = []
        orig = Polynomial.substitute

        def counting(self, *args, **kwargs):
            calls.append(self)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "substitute", counting)
        assert len(T.inverses()) == 3
        assert len(calls) == 3

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_template_command_builds_relations_once(self, r, monkeypatch):
        # sylvester_chain and inverses share the instance's relations
        calls = []
        real = families._column_relations

        def spy(mat, P):
            calls.append(mat.ncols)
            return real(mat, P)

        monkeypatch.setattr(families, "_column_relations", spy)
        rec, = run_script(parse_session("ring R = QQ[x0..x2];\n"
                                        "template 3 %d;" % r))
        assert rec["status"] == "ok"
        assert calls == [3]


@st.composite
def sylvester_cases(draw):
    """Three forms of one degree over a ring of four variables, and three
    distinct of its variables; a form with a term in the fourth variable
    alone fails the content check."""
    field = draw(st.sampled_from((QQ, GF(32003))))
    ring = PolyRing(("x0", "x1", "x2", "x3"), field)
    mons = list(ring.monomials_of_degree(draw(st.integers(1, 3))))
    forms = [ring.from_terms(draw(st.lists(
        st.tuples(st.sampled_from(mons), st.integers(-5, 5)), max_size=5)))
        for _ in range(3)]
    wrt = draw(st.permutations(ring.names))[:3]
    return forms, wrt


class TestSylvesterForm:
    def test_coordinate_identity(self):
        x0, x1, x2 = R3.gens
        assert str(sylvester_form(x0, x1, x2, ("x0", "x1", "x2"))) == "1"

    def test_shared_factor_kills_determinant(self):
        x0, x1, x2 = R3.gens
        assert not sylvester_form(x0 * x0, x0 * x1, x0 * x2,
                                  ("x0", "x1", "x2"))

    def test_sequential_extraction(self):
        x0, x1, x2 = R3.gens
        assert str(sylvester_form(x0 * x0 + x1 * x2, x1, x2,
                                  ("x0", "x1", "x2"))) == "x0"

    def test_content_failure(self):
        R4 = PolyRing(("x0", "x1", "x2", "x3"), QQ)
        h = R4.parse("x3^2")
        x1, x2 = R4.var("x1"), R4.var("x2")
        with pytest.raises(ValueError, match="content"):
            sylvester_form(h, x1, x2, ("x0", "x1", "x2"))

    def test_needs_distinct_variables(self):
        x0, x1, x2 = R3.gens
        with pytest.raises(ValueError):
            sylvester_form(x0, x1, x2, ("x0", "x0", "x1"))

    def test_unknown_variable(self):
        x0, x1, x2 = R3.gens
        with pytest.raises(ValueError, match="no variable 'x3'"):
            sylvester_form(x0, x1, x2, ("x0", "x1", "x3"))

    @given(sylvester_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_extraction(self, case):
        forms, wrt = case
        try:
            want = sylvester_form_by_terms(*forms, wrt)
        except ValueError:
            with pytest.raises(ValueError, match="content check failed"):
                sylvester_form(*forms, wrt)
            return
        assert sylvester_form(*forms, wrt) == want


class TestSylvesterChain:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bidegree_ladder(self, r):
        T = template_ideal(3, r, seed=7)
        ch = sylvester_chain(T)
        assert ch.bidegrees == tuple((r - i, 2 * i + 1)
                                     for i in range(1, r + 1))

    def test_chain_generates_rees(self):
        ch = sylvester_chain(template_ideal(3, 2, seed=7))
        assert ch.conjecture_equal


class TestChainVerdict:
    """The chain verdict compares the leads of the chain's basis with
    those of the Rees ideal's; oracles.generates_by_membership tests
    every minimal generator of the Rees ideal in the chain's ideal."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_membership(self, r):
        for seed in range(4):
            T = template_ideal(3, r, seed=seed)
            ch = sylvester_chain(T)
            gens = list(T.relations()) + list(ch.forms)
            assert ch.conjecture_equal == generates_by_membership(
                gens, T.rees())

    def test_dropped_form_matches_membership(self, monkeypatch):
        """With one Sylvester form left out of the chain's basis, the
        verdict still agrees with membership, and some case reads
        False."""
        real = families.groebner_basis
        verdicts = []
        for r in (1, 2, 3):
            for drop in range(r):
                T = template_ideal(3, r, seed=7)
                kept = []

                def dropping(gens, _drop=drop, **kwargs):
                    kept.extend(gens[:3 + _drop] + gens[4 + _drop:])
                    return real(kept, **kwargs)

                with monkeypatch.context() as m:
                    m.setattr(families, "groebner_basis", dropping)
                    ch = sylvester_chain(T)
                assert len(kept) == 2 + r
                assert ch.conjecture_equal == generates_by_membership(
                    kept, T.rees())
                verdicts.append(ch.conjecture_equal)
        assert False in verdicts


class TestAppendix:
    def test_alberich_verdicts(self):
        A = appendix_construct(alberich_matrix())
        assert A.verdicts == {
            "pure_power_free": True,
            "sym_match": True,
            "eq3": True,
            "eq4": True,
            "q_nonzero": True,
            "codim_b": 2,
            "rees_match": True,
            "codim_phi_prime": 2,
            "inverse_gcd_one": True,
            "inverse_ok": True,
            "inverse_degree": 4,
        }

    def test_alberich_inverse_composes(self):
        A = appendix_construct(alberich_matrix())
        from cremona.maps import RationalMapSpec
        spec = RationalMapSpec(A.base.ring, A.base.gens)
        assert plane_composition_oracle(spec, A.inverse)

    def test_determinant_identities_generic(self):
        checked = 0
        for seed in range(30):
            try:
                A = appendix_construct(random_syzygy_matrix(seed))
            except ValueError:
                continue
            v = A.verdicts
            assert v["sym_match"] and v["eq3"] and v["eq4"], seed
            checked += 1
        assert checked >= 20

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            appendix_construct(FormMatrix(R3, ((R3.parse("x0*x1"),),
                                               (R3.parse("x0*x2"),),
                                               (R3.parse("x1*x2"),))))

    def test_pure_power_rejected(self):
        rows = [[R3.parse("x0^2"), R3.parse("x0*x1")],
                [R3.parse("x0*x1"), R3.parse("x1*x2")],
                [R3.parse("x0*x2"), R3.parse("x1*x2")]]
        with pytest.raises(ValueError, match="pure power"):
            appendix_construct(FormMatrix(R3, rows))
