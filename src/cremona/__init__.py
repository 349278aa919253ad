"""Exact computer algebra for Cremona maps and symbolic Rees algebras."""

from .rings import (Field, FormMatrix, GF, MonomialOrder, NotDivisibleError,
                    ParseError, PolyRing, Polynomial, QQ, transfer)
from .groebner import (DeadlineExceeded, GroebnerBasis, check_deadline,
                       deadline, eliminate, groebner_basis, syzygies)
from .ideals import HilbertData, Ideal
from .rees import (ReesPresentation, jacobian_dual, rees_ideal,
                   subalgebra_presentation)
from .maps import InverseData, RationalMapSpec, invert, inversion_factor
from .symbolic import (SaturationTarget, SymbolicFiltration, condition_i,
                       expected_form_check, grade_two_check,
                       symbolic_presentation)
from .families import (AppendixData, DegenerateTemplate, SylvesterChain,
                       TemplateInstance, TemplateMatrix, appendix_construct,
                       signed_minors, sylvester_chain, sylvester_form,
                       template_ideal)
from . import fixtures

__all__ = [
    "AppendixData", "DeadlineExceeded", "DegenerateTemplate", "Field",
    "FormMatrix", "GF", "GroebnerBasis", "HilbertData", "Ideal",
    "InverseData",
    "MonomialOrder", "NotDivisibleError", "ParseError", "PolyRing",
    "Polynomial", "QQ", "RationalMapSpec", "ReesPresentation",
    "SaturationTarget", "SylvesterChain", "SymbolicFiltration",
    "TemplateInstance", "TemplateMatrix",
    "appendix_construct", "check_deadline",
    "condition_i", "deadline", "eliminate",
    "expected_form_check", "fixtures",
    "grade_two_check", "groebner_basis", "invert", "inversion_factor",
    "jacobian_dual", "rees_ideal", "signed_minors", "subalgebra_presentation",
    "sylvester_chain", "sylvester_form", "symbolic_presentation",
    "syzygies",
    "template_ideal", "transfer",
]
