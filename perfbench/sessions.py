"""Session scripts for the three benchmark workloads, built from a seed.

Each workload is a list of ``(label, source)`` pairs; the sources are the
text a user would hand to ``cremona run``.  The same workload and seed
always give the same text.  Building the text is part of the benchmark's
set-up: the fixtures are rendered from ``cremona.fixtures``, the
template ideals and the composite plane maps are computed here.
"""

from __future__ import annotations

import random

from cremona import fixtures
from cremona.families import DegenerateTemplate, template_ideal
from cremona.ideals import Ideal

# Each workload has a fixed core that carries its heaviest commands and a
# seeded part made of many cheap instances.  Heavy instances vary in cost
# from draw to draw (an r = 3 template by about 7%, a degree-6 composite
# by about 30%), so one seeded heavy instance per pass would set the
# seed-to-seed spread; the fixed core keeps them in every pass.
ANCHOR_SEED = 0  # the seed of the corpus's template instances
# template: seeded instances per degree r in one pass; r = 3 is the fixed
# corpus instance, where rees_ideal -> minimal_generators dominates.
TEMPLATE_SEEDED = {1: 4, 2: 4}
# symbolic: seeded r = 2 template ideals whose second symbolic power is taken.
SYMBOLIC_SEEDED = 3
# inverse: fixed degree-6 composites dJ o L o sigma, seeded degree-4
# composites sigma o L o sigma.
INVERSE_ANCHORED = 2
INVERSE_SEEDED = 60


def _ring_line(ring):
    return "ring R = QQ[%s];" % ", ".join(ring.names)


def _ideal_line(name, gens):
    return "ideal %s = %s;" % (name, ", ".join(str(g) for g in gens))


def _session(*lines):
    return "\n".join(lines) + "\n"


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _general_position(r, seed):
    """The template instance drawn for this seed, or None when the draw is
    degenerate or breaks the standing assumption of ``sylvester_chain``
    (the 2-minors of the linear part have codimension 3)."""
    try:
        inst = template_ideal(3, r, seed=seed)
    except DegenerateTemplate:
        return None
    lin = Ideal(inst.ring, inst.template.linear_part().minors(2))
    return inst if lin.codimension() == 3 else None


def _template_draws(rng, r, count):
    """count instances in general position, drawn as the tests' template
    sweep draws them.  The CLI redraws a degenerate instance but fails the
    command when only the standing assumption breaks (one draw in about a
    hundred), so such seeds are skipped here."""
    out = []
    while len(out) < count:
        inst = _general_position(r, rng.randrange(10 ** 6))
        if inst is not None:
            out.append(inst)
    return out


def template_sessions(seed):
    rng = _rng("template", seed)
    lines = ["ring R = QQ[x0..x2];"]
    for r in sorted(TEMPLATE_SEEDED):
        for inst in _template_draws(rng, r, TEMPLATE_SEEDED[r]):
            lines.append("template 3 %d seed=%d;" % (r, inst.seed))
    lines.append("template 3 3 seed=%d;" % ANCHOR_SEED)
    return [("template", _session(*lines))]


def _sympow_session(ideal):
    return _session(_ring_line(ideal.ring), _ideal_line("I", ideal.gens),
                    "sympow I 2;")


def symbolic_sessions(seed):
    rng = _rng("symbolic", seed)
    hankel = fixtures.sub_hankel()
    p4 = fixtures.p4_monomial()
    polar = fixtures.polar_quartic()
    element = str(polar.target.payload).replace(" ", "")
    out = [
        ("sub-hankel", _session(_ring_line(hankel.ring),
                                _ideal_line("I", hankel.spec.forms),
                                "symrees I lmax=4;")),
        ("p4-monomial", _session(_ring_line(p4.ring),
                                 _ideal_line("I", p4.spec.forms),
                                 _ideal_line("J", p4.target.payload.gens),
                                 "sympow I 2 sat=J;",
                                 "sympow I 3 sat=J;")),
        ("polar-quartic", _session(_ring_line(polar.ring),
                                   _ideal_line("I", polar.spec.forms),
                                   "sympow I 2 sat=%s;" % element)),
    ]
    for fx in (fixtures.noether(), fixtures.no_name()):
        out.append((fx.name, _session(_ring_line(fx.ring),
                                      _ideal_line("I", fx.spec.forms),
                                      "symrees I lmax=3;")))
    # level 2 of an r = 3 template: many redundant generators, few variables
    out.append(("template-r3",
                _sympow_session(template_ideal(3, 3, seed=ANCHOR_SEED).ideal)))
    for k, inst in enumerate(_template_draws(rng, 2, SYMBOLIC_SEEDED)):
        out.append(("template-r2-%d" % k, _sympow_session(inst.ideal)))
    return out


def _linear_map(rng, ring):
    """Images of x0..x2 under a random invertible integer matrix."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            return [sum((c * x for c, x in zip(row, ring.gens)), ring.zero)
                    for row in m]


def _compose(outer, inner):
    """Forms of outer after inner, with their common factor divided out."""
    ring = inner[0].ring
    images = dict(zip(ring.names, inner))
    forms = [f.substitute(images, ring=ring) for f in outer]
    common = forms[0]
    for f in forms[1:]:
        if common.homogeneous_degree() == 0:
            break
        lcm = Ideal(ring, (common,)).intersect(Ideal(ring, (f,))).gens[0]
        common = (common * f).exact_divide(lcm)
    return [f.exact_divide(common) for f in forms]


def _composite(rng, base, sigma):
    """base o L o sigma for a random invertible L, redrawn until no common
    factor lowers the degree below twice that of base."""
    ring = sigma[0].ring
    while True:
        inner = [f.substitute(dict(zip(ring.names, sigma)), ring=ring)
                 for f in _linear_map(rng, ring)]
        forms = _compose(base, inner)
        if forms[0].homogeneous_degree() == 2 * base[0].homogeneous_degree():
            return forms


def inverse_sessions(seed):
    sigma = list(fixtures.standard_quadratic().spec.forms)
    dj = list(fixtures.de_jonquieres().spec.forms)
    anchor = random.Random("inverse-anchor")
    rng = _rng("inverse", seed)
    maps = ([_composite(anchor, dj, sigma) for _ in range(INVERSE_ANCHORED)]
            + [_composite(rng, sigma, sigma) for _ in range(INVERSE_SEEDED)])
    plane = [_ring_line(sigma[0].ring)]
    commands = []
    for k, forms in enumerate(maps):
        plane.append(_ideal_line("C%d" % k, forms))
        commands += ["inverse C%d;" % k, "invfactor C%d;" % k]
    out = [("composites", _session(*(plane + commands)))]
    for fx in fixtures.all_fixtures():
        out.append((fx.name, _session(_ring_line(fx.ring),
                                      _ideal_line("I", fx.spec.forms),
                                      "inverse I;", "invfactor I;")))
    mat = fixtures.alberich_matrix()
    entries = ", ".join(str(mat[i, j]) for i in range(mat.nrows)
                        for j in range(mat.ncols))
    out.append(("alberich", _session(
        _ring_line(mat.ring),
        "matrix M[%d][%d] = %s;" % (mat.nrows, mat.ncols, entries),
        "appendix M;")))
    return out


def build(workload, seed):
    """The (label, source) session list of a workload for a seed."""
    return {"template": template_sessions,
            "symbolic": symbolic_sessions,
            "inverse": inverse_sessions}[workload](seed)
