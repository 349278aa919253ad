"""Birationality testing and inverse extraction for rational maps of P^n.

The inverse of a Cremona map is read off from the syzygies of the
Jacobian dual psi of its Rees presentation (Doria, Hassanzadeh and
Simis, Adv. Math. 230 (2012)).  psi(f) * x = 0, so when psi(f) has rank n
every syzygy column g satisfies g(f) = lambda * x: the column is an
inverse exactly when g_0(f) is nonzero, and then D = g_0(f) / x_0.  The
rank is certified by psi at the image f(a) of a random point a modulo a
prime, where a nonzero minor proves a nonzero polynomial (Schwartz, J.
ACM 27 (1980)); a draw that does not certify falls back to composing
every coordinate.  Likewise the forms of a map are proved coprime by
their restrictions to a random line, with the codimension of their
ideal as the fallback.
"""

from __future__ import annotations

import random

from .groebner import check_deadline, syzygies
from .ideals import Ideal
from .rees import jacobian_dual, rees_ideal
from .rings import NotDivisibleError, Polynomial, _values

__all__ = ["InverseData", "RationalMapSpec", "inversion_factor", "invert"]


class RationalMapSpec:
    """Rational map given by a representative of equal-degree forms.

    The representative must have no fixed part: the gcd of the forms is a
    unit.  Forms may include zeros (the map then misses coordinates) but
    not all of them.
    """

    __slots__ = ("ring", "forms", "degree")

    def __init__(self, ring, forms):
        forms = tuple(forms)
        if not forms or all(not f for f in forms):
            raise ValueError("need at least one nonzero form")
        degs = set()
        for f in forms:
            if not isinstance(f, Polynomial) or f.ring != ring:
                raise ValueError("form from a different ring")
            if not f:
                continue
            if not f.is_homogeneous():
                raise ValueError("representatives must be forms")
            degs.add(f.homogeneous_degree())
        if len(degs) != 1:
            raise ValueError("representatives must share one degree")
        d = degs.pop()
        if d < 1:
            raise ValueError("constant representatives define no map")
        if not _coprime([f for f in forms if f]):
            raise ValueError("representatives share a common factor")
        self.ring = ring
        self.forms = forms
        self.degree = d

    @classmethod
    def from_ideal(cls, I):
        return cls(I.ring, I.gens)

    def base_ideal(self):
        return Ideal(self.ring, self.forms)

    def is_square(self):
        return len(self.forms) == self.ring.nvars

    def __repr__(self):
        return ("RationalMapSpec(%d forms of degree %d on %s)"
                % (len(self.forms), self.degree, self.ring))


class InverseData:
    """Inverse representative plus its inversion factor.

    Satisfies g_i(f) = x_i * D with deg D = d*d' - 1; D is normalized to
    leading coefficient 1 and the g_i are scaled to match.
    """

    __slots__ = ("inverse", "factor", "degree")

    def __init__(self, inverse, factor, degree):
        self.inverse = inverse
        self.factor = factor
        self.degree = degree

    def __repr__(self):
        return ("InverseData(degree %d, factor %s)"
                % (self.degree, self.factor))


# random points are drawn modulo this prime over QQ, from a generator
# seeded alike on every call so that runs repeat
_PRIME = (1 << 31) - 1
_SEED = 2014


def _draws(ring):
    """The modulus of ring's random points and their generator."""
    return ring.field.characteristic or _PRIME, random.Random(_SEED)


def _rank(rows, p):
    """Rank modulo p of a matrix given by rows of residues."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                q = rows[i][c] * inv
                rows[i] = [(x - q * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _full_rank(F, psi):
    """Whether psi(f), the Jacobian dual at the forms, certifiably has
    rank n over k(x): psi at b = f(a) for a random point a has rank n mod
    p.  Its rank is at most n, because psi(f) * x = 0."""
    p, rng = _draws(F.ring)
    a = [rng.randrange(p) for _ in range(F.ring.nvars)]
    b = _values(F.forms, [a], p)
    if b is None:
        return False
    entries = [e for row in psi.entries for e in row]
    nonzero = [e for e in entries if e]
    vals = _values(nonzero, [[v[0] for v in b]], p) if nonzero else None
    if vals is None:
        return False
    it = iter(vals)
    flat = [next(it)[0] if e else 0 for e in entries]
    m = psi.ncols
    rows = [flat[i:i + m] for i in range(0, len(flat), m)]
    return _rank(rows, p) == F.ring.nvars - 1


def _interpolate(vals, p):
    """Coefficients, lowest first, of the polynomial of degree below
    len(vals) taking vals at 0, 1, ... modulo p (Newton's form)."""
    c = list(vals)
    m = len(c)
    for k in range(1, m):
        inv = pow(k, -1, p)
        for j in range(m - 1, k - 1, -1):
            c[j] = (c[j] - c[j - 1]) * inv % p
    out = [c[-1]]
    for k in range(m - 2, -1, -1):
        # out * (s - k) + c[k]
        out = [(shifted - k * x) % p
               for shifted, x in zip([0] + out, out + [0])]
        out[0] = (out[0] + c[k]) % p
    while out and not out[-1]:
        out.pop()
    return out


def _rem(a, b, p):
    """Remainder of a by nonzero b, coefficient lists mod p lowest first."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        q = a[i] * inv % p
        if q:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - q * b[j]) % p
    a = a[:db]
    while a and not a[-1]:
        a.pop()
    return a


def _gcd(a, b, p):
    while b:
        a, b = b, _rem(a, b, p)
    return a


def _coprime_on_line(forms):
    """Whether nonzero forms are certified to share no factor of positive
    degree by their restrictions to a random line s*u + v mod p.

    A common factor G, taken primitive over the integers, is nonzero mod
    p and restricts either to 0, making every restriction 0, or to a
    binary form of degree deg G dividing all of them.  So when some
    restriction is nonzero, one keeps its full degree in s (its form is
    nonzero at u, so t does not divide it) and their gcd at t = 1 is a
    constant, no G exists.  False means only "not certified"."""
    p, rng = _draws(forms[0].ring)
    degs = [f.homogeneous_degree() for f in forms]
    if max(degs) >= p:
        return False
    n = forms[0].ring.nvars
    u = [rng.randrange(p) for _ in range(n)]
    v = [rng.randrange(p) for _ in range(n)]
    line = [[(s * x + y) % p for x, y in zip(u, v)]
            for s in range(max(degs) + 1)]
    vals = _values(forms, line, p)
    if vals is None:
        return False
    full = False
    g = []
    for d, vf in zip(degs, vals):
        r = _interpolate(vf[:d + 1], p)
        full = full or len(r) == d + 1
        g = _gcd(g, r, p) if g else r
        if full and len(g) == 1:
            return True
    return False


def _coprime(forms):
    """Whether nonzero forms share no factor of positive degree: the line
    certificate, else the codimension of their ideal, which is at most 1
    exactly when they share one (in a UFD, over any field)."""
    return (_coprime_on_line(forms)
            or Ideal(forms[0].ring, forms).codimension() >= 2)


def _compose(candidate, F):
    """Evaluate y-forms at the representative, landing in the source ring."""
    images = dict(zip(candidate[0].ring.names, F.forms))
    return [g.substitute(images, ring=F.ring) if g else F.ring.zero
            for g in candidate]


def _factor_from(comp, F):
    """Common quotient D with comp[i] = x_i * D, or None."""
    xs = F.ring.gens
    d = None
    for i, h in enumerate(comp):
        check_deadline()
        if not h:
            return None
        try:
            q = h.exact_divide(xs[i])
        except NotDivisibleError:
            return None
        if d is None:
            d = q
        elif q != d:
            return None
    return d


def _factor_at_zero(g0, F):
    """D = g_0(f) / x_0, or None when g_0(f) is zero: a column's factor
    once psi(f) is known to have rank n."""
    if not g0:
        return None
    h = g0.substitute(dict(zip(g0.ring.names, F.forms)), ring=F.ring)
    return h.exact_divide(F.ring.gens[0]) if h else None


def invert(F):
    """Inverse data of a square map, or None when no candidate passes.

    Minimal syzygies of the Jacobian dual are tried in the order syzygies
    lists them, by increasing degree.
    A candidate g passes when g_i(f) = x_i * D for all i; once the rank
    of psi(f) is certified, g_0(f) decides it.
    """
    if not F.is_square():
        raise ValueError("inverse extraction needs a square map")
    if any(not f for f in F.forms):
        return None
    try:
        psi = jacobian_dual(rees_ideal(Ideal(F.ring, F.forms)))
    except ValueError:
        return None
    S = syzygies(psi)
    certified = _full_rank(F, psi)
    for col in zip(*S.entries):
        if certified:
            d = _factor_at_zero(col[0], F)
        else:
            d = _factor_from(_compose(col, F), F)
        if d is not None:
            inv = F.ring.field.inv(d.leading_coefficient())
            deg = next(g for g in col if g).homogeneous_degree()
            return InverseData(tuple(g * inv for g in col), d * inv, deg)
    return None


def inversion_factor(F, G):
    """The common factor D with g_i(f) = x_i * D, exactly as given.

    G is an inverse representative in the y-ring; raises when the
    quotients disagree or division fails.
    """
    comp = _compose(tuple(G), F)
    d = _factor_from(comp, F)
    if d is None:
        raise ValueError("candidate fails the composition check")
    return d
