"""Exact multivariate polynomial rings over QQ and prime fields.

A polynomial is stored on the packed integer keys of its ring's grevlex
PackedOrder, the keys the Groebner engine reduces with: over QQ as a
Fraction scale times primitive integer terms, over Fp as residues.
Products add keys, exact division is a heap division on keys, and
degrees and supports are read from key fields.  Exponent tuples and
field elements appear only at the edges, among them a canonical text
form (terms descending in grevlex, explicit '*' and '^', rationals as
a/b) in which equal values print identically and parse back; the
printer reads exponents from the key fields.  The tokenizer and the
expression parser of that text live here too, and session scripts use
them as they are: a cursor walks one token stream with offsets, from
which PolyRing.parse reads a whole text and the session parser reads
each polynomial in place.  A sum is read into one {key: coefficient}
accumulator, each monomial term added as its key key0 + sum(w_i * e_i)
with no Polynomial arithmetic, and made canonical once, so parsing is
linear in the text.  The cooperative deadline lives here as well, so
that large products, and the parser that builds them, can be
interrupted.  Outside this module only groebner reads the stored form;
the reader of a form's coefficients in monomials and the values of
forms modulo p, which read it too, live here.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import heapq
import itertools
import math
import re
import time
from fractions import Fraction
from operator import mul

__all__ = [
    "DeadlineExceeded", "Field", "QQ", "GF", "MonomialOrder", "PackedOrder",
    "PolyRing", "Polynomial", "FormMatrix", "NotDivisibleError", "ParseError",
    "check_deadline", "deadline", "transfer",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class DeadlineExceeded(RuntimeError):
    """Raised when a computation runs past its cooperative deadline."""


_DEADLINE = contextvars.ContextVar("cremona_deadline", default=None)


@contextlib.contextmanager
def deadline(seconds):
    """Run the enclosed block under a wall clock budget in seconds."""
    limit = time.monotonic() + seconds if seconds else None
    token = _DEADLINE.set(limit)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline():
    limit = _DEADLINE.get()
    if limit is not None and time.monotonic() > limit:
        raise DeadlineExceeded("computation exceeded its time budget")


# Miller-Rabin to the first 13 prime bases is exact below psi_13, which
# passes it (Sorenson and Webster, Math. Comp. 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for every n below _PRIME_BOUND."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (characteristic 0) or a prime field Fp."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic=0):
        if characteristic >= _PRIME_BOUND:
            raise ValueError("characteristic must be below %d, where "
                             "primality is decided" % _PRIME_BOUND)
        if characteristic and not _is_prime(characteristic):
            raise ValueError("characteristic must be zero or prime")
        self.characteristic = characteristic

    def coerce(self, value):
        p = self.characteristic
        if p:
            if isinstance(value, int):
                return value % p
            value = Fraction(value)
            return value.numerator * pow(value.denominator, -1, p) % p
        return Fraction(value)

    def inv(self, c):
        p = self.characteristic
        return pow(c, -1, p) if p else 1 / c

    @property
    def label(self):
        p = self.characteristic
        return "Fp(%d)" % p if p else "QQ"

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return self.label


QQ = Field(0)


def GF(p):
    """Prime field of characteristic p."""
    return Field(p)


class MonomialOrder:
    """Term order description: grevlex or block elimination (lex is the
    block order of one variable per group).

    Orders are specified by variable names so the same order value can be
    compiled against any ring containing those variables; PackedOrder
    does the compiling and is the only code that compares terms.
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind, data=()):
        self.kind = kind
        self.data = data

    @classmethod
    def grevlex(cls, names=()):
        """Graded reverse lex on the variables in the sequence names (the
        ring's own sequence when empty); the last one is the smallest."""
        return cls("grevlex", tuple(names))

    @classmethod
    def block(cls, *name_groups):
        """Product order eliminating earlier groups, grevlex inside each."""
        return cls("block", tuple(tuple(g) for g in name_groups))

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.data == other.data)

    def __hash__(self):
        return hash((self.kind, self.data))

    def __repr__(self):
        return "MonomialOrder(%s)" % self.kind


_W = 24
_GUARD = 1 << (_W - 1)
_MAXF = _GUARD - 1
# 2^_W = 1 modulo _MOD, so a key taken modulo _MOD is the sum of its
# fields, exact while that sum is below _MOD
_MOD = (1 << _W) - 1


class PackedOrder:
    """A term order compiled to packed integer keys for one ring.

    A key lays the order's fields out most significant first, each _W
    bits wide with a guard bit on top that stays clear: "deg" holds the
    degree of a group of variables and "comp" the complement _MAXF - e_i
    of an exponent.  Integer comparison of keys is the term order, the
    product of two monomials has key ka + kb - key0, and divides() is a
    two-mask borrow test, which lcm() uses to pick fields.  Every field
    is affine in the exponents, so encode() is key0 + sum(e_i * w_i);
    the fields cannot overflow while the total degree is at most _MAXF,
    and larger degrees are rejected.

    With rank > 0 the keys are terms of a free module of that rank,
    position over term: two top fields hold _MAXF - c and c ("plain")
    for the component c, so a lower component gives the larger term.
    The borrow test lets neither field shrink from divisor to multiple,
    so it only finds divisors within one component.  The key of the
    term e in component c is encode(e) + c * cstep.
    """

    __slots__ = ("ring", "order", "rank", "graded", "weights", "key0",
                 "cstep", "cshift", "dfields", "shifts", "down", "up",
                 "guards", "dsums", "dclear", "tmask")

    def __init__(self, ring, order, rank=0):
        n = ring.nvars
        kind = order.kind
        if kind not in ("grevlex", "block"):
            raise ValueError("unknown order kind %r" % kind)
        # grevlex is the block order of one group
        groups = (order.data if kind == "block"
                  else (order.data or ring.names,))
        raw = [("pos", n), ("plain", n)] if rank else []
        seen = []
        for group in groups:
            idx = tuple(ring.index(v) for v in group)
            seen.extend(idx)
            raw.append(("deg", idx))
            raw.extend(("comp", i) for i in reversed(idx))
        if sorted(seen) != list(range(n)):
            raise ValueError("%s order must cover the ring variables" % kind)
        # index n stands for the module component
        weights = [0] * (n + 1)
        key0 = down = up = guards = dmask = 0
        dfields = []
        degs = []
        fmask = {}
        for pos, (k, arg) in enumerate(raw):
            shift = _W * (len(raw) - 1 - pos)
            unit = 1 << shift
            guards |= _GUARD << shift
            if k == "deg":
                for i in arg:
                    weights[i] += unit
                degs.append((shift, arg))
                dmask |= _MAXF << shift
            elif k == "plain":
                weights[arg] += unit
            else:
                key0 += _MAXF << shift
                weights[arg] -= unit
            if k == "comp":
                up |= _MAXF << shift
                dfields.append((shift, arg))
                fmask[arg] = _MAXF << shift
            else:
                down |= _MAXF << shift
        self.ring = ring
        self.order = order
        self.rank = rank
        # whether a larger key never has a smaller total degree
        self.graded = kind == "grevlex" and not rank
        self.weights = tuple(weights[:n])
        self.key0 = key0
        self.cstep = weights[n]
        self.cshift = _W * (len(raw) - 2)
        self.dfields = tuple(dfields)
        # the exponent fields in variable order
        self.shifts = tuple(f[0] for f in sorted(dfields, key=lambda f: f[1]))
        self.down = down
        self.up = up
        self.guards = guards
        # each degree field with the mask of its group's complement fields
        self.dsums = tuple((shift, sum(fmask[i] for i in idx))
                           for shift, idx in degs)
        self.dclear = ~dmask
        # the fields whose sum is the total degree
        self.tmask = dmask

    def encode(self, exps):
        if sum(exps) > _MAXF:
            raise ValueError("total degree %d exceeds the limit %d"
                             % (sum(exps), _MAXF))
        return sum(map(mul, self.weights, exps), self.key0)

    def decode(self, key):
        e = [0] * self.ring.nvars
        for shift, i in self.dfields:
            e[i] = _MAXF - ((key >> shift) & _MAXF)
        return tuple(e)

    def component(self, key):
        """Module component of a key (0 when rank is 0)."""
        return (key >> self.cshift) & _MAXF if self.rank else 0

    def divides(self, kb, ka):
        """Whether the term of kb divides the term of ka."""
        x = (ka & self.down) | (kb & self.up)
        y = (kb & self.down) | (ka & self.up)
        g = self.guards
        return ((x | g) - y) & g == g

    def lcm(self, ka, kb):
        """Key of the lcm of two terms; None across module components.

        Computed on the fields.  The borrow test of divides() sets the
        guard bit of each field where ka's plain field is the larger or
        its complement field the smaller, and that field is taken from
        ka, every other one from kb.  A degree field is then re-summed
        from the complement fields of its group, each of which XOR _MAXF
        is an exponent.  A total degree above _MAXF is rejected as in
        encode().
        """
        if self.rank and self.component(ka) != self.component(kb):
            return None
        g = self.guards
        x = (ka & self.down) | (kb & self.up)
        y = (kb & self.down) | (ka & self.up)
        take = ((x | g) - y) & g
        take -= take >> (_W - 1)
        key = (kb ^ ((ka ^ kb) & take)) & self.dclear
        tdeg = 0
        for shift, gmask in self.dsums:
            d = ((key & gmask) ^ gmask) % _MOD
            tdeg += d
            key |= d << shift
        if tdeg > _MAXF:
            raise ValueError("total degree %d exceeds the limit %d"
                             % (tdeg, _MAXF))
        return key

    def tdeg(self, key):
        """Total degree of the term of a key, read from its fields: the
        sum modulo _MOD of the degree fields."""
        return (key & self.tmask) % _MOD

    def grading(self, weights):
        """Function from a key to the weighted degree sum(w_i * e_i) of its
        term, for nonnegative integer weights of the variables.  For each
        weight, the exponent fields of its variables are masked out and
        summed modulo _MOD as in lcm(); a complement field XOR _MAXF is its
        exponent."""
        if len(weights) != self.ring.nvars:
            raise ValueError("need one weight per variable")
        masks = {}
        for shift, i in self.dfields:
            masks[weights[i]] = masks.get(weights[i], 0) | _MAXF << shift
        if len(masks) == 1 and 1 in masks:
            return self.tdeg
        masks = tuple(masks.items())

        def degree(key):
            d = 0
            for w, m in masks:
                d += w * (((key & m) ^ m) % _MOD)
            return d

        return degree

    def remap(self, other):
        """Function from a key to the key of the same term in other (no
        module components), matching variables by name, those missing
        from other's ring unused; None when both pack alike."""
        if (self.ring.names == other.ring.names and self.key0 == other.key0
                and self.weights == other.weights):
            return None
        index = other.ring._index
        names = self.ring.names
        fields = tuple((shift, other.weights[j]) for shift, i in self.dfields
                       if (j := index.get(names[i])) is not None)
        key0 = other.key0

        def convert(key):
            k = key0
            for shift, w in fields:
                k += (((key >> shift) & _MAXF) ^ _MAXF) * w
            return k

        return convert


@functools.lru_cache(maxsize=256)
def _packed_order(ring, order, rank=0):
    """The PackedOrder of order on ring, one for all rings equal to it:
    rings are built per call (subrings, extended rings).  Its ring is
    the first of them, equal by == to the others; a GroebnerBasis takes
    its ring from its order."""
    return PackedOrder(ring, order, rank)


def _primitive(terms):
    """(g, terms / g) for nonzero integer terms, g their content signed
    so that the largest key gets a positive coefficient."""
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return g, terms if g == 1 else {k: v // g for k, v in terms.items()}


def _canonical(ring, terms, scale):
    """The Polynomial scale * terms of nonzero integer terms on ring's
    keys, the content moved into the scale; over Fp the terms are
    residues and scale is ignored."""
    if ring.field.characteristic or not terms:
        return Polynomial(ring, terms, 1)
    g, terms = _primitive(terms)
    return Polynomial(ring, terms, scale * g)


def _from_sums(ring, sums):
    """The Polynomial of {key: coefficient} on ring's keys, coefficients
    ints or Fractions over QQ and ints over Fp, zeros among them."""
    p = ring.field.characteristic
    if p:
        return Polynomial(ring, {k: r for k, v in sums.items()
                                 if (r := v % p)}, 1)
    den = math.lcm(*(c.denominator for c in sums.values()))
    return _canonical(ring, {k: n for k, c in sums.items() if (
        n := c.numerator * (den // c.denominator))}, Fraction(1, den))


def _times(a, b, po):
    """Product of two nonzero packed term dicts in a graded order: keys
    add up to the constant key0.  A product of total degree above _MAXF
    is rejected before any term is formed."""
    tdeg = po.tdeg
    d = tdeg(max(a)) + tdeg(max(b))
    if d > _MAXF:
        raise ValueError("total degree %d exceeds the limit %d" % (d, _MAXF))
    if len(a) > len(b):
        a, b = b, a
    p = po.ring.field.characteristic
    off = -po.key0
    # only products this large can overrun a deadline noticeably
    big = len(a) * len(b) >= 4096
    out = {}
    get = out.get
    for ka, ca in a.items():
        if big:
            check_deadline()
        ka += off
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: r for k, v in out.items() if (r := v % p if p else v)}


class NotDivisibleError(ArithmeticError):
    pass


class ParseError(ValueError):
    """Malformed text; line and col locate the offending token, when it
    is known."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col


class PolyRing:
    """Polynomial ring k[names]: the variables and the field, nothing
    more, so rings with equal names and field are equal.  The keys of its
    default (grevlex) PackedOrder are the stored form of every Polynomial
    of the ring.
    """

    __slots__ = ("field", "names", "_index", "_gens", "_packed", "_unit")

    def __init__(self, names, field=QQ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise ValueError("bad variable name %r" % nm)
        self.field = field
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        self._gens = None
        self._packed = _packed_order(self, MonomialOrder.grevlex())
        # the scale 1 in the field's type, a Fraction over QQ
        self._unit = field.coerce(1)

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("no variable %r in %r" % (name, self)) from None

    @property
    def gens(self):
        if self._gens is None:
            po = self._packed
            self._gens = tuple(Polynomial(self, {po.key0 + w: 1}, self._unit)
                               for w in po.weights)
        return self._gens

    def var(self, name):
        return self.gens[self.index(name)]

    @property
    def zero(self):
        return Polynomial(self, {}, self._unit)

    @property
    def one(self):
        return self.const(1)

    def const(self, c):
        return self.monomial((0,) * self.nvars, c)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        c = self.field.coerce(coeff)
        if not c:
            return self.zero
        k = self._packed.encode(exps)
        if self.field.characteristic:
            return Polynomial(self, {k: c}, 1)
        return Polynomial(self, {k: 1}, c)

    def from_terms(self, terms):
        """The polynomial of (exponent vector, coefficient) pairs or an
        {exponent vector: coefficient} dict; repeated vectors add up."""
        enc = self._packed.encode
        coerce = self.field.coerce
        out = {}
        for exps, c in terms.items() if isinstance(terms, dict) else terms:
            k = enc(tuple(exps))
            out[k] = out.get(k, 0) + coerce(c)
        return _from_sums(self, out)

    def grading(self, weights):
        """Function from a polynomial of the ring to the set of weighted
        degrees sum(w_i * e_i) of its terms, for nonnegative integer
        weights of the variables (see PackedOrder.grading); the zero
        polynomial has none."""
        degree = self._packed.grading(weights)
        return lambda f: set(map(degree, f._t))

    def monomials_of_degree(self, d):
        """Yield all exponent vectors of total degree d."""
        n = self.nvars
        if n == 0:
            if d == 0:
                yield ()
            return
        for bars in itertools.combinations(range(d + n - 1), n - 1):
            prev, out = -1, []
            for b in bars:
                out.append(b - prev - 1)
                prev = b
            out.append(d + n - 1 - prev - 1)
            yield tuple(out)

    def parse(self, text):
        """The polynomial written in text, in the grammar of session
        polynomials; whitespace and # comments may stand between tokens."""
        cur = _Cursor(text)
        value = _parse_expr(self, cur)
        tok = cur.peek()
        if tok.kind != "end":
            raise ParseError("trailing input in %r" % text, tok.line, tok.col)
        return value

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names)

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return "%s[%s]" % (self.field.label, ",".join(self.names))


class Polynomial:
    """Immutable exact polynomial, stored as scale * terms.

    terms maps the keys of ring._packed, the ring's grevlex PackedOrder,
    to nonzero integers: over QQ primitive, positive at the largest key,
    with a nonzero Fraction scale; over Fp residues, with scale 1.  Zero
    has no terms and scale 1.  The form is unique, so equality and
    hashing compare the stored data.  The dict may be shared, with other
    polynomials and the engine, and is never mutated.
    """

    __slots__ = ("ring", "_t", "_s", "_hash")

    def __init__(self, ring, terms, scale):
        self.ring = ring
        self._t = terms
        self._s = scale if terms else ring._unit
        self._hash = None

    # -- inspection ----------------------------------------------------

    def items(self):
        """(exponent vector, coefficient) pairs."""
        dec = self.ring._packed.decode
        s = self._s
        return [(dec(k), s * c) for k, c in self._t.items()]

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self._t:
            return None
        return self.ring._packed.tdeg(max(self._t))

    def is_homogeneous(self):
        # in a graded order the smallest key has the least degree
        t = self._t
        tdeg = self.ring._packed.tdeg
        return not t or tdeg(min(t)) == tdeg(max(t))

    def homogeneous_degree(self):
        if not self._t:
            raise ValueError("zero polynomial has no homogeneous degree")
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        return self.degree()

    def support(self):
        """Names of variables occurring with positive exponent."""
        po = self.ring._packed
        # key XOR key0 holds each exponent in its field
        acc = 0
        for k in self._t:
            acc |= k ^ po.key0
        seen = sorted(i for shift, i in po.dfields
                      if (acc >> shift) & _MAXF)
        return tuple(self.ring.names[i] for i in seen)

    def leading_coefficient(self):
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        return self._s * self._t[max(self._t)]

    # -- arithmetic ----------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials live in different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        return NotImplemented if other is None else _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._coerce_other(other)
        return NotImplemented if other is None else _combine(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        return NotImplemented if other is None else _combine(other, self, -1)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        a, b = self._t, other._t
        if not a or not b:
            return ring.zero
        if ring.field.characteristic:
            return Polynomial(ring, _times(a, b, ring._packed), 1)
        # by Gauss's lemma the product of primitive parts is primitive,
        # and a constant's is {key0: 1}
        s = self._s * other._s
        if len(b) == 1 and ring._packed.key0 in b:
            return Polynomial(ring, a, s)
        if len(a) == 1 and ring._packed.key0 in a:
            return Polynomial(ring, b, s)
        return Polynomial(ring, _times(a, b, ring._packed), s)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # zero and constants take any exponent
        d = self.degree()
        if d and d * n > _MAXF:
            raise ValueError("total degree %d exceeds the limit %d"
                             % (d * n, _MAXF))
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if not c:
                raise ZeroDivisionError
            return self * self.ring.const(self.ring.field.inv(c))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring == other.ring and self._s == other._s
                and self._t == other._t)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self._s,
                               frozenset(self._t.items())))
        return self._hash

    # -- structured operations ----------------------------------------

    def substitute(self, images, ring=None):
        """Apply xi -> images[xi]; every occurring variable needs an image.

        Runs on the target ring's keys with integer coefficients.  Over
        QQ each term of self gets one integer multiplier, its coefficient
        times the scales of its images' powers over a common denominator
        q, so the result is scale / q times the integer sum.  The powers
        of every image are cached, and so are the products of powers for
        the exponent prefixes that terms share; the last factor of a term
        is multiplied straight into the result.  A result whose degree
        could exceed _MAXF is rejected before any product is formed.
        Every pass over the terms checks the deadline once per term.
        """
        target = ring
        for name, img in images.items():
            self.ring.index(name)
            if isinstance(img, Polynomial):
                if target is None:
                    target = img.ring
                elif img.ring != target:
                    raise ValueError("images live in different rings")
        if target is None:
            target = self.ring
        if target.field != self.ring.field:
            raise ValueError("rings have different coefficient fields")
        for name in self.support():
            if name not in images:
                raise ValueError("missing image for variable %r" % name)
        imgs = {self.ring.index(name): img if isinstance(img, Polynomial)
                else target.const(img) for name, img in images.items()}
        p = target.field.characteristic
        degs = {i: img.degree() for i, img in imgs.items()}
        decode = self.ring._packed.decode
        # the terms that survive: no zero image
        terms = []
        top = 0
        for k, c in self._t.items():
            check_deadline()
            e = decode(k)
            if any(x and degs[i] is None for i, x in enumerate(e)):
                continue
            terms.append((e, c))
            top = max(top, sum(x * degs[i] for i, x in enumerate(e) if x))
        if top > _MAXF:
            raise ValueError("total degree %d exceeds the limit %d"
                             % (top, _MAXF))
        used = {i for e, _c in terms for i, x in enumerate(e) if x}
        q = 1
        if not p:
            for k, (e, c) in enumerate(terms):
                check_deadline()
                terms[k] = (e, c * math.prod(imgs[i]._s ** x
                                             for i, x in enumerate(e) if x))
            q = math.lcm(*(c.denominator for _e, c in terms))
            terms = [(e, c.numerator * (q // c.denominator))
                     for e, c in terms]
        po = target._packed
        one = {po.key0: 1}
        powers = {i: [one, imgs[i]._t] for i in used}

        def power(i, x):
            row = powers[i]
            while len(row) <= x:
                row.append(_times(row[-1], row[1], po))
            return row[x]

        # products of powers by exponent prefix e[:i + 1], e[i] nonzero
        prods = {}
        off = -po.key0
        out = {}
        get = out.get
        for e, a in terms:
            check_deadline()
            nz = [i for i, x in enumerate(e) if x]
            if not nz:
                out[po.key0] = get(po.key0, 0) + a
                continue
            *head, last = nz
            left = one
            for i in head:
                pre = e[:i + 1]
                got = prods.get(pre)
                if got is None:
                    got = power(i, e[i])
                    if left is not one:
                        got = _times(left, got, po)
                    prods[pre] = got
                left = got
            right = power(last, e[last])
            big = len(left) * len(right) >= 4096
            for ka, ca in left.items():
                if big:
                    check_deadline()
                ka += off
                ca *= a
                if p:
                    ca %= p
                for kb, cb in right.items():
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        out = {k: r for k, v in out.items() if (r := v % p if p else v)}
        return _canonical(target, out, self._s / q)

    def exact_divide(self, divisor):
        """Quotient self/divisor; raises NotDivisibleError when inexact.

        A division on keys with the remainder's keys on a heap (after
        Monagan and Pearce, "Polynomial division using dynamic arrays,
        heaps, and packed exponent vectors", CASC 2007).  Over QQ it runs
        on the primitive parts, where by Gauss's lemma an exact quotient
        is a primitive integer polynomial, so a remainder coefficient
        that the divisor's leading one does not divide ends it; the
        quotient's scale is the ratio of the scales.
        """
        divisor = self._coerce_other(divisor)
        if not divisor:
            raise ZeroDivisionError
        ring = self.ring
        p = ring.field.characteristic
        po = ring._packed
        divides = po.divides
        dt = divisor._t
        dk = max(dt)
        dc = dt[dk]
        dinv = pow(dc, -1, p) if p else None
        tail = [(k - dk, c) for k, c in dt.items() if k != dk]
        rem = dict(self._t)
        # the remainder's keys, largest first; a term cancelled from rem
        # stays on the heap and is skipped when it comes up
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            k = -heapq.heappop(heap)
            c = rem.pop(k, None)
            if c is None:
                continue
            if not divides(dk, k):
                raise NotDivisibleError("division is not exact")
            if p:
                c = c * dinv % p
            else:
                c, r = divmod(c, dc)
                if r:
                    raise NotDivisibleError("division is not exact")
            quot[k - dk + po.key0] = c
            for off, tc in tail:
                nk = k + off
                v = rem.get(nk)
                if v is None:
                    heapq.heappush(heap, -nk)
                v = (v or 0) - c * tc
                if p:
                    v %= p
                if v:
                    rem[nk] = v
                else:
                    del rem[nk]
        if p:
            return Polynomial(ring, quot, 1)
        return Polynomial(ring, quot, self._s / divisor._s)

    def normalized(self):
        """Canonical scalar multiple: content-free with positive leading
        coefficient over QQ, monic over Fp."""
        if not self.ring.field.characteristic:
            return Polynomial(self.ring, self._t, self.ring._unit)
        return self / self.leading_coefficient() if self._t else self

    # -- printing ------------------------------------------------------

    def __str__(self):
        ring = self.ring
        po = ring._packed
        fields = tuple(zip(ring.names, po.shifts))
        # the scale is 1 over Fp
        sn, sd = self._s.numerator, self._s.denominator
        parts = []
        for k in sorted(self._t, reverse=True):
            # key XOR key0 holds each exponent in its field
            z = k ^ po.key0
            factors = [nm if x == 1 else "%s^%d" % (nm, x) for nm, shift
                       in fields if (x := (z >> shift) & _MAXF)]
            g = math.gcd(num := sn * self._t[k], sd)
            num, den = num // g, sd // g
            if den != 1:
                factors.insert(0, _decimal(abs(num)) + "/" + _decimal(den))
            elif abs(num) != 1 or not factors:
                factors.insert(0, _decimal(abs(num)))
            parts.append((" - " if num < 0 else " + ") + "*".join(factors))
        text = "".join(parts) or " + 0"
        return ("-" if text[1] == "-" else "") + text[3:]

    def __repr__(self):
        return str(self)


def _decimal(n):
    """The decimal digits of the integer n >= 0.  An integer past
    Python's limit on int-to-str conversion is written as two halves,
    the lower one padded with zeros, each in the same way."""
    try:
        return "%d" % n
    except ValueError:
        # about half the digits: log10(2) is just over 3/10
        k = n.bit_length() * 3 // 20
        hi, lo = divmod(n, 10 ** k)
        return _decimal(hi) + _decimal(lo).rjust(k, "0")


def _combine(a, b, sign):
    """a + sign * b for sign 1 or -1.  Over QQ the two scales are written
    as integer cofactors of their largest common fraction, and the
    content of the combination is taken once."""
    ring = a.ring
    if not b._t:
        return a
    if not a._t:
        return b if sign > 0 else -b
    p = ring.field.characteristic
    ta, tb = a._t, b._t
    # only operands this large can overrun a deadline noticeably
    if max(len(ta), len(tb)) >= 4096:
        check_deadline()
    if p:
        ca, cb, g = 1, sign, 1
    else:
        sa, sb = a._s, sign * b._s
        na, da = sa.numerator, sa.denominator
        nb, db = sb.numerator, sb.denominator
        gn = math.gcd(na, nb)
        den = math.lcm(da, db)
        ca = na // gn * (den // da)
        cb = nb // gn * (den // db)
        g = Fraction(gn, den)
        if len(ta) < len(tb):
            ta, tb, ca, cb = tb, ta, cb, ca
    out = dict(ta) if ca == 1 else {k: ca * v for k, v in ta.items()}
    get = out.get
    for k, v in tb.items():
        nv = get(k, 0) + cb * v
        if p:
            nv %= p
        if nv:
            out[k] = nv
        else:
            del out[k]
    return _canonical(ring, out, g)


def transfer(poly, target):
    """Move a polynomial into another ring matching variables by name.

    Every variable occurring in poly must exist in the target ring.
    """
    ring = poly.ring
    if ring == target:
        return poly
    if ring.field != target.field:
        raise ValueError("rings have different coefficient fields")
    for nm in poly.support():
        if nm not in target._index:
            raise ValueError("variable %r missing in target ring" % nm)
    conv = ring._packed.remap(target._packed)
    if conv is None:
        return Polynomial(target, poly._t, poly._s)
    return _canonical(target, {conv(k): c for k, c in poly._t.items()},
                      poly._s)


def _coefficients(g, monomials, ring):
    """The forms c_j of ring with g = sum(m_j * c_j), for monomials m_j
    of g's ring: each term of g goes to the first m_j that divides it,
    divided by m_j.  A term that no m_j divides raises ValueError.

    Read on packed keys: the quotient of the key k by the key mk is
    k - mk + key0, and one remap moves the quotients into ring, which
    must hold their variables.
    """
    po = g.ring._packed
    move = po.remap(ring._packed) or (lambda k: k)
    mkeys = [max(m._t) for m in monomials]
    parts = [{} for _ in mkeys]
    for k, c in g._t.items():
        for mk, part in zip(mkeys, parts):
            if po.divides(mk, k):
                part[move(k - mk + po.key0)] = c
                break
        else:
            raise ValueError("a term of %s is divisible by no monomial" % g)
    return [_canonical(ring, t, g._s) for t in parts]


def _values(polys, points, p):
    """Values modulo p of polynomials of one ring at each point, a list
    per polynomial; None when a scale has no inverse mod p (over QQ a
    polynomial is its scale times primitive integer terms)."""
    ring = polys[0].ring
    decode = ring._packed.decode
    top = max(f.degree() for f in polys)
    powers = []
    for pt in points:
        rows = []
        for a in pt:
            row = [1]
            for _ in range(top):
                row.append(row[-1] * a % p)
            rows.append(row)
        powers.append(rows)
    out = []
    for f in polys:
        unit = 1
        if not ring.field.characteristic:
            if not f._s.denominator % p:
                return None
            unit = f._s.numerator * pow(f._s.denominator, -1, p)
        vals = [0] * len(points)
        for k, c in f._t.items():
            exps = decode(k)
            for j, rows in enumerate(powers):
                m = c
                for row, e in zip(rows, exps):
                    m *= row[e]
                vals[j] += m
        out.append([v * unit % p for v in vals])
    return out


class FormMatrix:
    """Matrix of homogeneous forms (zero entries allowed)."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        rows = tuple(tuple(self._coerce(ring, e) for e in row) for row in entries)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        for row in rows:
            for e in row:
                if e and not e.is_homogeneous():
                    raise ValueError("matrix entries must be homogeneous")
        self.ring = ring
        self.entries = rows

    @staticmethod
    def _coerce(ring, e):
        if isinstance(e, Polynomial):
            if e.ring != ring:
                raise ValueError("entry from a different ring")
            return e
        return ring.const(e)

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.ring, self.entries)

    def minors(self, k):
        """All k x k minors, rows and columns in ascending index order."""
        if k < 1 or k > min(self.nrows, self.ncols):
            raise ValueError("bad minor size")
        out = []
        for ri in itertools.combinations(range(self.nrows), k):
            for ci in itertools.combinations(range(self.ncols), k):
                sub = tuple(tuple(self.entries[i][j] for j in ci) for i in ri)
                out.append(_det(self.ring, sub))
        return out

    def __eq__(self, other):
        return (isinstance(other, FormMatrix) and self.ring == other.ring
                and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return "[%s]" % body


def _det(ring, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero
    rest = rows[1:]
    for j in range(n):
        if not rows[0][j]:
            continue
        # once per cofactor step: the products of a large determinant are
        # many and small, so they check no deadline themselves
        check_deadline()
        sub = tuple(tuple(r[k] for k in range(n) if k != j) for r in rest)
        term = rows[0][j] * _det(ring, sub)
        acc = acc - term if j % 2 else acc + term
    return acc


# -- tokens and the expression parser -----------------------------------

# int() refuses longer digit strings (Python's default conversion limit)
MAX_TOKEN_LENGTH = 4300

# whitespace and # comments, then one token; a stray character is "bad"
_TOKEN = re.compile(r"""(?:\s+|\#[^\n]*)*(?:
    (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+)
  | (?P<dots>\.\.)
  | (?P<punct>[][()=,;^*+\-/])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


class _Token:
    """A token and its offset in the text; its line and column are found
    when asked for, from the offsets where the text's lines start."""

    __slots__ = ("kind", "text", "start", "starts")

    def __init__(self, kind, text, start, starts):
        self.kind, self.text, self.start, self.starts = kind, text, start, starts

    end = property(lambda self: self.start + len(self.text))
    line = property(lambda self: bisect.bisect_right(self.starts, self.start))
    col = property(lambda self: self.start - self.starts[self.line - 1] + 1)


def _tokenize(text):
    """The tokens of text, whitespace and # comments left out, closed by
    an "end" token; a stray character or an overlong token is a
    ParseError at its position."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = _Token(kind, m[kind], m.start(kind), starts)
        if kind == "bad":
            raise ParseError("unexpected character %r" % tok.text,
                             tok.line, tok.col)
        if len(tok.text) > MAX_TOKEN_LENGTH:
            raise ParseError("token of %d characters exceeds the limit %d"
                             % (len(tok.text), MAX_TOKEN_LENGTH),
                             tok.line, tok.col)
        tokens.append(tok)
    return tokens


class _Cursor:
    """The tokens of a text and the index of the next one, which never
    moves past the end token."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text, what=None):
        tok = self.next()
        if tok.text != text:
            raise ParseError("expected %r%s, found %r"
                             % (text, " " + what if what else "",
                                tok.text or "end of input"), tok.line, tok.col)
        return tok

    def expect_kind(self, kind, what):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError("expected %s, found %r"
                             % (what, tok.text or "end of input"),
                             tok.line, tok.col)
        return tok


class _ExprParser:
    """Recursive descent over a cursor: a sum of signed products of
    powers of numbers, fractions a/b, variables and parenthesized sums.
    It stops at the first token that cannot continue the sum.  A term
    that is not a monomial is read again from its first token by
    parse_term, as a Polynomial, and its terms are added to the sum's."""

    def __init__(self, ring, cur):
        self.ring = ring
        self.cur = cur

    def parse_expr(self):
        cur = self.cur
        acc = {}
        get = acc.get
        sign = cur.peek().text
        if sign in ("+", "-"):
            cur.next()
        for count in itertools.count(1):
            if not count % 256:
                check_deadline()
            s = -1 if sign == "-" else 1
            got = self.monomial()
            if got is None:
                term = self.parse_term()
                s *= term._s
                s = s.numerator if s.denominator == 1 else s
                for k, v in term._t.items():
                    acc[k] = get(k, 0) + s * v
            else:
                acc[got[0]] = get(got[0], 0) + s * got[1]
            sign = cur.peek().text
            if sign not in ("+", "-"):
                return _from_sums(self.ring, acc)
            cur.next()

    def monomial(self):
        """(packed key, coefficient) of the term at the cursor, moved past
        it, if the term is a monomial, else None.  Its degree is summed
        factor by factor and rejected at the first factor past the limit,
        unless the product so far is zero."""
        ring = self.ring
        cur = self.cur
        toks = cur.tokens
        p = ring.field.characteristic
        first = cur.i
        key = ring._packed.key0
        deg = 0
        c = 1
        while True:
            tok = toks[cur.i]
            if tok.kind == "number":
                if c != 1:
                    # a product of long numbers grows with every factor
                    check_deadline()
                n, d = self.parse_number()
                e = self.parse_exponent()
                if p:
                    c = c * pow(n, e, p) * pow(d, -e, p) % p
                else:
                    c *= (n if d == e == 1
                          else _number_power(tok, Fraction(n, d), e))
            elif (j := ring._index.get(tok.text)) is not None:
                cur.i += 1
                e = self.parse_exponent()
                deg += e
                if deg > _MAXF and c:
                    raise ParseError("total degree %d exceeds the limit %d"
                                     % (deg, _MAXF), tok.line, tok.col)
                key += ring._packed.weights[j] * e
            else:
                cur.i = first
                return None
            if toks[cur.i].text != "*":
                return key, c
            cur.i += 1

    def parse_term(self):
        acc = self.parse_factor()
        while self.cur.peek().text == "*":
            self.cur.next()
            check_deadline()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        tok = self.cur.peek()
        base = self.parse_base()
        e = self.parse_exponent()
        if e == 1:
            return base
        if base.degree() == 0 and not self.ring.field.characteristic:
            return self.ring.const(_number_power(tok, base._s, e))
        return base ** e

    def parse_exponent(self):
        """The exponent after a '^' at the cursor, else 1."""
        if self.cur.peek().text != "^":
            return 1
        self.cur.next()
        tok = self.cur.next()
        if tok.kind != "number":
            raise ParseError("exponent must be an integer literal",
                             tok.line, tok.col)
        e = int(tok.text)
        if e > _MAXF:
            raise ParseError("exponent %d exceeds the limit %d" % (e, _MAXF),
                             tok.line, tok.col)
        return e

    def parse_number(self):
        """(n, d) for the number n or the fraction n/d at the cursor, in
        lowest terms over Fp, where d must be a unit."""
        cur = self.cur
        n = int(cur.next().text)
        if cur.peek().text != "/":
            return n, 1
        cur.next()
        tok = cur.next()
        if tok.kind != "number":
            raise ParseError("expected integer denominator", tok.line, tok.col)
        d = int(tok.text)
        if not d:
            raise ParseError("zero denominator", tok.line, tok.col)
        p = self.ring.field.characteristic
        g = math.gcd(n, d) if p else 1
        if p and not d // g % p:
            raise ParseError("denominator %s is not invertible in %s"
                             % (tok.text, self.ring.field.label),
                             tok.line, tok.col)
        return n // g, d // g

    def parse_base(self):
        cur = self.cur
        tok = cur.peek()
        if tok.kind == "number":
            return self.ring.const(Fraction(*self.parse_number()))
        cur.next()
        if tok.kind == "name":
            try:
                return self.ring.var(tok.text)
            except KeyError:
                raise ParseError("unknown variable %r" % tok.text,
                                 tok.line, tok.col) from None
        if tok.text == "(":
            inner = self.parse_expr()
            cur.expect(")")
            return inner
        if tok.text == "-":
            return -self.parse_factor()
        raise ParseError("expected a number, a variable or '(', found %r"
                         % (tok.text or "end of input"), tok.line, tok.col)


def _number_power(tok, c, e):
    """c^e for a Fraction c, or a ParseError at tok, before it is formed,
    when it would have more digits than a literal may."""
    b = max(abs(c.numerator), c.denominator)
    if b > 1 and e * math.log10(b) >= MAX_TOKEN_LENGTH:
        raise ParseError("power of a number has more than %d digits"
                         % MAX_TOKEN_LENGTH, tok.line, tok.col)
    return c ** e


def _parse_expr(ring, cur):
    """The polynomial of the sum at cur, which is left on the first token
    after it."""
    start = cur.peek()
    try:
        return _ExprParser(ring, cur).parse_expr()
    except ParseError:
        raise
    except ValueError as e:
        # a product or a power of a sum past the degree limit
        raise ParseError(str(e), start.line, start.col) from None
