"""Sparse exact row echelon forms: the tests' reference linear algebra.

No program path uses this module; the Groebner engine does all the
algebra.  The tests' independent oracles (membership, span dimensions,
minimal generators and minimal syzygies degree by degree) are built on
it, so that agreement with the engine means something.

Rows are dicts mapping orderable column labels to field elements.  The
pivot of a stored row is always its largest column, so insertion order
does not affect which columns end up as pivots (deterministic
max-column pivoting).
"""

from __future__ import annotations

__all__ = ["Echelon"]


class Echelon:
    """Incremental echelon basis over an exact field."""

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec minus its projection onto the stored row space."""
        p = self.field.characteristic
        out = dict(vec)
        while out:
            hits = [c for c in out if c in self.rows]
            if not hits:
                break
            col = max(hits)
            coeff = out[col]
            for c, v in self.rows[col].items():
                nv = out.get(c, 0) - coeff * v
                if p:
                    nv %= p
                if nv:
                    out[c] = nv
                elif c in out:
                    del out[c]
        return out

    def insert(self, vec):
        """Add vec to the span; return the stored row or None if dependent."""
        red = self.reduce(vec)
        if not red:
            return None
        p = self.field.characteristic
        col = max(red)
        inv = self.field.inv(red[col])
        if p:
            row = {c: v * inv % p for c, v in red.items()}
        else:
            row = {c: v * inv for c, v in red.items()}
        self.rows[col] = row
        return row

    def contains(self, vec):
        return not self.reduce(vec)
