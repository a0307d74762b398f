"""Canonical sparse term maps: key -> coefficient, never a zero coefficient.

Every object of the engine is a finite linear combination stored as a
dict from a key (monomial, unit word, radical exponents, ...) to a
coefficient.  Exact equality of two objects is equality of their dicts,
which holds only while no dict keeps a zero coefficient; this module is
the one place that policy is written.  It is also the one place that
says when two values can meet: a subclass names in `_shape` the fields
(universe, envelope, Clifford-Weyl shape) two of its values must share
to be added or equal, and two such values are added only when their
coefficients are of one kind (one lane: exact or float).
"""

from __future__ import annotations


def add_into(acc, key, value):
    """acc[key] += value, removing the key when the sum is zero."""
    cur = acc.get(key)
    s = value if cur is None else cur + value
    if s:
        acc[key] = s
    elif cur is not None:
        del acc[key]


def lane_mismatch(verb, mine, theirs):
    """The refusal to `verb` coefficients of the types mine and theirs,
    which are of two lanes."""
    return ValueError(f"lane mismatch: cannot {verb} {mine.__name__} and "
                      f"{theirs.__name__} coefficients (the exact and "
                      f"float lanes never mix)")


def canonical(terms):
    """Constructor normal form of a key -> coefficient dict: the keys of
    a dict are distinct, so only zero coefficients need dropping."""
    return {key: c for key, c in terms.items() if c} if terms else {}


class TermMap:
    """Linear structure, equality and conjugation over `self.terms`,
    kept canonical.

    A subclass rebuilds itself through `_like(terms)` (canonical terms,
    same shape) and names in `_shape` the attributes two operands must
    share; an operand of another shape is refused by `check_shape`, and
    one whose coefficients are of another type (lane) by `_check_lane`.
    The scalar maps have no shape and one coefficient type, so their
    sums, the hot path, skip both checks.
    """

    __slots__ = ()

    _shape = ()

    def _like(self, terms):
        raise NotImplementedError

    def _same_shape(self, other):
        for name in self._shape:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                return False
        return True

    def check_shape(self, other):
        """Refuse an operand of another shape."""
        if not self._same_shape(other):
            raise ValueError("shape mismatch: operands must share "
                             + " and ".join(self._shape))

    def _check_lane(self, other):
        """Refuse an operand whose coefficients are of another kind, read
        from the first coefficient of each: a value keeps one lane."""
        if self.terms and other.terms:
            mine = type(next(iter(self.terms.values())))
            theirs = type(next(iter(other.terms.values())))
            if mine is not theirs:
                raise lane_mismatch("add", mine, theirs)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._shape:
            self.check_shape(other)
            self._check_lane(other)
        merged = dict(self.terms)
        for key, c in other.terms.items():
            add_into(merged, key, c)
        return self._like(merged)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._same_shape(other) and self.terms == other.terms

    def scale(self, c):
        return self._like({key: s for key, v in self.terms.items()
                           if (s := v * c)})

    def map_coefficients(self, fn):
        """fn applied to every coefficient, dropping the zeros it makes."""
        return self._like({key: s for key, v in self.terms.items()
                           if (s := fn(v))})

    def conjugate(self):
        """Complex conjugation of every coefficient; the variables and
        generators are fixed, and no coefficient conjugates to zero."""
        return self._like({key: c.conjugate()
                           for key, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)
