"""Exception types shared by the actcovers modules.

Every structural validation failure carries the offending indices so a
caller can point at the exact cell or triple that broke the contract.
"""

from __future__ import annotations

import reprlib

# quotes document values in messages, cut short; strings up to 80 characters print whole
_short = reprlib.Repr()
_short.maxstring = 80
_quote = _short.repr


class ActcoversError(Exception):
    """Base class for all library-specific errors."""


class NotAssociativeError(ActcoversError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(
            f"table is not associative: (e{a}*e{b})*e{c} != e{a}*(e{b}*e{c})"
        )


class NoIdentityError(ActcoversError):
    def __init__(self, identity: int):
        self.identity = identity
        super().__init__(f"element {identity} is not a two-sided identity")


class BadIndexError(ActcoversError):
    def __init__(self, row: int, col: int, value: object):
        self.cell = (row, col, value)
        super().__init__(f"table entry [{row}][{col}] = {_quote(value)} is out of range")


class EmptySemigroupError(ActcoversError):
    pass


class OrderTooLargeError(ActcoversError):
    def __init__(self, order: int, bound: int):
        self.order = order
        self.bound = bound
        super().__init__(f"order {order} exceeds supported bound {bound}")


class EmptySeedError(ActcoversError):
    pass


class BudgetExceededError(ActcoversError):
    """A backtracking search would exceed its candidate budget."""

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"search needs {needed} candidates, budget is {budget}")


class NotEpimorphismError(ActcoversError):
    def __init__(self, missing: int):
        self.missing = missing
        super().__init__(f"map is not onto: target element {missing} has no preimage")


class NotDirectedError(ActcoversError):
    def __init__(self, i: object, j: object):
        self.pair = (i, j)
        i, j = map(_quote, (i, j))
        super().__init__(f"nodes {i} and {j} have no common upper bound")


class IncoherentArrowsError(ActcoversError):
    def __init__(self, i: object, j: object, k: object):
        self.triple = (i, j, k)
        i, j, k = map(_quote, (i, j, k))
        super().__init__(f"arrow composition {i}->{j}->{k} disagrees with {i}->{k}")


class NotSubsetError(ActcoversError):
    pass


class TooFewSamplesError(ActcoversError):
    def __init__(self, samples: int, minimum: int):
        self.samples = samples
        self.minimum = minimum
        super().__init__(f"need at least {minimum} samples, got {samples}")
