"""Exception hierarchy for congrlab.

Every error carries enough context (element labels, offending pairs or
triples) to be printed directly by the CLI.
"""


class CongrlabError(Exception):
    """Base class for all congrlab errors."""


class NotALattice(CongrlabError):
    """Some pair of elements lacks a unique least upper or greatest lower bound."""

    def __init__(self, a: str, b: str, what: str):
        self.pair = (a, b)
        self.what = what
        super().__init__(f"not a lattice: pair ({a}, {b}) has no unique {what}")


class TableError(CongrlabError):
    """An operation table is non-total or has an out-of-range entry."""


class NestedTooDeeply(TableError):
    """A spec's table nests deeper than ARITY_CAP (`algebra`)."""


class ResiduationViolation(CongrlabError):
    """A triple (a, b, c) violating  a*b <= c  iff  a <= b -> c."""

    def __init__(self, a: str, b: str, c: str):
        self.triple = (a, b, c)
        super().__init__(f"residuation law fails on triple ({a}, {b}, {c})")


class UnknownFixture(CongrlabError):
    pass


class KindError(CongrlabError):
    """Operation applied to an algebra of the wrong kind."""


class SignatureMismatch(CongrlabError):
    pass


class SizeCap(CongrlabError):
    """A configured size cap would be exceeded; computed loudly, never silently."""


class NotClosed(CongrlabError):
    """Subset not closed under join/meet; reports a violating pair."""

    def __init__(self, a: str, b: str, op: str):
        self.pair = (a, b)
        super().__init__(f"subset not closed: {op}({a}, {b}) falls outside it")


class ParentMismatch(CongrlabError):
    """Congruences of different parent algebras were combined."""


class TrivialAlgebra(CongrlabError):
    """Maximal congruences are undefined for the one-element algebra."""


class NotDistributive(CongrlabError):
    """Complementation is ambiguous in a non-distributive lattice."""


class NotASublattice(CongrlabError):
    pass


class EncodingMismatch(CongrlabError):
    """Product congruence factors do not match the product's mixed-radix encoding."""


class AmbiguousComplement(CongrlabError):
    """An element of a plain bounded lattice has more than one complement."""

    def __init__(self, element: str, complements: list[str]):
        self.element = element
        self.complements = complements
        super().__init__(
            f"element {element} has several complements: {', '.join(complements)}"
        )


class NotAFilter(CongrlabError):
    pass


class NotAnIdeal(CongrlabError):
    pass


class InvalidCongruence(CongrlabError):
    """A user-supplied partition is not a congruence; names the violating instance."""
