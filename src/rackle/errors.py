"""Exception types shared across the package."""


class RackleError(Exception):
    """Base class for all rackle errors."""


class NotAGroup(RackleError):
    """A multiplication table failed group validation."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NotNormal(RackleError):
    """A subgroup used as a quotient kernel is not normal."""


class TooLarge(RackleError):
    """An enumeration or search exceeded its configured cap."""


class BadIndex(RackleError):
    """An element/class index is out of range."""


class NotPrime(RackleError):
    """The p of a p-power rack must be prime."""


class BadPartition(RackleError):
    """Partition arguments do not have equal-size parts over a common set."""


class NotGroupLattice(RackleError):
    """A lattice claimed to come from a group rack fails a structural test."""


class MissingElement(NotGroupLattice):
    """An atom-support predicted by the reconstruction has no lattice element."""


class NoPartition(NotGroupLattice):
    """The coset-partition search was exhausted without a hit."""


class IsomorphismTimeout(TooLarge):
    """Isomorphism search exceeded its backtracking node budget."""


class FormatError(RackleError):
    """A group/rack/lattice file is malformed."""


class UnknownGroup(RackleError, KeyError):
    """No catalog group has the requested name.

    Also a KeyError, so callers that caught the lookup failure as one still do.
    """

    __str__ = RackleError.__str__
