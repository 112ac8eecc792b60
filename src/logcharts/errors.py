"""Exception hierarchy shared by every module.

``ChartError`` is the base of everything the library raises on bad input or
on a mathematically impossible request; ``InvalidLevel``, a bad level or
bound, is also a ``ValueError``; ``InvalidChartFile`` is a chart file that
cannot be read or holds no chart document.  ``FalsifiedProperty`` is
reserved for the opposite situation: the input was fine but a property that
should hold (torsor freeness, fiber cardinality, ...) failed to verify.  The
CLI maps the former to exit code 2 and the latter to exit code 1.
"""


class ChartError(Exception):
    """Base class for input and validation errors."""


class InvalidChartFile(ChartError):
    """A chart file that cannot be read, is not JSON, or holds no chart document."""


class InvalidLevel(ChartError, ValueError):
    """A level, Kummer cover degree or comparison bound that is not a
    positive int (a bool or a float included), or a transition from level
    m to a level n that does not divide m."""


class InvalidMonoidSpec(ChartError):
    """Malformed monoid data: wrong arity, zero generator, bad relation entries."""


class NotSharp(ChartError):
    """The rational cone spanned by the generators contains a line."""


class RelationInconsistent(ChartError):
    """A supplied relation fails sum(r_j * gen_j) == sum(s_j * gen_j)."""


class RelationSynthesisIncomplete(ChartError):
    """A relation set, supplied or synthesized, does not generate the
    monoid's congruence.  ``witness`` is the least-degree image whose
    presentations stay disconnected, with its ``degree``, or a kernel
    vector outside the span of a supplied set's rows, with degree None.
    """

    def __init__(self, message, witness=None, degree=None):
        self.witness = None if witness is None else tuple(witness)
        self.degree = degree
        super().__init__(message)


class SaturationFailure(ChartError):
    """A lattice point of the cone lies outside the monoid.

    The offending point is kept on the ``witness`` attribute.
    """

    def __init__(self, witness, message=None):
        self.witness = tuple(witness)
        super().__init__(message or f"cone lattice point {self.witness} is not in the monoid")


class NotAFace(ChartError):
    """The given generator subset admits no supporting functional."""


class NotOnVariety(ChartError):
    """A point violates the chart's relation equations: exactly, or for a
    floating complex point beyond semialg's FLOAT_TOLERANCE.

    ``residual`` is the measured residual, a float."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"relation residual {residual!r} exceeds tolerance")


class InvalidPoint(ChartError):
    """A point value is malformed or inconsistent with the requested operation."""


class ArityMismatch(InvalidPoint):
    """A point's coordinate count does not match the chart's generator count."""


class FalsifiedProperty(Exception):
    """A property the mathematics guarantees failed to verify.

    Raised for hard failures such as a Kummer fiber of the wrong
    cardinality; always indicates a relation-set bug.
    """
