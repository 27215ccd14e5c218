"""Exception hierarchy shared by every module."""


class CWGraphError(Exception):
    """Base class for all library errors."""


class ParseError(CWGraphError):
    """Malformed graph input; carries the offending line number."""

    def __init__(self, message, lineno=None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


class LoopEdge(CWGraphError):
    pass


class EmptyGraph(CWGraphError):
    pass


class UnknownVertex(CWGraphError):
    pass


class SizeGuard(CWGraphError):
    """Input exceeds the fixed size cap of a search or a budget of the
    brute-force oracle.  A cap bounds work; it never changes a value that
    is computed."""


class NotCameronWalker(CWGraphError):
    pass


class InvalidDecomposition(CWGraphError):
    pass


class InvalidSize(CWGraphError):
    pass


class NotAClique(CWGraphError):
    pass


class NotAPartition(CWGraphError):
    pass


class InvalidParams(CWGraphError):
    pass


class NotCompleteBipartiteSupport(CWGraphError):
    pass


class LengthMismatch(CWGraphError):
    """Two sizes that must agree do not: sign vectors of unequal length,
    or a constructed witness whose size is not the computed count."""


class NotAPermutation(CWGraphError):
    pass


class NotCohenMacaulay(CWGraphError):
    pass


class NotInFamily(CWGraphError):
    pass
