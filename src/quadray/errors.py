"""Exception types shared across the package."""


class QuadrayError(Exception):
    """Base class for all domain errors raised by this package."""


class EscapeError(QuadrayError):
    """An orbit left the dynamical region before the computation finished."""


class BranchPointError(QuadrayError):
    """A backward orbit hit the critical value, collapsing a square-root branch.

    Carries the tree level at which the degeneracy occurred.
    """

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class PrecisionError(QuadrayError):
    """The requested computation is not resolvable at the working precision."""


class IncompleteEnumerationError(QuadrayError):
    """Root finding terminated with fewer roots than the degree demands.

    ``found`` holds the partial `IterateRoots` so callers can inspect it.
    """

    def __init__(self, message, found=None):
        super().__init__(message)
        self.found = found if found is not None else []


class AmbiguousOrbitError(QuadrayError):
    """The enumerated points do not form cycles under f: an image matched no
    point or two within tolerance, f was not a bijection on them, or f^n was
    not the identity."""


class PortraitError(QuadrayError):
    """Ray-landing data could not be assembled into a valid orbit portrait.

    ``report`` holds the validation report when one was produced.
    """

    def __init__(self, message, report=None, portrait=None):
        super().__init__(message)
        self.report = report
        self.portrait = portrait
