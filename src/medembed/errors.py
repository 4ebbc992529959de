"""Exception types shared across the package."""


class MedEmbedError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(MedEmbedError):
    """A planned allocation is over its budget: a generator would make more
    vertices than its limit, or the stratified sampler would hold more
    bytes than ``metrics.SAMPLER_BUDGET``. Raised before anything is
    allocated."""


class SpaceFormatError(MedEmbedError):
    """A space file is malformed or internally inconsistent."""


class SideComputationError(MedEmbedError):
    """A hyperplane's sides could not be computed: the graph is not bipartite,
    two down-neighbours lack a unique common lower neighbour, or the edge
    classes are not cuts (they overlap). Signals non-median input."""


class CubeSpanError(MedEmbedError):
    """A set of edges expected to span a cube does not close up, or three
    squares at a vertex lie in no cube. Signals non-median input."""


class NonTerminationError(MedEmbedError):
    """A cube-path walk took more steps than the graph distance allows."""
