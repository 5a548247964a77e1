"""Exception hierarchy.

Every domain error carries a stable machine-readable ``code`` so the CLI
can emit structured error objects without string matching.
"""

from __future__ import annotations


class DelzantError(ValueError):
    """Base class for all domain errors raised by this package."""

    code = "domain_error"


class NotUnimodularError(DelzantError):
    """Linear part of an affine lattice map must have determinant +1 or -1."""

    code = "not_unimodular"


class TooFewVerticesError(DelzantError):
    code = "too_few_vertices"


class _IndexedError(DelzantError):
    """An error at vertex ``index`` of the input; ``_what`` names it."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"{self._what} at index {index}")

    def __reduce__(self):  # pickle rebuilds from the index, not from the message
        return type(self), (self.index,)


class RepeatedVertexError(_IndexedError):
    code, _what = "repeated_vertex", "repeated vertex"


class CollinearVerticesError(_IndexedError):
    code, _what = "collinear_vertices", "collinear vertices"


class NonConvexError(_IndexedError):
    code, _what = "non_convex", "non-convex corner"


class NotDelzantError(DelzantError):
    """Names the failing edges only, as a determinant may be too long to
    print; ``failures`` holds the (edge, determinant) pairs."""

    code = "not_delzant"

    def __init__(self, failures: tuple[tuple[int, int], ...]):
        self.failures = failures
        super().__init__(f"polygon is not Delzant at edges {[i for i, _ in failures]}")

    def __reduce__(self):  # pickle rebuilds from the pairs, not from the message
        return NotDelzantError, (self.failures,)


class EdgeCountError(DelzantError):
    code = "edge_count"


class InvalidParamsError(DelzantError):
    code = "invalid_params"


class NonPrimitiveDirectionError(DelzantError):
    code = "non_primitive_direction"


class GraphError(DelzantError):
    code = "invalid_graph"


class InteriorFixedSurfaceError(GraphError):
    code = "interior_fixed_surface"


class FormatError(DelzantError):
    """Malformed JSON payloads, rationals, or other serialized input."""

    code = "bad_format"


class NotRationalError(DelzantError, TypeError):
    code = "not_rational"

