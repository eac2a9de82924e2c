"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type at the boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema definition is inconsistent (bad cardinality, label count...)."""


class DataError(ReproError):
    """A dataset violates its schema (out-of-range value, shape mismatch...)."""


class PatternError(ReproError):
    """A pattern is malformed or incompatible with the schema it is used on."""


class EngineError(ReproError):
    """A coverage engine was asked for something it cannot be (an unknown
    engine name, an engine over another dataset, a bad cache capacity...)."""


class ValidationError(ReproError):
    """A validation rule is malformed."""


class EnhancementError(ReproError):
    """Coverage enhancement was asked to do something impossible
    (e.g. cover a target set that the validation oracle rules out entirely)."""


class ServeError(ReproError):
    """A serving-layer request cannot be fulfilled.

    Carries the machine-readable pieces the HTTP layer serializes into a
    structured error response: a stable ``code`` slug, an HTTP ``status``,
    and an optional ``detail`` payload.
    """

    def __init__(self, code: str, message: str, status: int = 400, detail=None):
        super().__init__(message)
        self.code = code
        self.status = int(status)
        self.detail = dict(detail or {})

    def payload(self) -> dict:
        """The JSON body the HTTP layer sends for this error."""
        body = {"code": self.code, "message": str(self)}
        if self.detail:
            body["detail"] = self.detail
        return body


class AdmissionError(ServeError):
    """Admission control declined a request (over budget or saturated).

    Distinguished from :class:`ServeError` so callers can tell "retry
    later / shrink the request" apart from "the request is wrong"; the
    HTTP layer maps it to 429/503-style statuses via ``status``.
    """
