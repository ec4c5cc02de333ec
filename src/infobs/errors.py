"""Exception types shared across the package."""

from __future__ import annotations


class InfobsError(Exception):
    """Base class for all package errors."""


class ModelError(InfobsError):
    """A model (or profile) violates a structural invariant.

    ``line`` carries the offending line number when the model came from a
    model file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(ModelError):
    """Syntax error in a model or supervisor file."""


class EnumerationBound(InfobsError):
    """A string-enumeration depth exceeds the configured ceiling."""


class ControlConflict(InfobsError):
    """A decision bag contains both a definite on and a definite off."""


class UndefinedFusion(InfobsError):
    """A decision bag the fusion rule deliberately leaves undefined."""


class PolicyAmbiguity(InfobsError):
    """Two worlds sharing an observer estimate disagree on the policy.

    This cannot happen for frames built by this package (the policy is
    constant on accessibility classes); it guards against internal bugs and
    hand-built frames.
    """


class SynthesisError(InfobsError):
    """Synthesis preconditions failed; carries the failing verdict."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(self._describe())

    def _describe(self) -> str:
        ce = self.verdict.counterexample
        if ce is None:
            return "synthesis precondition failed"
        word = " ".join(ce.string) if ce.string else "the empty string"
        return f"fails for event {ce.event!r} after {word}"


class NotControllable(SynthesisError):
    def _describe(self) -> str:
        return "specification is not controllable: " + super()._describe()


class NotInferenceObservable(SynthesisError):
    def _describe(self) -> str:
        return "specification is not inference-observable: " + super()._describe()


class InstanceTooLarge(InfobsError):
    """An instance exceeds the size bounds of a brute-force oracle."""
