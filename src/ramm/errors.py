"""Exception hierarchy shared across the package.

Each externally visible failure mode gets its own class so callers (and the
CLI exit-code mapping) can tell them apart without string matching.
"""


class RammError(Exception):
    """Base class for all package errors."""


class ShapeError(RammError):
    """Operands have incompatible shapes. Message carries both shapes."""


class ConfigError(RammError):
    """Invalid configuration value or combination."""


class ContractViolation(RammError):
    """An operation was called outside its documented contract."""


class StructureError(RammError):
    """Two parameter sets that must share tensor names and shapes do not."""


class FormatError(RammError):
    """A serialized artifact has a bad magic number or version."""


class TruncatedFileError(RammError):
    """A serialized artifact ended before its declared payload."""


class FingerprintMismatchError(RammError):
    """An embedding index was built by different frozen encoders."""


class BuildError(RammError):
    """Corpus or index construction failed (e.g. duplicate pair id)."""


class MissingArtifactError(RammError):
    """A pipeline stage input (checkpoint, index, corpus) is absent."""


class DivergenceError(RammError):
    """Training produced a non-finite gradient; names the step and tensors."""
