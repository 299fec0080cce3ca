"""Exception types shared across the package."""


class PgmParseError(ValueError):
    """Malformed PGM input. `offset` is the byte position where parsing failed."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class InvalidStateError(RuntimeError):
    """An operation was asked to run from a physically impossible state."""


class EnsembleError(RuntimeError):
    """A prediction ensemble member failed. `member` is its index."""

    def __init__(self, member, message):
        super().__init__(f"ensemble member {member}: {message}")
        self.member = member


class ExternalPredictorError(RuntimeError):
    """An external predictor subprocess misbehaved; carries its diagnostics."""


class ConfigError(ValueError):
    """Invalid experiment configuration or command-line input."""


class RecordMismatchError(ValueError):
    """Re-running an episode from its record header did not reproduce the record."""
