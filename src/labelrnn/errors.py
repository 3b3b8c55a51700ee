"""Exception types shared across the toolkit."""


class LabelRnnError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(LabelRnnError):
    """Array dimensions do not line up."""


class ConfigError(LabelRnnError):
    """Invalid hyperparameter or command configuration."""


class DataError(LabelRnnError):
    """Malformed corpus content (labels, sequence lengths, ...)."""


class ParseError(DataError):
    """Malformed input file; message carries the offending line number."""


class ModelIOError(LabelRnnError):
    """Corrupt, truncated or incompatible model file."""


class TrainingDivergedError(LabelRnnError):
    """An epoch's training loss is not finite."""
