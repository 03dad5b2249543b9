"""Exception types shared across the package."""


class TimaError(Exception):
    """Base class for every error raised by this package."""


# tensor core
class NonFiniteValue(TimaError):
    """An operation produced NaN or Inf."""


class DegenerateRow(TimaError):
    """A row with (near-)zero norm cannot be normalized."""


class InvalidTemperature(TimaError):
    """Softmax temperature must be a positive finite number."""


class NonScalarLoss(TimaError):
    """backward() requires a scalar-valued loss node."""


class ShapeMismatch(TimaError):
    """Operand shapes are incompatible."""


# model / attack / training configuration
class InvalidConfig(TimaError):
    """A configuration object violates its invariants."""


class InvalidVariant(TimaError):
    """Unknown fine-tuning variant name, or a variant the command cannot run."""


class AttackOutOfBounds(TimaError):
    """An attack result left the epsilon-ball or the valid pixel range."""


# losses
class NotNormalized(TimaError):
    """Cosine similarity requires unit-norm rows."""


class TooFewClasses(TimaError):
    """Pairwise statistics need at least two class embeddings."""


class LabelOutOfRange(TimaError):
    """A label index falls outside [0, num_classes)."""


class LabelNotInteger(TimaError):
    """Labels must be an integer array; other dtypes are never truncated."""


class InvalidEta(TimaError):
    """The margin threshold eta must lie strictly inside (0, 1)."""


# data / reports
class InvalidSpec(TimaError):
    """A synthetic-dataset spec violates its invariants."""


class EmptyDataset(TimaError):
    """Evaluation over zero samples is undefined."""


class BadMagic(TimaError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(TimaError):
    """File ended before all declared payload bytes were read."""


class UnsupportedVersion(TimaError):
    """File format version is not supported by this build."""


class CorruptFile(TimaError):
    """File contents contradict its own header, or bytes follow the payload."""


class UnstorableDataset(TimaError):
    """A dataset holds a value its file format would not load back exactly."""


class IoFailure(TimaError):
    """Underlying OS-level read/write failure."""


class ReportSchemaError(TimaError):
    """Report JSON is missing required keys or is not valid JSON."""


# parallel cells
class WorkerDied(TimaError):
    """A worker process running grid cells ended without returning a result."""


# config-file parsing
class ConfigError(TimaError):
    """Base class for config-file parse errors (carries a line number)."""


class UnknownKey(ConfigError):
    """Config file contains a key outside the documented schema."""


class ConfigTypeError(ConfigError):
    """Config value could not be parsed as the key's declared type."""


class ConfigRangeError(ConfigError):
    """Config value parsed but violates the key's range constraint."""
