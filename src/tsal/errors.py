"""Exception types raised across the toolkit, and how their messages give a loaded JSON value.

Every error that callers are expected to catch subclasses
:class:`SaliencyError`, so the CLI can map any failure to a stable
``ERROR <code>:`` diagnostic line.
"""


class SaliencyError(Exception):
    """Base class for all toolkit errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DimensionMismatch(SaliencyError):
    """Operands have incompatible shapes or channel counts."""


class NonFinite(SaliencyError):
    """A computation produced NaN or Inf."""


class EmptySequence(SaliencyError):
    """A frame sequence was empty where at least one frame is required."""


class LengthMismatch(SaliencyError):
    """``backward_sequence`` was given output gradients and step caches of different lengths."""


class OutOfBounds(SaliencyError):
    """A fixation lies outside the map."""


class UnknownVideo(SaliencyError):
    """A grouping references a video id with no scores."""


class EmptyDataset(SaliencyError):
    """Training requires at least one video."""


class CorruptCheckpoint(SaliencyError):
    """Checkpoint file failed validation (magic, shapes, CRC, truncation)."""


class BadHeader(SaliencyError):
    """Graymap file header is malformed."""


class TruncatedData(SaliencyError):
    """Graymap payload is shorter than the header promises."""


class UnsupportedDepth(SaliencyError):
    """Graymap maxval is not 255."""


class OutOfRange(SaliencyError):
    """Map values must lie in [0, 1] when written to disk."""


class ParseError(SaliencyError):
    """Text input is malformed or out of range: a flag, a config value, or
    a manifest, fixation, score or grouping file."""


class MissingPrediction(SaliencyError):
    """Evaluation found no prediction file for a manifest frame."""


class MissingInput(SaliencyError):
    """A file the manifest names (static map, ground truth or fixations)
    does not exist."""


class InconsistentVideos(SaliencyError):
    """Score files given to the report command cover different videos."""


class WorkerDied(SaliencyError):
    """A pool's worker process was killed, as by the out-of-memory killer."""



def brief(value) -> str:
    """A loaded JSON value or fixation line as an error line gives it, never growing with the
    input: a scalar's repr of at most 40 characters, else the value's JSON type."""
    text = "" if isinstance(value, (dict, list)) else repr(value)
    if 0 < len(text) <= 40:
        return text
    return {dict: "an object", list: "a list", str: "a string"}.get(type(value), "an integer")


def misfit(value, item: type) -> str | None:
    """None if a loaded ``value`` is a list of ``item`` values; else what an error line says of
    it: ``got <brief>``, or ``item <i> is <brief>`` of its first item of another type."""
    if type(value) is not list:
        return f"got {brief(value)}"
    bad = (f"item {i} is {brief(v)}" for i, v in enumerate(value) if type(v) is not item)
    return next(bad, None)
