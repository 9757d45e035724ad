"""Exception types shared across the toolkit.

Names follow the error contracts of the public operations, so callers can
catch by condition (``GeometryMismatch``, ``InvalidLabel``, ...) rather than by
message text.
"""


class BratsFuseError(Exception):
    """Base class for all toolkit errors."""


def error_text(e: Exception) -> str:
    """The one-line message of ``e``: ``<file>: <reason>`` for an ``OSError``
    that names a file, else ``str(e)``."""
    if isinstance(e, OSError) and e.filename:
        return f"{e.filename}: {e.strerror}"
    return str(e)


# -- geometry / data contracts ------------------------------------------------

class GeometryMismatch(BratsFuseError):
    """Inputs that must share shape/spacing/origin do not."""


class EmptyMask(BratsFuseError):
    """An operation requires a nonempty binary mask."""


class EmptyList(BratsFuseError):
    """An operation requires a nonempty input collection."""


class InvalidLabel(BratsFuseError):
    """A voxel value is outside the supported label set {0, 1, 2, 4}."""


class RadiiDontFit(BratsFuseError):
    """Phantom ellipsoids do not fit inside the requested volume."""


# -- NIfTI I/O -----------------------------------------------------------------

class NiftiError(BratsFuseError):
    """Base class for NIfTI parsing/serialization errors."""


class BadMagic(NiftiError):
    """The byte stream is not a single-file NIfTI-1 image."""


class BadHeader(NiftiError):
    """The NIfTI-1 header is structurally valid but not usable here."""


class UnsupportedDtype(NiftiError):
    """The file's datatype code is not one of uint8/int16/float32."""


class UnsupportedEncoding(NiftiError):
    """Compressed, big-endian, or NIfTI-2 input (not supported)."""


class TruncatedFile(NiftiError):
    """The byte stream ends before the header or voxel data does."""


class BadData(NiftiError, ValueError):
    """The file parses but its voxels or geometry are not a valid volume
    (e.g. NaN/Inf voxels or a non-finite origin)."""


# -- pipeline ------------------------------------------------------------------

class ConfigError(BratsFuseError):
    """A pipeline configuration is invalid or references missing files."""


class UnpairedCase(BratsFuseError):
    """A prediction or ground-truth file has no partner with the same stem."""
