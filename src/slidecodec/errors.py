"""Exception hierarchy shared by all codec stages."""


class CodecError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(CodecError):
    """Shapes, lengths, or metadata do not fit together."""


class UnsupportedLayoutError(CodecError):
    """Channel layout the codec does not handle (e.g. RGBA without --drop-alpha)."""


class CorruptStreamError(CodecError):
    """An encoded stream references state the decoder cannot have."""


class TruncatedStreamError(CodecError):
    """Input ended before the format said it would."""


class ContainerError(CodecError):
    """Base class for archive container parsing errors."""


class BadMagicError(ContainerError):
    """The input does not start with the container magic bytes."""


class UnsupportedVersionError(ContainerError):
    """Container version is 0, which no writer emits, or newer than this reader."""


class IndexInconsistencyError(ContainerError):
    """The patch index does not tile the cropped image, or lengths disagree."""


class ImageFormatError(CodecError):
    """Base class for raster file parsing errors."""


class MalformedHeaderError(ImageFormatError):
    """Raster header could not be parsed."""


class UnsupportedDepthError(ImageFormatError):
    """Raster sample depth is not 8-bit."""


class TruncatedDataError(ImageFormatError):
    """Raster pixel data is shorter than the header promises."""
