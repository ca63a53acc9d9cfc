"""Flat raster ingestion and emission: binary PGM/PPM, PAM, and raw bytes.

Samples pass through untouched in both directions; only 8-bit depth
(maxval 255) is accepted. One table gives each headed format its magic bytes,
for sniffing, reading and writing alike, and one gives PGM and PPM their
channel counts. Header tokens are whitespace-separated, and a ``#`` outside a
token starts a comment that runs to the end of its line; header integers are
ASCII decimal digits, with no sign. Raw mode is
headerless interleaved bytes and needs explicit dimensions: a width and
height of at least 1, as a header must state, and 1, 3 or 4 channels.
"""

import re

import numpy as np

from .errors import (
    ImageFormatError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedDepthError,
)

__all__ = ["read_image", "write_image", "sniff_format"]

_MAGIC = {"pgm": b"P5", "ppm": b"P6", "pam": b"P7"}
_PNM_CHANNELS = {"pgm": 1, "ppm": 3}
_PAM_TUPLTYPES = {1: b"GRAYSCALE", 3: b"RGB", 4: b"RGB_ALPHA"}
# Whitespace and comments, then a token. The lookahead makes a comment run
# to the end of its line, so a failed match cannot backtrack into one and
# find a token there; the pattern is only ever used anchored, with match().
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)")


def _as_bytes(source):
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source)
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb") as fh:
        return fh.read()


def sniff_format(data: bytes):
    """Format name from the magic bytes, or None for unrecognized data."""
    return {magic: format for format, magic in _MAGIC.items()}.get(data[:2])


def _next_token(data, pos):
    """Skip whitespace and # comments, return (token, new position)."""
    match = _TOKEN.match(data, pos)
    if match is None:
        raise MalformedHeaderError("header ended while a token was expected")
    return match[1], match.end()


def _decimal(token, what):
    """The value of a header integer: ASCII decimal digits only, as Netpbm
    reads them, so no sign and no ``_`` (which ``int`` would take)."""
    if not token.isdigit():
        raise MalformedHeaderError(f"{what} is not a decimal integer: {token!r}")
    return int(token)


def _int_token(data, pos, what):
    token, pos = _next_token(data, pos)
    return _decimal(token, what), pos


def _pixels(data, pos, height, width, channels, what):
    need = height * width * channels
    if len(data) - pos < need:
        raise TruncatedDataError(
            f"{what}: expected {need} sample bytes, found {len(data) - pos}"
        )
    arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return arr.reshape(height, width, channels)


def _read_pnm(data, format):
    width, pos = _int_token(data, 2, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedDepthError(f"maxval {maxval} unsupported; only 255 (8-bit)")
    # exactly one whitespace byte separates the header from the samples
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeaderError("missing whitespace after maxval")
    what = _MAGIC[format].decode()
    return _pixels(data, pos + 1, height, width, _PNM_CHANNELS[format], what)


def _read_pam(data):
    end = data.find(b"ENDHDR\n")
    if end < 0:
        raise MalformedHeaderError("PAM header has no ENDHDR")
    fields = {}
    for line in data[:end].split(b"\n")[1:]:
        line = line.split(b"#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0].upper()
        fields[key] = parts[1] if len(parts) > 1 else b""
    try:
        width, height, depth, maxval = (_decimal(fields[key], f"PAM {key.decode()}")
                                        for key in (b"WIDTH", b"HEIGHT", b"DEPTH", b"MAXVAL"))
    except KeyError as missing:
        raise MalformedHeaderError(f"PAM header missing {missing}") from None
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedDepthError(f"maxval {maxval} unsupported; only 255 (8-bit)")
    if depth not in (1, 3, 4):
        raise MalformedHeaderError(f"PAM depth {depth} unsupported (want 1, 3, or 4)")
    return _pixels(data, end + len(b"ENDHDR\n"), height, width, depth, "P7")


def read_image(source, format=None, width=None, height=None, channels=None):
    """Decode a raster into an h x w x c uint8 array.

    source may be a path, a binary stream, or bytes. format is one of
    "pgm", "ppm", "pam", "raw", or None to sniff from the magic bytes.
    Raw mode requires width/height/channels.
    """
    data = _as_bytes(source)
    if format is None:
        format = sniff_format(data)
        if format is None:
            raise MalformedHeaderError(
                f"unrecognized magic {data[:2]!r}; use raw mode with explicit dimensions"
            )
    if format == "raw":
        if width is None or height is None or channels is None:
            raise ImageFormatError("raw mode needs width, height, and channels")
        if width < 1 or height < 1:
            raise ImageFormatError(f"bad dimensions {width}x{height}")
        if channels not in (1, 3, 4):
            raise ImageFormatError(f"unsupported channel count {channels}")
        return _pixels(data, 0, height, width, channels, "raw")
    magic = _MAGIC.get(format)
    if magic is None:
        raise ImageFormatError(f"unknown format {format!r}")
    if data[:2] != magic:
        raise MalformedHeaderError(f"not a binary {format.upper()}: magic {data[:2]!r}")
    return _read_pam(data) if format == "pam" else _read_pnm(data, format)


def write_image(image, format) -> bytes:
    """Encode an h x w x c uint8 array; exact inverse of read_image."""
    if not isinstance(image, np.ndarray) or image.dtype != np.uint8 or image.ndim != 3:
        raise ImageFormatError("image must be an h x w x c uint8 array")
    h, w, c = image.shape
    body = np.ascontiguousarray(image).tobytes()
    if format == "raw":
        return body
    magic = _MAGIC.get(format)
    if magic is None:
        raise ImageFormatError(f"unknown format {format!r}")
    if format == "pam":
        if c not in _PAM_TUPLTYPES:
            raise ImageFormatError(f"PAM supports 1/3/4 channels, image has {c}")
        header = (b"%s\nWIDTH %d\nHEIGHT %d\nDEPTH %d\nMAXVAL 255\nTUPLTYPE %s\nENDHDR\n"
                  % (magic, w, h, c, _PAM_TUPLTYPES[c]))
    elif c == _PNM_CHANNELS[format]:
        header = b"%s\n%d %d\n255\n" % (magic, w, h)
    else:
        raise ImageFormatError(f"{format.upper()} holds {_PNM_CHANNELS[format]} "
                               f"channel(s), image has {c}")
    return header + body
