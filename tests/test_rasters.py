import io

import numpy as np
import pytest

from slidecodec.errors import (
    ImageFormatError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedDepthError,
)
from slidecodec.rasters import _next_token, read_image, sniff_format, write_image


def test_p6_golden_header():
    img = read_image(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    assert img.shape == (1, 2, 3)
    assert img.reshape(-1).tolist() == [1, 2, 3, 4, 5, 6]


def test_p5_golden_emission():
    img = np.array([[[9]]], dtype=np.uint8)
    assert write_image(img, "pgm") == b"P5\n1 1\n255\n" + bytes([9])


@pytest.mark.parametrize("channels,fmt", [(1, "pgm"), (3, "ppm"),
                                          (1, "pam"), (3, "pam"), (4, "pam")])
def test_round_trips(channels, fmt):
    rng = np.random.default_rng(channels * 7)
    img = rng.integers(0, 256, (5, 9, channels), dtype=np.uint8)
    assert (read_image(write_image(img, fmt)) == img).all()


def test_raw_round_trip():
    rng = np.random.default_rng(71)
    img = rng.integers(0, 256, (2, 2, 1), dtype=np.uint8)
    blob = write_image(img, "raw")
    assert blob == img.tobytes()
    out = read_image(blob, format="raw", width=2, height=2, channels=1)
    assert (out == img).all()


def test_raw_requires_dimensions():
    with pytest.raises(ImageFormatError):
        read_image(b"\x00" * 4, format="raw")


@pytest.mark.parametrize("width,height,channels", [
    (-5, 5, 3), (5, -5, 3), (0, 5, 3), (5, 0, 1), (5, 5, 0), (5, 5, 2), (None, 5, 3)])
def test_raw_rejects_bad_dimensions(width, height, channels):
    # a raw width or height below 1 is refused as a header's is, not read
    # as some other shape of the same bytes
    with pytest.raises(ImageFormatError):
        read_image(bytes(300), "raw", width=width, height=height, channels=channels)


def test_sniff_format():
    assert sniff_format(b"P5\n1 1\n255\n\x00") == "pgm"
    assert sniff_format(b"P6\n1 1\n255\n\x00\x00\x00") == "ppm"
    assert sniff_format(b"P7\nWIDTH 1\n") == "pam"
    assert sniff_format(b"GIF89a") is None
    with pytest.raises(ImageFormatError):
        read_image(b"GIF89a")


def test_read_from_path_and_stream(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    blob = write_image(img, "ppm")
    p = tmp_path / "t.ppm"
    p.write_bytes(blob)
    assert (read_image(p) == img).all()
    assert (read_image(str(p)) == img).all()
    assert (read_image(io.BytesIO(blob)) == img).all()


def test_header_comments_and_whitespace():
    blob = b"P5\n# a comment\n 2 \t2\n# another\n255\n" + bytes(4)
    assert read_image(blob).shape == (2, 2, 1)


def _tokens(data):
    """Every header token after the magic, and the position after the last."""
    tokens, pos = [], 2
    while True:
        try:
            token, pos = _next_token(data, pos)
        except MalformedHeaderError:
            return tokens, pos
        tokens.append(token)


@pytest.mark.parametrize("header,tokens,end", [
    (b"P5 #abc", [], 2),  # a comment that runs to the end of the data
    (b"P5 1 1 #x\n", [b"1", b"1"], 6),  # a comment, then the end of the data
    (b"P5 1#x 1 255\n", [b"1#x", b"1", b"255"], 12),  # '#' inside a token
    (b"P5#c\n1 1 255\n", [b"1", b"1", b"255"], 12),  # a comment right after the magic
    (b"P5\x0b1\x0c1\x0b\x0c255\n", [b"1", b"1", b"255"], 11),  # VT and FF
    (b"P5\x0b\t#\n\x0b \t", [], 2),  # no token after the comment
    (b"P5 #c\r2 #d\n\r3", [b"2", b"3"], 13),  # CR ends a comment too
    (b"P5 ##\n#\n5#", [b"5#"], 10),
])
def test_header_tokens(header, tokens, end):
    assert _tokens(header) == (tokens, end)


def test_header_token_edges_through_read_image():
    assert read_image(b"P5#c\n1 1 255\n\x07").tolist() == [[[7]]]
    assert read_image(b"P5\x0b1\x0c1\x0b\x0c255\x0b\x07").tolist() == [[[7]]]
    for header in (b"P5 #abc", b"P5 1 1 #x\n", b"P5 1#x 1 255\n\x07"):
        with pytest.raises(MalformedHeaderError):
            read_image(header)


def test_maxval_not_255_rejected():
    with pytest.raises(UnsupportedDepthError):
        read_image(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(UnsupportedDepthError):
        read_image(b"P6\n1 1\n15\n\x00\x00\x00")


def test_malformed_header_rejected():
    with pytest.raises(MalformedHeaderError):
        read_image(b"P5\nnot a number\n255\n")
    with pytest.raises(MalformedHeaderError):
        read_image(b"P5\n0 3\n255\n")
    # header integers are ASCII decimal digits only: int() would also take
    # "_" between digits, a sign and non-ASCII digits
    for header in (b"P5\n1_0 +2\n25_5\n", b"P5\n10 +2\n255\n", b"P5\n10 2\n25_5\n",
                   b"P5\n-1 2\n255\n", b"P6\n\xd9\xa1 1\n255\n"):
        with pytest.raises(MalformedHeaderError, match="not a decimal integer"):
            read_image(header + bytes(60))


def test_truncated_pixels_rejected():
    with pytest.raises(TruncatedDataError) as err:
        read_image(b"P6\n2 2\n255\n" + bytes(5))
    assert "5" in str(err.value) and "12" in str(err.value)


def test_pam_header_round_trip():
    img = np.zeros((3, 2, 4), dtype=np.uint8)
    blob = write_image(img, "pam")
    head = blob.split(b"ENDHDR\n")[0].decode()
    assert "WIDTH 2" in head and "HEIGHT 3" in head
    assert "DEPTH 4" in head and "MAXVAL 255" in head
    assert "RGB_ALPHA" in head


def test_pam_missing_field_rejected():
    with pytest.raises(MalformedHeaderError):
        read_image(b"P7\nWIDTH 1\nHEIGHT 1\nMAXVAL 255\nENDHDR\n\x00")


def _pam(**fields):
    """A 10x2 grayscale PAM with ``fields`` in place of its own header values."""
    fields = {"WIDTH": b"10", "HEIGHT": b"2", "DEPTH": b"1", "MAXVAL": b"255"} | fields
    return (b"P7\n" + b"".join(b"%s %s\n" % (k.encode(), v) for k, v in fields.items())
            + b"ENDHDR\n" + bytes(20))


@pytest.mark.parametrize("key,value", [("WIDTH", b"1_0"), ("HEIGHT", b"+2"), ("DEPTH", b"0x1"),
                                       ("MAXVAL", b"2_55"), ("WIDTH", b"-1"), ("HEIGHT", b"2.0")])
def test_pam_integer_fields_are_decimal_digits(key, value):
    assert read_image(_pam()).shape == (2, 10, 1)
    with pytest.raises(MalformedHeaderError, match=f"PAM {key} is not a decimal integer"):
        read_image(_pam(**{key: value}))


def test_pam_unsupported_depth_rejected():
    with pytest.raises(ImageFormatError):
        read_image(b"P7\nWIDTH 1\nHEIGHT 1\nDEPTH 2\nMAXVAL 255\nENDHDR\n\x00\x00")


def test_pnm_needs_whitespace_after_maxval():
    # any other byte would belong to the maxval token, so the data ends there
    with pytest.raises(MalformedHeaderError, match="^missing whitespace after maxval"):
        read_image(b"P5 1 1 255")


@pytest.mark.parametrize("data, error, named", [
    (_pam().replace(b"ENDHDR\n", b"ENDHDR"), MalformedHeaderError, "^PAM header has no ENDHDR"),
    (_pam(WIDTH=b"0"), MalformedHeaderError, "^bad dimensions 0x2"),
    (_pam(MAXVAL=b"65535"), UnsupportedDepthError, "^maxval 65535 unsupported"),
], ids=["no ENDHDR", "WIDTH 0", "MAXVAL 65535"])
def test_pam_header_faults_rejected(data, error, named):
    with pytest.raises(error, match=named):
        read_image(data)


def test_read_needs_a_known_format_that_the_data_has():
    ppm = write_image(np.zeros((2, 2, 3), dtype=np.uint8), "ppm")
    with pytest.raises(ImageFormatError, match="^unknown format 'xyz'"):
        read_image(ppm, "xyz")
    with pytest.raises(MalformedHeaderError, match="^not a binary PGM: magic b'P6'"):
        read_image(ppm, "pgm")


@pytest.mark.parametrize("image", [np.zeros((2, 2, 3), np.int16), np.zeros((2, 2), np.uint8)],
                         ids=["int16", "2-D"])
def test_write_needs_an_hwc_uint8_array(image):
    with pytest.raises(ImageFormatError, match="^image must be an h x w x c uint8 array"):
        write_image(image, "pam")


def test_write_needs_a_format_that_holds_the_image():
    with pytest.raises(ImageFormatError, match="^unknown format 'xyz'"):
        write_image(np.zeros((2, 2, 3), dtype=np.uint8), "xyz")
    with pytest.raises(ImageFormatError, match="^PAM supports 1/3/4 channels, image has 2"):
        write_image(np.zeros((2, 2, 2), dtype=np.uint8), "pam")


@pytest.mark.parametrize("channels,fmt", [(4, "ppm"), (3, "pgm"), (1, "ppm")])
def test_channel_format_mismatch(channels, fmt):
    img = np.zeros((2, 2, channels), dtype=np.uint8)
    with pytest.raises(ImageFormatError):
        write_image(img, fmt)


def test_no_sample_alteration():
    # every byte value survives a write/read cycle in every format
    ramp = np.arange(256, dtype=np.uint8).reshape(16, 16, 1)
    for fmt in ("pgm", "pam"):
        assert (read_image(write_image(ramp, fmt)) == ramp).all()
    rgb = np.repeat(ramp, 3, axis=2)
    for fmt in ("ppm", "pam"):
        assert (read_image(write_image(rgb, fmt)) == rgb).all()
