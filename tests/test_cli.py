"""End-to-end tests for the command-line front end.

Everything goes through main(argv) so argument parsing, dispatch, and exit
codes are exercised exactly as a shell user would hit them.
"""

import json

import numpy as np
import pytest

from slidecodec.cli import main
from slidecodec.container import read_container
from slidecodec.metrics import ENTROPY_STAGES
from slidecodec.rasters import read_image, write_image
from slidecodec.synthetic import smooth_gradient_patch, wsi_like_image


def _write_raster(path, image, format):
    path.write_bytes(write_image(image, format))
    return str(path)


def test_compress_decompress_round_trip_ppm(tmp_path, capsys):
    image = wsi_like_image(np.random.SeedSequence(3), height=96, width=80)
    src = _write_raster(tmp_path / "in.ppm", image, "ppm")
    cont = str(tmp_path / "out.wsc")
    back = str(tmp_path / "back.ppm")

    assert main(["compress", src, cont, "--patch-size", "32"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # the timing summary is a diagnostic: stderr only
    assert "bytes ->" in captured.err and "ratio" in captured.err

    assert main(["decompress", cont, back]) == 0
    restored = read_image(back)
    assert np.array_equal(restored, image)


def test_compress_decompress_round_trip_pgm(tmp_path):
    image = smooth_gradient_patch(np.random.SeedSequence(5), 40, 56, channels=1)
    src = _write_raster(tmp_path / "in.pgm", image, "pgm")
    cont = str(tmp_path / "out.wsc")
    back = str(tmp_path / "back.pgm")
    assert main(["compress", src, cont, "--patch-size", "16"]) == 0
    assert main(["decompress", cont, back]) == 0
    assert np.array_equal(read_image(back), image)


def test_raw_input_requires_dimensions(tmp_path, capsys):
    blob = tmp_path / "img.raw"
    blob.write_bytes(bytes(48))
    code = main(["compress", str(blob), str(tmp_path / "o.wsc"), "--raw"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_raw_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    image = rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
    src = tmp_path / "img.raw"
    src.write_bytes(image.tobytes())
    cont = str(tmp_path / "o.wsc")
    back = str(tmp_path / "back.raw")
    assert main([
        "compress", str(src), cont,
        "--raw", "--width", "8", "--height", "6", "--channels", "3",
    ]) == 0
    assert main(["decompress", cont, back, "--format", "raw"]) == 0
    assert (tmp_path / "back.raw").read_bytes() == image.tobytes()


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(["compress", str(tmp_path / "absent.ppm"), str(tmp_path / "o.wsc")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_container_exits_one(tmp_path, capsys):
    bogus = tmp_path / "bogus.wsc"
    bogus.write_bytes(b"not a container at all")
    code = main(["decompress", str(bogus), str(tmp_path / "o.ppm")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_stage_flags_reach_the_container(tmp_path):
    image = smooth_gradient_patch(np.random.SeedSequence(9), 32, 32)
    src = _write_raster(tmp_path / "in.ppm", image, "ppm")

    cases = (
        ([], 0x7),
        (["--no-projection"], 0x6),
        (["--no-bitplane"], 0x5),
        (["--no-projection", "--no-bitplane"], 0x4),
    )
    for flags, expected_mask in cases:
        out = str(tmp_path / "out.wsc")
        assert main(["compress", src, out, "--patch-size", "16", *flags]) == 0
        with open(out, "rb") as fh:
            cont = read_container(fh.read())
        assert {r.stage_mask for r in cont.records} == {expected_mask}


def test_lzw_width_flag_round_trips(tmp_path):
    image = wsi_like_image(np.random.SeedSequence(21), height=64, width=64)
    src = _write_raster(tmp_path / "in.ppm", image, "ppm")
    out = str(tmp_path / "out.wsc")
    back = str(tmp_path / "back.ppm")
    assert main([
        "compress", src, out, "--patch-size", "32", "--lzw-max-width", "11",
    ]) == 0
    with open(out, "rb") as fh:
        assert read_container(fh.read()).header.lzw_max_width == 11
    assert main(["decompress", out, back]) == 0
    assert np.array_equal(read_image(back), image)


def test_drop_alpha_flow(tmp_path, capsys):
    rgb = smooth_gradient_patch(np.random.SeedSequence(4), 24, 24)
    rgba = np.concatenate([rgb, np.full((24, 24, 1), 255, np.uint8)], axis=2)
    src = _write_raster(tmp_path / "in.pam", rgba, "pam")
    cont = str(tmp_path / "out.wsc")
    back = str(tmp_path / "back.ppm")

    # without the flag, four channels are a hard error
    assert main(["compress", src, cont]) == 1
    assert "drop_alpha" in capsys.readouterr().err

    assert main(["compress", src, cont, "--drop-alpha", "--patch-size", "16"]) == 0
    capsys.readouterr()
    assert main(["decompress", cont, back]) == 0
    assert "RGB" in capsys.readouterr().err
    assert np.array_equal(read_image(back), rgb)


def test_analyze_report_schema(tmp_path, capsys):
    image = wsi_like_image(np.random.SeedSequence(13), height=48, width=40)
    src = _write_raster(tmp_path / "in.ppm", image, "ppm")
    assert main(["analyze", src, "--patch-size", "32"]) == 0
    report = json.loads(capsys.readouterr().out)

    assert report["height"] == 48 and report["width"] == 40
    assert report["channels"] == 3
    # the uncropped 48x40 input tiled at 32: full, right-edge, bottom-edge, corner
    assert [(p["row"], p["col"], p["height"], p["width"]) for p in report["patches"]] == [
        (0, 0, 32, 32), (0, 32, 32, 8), (32, 0, 16, 32), (32, 32, 16, 8)]
    for patch in report["patches"]:
        stages = [e["stage"] for e in patch["entropy"]]
        assert stages == list(ENTROPY_STAGES)
        for entry in patch["entropy"]:
            assert entry["entropy_bits"] >= 0.0
        assert "psnr_raw" not in patch


def test_analyze_psnr_records(tmp_path, capsys):
    image = smooth_gradient_patch(np.random.SeedSequence(2), 16, 16, channels=1)
    src = _write_raster(tmp_path / "in.pgm", image, "pgm")
    assert main(["analyze", src, "--patch-size", "16", "--psnr"]) == 0
    report = json.loads(capsys.readouterr().out)
    (patch,) = report["patches"]
    # 8 planes for one channel: C(8, 2) unordered pairs
    assert len(patch["psnr_raw"]) == 28
    assert len(patch["psnr_projected"]) == 28
    for rec in patch["psnr_raw"]:
        assert rec["plane_i"] < rec["plane_j"]
        assert rec["psnr_db"] == "inf" or rec["psnr_db"] >= 0.0


def test_analyze_output_file(tmp_path, capsys):
    image = smooth_gradient_patch(np.random.SeedSequence(6), 16, 16)
    src = _write_raster(tmp_path / "in.ppm", image, "ppm")
    dest = tmp_path / "report.json"
    assert main(["analyze", src, "--patch-size", "16", "-o", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(dest.read_text())
    assert report["patches"]


@pytest.mark.parametrize("command", ["compress", "decompress", "bench"])
@pytest.mark.parametrize("threads", ["0", "-5", "2.5"])
def test_threads_below_one_rejected(command, threads, capsys):
    argv = {"compress": ["compress", "in.ppm", "out.wsc"],
            "decompress": ["decompress", "in.wsc", "out.ppm"],
            "bench": ["bench", "--synthetic", "1"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--threads", threads])
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err


_RAW = ["--raw", "--width", "4", "--height", "4", "--channels", "3"]


@pytest.mark.parametrize("argv,named", [
    *[(["compress", "in.ppm", "out.wsc", "--patch-size", v], "patch_size")
      for v in ("0", "-3", "4294967296")],
    *[(["compress", "in.ppm", "out.wsc", "--lzw-max-width", v], "lzw_max_width")
      for v in ("8", "25")],
    (["analyze", "in.ppm", "--patch-size", "0"], "patch_size"),
    (["bench", "--synthetic", "1", "--ablation", "--patch-size", "0"], "patch_size"),
    (["bench", "--synthetic", "1", "--ablation", "--lzw-max-width", "25"], "lzw_max_width"),
    (["bench", "--synthetic", "1", "--seed", "-1"], "--seed"),
    (["bench", "--synthetic", "0"], "--synthetic"),
    (["bench", "--synthetic", "-2"], "--synthetic"),
    *[([command, *paths, *_RAW, option, value], option)
      for command, paths in (("compress", ["in.raw", "out.wsc"]), ("analyze", ["in.raw"]))
      for option, value in (("--width", "-5"), ("--height", "0"), ("--channels", "0"))],
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_option_values_exit_two(argv, named, capsys):
    # the inputs do not exist: option values are checked before any is read
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert err.count("error:") == 1


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_bench_stdout_deterministic(capsys):
    argv = ["bench", "--synthetic", "3", "--seed", "7", "--patch-size", "64"]
    assert main([*argv, "--threads", "1"]) == 0
    first = capsys.readouterr()
    assert main([*argv, "--threads", "4"]) == 0
    second = capsys.readouterr()
    # the ratio table is thread-count independent; timing goes to stderr
    assert first.out == second.out
    assert "MB/s" in first.err and "MB/s" not in first.out


def test_bench_ablation_csv(capsys):
    assert main([
        "bench", "--synthetic", "2", "--seed", "1",
        "--patch-size", "64", "--ablation", "--csv", "--threads", "1",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "config,image,original,compressed,ratio,peak_payload"
    configs = {line.split(",")[0] for line in lines[1:]}
    assert configs == {"lzw", "lzw+projection", "lzw+projection+bitplane"}
    # 2 images + 1 aggregate row per config
    assert len(lines) == 1 + 3 * 3
    aggregate = [l for l in lines[1:] if l.split(",")[1] == "aggregate"]
    ratios = [float(l.split(",")[4]) for l in aggregate]
    assert ratios[0] < ratios[1] < ratios[2]


def test_bench_corpus_directory(tmp_path, capsys):
    for i in range(2):
        img = smooth_gradient_patch(np.random.SeedSequence(i), 32, 32)
        _write_raster(tmp_path / f"img{i}.ppm", img, "ppm")
    assert main([
        "bench", "--corpus", str(tmp_path), "--patch-size", "32",
        "--csv", "--threads", "1",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split(",")[1] for line in lines[1:]]
    assert names == ["img0.ppm", "img1.ppm", "aggregate"]


def test_bench_needs_a_corpus(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: slidecodec bench") and "--corpus --synthetic" in err


def test_bench_takes_one_corpus(tmp_path, capsys):
    # a directory beside --synthetic is refused, not silently ignored
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--synthetic", "1", "--corpus", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compress", "in.ppm", "out.wsc", "--patch-size", "0"],
    ["analyze", "in.ppm", "--lzw-max-width", "8"],
    ["bench", "--synthetic", "1", "--patch-size", "0"],
], ids=lambda argv: argv[0])
def test_config_errors_show_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: slidecodec {argv[0]} ")
    assert f"slidecodec {argv[0]}: error:" in err
