"""The benchmark's own test: reduced-size runs of every workload, and its gates.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())
SEED = 5


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert set(MANIFEST["input_sha256"]) == set(run.WORKLOADS)
    assert set(MANIFEST["per_layer_moves"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_reduced_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(f"{workload} {m['name']} = ") and line.endswith(m["unit"])
                   for line in lines), m["name"]
    assert any(line.startswith(f"{workload} fail_frac = 0 frac") for line in lines)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "scan-raw":
        for layer in ("bitplane.to_bitplanes", "bitplane.from_bitplanes",
                      "transform.project", "transform.unproject"):
            assert values[f"{layer}.ms"] == 0
    else:
        assert values["lzw.lzw_encode.calls"] == values["pipeline.tiles"] > 0
        assert values["trace.unaccounted_frac"] == pytest.approx(0, abs=1e-9)


def test_gate_fails_on_altered_container(monkeypatch):
    codec = run.load_codec()
    write = codec.pipeline.write_container

    def altered(*args, **kwargs):
        blob = bytearray(write(*args, **kwargs))
        blob[-8] ^= 0xFF  # inside the last tile's LZW payload
        return bytes(blob)

    images = run.build_inputs("corpus-64", SEED, small=True)
    config = codec.CompressionConfig(patch_size=16)
    blob = codec.compress(images[0], config)
    assert run.call_ok("compress", blob, images[0], blob)
    assert not run.call_ok("compress", blob[:-1] + b"\0", images[0], blob)
    assert run.call_ok("decompress", codec.decompress(blob), images[0], blob)

    monkeypatch.setattr(codec.pipeline, "write_container", altered)
    _, _, attempted, failed = run.run_calls(codec, images, config, 2)
    assert (attempted, failed) == (4 * len(images), 2 * len(images))  # both decodes fail
    record = run.measure(codec, "corpus-64", SEED, 0.1, 0, small=True)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] > 0


def test_drift_guard_rejects_changed_inputs(monkeypatch):
    digest = MANIFEST["input_sha256"]["scan-raw"]
    monkeypatch.setattr(run, "build_inputs", lambda *a: pytest.fail("default inputs rebuilt"))
    assert run.drift_guard("scan-raw", MANIFEST["default_seed"], digest, False) == (digest, True)
    assert run.drift_guard("scan-raw", MANIFEST["default_seed"], "0" * 64, False)[1] is False


def test_fails_without_codec_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "scan-raw", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
