"""The streamed text writers: ``field`` and ``profile`` write their text in
blocks of ``BLOCK_VALUES`` values, with the same bytes at any block size and
a peak memory bounded by the block rather than by the size of the text."""

import tracemalloc

import numpy as np
import pytest

import test_golden as golden
from foliata import _jsonfmt, cli
from foliata._jsonfmt import chunks, dumps
from foliata.cli import main

#: Floats of each template spec: null, -0.0 and integral values as x.0, and
#: values that need all 17 significant digits.
FLOATS = [np.nan, -0.0, 3.0, 0.1, 1.0 / 3.0, -2.0 / 3.0, 1e16, 5e-324]


@pytest.mark.parametrize("n", [0, 1, 3, 4, 7])
def test_chunks_in_small_blocks_match_the_reference(monkeypatch, n):
    # arrays of 0, 1, 3, 4 and 7 values against blocks of 3: no block, one
    # partial block, one full block, and full blocks with a remainder
    monkeypatch.setattr(_jsonfmt, "BLOCK_VALUES", 3)
    floats = np.resize(np.array(FLOATS), n)
    bools = np.resize(np.array([True, False, False]), n)
    doc = {"omega": floats, "mask": bools, "nested": [floats, {"mask": bools}], "n": n}
    ref = {"omega": floats.tolist(), "mask": bools.tolist(),
           "nested": [floats.tolist(), {"mask": bools.tolist()}], "n": n}
    pieces = list(chunks(doc))
    assert "".join(pieces) == golden._ref_json(ref) + "\n" == dumps(doc)
    # no piece holds more than one block: 3 values, 2 separators
    assert all(piece.count(",") <= 2 for piece in pieces)


def test_cli_profile_csv_rendering_in_blocks_of_7(tmp_path, monkeypatch):
    # 6001 rows in blocks of 7 rows, the last one partial
    monkeypatch.setattr(cli, "BLOCK_VALUES", 7)
    golden.test_cli_profile_csv_rendering(tmp_path)


def test_cli_field_file_is_dumps(tmp_path, monkeypatch):
    docs, original = [], cli.chunks

    def recorded(doc):
        docs.append(doc)
        return original(doc)

    monkeypatch.setattr(cli, "chunks", recorded)
    out = golden._run(tmp_path, golden.FIELD, "field")
    assert len(docs) == 1
    assert out.read_text(encoding="utf-8") == dumps(docs[0])


@pytest.mark.parametrize("argv", [
    ["field", "--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
     "--nx", "301", "--ny", "301"],
    ["profile", "--c0", "1", "--c", "-1", "--d", "0", "--kind", "F", "--range", "0", "200"],
], ids=["field-301", "profile-200"])
def test_written_text_peaks_below_twice_its_size(tmp_path, argv):
    # the text goes out a block at a time, so the traced peak (field and
    # profile arrays, one block's text) stays below twice the bytes written
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak < 2 * size, f"traced peak {peak} B for {size} B of text"
