"""`segment` on the committed clips and checkpoints in tests/golden/ writes the
committed files, byte for byte; tools/golden.py --write regenerates them."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_segment_writes_the_golden_files(tmp_path):
    golden.copy_inputs(tmp_path)
    golden.run_segments(tmp_path)
    assert len(list((tmp_path / "segment").rglob("*.vtt"))) == 16
    assert golden.differing_files(tmp_path) == []


def test_golden_probabilities_clear_their_thresholds():
    # a float32 rounding that another CPU's BLAS makes differently cannot
    # flip a decode when every probability lies MARGIN or more from it
    assert golden.margin_faults() == []
