"""Each command on the committed inputs in tests/golden/ writes the committed
files (see tools/golden.py for how each is compared); tools/golden.py
--write regenerates them."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """A work directory where every golden run ran again, in order."""
    work = tmp_path_factory.mktemp("golden")
    golden.copy_inputs(work)
    golden.run_all(work)
    return work


def test_segment_writes_the_golden_files(rerun):
    assert len(list((rerun / "segment").rglob("*.vtt"))) == 16
    assert golden.differing_files(rerun, "segment") == []


@pytest.mark.parametrize("output", ["tune", "eval", "bio-fidelity", "flow-dump", "hand-bench"])
def test_command_writes_the_golden_files(rerun, output):
    assert (rerun / output).is_dir()
    assert golden.differing_files(rerun, output) == []


def test_every_golden_run_has_committed_files():
    assert sorted(golden.OUTPUTS) == sorted({out.split("/")[0] for out, _ in golden.runs()})
    for out, argv in golden.runs():
        assert (golden.GOLDEN / out / f"{argv[0]}.run.json").is_file(), out


def test_golden_probabilities_clear_their_thresholds():
    # a float32 rounding that another CPU's BLAS makes differently cannot
    # flip a decode when every probability lies MARGIN or more from it
    assert golden.margin_faults() == []


def test_golden_directory_stays_small():
    size = sum(p.stat().st_size for p in golden.GOLDEN.rglob("*") if p.is_file())
    assert size < golden.MAX_BYTES
