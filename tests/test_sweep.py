"""A quick slice of the output sweep: these groups of CLI runs print what they
printed when ``tests/sweep.json`` was recorded.  The whole sweep is
``python tests/sweep.py --check``."""

import pytest

from .sweep import SLICE, digest, recorded, run_group


@pytest.mark.parametrize("group", SLICE)
def test_sweep_group_prints_as_recorded(group):
    assert digest(run_group(group)) == recorded()[group]
