"""A quick slice of the output sweep: these groups of CLI runs print what they
printed when ``tests/sweep.json`` was recorded.  The whole sweep is
``python tests/sweep.py --check``."""

import pytest

from .sweep import SLICE, digest, recorded, run_group
from .sweep import FIXTURES, verdicts


@pytest.mark.parametrize("group", SLICE)
def test_sweep_group_prints_as_recorded(group):
    assert digest(run_group(group)) == recorded()[group]


# The runs where field mode at the sweep's seed and --mode symbolic reach
# different exit codes, as (field, symbolic, the ROADMAP item that closes the
# gap).  Item 2: the field replay checks no mp step, so a wrong mp off the qed
# path, or one healed by a later step, passes field mode.  Item 2 can shrink
# this list; anything new here is a verdict that changed.
VERDICT_DISAGREEMENTS = {
    "swaps": {
        "verify $DIR/contrapose_fn-0.proof": (0, 1, 2),
        "verify $DIR/imp_refl-0.proof": (0, 1, 2),
        "verify $DIR/subst_demo-0.proof": (0, 1, 2),
        "verify $DIR/subst_step-0.proof": (0, 1, 2),
        "verify $DIR/healed_swap.proof": (0, 1, 2),
    },
}


@pytest.mark.parametrize("group", ["swaps", *(f"fixture-{n}" for n in FIXTURES)])
def test_field_and_symbolic_verdicts_differ_only_where_recorded(group):
    differ = {" ".join(argv): (field, symbolic)
              for argv, field, symbolic in verdicts(group) if field != symbolic}
    want = VERDICT_DISAGREEMENTS.get(group, {})
    assert differ == {run: codes[:2] for run, codes in want.items()}
