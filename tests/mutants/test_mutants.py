"""Every named mutant is killed by its named killer.

Each case copies ``src/``, applies one mutant and runs only its killer in a
subprocess (about 1 s each).  Pytest's exit status 1 means tests ran and one
failed; any other status (a collection error, no test selected) is not a
kill.
"""

from __future__ import annotations

import pytest

from . import MUTANTS, run_mutant


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_is_killed_by_its_named_test(mutant, tmp_path):
    result = run_mutant(mutant, tmp_path)
    assert result.returncode == 1, (
        f"{mutant.name} survived {mutant.killer} (pytest exit {result.returncode}):\n"
        f"{result.stdout[-2000:]}{result.stderr[-2000:]}"
    )
    assert f"FAILED {mutant.killer}" in result.stdout
