"""Every chain on every small input at auto t, delta and |R| (the tier-1
slice of ``exhaustive``, which documents the families)."""

import pytest

from exhaustive import check, families


@pytest.mark.parametrize("family", families(full=False), ids=lambda family: family.label)
def test_every_chain_answers_every_small_input(family):
    asked, mismatches = check(family, full=False)
    assert asked
    first = "\n\n".join(str(mismatch) for mismatch in mismatches[:3])
    assert not mismatches, f"{len(mismatches)} of {asked} answers wrong; the first:\n\n{first}"
