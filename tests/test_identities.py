"""Every registered identity on every grid shape in its domain, and its
refusal on every grid shape outside it (tests/identities.py)."""

import random

import pytest

from supertransform.superalg import VariableUniverse
from tests.identities import GRID, IDENTITIES

_HOLDS = [(i, m, n) for i in IDENTITIES for m, n in GRID if i.domain(m, n)]
_REFUSED = [(i, m, n) for i in IDENTITIES for m, n in GRID
            if not i.domain(m, n)]


def _ids(cases):
    return [f"{i.name}-({m},{n})" for i, m, n in cases]


@pytest.mark.parametrize("identity, m, n", _HOLDS, ids=_ids(_HOLDS))
def test_identity_holds(identity, m, n):
    identity.check(VariableUniverse.standard(m, n),
                   random.Random(f"{identity.name}-{m}-{n}"))


@pytest.mark.parametrize("identity, m, n", _REFUSED, ids=_ids(_REFUSED))
def test_identity_is_refused_outside_its_domain(identity, m, n):
    with pytest.raises(ValueError, match=identity.rule):
        identity.refuse(VariableUniverse.standard(m, n))


def test_identity_names_are_unique():
    # a name is the first part of every test id above
    assert len({i.name for i in IDENTITIES}) == len(IDENTITIES)
