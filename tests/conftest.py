import pytest

import vhx

LOLLIPOP = "G[V[1,5,9],V[2,3,4],V[6,7,8],V[10,11,12]]"

SMALL_FIXTURES = ("theta", "thetaneg", "k4", "thetab", "p3", "k33")


def walks_of(trace):
    """The token ids of each circle in walk order, rebuilt from the ranks of
    a :func:`vhx.vpd.walk` trace, whose owners and first tokens must agree
    with them."""
    owner, firsts, rank = trace
    ntok = len(rank)
    walks = [[] for _ in firsts]
    for t in sorted(range(ntok), key=rank.__getitem__):
        walks[rank[t] // ntok].append(t)
    assert list(owner) == [r // ntok for r in rank]
    assert tuple(firsts) == tuple(w[0] for w in walks)
    return walks


def trace_of(walks, ntok):
    """The :func:`vhx.vpd.walk` trace (owners, first tokens, ranks) of
    circles given as token ids in walk order."""
    owner, rank = [-1] * ntok, [0] * ntok
    for c, walk in enumerate(walks):
        for r, t in enumerate(walk, c * ntok):
            owner[t], rank[t] = c, r
    return owner, tuple(w[0] for w in walks), rank


@pytest.fixture(scope="session")
def graphs():
    out = {name: vhx.load_fixture(name) for name in vhx.FIXTURES}
    out["lollipop"] = vhx.parse_vpd(LOLLIPOP)
    return out
