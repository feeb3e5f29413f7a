"""The serving column of the oracle matrix (``tests/oracle/serving.py``),
follower side (docs/replication.md).

One leader and two followers (one of them view-filtered) run over real
TCP inside one loop; randomized client traces drive the leader while
reader coroutines hammer the followers.  Both followers converge to the
leader's exact state, and every follower read equals the serialized
oracle's answer at the version stamped on its reply.
``ORACLE_SCALE`` sets the number of traces.
"""

from ..oracle import serving
from ..oracle.scale import size


def test_followers_match_serialized_oracle():
    for seed in range(size("replication_traces")):
        serving.followers(seed)
