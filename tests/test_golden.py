"""Golden traces: the trace bytes of ten criterion-1 instances are pinned.

Each digest is the SHA-256 of the trace file text that ``write_trace``
writes for ``approx_nni``'s sequence.  Two generator seeds per size: the odd
seed draws distinct internal weights, the even seed repeated ones.  A
change that alters any trace byte (ids, move order, costs, canonical
serialization in the header digests) fails here and has to say why.
"""

import hashlib

import pytest

from nnidist.gen import generate_pair
from nnidist.nni import trace_lines
from nnidist.pipeline import approx_nni

GOLDEN = [
    (8, 1, "2df071bf9793439db0d7146d682c0a1edafbd9c858bb7d869e96aa7d2cc738ce"),
    (8, 2, "17b6345abc5f13c9c72074c858569137ef531e323a36158eb0c5b530e5fb07b0"),
    (16, 1, "7921715c9fbd10a0b2ba494cc986e4c3700ecbde8d62fb7ff1e9c6270794d8ef"),
    (16, 2, "26e09bd05408d3af998021085ac2e79fc2badc9a0ec460e018ebbcb67d640a53"),
    (32, 1, "8425e7cf7e99c1fc3ca2e26541498e70339c2ebebb0e84da0f092e42c8bffd16"),
    (32, 2, "a1e961c5177cb7550baaeb16a7ea8d1f3f5659f914adfd726a616bfdec26ad10"),
    (64, 1, "9430aefe862b8df653101592be1dba8f1bbf6098ea97f18b20712f3df244d869"),
    (64, 2, "d04c63754a03ade4e6d773286c0d1ce71ff76fa15f94d9aca6ee64d3c95fbb18"),
    (128, 1, "a3939f61d1b43f9a88c04ddfcd66ccbc99a6cf6695afbabf3861263d73b4863e"),
    (128, 2, "c128b7d6eb19979845bb0064945030f2bcad9b99b497cdadbc610981d1278501"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN)
def test_trace_bytes_are_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    result = approx_nni(t1, t2)
    text = "\n".join(trace_lines(t1, t2, result.sequence)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
