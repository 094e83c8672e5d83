"""Golden traces: the trace bytes of ten criterion-1 instances are pinned.

Each digest is the SHA-256 of the trace file text that ``write_trace``
writes for ``approx_nni``'s sequence.  Two generator seeds per size: the odd
seed draws distinct internal weights, the even seed repeated ones.  A
change that alters any trace byte (ids, move order, costs, canonical
serialization in the header digests) fails here and has to say why.

The round accounting of the same instances is pinned too: the SHA-256 of
``json.dumps(metrics, sort_keys=True)``, so a change that alters the rounds,
work or peak parallelism of any phase fails here as well.
"""

import hashlib
import json

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


GOLDEN_METRICS = [
    (8, 1, "b3525cbeab3bda4b06e06b1f501e1e23d5e97ad9f42e01ece67876f6563f0486"),
    (8, 2, "1145e6a70007b15cd38740ec08dac47227305295c53b50c55c37b4622f93ae04"),
    (16, 1, "dc96d2a616fc32bd3181e1042b304d9b3431477cb42e6ab8397fa49ea3959075"),
    (16, 2, "b52e3890c1a2a02cbc68ba2d1f39d01773666dcbba188256240b8545dc64306d"),
    (32, 1, "14dd4cfa4fd060f74e2fd9680082f8e7d43e8f94d080ddd47ac0a647ffb9a5e6"),
    (32, 2, "7dca98ba208e392cb3cddf00cc7626afa2bbdb66667f0850f3905494e79fbb05"),
    (64, 1, "52cbff52fcd72b808039f26064891267e28a57357ea85c998e05d9c7e43d15d8"),
    (64, 2, "fdcc87246bce396cef8149c3bb9f6bcd9086223cef4fe80a14c8deb4cfe54ed7"),
    (128, 1, "04c7a247a82efab2a6ae50d84415c88930dc48d251cabb4d2f2674f65cea4ba6"),
    (128, 2, "7212c4fcc767c9e8c942c1ea3a09999d8fbfa30d25d40914f22054b026a44187"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN_METRICS)
def test_round_accounting_is_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    metrics = json.dumps(approx_nni(t1, t2).metrics, sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == digest
