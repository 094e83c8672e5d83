"""Golden traces: the trace bytes of ten criterion-1 instances are pinned.

Each digest is the SHA-256 of the trace file text that ``write_trace``
writes for ``approx_nni``'s sequence.  Two generator seeds per size: the odd
seed draws distinct internal weights, the even seed repeated ones.  A
change that alters any trace byte (ids, move order, costs, canonical
serialization in the header digests) fails here and has to say why.

The round accounting of the same instances is pinned too: the SHA-256 of
``json.dumps(metrics, sort_keys=True)``, so a change that alters the rounds,
work or peak parallelism of any phase fails here as well.

So are the exact search's answers on acceptance criterion 2's 220
instances (the make-up of the ``exact_small`` benchmark workload): one line
per instance with its distance and witness moves.  A change to the search's
states, costs or tie-break that picks another optimal witness fails here.
"""

import hashlib
import json

import pytest

from nnidist.exact import exact_dnni
from nnidist.gen import generate_pair
from nnidist.newick import format_weight
from nnidist.nni import trace_lines
from nnidist.pipeline import approx_nni

def _ids(rows):
    # n-seed alone, so a digest that moves by design keeps its test's name
    return [f"{n}-{seed}" for n, seed, _ in rows]


GOLDEN = [
    (8, 1, "c3524786fbacd24fb8651df8caa16b9992bfc0c72583feffb79ae9218ecd3066"),
    (8, 2, "c699d927a30b29e675f38928d1d092497a568f14884d6d23e40d81074d94c504"),
    (16, 1, "a89056d70a02dde7696b362b2b3df4936e37425cdb1d3bdc5dbf8833672d7067"),
    (16, 2, "3b9683d7f4416c0b8ac04232635368efa84c5c26999b1f543aa0d4653162db6e"),
    (32, 1, "972c82f461932840186ae29006c231697a82e8197fc5cde39f5fd9dede0a713d"),
    (32, 2, "7f36af691db7ccfab0863a9b388e25ebaa62d695f4946510041e56945e92d668"),
    (64, 1, "916fd767d9d5af06dc9dcb229fbdfb52e9ced560de4dba70bf1d7a6fc30c91d4"),
    (64, 2, "be12133e0243fd2e462eff034e0e062dd934a33216c371557cab5a8e0aec2ca9"),
    (128, 1, "8f33d03842b35d718e2c449a869b0b4c2913a7f08e0642b8be04d011e5605b58"),
    (128, 2, "5498d52294a7053bbd8e28420a1ae11d2772648add744f55e67dd077b9cf66fc"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN, ids=_ids(GOLDEN))
def test_trace_bytes_are_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    result = approx_nni(t1, t2)
    text = "\n".join(trace_lines(t1, t2, result.sequence)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN_METRICS = [
    (8, 1, "2a7711786b1d96afbe92d8781714a7c3a40c85303d63f1bdc6f8f8f13865702a"),
    (8, 2, "c78801046a99b37feca506f63df8e76e01a8425f3ae853c40a43aaaf5f18c855"),
    (16, 1, "ee5cf0d636ec1debd639334a19f50bdb6785afae210b40b1043bc5b38b974b01"),
    (16, 2, "41a186850c3aced0e41ee6de943f59ab1580392d3f5cd72e2bdd49bd0445dbfc"),
    (32, 1, "0204def94a0b99d3af015fe61fdf17ec20fdf3baf2f5769f7ec6999d9c27486b"),
    (32, 2, "ecbb3cdedc54a8fdaf1059c3c2c2f33e5fc45000b1ae80766f04094549366e06"),
    (64, 1, "3293a58ba01c0d848a2361325faa59aa2e5e3d7acd3ef19c064f61eb52c7b0e4"),
    (64, 2, "643137dc370eaf52dccd907cb9728757d2c84b82264405b1af311cadcc642ac6"),
    (128, 1, "afde10e60224086b0725115ead7ba5c59f38f2d8bd73960b61e53d9b28e59fa9"),
    (128, 2, "83842a5eb14ca5b0e9cda828e8714220713b001971eacf6ae9c9a0c2272d8eb9"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN_METRICS, ids=_ids(GOLDEN_METRICS))
def test_round_accounting_is_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    metrics = json.dumps(approx_nni(t1, t2).metrics, sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == digest


EXACT_WITNESSES = "52a63bed70056995dc39ab60d5a6832d1288deda9663e3353606b1417d690ef8"


def test_exact_distances_and_witnesses_are_pinned():
    lines = []
    for n, count in ((5, 100), (6, 100), (7, 20)):
        for s in range(1, count + 1):
            t1, t2, _ = generate_pair(seed=s, n=n, moves=n - 1, dup_weights=s % 3 == 0)
            d, ops = exact_dnni(t1, t2)
            lines.append(
                f"{n} {s} {format_weight(d)} " + " ".join(f"{o.e1},{o.e2},{o.e3}" for o in ops)
            )
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_WITNESSES
