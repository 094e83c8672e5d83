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
    (8, 1, "c498e4a2506a571910880fdcc9408d018d4d4b4fb3a2d2d24bd491ac8047182f"),
    (8, 2, "0e0da778376d1619ff10d2d956c89a22562629efc234c249f30f701ac73003fd"),
    (16, 1, "d7d397f039b037741d2fa4e86cbe8dd4e02cdd1079da3d2e51bbed81998a786e"),
    (16, 2, "5d12657123aca35e57b94b9722dc709259568e991ba334acd7aa4fa95ec77a36"),
    (32, 1, "b9d4850ce5b79ebbc48f26bff905007c23c53406e21684c0ba69ad54170b8e6b"),
    (32, 2, "ed0558eef48ae06e2e034e4015d3aceb11f8c9c241a24f92595507f53f34461b"),
    (64, 1, "0e6a5b2e4cd43626394e60ea90294f7ab48e19bc811d7626855dad1885e3881a"),
    (64, 2, "7f0d7b5fcaf79d3b6743331c97ccec6f4a8dd933e94eae91bc484d9428edfac6"),
    (128, 1, "df7b7ee6d9cdf1f5fc3e82631f8a76a5c1348aaed74ed540931cde7c82716e7f"),
    (128, 2, "81548f339a9a8467ecf66c6b1111e6c6a8f64b9bd82c2518c765112d32e029ee"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN, ids=_ids(GOLDEN))
def test_trace_bytes_are_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    result = approx_nni(t1, t2)
    text = "\n".join(trace_lines(t1, t2, result.sequence)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN_METRICS = [
    (8, 1, "2a7711786b1d96afbe92d8781714a7c3a40c85303d63f1bdc6f8f8f13865702a"),
    (8, 2, "a9950e27417527b71eb5c1ddc9e3317ad15576ee225bfee16d0211b8a1d3d69f"),
    (16, 1, "87ad64d6abd6bf02cb97bec9d55bf3677ce90b4a8fb2f1cae4007e8576f56858"),
    (16, 2, "3aa61e65d1cbb027f735b7905e0b6289341c66f0a59348aa921a6189382cc4db"),
    (32, 1, "c673f732d1a26af6dd51ba2bc6ccb9dbe4b68b03b7468cc3af5f2685c9438391"),
    (32, 2, "d68c6f2bc85a3eb2b6a516350e54aaeaa3a79064147b672c5947d7906c1fe27f"),
    (64, 1, "f78f853d64e970c8410abaf79b5a9ea19bbf23ad93383602a53e76c7ae6b100d"),
    (64, 2, "5908a160dcf42981706c1edf351453dd29d4faa4ede232d8f0edd8691c18c448"),
    (128, 1, "841d65b9f42fcc8bfc2cdc9c72965b796e538aac10669a7527a9074397b902f0"),
    (128, 2, "649fbeb1dd6fc27ebe8e9446917081b4c44ca3646b0ef2ec7686cb02ba9e3b0e"),
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
