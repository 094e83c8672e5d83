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
    (8, 1, "a79317c724e20794af26d0a3c140bcc016ed11f5333eab21ac2be96a6fc33943"),
    (8, 2, "c699d927a30b29e675f38928d1d092497a568f14884d6d23e40d81074d94c504"),
    (16, 1, "4d6de3f8cfce2781cf3d808c4eb006c323eed48fc371f74d0c65092605ce4480"),
    (16, 2, "3b9683d7f4416c0b8ac04232635368efa84c5c26999b1f543aa0d4653162db6e"),
    (32, 1, "39d5f5ffb3313369712305841b9b3d9f9040230a3ac46c5b7a1bd94bed9f2cc5"),
    (32, 2, "9e345d963e6046366d4f481347cd9298d5a35997b1b91e3e899707d2bece2141"),
    (64, 1, "b28a96062728bcbe874f9120ced7f29fdd36d0182a614d2c67e05f7183ead153"),
    (64, 2, "1ca96af79593385e90d899c3947e8d89cb51a3ff12944c866c8047cb377d97f9"),
    (128, 1, "1e31fa6e7f444ce3d92aae4c0a090692072437c8d3c09e00df5dc5b922327fac"),
    (128, 2, "4cbf116d23573d53c64f1d0f2eadeff99fe68bcb655276f1bb1306b6e4fa6dc4"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN, ids=_ids(GOLDEN))
def test_trace_bytes_are_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    result = approx_nni(t1, t2)
    text = "\n".join(trace_lines(t1, t2, result.sequence)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN_METRICS = [
    (8, 1, "f25ea50d13a1c2a50701c7b77eb516939ee6902ae95184a0ec88be43a96e7525"),
    (8, 2, "c78801046a99b37feca506f63df8e76e01a8425f3ae853c40a43aaaf5f18c855"),
    (16, 1, "c805772e2aab72f1bc8c67d606179dfa43ad2329a28acfc4975841f1847446e9"),
    (16, 2, "41a186850c3aced0e41ee6de943f59ab1580392d3f5cd72e2bdd49bd0445dbfc"),
    (32, 1, "dec1c60b88aea2c2824262991c2d65d82771050bccef11dbbbc15407c829cab0"),
    (32, 2, "f936b9876be76aa19c369547b4c1f5129625788cc93f44cc11a5a94ec376c2c0"),
    (64, 1, "d058848b6ba7d8bbf897e2e9ec9de13ad18d9bd6b12dcb7ce5f2d6dcb68b43f4"),
    (64, 2, "b5b8b08f27a750180fef294eec9033639cc7cfd972401bb3c42bb87e3bdd53c8"),
    (128, 1, "95ca382cc81597c9123e5f0cee1f15ab965631ab37adb693e90e8f56078d974b"),
    (128, 2, "c690cf400dc814bfae8880464f778edb6fc500e380647db7fa617bd871554a03"),
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
