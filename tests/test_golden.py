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
    (16, 2, "9f92dafa1c66efc4c4e14f60632c9da96c169ec37cce191e7e5fb2e4b85bce83"),
    (32, 1, "2622f4c91fb7881029859bc102e7ec2ad01077413a9eceddb369c8a892924e67"),
    (32, 2, "d3051e114aac2de79098dd8e2a858172e67e1c047198a349d48471f3b8d31a7d"),
    (64, 1, "15475b7983def34e0d00d62486e87d02edbf89cbd768a897880ded491dc6f4e6"),
    (64, 2, "1772f529804da12aed958ded0c6cc1175d414aca7bd2e5cc0147f7c36b634b78"),
    (128, 1, "ec1357ac3409079de60bfe456b3680c79e828fbd03fb0a91a52c69d092203c5e"),
    (128, 2, "a345fba8a1dcd3e375619bddbe465892cbccc270cbdee5aa2b712cfb4de5ee5b"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN, ids=_ids(GOLDEN))
def test_trace_bytes_are_pinned(n, seed, digest):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
    result = approx_nni(t1, t2)
    text = "\n".join(trace_lines(t1, t2, result.sequence)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN_METRICS = [
    (8, 1, "fb1195a622e57a2cc75bed7e0b907a6db89f65c776eac386be54f5e23d4fa6bb"),
    (8, 2, "1145e6a70007b15cd38740ec08dac47227305295c53b50c55c37b4622f93ae04"),
    (16, 1, "dc96d2a616fc32bd3181e1042b304d9b3431477cb42e6ab8397fa49ea3959075"),
    (16, 2, "b52e3890c1a2a02cbc68ba2d1f39d01773666dcbba188256240b8545dc64306d"),
    (32, 1, "14dd4cfa4fd060f74e2fd9680082f8e7d43e8f94d080ddd47ac0a647ffb9a5e6"),
    (32, 2, "a0f5a6fafd3510bc25fac9df2a6543f3ceec437a4953e072b82cd76c279feb95"),
    (64, 1, "52cbff52fcd72b808039f26064891267e28a57357ea85c998e05d9c7e43d15d8"),
    (64, 2, "475429a1086e077b4cd1471d582644cc466daf443d86018548c766fc16354fad"),
    (128, 1, "04c7a247a82efab2a6ae50d84415c88930dc48d251cabb4d2f2674f65cea4ba6"),
    (128, 2, "9964549d8e13c2a6b1611b3b2ce43ac4bdedc3b07bceb7ba6a4b62023ee2a370"),
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
