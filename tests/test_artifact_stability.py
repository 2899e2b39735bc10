"""Persisted-artifact stability: the PR-5 bugfixes change cost, not content.

The exact-arithmetic `chunk_boundaries`, the bucket-sort
`counting_sort_by_degree` and the bucket-sort `assignment_to_order` are
all *implementation* fixes: every digest below was captured from the
implementations they replaced (float cut targets, `np.argsort` on negated
keys), so these tests pin that orderings, boundaries, trace keys and
default-machine pricing are byte-identical across the swap — nothing
persisted in anyone's artifact cache or results store went stale.

(Result *keys* did rotate this PR — `RESULTS_KEY_VERSION` 2 added the
machine dimension — which is exactly why the pricing digests below hash
the result *payloads*, not their keys.)
"""

import hashlib
import json

import numpy as np
import pytest

from repro import store
from repro.algorithms import ALGORITHMS
from repro.experiments.runner import execute, prepare, price, run
from repro.ordering import get_ordering
from repro.ordering.vebo import counting_sort_by_degree
from repro.partition.algorithm1 import chunk_boundaries

SCALE = 0.05

#: sha256[:16] digests of array bytes / canonical-JSON payloads, captured
#: from the pre-fix implementations at scale 0.05, seed defaults.
GOLDEN = {
    "twitter": {
        "boundaries": {1: "fc93aac95955aaff", 3: "7b4aa733299d42e3",
                       7: "fa4f41ecf367b023", 48: "d336956786ccaa3d",
                       384: "347623a574947d6c"},
        "counting_sort": "f448b33411a9ecb7",
        "vebo_perm": "0d927a0404123009",
        "vebo_boundaries": "09f5732768385c13",
    },
    "friendster": {
        "boundaries": {1: "718e8c353903e9a3", 3: "0f1c02f5f2132506",
                       7: "2f18a71dc3f37ffe", 48: "0c79dd61570317a2",
                       384: "d8e480d88bf58a68"},
        "counting_sort": "c81f64f55b266ccc",
        "vebo_perm": "35781079fe44ea9a",
        "vebo_boundaries": "d2841885efbe2130",
    },
    "rmat": {
        "boundaries": {1: "b52772af36e65445", 3: "fce424fb81bde3a4",
                       7: "48af04dc90c49c66", 48: "3fc2a24338936671",
                       384: "6802a2c4de78007c"},
        "counting_sort": "e3b75e68e02c6c5b",
        "vebo_perm": "a0f8f5e6ce5af1c3",
        "vebo_boundaries": "8cae9293e9af2a74",
    },
    "powerlaw": {
        "boundaries": {1: "1f4354141c736845", 3: "b24aa7a9290637ca",
                       7: "84919da039829b96", 48: "01147823561f2508",
                       384: "eed5adc5cda382c9"},
        "counting_sort": "93b41163767f6c83",
        "vebo_perm": "74f52e3536079424",
        "vebo_boundaries": "3d42122122216f05",
    },
    "orkut": {
        "boundaries": {1: "38e78ba541c71f96", 3: "1786e1436226d004",
                       7: "80a8bc398fc6cea6", 48: "4217136daf9e3784",
                       384: "0d8abb0f695bffb6"},
        "counting_sort": "a0d9a5aed42c7d33",
        "vebo_perm": "ced82cb81d5e79dc",
        "vebo_boundaries": "f5141a24c5f0fd31",
    },
    "livejournal": {
        "boundaries": {1: "230ac89f832080f2", 3: "517b598f1dd11cc1",
                       7: "9f15bf6a8f3dcb08", 48: "eca6433035a39296",
                       384: "b26aa64cc4c53473"},
        "counting_sort": "ac96b45578a3764e",
        "vebo_perm": "2bce9baad42a8652",
        "vebo_boundaries": "402f0d5d4257244e",
    },
    "yahoo": {
        "boundaries": {1: "d7506944cf9ab4f6", 3: "5660e52137f0a7f4",
                       7: "683742ed6ea9c6b6", 48: "895ed316fd4d859b",
                       384: "fbf853718897fa9a"},
        "counting_sort": "f0c51cd975554d04",
        "vebo_perm": "b721a912cb5f6731",
        "vebo_boundaries": "4a118a10a7572feb",
    },
    "usaroad": {
        "boundaries": {1: "62cb5585710df927", 3: "57ed8c72dedaf240",
                       7: "7960aebc0dd8a2d3", 48: "0a8deaf13ceb80c7",
                       384: "9f4749919a92e7ac"},
        "counting_sort": "d74fb86f53bed3d8",
        "vebo_perm": "a4b630c118be2d29",
        "vebo_boundaries": "8bb6fea1f7bb6d9b",
    },
}

GOLDEN_STREAMING = {"ldg": "702746827e553786", "fennel": "527357fee8dbd1b7"}

#: trace keys of (twitter @ 0.05, P=384) identities — unchanged content
#: (graph bytes, ordering, algorithm, kwargs) must keep every stored
#: trace addressable.
GOLDEN_TRACE_KEYS = {
    ("PR", "original"): "9550d3a99251b3ded5696ea11e93cc3974520fbd",
    ("PR", "vebo"): "d9addb5d61f9f5b34cbdc55c562ad275ae699163",
    ("BFS", "original"): "ab3947875b13edd869bd4bdd0670adb091e3a754",
    ("BFS", "vebo"): "d3a9983510e0d5c1c7ba8a0a5f8496a3cbb85775",
}

#: canonical-JSON digests of PR ExperimentResult payloads (minus the
#: wall-clock ordering_seconds and the new machine tag): default-machine
#: pricing itself is pinned unchanged.
GOLDEN_PRICING = {
    ("ligra", "original"): "613813f763288881",
    ("ligra", "vebo"): "be3b8a414abde4f4",
    ("polymer", "original"): "ff7f565146266010",
    ("polymer", "vebo"): "61511cb9896866ee",
    ("graphgrind", "original"): "fd6ad36ba6bdb3d2",
    ("graphgrind", "vebo"): "059adcc5b6d76031",
}


#: canonical-JSON digests of every priced cell — 8 algorithms x 3
#: frameworks x 2 orderings on one graph per built-in machine, captured
#: from the per-record heap schedulers before pricing became one batched
#: array program.  laptop pins the single-socket / grain-6 Cilk path,
#: big-numa the 8 x 16 topology.
GOLDEN_MACHINE_PRICING = {
    ("paper-xeon", "twitter"): "52b98978be348d43",
    ("laptop", "usaroad"): "9a794770dc1229e8",
    ("big-numa", "friendster"): "7ecccc8c66671016",
}


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def graphs():
    return {name: store.load_graph(name, scale=SCALE) for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chunk_boundaries_unchanged(graphs, name):
    degs = graphs[name].in_degrees()
    for p, want in GOLDEN[name]["boundaries"].items():
        assert digest(chunk_boundaries(degs, p)) == want


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_counting_sort_unchanged(graphs, name):
    degs = graphs[name].in_degrees()
    assert digest(counting_sort_by_degree(degs)) == GOLDEN[name]["counting_sort"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vebo_ordering_unchanged(graphs, name):
    result = get_ordering("vebo")(graphs[name], num_partitions=48)
    assert digest(result.perm) == GOLDEN[name]["vebo_perm"]
    assert digest(result.meta["boundaries"]) == GOLDEN[name]["vebo_boundaries"]


@pytest.mark.parametrize("ordering", sorted(GOLDEN_STREAMING))
def test_streaming_permutations_unchanged(graphs, ordering):
    result = get_ordering(ordering)(graphs["twitter"], num_partitions=8)
    assert digest(result.perm) == GOLDEN_STREAMING[ordering]


def test_trace_keys_unchanged(graphs):
    from repro.store import trace_key

    g = graphs["twitter"]
    for (algo, ordering), want in GOLDEN_TRACE_KEYS.items():
        kwargs = {"num_iterations": 2} if algo == "PR" else {}
        assert trace_key(g, algo, ordering, 384, kwargs) == want


def test_default_machine_pricing_unchanged(graphs):
    g = graphs["twitter"]
    for ordering in ("original", "vebo"):
        prep = prepare(g, ordering, 384)
        for framework in ("ligra", "polymer", "graphgrind"):
            result = run(g, "PR", framework, ordering=ordering,
                         prepared=prep, num_iterations=2)
            payload = result.to_dict()
            payload.pop("ordering_seconds")  # wall clock, never pinned
            payload.pop("machine")           # new metadata this PR added
            got = hashlib.sha256(json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode()).hexdigest()[:16]
            assert got == GOLDEN_PRICING[(framework, ordering)]


def _payload_digest(payloads) -> str:
    return hashlib.sha256(json.dumps(
        payloads, sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()[:16]


@pytest.mark.parametrize("machine, graph_name", sorted(GOLDEN_MACHINE_PRICING))
def test_machine_pricing_unchanged(graphs, machine, graph_name):
    g = graphs[graph_name]
    payloads = []
    for ordering in ("original", "vebo"):
        prep = prepare(g, ordering, 384)
        for algorithm in sorted(ALGORITHMS):
            execution = execute(g, algorithm, prepared=prep)
            for framework in ("ligra", "polymer", "graphgrind"):
                payload = price(execution, g, framework, prep, machine=machine).to_dict()
                payload.pop("ordering_seconds")  # wall clock, never pinned
                payloads.append(payload)
    assert _payload_digest(payloads) == GOLDEN_MACHINE_PRICING[(machine, graph_name)]
