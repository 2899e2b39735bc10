"""Output digests: every op's output is checked, and a mismatch fails it.

* A priced cell's digest is sha256[:16] of the canonical JSON of
  ``ExperimentResult.to_dict()`` minus the wall-clock ``ordering_seconds``
  (the convention of ``tests/test_artifact_stability.py``).
* A ``cold-build`` artifact's digest is ``array_fingerprint`` over its
  packed arrays in name order, minus the ``meta_json`` blob (it holds the
  build's wall-clock seconds).

``pinned.json`` beside this package holds the digests for the default
seed; ``perfbench/pin.py`` regenerates it.  For any other seed the
benchmark checks that every pass reproduces its warm-up pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED_PATH = Path(__file__).resolve().parent.parent / "pinned.json"


def cell_digest(result) -> str:
    payload = result.to_dict()
    payload.pop("ordering_seconds")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def artifact_digest(*packed: dict) -> str:
    from repro.store import array_fingerprint

    arrays = [
        bundle[name]
        for bundle in packed
        for name in sorted(bundle)
        if name != "meta_json"
    ]
    return array_fingerprint(*arrays)


def load_pins(path: Path = PINNED_PATH) -> dict:
    """The pinned digests, or an empty dict when none are committed."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
