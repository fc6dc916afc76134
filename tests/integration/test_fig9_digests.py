"""Pinned fig9 results: the hybrid key-value stores' simulated output.

The Hybrid-Index and Dual stores are the workloads that drive whole
persistent commits through the memory controller and its logs, and the
ones whose pre-fill and verification run through the functional
(``RawContext``) access path.  A change that only makes the host faster
must leave every simulated number alone, so this test pins the SHA-256 of
each point's canonical ``RunResult`` JSON for one point per store at the
bench smoke scale (1/64), seed 2020, under the bounded baseline and the
paper's design.  The constants were taken from the code before the
functional access path was rewritten.

If a deliberate model change moves them, recompute each with
``result_digest`` and say why in the change log.
"""

import hashlib
import json

import pytest

from repro.harness.bench import SMOKE_SCALE
from repro.harness.figures import fig9_grid
from repro.harness.metrics import run_result_to_dict
from repro.harness.runner import run_experiment

SEED = 2020

#: (workload, footprint KB, design label) -> RunResult digest.
PINNED = {
    ("hybrid_index", 600, "LLC-Bounded"):
        "d6490cd7d909ee5a38c24a552d8915d77acf30de750f240f9b7004377ef25d34",
    ("hybrid_index", 600, "1k_opt"):
        "2a03a38e221f00f5a2aa3dce92aed67ffb66ebe2de97baa16c90ed27fb2bb057",
    ("dual_kv", 600, "LLC-Bounded"):
        "5fdbd55f7babd5653f0c09ce3afc60cd865c404ee2045e8ef4dbd90dbaf696f6",
    ("dual_kv", 600, "1k_opt"):
        "d0a0efdccc3badebce78c284fd9f56d1da9462595704588e874e136e50cbd02d",
}

POINTS = {
    point.key[:3]: point
    for point in fig9_grid(quick=True, scale=SMOKE_SCALE, seed=SEED)
    if point.key[:3] in PINNED and point.key[3] == SEED
}


def result_digest(result) -> str:
    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: ":".join(map(str, k)))
def test_fig9_point_result_is_pinned(key):
    point = POINTS[key]
    result = run_experiment(point.spec, point.label)
    assert result.verified
    assert result_digest(result) == PINNED[key]
