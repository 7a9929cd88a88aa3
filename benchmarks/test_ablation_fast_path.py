"""The ablation schedulers run bit-identically on the fast and reference loops.

Both ablations subclass :class:`~repro.core.past_future.PastFutureScheduler`
and change its admission rule, so each must either keep a sound inherited
saturated-phase proof (the naive footprint sum) or opt out of it (the static
one-shot prediction).  A proof that does not hold for the subclass's rule
lets the fast path fuse iterations the reference loop would have admitted in.
"""

from __future__ import annotations

import pytest

from benchmarks import test_ablation_future_memory, test_ablation_resampling
from repro.analysis.perf import run_fingerprint
from repro.hardware.platform import paper_platform

ABLATIONS = {
    "naive-sum": (
        test_ablation_future_memory,
        lambda: test_ablation_future_memory.NaiveSumScheduler(reserved_fraction=0.03, seed=31, num_samples=4),
    ),
    "static-prediction": (
        test_ablation_resampling,
        lambda: test_ablation_resampling.StaticPredictionScheduler(
            reserved_fraction=0.03, seed=32, num_samples=2
        ),
    ),
}


@pytest.mark.parametrize("name", list(ABLATIONS))
def test_ablation_scheduler_fast_path_matches_reference(name):
    module, build = ABLATIONS[name]
    platform = paper_platform("7b-a100")
    fast = module.run_ablation(platform, build(), fast_path=True)
    reference = module.run_ablation(platform, build(), fast_path=False)
    assert run_fingerprint(fast) == run_fingerprint(reference)
