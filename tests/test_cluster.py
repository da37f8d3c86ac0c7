"""Truncated-run resume contracts of a single :class:`ServingEngine`.

The module once also held the multi-replica cluster suite; what stays is
the behaviour that suite's ``TestReleaseInflight`` pinned on the bare
engine, under the same test ids.  A run cut short by ``max_steps`` leaves
its active sessions holding their arena pages; a plain follow-up ``run()``
resumes them, finishes with exactly the tokens of an uninterrupted engine,
and drains the arena with balanced books -- with and without KV snapshots.
"""

import pytest

from repro.model import QuantizedTransformer, TransformerModel, get_model_config
from repro.serve import PagedKVArena, ServingEngine
from repro.workloads import sample_requests


@pytest.fixture(scope="module")
def model():
    """One calibrated quantised model shared by every trace."""
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


def _arena(model):
    config = model.config
    return PagedKVArena(config.n_layers, config.hidden_size, page_size=8)


def _reference_tokens(model, requests):
    """Token streams of an uninterrupted engine on ``requests``."""
    reference = ServingEngine(model, max_active=4, arena=_arena(model))
    handles = reference.submit_many(requests)
    reference.run()
    return [h.generated_tokens for h in handles]


class TestReleaseInflight:
    def test_truncated_run_release_balances_books_and_resumes(self, model):
        requests = sample_requests(
            8, vocab_size=model.config.vocab_size, seed=5
        )
        expected = _reference_tokens(model, requests)

        engine = ServingEngine(model, max_active=4, arena=_arena(model))
        handles = engine.submit_many(requests)
        truncated = engine.run(max_steps=6)
        assert truncated.truncated and truncated.leftover_active > 0
        stats = engine.arena.stats
        # the interrupted sessions keep their pages until the next run
        assert stats.pages_in_use > 0

        # a follow-up run resumes, finishes bit-identically and releases
        # every page it and the truncated run took
        final = engine.run()
        assert not final.truncated
        assert [h.generated_tokens for h in handles] == expected
        assert engine.n_active == 0 and engine.n_queued == 0
        assert stats.pages_in_use == 0
        assert stats.page_faults == stats.pages_freed

    def test_release_inflight_with_snapshots_resumes_identically(self, model):
        requests = sample_requests(
            8, vocab_size=model.config.vocab_size, seed=5
        )
        expected = _reference_tokens(model, requests)

        engine = ServingEngine(
            model, max_active=4, arena=_arena(model), kv_snapshots=True
        )
        handles = engine.submit_many(requests)
        assert engine.run(max_steps=6).truncated
        engine.run()
        assert [h.generated_tokens for h in handles] == expected
        assert engine.arena.stats.pages_in_use == 0
        assert engine.arena.stats.page_faults == engine.arena.stats.pages_freed
