"""Test doubles shared by the serving and model-layer suites.

Also the serving oracle :func:`assert_matches_solo` and the one-session
step helpers of the session-level tests: each helper runs one
:meth:`GenerationSession.prefill_step_batch` engine step for a single
session and returns the token it emitted (``None`` when none was).
"""

import numpy as np

from repro.model import generate
from repro.model.config import ModelConfig
from repro.model.transformer import ForwardStats
from repro.serve.session import GenerationSession


class StubModel:
    """Deterministic O(1) stand-in for a transformer: next token = last + 1.

    Exposes the serving surface of the quantised model -- ``config`` (one
    layer, hidden size 1, so the engine's arena is tiny), ``new_cache``,
    ``prefill_batch`` -- plus the serial ``forward`` of :func:`generate`,
    so scheduler-logic tests don't pay transformer cost.  Both passes return
    logits whose argmax is ``(last_token + 1) % vocab`` and count themselves
    in :attr:`passes`.  Caches are empty lists: the stub holds no KV.
    """

    def __init__(self, vocab: int = 16):
        self.vocab = vocab
        self.config = ModelConfig(
            name="stub",
            n_layers=1,
            hidden_size=1,
            n_heads=1,
            ffn_hidden=1,
            vocab_size=vocab,
        )
        self.passes = 0

    def new_cache(self, arena=None):
        return []

    def _logits(self, token_ids):
        logits = np.zeros((len(token_ids), self.vocab))
        logits[np.arange(len(token_ids)), (np.asarray(token_ids) + 1) % self.vocab] = 1.0
        return logits

    def forward(self, token_ids, caches=None, predictor=None):
        self.passes += 1
        n = len(token_ids)
        return (
            self._logits(token_ids),
            ForwardStats(keys_attended=n, keys_total=n, tokens_processed=n),
        )

    def prefill_batch(
        self, chunks, caches_list, predictor=None, total_lens=None, row_logits_for=()
    ):
        self.passes += 1
        rows = [self._logits([int(t) for t in chunk]) for chunk in chunks]
        stats = [
            ForwardStats(keys_attended=len(c), keys_total=len(c), tokens_processed=len(c))
            for c in chunks
        ]
        last = np.stack([r[-1] for r in rows])
        return last, stats, {b: rows[b] for b in row_logits_for}


def assert_matches_solo(model, requests, handles, predictor=None):
    """Each served request equals its solo :func:`generate` run.

    Compares the tokens and the request's ``keys_attended``/``keys_total``
    against the solo run's prefill statistics plus its summed decode
    statistics -- the serial oracle of the fused serving path.  Valid for
    runs without preemption or retries, whose re-prefills add traffic.
    """
    for request, handle in zip(requests, handles):
        solo = generate(
            model,
            request.prompt_tokens,
            max_new_tokens=request.max_new_tokens,
            predictor=predictor,
            eos_token=request.eos_token,
        )
        stats = [solo.prefill_stats, *solo.decode_stats]
        metrics = handle.metrics()
        assert handle.generated_tokens == solo.generated_tokens, request.request_id
        assert (metrics.keys_attended, metrics.keys_total) == (
            sum(s.keys_attended for s in stats),
            sum(s.keys_total for s in stats),
        ), request.request_id


def _step(session, step, prefill=False):
    if prefill:
        chunk = session.decoder.prefill_remaining
        emitted = GenerationSession.prefill_step_batch([session], [chunk], [], step)
    else:
        emitted = GenerationSession.prefill_step_batch([], [], [session], step)
    value = emitted.get(session.request.request_id)
    if value is None:
        return None
    (token,) = value  # a first token or a plain decode row: one token
    return token


def admit(session, step):
    """Admit a queued session and prefill its whole prompt in one chunk."""
    session.begin_admit(step)
    return _step(session, step, prefill=True)


def resume(session, step):
    """Re-prefill a preempted session's ``prompt + generated`` in one chunk."""
    session.begin_resume(step)
    return _step(session, step, prefill=True)


def decode(session, step):
    """One decode step of an active session."""
    return _step(session, step)
