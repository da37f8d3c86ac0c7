"""Test doubles shared by the serving and model-layer suites.

Also the one-session step helpers of the session-level tests: each runs
one :meth:`GenerationSession.prefill_step_batch` engine step for a single
session and returns the token it emitted (``None`` when none was).
"""

import numpy as np

from repro.model.transformer import ForwardStats
from repro.serve.session import GenerationSession


class SerialOnly:
    """``model`` without ``prefill_batch``: a forward-only model.

    The engine serves it through ``IncrementalDecoder.prefill_step_batch``'s
    per-stream fallback (one ``forward`` per stream, whole-prompt chunks)
    and builds it no arena, since it has no batched pass to read one.
    """

    def __init__(self, model):
        self.forward = model.forward
        self.new_cache = model.new_cache
        self.config = model.config


class StubModel:
    """Deterministic O(1) stand-in for a transformer: next token = last + 1.

    Exposes the ``forward``/``new_cache`` surface of the real models, but no
    ``prefill_batch`` and no ``config`` (so no arena), so scheduler-logic
    tests don't pay transformer cost.  ``forward`` returns logits whose
    argmax is ``(last_token + 1) % vocab`` and counts its calls.
    """

    def __init__(self, vocab: int = 16):
        self.vocab = vocab
        self.forward_calls = 0

    def new_cache(self):
        return []

    def forward(self, token_ids, caches=None, predictor=None):
        self.forward_calls += 1
        logits = np.zeros((len(token_ids), self.vocab))
        logits[-1, (int(token_ids[-1]) + 1) % self.vocab] = 1.0
        n = len(token_ids)
        return logits, ForwardStats(keys_attended=n, keys_total=n, tokens_processed=n)


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
