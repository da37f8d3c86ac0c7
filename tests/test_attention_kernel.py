"""``causal_context``: shape-stable tiled attention for prompt and verify chunks.

The kernel cuts query rows into ``TILE_ROWS``-row tiles aligned to absolute
positions and contracts each tile over fixed-shape BLAS products, so a row's
float result depends only on its position.  These tests pin that contract:

* **kernel alone** -- rows of any chunking equal the same rows of the
  one-shot pass, in float, at widths past 320 (including widths >= 193 that
  are not multiples of 8, where a plain ``@`` rounds differently), with and
  without predictor holes in the mask and with a softmax width past the keys;
* **model layer** -- ``MultiHeadAttention.prefill_batch`` context rows equal
  the multi-row ``attend`` (``__call__`` before ``wo``) over the whole
  prompt, chunk by chunk, next to a decode stream;
* **reference** -- every result is close to a plain einsum attention, so a
  tiling bug that is merely self-consistent cannot hide;
* **junk** -- arena pages holding NaN and +-1e6 past each stream's length
  change no output.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bgpp import make_bgpp_predictor
from repro.model import MultiHeadAttention
from repro.model.attention import TILE_ROWS, causal_context, causal_mask
from repro.model.layers import softmax
from repro.serve import PagedKVArena

FUZZ = settings(max_examples=25, deadline=None, derandomize=True)

#: (hidden, n_heads): head widths 8 (scale 1/sqrt(8), not a power of two)
#: and 16
HEAD_SHAPES = [(32, 4), (32, 2), (48, 3)]


def _einsum_reference(q_rows, keys, values, n_heads, full_mask, width, scale):
    """Plain einsum attention over the same mask and softmax width."""
    n_rows, hidden = q_rows.shape
    n_keys = keys.shape[0]
    head_dim = hidden // n_heads

    def heads(x):
        return x.reshape(x.shape[0], n_heads, head_dim).transpose(1, 0, 2)

    scores = np.einsum("hqd,hkd->hqk", heads(q_rows), heads(keys)) * scale
    logits = np.full((n_heads, n_rows, width), -np.inf)
    logits[..., :n_keys] = np.where(full_mask, scores, -np.inf)
    probs = softmax(logits, axis=-1)[..., :n_keys]
    context = np.einsum("hqk,hkd->hqd", probs, heads(values))
    return context.transpose(1, 0, 2).reshape(n_rows, hidden)


def _chunks(n_rows, cuts):
    bounds = sorted({0, n_rows, *(c for c in cuts if 0 < c < n_rows)})
    return list(zip(bounds[:-1], bounds[1:]))


def _holes(rng, n_rows, n_keys):
    """Causal mask with random predictor holes; each row keeps its own key."""
    mask = causal_mask(n_rows, n_keys)
    holes = rng.random(mask.shape) < 0.3
    holes[np.arange(n_rows), np.arange(n_keys - n_rows, n_keys)] = False
    return mask & ~holes


class TestKernel:
    @FUZZ
    @given(
        n_keys=st.integers(1, 330),
        extra=st.sampled_from([0, 0, 1, 5, 40]),
        cuts=st.lists(st.integers(1, 329), max_size=6),
        holes=st.booleans(),
        shape=st.sampled_from(HEAD_SHAPES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_keys=201, extra=0, cuts=[1, 17, 100, 199], holes=False,
             shape=(32, 4), seed=0)
    @example(n_keys=327, extra=3, cuts=[5, 16, 32, 250, 326], holes=True,
             shape=(32, 2), seed=1)
    @example(n_keys=257, extra=0, cuts=[256], holes=False, shape=(48, 3), seed=2)
    def test_chunk_rows_equal_one_shot_rows(
        self, n_keys, extra, cuts, holes, shape, seed
    ):
        rng = np.random.default_rng(seed)
        hidden, n_heads = shape
        scale = 1.0 / np.sqrt(hidden // n_heads)
        width = n_keys + extra
        q, k, v = (rng.normal(size=(n_keys, hidden)) for _ in range(3))
        mask = _holes(rng, n_keys, n_keys) if holes else causal_mask(n_keys, n_keys)

        one_shot = causal_context(q, k, v, n_heads, mask, width, scale)
        np.testing.assert_allclose(
            one_shot,
            _einsum_reference(q, k, v, n_heads, mask, width, scale),
            rtol=1e-12, atol=1e-13,
        )
        for lo, hi in _chunks(n_keys, cuts):
            part = causal_context(
                q[lo:hi], k[:hi], v[:hi], n_heads, mask[lo:hi, :hi], width, scale
            )
            assert np.array_equal(part, one_shot[lo:hi]), (lo, hi)


def _junk_arena(hidden, poison):
    """An fp arena whose free pages hold ``poison`` rows, or a clean one."""
    arena = PagedKVArena(1, hidden, page_size=4)
    if poison:
        junk = arena.new_session_caches()[0]
        rows = np.tile([np.nan, 1e6, -1e6], (240, hidden // 3 + 1))[:, :hidden]
        junk.append(rows, rows[::-1])
        junk.release()  # its pages go back to the free list unzeroed
    return arena


def _chunked_prefill(attn, q, k, v, cuts, history, predictor, poison):
    """Feed one prompt chunk by chunk through ``prefill_batch``, each chunk
    batched with one row of a decode stream; returns the prompt's rows."""
    hidden = q.shape[1]
    arena = _junk_arena(hidden, poison)
    prompt, decode = (arena.new_session_caches()[0] for _ in range(2))
    decode.append(*history)
    rng = np.random.default_rng(len(cuts))  # same decode rows on every call
    rows = []
    for lo, hi in _chunks(q.shape[0], cuts):
        dq, dk, dv = (rng.normal(size=(1, hidden)) for _ in range(3))
        out = attn.prefill_batch(
            np.concatenate([q[lo:hi], dq]),
            np.concatenate([k[lo:hi], dk]),
            np.concatenate([v[lo:hi], dv]),
            [hi - lo, 1],
            [prompt, decode],
            total_lens=[q.shape[0], decode.seq_len + 1],
            predictor=predictor,
        )
        rows.append(out.output[: hi - lo])
    return rows


class TestPrefillBatch:
    @FUZZ
    @given(
        n_rows=st.integers(2, 330),
        cuts=st.lists(st.integers(1, 329), max_size=5),
        use_predictor=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_rows=209, cuts=[16, 100, 161], use_predictor=True, seed=0)
    @example(n_rows=322, cuts=[192, 300], use_predictor=False, seed=1)
    def test_chunk_context_equals_multi_row_call(
        self, n_rows, cuts, use_predictor, seed
    ):
        """Chunk rows equal ``__call__``'s rows before ``wo``, in float.

        A one-row final chunk is a plain decode row, which runs the grouped
        einsum instead and is only close to the one-shot row.
        """
        rng = np.random.default_rng(seed)
        hidden = 32
        attn = MultiHeadAttention(hidden, 4, seed=3)
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3) if use_predictor else None
        q, k, v = (rng.normal(size=(n_rows, hidden)) for _ in range(3))
        history = rng.normal(size=(2, int(rng.integers(1, 41)), hidden))

        one_shot = attn.attend(q, k, v, predictor=predictor).output
        chunks = _chunks(n_rows, cuts)
        rows = _chunked_prefill(attn, q, k, v, cuts, history, predictor, False)
        for (lo, hi), got in zip(chunks, rows):
            if hi - lo == 1 and hi == n_rows:
                np.testing.assert_allclose(got, one_shot[lo:hi], rtol=1e-12, atol=1e-13)
            else:
                assert np.array_equal(got, one_shot[lo:hi]), (lo, hi)
        if predictor is None:
            scale = 1.0 / np.sqrt(attn.head_dim)
            mask = causal_mask(n_rows, n_rows)
            np.testing.assert_allclose(
                one_shot,
                _einsum_reference(q, k, v, attn.n_heads, mask, n_rows, scale),
                rtol=1e-12, atol=1e-13,
            )

    @FUZZ
    @given(
        n_rows=st.integers(2, 200),
        cuts=st.lists(st.integers(1, 199), max_size=4),
        use_predictor=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_junk_past_each_length_changes_nothing(
        self, n_rows, cuts, use_predictor, seed
    ):
        rng = np.random.default_rng(seed)
        hidden = 33
        attn = MultiHeadAttention(hidden, 3, seed=4)
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3) if use_predictor else None
        q, k, v = (rng.normal(size=(n_rows, hidden)) for _ in range(3))
        history = rng.normal(size=(2, int(rng.integers(1, 30)), hidden))
        args = (attn, q, k, v, cuts, history, predictor)
        clean = _chunked_prefill(*args, poison=False)
        dirty = _chunked_prefill(*args, poison=True)
        for a, b in zip(clean, dirty):
            assert np.isfinite(b).all()
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n_rows", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1])
def test_attend_matches_reference_at_tile_edges(n_rows):
    """Multi-row ``attend`` runs the kernel, one row runs the decode einsum;
    both stay close to the plain einsum attention."""
    rng = np.random.default_rng(n_rows)
    attn = MultiHeadAttention(32, 4, seed=1)
    q, k, v = (rng.normal(size=(n_rows, 32)) for _ in range(3))
    got = attn.attend(q, k, v)
    mask = causal_mask(n_rows, n_rows)
    ref = _einsum_reference(q, k, v, 4, mask, n_rows, 1.0 / np.sqrt(8))
    np.testing.assert_allclose(got.output, ref, rtol=1e-12, atol=1e-13)
    assert got.keys_attended == got.keys_total == n_rows * (n_rows + 1) // 2
