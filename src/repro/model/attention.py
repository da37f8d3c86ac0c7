"""Multi-head self-attention with KV cache and optional sparse prediction.

Attention is where MCBP's BGPP operates: before the "formal compute" stage, a
predictor selects the vital keys for each query and the full-precision
``QK^T`` / softmax / ``PV`` computation only touches those keys (paper §2.2,
Fig. 3).  The predictor is pluggable so that the same module can run dense
attention, value-level top-k and bit-grained progressive prediction.

Two kernels compute the score and context contractions when serving.  Every
multi-row pass -- a whole prompt, a prompt chunk, a speculative verify chunk
-- runs :func:`causal_context`, which contracts over fixed-shape BLAS tiles
aligned to absolute sequence positions, so a row's float result depends only
on its position and never on how its sequence was chunked or batched.  Plain
decode rows (one query over its whole context, batched or serial) share one
grouped einsum (:meth:`MultiHeadAttention._attend_decode_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.bgpp import StreamKeys
from .layers import Linear, softmax

__all__ = [
    "KVCache",
    "AttentionOutput",
    "BatchedAttentionOutput",
    "ChunkedAttentionOutput",
    "MultiHeadAttention",
    "TILE_ROWS",
    "causal_context",
    "causal_mask",
    "ragged_selection_mask",
]

# A predictor maps (query_row, keys) -> selected key indices.  Predictors may
# additionally expose a ``select_ragged(queries, keys, lengths)`` attribute
# (see repro.core.bgpp.make_bgpp_predictor) that runs a whole ragged query
# batch in one pass: row i ranks the first lengths[i] keys of (L, d) prefix
# keys, or of its own stream in a StreamKeys record (every row of one layer's
# serving step in one call, over the arena's write-once plane cache).
# ragged_selection_mask() serves both and falls back to per-row calls.
KeyPredictor = Callable[[np.ndarray, np.ndarray], np.ndarray]


def causal_mask(n_queries: int, n_keys: int) -> np.ndarray:
    """Boolean mask that is True where a query may attend (causal, right-aligned)."""
    offset = n_keys - n_queries
    q_idx = np.arange(n_queries)[:, None]
    k_idx = np.arange(n_keys)[None, :]
    return k_idx <= (q_idx + offset)


#: Query rows per :func:`causal_context` tile.  Each tile pays a full
#: ``TILE_ROWS``-row product however few of its rows a chunk owns, so this
#: trades the padding that two- to five-row verify chunks pay against the
#: number of BLAS calls a long prompt makes (32 cost spec_code about 12%
#: tokens/s; 8 measured close to 16).
TILE_ROWS = 16


def _padded_heads(x: np.ndarray, n_heads: int, length: int) -> np.ndarray:
    """Fresh zero ``(n_heads, length, head_dim)`` buffer holding ``x``'s rows first."""
    n, hidden = x.shape
    heads = np.zeros((n_heads, length, hidden // n_heads))
    heads[:, :n] = x.reshape(n, n_heads, -1).transpose(1, 0, 2)
    return heads


def causal_context(
    q_rows: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    n_heads: int,
    full_mask: np.ndarray,
    width: int,
    scale: float,
) -> np.ndarray:
    """Merged-head attention context of consecutive query rows, shape-stable.

    ``keys``/``values`` are the first ``n_keys`` rows of one sequence and
    ``q_rows`` its last ``n`` positions ``n_keys - n .. n_keys - 1``;
    ``full_mask`` ``(n, n_keys)`` is True where a row attends (causal, minus
    any predictor holes; every row attends at least one key) and
    ``width >= n_keys`` is the key width each row's softmax reduces over:
    one contiguous row, exactly zero probability wherever it does not attend.

    Rows are cut into :data:`TILE_ROWS`-row tiles aligned to absolute
    position: row ``p`` sits in tile ``t = p // TILE_ROWS`` at slot
    ``p % TILE_ROWS``.  Per head, tile ``t`` makes one ``(TILE_ROWS,
    head_dim) @ (head_dim, E)`` score product and one ``(TILE_ROWS, E) @
    (E, head_dim)`` context product, ``E = (t + 1) * TILE_ROWS`` (keys past
    the tile's end are never multiplied).  Both run on freshly built
    operands, zero wherever the call owns no row or key: every BLAS call an
    output element takes part in has the same shape, leading dimensions,
    slot and operand values whatever the chunking, batch or caller, so the
    element's rounding is fixed by its absolute position and chunk rows are
    bit-identical to the same rows of a one-shot pass over the sequence.  A
    zero-padded key only ever meets a masked score or an exactly-zero
    probability.

    The scale multiplies the queries (exact for the power-of-two scale of a
    head width that is a power of four).  Each softmax skips the ``exp`` of
    keys past the tile's end or the last key, whose probability is exactly
    zero, but still sums the full ``width``-long row, so its reduction order
    does not depend on the tile or the chunk either.
    """
    n_rows, hidden = q_rows.shape
    n_keys = keys.shape[0]
    head_dim = hidden // n_heads
    start = n_keys - n_rows
    last = -(-n_keys // TILE_ROWS) * TILE_ROWS  # end of the last tile
    kh = _padded_heads(keys, n_heads, last)
    vh = _padded_heads(values, n_heads, last)
    qh = (q_rows * scale).reshape(n_rows, n_heads, head_dim).transpose(1, 0, 2)
    bias = np.where(full_mask, 0.0, -np.inf)
    context = np.empty((n_rows, hidden))
    for end in range(start // TILE_ROWS * TILE_ROWS + TILE_ROWS, last + 1, TILE_ROWS):
        lo, hi = max(start, end - TILE_ROWS), min(n_keys, end)
        rows = slice(lo - start, hi - start)  # the caller's rows in this tile
        slots = slice(lo - end + TILE_ROWS, hi - end + TILE_ROWS)
        n_read = min(end, n_keys)
        q_tile = np.zeros((n_heads, TILE_ROWS, head_dim))
        q_tile[:, slots] = qh[:, rows]
        scores = q_tile @ kh[:, :end].transpose(0, 2, 1)
        # softmax over the full width: exp(-inf) is exactly 0 past n_read
        e = np.empty((n_heads, hi - lo, width))
        e[..., n_read:] = 0.0
        x = e[..., :n_read]
        np.add(scores[:, slots, :n_read], bias[rows, :n_read], out=x)
        x -= x.max(axis=-1, keepdims=True)
        np.exp(x, out=x)
        p_tile = np.zeros((n_heads, TILE_ROWS, end))
        np.divide(x, e.sum(axis=-1, keepdims=True), out=p_tile[:, slots, :n_read])
        tile_context = (p_tile @ vh[:, :end])[:, slots]
        context[rows] = tile_context.transpose(1, 0, 2).reshape(-1, hidden)
    return context


def ragged_selection_mask(
    predictor: KeyPredictor,
    q_rows: np.ndarray,
    keys,
    lengths: np.ndarray,
) -> np.ndarray:
    """Boolean ``(n_queries, L)`` predictor selection over causal key prefixes.

    ``keys`` is a :class:`~repro.core.bgpp.StreamKeys` record, whose query
    row ``i`` ranks the first ``lengths[i]`` keys of its own stream (every
    row of one layer's serving step), or ``(L, d)`` keys whose row ``i``
    ranks the prefix ``keys[:lengths[i]]`` (one prompt or verify chunk).
    Picks at or past ``lengths[i]`` are dropped, and a row with a key but no
    pick keeps its most recent one.  A predictor with ``select_ragged`` runs
    every row in one pass; any other runs once per row, with the same result.
    The mask is built from the picks in one scatter.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if not isinstance(keys, StreamKeys):
        keys = StreamKeys.prefix(keys, lengths.size)
    select_ragged = getattr(predictor, "select_ragged", None)
    if select_ragged is not None:
        picks = select_ragged(q_rows, keys, lengths)
    else:
        picks = [predictor(q, k) for q, k in zip(q_rows, keys.row_keys(lengths))]
    cols = np.concatenate([np.zeros(0, dtype=np.int64), *picks]).astype(np.int64)
    rows = np.repeat(np.arange(lengths.size), [len(p) for p in picks])
    valid = cols < lengths[rows]
    selection = np.zeros((lengths.size, keys.view.shape[1]), dtype=bool)
    selection[rows[valid], cols[valid]] = True
    bare = np.flatnonzero((lengths > 0) & ~selection.any(axis=1))
    selection[bare, lengths[bare] - 1] = True
    return selection


class KVCache:
    """Per-layer key/value cache for autoregressive decoding.

    Two storage modes share one interface:

    * **standalone** (the default): rows live in this cache's own
      capacity-doubling buffers, so each decode step appends in amortised
      O(1) instead of re-copying the whole history (the seed implementation
      vstacked O(seq) per token).  :attr:`keys` / :attr:`values` expose the
      live ``(seq, hidden)`` prefix as views; they stay valid until the next
      append.
    * **arena-backed**: constructed with ``arena``/``session_id``/``layer``
      (see :class:`repro.serve.kv_arena.PagedKVArena`), the cache is a thin
      handle -- appends write into the shared page pool and :attr:`keys` /
      :attr:`values` materialise contiguous copies on demand.  The batched
      attention path (:meth:`MultiHeadAttention.prefill_batch`) takes only
      such caches and reads the pool through
      :meth:`~repro.serve.kv_arena.PagedKVArena.gather_batch` instead,
      skipping the per-session materialisation entirely.  An
      arena in ``KVDtype.INT8`` mode is transparent here: appends are
      quantised and every read path (``keys``/``values``,
      ``gather_batch``) dequantises back to float through the arena's
      per-page scales, so attention always computes over float rows.
    """

    def __init__(
        self,
        keys: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        *,
        arena=None,
        session_id: Optional[int] = None,
        layer: Optional[int] = None,
    ) -> None:
        self._arena = arena
        self._session_id = session_id
        self._layer = layer
        if arena is not None and (session_id is None or layer is None):
            raise ValueError("arena-backed caches need session_id and layer")
        self._keys: Optional[np.ndarray] = None  # (capacity, hidden)
        self._values: Optional[np.ndarray] = None
        self._len = 0
        if (keys is None) != (values is None):
            raise ValueError("keys and values must be provided together")
        if keys is not None:
            self.append(keys, values)

    # -- arena plumbing (None / unset on standalone caches) --------------------

    @property
    def arena(self):
        """The backing :class:`PagedKVArena`, or ``None`` when standalone."""
        return self._arena

    @property
    def arena_session(self) -> Optional[int]:
        return self._session_id

    @property
    def arena_layer(self) -> Optional[int]:
        return self._layer

    def release(self) -> None:
        """Free the backing storage (the whole arena session, or the buffers)."""
        if self._arena is not None:
            if self._arena.has_session(self._session_id):
                self._arena.free(self._session_id)
        else:
            self.clear()

    # -- storage ---------------------------------------------------------------

    @property
    def keys(self) -> Optional[np.ndarray]:
        if self._arena is not None:
            if self.seq_len == 0:  # covers released sessions too
                return None
            return self._arena.session_keys(self._session_id, self._layer)
        return None if self._len == 0 else self._keys[: self._len]

    @property
    def values(self) -> Optional[np.ndarray]:
        if self._arena is not None:
            if self.seq_len == 0:  # covers released sessions too
                return None
            return self._arena.session_values(self._session_id, self._layer)
        return None if self._len == 0 else self._values[: self._len]

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self._arena is not None:
            if not self._arena.has_session(self._session_id):
                raise RuntimeError(
                    f"KV cache was released (arena session {self._session_id} freed)"
                )
            self._arena.append(self._session_id, self._layer, keys, values)
            return
        keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        n_new = keys.shape[0]
        needed = self._len + n_new
        if self._keys is None or needed > self._keys.shape[0]:
            capacity = max(needed, 2 * (0 if self._keys is None else self._keys.shape[0]), 16)
            grown_k = np.empty((capacity, keys.shape[1]), dtype=np.float64)
            grown_v = np.empty((capacity, values.shape[1]), dtype=np.float64)
            if self._len:
                grown_k[: self._len] = self._keys[: self._len]
                grown_v[: self._len] = self._values[: self._len]
            self._keys, self._values = grown_k, grown_v
        self._keys[self._len : needed] = keys
        self._values[self._len : needed] = values
        self._len = needed

    @property
    def seq_len(self) -> int:
        if self._arena is not None:
            if not self._arena.has_session(self._session_id):
                return 0  # released: behave like a cleared standalone cache
            return self._arena.seq_len(self._session_id, self._layer)
        return self._len

    def clear(self) -> None:
        if self._arena is not None:
            if self._arena.has_session(self._session_id):
                self._arena.clear_layer(self._session_id, self._layer)
            return
        self._keys = None
        self._values = None
        self._len = 0


@dataclass
class AttentionOutput:
    """Attention result plus sparsity statistics for the cost models.

    ``row_keys_attended`` / ``row_keys_total`` break the scalar counts down
    per query row (``(n_queries,)`` int64); the serving layer's prefix cache
    records them per prompt row so a later cache-hit session can credit the
    skipped rows' statistics bit-exactly.
    """

    output: np.ndarray
    keys_attended: int
    keys_total: int
    selected_fraction: float
    row_keys_attended: Optional[np.ndarray] = None
    row_keys_total: Optional[np.ndarray] = None


@dataclass
class BatchedAttentionOutput:
    """Per-stream result of one batched attention pass over ``B`` streams.

    ``output`` is the merged-head context *before* the output projection;
    ``keys_attended`` / ``keys_total`` carry one entry per stream so callers
    can split the batched step back into per-request statistics.
    """

    output: np.ndarray
    keys_attended: np.ndarray  # (B,) ints
    keys_total: np.ndarray  # (B,) ints


@dataclass
class ChunkedAttentionOutput(BatchedAttentionOutput):
    """Result of one ragged chunked-prefill step over ``B`` streams.

    Same per-stream fields as :class:`BatchedAttentionOutput`, but
    ``output`` is the merged-head context for *every chunk row*, flattened
    back to ``(total_rows, hidden)`` in the same stream order the queries
    came in (stream 0's rows first), rather than one row per stream.
    ``row_keys_attended`` / ``row_keys_total`` carry the same counts per
    chunk row, flat ``(total_rows,)`` int64 in ``output``'s row order, for
    the prefix cache's bit-exact metric crediting.
    """

    row_keys_attended: Optional[np.ndarray] = None
    row_keys_total: Optional[np.ndarray] = None


class MultiHeadAttention:
    """Standard multi-head self-attention with an optional key predictor.

    Parameters
    ----------
    hidden_size, n_heads:
        Model dimensions; ``head_dim = hidden_size // n_heads``.
    wq, wk, wv, wo:
        Projection layers; random Gaussian projections are created when not
        supplied (used by the synthetic models).
    """

    def __init__(
        self,
        hidden_size: int,
        n_heads: int,
        wq: Optional[Linear] = None,
        wk: Optional[Linear] = None,
        wv: Optional[Linear] = None,
        wo: Optional[Linear] = None,
        seed: Optional[int] = None,
    ) -> None:
        if hidden_size % n_heads != 0:
            raise ValueError("hidden_size must be divisible by n_heads")
        self.hidden_size = hidden_size
        self.n_heads = n_heads
        self.head_dim = hidden_size // n_heads
        base_seed = 0 if seed is None else seed
        self.wq = wq or Linear.random(hidden_size, hidden_size, seed=base_seed + 1)
        self.wk = wk or Linear.random(hidden_size, hidden_size, seed=base_seed + 2)
        self.wv = wv or Linear.random(hidden_size, hidden_size, seed=base_seed + 3)
        self.wo = wo or Linear.random(hidden_size, hidden_size, seed=base_seed + 4)

    # -- helpers -------------------------------------------------------------

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        seq = x.shape[0]
        return x.reshape(seq, self.n_heads, self.head_dim).transpose(1, 0, 2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n_heads, seq, head_dim = x.shape
        return x.transpose(1, 0, 2).reshape(seq, n_heads * head_dim)

    def merged_context(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Dense causal attention on pre-projected Q/K/V, before the output projection.

        Used by the quantisation calibration path, which needs the exact tensor
        that feeds the ``wo`` projection.  It keeps an einsum contraction
        rather than :func:`causal_context`: the two differ in the last bit,
        and an activation scale fitted to an extreme value carries that bit
        into the calibrated ``tiny`` and ``small`` models.
        """
        qh = self._split_heads(np.atleast_2d(np.asarray(q, dtype=np.float64)))
        kh = self._split_heads(np.atleast_2d(np.asarray(k, dtype=np.float64)))
        vh = self._split_heads(np.atleast_2d(np.asarray(v, dtype=np.float64)))
        mask = causal_mask(qh.shape[1], kh.shape[1])
        scale = 1.0 / np.sqrt(self.head_dim)
        logits = np.einsum("hqd,hkd->hqk", qh, kh) * scale
        logits = np.where(mask[None, :, :], logits, -np.inf)
        probs = softmax(logits, axis=-1)
        context = np.einsum("hqk,hkd->hqd", probs, vh)
        return self._merge_heads(context)

    # -- forward -------------------------------------------------------------

    def __call__(
        self,
        hidden_states: np.ndarray,
        cache: Optional[KVCache] = None,
        predictor: Optional[KeyPredictor] = None,
    ) -> AttentionOutput:
        """Compute attention for ``hidden_states`` of shape ``(seq, hidden)``.

        When ``cache`` is given, the new keys/values are appended to it and
        queries attend to the full cached sequence (decode mode for a single
        new token, prefill mode for a full prompt).  ``predictor`` restricts
        each query row to the key indices it returns; unselected keys receive
        ``-inf`` logits before the softmax, mirroring top-k sparse attention.
        """
        hidden_states = np.atleast_2d(np.asarray(hidden_states, dtype=np.float64))
        attn = self.attend(
            self.wq(hidden_states),
            self.wk(hidden_states),
            self.wv(hidden_states),
            cache=cache,
            predictor=predictor,
        )
        attn.output = self.wo(attn.output)
        return attn

    def attend(
        self,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        cache: Optional[KVCache] = None,
        predictor: Optional[KeyPredictor] = None,
        counters=None,
    ) -> AttentionOutput:
        """Causal attention on pre-projected ``(seq, hidden)`` Q/K/V rows.

        The body of :meth:`__call__` without the projections: ``output`` is
        the merged-head context *before* ``wo``.  ``k_new``/``v_new`` are
        appended to ``cache`` first when one is given.  A single query row
        runs the decode rows' grouped einsum (:meth:`_attend_decode_rows`),
        so a serial one-token step matches a batched decode row in float;
        more rows run :func:`causal_context`.  ``counters`` (e.g. a bound
        engine's ``EngineStats``) is charged the BGPP pass's KV traffic.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        k_all = np.atleast_2d(np.asarray(k_new, dtype=np.float64))
        v_all = np.atleast_2d(np.asarray(v_new, dtype=np.float64))
        if cache is not None:
            cache.append(k_all, v_all)
            k_all, v_all = cache.keys, cache.values

        n_queries, n_keys = q.shape[0], k_all.shape[0]
        mask = causal_mask(n_queries, n_keys)
        full_mask = mask
        if predictor is not None:
            # Predictors operate on the full (head-concatenated) Q/K rows,
            # the same granularity the BGPP unit sees (Q x K^T per row).
            full_mask = mask & ragged_selection_mask(
                predictor,
                q,
                StreamKeys.prefix(k_all, n_queries, counters),
                mask.sum(axis=1),
            )
        if n_queries == 1:
            merged, row_attended = self._attend_decode_rows(
                q, k_all[None], v_all[None], np.array([n_keys]), full_mask
            )
        else:
            merged = causal_context(
                q, k_all, v_all, self.n_heads, full_mask, n_keys,
                1.0 / np.sqrt(self.head_dim),
            )
            row_attended = full_mask.sum(axis=1).astype(np.int64)

        row_total = mask.sum(axis=1).astype(np.int64)
        keys_attended = int(row_attended.sum())
        keys_total = int(row_total.sum())
        return AttentionOutput(
            output=merged,
            keys_attended=keys_attended,
            keys_total=keys_total,
            selected_fraction=keys_attended / keys_total if keys_total else 1.0,
            row_keys_attended=row_attended,
            row_keys_total=row_total,
        )

    # -- batched attention ---------------------------------------------------

    def decode_batch(
        self,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        caches: List[KVCache],
        predictor: Optional[KeyPredictor] = None,
    ) -> BatchedAttentionOutput:
        """One decode row per stream: :meth:`prefill_batch` with 1-row chunks."""
        return self.prefill_batch(
            q, k_new, v_new, np.ones(len(caches), dtype=np.int64), caches,
            predictor=predictor,
        )

    def _attend_decode_rows(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        lengths: np.ndarray,
        selection: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One batched contraction for ``B1`` plain decode rows.

        ``q`` is ``(B1, hidden)``; ``keys``/``values`` are ``(B1, L, hidden)``
        padded past each stream's ``lengths[b]``.  ``selection``, when given,
        is the ``(B1, L)`` predictor mask (see :func:`ragged_selection_mask`);
        only selected keys below each stream's length are attended.  Scores
        and context are one einsum each, and each softmax reduces over
        exactly ``lengths[b]`` keys (padding gets exactly-zero probability),
        so every row is bit-identical to stepping its stream alone.  Returns
        the merged-head context ``(B1, hidden)`` and per-row attended key
        counts.

        Decode rows stay on einsum rather than :func:`causal_context`: a
        one-query row there would pay a whole ``TILE_ROWS``-row product,
        multiplying decode attention FLOPs by ``TILE_ROWS``, while einsum's
        rounding is already independent of how many rows or keys share the
        call.  The serial one-token step runs this method too
        (:meth:`attend`), so a batched decode row equals it in float.
        """
        n_streams, max_len = keys.shape[:2]
        full_mask = np.arange(max_len)[None, :] < lengths[:, None]
        if selection is not None:
            full_mask &= selection

        qh = q.reshape(n_streams, self.n_heads, self.head_dim)
        kh = keys.reshape(n_streams, max_len, self.n_heads, self.head_dim)
        kh = kh.transpose(0, 2, 1, 3)
        vh = values.reshape(n_streams, max_len, self.n_heads, self.head_dim)
        vh = vh.transpose(0, 2, 1, 3)
        scale = 1.0 / np.sqrt(self.head_dim)
        logits = np.einsum("bhd,bhkd->bhk", qh, kh) * scale
        logits = np.where(full_mask[:, None, :], logits, -np.inf)
        if int(lengths.min()) == max_len:
            probs = softmax(logits, axis=-1)
        else:
            probs = np.zeros_like(logits)
            for b in range(n_streams):
                probs[b, :, : lengths[b]] = softmax(
                    logits[b, :, : lengths[b]], axis=-1
                )
        context = np.einsum("bhk,bhkd->bhd", probs, vh)
        return (
            context.reshape(n_streams, self.hidden_size),
            full_mask.sum(axis=1).astype(np.int64),
        )

    # -- chunked ragged batched prefill ---------------------------------------

    def prefill_batch(
        self,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        row_counts: np.ndarray,
        caches: List[KVCache],
        total_lens: Optional[np.ndarray] = None,
        predictor: Optional[KeyPredictor] = None,
        counters=None,
    ) -> ChunkedAttentionOutput:
        """Causal prefill attention for ``B`` ragged prompt chunks at once.

        ``q``/``k_new``/``v_new`` hold every stream's chunk rows stacked flat
        to ``(total_rows, hidden)`` (stream ``b`` owns ``row_counts[b]``
        consecutive rows); ``caches[b]`` is stream ``b``'s KV cache, which may
        already hold that stream's earlier chunks; every cache must be a
        handle onto one shared :class:`~repro.serve.kv_arena.PagedKVArena`
        at this layer (``ValueError`` otherwise).  The new K/V rows are
        appended first, in one multi-row ``append_batch`` call, and each
        chunk row attends causally to its stream's full prefix (cached
        history plus the chunk rows at or before it), read through
        ``gather_batch``.

        ``total_lens[b]`` is the *final* prefill length of stream ``b`` (the
        key width of the one-shot serial forward this chunk sequence
        reproduces; a plain decode row passes its post-append length).  Each
        query row's softmax runs over exactly that width -- real logits on
        the causal prefix, ``-inf`` (hence exactly-zero probability)
        everywhere else -- which is the same array the serial pass reduces,
        so every chunk row is **bit-identical** to the corresponding row of
        ``__call__`` over the whole prompt, no matter how the prompt was
        chunked or which streams shared the batch.  A one-row final chunk is
        a plain decode row (below); like a verify row against a one-row
        decode step, it matches the serial row only through the int8
        quantiser ahead of ``wo``, i.e. at the logits.

        Plain decode rows (one row whose width is its whole context) run as
        one ``(B1, heads, L)`` score/softmax/context pass over the gathered
        view (:meth:`_attend_decode_rows`).  Every other stream -- prompt
        chunks and speculative verify chunks -- runs :func:`causal_context`
        over its own keys: fixed-shape BLAS tiles aligned to absolute
        positions, so each row's float result is the one the serial pass's
        tiles give that position, and a stream pays only for its own causal
        prefix rather than the batch's longest (mixed batches are extremely
        ragged: one-row decode streams next to whole-prompt admission
        chunks).  The projection and FFN GEMMs still run once for the whole
        stacked batch.

        A predictor selects keys for every row of every stream in **one**
        call per layer: each row ranks its own causal prefix, read from the
        session's write-once BGPP planes, which the arena keeps per session
        and layer (:meth:`~repro.serve.kv_arena.PagedKVArena.predictor_slots`)
        and drops whenever the session's rows shrink.  ``counters`` (e.g. a
        bound engine's ``EngineStats``) is charged that pass's KV traffic.

        Returns the merged-head context rows (flattened back to
        ``(total_rows, hidden)``, before the output projection) plus
        per-stream attended/total key counts covering only this chunk's rows,
        so partial statistics accumulate to the serial pass's totals.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        k_new = np.atleast_2d(np.asarray(k_new, dtype=np.float64))
        v_new = np.atleast_2d(np.asarray(v_new, dtype=np.float64))
        row_counts = np.asarray(row_counts, dtype=np.int64)
        n_streams = int(row_counts.size)
        if n_streams == 0:
            raise ValueError("prefill_batch needs at least one stream")
        if (row_counts < 1).any():
            raise ValueError("every stream must contribute at least one row")
        offsets = np.concatenate([[0], np.cumsum(row_counts)])
        if int(offsets[-1]) != q.shape[0]:
            raise ValueError(
                f"row_counts sum to {int(offsets[-1])} but got {q.shape[0]} rows"
            )
        if len(caches) != n_streams:
            raise ValueError(f"expected {n_streams} caches, got {len(caches)}")

        arena = caches[0].arena
        layer = caches[0].arena_layer
        if arena is None or not all(
            c.arena is arena and c.arena_layer == layer for c in caches
        ):
            raise ValueError(
                "prefill_batch reads KV through one shared PagedKVArena: "
                "every cache must be a handle onto it at this layer"
            )
        sessions = [c.arena_session for c in caches]
        k_blocks = [k_new[offsets[b] : offsets[b + 1]] for b in range(n_streams)]
        v_blocks = [v_new[offsets[b] : offsets[b + 1]] for b in range(n_streams)]
        arena.append_batch(layer, sessions, k_blocks, v_blocks)

        lengths = np.array([cache.seq_len for cache in caches], dtype=np.int64)
        if total_lens is None:
            total_lens = lengths
        else:
            total_lens = np.asarray(total_lens, dtype=np.int64)
            if total_lens.shape != lengths.shape:
                raise ValueError("total_lens must carry one entry per stream")
            if (total_lens < lengths).any():
                raise ValueError("total_lens must be >= each stream's length")
        keys, values, _ = arena.gather_batch(layer, sessions)
        # row i of stream b (absolute position start + i) may attend keys
        # 0..start+i: its causal prefix length
        first = np.repeat(lengths - row_counts - offsets[:-1] + 1, row_counts)
        row_lens = first + np.arange(int(offsets[-1]))
        selection = None
        if predictor is not None:
            # one selection for every row of the layer, each row over its own
            # stream's prefix, fed the same key values the serial pass would
            # (cache rows are exact copies)
            selection = ragged_selection_mask(
                predictor,
                q,
                StreamKeys(
                    keys,
                    row_counts.tolist(),
                    sessions,
                    arena.predictor_slots(layer),
                    counters,
                ),
                row_lens,
            )

        scale = 1.0 / np.sqrt(self.head_dim)
        flat = np.empty((int(offsets[-1]), self.hidden_size))
        row_attended = np.empty(int(offsets[-1]), dtype=np.int64)
        # plain decode rows -- one query whose softmax width is its whole
        # context -- share one batched contraction.  They are the contiguous
        # tail of an engine step's batch, so their key/value block is a basic
        # slice of the gathered view (no copy); a scattered set (speculative
        # steps) is gathered rather than left to the per-stream loop, whose
        # contiguous logits round the softmax sum differently: grouped rows
        # match the serial forward's float output exactly
        plain = (row_counts == 1) & (total_lens == lengths)
        decode = np.flatnonzero(plain)
        if decode.size:
            lo, hi = int(decode[0]), int(decode[-1]) + 1
            pick = slice(lo, hi) if hi - lo == decode.size else decode
            width = int(lengths[decode].max())
            rows = offsets[decode]
            flat[rows], row_attended[rows] = self._attend_decode_rows(
                q[rows],
                keys[pick, :width],
                values[pick, :width],
                lengths[decode],
                None if selection is None else selection[rows, :width],
            )
        for b in np.flatnonzero(~plain):
            n_rows, n_keys, w = int(row_counts[b]), int(lengths[b]), int(total_lens[b])
            rows = slice(offsets[b], offsets[b + 1])
            # causal chunk mask: causal_mask right-aligns the chunk's rows
            full_mask = causal_mask(n_rows, n_keys)
            if selection is not None:
                full_mask &= selection[rows, :n_keys]
            # each row's softmax reduces over exactly the serial pass's key
            # width (total_lens[b]); keys past the materialised prefix are
            # -inf like any other masked position, probability exactly 0
            flat[rows] = causal_context(
                q[rows], keys[b, :n_keys], values[b, :n_keys], self.n_heads,
                full_mask, w, scale,
            )
            row_attended[rows] = full_mask.sum(axis=1)
        return ChunkedAttentionOutput(
            output=flat,
            keys_attended=np.add.reduceat(row_attended, offsets[:-1]),
            keys_total=np.add.reduceat(row_lens, offsets[:-1]),
            row_keys_attended=row_attended,
            row_keys_total=row_lens,
        )
