"""Bit-Grained Progressive Prediction (BGPP, paper §3.3, Fig. 9 and Fig. 16).

BGPP replaces the value-level top-k attention predictor with a progressive,
bit-serial filter.  Key bit planes are streamed MSB-first; after every round
the partial attention estimates are compared against a radius-based threshold
(Eq. 1 in the paper)

``theta_r = max(A_hat_r) - alpha_r * radius``

and only the surviving keys fetch their next bit plane from memory.  This
terminates both the computation and the KV-cache traffic of obviously trivial
keys early.

The software model does not slice the keys into planes.  With sign-magnitude
keys, the first ``r + 1`` magnitude planes sum to the key truncated to its
top ``r + 1`` magnitude bits, so the running partial sum after round ``r`` is

``psum_r = q_reduced @ (sign(k) * ((|k| >> s) << s)),  s = key_bits - 2 - r``.

All rounds' partial sums for every key and query row therefore come from one
float64 BLAS product over the stacked truncated keys.  The product is exact:
the operands are integers, and for int8 keys and queries
``|psum| <= 127 * 127 * d < 2**53``.  The filter then runs Eq. 1, the
clock-gated clip and the ``min_keys`` guard as masked array ops, round by
round.  A key pruned after round ``r`` keeps ``psum_r`` as its estimate,
just as the bit-serial unit stops accumulating it.

The accounting still follows the hardware of Fig. 9/16, not the software:
``kv_bits_loaded`` charges the sign plane of every key plus one plane per
key per round that key was alive in, and ``mac_ops`` charges ``d`` MACs per
such plane.  Computing a pruned key's later partial sums anyway costs the
model nothing the bit-serial unit would fetch, so it is not charged.

The module provides:

* :func:`bgpp_select` -- the progressive filter for one query row, returning
  the selected key indices together with exact accounting of the KV bits
  loaded and the multiply-accumulate work performed;
* :func:`value_topk_select` -- the conventional value-level top-k predictor
  used as a baseline (paper §2.2, Fig. 3);
* :func:`exact_topk` / :func:`selection_recall` -- oracles for measuring how
  faithful either predictor is to exact attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BGPPConfig",
    "BGPPResult",
    "TopKResult",
    "bgpp_select",
    "bgpp_select_batch",
    "value_topk_select",
    "exact_topk",
    "selection_recall",
    "attention_sparsity",
]


@dataclass
class BGPPConfig:
    """Parameters of the progressive filter.

    Attributes
    ----------
    rounds:
        Number of filtering rounds, i.e. how many key bit planes (MSB first)
        are examined.  The paper uses a small fixed number (typically 4).
    radius:
        The softmax "radius": keys whose estimated score falls more than
        ``alpha * radius`` below the running maximum are filtered (default 3,
        paper §3.3).
    alpha:
        Per-round pruning aggressiveness, either a scalar applied to every
        round or one value per round; the paper sweeps 0.3-0.8 and settles on
        0.5-0.6.
    key_bits:
        Bit width of the stored keys (including sign).
    query_bits:
        Bit width used for the query during prediction (paper: 4-bit MSBs).
    score_scale:
        Dequantisation scale applied to integer partial sums before they are
        compared against ``radius`` (the product of the Q and K quantisation
        scales and the :math:`1/\\sqrt{d}` attention scaling).
    min_keys:
        Never prune below this many surviving keys (guards degenerate cases).
    """

    rounds: int = 4
    radius: float = 3.0
    alpha: float | Sequence[float] = 0.55
    key_bits: int = 8
    query_bits: int = 4
    score_scale: float = 1.0
    min_keys: int = 1

    def alpha_for_round(self, round_index: int) -> float:
        if isinstance(self.alpha, (int, float)):
            return float(self.alpha)
        seq = list(self.alpha)
        if not seq:
            raise ValueError("alpha sequence must not be empty")
        return float(seq[min(round_index, len(seq) - 1)])

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.key_bits < 2:
            raise ValueError("key_bits must be >= 2")
        if self.min_keys < 1:
            raise ValueError("min_keys must be >= 1")


@dataclass
class BGPPResult:
    """Outcome of one progressive prediction pass."""

    selected: np.ndarray
    estimated_scores: np.ndarray
    survivors_per_round: List[int]
    kv_bits_loaded: int
    mac_ops: int
    rounds_executed: int
    early_terminated: bool

    @property
    def selected_fraction(self) -> float:
        n = self.estimated_scores.shape[0]
        return float(self.selected.size) / n if n else 0.0


@dataclass
class TopKResult:
    """Outcome of the value-level top-k baseline predictor."""

    selected: np.ndarray
    estimated_scores: np.ndarray
    kv_bits_loaded: int
    mac_ops: int


def _reduced_precision_query(query: np.ndarray, query_bits: int, full_bits: int = 8) -> np.ndarray:
    """Keep only the ``query_bits`` most significant bits of the query values."""
    if query_bits >= full_bits:
        return query.astype(np.int64)
    shift = full_bits - query_bits
    return (query.astype(np.int64) >> shift) << shift


def _empty_result() -> BGPPResult:
    """Degenerate result for an empty key prefix."""
    return BGPPResult(
        selected=np.zeros(0, dtype=np.int64),
        estimated_scores=np.zeros(0, dtype=np.float64),
        survivors_per_round=[],
        kv_bits_loaded=0,
        mac_ops=0,
        rounds_executed=0,
        early_terminated=False,
    )


def _progressive_filter(
    queries: np.ndarray,
    keys: np.ndarray,
    config: BGPPConfig,
    alive: np.ndarray,
    scales: np.ndarray,
):
    """Eq. 1 filter for a ``(B, d)`` query batch over ``(L, d)`` keys.

    Row ``b`` filters the keys where the ``(B, L)`` mask ``alive`` is set,
    with score scale ``scales[b]``; ``queries`` and ``keys`` hold integer
    values of any dtype and ``L > 0``.  The partial sums of every round come
    from one BLAS product against the stacked truncated keys (see the module
    docstring); the threshold, the clock-gated clip and the ``min_keys``
    guard are masked ops over ``(B, L)``.

    Returns ``(alive, scores, history, active)``: the final keep mask, the
    ``(B, rounds, L)`` scaled partial sums, the ``(alive, limit)`` state
    at the start of every executed round (a row with ``limit == 0`` sat the
    round out), and which rows were still filtering after the last one (the
    others terminated early or had no keys).
    """
    keys = np.asarray(keys, dtype=np.float64)
    largest = 2 ** (config.key_bits - 1) - 1
    if keys.size and np.abs(keys).max() > largest:
        raise ValueError(
            f"keys outside representable range [{-largest}, {largest}] for "
            f"{config.key_bits}-bit sign_magnitude"
        )
    n_keys, d = keys.shape
    rounds = min(config.rounds, config.key_bits - 1)
    steps = 2.0 ** np.arange(config.key_bits - 2, config.key_bits - 2 - rounds, -1)
    # sign(k) * (|k| >> s) per round; powers of two scale exactly
    shifted = np.trunc(keys * (1.0 / steps)[:, None, None])
    q = np.asarray(queries, dtype=np.float64)
    if config.query_bits < config.key_bits:
        step = 2.0 ** (config.key_bits - config.query_bits)
        q = np.floor(q / step) * step  # arithmetic shift of the MSBs
    # + 0.0 turns a -0.0 sum into the int filter's 0.0; << s and the score
    # scale then apply as one exact power-of-two-times-scale factor
    scores = (q @ shifted.reshape(rounds * n_keys, d).T + 0.0).reshape(
        -1, rounds, n_keys
    ) * (steps[:, None] * scales[:, None, None])
    margins = [config.alpha_for_round(r) * config.radius for r in range(rounds)]
    # keys a row can still prune from; 0 once it stops filtering
    limit = alive.sum(axis=1)
    history = []
    for r, margin in enumerate(margins):
        if not limit.any():
            break
        history.append((alive, limit))
        top = np.where(alive, scores[:, r], -np.inf).max(axis=1, keepdims=True)
        keep = alive & (scores[:, r] >= top - margin)
        kept = keep.sum(axis=1)
        # clock-gated clipping: a row prunes only when Eq. 1 drops a key
        prune = kept < limit
        if kept.min() < config.min_keys:
            # rare guard: keep the min_keys best, ties broken as argsort does
            # on the compacted survivor scores
            for b in np.flatnonzero(prune & (kept < config.min_keys)):
                idx = np.flatnonzero(alive[b])
                order = np.argsort(scores[b, r, idx])[::-1][: config.min_keys]
                keep[b] = False
                keep[b, idx[order]] = True
                kept[b] = order.size
        alive = np.where(prune[:, None], keep, alive)
        # pruning down to min_keys terminates the row early
        limit = np.where(prune, kept * (kept > config.min_keys), limit)
    return alive, scores, history, limit > 0


def bgpp_select(
    query: np.ndarray,
    keys: np.ndarray,
    config: Optional[BGPPConfig] = None,
):
    """Run the progressive bit-grained filter for one query row or a batch.

    Parameters
    ----------
    query:
        Integer query vector of length ``d`` (already quantised), or a
        ``(B, d)`` matrix of query rows.  A 2-D input dispatches to
        :func:`bgpp_select_batch` and returns a list of per-row results whose
        fields are bit-identical to running each row through the 1-D path.
    keys:
        Integer key matrix of shape ``(n_keys, d)``.
    config:
        Filter parameters; defaults to :class:`BGPPConfig`.

    Returns
    -------
    BGPPResult or List[BGPPResult]
        Selected key indices, per-round survivor counts and exact KV-traffic /
        compute accounting (one result per query row for batched input).
    """
    query = np.asarray(query)
    keys = np.asarray(keys)
    if query.ndim == 2:
        return bgpp_select_batch(query, keys, config=config)
    if query.ndim != 1:
        raise ValueError(f"query must be 1-D or 2-D, got shape {query.shape}")
    return bgpp_select_batch(query[None, :], keys, config=config)[0]


def bgpp_select_batch(
    queries: np.ndarray,
    keys: np.ndarray,
    config: Optional[BGPPConfig] = None,
    key_lengths: Optional[Sequence[int]] = None,
    score_scales: Optional[Sequence[float]] = None,
) -> List[BGPPResult]:
    """Progressive filtering of a whole ``(B, d)`` query batch in one pass.

    Every round's partial sums for every query come from one shared BLAS
    product, and the threshold logic runs as masked array ops, so each
    returned :class:`BGPPResult` is field-for-field identical to
    :func:`bgpp_select` on that row (including the per-query KV-traffic and
    MAC accounting, which only count the keys still alive for that query).

    Parameters
    ----------
    key_lengths:
        Optional per-query key-prefix lengths for *ragged* batches: query row
        ``b`` only considers ``keys[:key_lengths[b]]``, exactly as if it were
        run through :func:`bgpp_select` against that truncated key matrix
        (causal prefill rows and co-scheduled decode streams have different
        context lengths but share one key buffer).  ``None`` means every query
        sees all keys.
    score_scales:
        Optional per-query dequantisation scale overriding
        ``config.score_scale`` row by row (the attention predictors fit the
        scale from per-row query/key statistics).
    """
    config = config or BGPPConfig()
    queries = np.asarray(queries)
    keys = np.asarray(keys)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if keys.ndim != 2 or keys.shape[1] != queries.shape[1]:
        raise ValueError(
            f"keys must have shape (n, {queries.shape[1]}), got {keys.shape}"
        )
    n_queries = queries.shape[0]
    n_keys, d = keys.shape
    if n_queries == 0:
        return []

    if key_lengths is None:
        lengths = np.full(n_queries, n_keys, dtype=np.int64)
    else:
        lengths = np.asarray(key_lengths, dtype=np.int64)
        if lengths.shape != (n_queries,):
            raise ValueError(
                f"key_lengths must have shape ({n_queries},), got {lengths.shape}"
            )
        if lengths.size and (lengths.min() < 0 or lengths.max() > n_keys):
            raise ValueError("key_lengths entries must lie in [0, n_keys]")
    if score_scales is None:
        scales = np.full(n_queries, float(config.score_scale))
    else:
        scales = np.asarray(score_scales, dtype=np.float64)
        if scales.shape != (n_queries,):
            raise ValueError(
                f"score_scales must have shape ({n_queries},), got {scales.shape}"
            )

    if n_keys == 0:
        return [_empty_result() for _ in range(n_queries)]

    alive, scores, history, active = _progressive_filter(
        queries, keys, config, np.arange(n_keys) < lengths[:, None], scales
    )
    early = (lengths > 0) & ~active
    # keys each row fetched a bit plane of, per executed round: (rounds, B, L)
    fetched = np.array(
        [mask & (limit > 0)[:, None] for mask, limit in history], dtype=bool
    ).reshape(-1, n_queries, n_keys)
    counts = fetched.sum(axis=2)
    executed = (counts > 0).sum(axis=0)
    # a pruned key keeps the partial sum of the last round it was fetched in
    rounds_alive = fetched.sum(axis=0)
    last = np.maximum(rounds_alive - 1, 0)[:, None, :]
    estimates = np.take_along_axis(scores, last, axis=1)[:, 0, :]
    # the sign plane comes with the first magnitude plane of every key; each
    # round then fetches one bit plane and does d MACs per surviving key
    macs = d * rounds_alive.sum(axis=1)
    final = alive.sum(axis=1)
    return [
        BGPPResult(
            selected=np.flatnonzero(alive[b]),
            estimated_scores=estimates[b, : lengths[b]],
            survivors_per_round=(
                counts[1 : executed[b], b].tolist() + [int(final[b])]
                if executed[b]
                else []
            ),
            kv_bits_loaded=int(lengths[b] * d + macs[b]),
            mac_ops=int(macs[b]),
            rounds_executed=int(executed[b]),
            early_terminated=bool(early[b]),
        )
        for b in range(n_queries)
    ]


def value_topk_select(
    query: np.ndarray,
    keys: np.ndarray,
    k: int,
    prediction_bits: int = 4,
    key_bits: int = 8,
) -> TopKResult:
    """Value-level top-k prediction baseline (paper Fig. 3 / Fig. 5e).

    The predictor loads the ``prediction_bits`` most significant bits of every
    key, computes the full estimated attention row and keeps the ``k`` largest
    entries.  Memory traffic therefore scales with *all* keys regardless of
    how trivial they are.
    """
    query = np.asarray(query)
    keys = np.asarray(keys)
    n_keys, d = keys.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n_keys)

    shift = key_bits - prediction_bits
    reduced_keys = (keys.astype(np.int64) >> shift) << shift if shift > 0 else keys
    reduced_q = _reduced_precision_query(query, prediction_bits, full_bits=key_bits)
    scores = reduced_keys @ reduced_q
    order = np.argsort(scores)[::-1]
    selected = np.sort(order[:k])
    return TopKResult(
        selected=selected,
        estimated_scores=scores.astype(np.float64),
        kv_bits_loaded=int(n_keys * d * prediction_bits),
        mac_ops=int(n_keys * d),
    )


def exact_topk(query: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` keys with the largest exact integer dot products."""
    query = np.asarray(query, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    scores = keys @ query
    k = min(max(k, 1), keys.shape[0])
    order = np.argsort(scores)[::-1]
    return np.sort(order[:k])


def selection_recall(selected: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of ``reference`` indices contained in ``selected``."""
    reference = np.asarray(reference)
    if reference.size == 0:
        return 1.0
    selected_set = set(np.asarray(selected).tolist())
    hits = sum(1 for idx in reference.tolist() if idx in selected_set)
    return hits / reference.size


def make_bgpp_predictor(
    alpha: float | Sequence[float] = 0.55,
    rounds: int = 3,
    radius: float = 3.0,
    key_bits: int = 8,
    query_bits: int = 4,
    score_std_target: float = 0.8,
):
    """Build a key-predictor callable for :class:`repro.model.MultiHeadAttention`.

    The attention module hands the predictor float Q/K rows; the predictor
    quantises them on the fly (symmetric INT8, the same tensors the BGPP unit
    would receive from the quantiser) and returns the indices of the keys the
    progressive filter keeps.

    ``score_std_target`` normalises the integer partial sums so that the
    expected score standard deviation maps to this many softmax-logit units
    before the radius threshold (Eq. 1) is applied.  This keeps the pruning
    aggressiveness consistent across models whose raw attention-logit ranges
    differ (trained LLMs have wide, peaked logits; the synthetic models here
    have narrow ones).

    The returned callable also carries a ``select_ragged(queries, keys,
    lengths)`` attribute: the batched form the attention modules use to run
    every query row of a causal prefill through one shared filter pass (row
    ``i`` selects among ``keys[:lengths[i]]``), bit-exact against calling the
    predictor row by row.
    """

    config = BGPPConfig(
        rounds=rounds,
        radius=radius,
        alpha=alpha,
        key_bits=key_bits,
        query_bits=query_bits,
    )

    def predictor(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        n_keys = keys.shape[0]
        if n_keys == 0:
            return np.zeros(0, dtype=np.int64)
        # symmetric INT8: |x| / (max|x| / 127) never rounds past 127
        q_int = np.round(query / (max(np.abs(query).max(), 1e-12) / 127.0))
        k_int = np.round(keys / (max(np.abs(keys).max(), 1e-12) / 127.0))
        # Estimated std of the integer dot products: ||q|| * mean ||k|| / sqrt(d).
        # Squares of integers sum exactly in any order, so these norms are
        # np.linalg.norm's bit for bit, and the mean is np.mean's.
        q_norm = np.sqrt(q_int @ q_int)
        k_norm = np.add.reduce(np.sqrt(np.add.reduce(k_int * k_int, axis=1))) / n_keys
        score_std = max(q_norm * k_norm / np.sqrt(query.shape[0]), 1e-9)
        alive = _progressive_filter(
            q_int[None, :],
            k_int,
            config,
            np.ones((1, n_keys), dtype=bool),
            np.array([score_std_target / score_std]),
        )[0]
        return np.flatnonzero(alive[0])

    def select_ragged(
        queries: np.ndarray, keys: np.ndarray, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Ragged-batch selection: row ``i`` filters ``keys[:lengths[i]]``.

        Reproduces the per-row quantisation exactly: the key scale of row
        ``i`` is the running maximum of ``|keys|`` over its prefix.  Rows
        sharing a key scale share one block of quantised keys, and every
        row filters its own window of the stacked blocks in a single
        filter pass.  The returned indices are bit-identical to
        ``predictor(queries[i], keys[:lengths[i]])``.
        """
        queries = np.asarray(queries, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        out: List[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in lengths]
        rows = np.flatnonzero(lengths > 0)
        if rows.size == 0:
            return out
        lengths = lengths[rows]
        queries = queries[rows]
        q_scales = np.maximum(np.abs(queries).max(axis=1), 1e-12) / 127.0
        q_int = np.round(queries / q_scales[:, None])
        key_cummax = np.maximum.accumulate(np.abs(keys).max(axis=1))
        k_scales, group = np.unique(
            np.maximum(key_cummax[lengths - 1], 1e-12) / 127.0, return_inverse=True
        )
        block_lengths = [int(lengths[group == g].max()) for g in range(k_scales.size)]
        k_int = np.round(
            np.concatenate([keys[:n] / s for s, n in zip(k_scales, block_lengths)])
        )
        starts = (np.cumsum(block_lengths) - block_lengths)[group]
        # the predictor's norms; each mean must reduce its own prefix
        q_norms = np.sqrt(np.add.reduce(q_int * q_int, axis=1))
        key_norms = np.sqrt(np.add.reduce(k_int * k_int, axis=1))
        k_norms = np.array(
            [np.add.reduce(key_norms[s : s + n]) / n for s, n in zip(starts, lengths)]
        )
        score_std = np.maximum(q_norms * k_norms / np.sqrt(queries.shape[1]), 1e-9)
        window = np.arange(k_int.shape[0]) - starts[:, None]
        alive = _progressive_filter(
            q_int,
            k_int,
            config,
            (window >= 0) & (window < lengths[:, None]),
            score_std_target / score_std,
        )[0]
        for i, row_alive, start in zip(rows, alive, starts):
            out[i] = np.flatnonzero(row_alive) - start
        return out

    predictor.select_ragged = select_ragged
    return predictor


def make_value_topk_predictor(keep_fraction: float = 0.3, prediction_bits: int = 4):
    """Build a value-level top-k key predictor (the conventional baseline).

    Like :func:`make_bgpp_predictor`, the callable carries a
    ``select_ragged`` attribute running a whole ragged query batch as one
    masked score matmul plus per-row top-k, bit-exact against row-by-row
    calls.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")

    def predictor(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        q_scale = max(np.abs(query).max(), 1e-12) / 127.0
        k_scale = max(np.abs(keys).max(), 1e-12) / 127.0
        q_int = np.clip(np.round(query / q_scale), -127, 127).astype(np.int64)
        k_int = np.clip(np.round(keys / k_scale), -127, 127).astype(np.int64)
        k = max(1, int(round(keep_fraction * keys.shape[0])))
        return value_topk_select(q_int, k_int, k, prediction_bits=prediction_bits).selected

    def select_ragged(
        queries: np.ndarray, keys: np.ndarray, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Ragged-batch top-k: one estimated-score matmul per key-scale group."""
        queries = np.asarray(queries, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        n_rows = queries.shape[0]
        out: List[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in range(n_rows)]
        nonempty = np.flatnonzero(lengths > 0)
        if nonempty.size == 0:
            return out
        q_scales = np.maximum(np.abs(queries).max(axis=1), 1e-12) / 127.0
        q_int = np.clip(np.round(queries / q_scales[:, None]), -127, 127).astype(np.int64)
        reduced_q = _reduced_precision_query(q_int, prediction_bits, full_bits=8)
        key_cummax = np.maximum.accumulate(np.abs(keys).max(axis=1))
        k_scales = np.zeros(n_rows)
        k_scales[nonempty] = np.maximum(key_cummax[lengths[nonempty] - 1], 1e-12) / 127.0
        shift = 8 - prediction_bits
        for scale in np.unique(k_scales[nonempty]):
            rows = np.flatnonzero((lengths > 0) & (k_scales == scale))
            max_len = int(lengths[rows].max())
            k_int = np.clip(np.round(keys[:max_len] / scale), -127, 127).astype(np.int64)
            reduced_keys = (k_int >> shift) << shift if shift > 0 else k_int
            scores = reduced_keys @ reduced_q[rows].T  # (max_len, n_rows_in_group)
            for j, i in enumerate(rows):
                length = int(lengths[i])
                k = min(max(1, int(round(keep_fraction * length))), length)
                order = np.argsort(scores[:length, j])[::-1]
                out[int(i)] = np.sort(order[:k])
        return out

    predictor.select_ragged = select_ragged
    return predictor


def attention_sparsity(results: Sequence[BGPPResult], n_keys: int) -> float:
    """Average fraction of keys *pruned* by BGPP over a batch of query rows."""
    if not results or n_keys == 0:
        return 0.0
    kept = np.mean([r.selected.size / n_keys for r in results])
    return float(1.0 - kept)
