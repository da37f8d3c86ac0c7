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
BLAS product over the stacked truncated keys ``sign(k) * (|k| >> s)``.  The
product is exact: the operands are integers, and every partial sum is
bounded by ``128 * max|plane| * d`` (the reduced INT8 query is at most 128 in
magnitude), so it runs in the cheapest tier of
:func:`repro.core.engine.exact_product_dtype` that holds that bound --
float32 below ``2**24`` (``128 * 7 * 128`` for three rounds over 128-wide
keys), float64 below ``2**53`` -- and returns the integer product in any
summation order.  The filter then runs Eq. 1, the clock-gated clip and the
``min_keys`` guard as masked array ops, round by round.  A key pruned after
round ``r`` keeps ``psum_r`` as its estimate, just as the bit-serial unit
stops accumulating it.

**Write-once key planes.**  Like the hardware, which keeps keys in DRAM in
bit-plane form, the serving predictor keeps each key stream's truncated
planes (and each INT8 key row's norm) in a per-stream cache and writes a
row's planes once.  A stream is quantised over its running ``max|k|``, which
only grows: a new row that does not raise it is quantised alone, and a row
that does re-quantises that one stream.  Callers hand the streams over as a
:class:`StreamKeys` record (a gathered ``(B, L, d)`` view plus one opaque
cache slot per stream); the owner of the rows -- the serving KV arena --
drops a stream's slot whenever its rows can change below the cached length
(free, truncate, layer clear, snapshot) and otherwise never looks inside.
One pass then covers every query row of a layer: each row multiplies only
its own stream's planes (a prompt-chunk row whose prefix maximum is below
the stream's reads a block quantised over that prefix maximum, exactly as a
call on the prefix alone would) and one Eq. 1 filter runs over all rows.

The accounting still follows the hardware of Fig. 9/16, not the software:
``kv_bits_loaded`` charges the sign plane of every key plus one plane per
key per round that key was alive in, and ``mac_ops`` charges ``d`` MACs per
such plane.  Computing a pruned key's later partial sums anyway costs the
model nothing the bit-serial unit would fetch, so it is not charged.

The module provides:

* :func:`bgpp_select` -- the progressive filter for one query row, returning
  the selected key indices together with exact accounting of the KV bits
  loaded and the multiply-accumulate work performed;
* :func:`make_bgpp_predictor` -- the float-in, indices-out predictor the
  attention modules call, with its write-once plane cache;
* :func:`value_topk_select` -- the conventional value-level top-k predictor
  used as a baseline (paper §2.2, Fig. 3);
* :func:`exact_topk` / :func:`selection_recall` -- oracles for measuring how
  faithful either predictor is to exact attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, MutableMapping, Optional, Sequence

import numpy as np

__all__ = [
    "BGPPConfig",
    "BGPPResult",
    "StreamKeys",
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


def _int8_rows(rows: np.ndarray) -> np.ndarray:
    """Each row over its own symmetric INT8 scale ``max|row| / 127``, rounded."""
    scales = np.maximum(np.abs(rows).max(axis=1), 1e-12) / 127.0
    return np.round(rows / scales[:, None])


def _round_steps(config: BGPPConfig) -> np.ndarray:
    """``2**s`` for every round's shift ``s = key_bits - 2 - r``."""
    rounds = min(config.rounds, config.key_bits - 1)
    return 2.0 ** np.arange(config.key_bits - 2, config.key_bits - 2 - rounds, -1)


def _check_key_range(keys: np.ndarray, config: BGPPConfig) -> None:
    """Raise ``ValueError`` for keys outside the ``key_bits`` sign-magnitude range."""
    largest = 2 ** (config.key_bits - 1) - 1
    if keys.size and max(keys.max(), -keys.min()) > largest:
        raise ValueError(
            f"keys outside representable range [{-largest}, {largest}] for "
            f"{config.key_bits}-bit sign_magnitude"
        )


def _key_planes(keys: np.ndarray, steps: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``(n, rounds, d)`` truncated planes ``sign(k) * (|k| >> s)`` of integer keys.

    ``steps`` holds every round's ``2**s`` (:func:`_round_steps`).  Powers of
    two scale exactly, so ``trunc(k / 2**s)`` is the shift, in float32 as in
    float64 for keys that fit the sign-magnitude range.
    """
    work = np.float32 if dtype is np.float32 else np.float64
    planes = keys.astype(work)[:, None, :] * (1.0 / steps).astype(work)[:, None]
    np.trunc(planes, out=planes)
    return planes.astype(dtype, copy=False)


def _reduced_query(q_int: np.ndarray, config: BGPPConfig) -> np.ndarray:
    """The query's ``query_bits`` MSBs (an arithmetic shift of the low bits)."""
    if config.query_bits >= config.key_bits:
        return q_int
    step = 2.0 ** (config.key_bits - config.query_bits)
    return np.floor(q_int / step) * step


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


def _eq1_filter(scores: np.ndarray, alive: np.ndarray, config: BGPPConfig):
    """Eq. 1 over the ``(B, rounds, L)`` scaled partial sums ``scores``.

    Row ``b`` filters the keys where the ``(B, L)`` mask ``alive`` is set;
    the threshold, the clock-gated clip and the ``min_keys`` guard are
    masked ops over ``(B, L)``, and no row's result depends on another's.

    Returns ``(alive, history, active)``: the final keep mask, the ``(alive,
    limit)`` state at the start of every executed round (a row with ``limit
    == 0`` sat the round out; otherwise ``limit`` is its alive count, the
    keys it fetched a plane of), and which rows were still filtering after
    the last one (the others terminated early or had no keys).
    """
    margins = [
        config.alpha_for_round(r) * config.radius for r in range(scores.shape[1])
    ]
    # keys a row can still prune from; 0 once it stops filtering
    limit = alive.sum(axis=1)
    history = []
    for r, margin in enumerate(margins):
        if not limit.any():
            break
        history.append((alive, limit))
        # a row with keys has a finite maximum, so no dead key survives the
        # threshold; a row without keys (all -inf) has limit 0 and no prune
        masked = np.where(alive, scores[:, r], -np.inf)
        keep = masked >= masked.max(axis=1, keepdims=True) - margin
        kept = keep.sum(axis=1)
        # clock-gated clipping: a row prunes only when Eq. 1 drops a key
        prune = kept < limit
        # a row's best key always passes a margin >= 0, so the guard can
        # only fire below a negative margin or above one key
        if (margin < 0 or config.min_keys > 1) and kept.min() < config.min_keys:
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
    return alive, history, limit > 0


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

    _check_key_range(keys, config)
    steps = _round_steps(config)
    planes = _key_planes(keys, steps)
    q = _reduced_query(np.asarray(queries, dtype=np.float64), config)
    # + 0.0 turns a -0.0 sum into the int filter's 0.0; << s and the score
    # scale then apply as one exact power-of-two-times-scale factor
    psums = (q @ planes.reshape(-1, d).T + 0.0).reshape(n_queries, n_keys, -1)
    scores = psums.transpose(0, 2, 1) * (steps[:, None] * scales[:, None, None])
    alive, history, active = _eq1_filter(
        scores, np.arange(n_keys) < lengths[:, None], config
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


@dataclass
class StreamKeys:
    """The keys of one layer's streams, handed to a predictor's ``select_ragged``.

    ``view`` is a ``(B, L, d)`` array whose row ``b`` starts with stream
    ``b``'s keys (a gathered batch view: rows past a query row's length are
    never read, so stale padding cannot move a selection).  The query rows
    come grouped by stream: the first ``row_counts[0]`` rank prefixes of
    stream 0, the next ``row_counts[1]`` of stream 1, and so on.  ``slots``
    maps ``ids[b]`` (``b`` itself when ``ids`` is ``None``) to stream
    ``b``'s write-once BGPP plane cache: :func:`make_bgpp_predictor`'s pass
    creates, extends and replaces the entries, and the owner of ``slots``
    never looks inside them but must drop a stream's entry whenever that
    stream's rows can change below the length the cache covers.
    ``counters``, when given, is charged the pass's KV traffic in the
    paper's units (any object with integer ``keys_selected``,
    ``keys_total``, ``kv_bits_loaded`` and ``kv_bits_dense`` attributes,
    e.g. :class:`repro.core.engine.EngineStats`).
    """

    view: np.ndarray
    row_counts: Sequence[int]
    ids: Optional[Sequence[Any]] = None
    slots: MutableMapping[Any, Any] = field(default_factory=dict)
    counters: Optional[Any] = None

    @classmethod
    def prefix(cls, keys: np.ndarray, n_rows: int, counters=None) -> "StreamKeys":
        """``n_rows`` query rows ranking prefixes of one ``(L, d)`` key matrix.

        The one stream's plane cache lives only as long as the record.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2:
            raise ValueError(f"prefix keys must be (L, d), got shape {keys.shape}")
        return cls(keys[None], [n_rows], counters=counters)

    def check(self, lengths: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``lengths`` holds one length per row."""
        n_rows = int(sum(self.row_counts))
        if len(self.row_counts) != self.view.shape[0] or n_rows != lengths.size:
            raise ValueError(
                f"{self.view.shape[0]} key streams with {n_rows} query rows "
                f"cannot take {lengths.size} key lengths"
            )
        if lengths.size and lengths.max() > self.view.shape[1]:
            raise ValueError(
                f"keys of shape {self.view.shape} cannot hold key lengths "
                f"up to {lengths.max()}"
            )

    def row_keys(self, lengths: np.ndarray) -> List[np.ndarray]:
        """Each query row's own keys, its stream's first ``lengths[i]`` rows."""
        streams = np.repeat(np.arange(len(self.row_counts)), self.row_counts)
        return [self.view[b, :n] for b, n in zip(streams, lengths)]


class _KeyPlanes:
    """Write-once BGPP planes of one key stream (one session, one layer).

    Rows ``[0, n)`` are held INT8-quantised over ``max_abs``, the running
    maximum of ``|k|`` over them: ``planes[i]`` is row ``i``'s ``(rounds,
    d)`` truncated planes and ``norms[i]`` its INT8 row norm.  ``tag``
    names the plane layout, so a predictor never reads planes cut for
    another configuration.  Buffers double as rows arrive.
    """

    __slots__ = ("tag", "n", "max_abs", "planes", "norms")

    def __init__(self, tag: tuple, rounds: int, d: int, dtype) -> None:
        self.tag = tag
        self.n = 0
        self.max_abs = 0.0
        self.planes = np.empty((0, rounds, d), dtype=dtype)
        self.norms = np.empty(0)

    def reserve(self, n: int) -> None:
        """Make room for ``n`` rows, keeping the first ``self.n``."""
        cap = max(n, 2 * self.norms.size, 16)
        for name in ("planes", "norms"):
            old = getattr(self, name)
            grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)


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
    lengths)`` attribute, the batched form the attention modules use.  Row
    ``i`` selects among a prefix of ``lengths[i]`` keys, bit-identical to
    ``predictor(queries[i], those keys)``, for either of two key forms:

    * ``(L, d)`` keys: row ``i`` ranks ``keys[:lengths[i]]`` (the rows of one
      causal chunk);
    * a :class:`StreamKeys` record: row ``i`` ranks the first ``lengths[i]``
      keys of its own stream, read from the stream's write-once plane cache
      (every row of one layer's serving step, decode and chunk rows alike).

    Each row multiplies only its own stream's planes, and one Eq. 1 filter
    runs over all rows (see the module docstring).
    """
    from .engine import exact_product_dtype

    config = BGPPConfig(
        rounds=rounds,
        radius=radius,
        alpha=alpha,
        key_bits=key_bits,
        query_bits=query_bits,
    )
    steps = _round_steps(config)
    n_rounds = steps.size
    # the last round's plane is the widest: |k| >> s for the smallest shift
    plane_max = int((2 ** (key_bits - 1) - 1) // steps[-1])
    tag = (key_bits, n_rounds)

    def planes_of(rows: np.ndarray, scales: np.ndarray, dtype):
        """Planes and INT8 norms of float key rows over their scales.

        Squares of integers sum exactly in any order, so the norms are the
        per-row predictor's bit for bit.
        """
        k_int = np.round(rows / scales)
        if key_bits < 8:  # INT8 keys always fit 8 bits
            _check_key_range(k_int, config)
        return (
            _key_planes(k_int, steps, dtype),
            np.sqrt(np.einsum("ij,ij->i", k_int, k_int)),
        )

    def scale_of(max_abs: float) -> float:
        # symmetric INT8: |x| / (max|x| / 127) never rounds past 127
        return max(max_abs, 1e-12) / 127.0

    def extend(keys: StreamKeys, spans, dtype) -> List[_KeyPlanes]:
        """Bring each span's stream slot up to its longest row; returns the slots.

        The new rows of every stream are gathered, quantised and cut into
        planes together; a stream whose new rows raise its maximum is then
        re-quantised on its own.
        """
        ids = keys.ids
        slots, grow = [], []
        for b, _, _, n_hi in spans:
            key = b if ids is None else ids[b]
            slot = keys.slots.get(key)
            if slot is None or slot.tag != tag:
                slot = keys.slots[key] = _KeyPlanes(tag, n_rounds, keys.view.shape[2], dtype)
            slots.append(slot)
            if slot.n < n_hi:
                grow.append((slot, b, slot.n, n_hi, slot.max_abs))
        if not grow:
            return slots
        bs, n0, n_hi, old_max = map(np.array, list(zip(*grow))[1:])
        delta = n_hi - n0
        if len(grow) == int(delta.sum()):  # one new row per stream: decode
            new = keys.view[bs, n0]
            top = np.maximum(old_max, np.abs(new).max(axis=1))
            scales = np.maximum(top, 1e-12) / 127.0
        else:
            starts = np.cumsum(delta) - delta
            new = keys.view[
                np.repeat(bs, delta),
                np.arange(int(delta.sum())) + np.repeat(n0 - starts, delta),
            ]
            row_max = np.abs(new).max(axis=1)
            top = np.maximum(old_max, np.maximum.reduceat(row_max, starts))
            scales = np.repeat(np.maximum(top, 1e-12) / 127.0, delta)
        planes, norms = planes_of(new, scales[:, None], dtype)
        end = 0
        for (slot, b, lo, hi, old), m in zip(grow, top.tolist()):
            start, end = end, end + hi - lo
            if hi > slot.norms.size:
                slot.reserve(hi)
            slot.planes[lo:hi] = planes[start:end]
            slot.norms[lo:hi] = norms[start:end]
            if m > old and lo:
                # the new rows raised the stream's maximum: re-quantise it
                slot.planes[:lo], slot.norms[:lo] = planes_of(
                    keys.view[b, :lo], scale_of(m), dtype
                )
            slot.max_abs = m
            slot.n = hi
        return slots

    def select_ragged(
        queries: np.ndarray, keys, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Ragged-batch selection, bit-identical to row-by-row predictor calls.

        ``keys`` is an ``(L, d)`` prefix matrix or a :class:`StreamKeys`
        record (see :func:`make_bgpp_predictor`).
        """
        queries = np.asarray(queries, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if not isinstance(keys, StreamKeys):
            keys = StreamKeys.prefix(keys, lengths.size)
        keys.check(lengths)
        lens = lengths.tolist()
        width = max(lens, default=0)
        if width == 0:
            return [np.zeros(0, dtype=np.int64) for _ in lens]
        d = keys.view.shape[2]
        dtype = exact_product_dtype(128 * plane_max * d)
        # (stream, first row, end row, longest row) of every stream with keys
        spans, lo = [], 0
        for b, count in enumerate(keys.row_counts):
            n_hi = max(lens[lo : lo + count], default=0)
            if n_hi:
                spans.append((b, lo, lo + count, n_hi))
            lo += count
        slots = extend(keys, spans, dtype)

        q_int = _int8_rows(queries)
        q = _reduced_query(q_int, config).astype(dtype, copy=False)
        # exact integer partial sums, (rows, width, rounds) flat per row
        psums = np.zeros((len(lens), width * n_rounds), dtype)
        k_norms = np.ones(len(lens))
        for (b, lo, hi, n_hi), slot in zip(spans, slots):
            if hi - lo == 1 and n_hi == slot.n:
                # a decode row reads its whole cached stream
                np.matmul(
                    slot.planes[:n_hi].reshape(-1, d),
                    q[lo],
                    out=psums[lo, : n_hi * n_rounds],
                )
                # the predictor's mean of the row norms (a contiguous reduce
                # sums in the same order)
                k_norms[lo] = np.add.reduce(slot.norms[:n_hi]) / n_hi
                continue
            # a row whose prefix maximum is below the stream's reads the
            # prefix quantised over that maximum, as a call on the prefix
            # alone does
            n_rows = lengths[lo:hi]
            prefix_max = np.maximum.accumulate(np.abs(keys.view[b, :n_hi]).max(axis=1))
            row_max = np.where(n_rows > 0, prefix_max[n_rows - 1], slot.max_abs)
            for m in np.unique(row_max).tolist():
                own = lo + np.flatnonzero(row_max == m)
                n = int(lengths[own].max())
                if m == slot.max_abs:
                    planes, norms = slot.planes, slot.norms
                else:
                    planes, norms = planes_of(keys.view[b, :n], scale_of(m), dtype)
                psums[own, : n * n_rounds] = q[own] @ planes[:n].reshape(-1, d).T
                for i in own.tolist():
                    if lens[i]:
                        k_norms[i] = np.add.reduce(norms[: lens[i]]) / lens[i]
        q_norms = np.sqrt(np.einsum("ij,ij->i", q_int, q_int))
        score_std = np.maximum(q_norms * k_norms / np.sqrt(d), 1e-9)
        # << s and the score scale apply as one exact factor per round
        scores = psums.reshape(-1, width, n_rounds) * (
            (score_std_target / score_std)[:, None, None] * steps
        )
        alive, history, _ = _eq1_filter(
            scores.transpose(0, 2, 1), np.arange(width) < lengths[:, None], config
        )
        kept = alive.sum(axis=1)
        if keys.counters is not None:
            # the sign plane of every key, then one plane per key per round
            # it is alive in: what bgpp_select_batch charges each row
            c = keys.counters
            total = int(lengths.sum())
            fetched = sum(int(limit.sum()) for _, limit in history)
            c.keys_selected += int(kept.sum())
            c.keys_total += total
            c.kv_bits_loaded += d * (total + fetched)
            c.kv_bits_dense += total * d * config.key_bits
        cols = np.nonzero(alive)[1]
        ends = np.cumsum(kept).tolist()
        return [cols[a:z] for a, z in zip([0] + ends[:-1], ends)]

    def predictor(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.float64)
        return select_ragged(np.asarray(query)[None], keys, [keys.shape[0]])[0]

    predictor.select_ragged = select_ragged
    return predictor


def make_value_topk_predictor(keep_fraction: float = 0.3, prediction_bits: int = 4):
    """Build a value-level top-k key predictor (the conventional baseline).

    Like :func:`make_bgpp_predictor`, the callable carries a
    ``select_ragged`` attribute taking ``(L, d)`` prefix keys or a
    :class:`StreamKeys` record; it ranks each row's own keys row by row.
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
        queries: np.ndarray, keys, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Row ``i`` ranks its own keys, as ``predictor`` does."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if not isinstance(keys, StreamKeys):
            keys = StreamKeys.prefix(keys, lengths.size)
        keys.check(lengths)
        return [predictor(q, k) for q, k in zip(queries, keys.row_keys(lengths))]

    predictor.select_ragged = select_ragged
    return predictor


def attention_sparsity(results: Sequence[BGPPResult], n_keys: int) -> float:
    """Average fraction of keys *pruned* by BGPP over a batch of query rows."""
    if not results or n_keys == 0:
        return 0.0
    kept = np.mean([r.selected.size / n_keys for r in results])
    return float(1.0 - kept)
