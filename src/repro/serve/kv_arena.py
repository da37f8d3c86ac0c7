"""Paged KV arena: shared page pools + per-session page tables.

The PR-2 fused decode path re-stacked every session's KV cache into a fresh
``(B, max_len, hidden)`` padded tensor each scheduler step, so per-step copy
traffic grew with total context length even though only one token per stream
was new.  :class:`PagedKVArena` is the vLLM-style answer scaled to the NumPy
simulator:

* K/V rows live in preallocated per-layer **page pools** -- one
  ``(n_pages, page_size, hidden)`` array per layer for keys and one for
  values, grown geometrically when the free list runs dry;
* each session owns a **page table** (a list of page ids shared by all
  layers, since every layer appends the same number of tokens per step) plus
  per-layer write cursors;
* :meth:`free` returns a finished session's pages to the free list, so arena
  occupancy tracks *live* tokens rather than peak concurrency, and reused
  pages never grow the pool;
* :meth:`gather_batch` materialises the padded batch for attention into a
  per-layer **batch view** that it keeps between calls.  For every stream the
  view records a cached length that never exceeds the session's true length,
  and the rows below it are exact copies of the pool; each call copies only
  the rows above it -- ``O(B * hidden)`` bytes per decode step, independent
  of context length.  Events that shrink a session (speculative rollback,
  ``clear_layer``, snapshots) just clamp the cached length, so a rewind costs
  no re-copy of the kept prefix;
* a **prefix cache** shares prompt pages across requests: completed prefills
  :meth:`register_prefix` their full prompt pages under content keys (the
  token prefix at each page boundary), new sessions :meth:`acquire_prefix`
  matching pages read-only with per-page refcounts, and
  :meth:`~PagedKVArena.append` copies a page on write
  (:meth:`_ensure_writable`) the moment a session would scribble into a page
  someone else -- another session or the cache index -- still reads.
  Refcount-0 cached pages stay *idle* (materialised, off the free list) and
  are evicted LRU only under ``max_pages`` pressure.

Two capacity multipliers layer on top of the paging machinery:

* **KV dtype** (:class:`KVDtype`): with ``kv_dtype="int8"`` the page pools
  hold int8 rows plus one per-row float scale per page
  (``(n_layers, n_pages, page_size)``), quantised symmetrically on append
  and dequantised on every read (:meth:`~PagedKVArena.gather_batch` and the
  single-stream views) -- ~8x less pool memory per page.  Scales are
  per-row, not per-page, so a row's dequantised value is a pure function of
  the float row that was appended: bit-identical no matter how appends were
  chunked, which pages a row shares, or whether it travelled through a
  snapshot.  The default ``KVDtype.FP`` keeps the float pools byte-identical
  to the pre-quantisation arena.
* **Snapshots** (:meth:`~PagedKVArena.snapshot_session` /
  :meth:`~PagedKVArena.restore_session`): a preempted session's rows are
  copied into a compact off-arena :class:`KVSnapshot` and its live pages
  freed; restore faults fresh pages back in and copies the rows in place,
  so the resumed stream skips re-prefill entirely.  Pages someone else also
  reads (shared prefix mappings, registered index pages) are recorded *by
  reference* -- the session's refcount transfers to the snapshot, pinning
  the page -- so shared heads cost nothing to snapshot.  Snapshots store
  rows in the pool dtype, so int8 mode shrinks them ~8x too.

Every counter the serving report exposes (page faults, occupancy, gather
traffic, prefix-cache hits, snapshot/dequant traffic) lives in
:class:`ArenaStats`.
"""

from __future__ import annotations

import mmap
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ArenaStats", "KVDtype", "KVSnapshot", "PagedKVArena"]


def _lazy_zeros(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A zero array whose pages become resident only when written.

    For the page pools, which are sized ahead of use.  ``np.zeros`` keeps
    untouched pages unresident only while the C allocator serves the block
    from a fresh ``mmap``; freeing a pool that ``np.zeros`` mapped raises
    glibc's dynamic mmap threshold to the pool's size, after which other
    large buffers come from the heap, zero-filled page by page, and the
    process's resident set swings by tens of MB with the allocation history
    (rag's peak RSS read 289 or 319 MB for identical work).  An anonymous
    mapping is lazily backed and its release leaves the threshold alone.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class KVDtype(Enum):
    """Storage dtype of the arena's KV page pools.

    ``FP`` stores rows as-is in the constructor's ``dtype`` (float64 by
    default) -- byte-identical to the pre-quantisation arena.  ``INT8``
    stores symmetric per-row int8 quantised rows plus a float scale per row
    (grouped per page), trading exactness of the stored rows for ~8x
    capacity; reads dequantise transparently.
    """

    FP = "fp"
    INT8 = "int8"


def _resolve_kv_dtype(kv_dtype) -> KVDtype:
    if kv_dtype is None:
        return KVDtype.FP
    if isinstance(kv_dtype, KVDtype):
        return kv_dtype
    if isinstance(kv_dtype, str):
        try:
            return KVDtype(kv_dtype.lower())
        except ValueError:
            raise ValueError(
                f"unknown kv_dtype {kv_dtype!r}; available: "
                f"{sorted(d.value for d in KVDtype)}"
            ) from None
    raise TypeError(
        f"kv_dtype must be a KVDtype, its string value, or None; "
        f"got {type(kv_dtype).__name__}"
    )


@dataclass
class KVSnapshot:
    """Off-arena copy of one session's KV state (all layers).

    ``entries`` holds one tuple per page-table slot, in table order:
    ``("ref", page_id)`` for a page someone else also reads (the session's
    refcount was *transferred* to the snapshot, pinning the page in the
    arena until restore or discard) and
    ``("data", k, v, k_scale, v_scale)`` for an exclusively-owned page whose
    rows were copied out in pool dtype and the page freed (scales are
    ``None`` in fp mode).  ``lengths`` is the per-layer write-cursor array at
    snapshot time.  Restoring re-attaches the references and faults fresh
    pages for the data entries, reproducing the session's KV bit-identically.
    """

    lengths: np.ndarray
    entries: List[tuple] = field(default_factory=list)

    @property
    def n_pages(self) -> int:
        return len(self.entries)

    @property
    def pages_referenced(self) -> int:
        """Pages recorded by reference (still resident, pinned in the arena)."""
        return sum(1 for e in self.entries if e[0] == "ref")

    @property
    def pages_copied(self) -> int:
        """Pages copied off-arena (their arena pages were freed)."""
        return self.n_pages - self.pages_referenced

    @property
    def nbytes(self) -> int:
        """Bytes of off-arena row/scale storage this snapshot holds."""
        total = 0
        for e in self.entries:
            if e[0] == "data":
                total += sum(a.nbytes for a in e[1:] if a is not None)
        return total

    def referenced_full_pages(self, page_size: int) -> int:
        """Referenced pages that are *full* at the snapshot's row count.

        The admission-control discount: a referenced partial tail page is
        copy-on-written the moment the restored session appends, so only
        fully-shared pages are guaranteed never to cost a fresh allocation
        (mirroring the prefix cache's novel-suffix accounting).
        """
        full = int(self.lengths.min()) // int(page_size)
        return sum(1 for e in self.entries[:full] if e[0] == "ref")


@dataclass
class ArenaStats:
    """Occupancy and copy-traffic counters of one :class:`PagedKVArena`.

    ``page_faults`` counts pages handed out (cumulative allocations, the
    paging analogue of a fault); ``gather_bytes_copied`` is the number of KV
    bytes materialised by :meth:`PagedKVArena.gather_batch`, the one KV read
    of the batched attention pass.  An incremental refresh
    (``gather_incremental``) counts the rows it copied; a rebuild
    (``gather_rebuilds``) counts the batch's whole padded page span,
    ``B x ceil(max_len / page_size)`` pages, which bounds the live rows it
    actually copies.  ``view_bytes_copied`` tracks the single-stream
    materialisations of a per-stream ``forward``
    (:meth:`PagedKVArena.session_keys` / ``session_values``).

    Prefix-cache accounting: ``prefix_hits`` / ``prefix_misses`` count
    :meth:`PagedKVArena.acquire_prefix` outcomes, ``prefix_tokens_reused`` the
    prompt rows whose prefill compute was skipped, ``prefix_pages_shared`` the
    page attachments that mapped an existing page instead of faulting a new
    one, ``cow_copies`` the copy-on-write page duplications, and
    ``cached_idle_pages`` / ``prefix_evictions`` the refcount-0 pages held by
    the index right now and those reclaimed LRU under ``max_pages`` pressure.
    Conservation: ``page_faults - pages_freed == pages_in_use +
    cached_idle_pages`` at every point in time (with the cache off the last
    term is zero and the PR-3 drain identity ``page_faults == pages_freed``
    is unchanged).

    Snapshot/quantisation accounting: ``snapshots_taken`` /
    ``snapshots_restored`` count :meth:`PagedKVArena.snapshot_session` /
    ``restore_session`` calls, ``snapshot_bytes`` the off-arena bytes copied
    out by snapshots (in pool dtype: int8 mode shrinks it ~8x), and
    ``dequant_bytes`` the float bytes produced by int8 dequantisation on the
    read paths (0 in fp mode).  A page a snapshot holds by reference still
    counts in ``pages_in_use`` (it is pinned, not freed); the conservation
    law above is unchanged by snapshot/restore cycles.

    Speculative-decode accounting: ``draft_rows_appended`` counts KV token
    rows appended for *draft* (not-yet-verified) positions and
    ``rows_rolled_back`` the token rows popped by
    :meth:`PagedKVArena.truncate_session` when verification rejects drafts.
    On a fault-free run ``draft_rows_appended - rows_rolled_back`` equals the
    total number of accepted draft tokens; both are zero with speculation
    off.
    """

    page_size: int
    n_pages: int
    pages_in_use: int = 0
    peak_pages_in_use: int = 0
    page_faults: int = 0
    pages_freed: int = 0
    pool_grows: int = 0
    tokens_appended: int = 0
    sessions_opened: int = 0
    sessions_freed: int = 0
    gather_rebuilds: int = 0
    gather_incremental: int = 0
    gather_bytes_copied: int = 0
    view_bytes_copied: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_tokens_reused: int = 0
    prefix_pages_shared: int = 0
    cow_copies: int = 0
    cached_idle_pages: int = 0
    prefix_evictions: int = 0
    snapshots_taken: int = 0
    snapshots_restored: int = 0
    snapshot_bytes: int = 0
    dequant_bytes: int = 0
    rows_rolled_back: int = 0
    draft_rows_appended: int = 0
    kv_dtype: str = KVDtype.FP.value

    @property
    def occupancy(self) -> float:
        """Fraction of the pool currently holding live pages."""
        return self.pages_in_use / self.n_pages if self.n_pages else 0.0

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["occupancy"] = self.occupancy
        return payload


class _Session:
    """Page table plus per-layer write cursors of one live session."""

    __slots__ = ("pages", "lengths")

    def __init__(self, n_layers: int) -> None:
        self.pages: List[int] = []
        self.lengths = np.zeros(n_layers, dtype=np.int64)


class _BatchView:
    """One layer's padded batch buffers and the rows they hold per stream.

    ``k`` / ``v`` are ``(rows, cap, hidden)`` buffers, possibly larger than
    the current batch (a rebuild reuses buffers that fit); stream ``b`` of
    ``sids`` owns row ``b`` and its first ``cached[b]`` positions are exact
    copies of the pool.
    """

    __slots__ = ("sids", "cached", "k", "v")

    def __init__(
        self, sids: Tuple[int, ...], k: np.ndarray, v: np.ndarray
    ) -> None:
        self.sids = sids
        self.cached = np.zeros(len(sids), dtype=np.int64)
        self.k = k
        self.v = v


class _PrefixNode:
    """One cached full page of prompt KV, keyed by its token prefix.

    ``row_attended`` / ``row_total`` record the per-row attention counts
    (summed over layers) the registering prefill computed for this page's
    rows, so a cache-hit session can credit the skipped rows' metrics
    bit-exactly.  ``tick`` is the LRU clock for idle-page eviction.
    """

    __slots__ = ("page", "row_attended", "row_total", "tick")

    def __init__(
        self,
        page: int,
        row_attended: np.ndarray,
        row_total: np.ndarray,
        tick: int,
    ) -> None:
        self.page = page
        self.row_attended = row_attended
        self.row_total = row_total
        self.tick = tick


class PagedKVArena:
    """Shared paged KV storage for many concurrent generation sessions.

    Parameters
    ----------
    n_layers, hidden_size:
        Shape of the KV rows (one K row and one V row of width
        ``hidden_size`` per layer per token).
    page_size:
        Tokens per page.  Small pages waste less tail space per session;
        large pages mean fewer allocations.
    initial_pages:
        Pool capacity to preallocate; the pool doubles (bounded by
        ``max_pages``) whenever the free list runs dry.  ``None`` (the
        default) preallocates 64 pages, or ``max_pages`` when that is fewer.
    max_pages:
        Hard capacity bound; exhausting it raises ``RuntimeError`` instead of
        growing, modelling a fixed HBM budget.
    dtype:
        Logical (dequantised) dtype of KV rows -- what appends accept and
        reads return.  In fp mode it is also the pool storage dtype.
    kv_dtype:
        Pool storage mode (:class:`KVDtype`, its string value, or ``None``
        for the default ``FP``).  ``"int8"`` stores symmetric per-row int8
        rows plus one float scale per row (kept per page in
        ``(n_layers, n_pages, page_size)`` arrays), quantising on append and
        dequantising on every read -- ~8x pool memory per page at the cost
        of quantisation error in the stored rows.  Reads are deterministic
        pure functions of the int8 rows + scales, so batched/serial/
        snapshot-restored compositions stay bit-identical to each other.
    """

    def __init__(
        self,
        n_layers: int,
        hidden_size: int,
        page_size: int = 32,
        initial_pages: Optional[int] = None,
        max_pages: Optional[int] = None,
        dtype=np.float64,
        kv_dtype=None,
    ) -> None:
        if initial_pages is None:
            initial_pages = 64 if max_pages is None else min(64, max_pages)
        if n_layers < 1 or hidden_size < 1:
            raise ValueError("n_layers and hidden_size must be >= 1")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if initial_pages < 1:
            raise ValueError("initial_pages must be >= 1")
        if max_pages is not None and max_pages < initial_pages:
            raise ValueError("max_pages must be >= initial_pages")
        self.n_layers = n_layers
        self.hidden_size = hidden_size
        self.page_size = page_size
        self.max_pages = max_pages
        self.kv_dtype = _resolve_kv_dtype(kv_dtype)
        # the logical row dtype (what callers append and read back); the
        # pools store it directly in fp mode, int8 + per-row scales otherwise
        self._fp_dtype = np.dtype(dtype)
        pool_dtype = np.int8 if self.kv_dtype is KVDtype.INT8 else self._fp_dtype
        shape = (n_layers, initial_pages, page_size, hidden_size)
        self._k = _lazy_zeros(shape, pool_dtype)
        self._v = _lazy_zeros(shape, pool_dtype)
        if self.kv_dtype is KVDtype.INT8:
            self._k_scale = _lazy_zeros(shape[:3], self._fp_dtype)
            self._v_scale = _lazy_zeros(shape[:3], self._fp_dtype)
        else:
            self._k_scale = None
            self._v_scale = None
        # LIFO free list, lowest page id on top so allocation order is stable
        self._free: List[int] = list(range(initial_pages - 1, -1, -1))
        self._sessions: Dict[int, _Session] = {}
        self._next_sid = 0
        self.stats = ArenaStats(
            page_size=page_size,
            n_pages=initial_pages,
            kv_dtype=self.kv_dtype.value,
        )
        # per-layer batch views (see gather_batch).  Invariant: for every
        # stream of a view, view.cached[b] <= the session's length in that
        # layer, and rows below it equal the pool's rows.  Shrinking events
        # clamp view.cached (_clamp_views); appends only write above the
        # true length, copy-on-write copies bit-identical rows, and session
        # ids are never reused, so nothing else can break it.  Views are
        # dropped once the arena holds no session, so their buffers never
        # outlive the load that sized them.
        self._gather: List[Optional[_BatchView]] = [None] * n_layers
        # prefix cache: content key (token prefix at a page boundary) -> node,
        # plus the reverse page -> key map (1:1) and per-page refcounts.
        # Pages with a _ref entry are live; indexed pages without one are
        # idle-cached (materialised, off the free list, evictable LRU).
        self._prefix: Dict[Tuple[int, ...], _PrefixNode] = {}
        # per layer, one opaque key-predictor slot per session (see
        # predictor_slots); dropped with the rows it was computed from
        self._predictor_slots: List[Dict[int, object]] = [
            {} for _ in range(n_layers)
        ]
        self._page_key: Dict[int, Tuple[int, ...]] = {}
        self._ref: Dict[int, int] = {}
        self._tick = 0

    # -- session lifecycle -----------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self._k.shape[1]

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    def has_session(self, session_id: int) -> bool:
        return session_id in self._sessions

    def create_session(self) -> int:
        """Open a new session; returns its id (ids are never reused)."""
        sid = self._next_sid
        self._next_sid += 1
        self._sessions[sid] = _Session(self.n_layers)
        self.stats.sessions_opened += 1
        return sid

    def new_session_caches(self) -> List["KVCache"]:
        """One arena-backed :class:`~repro.model.attention.KVCache` per layer.

        All returned handles share one session id (and therefore one page
        table); releasing any of them frees the whole session.
        """
        from ..model.attention import KVCache

        sid = self.create_session()
        return [
            KVCache(arena=self, session_id=sid, layer=layer)
            for layer in range(self.n_layers)
        ]

    def free(self, session_id: int) -> None:
        """Return the session's pages to the free list.

        Called both when a session finishes and when the scheduling policy
        *preempts* it -- a preempted request holds no pages while it waits,
        and re-acquires fresh ones (through a new session) when it resumes.
        """
        entry = self._sessions.pop(session_id)
        self._release_pages(entry)
        self._drop_predictor_slots(session_id)
        self.stats.sessions_freed += 1
        if not self._sessions:
            self._gather = [None] * self.n_layers

    def _release_pages(self, entry: _Session) -> None:
        # reversed keeps the pre-sharing LIFO discipline: the session's first
        # page lands on top of the free list, so allocation order is stable
        for page in reversed(entry.pages):
            self._release_page(page)
        entry.pages = []

    def _release_page(self, page: int) -> None:
        """Drop one reference; the last one parks or frees the page."""
        ref = self._ref.get(page, 1) - 1
        if ref > 0:
            self._ref[page] = ref
            return
        self._ref.pop(page, None)
        self.stats.pages_in_use -= 1
        if page in self._page_key:
            # the prefix index still reads it: park as idle-cached instead of
            # freeing, so a future identical prompt can map it back in
            self.stats.cached_idle_pages += 1
        else:
            self._free.append(page)
            self.stats.pages_freed += 1

    def predictor_slots(self, layer: int) -> Dict[int, object]:
        """The key predictor's per-session slots for one layer.

        A mapping from session id to whatever the predictor keeps about that
        session's keys at this layer (BGPP's write-once key planes, see
        :class:`repro.core.bgpp.StreamKeys`).  The arena never looks inside
        a slot; it drops a session's slots on :meth:`free` and whenever the
        session's rows shrink (:meth:`_clamp_views`), so a slot only ever
        describes rows that are still there.  Appends, copy-on-write and
        prefix sharing leave existing rows bit-identical and keep the slots.
        Slots are per session, not per page: two sessions sharing prefix
        pages may quantise them over different scales.
        """
        return self._predictor_slots[layer]

    def _drop_predictor_slots(self, session_id: int) -> None:
        for slots in self._predictor_slots:
            slots.pop(session_id, None)

    def _clamp_views(self, session_id: int) -> None:
        """Clamp every batch view's cached length to the session's lengths.

        Called after a session shrinks (rollback, layer clear, snapshot): the
        kept rows below the new length are still exact copies, so the next
        :meth:`gather_batch` only re-copies what is appended above it.  The
        session's predictor slots are dropped: they may cover removed rows.
        """
        self._drop_predictor_slots(session_id)
        lengths = self._sessions[session_id].lengths
        for layer, view in enumerate(self._gather):
            if view is not None and session_id in view.sids:
                b = view.sids.index(session_id)
                view.cached[b] = min(int(view.cached[b]), int(lengths[layer]))

    # -- occupancy / admission-control helpers ---------------------------------

    def pages_needed(self, n_tokens: int) -> int:
        """Pages required to hold ``n_tokens`` KV rows of one session."""
        if n_tokens <= 0:
            return 0
        return -(-int(n_tokens) // self.page_size)

    def within_watermark(self, n_pages: int, watermark: float = 1.0) -> bool:
        """Whether ``n_pages`` committed pages stay inside a capacity fraction.

        ``n_pages`` should be the caller's *reservation total* (e.g. the sum
        of every admitted session's full-lifetime page count, as
        :class:`~repro.serve.policies.ArenaBudgetPolicy` tracks) -- not
        current occupancy, which lags reality because pages only materialise
        as prefill/decode appends rows.  ``watermark`` is a fraction of the
        ``max_pages`` budget; unbounded arenas always fit (growth is their
        policy).
        """
        if self.max_pages is None:
            return True
        return int(n_pages) <= int(self.max_pages * watermark)

    # -- prefix cache ----------------------------------------------------------

    def _touch(self) -> int:
        self._tick += 1
        return self._tick

    def _walk_prefix(self, tokens: Tuple[int, ...]) -> List[_PrefixNode]:
        """Longest chain of cached full pages covering a prompt's head."""
        ps = self.page_size
        nodes: List[_PrefixNode] = []
        k = 1
        while k * ps <= len(tokens):
            node = self._prefix.get(tokens[: k * ps])
            if node is None:
                break
            nodes.append(node)
            k += 1
        return nodes

    def probe_prefix(self, tokens: Sequence[int]) -> int:
        """Reusable-row count a session with this prompt would get on a hit.

        Read-only (no refcounts move, no LRU ticks): admission control uses it
        to charge only the *novel* suffix of a prompt against the page budget.
        Capped at ``len(tokens) - 1`` because the last prompt row's logits must
        always be computed live to sample the first token.
        """
        tokens = tuple(int(t) for t in tokens)
        matched = len(self._walk_prefix(tokens)) * self.page_size
        return max(0, min(matched, len(tokens) - 1))

    def acquire_prefix(
        self, session_id: int, tokens: Sequence[int]
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        """Map cached prompt pages into an empty session's page table.

        Returns ``(n_reused, row_attended, row_total)``: the number of prompt
        rows whose KV is now mapped (prefill may skip computing them) and the
        per-row attention counts the registering prefill recorded for exactly
        those rows (for bit-exact metrics).  ``(0, None, None)`` on a miss.
        Attached pages are shared read-only -- refcounts go up, and the first
        append into a partially-consumed tail page copies it
        (:meth:`_ensure_writable`).
        """
        entry = self._sessions[session_id]
        if entry.pages or entry.lengths.any():
            raise RuntimeError("acquire_prefix requires an empty session")
        tokens = tuple(int(t) for t in tokens)
        nodes = self._walk_prefix(tokens)
        n_reused = max(0, min(len(nodes) * self.page_size, len(tokens) - 1))
        if n_reused <= 0:
            self.stats.prefix_misses += 1
            return 0, None, None
        n_attach = -(-n_reused // self.page_size)
        for node in nodes[:n_attach]:
            page = node.page
            if page in self._ref:
                self._ref[page] += 1  # shared with another live session
            else:
                # revive an idle cached page: back in use without a fault
                self._ref[page] = 1
                self.stats.cached_idle_pages -= 1
                self.stats.pages_in_use += 1
                self.stats.peak_pages_in_use = max(
                    self.stats.peak_pages_in_use, self.stats.pages_in_use
                )
            node.tick = self._touch()
            entry.pages.append(page)
        entry.lengths[:] = n_reused
        self.stats.prefix_hits += 1
        self.stats.prefix_tokens_reused += n_reused
        self.stats.prefix_pages_shared += n_attach
        row_attended = np.concatenate(
            [node.row_attended for node in nodes[:n_attach]]
        )[:n_reused]
        row_total = np.concatenate(
            [node.row_total for node in nodes[:n_attach]]
        )[:n_reused]
        return n_reused, row_attended, row_total

    def register_prefix(
        self,
        session_id: int,
        tokens: Sequence[int],
        row_attended: Optional[np.ndarray] = None,
        row_total: Optional[np.ndarray] = None,
    ) -> int:
        """Index a fully-prefilled session's prompt pages under content keys.

        Every *full* page of the prompt becomes reusable by later sessions
        whose prompt starts with the same tokens.  ``row_attended`` /
        ``row_total`` must give the per-row attention counts (summed over
        layers) of the prompt rows; without them nothing is registered, since
        a later hit could not credit the skipped rows' metrics exactly.
        Already-known prefixes (e.g. this session itself was a cache hit)
        just refresh their LRU tick.  Returns the number of pages newly
        indexed.
        """
        if row_attended is None or row_total is None:
            return 0
        entry = self._sessions[session_id]
        tokens = tuple(int(t) for t in tokens)
        n_tokens = len(tokens)
        ps = self.page_size
        if int(entry.lengths.min()) < n_tokens:
            return 0  # prompt rows not fully materialised: nothing to share
        row_attended = np.asarray(row_attended, dtype=np.int64)
        row_total = np.asarray(row_total, dtype=np.int64)
        if row_attended.shape[0] < n_tokens or row_total.shape[0] < n_tokens:
            return 0
        added = 0
        for k in range(1, n_tokens // ps + 1):
            key = tokens[: k * ps]
            node = self._prefix.get(key)
            if node is not None:
                node.tick = self._touch()
                continue
            page = entry.pages[k - 1]
            if page in self._page_key:
                continue  # already backs another key; never corrupt the 1:1 map
            self._prefix[key] = _PrefixNode(
                page,
                row_attended[(k - 1) * ps : k * ps].copy(),
                row_total[(k - 1) * ps : k * ps].copy(),
                self._touch(),
            )
            self._page_key[page] = key
            added += 1
        return added

    # -- appends ---------------------------------------------------------------

    def seq_len(self, session_id: int, layer: int = 0) -> int:
        return int(self._sessions[session_id].lengths[layer])

    def append(
        self, session_id: int, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Append K/V rows for one layer of one session (allocating pages)."""
        entry = self._sessions[session_id]
        keys = np.atleast_2d(np.asarray(keys, dtype=self._fp_dtype))
        values = np.atleast_2d(np.asarray(values, dtype=self._fp_dtype))
        if keys.shape != values.shape:
            raise ValueError("keys and values must have identical shapes")
        if keys.shape[1] != self.hidden_size:
            raise ValueError(
                f"expected rows of width {self.hidden_size}, got {keys.shape[1]}"
            )
        int8 = self._k_scale is not None
        if int8:
            # quantise per row *before* placement: the stored bits depend
            # only on the float row itself, never on its page neighbours
            keys, k_scales = self._quantise_rows(keys)
            values, v_scales = self._quantise_rows(values)
        n_new = keys.shape[0]
        ps = self.page_size
        old = int(entry.lengths[layer])
        new = old + n_new
        needed_pages = -(-new // ps)
        while len(entry.pages) < needed_pages:
            entry.pages.append(self._take_page())
        pos, row = old, 0
        while row < n_new:
            idx = pos // ps
            self._ensure_writable(entry, idx)
            page = entry.pages[idx]
            slot = pos % ps
            n = min(ps - slot, n_new - row)
            self._k[layer, page, slot : slot + n] = keys[row : row + n]
            self._v[layer, page, slot : slot + n] = values[row : row + n]
            if int8:
                self._k_scale[layer, page, slot : slot + n] = k_scales[
                    row : row + n
                ]
                self._v_scale[layer, page, slot : slot + n] = v_scales[
                    row : row + n
                ]
            pos += n
            row += n
        entry.lengths[layer] = new
        self.stats.tokens_appended += n_new

    def _quantise_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetric per-row int8 quantisation: ``(q_rows, scales)``.

        ``scale = max|row| / 127`` (1.0 for an all-zero row, so dequantising
        reproduces it exactly); rounding is banker's ``np.rint``.  Per-row
        scales make each stored row independent of append chunking and page
        placement, which is what keeps the fused/serial/snapshot paths
        bit-identical to each other in int8 mode.
        """
        amax = np.abs(rows).max(axis=1)
        scales = np.where(amax > 0.0, amax / 127.0, 1.0).astype(self._fp_dtype)
        q = np.clip(np.rint(rows / scales[:, None]), -127, 127).astype(np.int8)
        return q, scales

    def _dequant(self, q: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Dequantise int8 rows back to the logical float dtype."""
        out = q.astype(self._fp_dtype) * scales[..., None]
        self.stats.dequant_bytes += out.nbytes
        return out

    def _ensure_writable(self, entry: _Session, idx: int) -> None:
        """Copy-on-write guard: give the session a private copy of page ``idx``.

        A page must not be written while anyone else reads it -- another
        session (refcount > 1) or the prefix index itself (the page backs a
        registered prefix, so its rows must stay exactly the registered
        content).  All layers are copied at once because page tables are
        shared across layers: the first layer's append re-points the table and
        every later layer writes the (already writable) copy in place.  The
        copied rows are bit-identical, so live gather caches stay valid.
        """
        page = entry.pages[idx]
        if self._ref.get(page, 1) <= 1 and page not in self._page_key:
            return
        new_page = self._take_page()
        self._k[:, new_page] = self._k[:, page]
        self._v[:, new_page] = self._v[:, page]
        if self._k_scale is not None:
            self._k_scale[:, new_page] = self._k_scale[:, page]
            self._v_scale[:, new_page] = self._v_scale[:, page]
        entry.pages[idx] = new_page
        self.stats.cow_copies += 1
        self._release_page(page)

    def append_batch(
        self,
        layer: int,
        session_ids: Sequence[int],
        keys_list: Sequence[np.ndarray],
        values_list: Sequence[np.ndarray],
    ) -> None:
        """Append ragged K/V row blocks to many sessions' one layer at once.

        The batched-prefill entry point: chunk rows for the whole mixed batch
        land in the pool through one call per layer instead of ``B`` separate
        :meth:`KVCache.append` hops, and each session's page faults for the
        whole chunk are taken in a single allocation pass (the multi-row
        analogue of the one-token decode append).  Equivalent to calling
        :meth:`append` per session in order.
        """
        if not (len(session_ids) == len(keys_list) == len(values_list)):
            raise ValueError("session_ids, keys and values must align")
        for sid, keys, values in zip(session_ids, keys_list, values_list):
            self.append(sid, layer, keys, values)

    def _take_page(self) -> int:
        if not self._free and not self._grow() and not self._evict_idle_page():
            raise RuntimeError(
                f"arena exhausted: {self.stats.pages_in_use} pages in use, "
                f"{len(self._free)} free, {self.stats.cached_idle_pages} "
                f"cached idle, max_pages={self.max_pages}"
            )
        page = self._free.pop()
        self._ref[page] = 1
        self.stats.page_faults += 1
        self.stats.pages_in_use += 1
        self.stats.peak_pages_in_use = max(
            self.stats.peak_pages_in_use, self.stats.pages_in_use
        )
        return page

    def _grow(self) -> bool:
        """Double the pool (bounded by ``max_pages``); false when capped."""
        old_n = self.n_pages
        new_n = old_n * 2
        if self.max_pages is not None:
            new_n = min(new_n, self.max_pages)
        if new_n <= old_n:
            return False
        shape = (self.n_layers, new_n, self.page_size, self.hidden_size)
        for attr in ("_k", "_v"):
            grown = _lazy_zeros(shape, self._k.dtype)
            grown[:, :old_n] = getattr(self, attr)
            setattr(self, attr, grown)
        if self._k_scale is not None:
            scale_shape = (self.n_layers, new_n, self.page_size)
            for attr in ("_k_scale", "_v_scale"):
                grown = _lazy_zeros(scale_shape, self._fp_dtype)
                grown[:, :old_n] = getattr(self, attr)
                setattr(self, attr, grown)
        self._free.extend(range(new_n - 1, old_n - 1, -1))
        self.stats.pool_grows += 1
        self.stats.n_pages = new_n
        return True

    def _evict_idle_page(self) -> bool:
        """Reclaim the least-recently-used idle cached page onto the free list."""
        best_key = None
        best_node = None
        for key, node in self._prefix.items():
            if node.page in self._ref:
                continue  # live: some session still maps it
            if best_node is None or node.tick < best_node.tick:
                best_key, best_node = key, node
        if best_node is None:
            return False
        del self._prefix[best_key]
        del self._page_key[best_node.page]
        self._free.append(best_node.page)
        self.stats.pages_freed += 1
        self.stats.cached_idle_pages -= 1
        self.stats.prefix_evictions += 1
        return True

    # -- snapshot preemption ---------------------------------------------------

    def snapshot_session(self, session_id: int) -> KVSnapshot:
        """Copy a session's KV off-arena and free its live pages.

        The snapshot-preemption entry point: the session stays open (its id,
        page-table slot and write cursors survive, zeroed) but holds no pages
        afterwards, so the arena capacity a preempted victim occupied is
        available to more urgent work immediately.  Pages someone else also
        reads -- shared with another session or backing a registered prefix
        -- are recorded *by reference*: the session's refcount transfers to
        the snapshot (the page stays ``pages_in_use`` and cannot be evicted),
        so shared prefix heads cost no copy at all.  Exclusively-owned pages
        are copied out in pool dtype (int8 snapshots are ~8x smaller) and
        freed.  :meth:`restore_session` reverses the whole operation
        bit-identically; a snapshot that will never be restored must be
        released through :meth:`discard_snapshot`.
        """
        entry = self._sessions[session_id]
        entries: List[tuple] = []
        copied_bytes = 0
        for page in entry.pages:
            if self._ref.get(page, 1) > 1 or page in self._page_key:
                # shared read-only page: keep it resident, move our refcount
                # onto the snapshot instead of dropping it
                entries.append(("ref", page))
                continue
            k = self._k[:, page].copy()
            v = self._v[:, page].copy()
            if self._k_scale is not None:
                k_scale = self._k_scale[:, page].copy()
                v_scale = self._v_scale[:, page].copy()
                copied_bytes += k_scale.nbytes + v_scale.nbytes
            else:
                k_scale = None
                v_scale = None
            copied_bytes += k.nbytes + v.nbytes
            entries.append(("data", k, v, k_scale, v_scale))
            self._release_page(page)
        lengths = entry.lengths.copy()
        entry.pages = []
        entry.lengths[:] = 0
        self._clamp_views(session_id)
        self.stats.snapshots_taken += 1
        self.stats.snapshot_bytes += copied_bytes
        return KVSnapshot(lengths=lengths, entries=entries)

    def restore_session(self, session_id: int, snapshot: KVSnapshot) -> None:
        """Fault a snapshot's pages back into an empty session, in place.

        Referenced pages re-attach directly (the refcount the snapshot held
        transfers back to the session); copied pages fault fresh pages and
        write the rows -- and, in int8 mode, their scales -- bit-identically.
        No forward pass and no append happens: ``tokens_appended`` is
        untouched, which is exactly the re-prefill compute a snapshot resume
        saves.  The snapshot is consumed (its entries are cleared); restoring
        requires the session to hold no rows, and exhausting ``max_pages``
        raises like any other allocation.
        """
        entry = self._sessions[session_id]
        if entry.pages or entry.lengths.any():
            raise RuntimeError(
                f"restore_session requires an empty session; session "
                f"{session_id} still holds {len(entry.pages)} pages"
            )
        for e in snapshot.entries:
            if e[0] == "ref":
                entry.pages.append(e[1])
                continue
            _, k, v, k_scale, v_scale = e
            page = self._take_page()
            self._k[:, page] = k
            self._v[:, page] = v
            if k_scale is not None:
                self._k_scale[:, page] = k_scale
                self._v_scale[:, page] = v_scale
            entry.pages.append(page)
        entry.lengths[:] = snapshot.lengths
        snapshot.entries = []
        self.stats.snapshots_restored += 1

    def discard_snapshot(self, snapshot: KVSnapshot) -> None:
        """Release a snapshot that will never be restored (cancel/fail paths).

        Drops the page references the snapshot pinned -- each page parks
        idle-cached or returns to the free list exactly as if the session had
        released it -- and clears the off-arena data.  Idempotent.
        """
        entries, snapshot.entries = snapshot.entries, []
        for e in entries:
            if e[0] == "ref":
                self._release_page(e[1])

    # -- truncation (KVCache.clear + speculative rollback support) -------------

    def truncate_session(self, session_id: int, n_rows: int) -> None:
        """Pop the last ``n_rows`` token rows from *every* layer of a session.

        The speculative-decode rollback primitive: after a fused verify pass
        rejects some draft tokens, their already-appended KV rows are
        discarded by moving every layer's write cursor back ``n_rows`` and
        releasing any page that became empty (through :meth:`_release_page`,
        so shared/registered pages park or decrement refs exactly like a
        session teardown would).  Rows inside a kept partial page are *not*
        zeroed -- lengths govern every read, and the next append overwrites
        them -- and draft rows always live in pages the session owns
        privately (copy-on-write fires before any append into a shared
        page), so truncation can never scribble on a prefix-cache page or a
        sibling session.  Requires every layer to hold at least ``n_rows``
        rows.  ``n_rows == 0`` is a no-op.
        """
        n_rows = int(n_rows)
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        if n_rows == 0:
            return
        entry = self._sessions[session_id]
        if n_rows > int(entry.lengths.min()):
            raise ValueError(
                f"cannot truncate {n_rows} rows from session {session_id}: "
                f"shortest layer holds {int(entry.lengths.min())}"
            )
        new_max = int(entry.lengths.max()) - n_rows
        keep = -(-new_max // self.page_size) if new_max > 0 else 0
        for page in reversed(entry.pages[keep:]):
            self._release_page(page)
        del entry.pages[keep:]
        entry.lengths -= n_rows
        self._clamp_views(session_id)
        self.stats.rows_rolled_back += n_rows

    def clear_layer(self, session_id: int, layer: int) -> None:
        """Reset one layer's write cursor; pages free once every layer is empty."""
        entry = self._sessions[session_id]
        entry.lengths[layer] = 0
        self._clamp_views(session_id)
        if not entry.lengths.any():
            self._release_pages(entry)

    # -- materialisation -------------------------------------------------------

    def _session_rows(
        self,
        pool: np.ndarray,
        scale: Optional[np.ndarray],
        session_id: int,
        layer: int,
    ) -> np.ndarray:
        entry = self._sessions[session_id]
        length = int(entry.lengths[layer])
        if length == 0:
            return np.empty((0, self.hidden_size), dtype=self._fp_dtype)
        ps = self.page_size
        pages = np.asarray(entry.pages[: -(-length // ps)], dtype=np.int64)
        rows = pool[layer, pages].reshape(-1, self.hidden_size)[:length]
        # copy traffic is counted in pool bytes (what actually moved); int8
        # dequantisation additionally reports the float bytes it produced
        self.stats.view_bytes_copied += rows.nbytes
        if scale is not None:
            rows = self._dequant(rows, scale[layer, pages].reshape(-1)[:length])
        return rows

    def session_keys(self, session_id: int, layer: int) -> np.ndarray:
        """Contiguous ``(seq_len, hidden)`` copy of one session's keys.

        Always in the logical float dtype: int8 pools dequantise on the way
        out, so attention consumers never see quantised storage.
        """
        return self._session_rows(self._k, self._k_scale, session_id, layer)

    def session_values(self, session_id: int, layer: int) -> np.ndarray:
        """Contiguous ``(seq_len, hidden)`` copy of one session's values."""
        return self._session_rows(self._v, self._v_scale, session_id, layer)

    def gather_batch(
        self, layer: int, session_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded ``(B, max_len, hidden)`` K/V views for one layer's batch.

        The returned arrays are views into a per-layer batch buffer that the
        arena keeps between calls.  For each stream it caches a length that
        is at most the session's true length, with the rows below it exact
        copies of the pool (dequantised in int8 mode), so a call copies only
        the rows above the cached length: one row per stream on a decode
        step, a chunk on a verify step, and after a speculative rollback
        (:meth:`truncate_session` clamps the cached length) just the rows
        re-appended past the kept prefix.

        A change of batch composition, or a batch that outgrows the buffer,
        rebuilds the view.  The existing buffers are reused when they are
        large enough, and a stream that keeps its row in them keeps its
        cached rows; otherwise fresh zeroed buffers are allocated with a few
        pages of headroom.  Every other stream is copied from row zero.
        Buffers are dropped once the arena holds no session.  Rows past each
        stream's length are stale but finite padding (zeros or rows copied
        earlier); callers mask them, and ``0 * pad`` stays exactly zero.

        Returns ``(keys, values, lengths)``; the views stay valid until the
        next ``gather_batch`` / ``free`` / ``clear_layer`` call.
        """
        sids = tuple(session_ids)
        if not sids:
            raise ValueError("session_ids must not be empty")
        entries = [self._sessions[s] for s in sids]
        lengths = np.array([int(e.lengths[layer]) for e in entries], dtype=np.int64)
        n_batch = len(sids)
        max_len = int(lengths.max())
        ps = self.page_size
        span = max(1, -(-max_len // ps)) * ps
        view = self._gather[layer]
        fresh = view is not None and view.sids == sids and view.k.shape[1] >= max_len
        if not fresh:
            if view is None or view.k.shape[0] < n_batch or view.k.shape[1] < span:
                # np.zeros, not zeros_like: untouched headroom stays unresident
                shape = (n_batch, span + 8 * ps, self.hidden_size)
                view = _BatchView(
                    sids,
                    np.zeros(shape, dtype=self._fp_dtype),
                    np.zeros(shape, dtype=self._fp_dtype),
                )
            else:
                # streams that keep their row keep their cached rows
                old, view = view, _BatchView(sids, view.k, view.v)
                for b, sid in enumerate(old.sids[:n_batch]):
                    if sids[b] == sid:
                        view.cached[b] = old.cached[b]
            self._gather[layer] = view
        n_rows = self._copy_new_rows(layer, view, entries, lengths)
        if fresh:
            self.stats.gather_incremental += 1
        else:
            # a rebuild is charged the batch's whole padded page span, the
            # view region it re-establishes, not just the rows it copied
            self.stats.gather_rebuilds += 1
            n_rows = n_batch * span
        self.stats.gather_bytes_copied += (
            2 * n_rows * self.hidden_size * self._k.itemsize
        )
        return view.k[:n_batch, :max_len], view.v[:n_batch, :max_len], lengths

    def _copy_new_rows(
        self,
        layer: int,
        view: _BatchView,
        entries: Sequence[_Session],
        lengths: np.ndarray,
    ) -> int:
        """Copy every stream's rows ``[view.cached[b], lengths[b])`` into the view.

        One vectorised gather/scatter per pool for the whole batch, whatever
        the per-stream row counts (decode rows, verify chunks, a rebuild's
        full contexts); int8 pools dequantise on the way.  Returns the number
        of rows copied.
        """
        cached = view.cached
        delta = lengths - cached
        ends = np.cumsum(delta)
        n_rows = int(ends[-1])
        if n_rows == 0:
            return 0
        # one entry per copied row: its stream and its position in the stream
        row_b = np.repeat(np.arange(len(delta)), delta)
        pos = np.arange(n_rows) + (cached + delta - ends)[row_b]
        page_idx, slot = np.divmod(pos, self.page_size)
        # the batch's page tables as one (max_pages, B) array
        table = np.array(
            list(zip_longest(*(e.pages for e in entries), fillvalue=0)),
            dtype=np.int64,
        )
        pages = table[page_idx, row_b]
        for pool, scale, buf in (
            (self._k, self._k_scale, view.k),
            (self._v, self._v_scale, view.v),
        ):
            rows = pool[layer, pages, slot]
            if scale is not None:
                rows = self._dequant(rows, scale[layer, pages, slot])
            buf[row_b, pos] = rows
        view.cached = lengths.copy()
        return n_rows
