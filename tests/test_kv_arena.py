"""Property suite for :class:`repro.serve.kv_arena.PagedKVArena`.

Random page sizes, session lifetimes and append patterns are replayed in
parallel against plain reference rows and standalone
:class:`~repro.model.attention.KVCache` buffers (the storage of record for
the stacking path).  Invariants pinned here:

* ``gather_batch`` output equals the appended rows and the single-stream
  ``session_keys``/``session_values`` views exactly (bit-for-bit), in fp and
  int8 mode, for any interleaving of appends, frees, rollbacks, layer
  clears, snapshots and batch compositions -- including the incremental
  refresh right after a rewind;
* a rollback over a stable batch rewinds the batch view instead of
  rebuilding it;
* freed pages are reused before the pool grows, and occupancy
  (``pages_in_use``) always equals the live sessions' page demand and never
  exceeds the pool;
* the arena-backed ``KVCache`` handle behaves like a standalone cache
  (views, ``seq_len``, ``clear``, ``release``).

The hypothesis profile is deterministic (derandomized, no deadline) so CI
runs are reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attention import KVCache
from repro.serve import PagedKVArena

# deterministic on CI: no wall-clock deadline, fixed example sequence
FUZZ = settings(max_examples=30, deadline=None, derandomize=True)


def _expected_pages(lengths, page_size):
    """Page demand of one session given its per-layer lengths."""
    max_len = int(max(lengths))
    return -(-max_len // page_size) if max_len else 0


def _replay_random_lifetime(seed, kv_dtype=None):
    """Replay random arena events against plain per-layer reference rows.

    Events: open, append, free, speculative rollback (``truncate_session``,
    often across page boundaries) followed by a refill with different rows,
    ``clear_layer``, ``snapshot_session`` then ``restore_session`` or
    ``discard_snapshot`` and a refill from empty, and batch
    gathers that often repeat the previous composition, so the incremental
    refresh runs right after rewinds.  Every gathered row must equal the
    session's single-stream view (``session_keys``/``session_values``)
    bit for bit -- and, in fp mode, the appended rows themselves -- and
    the padding rows must be finite, since attention's ``0 * pad`` relies
    on it.
    """
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, 4))
    hidden = int(rng.integers(1, 12))
    page_size = int(rng.integers(1, 8))
    arena = PagedKVArena(
        n_layers,
        hidden,
        page_size=page_size,
        initial_pages=int(rng.integers(1, 6)),
        kv_dtype=kv_dtype,
    )
    fp = kv_dtype is None
    # sid -> per-layer [keys, values] reference rows (the appended floats)
    live = {}
    held = {}  # sid -> pages its page table should hold
    snapped = {}  # sid -> KVSnapshot of a session parked off-arena
    last_batch = []

    def ready():
        return [s for s in live if s not in snapped]

    def append(sid, n_rows):
        for layer in range(n_layers):
            k = rng.normal(size=(n_rows, hidden))
            v = rng.normal(size=(n_rows, hidden))
            arena.append(sid, layer, k, v)
            ref = live[sid][layer]
            ref[0] = np.concatenate([ref[0], k])
            ref[1] = np.concatenate([ref[1], v])
        held[sid] = max(held[sid], _expected_pages(layer_lengths(sid), page_size))

    def seq_len(sid, layer):
        return live[sid][layer][0].shape[0]

    def layer_lengths(sid):
        return [seq_len(sid, layer) for layer in range(n_layers)]

    for _ in range(int(rng.integers(10, 60))):
        op = rng.random()
        sids = ready()
        if op < 0.15 or not sids:  # open a session
            sid = arena.create_session()
            live[sid] = [
                [np.empty((0, hidden)), np.empty((0, hidden))]
                for _ in range(n_layers)
            ]
            held[sid] = 0
        elif op < 0.45:  # append the same number of rows to every layer
            sid = sids[int(rng.integers(0, len(sids)))]
            append(sid, int(rng.integers(1, 2 * page_size + 2)))
        elif op < 0.52:  # free a session
            sid = sids[int(rng.integers(0, len(sids)))]
            arena.free(sid)
            del live[sid], held[sid]
        elif op < 0.62:  # rollback, then refill with fresh rows
            sid = sids[int(rng.integers(0, len(sids)))]
            shortest = min(seq_len(sid, layer) for layer in range(n_layers))
            n_rows = int(rng.integers(0, shortest + 1))
            arena.truncate_session(sid, n_rows)
            for ref in live[sid]:
                ref[0] = ref[0][: ref[0].shape[0] - n_rows]
                ref[1] = ref[1][: ref[1].shape[0] - n_rows]
            held[sid] = _expected_pages(layer_lengths(sid), page_size)
            if rng.random() < 0.8:
                append(sid, int(rng.integers(1, 2 * page_size + 2)))
        elif op < 0.67:  # clear one layer
            sid = sids[int(rng.integers(0, len(sids)))]
            layer = int(rng.integers(0, n_layers))
            arena.clear_layer(sid, layer)
            live[sid][layer] = [np.empty((0, hidden)), np.empty((0, hidden))]
            # pages stay mapped until every layer is empty
            if not any(layer_lengths(sid)):
                held[sid] = 0
        elif op < 0.72:  # park a session off-arena
            sid = sids[int(rng.integers(0, len(sids)))]
            snapped[sid] = arena.snapshot_session(sid)
        elif op < 0.77 and snapped:  # bring a parked session back
            sid = list(snapped)[int(rng.integers(0, len(snapped)))]
            if rng.random() < 0.7:
                arena.restore_session(sid, snapped.pop(sid))
            else:  # or drop its rows: it refills from empty
                arena.discard_snapshot(snapped.pop(sid))
                live[sid] = [
                    [np.empty((0, hidden)), np.empty((0, hidden))]
                    for _ in range(n_layers)
                ]
                held[sid] = 0
        else:  # gather a batch and compare bit-for-bit
            if last_batch and all(s in sids for s in last_batch) and rng.random() < 0.6:
                batch = last_batch
            else:
                batch = [s for s in sids if rng.random() < 0.7]
            if not batch:
                continue
            last_batch = batch
            layer = int(rng.integers(0, n_layers))
            keys, values, lengths = arena.gather_batch(layer, batch)
            assert np.isfinite(keys).all() and np.isfinite(values).all()
            for b, sid in enumerate(batch):
                n = int(lengths[b])
                assert n == seq_len(sid, layer)
                assert np.array_equal(keys[b, :n], arena.session_keys(sid, layer))
                assert np.array_equal(
                    values[b, :n], arena.session_values(sid, layer)
                )
                if fp:
                    assert np.array_equal(keys[b, :n], live[sid][layer][0])
                    assert np.array_equal(values[b, :n], live[sid][layer][1])

        # occupancy invariants hold after every operation; a parked
        # session holds no pages (nothing here is shared, so nothing is
        # pinned by reference)
        demand = sum(held[s] for s in ready())
        assert arena.stats.pages_in_use == demand
        assert arena.stats.pages_in_use <= arena.n_pages
        assert arena.stats.n_pages == arena.n_pages
        assert arena.stats.peak_pages_in_use <= arena.n_pages

    for sid, snapshot in list(snapped.items()):
        arena.restore_session(sid, snapshot)
    for sid in list(live):
        arena.free(sid)
    assert arena.stats.pages_in_use == 0
    assert arena.stats.page_faults == arena.stats.pages_freed


class TestArenaVsStandaloneReference:
    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_lifetimes_match_reference_exactly(self, seed):
        _replay_random_lifetime(seed)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_int8_lifetimes_match_session_views_exactly(self, seed):
        _replay_random_lifetime(seed, kv_dtype="int8")

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_incremental_refresh_equals_fresh_rebuild(self, seed):
        """Repeated gathers over a stable batch == a cold gather's answer."""
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(1, 10))
        page_size = int(rng.integers(1, 6))
        arena = PagedKVArena(1, hidden, page_size=page_size, initial_pages=2)
        n_sessions = int(rng.integers(1, 5))
        sids = [arena.create_session() for _ in range(n_sessions)]
        refs = {sid: KVCache() for sid in sids}
        for sid in sids:  # ragged initial contexts
            rows = int(rng.integers(1, 3 * page_size))
            k, v = rng.normal(size=(2, rows, hidden))
            arena.append(sid, 0, k, v)
            refs[sid].append(k, v)

        arena.gather_batch(0, sids)  # prime the per-layer cache (rebuild)
        for _ in range(int(rng.integers(1, 12))):
            for sid in sids:  # one decode step: one new row everywhere
                k, v = rng.normal(size=(2, 1, hidden))
                arena.append(sid, 0, k, v)
                refs[sid].append(k, v)
            keys, values, lengths = arena.gather_batch(0, sids)
            for b, sid in enumerate(sids):
                assert np.array_equal(keys[b, : lengths[b]], refs[sid].keys)
                assert np.array_equal(values[b, : lengths[b]], refs[sid].values)
        assert arena.stats.gather_incremental > 0


class TestPageReuse:
    def test_freed_pages_are_reused_without_growth(self):
        arena = PagedKVArena(1, 4, page_size=2, initial_pages=4)
        a = arena.create_session()
        arena.append(a, 0, np.ones((8, 4)), np.ones((8, 4)))  # all 4 pages
        assert arena.stats.pages_in_use == 4
        assert arena.stats.pool_grows == 0
        arena.free(a)
        assert arena.stats.pages_in_use == 0
        b = arena.create_session()
        arena.append(b, 0, np.zeros((8, 4)), np.zeros((8, 4)))
        # the second session fits entirely in recycled pages: no growth
        assert arena.n_pages == 4
        assert arena.stats.pool_grows == 0
        assert arena.stats.page_faults == 8
        assert arena.stats.pages_freed == 4

    def test_pool_grows_when_free_list_is_dry(self):
        arena = PagedKVArena(1, 4, page_size=2, initial_pages=1)
        sid = arena.create_session()
        arena.append(sid, 0, np.ones((7, 4)), np.ones((7, 4)))  # 4 pages
        assert arena.n_pages >= 4
        assert arena.stats.pool_grows >= 1
        k = arena.session_keys(sid, 0)
        assert k.shape == (7, 4) and np.array_equal(k, np.ones((7, 4)))

    def test_max_pages_bound_is_enforced(self):
        arena = PagedKVArena(1, 4, page_size=2, initial_pages=2, max_pages=2)
        sid = arena.create_session()
        arena.append(sid, 0, np.ones((4, 4)), np.ones((4, 4)))
        with pytest.raises(RuntimeError, match="exhausted"):
            arena.append(sid, 0, np.ones((1, 4)), np.ones((1, 4)))

    def test_cleared_then_refilled_session_serves_fresh_rows(self):
        """A cleared+refilled session must not serve stale cached rows."""
        arena = PagedKVArena(1, 3, page_size=2, initial_pages=2)
        sid = arena.create_session()
        arena.append(sid, 0, np.full((3, 3), 1.0), np.full((3, 3), 2.0))
        arena.gather_batch(0, [sid])  # cache now holds the 1.0 rows
        arena.clear_layer(sid, 0)
        assert arena.stats.pages_in_use == 0
        arena.append(sid, 0, np.full((3, 3), 9.0), np.full((3, 3), 8.0))
        keys, values, lengths = arena.gather_batch(0, [sid])
        assert np.array_equal(keys[0, :3], np.full((3, 3), 9.0))
        assert np.array_equal(values[0, :3], np.full((3, 3), 8.0))


class TestBatchViewRewind:
    def test_rollback_and_refill_refresh_incrementally(self):
        """A rollback over a stable batch rewinds the view, no rebuild.

        Only the refilled rows are copied: the kept prefix -- here across a
        page boundary -- is served from the view as it was.
        """
        arena = PagedKVArena(2, 4, page_size=4, initial_pages=4)
        a, b = arena.create_session(), arena.create_session()
        rows = {a: np.arange(40.0).reshape(10, 4), b: -np.arange(28.0).reshape(7, 4)}
        for sid, r in rows.items():
            for layer in range(2):
                arena.append(sid, layer, r, r + 0.5)
        arena.gather_batch(1, [a, b])
        rebuilds = arena.stats.gather_rebuilds
        incremental = arena.stats.gather_incremental
        copied = arena.stats.gather_bytes_copied

        arena.truncate_session(a, 7)  # 10 -> 3 rows: drops two pages
        refill = np.full((5, 4), 99.0)
        for layer in range(2):
            arena.append(a, layer, refill, refill + 0.5)
        keys, values, lengths = arena.gather_batch(1, [a, b])

        assert arena.stats.gather_rebuilds == rebuilds
        assert arena.stats.gather_incremental == incremental + 1
        # only the five refilled rows were copied, K and V
        assert arena.stats.gather_bytes_copied - copied == 2 * 5 * 4 * 8
        expected = np.concatenate([rows[a][:3], refill])
        assert lengths.tolist() == [8, 7]
        assert np.array_equal(keys[0, :8], expected)
        assert np.array_equal(values[0, :8], expected + 0.5)
        assert np.array_equal(keys[1, :7], rows[b])

    def test_snapshot_then_refill_serves_fresh_rows(self):
        """A parked session refilled from empty must not see its old rows."""
        arena = PagedKVArena(1, 2, page_size=2)
        a, b = arena.create_session(), arena.create_session()
        arena.append(a, 0, np.full((3, 2), 1.0), np.full((3, 2), 2.0))
        arena.append(b, 0, np.full((2, 2), 3.0), np.full((2, 2), 4.0))
        arena.gather_batch(0, [a, b])
        arena.discard_snapshot(arena.snapshot_session(a))
        arena.append(a, 0, np.full((4, 2), 7.0), np.full((4, 2), 8.0))
        keys, values, lengths = arena.gather_batch(0, [a, b])
        assert lengths.tolist() == [4, 2]
        assert np.array_equal(keys[0, :4], np.full((4, 2), 7.0))
        assert np.array_equal(values[0, :4], np.full((4, 2), 8.0))

    def test_views_are_released_when_the_arena_goes_idle(self):
        arena = PagedKVArena(1, 4, page_size=2)
        sid = arena.create_session()
        arena.append(sid, 0, np.ones((3, 4)), np.ones((3, 4)))
        arena.gather_batch(0, [sid])
        assert arena._gather[0] is not None
        arena.free(sid)
        assert arena._gather == [None]


class TestArenaBackedKVCacheHandle:
    def test_handle_matches_standalone_views(self):
        rng = np.random.default_rng(0)
        arena = PagedKVArena(2, 6, page_size=3)
        handles = arena.new_session_caches()
        refs = [KVCache(), KVCache()]
        assert all(h.keys is None and h.seq_len == 0 for h in handles)
        for _ in range(5):
            for layer, (handle, ref) in enumerate(zip(handles, refs)):
                k, v = rng.normal(size=(2, 2, 6))
                handle.append(k, v)
                ref.append(k, v)
        for handle, ref in zip(handles, refs):
            assert handle.seq_len == ref.seq_len
            assert np.array_equal(handle.keys, ref.keys)
            assert np.array_equal(handle.values, ref.values)
            assert handle.arena is arena

    def test_clear_frees_pages_once_all_layers_clear(self):
        arena = PagedKVArena(2, 4, page_size=2)
        handles = arena.new_session_caches()
        for handle in handles:
            handle.append(np.ones((3, 4)), np.ones((3, 4)))
        assert arena.stats.pages_in_use == 2
        handles[0].clear()
        assert handles[0].seq_len == 0 and handles[0].keys is None
        assert arena.stats.pages_in_use == 2  # layer 1 still live
        handles[1].clear()
        assert arena.stats.pages_in_use == 0

    def test_release_frees_whole_session_idempotently(self):
        arena = PagedKVArena(2, 4, page_size=2)
        handles = arena.new_session_caches()
        handles[0].append(np.ones((2, 4)), np.ones((2, 4)))
        sid = handles[0].arena_session
        assert arena.has_session(sid)
        handles[0].release()
        assert not arena.has_session(sid)
        handles[1].release()  # second handle: no-op, no KeyError
        assert arena.stats.sessions_freed == 1

    def test_released_handle_reads_like_a_cleared_cache(self):
        """Post-release accessors mirror standalone clear(); writes error."""
        arena = PagedKVArena(1, 4, page_size=2)
        (handle,) = arena.new_session_caches()
        handle.append(np.ones((3, 4)), np.ones((3, 4)))
        handle.release()
        assert handle.seq_len == 0
        assert handle.keys is None and handle.values is None
        handle.clear()  # no-op, not an error
        with pytest.raises(RuntimeError, match="released"):
            handle.append(np.ones((1, 4)), np.ones((1, 4)))

    def test_append_after_free_raises(self):
        arena = PagedKVArena(1, 4)
        sid = arena.create_session()
        arena.free(sid)
        with pytest.raises(KeyError):
            arena.append(sid, 0, np.ones((1, 4)), np.ones((1, 4)))
        with pytest.raises(KeyError):
            arena.gather_batch(0, [sid])


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            PagedKVArena(0, 4)
        with pytest.raises(ValueError):
            PagedKVArena(1, 4, page_size=0)
        with pytest.raises(ValueError):
            PagedKVArena(1, 4, initial_pages=0)
        with pytest.raises(ValueError):
            PagedKVArena(1, 4, initial_pages=8, max_pages=4)
        with pytest.raises(ValueError):
            KVCache(arena=PagedKVArena(1, 4), session_id=None, layer=None)

    def test_append_shape_checks(self):
        arena = PagedKVArena(1, 4)
        sid = arena.create_session()
        with pytest.raises(ValueError, match="width"):
            arena.append(sid, 0, np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="identical"):
            arena.append(sid, 0, np.ones((2, 4)), np.ones((3, 4)))

    def test_gather_requires_sessions(self):
        arena = PagedKVArena(1, 4)
        with pytest.raises(ValueError, match="empty"):
            arena.gather_batch(0, [])
