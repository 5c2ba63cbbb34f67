"""Row-level deltas and incremental plan maintenance.

The paper's amortization argument (Figs. 11–12) is that an ongoing query
result is evaluated **once** and then served forever — time passing never
invalidates it, only explicit modifications do.  PR 1 wired modifications
to refreshes; this module makes the refresh itself proportional to the
modification instead of the database: change events carry *typed row
deltas* (:class:`Delta`), and a :class:`DeltaEvaluator` pushes those
deltas through a persistent physical operator tree, touching only the
rows that changed.

Design
------

* A :class:`Delta` is a pair of ongoing-tuple batches — ``inserted`` and
  ``deleted``.  Every modification names its rows (a bulk swap commits
  its exact multiset difference); only a dropped table has none, and
  that reaches listeners as ``None``, not as a delta.  A current update
  is a delete+insert pair coalesced by
  :meth:`~repro.engine.database.Table.batch` into one delta.

* Every physical operator (see :mod:`repro.engine.executor`) states its
  semantics once, as ``apply_delta(state, deltas)`` — the rule that maps
  child deltas to an output delta while advancing the operator's
  :class:`OperatorState`.  Full evaluation (``evaluate(state, inputs)``)
  is that same rule applied to one all-insert delta per input over a
  fresh state.

* States count **derivations** per output tuple (counting-based view
  maintenance over the set semantics of ongoing relations): a projection
  that collapses two inputs onto one output keeps count 2, and deleting
  one input decrements to 1 *without* emitting a delete.  Only the
  ``0 ↔ positive`` transitions propagate upward, so every delta flowing
  between operators is set-level and exact.

* Joins keep their build state cached (hash indexes per side) and probe
  only the delta side:  ``Δ(L ⋈ R) = ΔL ⋈ R_old  ∪  L_new ⋈ ΔR``.

* Anything non-incrementalizable — a cold state, an inconsistent count,
  an evicted top-k boundary — raises
  :class:`NonIncrementalDelta`; callers fall back to full re-evaluation
  **automatically** and the fallback is logged on the
  ``repro.engine.delta`` logger.

The exactness contract (checked by ``tests/properties/
test_delta_properties.py``): after any modification sequence, the
delta-maintained result equals a from-scratch evaluation of the plan.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.relation import OngoingRelation, ResultStore
from repro.relational.tuples import OngoingTuple

__all__ = [
    "Delta",
    "DeltaBuilder",
    "EMPTY_DELTA",
    "OperatorState",
    "NodeStats",
    "NonIncrementalDelta",
    "commit_changes",
    "DeltaEvaluator",
]


class NonIncrementalDelta(Exception):
    """Raised when a delta cannot be propagated incrementally.

    Catching this exception and re-evaluating the plan from scratch is
    always correct — it is the *automatic fallback* of the delta engine,
    never an error surfaced to users.

    The evaluator annotates the exception on its way up with the raising
    operator's identity (:attr:`operator`, :attr:`node_path`), the
    triggering table when one is known (:attr:`table`), and the shape of
    the delta being propagated (:attr:`delta_shape`), so fallback logs
    and metrics carry plan identity instead of a bare message.
    """

    #: Physical operator kind that raised (e.g. ``"HashJoin"``).
    operator: Optional[str] = None
    #: Stable tree path of the raising node (``"0.1"``); root is ``"0"``.
    node_path: Optional[str] = None
    #: Base table whose delta triggered the propagation, when known.
    table: Optional[str] = None
    #: Compact description of the offending delta (``"+3/-2"``), or
    #: ``"rebuild"`` when the maintainer's record asked for one.
    delta_shape: Optional[str] = None

    def annotate(self, **attrs: Optional[str]) -> "NonIncrementalDelta":
        """Attach context without overwriting what a deeper frame set."""
        for key, value in attrs.items():
            if value is not None and getattr(self, key, None) is None:
                setattr(self, key, value)
        return self


class Delta:
    """A typed row-level change: inserted and deleted ongoing tuples.

    ``inserted``/``deleted`` are multiset batches (a tuple may appear more
    than once, e.g. when a table holds duplicate rows).

    A delta emitted by a :class:`~repro.engine.database.Table` also names
    its **set-level** part: ``appeared`` are the inserted rows whose
    multiplicity left zero, ``vanished`` the deleted rows whose
    multiplicity reached zero.  The table decides both under its write
    lock, commit by commit — the only moment the multiplicities a
    modification met are known — and scans forward nothing else.  Deltas
    between operators are set-level throughout: there both default to
    ``inserted``/``deleted`` themselves (every row is a transition).
    """

    __slots__ = ("inserted", "deleted", "appeared", "vanished")

    def __init__(
        self,
        inserted: Tuple[OngoingTuple, ...] = (),
        deleted: Tuple[OngoingTuple, ...] = (),
        *,
        appeared: Optional[Iterable[OngoingTuple]] = None,
        vanished: Optional[Iterable[OngoingTuple]] = None,
    ):
        self.inserted = tuple(inserted)
        self.deleted = tuple(deleted)
        self.appeared = self.inserted if appeared is None else tuple(appeared)
        self.vanished = self.deleted if vanished is None else tuple(vanished)

    # Constructors ------------------------------------------------------

    @classmethod
    def insert(cls, rows: Iterable[OngoingTuple]) -> "Delta":
        return cls(inserted=tuple(rows))

    @classmethod
    def delete(cls, rows: Iterable[OngoingTuple]) -> "Delta":
        return cls(deleted=tuple(rows))

    @classmethod
    def update(
        cls, old: Iterable[OngoingTuple], new: Iterable[OngoingTuple]
    ) -> "Delta":
        """A current update: the terminated old rows plus their successors."""
        return cls(inserted=tuple(new), deleted=tuple(old))

    # Introspection -----------------------------------------------------

    def is_empty(self) -> bool:
        """``True`` iff the delta changes nothing."""
        return not self.inserted and not self.deleted

    def transitions(self) -> Dict[OngoingTuple, int]:
        """The net set-level change per row: ``+1`` entered the set,
        ``-1`` left it, ``0`` did both (several commits coalesced).

        A row's transitions alternate, so their sum over any run of
        commits is the change between the set before the first and the
        set after the last — whatever the table holds by now.
        """
        net: Dict[OngoingTuple, int] = {}
        for row in self.appeared:
            net[row] = net.get(row, 0) + 1
        for row in self.vanished:
            net[row] = net.get(row, 0) - 1
        return net

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def merge(self, other: "Delta") -> "Delta":
        """Coalesce two deltas in application order (self, then other)."""
        if other.is_empty():
            return self
        if self.is_empty():
            return other
        return Delta(
            self.inserted + other.inserted,
            self.deleted + other.deleted,
            appeared=self.appeared + other.appeared,
            vanished=self.vanished + other.vanished,
        )

    def __repr__(self) -> str:
        return f"Delta(+{len(self.inserted)}, -{len(self.deleted)})"


def shared_source(fingerprint: str) -> str:
    """What a maintained plan's result goes by where another plan reads
    it: the label of the scan over its store, and the name its
    result-level deltas arrive under beside the base tables' — the
    fingerprint as EXPLAIN and the metrics abbreviate it.  Unique among
    the sources of one plan, which is all a name has to be
    (:func:`~repro.engine.maintenance.providers_of` sees to it)."""
    return f"@{fingerprint[:12]}"


def _delta_shape(deltas: Iterable[Delta]) -> str:
    """Compact ``"+i/-d"`` rendering of child deltas."""
    inserted = deleted = 0
    for delta in deltas:
        inserted += len(delta.inserted)
        deleted += len(delta.deleted)
    return f"+{inserted}/-{deleted}"


class NodeStats:
    """Cumulative per-operator maintenance counters.

    Keyed by the operator's stable *tree path* (root ``"0"``, its first
    child ``"0.1"`` …) rather than by node object, so the numbers
    survive the replans of :meth:`DeltaEvaluator.refresh_full` — a
    rebuilt tree with the same shape keeps accumulating into the same
    series.  These counters are **always on**: two clock reads per node
    per refresh.
    """

    __slots__ = (
        "operator",
        "applies",
        "apply_seconds",
        "delta_rows_in",
        "delta_rows_out",
        "fallbacks",
    )

    def __init__(self, operator: str):
        self.operator = operator
        self.applies = 0
        self.apply_seconds = 0.0
        self.delta_rows_in = 0
        self.delta_rows_out = 0
        self.fallbacks = 0

    def __repr__(self) -> str:
        return (
            f"NodeStats({self.operator}, applies={self.applies}, "
            f"seconds={self.apply_seconds:.6f}, fallbacks={self.fallbacks})"
        )


#: The delta of "nothing changed".
EMPTY_DELTA = Delta()


class DeltaBuilder:
    """Mutable accumulator coalescing many deltas in O(total rows).

    :meth:`Delta.merge` copies both row tuples, so folding a burst of N
    events one at a time is O(N²); every place that coalesces *streams*
    of deltas (a table batch, the live manager's per-plan pending map)
    accumulates through this builder instead and
    materializes one immutable :class:`Delta` at consumption time.
    """

    __slots__ = ("_inserted", "_deleted", "_appeared", "_vanished")

    def __init__(self) -> None:
        self._inserted: list = []
        self._deleted: list = []
        self._appeared: list = []
        self._vanished: list = []

    def add(self, delta: Delta) -> None:
        """Fold one more delta in, in application order."""
        self._inserted.extend(delta.inserted)
        self._deleted.extend(delta.deleted)
        self._appeared.extend(delta.appeared)
        self._vanished.extend(delta.vanished)

    def build(self) -> Delta:
        """The coalesced delta accumulated so far."""
        if not self._inserted and not self._deleted:
            return EMPTY_DELTA
        return Delta(
            self._inserted,
            self._deleted,
            appeared=self._appeared,
            vanished=self._vanished,
        )


class OperatorState:
    """Per-operator incremental state.

    ``counts`` maps each output tuple to its number of derivations (the
    output *set* is the keys) — ``None`` for a scan below another
    operator, whose output set is its source (the base table, or the
    result store of the maintained plan it reads) and is held nowhere
    else, and for the requalifying pass-through above it, whose output
    set is its child's; ``extra`` holds operator-specific build
    state — hash buckets or interval indexes for joins, cached input
    sides for difference — which the operator itself checks
    (``check_state``) and describes (``access_paths``).
    ``cached_rows`` counts the tuples referenced by ``extra`` (maintained
    by the operators as they add/remove cached rows), so the accounting
    of :meth:`DeltaEvaluator.state_rows` stays O(1) per state instead of
    walking hash buckets on every scrape.
    """

    __slots__ = ("counts", "extra", "cached_rows", "__weakref__")

    def __init__(self) -> None:
        self.counts: Optional[Dict[OngoingTuple, int]] = {}
        self.extra: Dict[str, object] = {}
        self.cached_rows = 0

    def row_count(self) -> int:
        """How many output tuples this state holds (0 when it holds none)."""
        return 0 if self.counts is None else len(self.counts)


def commit_changes(
    state: OperatorState, changes: Mapping[OngoingTuple, int]
) -> Delta:
    """Apply derivation-count *changes* to *state* and emit the set delta.

    Only ``0 → positive`` transitions become inserts and ``positive → 0``
    transitions become deletes; interior count moves are absorbed.  A
    count that would turn negative signals a delta inconsistent with the
    maintained state and raises :class:`NonIncrementalDelta`.

    The commit is **atomic**: all changes are validated before any count
    moves, so a rejected delta leaves ``counts`` untouched.  That matters
    for the root operator, whose ``counts`` double as the identity index
    of the versioned :class:`~repro.relational.relation.ResultStore` — a
    failed propagation must keep serving the last consistent result.
    """
    counts = state.counts
    for item, weight in changes.items():
        if weight < 0 and counts.get(item, 0) + weight < 0:
            raise NonIncrementalDelta(
                f"derivation count of {item!r} would become "
                f"{counts.get(item, 0) + weight}"
            )
    inserted = []
    deleted = []
    for item, weight in changes.items():
        if weight == 0:
            continue
        before = counts.get(item, 0)
        after = before + weight
        if after:
            counts[item] = after
        else:
            counts.pop(item, None)
        if before == 0 and after > 0:
            inserted.append(item)
        elif before > 0 and after == 0:
            deleted.append(item)
    if not inserted and not deleted:
        return EMPTY_DELTA
    return Delta(tuple(inserted), tuple(deleted))


class DeltaEvaluator:
    """Incremental maintenance of one logical plan against one database.

    The evaluator plans the logical tree once, fully evaluates it while
    populating per-operator state (:meth:`refresh_full`), and thereafter
    routes table-level deltas through the operator tree
    (:meth:`apply`) — each flush costs work proportional to the delta,
    not to the base tables.

    The maintained result lives in a versioned, copy-on-read
    :class:`~repro.relational.relation.ResultStore` built directly over
    the root operator's derivation-count index: :meth:`apply` mutates it
    in O(|Δ|) and bumps its version, and :attr:`result` materializes an
    immutable snapshot **lazily**, cached per version — a refresh whose
    consumers never read the relation costs O(|Δ|) total, with no
    O(|result|) rebuild anywhere on the path.

    The evaluator never falls back silently: :meth:`apply` raises
    :class:`NonIncrementalDelta` when incremental maintenance is not
    possible, and its caller (the live subscription manager's
    maintainer) re-runs :meth:`refresh_full` — the automatic, logged fallback.
    A failed apply or rebuild drops the operator state but keeps the
    store, so consumers keep serving the last consistent result.
    """

    #: Fallback per-row byte estimate when no output row can be sampled.
    DEFAULT_ROW_BYTES = 64

    #: How many output rows to sample for the per-row byte estimate.
    ROW_SAMPLE = 16

    #: Price of one maintained top-k window entry *beyond* the row itself
    #: (already priced via ``cached_rows``): the decorated sort key — a
    #: (growth, offset) Fraction pair per sort column plus the tie-break
    #: object and the sorted-list cell.
    TOPK_KEY_BYTES = 40

    def __init__(
        self,
        plan,
        database,
        *,
        optimize: bool = True,
        tracer=None,
    ):
        self.plan = plan
        self.database = database
        self.optimize = optimize
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; when enabled
        #: every ``apply_delta`` and store commit records a span.  The
        #: disabled/absent path costs one attribute check.
        self.tracer = tracer
        self._root = None
        self._states: Dict[object, OperatorState] = {}
        self._store: Optional[ResultStore] = None
        #: Labels of the current tree's scans — the keys :meth:`apply`
        #: reads deltas under: base tables, and ``@<fingerprint>`` for a
        #: maintained plan whose store the tree scans.  Empty while cold.
        self.sources: FrozenSet[str] = frozenset()
        #: Snapshot counters, handed to every store this evaluator
        #: builds so the numbers survive store rebuilds.
        self.snapshot_stats = {"snapshots_taken": 0, "snapshots_reused": 0}
        #: Cumulative per-operator counters, keyed by stable tree path
        #: (see :class:`NodeStats`) — the data behind ``explain_analyze``.
        self.node_stats: Dict[str, NodeStats] = {}
        #: Per-state byte prices, sampled at build time:
        #: state → (counts-row bytes, cached-row bytes).
        self._state_prices: Dict[OperatorState, Tuple[int, int]] = {}
        #: Counters for introspection, stats, and the benchmarks.
        self.full_evaluations = 0
        self.delta_applications = 0

    # ------------------------------------------------------------------
    # Full evaluation (state building)
    # ------------------------------------------------------------------

    @property
    def warm(self) -> bool:
        """``True`` when operator state exists and deltas can be applied."""
        return self._root is not None and self._store is not None

    @property
    def store(self) -> Optional["ResultStore"]:
        """The versioned result store (``None`` before the first build)."""
        return self._store

    @property
    def result(self) -> Optional[OngoingRelation]:
        """The maintained result as an immutable snapshot.

        Lazy and shared: the copy is taken on first read after a change
        and reused by every consumer until the next change
        (:meth:`ResultStore.snapshot`).  ``None`` before the first
        successful evaluation.
        """
        store = self._store
        return None if store is None else store.snapshot()

    def refresh_full(
        self, shared: Optional[Mapping[str, ResultStore]] = None
    ) -> OngoingRelation:
        """Re-plan, fully evaluate, and (re)build all operator state.

        *shared* maps plan fingerprints to the result stores of
        maintained plans the caller vouches are current as of this
        evaluation: a sub-tree with such a fingerprint is read from the
        store instead of being built again (see
        :class:`~repro.engine.planner.Planner`).

        Any failure — including a planning failure, e.g. a dropped base
        table — invalidates the old state: keeping it warm would let a
        later delta apply against a stale snapshot (wrong results after
        the table is re-created).  The previous store survives for
        serving until a rebuild succeeds.
        """
        from repro.engine.executor import SeqScan
        from repro.engine.planner import plan_query

        states: Dict[object, OperatorState] = {}
        prices: Dict[OperatorState, Tuple[int, int]] = {}
        try:
            root = plan_query(
                self.plan, self.database, optimize=self.optimize, shared=shared
            )
            self._evaluate(root, root, states, prices)
        except Exception:
            self._invalidate()
            raise
        self._root = root
        self._states = states
        self._state_prices = prices
        self.sources = frozenset(
            node.label for node in states if isinstance(node, SeqScan)
        )
        # A rebuilt store continues the old version sequence: the row set
        # (very likely) changed, so version-watchers must see movement.
        previous = self._store
        self._store = ResultStore(
            root.schema,
            states[root].counts,
            stats=self.snapshot_stats,
            version=0 if previous is None else previous.version + 1,
        )
        self.full_evaluations += 1
        return self._store.snapshot()

    def _evaluate(self, node, root, states, prices):
        """Build *node*'s state bottom-up — the one cold recursion over a
        physical tree: a one-shot ``Database.query``, a subscribe, a
        resume and a fallback refresh all evaluate through it.

        Returns the node's output set and the sampled byte price of one
        of its rows.  A scan's output set is the table it was planned
        over, copied only at the root, where the result store needs an
        index of its own.  Below its parent a scan hands over what its
        access path admits (:meth:`~repro.engine.executor.SeqScan.candidates`:
        an equality bucket, an interval-index window, or the whole
        source) — a superset of the rows the parent's selection keeps,
        which still judges every candidate, so the parent's state is the
        one a whole-table read would build.

        Each state gets two prices: its own output rows and its *cached*
        rows.  The cached rows of a join or a difference are the
        **children's** output tuples, so they are priced at the mean of
        the children's own-row estimates, not this node's.  (An
        aggregate caches no rows: its ``cached_rows`` count accumulator
        entries — a boundary and two integers, or a ``(value, rt)`` pair
        — which the same price over-estimates.)
        """
        from repro.engine.executor import SeqScan

        state = node.delta_state()
        states[node] = state
        child_prices: List[int] = []
        if isinstance(node, SeqScan):
            if node is root:
                output = node.relation.tuples
                state.counts = dict.fromkeys(output, 1)
            else:
                output = node.candidates()
                state.counts = None
        else:
            inputs = []
            for child in node._children():
                rows, price = self._evaluate(child, root, states, prices)
                inputs.append(rows)
                if price:
                    child_prices.append(price)
            node.evaluate(state, inputs)
            # A pass-through keeps no counts: its output set is its input's.
            output = state.counts if state.counts is not None else inputs[0]
        own = self._estimate_row_bytes(output)
        cached = (
            sum(child_prices) // len(child_prices)
            if child_prices
            else (own or self.DEFAULT_ROW_BYTES)
        )
        prices[state] = (own or self.DEFAULT_ROW_BYTES, cached)
        return output, own

    def _invalidate(self) -> None:
        """Drop the operator state; the next use must be a full refresh.

        The store is kept: its root index was last mutated by a
        *complete* :func:`commit_changes` (the atomic final step of a
        propagation), so even after a mid-propagation failure it holds
        the last consistent result and consumers keep serving it.  The
        price map goes too — its keys are the dropped states, and keeping
        them would pin every dropped counts dict and join-side cache in
        RAM.
        """
        self._root = None
        self._states = {}
        self._state_prices = {}
        self.sources = frozenset()

    # ------------------------------------------------------------------
    # State-memory accounting
    # ------------------------------------------------------------------

    def _estimate_row_bytes(self, rows: Iterable[OngoingTuple]) -> int:
        """Sample an output set to price one of its rows in storage-layout
        bytes (:func:`repro.engine.storage.sizeof_tuple`); 0 = no sample."""
        from itertools import islice

        from repro.engine.storage import sizeof_tuple

        sample = list(islice(rows, self.ROW_SAMPLE))
        if not sample:
            return 0
        try:
            total = sum(sizeof_tuple(item) for item in sample)
        except Exception:  # exotic values the layout cannot pack
            return self.DEFAULT_ROW_BYTES
        return max(1, total // len(sample))

    def state_rows(self) -> int:
        """Rows held by the operator states — O(plan size).

        Counts every derivation-count key and every ``extra``-cached row
        across the tree, *minus* the root output itself (the served
        result is the store's, not operator state).
        """
        root = self._root
        if root is None:
            return 0
        total = 0
        for state in self._states.values():
            total += state.row_count() + state.cached_rows
        return total - self._states[root].row_count()

    def state_bytes(self) -> int:
        """Operator-state memory in storage-layout bytes.

        Per-state row counts × per-state sampled prices — an estimate,
        priced with the same byte-accurate serialization the storage
        layer uses (:mod:`repro.engine.storage`) and with input-side
        caches priced at the *children's* row width, cheap enough
        (O(plan size)) to read on every scrape.
        """
        root = self._root
        if root is None:
            return 0
        default = (self.DEFAULT_ROW_BYTES, self.DEFAULT_ROW_BYTES)
        total = 0
        for state in self._states.values():
            own, cached = self._state_prices.get(state, default)
            total += state.row_count() * own + state.cached_rows * cached
            # A top-k window's rows are priced via cached_rows above; the
            # decorated sort keys are extra state on top.
            total += len(state.extra.get("window", ())) * self.TOPK_KEY_BYTES
        root_state = self._states[root]
        total -= root_state.row_count() * self._state_prices.get(
            root_state, default
        )[0]
        return total

    # ------------------------------------------------------------------
    # Delta propagation
    # ------------------------------------------------------------------

    def apply(self, table_deltas: Mapping[str, Delta]) -> Delta:
        """Propagate *table_deltas* through the plan; return the root delta.

        *table_deltas* maps base-table names to their coalesced deltas
        since the last refresh.  Tables the plan does not read are
        ignored.  Raises :class:`NonIncrementalDelta` when the state is
        cold or an operator's rule cannot absorb it — the caller then
        falls back to :meth:`refresh_full`.  On any propagation error the
        operator state is invalidated, so a later apply cannot observe
        half-updated state; the store keeps serving the last consistent
        snapshot meanwhile.

        The whole call is O(|Δ|): the root's count index (owned by the
        store) mutates in place under the store lock and the version is
        bumped — **no** relation is rebuilt here.  Consumers that read
        :attr:`result` pay the copy lazily, once per version.
        """
        if not self.warm:
            raise NonIncrementalDelta("operator state is cold")
        relevant = {
            name: delta
            for name, delta in table_deltas.items()
            if not delta.is_empty()
        }
        store = self._store
        try:
            # The store lock spans the propagation (whose final, atomic
            # step mutates the root index) and the version bump, so a
            # concurrent snapshot() never copies a half-applied set.
            with store.lock:
                root_delta = self._apply(self._root, relevant)
                if not root_delta.is_empty():
                    commit_started = perf_counter()
                    store.bump()
                    tracer = self.tracer
                    if tracer is not None and tracer.enabled:
                        tracer.add(
                            "store-commit",
                            commit_started,
                            perf_counter() - commit_started,
                            version=store.version,
                            delta=repr(root_delta),
                        )
        except NonIncrementalDelta as exc:
            self._invalidate()
            raise exc.annotate(
                table=next(iter(relevant), None),
                delta_shape=_delta_shape(relevant.values()),
            )
        except Exception:
            self._invalidate()
            raise
        self.delta_applications += 1
        return root_delta

    def _node_stats(self, path: str, node) -> NodeStats:
        stats = self.node_stats.get(path)
        if stats is None:
            stats = self.node_stats[path] = NodeStats(type(node).__name__)
        return stats

    def _apply(
        self, node, table_deltas: Mapping[str, Delta], path: str = "0"
    ) -> Delta:
        from repro.engine.executor import SeqScan

        state = self._states[node]
        table = None
        if isinstance(node, SeqScan):
            delta = table_deltas.get(node.label)
            if delta is None:
                return EMPTY_DELTA
            table = node.label
            child_deltas: Tuple[Delta, ...] = (delta,)
        else:
            child_deltas = tuple(
                self._apply(child, table_deltas, f"{path}.{index}")
                for index, child in enumerate(node._children())
            )
            if all(delta.is_empty() for delta in child_deltas):
                return EMPTY_DELTA
        # Per-node timing is always on: two clock reads per touched node
        # per refresh, held under the 5% tracing-off overhead gate.  The
        # cumulative numbers feed explain_analyze() and the registry.
        stats = self._node_stats(path, node)
        started = perf_counter()
        try:
            out_delta = node.apply_delta(state, child_deltas)
        except NonIncrementalDelta as exc:
            stats.fallbacks += 1
            raise exc.annotate(
                operator=type(node).__name__,
                node_path=path,
                table=table,
                delta_shape=_delta_shape(child_deltas),
            )
        elapsed = perf_counter() - started
        stats.applies += 1
        stats.apply_seconds += elapsed
        stats.delta_rows_in += sum(len(delta) for delta in child_deltas)
        stats.delta_rows_out += len(out_delta)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.add(
                f"apply:{stats.operator}",
                started,
                elapsed,
                path=path,
                rows_in=stats.delta_rows_in,
                rows_out=stats.delta_rows_out,
            )
        return out_delta

    # ------------------------------------------------------------------
    # Introspection (explain_analyze / registry collectors)
    # ------------------------------------------------------------------

    def _preorder(self) -> Iterator[Tuple[object, str, int]]:
        """``(node, path, depth)`` of every operator of the warm tree,
        pre-order; nothing when cold."""
        pending = [] if self._root is None else [(self._root, "0", 0)]
        while pending:
            node, path, depth = pending.pop()
            yield node, path, depth
            children = node._children()
            for index in range(len(children) - 1, -1, -1):
                pending.append((children[index], f"{path}.{index}", depth + 1))

    def node_report(self) -> List[Dict[str, object]]:
        """One dict per physical operator, pre-order with tree depth.

        Joins the *current* tree (state rows, estimated state bytes,
        operator description, the access path each probe of the node
        takes now) with the *cumulative* per-path counters
        (:attr:`node_stats`) — the raw data behind ``explain_analyze()``
        and the per-operator registry metrics.  Empty when the state is
        cold; the cumulative counters survive and reappear on
        the next warm report.
        """
        default = (self.DEFAULT_ROW_BYTES, self.DEFAULT_ROW_BYTES)
        report: List[Dict[str, object]] = []
        for node, path, depth in self._preorder():
            state = self._states[node]
            own, cached = self._state_prices.get(state, default)
            stats = self.node_stats.get(path)
            report.append(
                {
                    "path": path,
                    "depth": depth,
                    "operator": type(node).__name__,
                    "describe": node._describe(),
                    "state_rows": state.row_count(),
                    "cached_rows": state.cached_rows,
                    "state_bytes": (
                        state.row_count() * own + state.cached_rows * cached
                    ),
                    "access_paths": node.access_paths(state),
                    "applies": 0 if stats is None else stats.applies,
                    "apply_seconds": (
                        0.0 if stats is None else stats.apply_seconds
                    ),
                    "delta_rows_in": (
                        0 if stats is None else stats.delta_rows_in
                    ),
                    "delta_rows_out": (
                        0 if stats is None else stats.delta_rows_out
                    ),
                    "fallbacks": 0 if stats is None else stats.fallbacks,
                }
            )
        return report

    def check_index_integrity(self) -> List[str]:
        """Ask every operator of the warm tree to check its own state
        (:meth:`~repro.engine.executor.PhysicalOperator.check_state`).

        Returns the problems found, each prefixed with the node's tree
        path and operator name (empty = every state agrees with itself).
        Used by the property suites after every flush; cold state
        trivially passes.
        """
        return [
            f"{path} {type(node).__name__}: {problem}"
            for node, path, _ in self._preorder()
            for problem in node.check_state(self._states[node])
        ]

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        state = "warm" if self.warm else "cold"
        return (
            f"DeltaEvaluator({state}, full_evaluations={self.full_evaluations}, "
            f"delta_applications={self.delta_applications})"
        )
