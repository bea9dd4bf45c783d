"""ROBDD kernel — the stand-in for CUDD/GLU (paper Sec. VII).

Reduced Ordered Binary Decision Diagrams with a unique table and memoised
ITE, the classic Bryant construction.  Nodes are integer ids into three
parallel Python lists (level, low, high); the two terminals are
``ZERO = 0`` and ``ONE = 1`` at a sentinel level of ``n_vars``.  The unique
table and the memo tables are plain dicts keyed by int tuples.  No
complement edges — negation is a memoised traversal — which keeps the
invariants simple and the node counts directly comparable in spirit to the
paper's reported "number of BDD nodes".

Apply engine
------------
Every operator is one depth-first recursion: ``_ite`` (and every connective
derived from it), ``_not``, ``_exists``, ``_and_exists``, the fused
relational products ``_rel_pre``/``_rel_post``, ``_rename`` and
``_restrict``.  The hot recursions (``_ite``, ``_and_exists``, ``_rel_pre``,
``_rel_post``) compute cofactors inline and probe the unique table before
falling back to the node constructor, which is where a pure-Python kernel
spends its time on the fixpoint workloads.

The recursion descends one frame per level, so the Python stack depth of an
operation grows with the variable count.  :data:`MAX_VARS` bounds it:
``BDD(n)`` with ``n > MAX_VARS`` raises ``ValueError`` instead of letting a
deep operation die later with a raw ``RecursionError``.

Variables vs. levels
--------------------
The manager distinguishes **variables**
(stable external names, ``0 .. n_vars-1``) from **levels** (positions in the
current order, root = level 0).  Every public operation — ``var``, ``cube``,
``exists``, ``and_exists``, ``rename``, ``restrict``, ``eval``, ``pick``,
``iter_sat`` — speaks *variable indices*; levels are an internal detail that
:meth:`reorder` permutes.  Initially variable ``i`` sits at level ``i``, so
level-based callers are unaffected until they opt into reordering.

Reordering
----------
:meth:`reorder` runs Rudell's sifting: each block of variables is moved
through every position via the in-place adjacent-level swap primitive and
parked where the unique table is smallest.  The swap rewrites nodes *in
place*, so node ids keep denoting the same Boolean function across a
reorder — outstanding handles, the ``ite``/``not`` memo tables and the
``_vars`` array all stay valid.  Level-keyed operation caches (``exists``,
``and_exists``, ``rename``, ``restrict``) are dropped at the end of a
reorder, because their keys mention quantified *level* sets (see the
cache-key audit note below).  Blocks (:meth:`set_reorder_blocks`) let a
transition-system encoding sift interleaved current/next bit *pairs* as
units, preserving the order-preserving-rename contract the symbolic engine
relies on.  Auto-reordering (:attr:`auto_reorder`) triggers sifting at the
entry of a public operation whenever the unique table outgrows
:attr:`reorder_threshold`; it never fires mid-recursion.

Garbage collection
------------------
Nodes are reclaimed by explicit mark-and-sweep (:meth:`collect_garbage`):
roots are the variable nodes, every externally :meth:`ref`-ed node (see also
the :meth:`protect` context manager) and any ``roots`` passed by the caller.
Dead slots go on a free list and are reused by the node constructor, so ids
handed out after a collection may recycle ids of collected nodes —
**holding a node id across a collection without rooting it is a
use-after-free**; that is the ref-counting contract.  All memo tables are
cleared on collection (entries may mention dead ids).

Cache-key audit (regression-tested in ``tests/test_bdd_reorder_gc.py``)
-----------------------------------------------------------------------
Every op-cache key carries the *full* operation identity: ``("ex", f, vs)``,
``("ae", f, g, vs)`` (operands id-sorted — conjunction commutes — and the
quantified level-set ``vs`` always included, so equal ``(f, g)`` pairs under
different quantification sets never collide), ``("rn", f, mapping)``,
``("rs", f, assignments)``.  The keys mention *levels*, which is why every
reorder clears the op cache.  ``rename`` additionally validates, node by
node, that the result respects the level order — a mapping that moves a
variable past an *unmapped* variable in the operand's support used to
corrupt the unique table silently.

Fused operators: ``and_exists`` fuses conjunction with existential
quantification, and ``rel_product_pre``/``rel_product_post`` additionally
rename the written bits virtually, so relational products never
materialise the full conjunction or a shifted copy of the state set.  The
always-on counters (``ite`` calls, memo hits, GC and reorder tallies) flow
into trace reports via :func:`repro.trace.tracer.record_bdd_counters`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

ZERO = 0
ONE = 1

# Largest variable count a manager accepts.  Each operator recurses once per
# level, so an operation's stack depth is the variable count plus the
# caller's own frames: an xor ladder, ``exists`` and ``rel_product_pre``
# still run at 800 variables and hit CPython's default 1000-frame recursion
# limit at 1000.  512 keeps a wide margin for deep call stacks; the largest
# encoding in the repository (ring colouring at K=40) uses 160 variables.
MAX_VARS = 512


class BDD:
    """A BDD manager over ``n_vars`` Boolean variables."""

    def __init__(self, n_vars: int, var_names: Sequence[str] | None = None):
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        if n_vars > MAX_VARS:
            raise ValueError(
                f"{n_vars} BDD variables exceed the kernel's limit of "
                f"{MAX_VARS} (its operators recurse once per variable)"
            )
        self.n_vars = n_vars
        if var_names is not None and len(var_names) != n_vars:
            raise ValueError("one name per variable required")
        self.var_names = (
            list(var_names) if var_names is not None else [f"b{i}" for i in range(n_vars)]
        )
        # variable <-> level maps; identity until the first reorder
        self._var2level = list(range(n_vars))
        self._level2var = list(range(n_vars))
        # node storage: parallel lists indexed by node id.  Terminals occupy
        # ids 0 and 1 with a sentinel level of n_vars (below every variable).
        # A freed slot has level -1 and sits on the free list.
        self._level = [n_vars, n_vars]
        self._low = [ZERO, ONE]
        self._high = [ZERO, ONE]
        self._free: list[int] = []
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._not_cache: dict[int, int] = {}
        self._op_cache: dict[tuple, int] = {}
        # per-write-set argument structs of the fused relational products,
        # keyed by the (cur_var, next_var) pairs tuple; level-based, so it
        # survives GC but must be dropped on reorder
        self._relprod_args_cache: dict[tuple, tuple] = {}
        # external GC roots: node id -> reference count
        self._refs: dict[int, int] = {}
        # reorder state
        self._blocks: list[tuple[int, ...]] | None = None
        self._in_reorder = False
        self._reorder_tracking: list[set[int]] | None = None
        self._reorder_indeg: dict[int, int] | None = None
        self._reorder_dead: set[int] | None = None
        self.auto_reorder = False
        self.reorder_threshold = 100_000
        # Always-on operation counters (plain int increments — cheap enough
        # to leave enabled; see repro.trace for how they reach reports).
        self.n_ite_calls = 0
        self.n_ite_terminal = 0
        self.n_ite_cache_hits = 0
        self.n_op_cache_lookups = 0
        self.n_op_cache_hits = 0
        self.n_gc_runs = 0
        self.n_gc_collected = 0
        self.n_reorder_runs = 0
        self.n_reorder_swaps = 0
        # fused union-image calls (rel_product_*_many)
        self.n_relprod_many = 0
        self._n_live = 0
        self.n_peak_live = 0
        self._vars = [self._mk(i, ZERO, ONE) for i in range(n_vars)]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            if self._free:
                node = self._free.pop()
                self._level[node] = level
                self._low[node] = low
                self._high[node] = high
            else:
                node = len(self._level)
                self._level.append(level)
                self._low.append(low)
                self._high.append(high)
            self._unique[key] = node
            self._n_live += 1
            if self._n_live > self.n_peak_live:
                self.n_peak_live = self._n_live
            if self._reorder_tracking is not None:
                self._reorder_tracking[level].add(node)
        return node

    def var(self, index: int) -> int:
        """The BDD of the variable at ``index``."""
        return self._vars[index]

    def nvar(self, index: int) -> int:
        """The BDD of the negated variable (cached via NOT)."""
        return self.not_(self._vars[index])

    def level_of(self, node: int) -> int:
        """The *level* of a node's root in the current order."""
        return self._level[node]

    def var_of(self, node: int) -> int:
        """The *variable index* tested at a node's root."""
        return self._level2var[self._level[node]]

    def level_of_var(self, index: int) -> int:
        """Current level of variable ``index``."""
        return self._var2level[index]

    def var_order(self) -> list[int]:
        """Variable indices from the top level down — the current order."""
        return list(self._level2var)

    def low(self, node: int) -> int:
        return self._low[node]

    def high(self, node: int) -> int:
        return self._high[node]

    def num_nodes(self) -> int:
        """Nodes currently in the unique table (terminals included)."""
        return len(self._unique) + 2

    def _to_levels(self, variables: Iterable[int]) -> frozenset[int]:
        v2l = self._var2level
        return frozenset(v2l[v] for v in variables)

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` — the universal connective."""
        self._maybe_reorder()
        return self._ite(f, g, h)

    def _ite(self, f: int, g: int, h: int) -> int:
        self.n_ite_calls += 1
        if f == ONE:
            self.n_ite_terminal += 1
            return g
        if f == ZERO:
            self.n_ite_terminal += 1
            return h
        if g == h:
            self.n_ite_terminal += 1
            return g
        if g == ONE and h == ZERO:
            self.n_ite_terminal += 1
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self.n_ite_cache_hits += 1
            return cached
        levels = self._level
        lf = levels[f]
        lg = levels[g]
        lh = levels[h]
        level = lf
        if lg < level:
            level = lg
        if lh < level:
            level = lh
        lows, highs = self._low, self._high
        if lf == level:
            f0, f1 = lows[f], highs[f]
        else:
            f0 = f1 = f
        if lg == level:
            g0, g1 = lows[g], highs[g]
        else:
            g0 = g1 = g
        if lh == level:
            h0, h1 = lows[h], highs[h]
        else:
            h0 = h1 = h
        lo = self._ite(f0, g0, h0)
        hi = self._ite(f1, g1, h1)
        if lo == hi:
            result = lo
        else:
            result = self._unique.get((level, lo, hi))
            if result is None:
                result = self._mk(level, lo, hi)
        self._ite_cache[key] = result
        return result

    def not_(self, f: int) -> int:
        self._maybe_reorder()
        return self._not(f)

    def _not(self, f: int) -> int:
        if f == ZERO:
            return ONE
        if f == ONE:
            return ZERO
        cached = self._not_cache.get(f)
        if cached is not None:
            return cached
        result = self._mk(
            self._level[f], self._not(self._low[f]), self._not(self._high[f])
        )
        self._not_cache[f] = result
        self._not_cache[result] = f
        return result

    def and_(self, f: int, g: int) -> int:
        self._maybe_reorder()
        return self._ite(f, g, ZERO)

    def or_(self, f: int, g: int) -> int:
        self._maybe_reorder()
        return self._ite(f, ONE, g)

    def xor(self, f: int, g: int) -> int:
        self._maybe_reorder()
        return self._ite(f, self._not(g), g)

    def implies(self, f: int, g: int) -> int:
        self._maybe_reorder()
        return self._ite(f, g, ONE)

    def iff(self, f: int, g: int) -> int:
        self._maybe_reorder()
        return self._ite(f, g, self._not(g))

    def diff(self, f: int, g: int) -> int:
        """``f ∧ ¬g``."""
        self._maybe_reorder()
        return self._ite(g, ZERO, f)

    def and_all(self, fs: Iterable[int]) -> int:
        out = ONE
        for f in fs:
            out = self.and_(out, f)
            if out == ZERO:
                return ZERO
        return out

    def or_all(self, fs: Iterable[int]) -> int:
        out = ZERO
        for f in fs:
            out = self.or_(out, f)
            if out == ONE:
                return ONE
        return out

    # ------------------------------------------------------------------
    # quantification / substitution
    # ------------------------------------------------------------------
    def exists(self, variables: Iterable[int], f: int) -> int:
        """∃ variables . f  (variables given as variable indices)."""
        self._maybe_reorder()
        vs = self._to_levels(variables)
        if not vs:
            return f
        return self._exists(f, vs, max(vs))

    def _exists(self, f: int, vs: frozenset[int], top: int) -> int:
        if f <= ONE or self._level[f] > top:
            return f
        key = ("ex", f, vs)
        self.n_op_cache_lookups += 1
        cached = self._op_cache.get(key)
        if cached is not None:
            self.n_op_cache_hits += 1
            return cached
        level = self._level[f]
        lo = self._exists(self._low[f], vs, top)
        hi = self._exists(self._high[f], vs, top)
        if level in vs:
            result = self._ite(lo, ONE, hi)
        else:
            result = self._mk(level, lo, hi)
        self._op_cache[key] = result
        return result

    def forall(self, variables: Iterable[int], f: int) -> int:
        """∀ variables . f."""
        self._maybe_reorder()
        vs = self._to_levels(variables)
        if not vs:
            return f
        return self._not(self._exists(self._not(f), vs, max(vs)))

    def and_exists(self, f: int, g: int, variables: Iterable[int]) -> int:
        """∃ variables . (f ∧ g) without building the full conjunction."""
        self._maybe_reorder()
        vs = self._to_levels(variables)
        if not vs:
            return self._ite(f, g, ZERO)
        return self._and_exists(f, g, vs, max(vs))

    def _and_exists(self, f: int, g: int, vs: frozenset[int], top: int) -> int:
        if f == ZERO or g == ZERO:
            return ZERO
        if f == ONE and g == ONE:
            return ONE
        if f == ONE or g == ONE or f == g:
            h = g if f == ONE else f if g == ONE else f
            return self._exists(h, vs, top)
        if f > g:  # canonicalise the commuting operands for the cache
            f, g = g, f
        # Audit note: the quantified level-set ``vs`` is part of the key —
        # equal (f, g) pairs under different quantification sets MUST miss.
        key = ("ae", f, g, vs)
        self.n_op_cache_lookups += 1
        cached = self._op_cache.get(key)
        if cached is not None:
            self.n_op_cache_hits += 1
            return cached
        levels = self._level
        lf = levels[f]
        lg = levels[g]
        level = lf if lf < lg else lg
        if level > top:
            result = self._ite(f, g, ZERO)
        else:
            lows, highs = self._low, self._high
            if lf == level:
                f0, f1 = lows[f], highs[f]
            else:
                f0 = f1 = f
            if lg == level:
                g0, g1 = lows[g], highs[g]
            else:
                g0 = g1 = g
            lo = self._and_exists(f0, g0, vs, top)
            if level in vs:
                if lo == ONE:
                    result = ONE
                else:
                    hi = self._and_exists(f1, g1, vs, top)
                    result = self._ite(lo, ONE, hi)
            else:
                hi = self._and_exists(f1, g1, vs, top)
                if lo == hi:
                    result = lo
                else:
                    result = self._unique.get((level, lo, hi))
                    if result is None:
                        result = self._mk(level, lo, hi)
        self._op_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # fused relational products (partitioned image computation)
    # ------------------------------------------------------------------
    def rel_product_pre(
        self, rel: int, states: int, pairs: Iterable[tuple[int, int]]
    ) -> int:
        """``∃ next . rel ∧ states[cur → next]`` in one traversal.

        The preimage of ``states`` under a frameless partition whose write
        set is ``pairs = ((cur_var, next_var), ...)``: the rename of the
        written bits is performed *virtually* during the product recursion,
        so neither the shifted copy of ``states`` nor the unquantified
        conjunction is ever materialised.  ``pairs`` must be
        order-preserving w.r.t. the current level order (the interleaved
        cur/next pairing guarantees this, also after a block reorder).
        """
        self._maybe_reorder()
        pre, _post = self._relprod_args(tuple(pairs))
        if pre is None:
            return self._ite(rel, states, ZERO)
        shift, vs, top, key_id = pre
        return self._rel_pre(rel, states, shift, vs, top, key_id)

    def _relprod_args(self, pairs: tuple) -> tuple:
        """Level-space argument structs for the fused products (cached per
        write set — rebuilt only after a reorder moves levels)."""
        cached = self._relprod_args_cache.get(pairs)
        if cached is None:
            if not pairs:
                cached = (None, None)
            else:
                v2l = self._var2level
                shift = {v2l[c]: v2l[n] for c, n in pairs}
                vs_pre = frozenset(shift.values())
                pre = (
                    shift,
                    vs_pre,
                    max(vs_pre),
                    tuple(sorted(shift.items())),
                )
                vs_post = frozenset(shift.keys())
                out_map = {n: c for c, n in shift.items()}
                post = (
                    vs_post,
                    out_map,
                    max(out_map),
                    tuple(sorted(out_map.items())),
                )
                cached = (pre, post)
            self._relprod_args_cache[pairs] = cached
        return cached

    def _rel_pre(
        self,
        f: int,
        g: int,
        shift: dict[int, int],
        vs: frozenset[int],
        top: int,
        key_id: tuple,
    ) -> int:
        if f == ZERO or g == ZERO:
            return ZERO
        if f == ONE and g == ONE:
            return ONE
        levels = self._level
        lf = levels[f]
        glevel = levels[g]
        gv = shift.get(glevel, glevel)
        level = lf if lf < gv else gv
        if level > top:
            # below every shifted/quantified level: plain conjunction
            return self._ite(f, g, ZERO)
        key = ("pp", f, g, key_id)
        self.n_op_cache_lookups += 1
        cached = self._op_cache.get(key)
        if cached is not None:
            self.n_op_cache_hits += 1
            return cached
        lows, highs = self._low, self._high
        if lf == level:
            f0, f1 = lows[f], highs[f]
        else:
            f0 = f1 = f
        if gv == level:
            g0, g1 = lows[g], highs[g]
        else:
            g0 = g1 = g
        lo = self._rel_pre(f0, g0, shift, vs, top, key_id)
        if level in vs:
            if lo == ONE:
                result = ONE
            else:
                hi = self._rel_pre(f1, g1, shift, vs, top, key_id)
                result = self._ite(lo, ONE, hi)
        else:
            hi = self._rel_pre(f1, g1, shift, vs, top, key_id)
            if lo == hi:
                result = lo
            else:
                result = self._unique.get((level, lo, hi))
                if result is None:
                    result = self._mk(level, lo, hi)
        self._op_cache[key] = result
        return result

    def rel_product_post(
        self, rel: int, states: int, pairs: Iterable[tuple[int, int]]
    ) -> int:
        """``(∃ cur . rel ∧ states)[next → cur]`` in one traversal.

        The postimage of ``states`` under a frameless partition with write
        set ``pairs``: the written current bits are quantified and the
        written next bits are emitted at their current-bit position during
        the same product recursion, so the intermediate next-bits image is
        never materialised.  Same ordering contract as
        :meth:`rel_product_pre`.
        """
        self._maybe_reorder()
        _pre, post = self._relprod_args(tuple(pairs))
        if post is None:
            return self._ite(rel, states, ZERO)
        vs, out_map, top, key_id = post
        return self._rel_post(rel, states, vs, out_map, top, key_id)

    def _rel_post(
        self,
        f: int,
        g: int,
        vs: frozenset[int],
        out_map: dict[int, int],
        top: int,
        key_id: tuple,
    ) -> int:
        if f == ZERO or g == ZERO:
            return ZERO
        if f == ONE and g == ONE:
            return ONE
        levels = self._level
        lf = levels[f]
        lg = levels[g]
        level = lf if lf < lg else lg
        if level > top:
            return self._ite(f, g, ZERO)
        key = ("po", f, g, key_id)
        self.n_op_cache_lookups += 1
        cached = self._op_cache.get(key)
        if cached is not None:
            self.n_op_cache_hits += 1
            return cached
        lows, highs = self._low, self._high
        if lf == level:
            f0, f1 = lows[f], highs[f]
        else:
            f0 = f1 = f
        if lg == level:
            g0, g1 = lows[g], highs[g]
        else:
            g0 = g1 = g
        lo = self._rel_post(f0, g0, vs, out_map, top, key_id)
        if level in vs:
            if lo == ONE:
                result = ONE
            else:
                hi = self._rel_post(f1, g1, vs, out_map, top, key_id)
                result = self._ite(lo, ONE, hi)
        else:
            hi = self._rel_post(f1, g1, vs, out_map, top, key_id)
            if lo == hi:
                result = lo
            else:
                out_level = out_map.get(level, level)
                result = self._unique.get((out_level, lo, hi))
                if result is None:
                    result = self._mk(out_level, lo, hi)
        self._op_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # fused multi-relation image operators
    # ------------------------------------------------------------------
    # One union image per call: the per-relation products are or-ed
    # together and the ``constrain``/``subtract`` window is applied to each
    # product (distributivity), so no unwindowed union is ever built.

    def rel_product_pre_many(
        self,
        items: Iterable[tuple[int, Iterable[tuple[int, int]]]],
        states: int,
        *,
        constrain: int | None = None,
        subtract: int | None = None,
    ) -> int:
        """``(∨_j pre(rel_j, states)) ∧ constrain ∖ subtract`` (composed)."""
        return self._rel_union_many(
            items, states, pre=True, constrain=constrain, subtract=subtract
        )

    def rel_product_post_many(
        self,
        items: Iterable[tuple[int, Iterable[tuple[int, int]]]],
        states: int,
        *,
        constrain: int | None = None,
        subtract: int | None = None,
    ) -> int:
        """``(∨_j post(rel_j, states)) ∧ constrain ∖ subtract`` (composed)."""
        return self._rel_union_many(
            items, states, pre=False, constrain=constrain, subtract=subtract
        )

    def _rel_union_many(
        self, items, states: int, *, pre: bool, constrain, subtract
    ) -> int:
        if states == ZERO:
            return ZERO
        window = None
        if constrain is not None and subtract is not None:
            window = self._ite(subtract, ZERO, constrain)
            subtract = None
        elif constrain is not None:
            window = constrain
        if window == ZERO:
            return ZERO
        self.n_relprod_many += 1
        image = self.rel_product_pre if pre else self.rel_product_post
        out = ZERO
        for rel, pairs in items:
            if rel == ZERO:
                continue
            p = image(rel, states, pairs)
            if window is not None:
                p = self._ite(p, window, ZERO)
            elif subtract is not None:
                p = self._ite(subtract, ZERO, p)
            out = self._ite(p, ONE, out)
        return out

    def rename(self, f: int, mapping: dict[int, int]) -> int:
        """Substitute variables: ``mapping[old_var] = new_var``.

        Requires the mapping to be order-preserving w.r.t. the current
        level order (which the interleaved current/next encoding guarantees,
        also for subsets of the current/next pairing), so the substitution
        is a single linear traversal.  The traversal additionally checks,
        node by node, that the result respects the level order — a mapping
        that is pairwise monotone but moves a variable past an *unmapped*
        variable in ``f``'s support (e.g. ``{0: 3}`` on ``x0 ∧ x1``) is
        rejected instead of silently corrupting the unique table.
        """
        self._maybe_reorder()
        if not mapping:
            return f
        v2l = self._var2level
        level_map = {v2l[a]: v2l[b] for a, b in mapping.items()}
        items = sorted(level_map.items())
        for (a0, b0), (a1, b1) in zip(items, items[1:]):
            if not (a0 < a1 and b0 < b1):
                raise ValueError("rename mapping must be order-preserving")
        key = ("rn", f, tuple(items))
        return self._rename(f, dict(items), key)

    def _rename(self, f: int, mapping: dict[int, int], key) -> int:
        if f <= ONE:
            return f
        self.n_op_cache_lookups += 1
        cached = self._op_cache.get(key)
        if cached is not None:
            self.n_op_cache_hits += 1
            return cached
        level = self._level[f]
        new_level = mapping.get(level, level)
        lo = self._rename(self._low[f], mapping, ("rn", self._low[f], key[2]))
        hi = self._rename(self._high[f], mapping, ("rn", self._high[f], key[2]))
        if new_level >= min(self._level[lo], self._level[hi]):
            raise ValueError(
                "rename mapping moves a variable past another variable in "
                "the operand's support"
            )
        result = self._mk(new_level, lo, hi)
        self._op_cache[key] = result
        return result

    def restrict(self, f: int, assignments: dict[int, bool]) -> int:
        """Cofactor: fix each variable in ``assignments`` to a constant."""
        self._maybe_reorder()
        if not assignments:
            return f
        v2l = self._var2level
        level_map = {v2l[v]: bool(b) for v, b in assignments.items()}
        items = tuple(sorted(level_map.items()))
        return self._restrict(f, level_map, items)

    def _restrict(
        self, f: int, assignments: dict[int, bool], items: tuple
    ) -> int:
        if f <= ONE:
            return f
        key = ("rs", f, items)
        self.n_op_cache_lookups += 1
        cached = self._op_cache.get(key)
        if cached is not None:
            self.n_op_cache_hits += 1
            return cached
        level = self._level[f]
        if level in assignments:
            branch = self._high[f] if assignments[level] else self._low[f]
            result = self._restrict(branch, assignments, items)
        else:
            result = self._mk(
                level,
                self._restrict(self._low[f], assignments, items),
                self._restrict(self._high[f], assignments, items),
            )
        self._op_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # garbage collection (explicit mark-and-sweep)
    # ------------------------------------------------------------------
    def ref(self, node: int) -> int:
        """Protect ``node`` (and its cone) from :meth:`collect_garbage`."""
        if node > ONE:
            self._refs[node] = self._refs.get(node, 0) + 1
        return node

    def deref(self, node: int) -> None:
        """Drop one external reference taken with :meth:`ref`."""
        if node <= ONE:
            return
        count = self._refs.get(node, 0)
        if count <= 1:
            self._refs.pop(node, None)
        else:
            self._refs[node] = count - 1

    @contextmanager
    def protect(self, *nodes: int) -> Iterator[None]:
        """Scoped :meth:`ref`/:meth:`deref` for a set of nodes."""
        for n in nodes:
            self.ref(n)
        try:
            yield
        finally:
            for n in nodes:
                self.deref(n)

    def collect_garbage(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep: free every node unreachable from the roots.

        Roots are the variable nodes, every :meth:`ref`-ed node and the
        ``roots`` iterable.  Returns the number of nodes collected.  All
        memo tables are cleared (their entries may mention dead ids);
        freed slots are recycled by the node constructor, so unrooted ids
        held across a collection become dangling.
        """
        marked = bytearray(len(self._level))
        stack: list[int] = list(self._vars)
        stack.extend(self._refs)
        stack.extend(roots)
        low, high = self._low, self._high
        while stack:
            n = stack.pop()
            if n <= ONE or marked[n]:
                continue
            marked[n] = 1
            stack.append(low[n])
            stack.append(high[n])
        collected = 0
        levels = self._level
        unique = self._unique
        for n in range(2, len(levels)):
            if levels[n] < 0 or marked[n]:
                continue
            del unique[(levels[n], low[n], high[n])]
            levels[n] = -1
            self._free.append(n)
            collected += 1
        self._ite_cache.clear()
        self._not_cache.clear()
        self._op_cache.clear()
        self.n_gc_runs += 1
        self.n_gc_collected += collected
        self._n_live -= collected
        return collected

    # ------------------------------------------------------------------
    # dynamic variable reordering (Rudell's sifting)
    # ------------------------------------------------------------------
    def set_reorder_blocks(self, blocks: Iterable[Iterable[int]]) -> None:
        """Declare variable blocks that sifting moves as units.

        Each block is a sequence of variable indices that must occupy
        contiguous ascending levels (e.g. interleaved current/next bit
        pairs).  Sifting then permutes whole blocks, never the variables
        within one — which is what keeps subset renames between paired
        variables order-preserving.
        """
        blocks = [tuple(b) for b in blocks]
        seen = [v for b in blocks for v in b]
        if sorted(seen) != list(range(self.n_vars)):
            raise ValueError("blocks must partition the variables")
        for block in blocks:
            levels = [self._var2level[v] for v in block]
            if levels != list(range(min(levels), min(levels) + len(levels))):
                raise ValueError(
                    f"block {block} must occupy contiguous ascending levels"
                )
        self._blocks = blocks

    def _maybe_reorder(self) -> None:
        if (
            self.auto_reorder
            and not self._in_reorder
            and len(self._unique) >= self.reorder_threshold
        ):
            self.reorder()
            # back off so a table that resists shrinking does not re-sift
            # on every subsequent operation
            self.reorder_threshold = max(
                self.reorder_threshold, 2 * len(self._unique)
            )

    def reorder(self, *, max_growth: float = 1.2) -> int:
        """Sift every block to its locally best position; returns the
        number of adjacent-level swaps performed.

        Node ids keep denoting the same functions (swaps rewrite nodes in
        place), so outstanding handles stay valid; the level-keyed op
        cache is invalidated.
        """
        if self.n_vars < 2 or self._in_reorder:
            return 0
        self._in_reorder = True
        swaps_before = self.n_reorder_swaps
        try:
            nodes_at_level: list[set[int]] = [set() for _ in range(self.n_vars)]
            for n in range(2, len(self._level)):
                lvl = self._level[n]
                if 0 <= lvl < self.n_vars:
                    nodes_at_level[lvl].add(n)
            self._reorder_tracking = nodes_at_level
            # Sifting needs a *live*-size metric: in-place swaps create
            # fresh nodes and orphan old ones, so the raw unique-table size
            # only ever grows with churn and every position would measure
            # worse than the starting one.  Reorder-scoped reference counts
            # track which nodes are dead (unreferenced, links uncounted);
            # externally held ids are presumed roots and never die.
            indeg: dict[int, int] = {}
            for n in range(2, len(self._level)):
                if 0 <= self._level[n] < self.n_vars:
                    for c in (self._low[n], self._high[n]):
                        if c >= 2:
                            indeg[c] = indeg.get(c, 0) + 1
            for n in self._vars:
                if n >= 2:
                    indeg[n] = indeg.get(n, 0) + 1
            for n in self._refs:
                indeg[n] = indeg.get(n, 0) + 1
            for n in range(2, len(self._level)):
                if 0 <= self._level[n] < self.n_vars and not indeg.get(n):
                    indeg[n] = 1  # presumed external root
            self._reorder_indeg = indeg
            self._reorder_dead: set[int] = set()
            if self._blocks is not None:
                order = sorted(
                    self._blocks, key=lambda b: self._var2level[b[0]]
                )
            else:
                order = [(v,) for v in self._level2var]

            def block_size(block: tuple[int, ...]) -> int:
                return sum(
                    len(nodes_at_level[self._var2level[v]]) for v in block
                )

            for block in sorted(order, key=block_size, reverse=True):
                self._sift_block(block, order, nodes_at_level, max_growth)
            self.n_reorder_runs += 1
        finally:
            self._reorder_tracking = None
            self._reorder_indeg = None
            self._reorder_dead = None
            self._in_reorder = False
            self._op_cache.clear()
            self._relprod_args_cache.clear()
        return self.n_reorder_swaps - swaps_before

    # -- reorder-scoped reference counting (see reorder()) --------------
    # Invariant: a node's child links are counted iff its own count is
    # positive; ``_reorder_dead`` is exactly the unreferenced interior
    # nodes, so the live size is ``len(unique) - len(dead)``.

    def _rr_acquire(self, c: int) -> None:
        if c < 2:
            return
        indeg = self._reorder_indeg
        if not indeg.get(c):
            self._reorder_dead.discard(c)
            self._rr_acquire(self._low[c])
            self._rr_acquire(self._high[c])
        indeg[c] = indeg.get(c, 0) + 1

    def _rr_release(self, c: int) -> None:
        if c < 2:
            return
        indeg = self._reorder_indeg
        indeg[c] -= 1
        if not indeg[c]:
            self._reorder_dead.add(c)
            self._rr_release(self._low[c])
            self._rr_release(self._high[c])

    def _sift_block(
        self,
        block: tuple[int, ...],
        order: list[tuple[int, ...]],
        nodes_at_level: list[set[int]],
        max_growth: float,
    ) -> None:
        pos = order.index(block)
        best_pos = pos
        live = lambda: len(self._unique) - len(self._reorder_dead)  # noqa: E731
        best_size = live()
        p = pos
        # sweep down to the bottom
        while p < len(order) - 1:
            self._exchange_blocks(order, p, nodes_at_level)
            p += 1
            size = live()
            if size < best_size:
                best_size, best_pos = size, p
            if size > max_growth * best_size:
                break
        # sweep back up to the top
        while p > 0:
            self._exchange_blocks(order, p - 1, nodes_at_level)
            p -= 1
            size = live()
            if size < best_size:
                best_size, best_pos = size, p
            if p < best_pos and size > max_growth * best_size:
                break
        # park at the best recorded position
        while p < best_pos:
            self._exchange_blocks(order, p, nodes_at_level)
            p += 1
        while p > best_pos:
            self._exchange_blocks(order, p - 1, nodes_at_level)
            p -= 1

    def _exchange_blocks(
        self,
        order: list[tuple[int, ...]],
        i: int,
        nodes_at_level: list[set[int]],
    ) -> None:
        """Swap adjacent blocks ``order[i]`` and ``order[i+1]`` via
        elementary level swaps (|A|·|B| of them)."""
        a, b = order[i], order[i + 1]
        p = self._var2level[a[0]]
        s, t = len(a), len(b)
        for bi in range(t):
            # bubble b's bi-th variable from level p+s+bi up to p+bi
            for lvl in range(p + s + bi, p + bi, -1):
                self._swap_levels(lvl - 1, nodes_at_level)
        order[i], order[i + 1] = b, a

    def _swap_levels(self, l: int, nodes_at_level: list[set[int]]) -> None:
        """Rudell's in-place adjacent swap of levels ``l`` and ``l+1``.

        Every node id keeps its Boolean function: nodes at level ``l`` that
        depend on level ``l+1`` are rebuilt in place with the two variables
        exchanged; independent ones just change level.  Freshly needed
        nodes at the new lower level are created through ``_mk`` (which
        also reuses sunk independent nodes).
        """
        upper = nodes_at_level[l]
        lower = nodes_at_level[l + 1]
        levels, lows, highs = self._level, self._low, self._high
        unique = self._unique
        dep: list[tuple[int, int, int, int, int]] = []
        indep: list[int] = []
        for n in upper:
            f0, f1 = lows[n], highs[n]
            d0 = levels[f0] == l + 1
            d1 = levels[f1] == l + 1
            if not (d0 or d1):
                indep.append(n)
                continue
            f00, f01 = (lows[f0], highs[f0]) if d0 else (f0, f0)
            f10, f11 = (lows[f1], highs[f1]) if d1 else (f1, f1)
            dep.append((n, f00, f01, f10, f11))
        # every level-l node leaves its slot in the unique table
        for n in upper:
            del unique[(l, lows[n], highs[n])]
        # lower-variable nodes rise to level l wholesale (children ≥ l+2)
        for n in lower:
            del unique[(l + 1, lows[n], highs[n])]
            levels[n] = l
            unique[(l, lows[n], highs[n])] = n
        new_upper = set(lower)
        new_lower = set(indep)
        nodes_at_level[l] = new_upper
        nodes_at_level[l + 1] = new_lower
        # independent upper nodes sink one level, unchanged otherwise
        for n in indep:
            levels[n] = l + 1
            unique[(l + 1, lows[n], highs[n])] = n
        # dependent nodes are rebuilt in place with the variables swapped:
        # (a, (b,f00,f01), (b,f10,f11))  →  (b, (a,f00,f10), (a,f01,f11))
        indeg = self._reorder_indeg

        def mk_tracked(level: int, lo: int, hi: int) -> int:
            if lo == hi:
                return lo
            existed = (level, lo, hi) in unique
            node = self._mk(level, lo, hi)
            if not existed:
                # born unreferenced: links stay uncounted until acquired
                self._reorder_dead.add(node)
            return node

        for n, f00, f01, f10, f11 in dep:
            counted = bool(indeg.get(n))
            if counted:
                self._rr_release(lows[n])
                self._rr_release(highs[n])
            g0 = mk_tracked(l + 1, f00, f10)
            g1 = mk_tracked(l + 1, f01, f11)
            if counted:
                self._rr_acquire(g0)
                self._rr_acquire(g1)
            lows[n] = g0
            highs[n] = g1
            assert (l, g0, g1) not in unique, "reorder uniqueness violated"
            unique[(l, g0, g1)] = n
            new_upper.add(n)
        va, vb = self._level2var[l], self._level2var[l + 1]
        self._level2var[l], self._level2var[l + 1] = vb, va
        self._var2level[va], self._var2level[vb] = l + 1, l
        self.n_reorder_swaps += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def size(self, f: int) -> int:
        """Number of nodes in the DAG rooted at ``f`` (terminals included)."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n > ONE:
                stack.append(self._low[n])
                stack.append(self._high[n])
        return len(seen)

    def size_many(self, roots: Iterable[int]) -> int:
        """Nodes in the shared DAG of several roots (CUDD's shared size)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n > ONE:
                stack.append(self._low[n])
                stack.append(self._high[n])
        return len(seen)

    def count_sat(self, f: int, n_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``n_vars`` variables."""
        n_vars = self.n_vars if n_vars is None else n_vars
        cache: dict[int, int] = {}

        def go(node: int) -> int:
            # models over variables below (>=) the node's level
            if node == ZERO:
                return 0
            if node == ONE:
                return 1 << 0
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._level[node]
            lo, hi = self._low[node], self._high[node]
            lo_count = go(lo) << (self._level[lo] - level - 1)
            hi_count = go(hi) << (self._level[hi] - level - 1)
            result = lo_count + hi_count
            cache[node] = result
            return result

        return go(f) << self._level[f]

    def pick(self, f: int) -> dict[int, bool] | None:
        """One satisfying assignment, keyed by variable index
        (unmentioned variables default False)."""
        if f == ZERO:
            return None
        out: dict[int, bool] = {}
        node = f
        while node > ONE:
            v = self._level2var[self._level[node]]
            if self._low[node] != ZERO:
                out[v] = False
                node = self._low[node]
            else:
                out[v] = True
                node = self._high[node]
        return out

    def pick_cube_over(self, f: int, variables: Sequence[int]) -> int:
        """BDD cube of one satisfying assignment of ``f``, extended to all
        of ``variables`` (variables off the picked path are forced False).
        One walk plus one bottom-up chain build — the fused twin of
        ``cube({v: pick(f).get(v, False) for v in variables})``."""
        if f == ZERO:
            return ZERO
        level, low, high = self._level, self._low, self._high
        path: dict[int, bool] = {}
        node = f
        while node > ONE:
            lo = low[node]
            if lo != ZERO:
                path[level[node]] = False
                node = lo
            else:
                path[level[node]] = True
                node = high[node]
        v2l = self._var2level
        get_pol = path.get
        out = ONE
        for l in sorted((v2l[v] for v in variables), reverse=True):
            if get_pol(l, False):
                out = self._mk(l, ZERO, out)
            else:
                out = self._mk(l, out, ZERO)
        return out

    def iter_sat(self, f: int) -> Iterator[dict[int, bool]]:
        """All satisfying assignments as partial maps keyed by variable
        index (don't-cares omitted)."""

        def go(node: int, partial: dict[int, bool]) -> Iterator[dict[int, bool]]:
            if node == ZERO:
                return
            if node == ONE:
                yield dict(partial)
                return
            v = self._level2var[self._level[node]]
            partial[v] = False
            yield from go(self._low[node], partial)
            partial[v] = True
            yield from go(self._high[node], partial)
            del partial[v]

        yield from go(f, {})

    def eval(self, f: int, assignment: Sequence[bool]) -> bool:
        """Evaluate ``f`` under a total assignment (indexed by variable)."""
        node = f
        while node > ONE:
            node = (
                self._high[node]
                if assignment[self._level2var[self._level[node]]]
                else self._low[node]
            )
        return node == ONE

    def cube(self, literals: dict[int, bool]) -> int:
        """Conjunction of literals: ``{variable: polarity}``."""
        self._maybe_reorder()
        v2l = self._var2level
        out = ONE
        for level in sorted((v2l[v] for v in literals), reverse=True):
            if literals[self._level2var[level]]:
                out = self._mk(level, ZERO, out)
            else:
                out = self._mk(level, out, ZERO)
        return out

    def counters(self) -> dict[str, int]:
        """The always-on operation counters plus table sizes, as a dict
        (the keys are the ``bdd.*`` counter names in trace reports)."""
        return {
            "ite_calls": self.n_ite_calls,
            "ite_terminal": self.n_ite_terminal,
            "ite_cache_hits": self.n_ite_cache_hits,
            "op_cache_lookups": self.n_op_cache_lookups,
            "op_cache_hits": self.n_op_cache_hits,
            "relprod_many_calls": self.n_relprod_many,
            "unique_nodes": self.num_nodes(),
            "live_nodes": self._n_live,
            "peak_live_nodes": self.n_peak_live,
            "gc_runs": self.n_gc_runs,
            "gc_collected": self.n_gc_collected,
            "reorder_runs": self.n_reorder_runs,
            "reorder_swaps": self.n_reorder_swaps,
            "ite_cache_entries": len(self._ite_cache),
            "op_cache_entries": len(self._op_cache),
        }

    def ite_hit_rate(self) -> float:
        """Fraction of ``ite`` calls answered by the memo table (0.0 when
        no calls were made)."""
        if self.n_ite_calls == 0:
            return 0.0
        return self.n_ite_cache_hits / self.n_ite_calls

    def clear_caches(self) -> None:
        """Drop operation caches (unique table survives — nodes stay valid)."""
        self._ite_cache.clear()
        self._op_cache.clear()
        self._relprod_args_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BDD(n_vars={self.n_vars}, nodes={self.num_nodes()})"
