"""Multi-valued decision-diagram (MDD) interface over the BDD kernel.

The synthesis engine reasons about protocol variables with small finite
domains (a colour in ``{0..2}``, a token position in ``{0..k-1}``), not
about individual bits.  This module provides that multi-valued view as a
first-class layer: an :class:`MDD` declares variables by *domain size*
and internally manages a binary log-encoding over a
:class:`repro.bdd.manager.BDD`.

Encoding contract
-----------------
Each multi-valued variable with domain ``d`` is encoded in
``ceil(log2 d)`` Boolean variables, **msb-first**: bit 0 is the most
significant.  With ``pairs=True`` every variable additionally gets a
primed (next-state) twin and the bits are *interleaved* —
``cur0, next0, cur1, next1, ...`` in allocation order — which keeps
transition relations small and makes the cur↔next renames
order-preserving, a requirement of :meth:`repro.bdd.manager.BDD.rename`.
The interleaved ``(cur, next)`` bit pairs are registered as reorder
blocks so dynamic sifting preserves both properties.

When ``d`` is not a power of two the encoding has *invalid* bit
patterns (``d <= value < 2**bits``).  The layer owns the validity
story:

- :meth:`domain_cube` is the per-variable validity predicate
  ``value < d``, built directly as a linear-size threshold comparator
  (not by enumerating the domain);
- :meth:`valid` conjoins them over all variables (cached);
- :meth:`unchanged` (``v' == v``) is a bit-equality ladder conjoined
  with the domain cube, so out-of-domain pairs are excluded — the same
  semantics the enumeration-based construction had;
- :meth:`eq` / :meth:`value_cube` never produce states outside the
  domain.

Set-level operations that report model counts must mask with
:meth:`valid` first (as :meth:`count_assignments` does) — raw
``count_sat`` on the underlying BDD counts invalid patterns too.

The total bit count (twice the sum of the widths with ``pairs=True``) is
bounded by :data:`repro.bdd.manager.MAX_VARS`; a larger encoding raises
``ValueError`` when the kernel is created.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .manager import BDD, ONE, ZERO


def bits_for(domain: int) -> int:
    """Number of bits in the log-encoding of a domain of size ``domain``."""
    if domain < 1:
        raise ValueError(f"domain size must be >= 1, got {domain}")
    bits = 1
    while (1 << bits) < domain:
        bits += 1
    return bits


class MDD:
    """Multi-valued variables log-encoded over the BDD kernel.

    ``domains[i]`` is the domain size of variable ``i``; ``names[i]``
    its display name (bit variables are named ``{name}.{bit}`` and
    ``{name}.{bit}'`` for the primed twin).  With ``pairs=True`` (the
    transition-system layout) every variable gets interleaved
    current/next bit pairs and the pair blocks are registered with the
    reorderer.

    Node ids returned by this class are plain kernel node ids — freely
    mixable with direct kernel calls on :attr:`bdd`.  All cubes this
    object caches are reported by :meth:`gc_roots`.
    """

    def __init__(
        self,
        domains: Sequence[int],
        names: Sequence[str] | None = None,
        *,
        pairs: bool = False,
    ):
        self.domains = [int(d) for d in domains]
        self.n_vars = len(self.domains)
        if names is None:
            names = [f"v{i}" for i in range(self.n_vars)]
        if len(names) != self.n_vars:
            raise ValueError("one name per variable required")
        self.names = list(names)
        self.pairs = pairs
        self.n_bits: list[int] = [bits_for(d) for d in self.domains]
        bit_names: list[str] = []
        #: per-variable current-bit levels, msb first
        self.cur_levels: list[list[int]] = []
        #: per-variable next-bit levels (empty lists when ``pairs=False``)
        self.next_levels: list[list[int]] = []
        level = 0
        for name, bits in zip(self.names, self.n_bits):
            cur: list[int] = []
            nxt: list[int] = []
            for b in range(bits):
                bit_names.append(f"{name}.{b}")
                cur.append(level)
                level += 1
                if pairs:
                    bit_names.append(f"{name}.{b}'")
                    nxt.append(level)
                    level += 1
            self.cur_levels.append(cur)
            self.next_levels.append(nxt)
        #: the underlying Boolean kernel
        self.bdd = BDD(level, bit_names)
        self.all_cur = [l for ls in self.cur_levels for l in ls]
        self.all_next = [l for ls in self.next_levels for l in ls]
        if pairs:
            self.bdd.set_reorder_blocks(zip(self.all_cur, self.all_next))
        self._value_cubes: dict[tuple[int, int, bool], int] = {}
        self._domain_cubes: dict[tuple[int, bool], int] = {}
        self._valid: dict[bool, int] = {}
        self._unchanged: dict[int, int] = {}
        self._eq: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def levels(self, i: int, *, primed: bool = False) -> list[int]:
        """Bit levels of variable ``i`` (msb first)."""
        return (self.next_levels if primed else self.cur_levels)[i]

    def total_bits(self) -> int:
        return self.bdd.n_vars

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def value_cube(self, i: int, value: int, *, primed: bool = False) -> int:
        """BDD of ``v_i == value`` (cached per variable/value/copy)."""
        if not 0 <= value < self.domains[i]:
            raise ValueError(f"{value} outside domain of variable {i}")
        key = (i, value, primed)
        cached = self._value_cubes.get(key)
        if cached is None:
            bits = self.levels(i, primed=primed)
            n = len(bits)
            cached = self.bdd.cube(
                {bits[b]: bool((value >> (n - 1 - b)) & 1) for b in range(n)}
            )
            self._value_cubes[key] = cached
        return cached

    def partial_cube(self, literals: Iterable[tuple[int, int]]) -> int:
        """BDD of the conjunction of ``v_i == value`` over ``(i, value)``
        literals, built by one :meth:`BDD.cube` over their bits.

        The same node as ``and_all`` over the literals' :meth:`value_cube`
        BDDs, including ``ZERO`` at the first literal that contradicts an
        earlier one (later literals are then not read).
        """
        bits: dict[int, bool] = {}
        for i, value in literals:
            if not 0 <= value < self.domains[i]:
                raise ValueError(f"{value} outside domain of variable {i}")
            levels = self.cur_levels[i]
            n = len(levels)
            for b, level in enumerate(levels):
                bit = bool((value >> (n - 1 - b)) & 1)
                if bits.setdefault(level, bit) != bit:
                    return ZERO
        return self.bdd.cube(bits)

    def domain_cube(self, i: int, *, primed: bool = False) -> int:
        """Validity predicate ``v_i < domains[i]`` over the raw bits.

        Built as a threshold comparator (one node per bit), not by
        enumerating the domain, so it is linear in the bit count even
        for large domains.
        """
        key = (i, primed)
        cached = self._domain_cubes.get(key)
        if cached is None:
            d = self.domains[i]
            bits = self.levels(i, primed=primed)
            n = len(bits)
            if d == (1 << n):
                cached = ONE
            else:
                # value <= d-1, folded lsb -> msb
                t = d - 1
                bdd = self.bdd
                cached = ONE
                for b in range(n - 1, -1, -1):
                    v = bdd.var(bits[b])
                    if (t >> (n - 1 - b)) & 1:
                        cached = bdd.ite(v, cached, ONE)
                    else:
                        cached = bdd.ite(v, ZERO, cached)
            self._domain_cubes[key] = cached
        return cached

    def valid(self, *, primed: bool = False) -> int:
        """Conjunction of every variable's :meth:`domain_cube` (cached)."""
        cached = self._valid.get(primed)
        if cached is None:
            cached = self.bdd.and_all(
                self.domain_cube(i, primed=primed) for i in range(self.n_vars)
            )
            self._valid[primed] = cached
        return cached

    def eq(self, i: int, j: int) -> int:
        """``v_i == v_j`` over current bits (cached; value enumeration
        over the smaller domain, so both operands stay in-domain)."""
        key = (i, j) if i <= j else (j, i)
        cached = self._eq.get(key)
        if cached is None:
            d = min(self.domains[i], self.domains[j])
            bdd = self.bdd
            cached = bdd.or_all(
                bdd.and_(self.value_cube(i, v), self.value_cube(j, v))
                for v in range(d)
            )
            self._eq[key] = cached
        return cached

    def unchanged(self, i: int) -> int:
        """Frame condition ``v_i' == v_i`` (requires ``pairs=True``).

        A bit-equality ladder conjoined with the current-copy domain
        cube — linear in the bit count, and excludes out-of-domain
        pairs exactly like the value-enumeration construction.
        """
        if not self.pairs:
            raise ValueError("unchanged() requires pairs=True")
        cached = self._unchanged.get(i)
        if cached is None:
            bdd = self.bdd
            cur = self.cur_levels[i]
            nxt = self.next_levels[i]
            r = self.domain_cube(i)
            for b in range(len(cur) - 1, -1, -1):
                nv = bdd.var(nxt[b])
                r = bdd.ite(bdd.var(cur[b]), bdd.and_(nv, r), bdd.diff(r, nv))
            self._unchanged[i] = cached = r
        return cached

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def encode(self, values: Sequence[int], *, primed: bool = False) -> int:
        """Cube of a full assignment (one value per variable)."""
        if len(values) != self.n_vars:
            raise ValueError("one value per variable required")
        literals: dict[int, bool] = {}
        for i, value in enumerate(values):
            if not 0 <= value < self.domains[i]:
                raise ValueError(f"{value} outside domain of variable {i}")
            bits = self.levels(i, primed=primed)
            n = len(bits)
            for b in range(n):
                literals[bits[b]] = bool((value >> (n - 1 - b)) & 1)
        return self.bdd.cube(literals)

    def decode(
        self, model: Mapping[int, bool], *, primed: bool = False
    ) -> tuple[int, ...]:
        """Values of a (possibly partial) bit model; absent bits read 0.

        The inverse of :meth:`encode` for models drawn from in-domain
        state sets (e.g. ``bdd.pick(f & valid())``).
        """
        values = []
        for i in range(self.n_vars):
            bits = self.levels(i, primed=primed)
            n = len(bits)
            value = 0
            for b in range(n):
                value |= int(bool(model.get(bits[b], False))) << (n - 1 - b)
            values.append(value)
        return tuple(values)

    def count_assignments(self, f: int) -> int:
        """Number of in-domain current-copy assignments satisfying ``f``."""
        g = self.bdd.and_(f, self.valid())
        return self.bdd.count_sat(g) >> len(self.all_next)

    # ------------------------------------------------------------------
    # garbage-collection roots
    # ------------------------------------------------------------------
    def gc_roots(self) -> Iterator[int]:
        """Every node id this object caches — pass to ``collect_garbage``."""
        yield from self._value_cubes.values()
        yield from self._domain_cubes.values()
        yield from self._valid.values()
        yield from self._unchanged.values()
        yield from self._eq.values()
