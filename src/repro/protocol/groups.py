"""Transition groups induced by read restrictions.

Because a process ``Pj`` cannot observe variables outside its read set
``r_j``, any transition it takes is bundled with *groupmates*: one transition
per valuation of the unreadable variables (Section II).  A group is therefore
fully identified by

* ``rcode`` — the valuation of the readable variables at the source, and
* ``wcode`` — the new valuation of the written variables at the target

(the written variables are readable, so the source values of ``w_j`` are part
of ``rcode``; all other variables are unchanged).  The group's concrete
transitions are ``(src, src + delta)`` where ``src`` ranges over
``base(rcode) + unread_offsets`` and ``delta`` is a constant — this is what
makes the whole explicit engine vectorisable.

Pure-self-loop groups (``wcode`` equal to the current written values) are not
representable here: they never help convergence and a self-loop outside the
invariant is itself a non-progress cycle, so the synthesis heuristic must
never add one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .state_space import (
    STATE_DTYPE,
    StateSpace,
    decode_subvalues,
    encode_subvalues,
    subspace_strides,
)
from .topology import ProcessSpec

#: A transition group identifier: ``(process index, rcode, wcode)``.
GroupId = tuple[int, int, int]


@dataclass(frozen=True)
class GroupInfo:
    """Decoded, human-oriented view of a group (for display and debugging)."""

    process: str
    read_vars: tuple[str, ...]
    read_values: tuple[int, ...]
    write_vars: tuple[str, ...]
    new_values: tuple[int, ...]
    size: int

    def describe(self) -> str:
        guard = " & ".join(f"{v}={x}" for v, x in zip(self.read_vars, self.read_values))
        stmt = ", ".join(f"{v}:={x}" for v, x in zip(self.write_vars, self.new_values))
        return f"[{self.process}] {guard} -> {stmt} ({self.size} transitions)"


class ProcessGroupTable:
    """Precomputed group arithmetic for one process.

    All quantities are derived once from the process's read/write sets:

    ``bases``
        ``bases[rcode]`` = contribution of the readable valuation to the
        state index.
    ``unread_offsets``
        sorted state-index offsets of every valuation of the unreadable
        variables; group sources are ``bases[rcode] + unread_offsets``.
    ``deltas``
        ``deltas[rcode, wcode]`` = constant index delta applied by the group.
    ``self_wcode``
        ``self_wcode[rcode]`` = wcode equal to the *current* written values,
        i.e. the (excluded) pure-self-loop column.
    """

    def __init__(self, space: StateSpace, proc_index: int, spec: ProcessSpec):
        self.space = space
        self.proc_index = proc_index
        self.spec = spec
        n = space.n_vars
        self.read_vars = spec.reads
        self.write_vars = spec.writes
        self.unread_vars = spec.unreadable(n)

        r_radices = [int(space.radices[v]) for v in self.read_vars]
        w_radices = [int(space.radices[v]) for v in self.write_vars]
        u_radices = [int(space.radices[v]) for v in self.unread_vars]
        self.r_radices = r_radices
        self.w_radices = w_radices
        self.r_strides = subspace_strides(r_radices)
        self.w_strides = subspace_strides(w_radices)
        self.n_rvals = int(np.prod(r_radices, dtype=np.int64)) if r_radices else 1
        self.n_wvals = int(np.prod(w_radices, dtype=np.int64)) if w_radices else 1
        self.group_size = int(np.prod(u_radices, dtype=np.int64)) if u_radices else 1

        # bases[rcode] (state-index contribution of each readable valuation)
        # is explicit-engine-only and can exceed int64 range on symbolic-only
        # spaces, so it is computed lazily like unread_offsets.
        space_strides = space.strides
        self._bases: np.ndarray | None = None

        # unread_offsets (one per valuation of the unreadable variables) can
        # be as large as the state space divided by the readable cylinder —
        # computed lazily so that symbolic-only runs over astronomically
        # large spaces (e.g. 3^40 coloring) never materialise it.
        self._unread_offsets: np.ndarray | None = None
        self._cylinder_row: np.ndarray | None = None

        # wnew_contrib[wcode]: state-index contribution of the new written values.
        wnew = np.zeros(self.n_wvals, dtype=STATE_DTYPE)
        for pos, v in enumerate(self.write_vars):
            vals = self._wcode_digit(np.arange(self.n_wvals, dtype=STATE_DTYPE), pos)
            wnew += vals * space_strides[v]
        # wcur_contrib[rcode]: contribution of the current written values.
        wcur = np.zeros(self.n_rvals, dtype=STATE_DTYPE)
        self_wcode = np.zeros(self.n_rvals, dtype=STATE_DTYPE)
        for wpos, v in enumerate(self.write_vars):
            rpos = self.read_vars.index(v)
            vals = self._rcode_digit(np.arange(self.n_rvals, dtype=STATE_DTYPE), rpos)
            wcur += vals * space_strides[v]
            self_wcode += vals * self.w_strides[wpos]
        # deltas[rcode, wcode] = wnew_contrib[wcode] - wcur_contrib[rcode]
        self.deltas = wnew[None, :] - wcur[:, None]
        self.self_wcode = self_wcode

        # State-tensor axes (see StateSpace.tensor_shape), domain-1 variables
        # left out: ``read_axes`` in read_vars order, ``unread_axes``
        # ascending, and ``axis_order``, the read axes (ascending) followed
        # by the unread ones.  Transposed by ``axis_order``, a state tensor
        # holds each rcode's cylinder as one contiguous innermost block.
        axis = space.tensor_axis
        self._read_digits = [
            pos for pos, v in enumerate(self.read_vars) if axis[v] is not None
        ]
        self.read_axes = tuple(axis[self.read_vars[p]] for p in self._read_digits)
        self.unread_axes = tuple(
            axis[v] for v in self.unread_vars if axis[v] is not None
        )
        self.axis_order = tuple(sorted(self.read_axes)) + self.unread_axes

    @property
    def bases(self) -> np.ndarray:
        """``bases[rcode]`` — state-index contribution of the readable valuation."""
        if self._bases is None:
            if self.space.size > np.iinfo(STATE_DTYPE).max:
                raise ValueError(
                    "state indices overflow int64; use the symbolic engine"
                )
            bases = np.zeros(self.n_rvals, dtype=STATE_DTYPE)
            for pos, v in enumerate(self.read_vars):
                vals = self._rcode_digit(
                    np.arange(self.n_rvals, dtype=STATE_DTYPE), pos
                )
                bases += vals * self.space.strides[v]
            self._bases = bases
        return self._bases

    @property
    def unread_offsets(self) -> np.ndarray:
        """State-index offsets of every unreadable valuation (sorted)."""
        if self._unread_offsets is None:
            if self.group_size > (1 << 26):
                raise ValueError(
                    f"group size {self.group_size} of process "
                    f"{self.spec.name!r} exceeds the explicit-engine limit; "
                    f"use the symbolic engine"
                )
            offsets = np.zeros(1, dtype=STATE_DTYPE)
            for v in self.unread_vars:
                d = int(self.space.radices[v])
                step = np.arange(d, dtype=STATE_DTYPE) * self.space.strides[v]
                offsets = (offsets[:, None] + step[None, :]).ravel()
            self._unread_offsets = np.sort(offsets)
        return self._unread_offsets

    # ------------------------------------------------------------------
    # digit helpers (vectorised mixed-radix decode of r/w codes)
    # ------------------------------------------------------------------
    def _rcode_digit(self, rcodes: np.ndarray, pos: int) -> np.ndarray:
        return (rcodes // self.r_strides[pos]) % self.r_radices[pos]

    def _wcode_digit(self, wcodes: np.ndarray, pos: int) -> np.ndarray:
        return (wcodes // self.w_strides[pos]) % self.w_radices[pos]

    # ------------------------------------------------------------------
    # codes <-> valuations
    # ------------------------------------------------------------------
    def rcode_of_values(self, values: Sequence[int]) -> int:
        """rcode of a readable valuation (ordered like :attr:`read_vars`)."""
        return encode_subvalues(values, self.r_strides)

    def wcode_of_values(self, values: Sequence[int]) -> int:
        """wcode of a written valuation (ordered like :attr:`write_vars`)."""
        return encode_subvalues(values, self.w_strides)

    def values_of_rcode(self, rcode: int) -> tuple[int, ...]:
        return decode_subvalues(rcode, self.r_radices, self.r_strides)

    def values_of_wcode(self, wcode: int) -> tuple[int, ...]:
        return decode_subvalues(wcode, self.w_radices, self.w_strides)

    def rcode_of_state(self, state: int) -> int:
        """rcode observed by this process in global state ``state``."""
        vals = [self.space.value_of(state, v) for v in self.read_vars]
        return self.rcode_of_values(vals)

    def rcodes_of_states(self, states: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rcode_of_state`."""
        out = np.zeros(len(states), dtype=STATE_DTYPE)
        for pos, v in enumerate(self.read_vars):
            out += self.space.values_of(states, v) * self.r_strides[pos]
        return out

    # ------------------------------------------------------------------
    # group transitions
    # ------------------------------------------------------------------
    def sources(self, rcode: int) -> np.ndarray:
        """All source states of groups with this ``rcode`` (ascending)."""
        return self.bases[rcode] + self.unread_offsets

    def pairs(self, rcode: int, wcode: int) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays of the group ``(rcode, wcode)``."""
        src = self.sources(rcode)
        return src, src + self.deltas[rcode, wcode]

    def target_rcodes(
        self, rcodes: Sequence[int], wcodes: Sequence[int]
    ) -> np.ndarray:
        """rcode of the targets of the groups ``(rcodes[g], wcodes[g])``.

        It is the source rcode with the written digits set to the wcode: a
        group maps the cylinder of its rcode onto the cylinder of its target
        rcode, the unread valuations in the same order.
        """
        r = np.asarray(rcodes, dtype=STATE_DTYPE)
        w = np.asarray(wcodes, dtype=STATE_DTYPE)
        out = r.copy()
        for wpos, v in enumerate(self.write_vars):
            rpos = self.read_vars.index(v)
            step = self._wcode_digit(w, wpos) - self._rcode_digit(r, rpos)
            out += step * self.r_strides[rpos]
        return out

    # ------------------------------------------------------------------
    # the state tensor: rcode-indexed arrays on the read axes
    # ------------------------------------------------------------------
    def rcode_tensor(self, values: np.ndarray) -> np.ndarray:
        """``values[rcode, ...]`` on the read axes of the state tensor
        transposed by :attr:`axis_order`.

        The read axes come in ascending axis order and every unread axis has
        size 1, so the result broadcasts along the cylinders; trailing
        dimensions of ``values`` are kept.
        """
        tail = values.shape[1:]
        digits = tuple(self.r_radices[p] for p in self._read_digits)
        order = tuple(int(k) for k in np.argsort(self.read_axes))
        out = values.reshape(digits + tail).transpose(
            order + tuple(range(len(digits), len(digits) + len(tail)))
        )
        return out.reshape(
            out.shape[: len(digits)] + (1,) * len(self.unread_axes) + tail
        )

    def cylinder_rows(self, values: np.ndarray) -> np.ndarray:
        """A per-state array as one row per readable valuation.

        Row ``cylinder_row[rcode]`` of the ``(n_rvals, group_size)`` result
        holds ``values[sources(rcode)]``.  It is one strided copy of the
        state tensor transposed by :attr:`axis_order`, cheaper than
        gathering the cylinders by index.
        """
        tensor = values.reshape(self.space.tensor_shape)
        return tensor.transpose(self.axis_order).reshape(
            self.n_rvals, self.group_size
        )

    @property
    def cylinder_row(self) -> np.ndarray:
        """``cylinder_row[rcode]`` — the row of rcode's cylinder in
        :meth:`cylinder_rows`."""
        if self._cylinder_row is None:
            order = self.rcode_tensor(np.arange(self.n_rvals)).reshape(-1)
            row = np.empty(self.n_rvals, dtype=np.int64)
            row[order] = np.arange(self.n_rvals)
            self._cylinder_row = row
        return self._cylinder_row

    def tensor_rcodes(self, tensor: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`rcode_tensor` for a tensor over the read axes
        alone (in ascending axis order): the vector indexed by rcode."""
        return tensor.transpose(np.argsort(np.argsort(self.read_axes))).reshape(
            self.n_rvals
        )

    def write_index(self, wcode: int) -> tuple[slice, ...]:
        """Index fixing the written variables at ``wcode``, on the state
        tensor transposed by :attr:`axis_order`.

        It selects a view with size 1 on the write axes: ``F[s with
        w_j := wcode]``, broadcast back over ``s``.
        """
        index = [slice(None)] * len(self.axis_order)
        for v, x in zip(self.write_vars, self.values_of_wcode(wcode)):
            a = self.space.tensor_axis[v]
            if a is not None:
                index[self.axis_order.index(a)] = slice(x, x + 1)
        return tuple(index)

    def is_self_loop(self, rcode: int, wcode: int) -> bool:
        return int(self.self_wcode[rcode]) == wcode

    def iter_candidate_groups(self) -> Iterator[tuple[int, int]]:
        """All non-self-loop ``(rcode, wcode)`` pairs of this process."""
        for rcode in range(self.n_rvals):
            self_w = int(self.self_wcode[rcode])
            for wcode in range(self.n_wvals):
                if wcode != self_w:
                    yield rcode, wcode

    @property
    def n_candidate_groups(self) -> int:
        return self.n_rvals * (self.n_wvals - 1)

    def group_info(self, rcode: int, wcode: int) -> GroupInfo:
        return GroupInfo(
            process=self.spec.name,
            read_vars=tuple(self.space.variables[v].name for v in self.read_vars),
            read_values=self.values_of_rcode(rcode),
            write_vars=tuple(self.space.variables[v].name for v in self.write_vars),
            new_values=self.values_of_wcode(wcode),
            size=self.group_size,
        )

    # ------------------------------------------------------------------
    # recovering group structure from raw transitions
    # ------------------------------------------------------------------
    def group_of_transition(self, s0: int, s1: int) -> tuple[int, int] | None:
        """Group id of the transition ``(s0, s1)`` if this process can take it.

        Returns ``None`` when the transition writes a variable outside
        ``w_j`` or changes an unreadable/unwritten variable — i.e. when it is
        not a legal move of this process.  Pure self-loops are rejected too.
        """
        if s0 == s1:
            return None
        space = self.space
        writable = set(self.write_vars)
        for v in range(space.n_vars):
            if v in writable:
                continue
            if space.value_of(s0, v) != space.value_of(s1, v):
                return None
        rcode = self.rcode_of_state(s0)
        wcode = self.wcode_of_values(
            [space.value_of(s1, v) for v in self.write_vars]
        )
        return rcode, wcode


def build_group_tables(
    space: StateSpace, processes: Sequence[ProcessSpec]
) -> list[ProcessGroupTable]:
    """One :class:`ProcessGroupTable` per process."""
    return [ProcessGroupTable(space, i, p) for i, p in enumerate(processes)]
