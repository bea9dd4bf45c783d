"""Mixed-radix state space.

A state is a valuation of all protocol variables (Section II).  States are
stored as integers in a mixed-radix encoding so that state *sets* can be
numpy boolean arrays and transition arithmetic is vectorisable: writing a
fixed set of variables to fixed new values is adding a constant stride delta
to the state index.

Variable 0 is the most significant digit.  ``stride[i]`` is the weight of
variable ``i``; a state index is ``sum(value[i] * stride[i])``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .variables import Variable

#: dtype used for state indices throughout the explicit engine.
STATE_DTYPE = np.int64

#: largest state-space size for which per-state arrays may be materialised;
#: beyond this the symbolic (BDD) engine is the only option.
EXPLICIT_LIMIT = 1 << 26


class StateSpace:
    """The set of all valuations of a list of finite-domain variables."""

    def __init__(self, variables: Sequence[Variable]):
        if not variables:
            raise ValueError("a state space needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.radices = np.array([v.domain_size for v in variables], dtype=STATE_DTYPE)
        # Size computed in exact Python ints: the symbolic engine handles
        # spaces (e.g. 3^40 for the 40-process coloring sweep) whose size
        # overflows int64.  Strides stay int64 — valid as long as the largest
        # stride fits, which a guard below enforces.
        size = 1
        for v in variables:
            size *= v.domain_size
        self.size = size
        strides = np.ones(len(variables), dtype=STATE_DTYPE)
        for i in range(len(variables) - 2, -1, -1):
            stride = int(strides[i + 1]) * int(self.radices[i + 1])
            if stride > np.iinfo(STATE_DTYPE).max:
                raise ValueError(
                    f"state space too large even for symbolic strides "
                    f"(stride of {variables[i].name!r} overflows int64)"
                )
            strides[i] = stride
        self.strides = strides
        # The state tensor: a flat state mask reshaped to ``tensor_shape``
        # has one axis per variable of domain > 1, in variable order (a
        # domain-1 variable contributes no digit).  ``tensor_axis[v]`` is
        # variable v's axis, ``None`` for a domain-1 variable.
        kept = [i for i, v in enumerate(variables) if v.domain_size > 1]
        self.tensor_shape = tuple(variables[i].domain_size for i in kept)
        self.tensor_axis: tuple[int | None, ...] = tuple(
            kept.index(i) if i in kept else None for i in range(len(variables))
        )
        self._index_of_name = {v.name: i for i, v in enumerate(variables)}
        self._var_array_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def index_of(self, name: str) -> int:
        """Position of the variable called ``name``."""
        return self._index_of_name[name]

    def var(self, name: str) -> Variable:
        return self.variables[self._index_of_name[name]]

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, values: Sequence[int]) -> int:
        """State index of the valuation ``values`` (one entry per variable)."""
        if len(values) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} values, got {len(values)}")
        idx = 0
        for value, var, stride in zip(values, self.variables, self.strides):
            if not 0 <= value < var.domain_size:
                raise ValueError(f"{value} outside domain of {var.name!r}")
            idx += int(value) * int(stride)
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        """Valuation tuple of the state ``index``."""
        if not 0 <= index < self.size:
            raise ValueError(f"state index {index} outside [0, {self.size})")
        # exact Python-int arithmetic: indices of symbolic-scale spaces can
        # exceed int64, which numpy scalars would overflow on
        index = int(index)
        out = []
        for radix, stride in zip(self.radices, self.strides):
            out.append((index // int(stride)) % int(radix))
        return tuple(out)

    def value_of(self, index: int, var_index: int) -> int:
        """Value of variable ``var_index`` in state ``index``."""
        return (int(index) // int(self.strides[var_index])) % int(
            self.radices[var_index]
        )

    def values_of(self, indices: np.ndarray, var_index: int) -> np.ndarray:
        """Vectorised :meth:`value_of` over an array of state indices."""
        return (indices // self.strides[var_index]) % self.radices[var_index]

    def var_array(self, var_index: int) -> np.ndarray:
        """Array ``a`` with ``a[s] ==`` value of variable ``var_index`` in state ``s``.

        Cached: used to evaluate state predicates vectorised over the whole
        space.  The array has dtype int16 (domains are small) and length
        :attr:`size`.
        """
        if self.size > EXPLICIT_LIMIT:
            raise ValueError(
                f"state space of {self.size} states exceeds the explicit-"
                f"engine limit ({EXPLICIT_LIMIT}); use the symbolic engine"
            )
        cached = self._var_array_cache.get(var_index)
        if cached is None:
            idx = np.arange(self.size, dtype=STATE_DTYPE)
            cached = ((idx // self.strides[var_index]) % self.radices[var_index]).astype(
                np.int16
            )
            self._var_array_cache[var_index] = cached
        return cached

    def named_var_arrays(self) -> dict[str, np.ndarray]:
        """Mapping variable name -> :meth:`var_array`, for predicate building."""
        return {v.name: self.var_array(i) for i, v in enumerate(self.variables)}

    # ------------------------------------------------------------------
    # iteration / display
    # ------------------------------------------------------------------
    def iter_states(self) -> Iterator[int]:
        return iter(range(self.size))

    def format_state(self, index: int) -> str:
        """Human-readable ``⟨name=value, ...⟩`` rendering of a state."""
        parts = [
            f"{var.name}={var.label(value)}"
            for var, value in zip(self.variables, self.decode(index))
        ]
        return "<" + ", ".join(parts) + ">"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"StateSpace({[v.name for v in self.variables]}, size={self.size})"


def subspace_strides(radices: Iterable[int]) -> np.ndarray:
    """Mixed-radix strides for a sub-tuple of variables (most significant first)."""
    radices = list(radices)
    strides = np.ones(len(radices), dtype=STATE_DTYPE)
    for i in range(len(radices) - 2, -1, -1):
        strides[i] = strides[i + 1] * radices[i + 1]
    return strides


def encode_subvalues(values: Sequence[int], strides: np.ndarray) -> int:
    """Encode a valuation of a sub-tuple of variables using ``strides``."""
    return int(np.dot(np.asarray(values, dtype=STATE_DTYPE), strides))


def decode_subvalues(code: int, radices: Sequence[int], strides: np.ndarray) -> tuple[int, ...]:
    """Inverse of :func:`encode_subvalues`."""
    return tuple(int(code // s) % int(r) for r, s in zip(radices, strides))
