"""From-scratch ROBDD/MDD package (the CUDD/GLU stand-in).

Layout:

:mod:`repro.bdd.manager`
    The BDD kernel (:class:`BDD`): dict-of-tuples unique and memo tables,
    one recursive apply procedure per operator, fused relational
    products, mark-and-sweep GC and Rudell sifting with blocks.  A
    manager holds at most :data:`~repro.bdd.manager.MAX_VARS` variables.
    See ``docs/SUBSTRATE.md``.
:mod:`repro.bdd.mdd`
    The multi-valued layer (:class:`~repro.bdd.mdd.MDD`): domain-sized
    variables log-encoded over the kernel, with validity predicates and
    encode/decode.
"""

from .manager import BDD, MAX_VARS, ONE, ZERO
from .mdd import MDD

__all__ = ["BDD", "MAX_VARS", "MDD", "ONE", "ZERO"]
