"""heislab: exact decision procedures for Heisenberg-like matrix groups.

Subpackages:
  record   -- the immutable record base of every value class
  rings    -- products of integer polynomial rings, retractions, discrimination
  zlattice -- integer lattices in Hermite normal form
  ut3      -- the group of upper unitriangular 3x3 matrices over such rings
  nilform  -- free 2-nilpotent groups with Mal'cev normal forms
  formula  -- first-order formulas, bounded quantifier search, named sentences
  reprs    -- representations and the exact lattice checkers
  cli      -- the ``heislab`` command-line front end
"""

from . import formula, nilform, reprs, rings, ut3, zlattice  # noqa: F401

__version__ = "1.0.0"
__all__ = ["rings", "zlattice", "ut3", "nilform", "formula", "reprs"]
