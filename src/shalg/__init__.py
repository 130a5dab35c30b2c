"""shalg: exact rational engine for strongly homotopy algebra.

Subpackages:
  exactlin   - graded Q-linear algebra, chain complexes, homology splittings
  operadcore - free colored operads on trees, derivation differentials
  ainfty     - A-infinity algebras and sh morphisms, coherence checkers
  transfer   - SDR data, side conditions, homotopy-invariance moves
  serialize  - JSON file formats
  jsontext   - JSON text as json writes and reads it, without importing json
  cli        - batch command line front end
"""

__version__ = "0.1.0"
