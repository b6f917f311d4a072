"""tiltkit: exact computation with finite-dimensional quiver algebras.

Builds path algebras with relations, computes modules, Hom/Ext, inverse
Auslander-Reiten translates and generalized APR tilting modules, verifies
idempotent recollements, and certifies derived equivalences between
triangular matrix algebras via glued tilting objects.
"""

__version__ = "0.1.0"

from .linalg import QQ, PrimeField, Matrix  # noqa: F401
