"""Formulas as 2x2 polynomial matrices, with probabilistic proof checking.

The package re-exports nothing: import its modules, such as
``polyproof.protocol`` or ``polyproof.cli``.
"""

__version__ = "0.1.0"
