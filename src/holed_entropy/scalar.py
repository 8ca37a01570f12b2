"""A shim that keeps the benchmark harness's import working.

The package holds plain Fractions and imports nothing from here.
``bench/workloads.py`` still writes ``from holed_entropy.scalar import
Scalar`` and wraps exact inputs in ``Scalar.exact(...)``; since every map
and hole constructor and :func:`~holed_entropy.kneading.entropy_left_hole`
take a Fraction, ``Scalar.exact`` is the package's one exact coercion and
returns one.  The benchmark's next edit passes Fractions directly and
deletes this file.
"""

from .mapmodel import _exact


class Scalar:
    """``Scalar.exact(x)`` is the Fraction that x (an int, a Fraction or a
    rational string) stands for."""

    exact = staticmethod(_exact)
