"""One cold start for the tests: :func:`cold_caches` empties every
process-wide cache of the package.

No value depends on what these caches hold, so a test may call it before
and after it runs, and leaves nothing warm for the next one.  Test modules
import it as ``from caches import cold_caches``, which works under pytest
and when a test module in this directory runs as a script.
"""

from fractions import Fraction

from feident import exact, prefix, series, verify
from feident.series import EgfSeries


def cold_caches() -> None:
    """Empty the number tables of every u, the kept composition terms, the
    Bernoulli prefix, the kept Pascal rows and the kept gamma-vectors."""
    prefix._table.cache_clear()
    verify._composition_terms.cache_clear()
    series._bernoulli_prefix = EgfSeries([Fraction(1)])
    exact._kept_rows = ((1,),)
    prefix._kept_gammas = ((), (1,))
