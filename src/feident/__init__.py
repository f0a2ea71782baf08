"""feident: exact Frobenius-Euler numbers, polynomials, and identity checks.

Everything is computed over arbitrary-precision rationals.  The package
keeps two independent routes to each quantity (closed form vs truncated
generating function) and ships a verification harness that compares them,
including an audit mode distinguishing commonly typeset identity forms
from their sign-corrected variants.

The top level exports the documented API; everything else is importable
from its submodule (``feident.exact``, ``feident.series``, ...).  The
number functions, ``Polynomial`` and the triangle load with the package.
The checkers (``verify_*``, ``audit_all``, ``audit_document``) load
:mod:`feident.verify` on first access, so ``import feident`` and the
``table`` commands do without it; they are the objects of that module.
"""

from .frobenius import (
    VARIANTS,
    fe_higher_number_formula,
    fe_higher_number_oracle,
    fe_number,
    fe_polynomial,
)
from .poly import Polynomial
from .stirling import coeff_closed_form, triangle_recurrence

# Read from feident.verify on access (PEP 562 ``__getattr__``).
_CHECKER_EXPORTS = (
    "audit_all",
    "audit_document",
    "verify_bernoulli_product",
    "verify_carlitz",
    "verify_carlitz_reciprocal",
    "verify_corollary2",
    "verify_corollary4",
    "verify_corollary5",
    "verify_product_multinomial",
    "verify_theorem1",
    "verify_theorem3",
)

__all__ = [
    "VARIANTS",
    "fe_higher_number_formula",
    "fe_higher_number_oracle",
    "fe_number",
    "fe_polynomial",
    "Polynomial",
    "coeff_closed_form",
    "triangle_recurrence",
    *_CHECKER_EXPORTS,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _CHECKER_EXPORTS:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_CHECKER_EXPORTS})
