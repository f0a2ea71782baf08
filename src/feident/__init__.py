"""feident: exact Frobenius-Euler numbers, polynomials, and identity checks.

Everything is computed over arbitrary-precision rationals.  The package
keeps two independent routes to each quantity (closed form vs truncated
generating function) and ships a verification harness that compares them,
including an audit mode distinguishing commonly typeset identity forms
from their sign-corrected variants.

The top level exports the documented API; everything else is importable
from its submodule (``feident.exact``, ``feident.series``, ...).
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
from .verify import (
    audit_all,
    audit_document,
    verify_bernoulli_product,
    verify_carlitz,
    verify_carlitz_reciprocal,
    verify_corollary2,
    verify_corollary4,
    verify_corollary5,
    verify_product_multinomial,
    verify_theorem1,
    verify_theorem3,
)

__version__ = "0.1.0"
