"""feident: exact Frobenius-Euler numbers, polynomials, and identity checks.

Everything is computed over arbitrary-precision rationals.  The package
keeps two independent routes to each quantity (closed form vs truncated
generating function) and ships a verification harness that compares them,
including an audit mode distinguishing commonly typeset identity forms
from their sign-corrected variants.

The top level exports the documented API; everything else is importable
from its submodule (``feident.exact``, ``feident.series``, ...).  Each
export is the object of the submodule named in ``_EXPORTS``, which loads
on first access (PEP 562 ``__getattr__``): ``import feident`` loads no
submodule, and each command of the CLI loads only what it runs.
"""

from importlib import import_module

# Export -> the submodule that defines it.
_EXPORTS = {
    "VARIANTS": "frobenius",
    "fe_higher_number_formula": "frobenius",
    "fe_higher_number_oracle": "frobenius",
    "fe_number": "prefix",
    "fe_polynomial": "frobenius",
    "Polynomial": "poly",
    "coeff_closed_form": "stirling",
    "triangle_recurrence": "stirling",
    "audit_all": "verify",
    "audit_document": "verify",
    "verify_bernoulli_product": "verify",
    "verify_carlitz": "verify",
    "verify_carlitz_reciprocal": "verify",
    "verify_corollary2": "verify",
    "verify_corollary4": "verify",
    "verify_corollary5": "verify",
    "verify_product_multinomial": "verify",
    "verify_theorem1": "verify",
    "verify_theorem3": "verify",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
