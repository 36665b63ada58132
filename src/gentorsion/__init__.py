"""Reversibility and generalised torsion certificates.

Covers the modular group PSL(2,Z), the 3-strand braid group, and fundamental
groups of Seifert-fibered spaces with nonempty boundary.  Every positive
answer carries a certificate that is checked by multiplication before it is
returned.

Importing the package loads none of its modules: each loads on first use,
so ``from gentorsion import X`` works as before and loads only the module
that defines X, with what that module imports.
"""

import importlib
from typing import TYPE_CHECKING

#: the modules that define the public names, each loaded on first use
_HOMES = {
    "braid3": "B3Gen3Verdict B3Gen3Witness B3Reversibility BraidWord CentralElement "
    "conjugate_b3 exponent_sum gen3_relation gen3_torsion_b3 normal_form parse_braid "
    "reversible_b3 section",
    "certificates": "CERTIFICATE_KINDS verify_certificate",
    "modular": "Axis AxisResidual EllipticFixedPoint Gen3Verdict Gen3Witness IntMatrix2 "
    "IsometryClass Reversibility Verdict axis classify elliptic_fixed_point gen3_product "
    "gen3_torsion parabolic_power reversible reverser_on_axis_check to_matrix",
    "seifert": "GenNCertificate PowersOfH Presentation QuotientMap ReversibleFamilyReport "
    "SeifertData SeifertGroup SeifertPair SeifertReversibility SurfaceException "
    "TwoHalfTwists classify_reversible_families gen_n_certificate parse_seifert "
    "presentation quotient_scheme reversible_seifert",
    "words": "CyclicWord GroupScheme PSL2Z Syllable Word conjugate_to_inverse conjugated "
    "cyclic_reduce enumerate_reduced identity invert is_conjugate parse_scheme parse_word "
    "primitive_root reduce",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = ("braid3", "certificates", "errors", "modular", "oracle", "seifert", "words")

__all__ = sorted(_HOME)

if TYPE_CHECKING:  # the same names, for static type checkers
    from .braid3 import (B3Gen3Verdict, B3Gen3Witness, B3Reversibility, BraidWord,
        CentralElement, conjugate_b3, exponent_sum, gen3_relation, gen3_torsion_b3,
        normal_form, parse_braid, reversible_b3, section)
    from .certificates import CERTIFICATE_KINDS, verify_certificate
    from .modular import (Axis, AxisResidual, EllipticFixedPoint, Gen3Verdict,
        Gen3Witness, IntMatrix2, IsometryClass, Reversibility, Verdict, axis, classify,
        elliptic_fixed_point, gen3_product, gen3_torsion, parabolic_power, reversible,
        reverser_on_axis_check, to_matrix)
    from .seifert import (GenNCertificate, PowersOfH, Presentation, QuotientMap,
        ReversibleFamilyReport, SeifertData, SeifertGroup, SeifertPair,
        SeifertReversibility, SurfaceException, TwoHalfTwists,
        classify_reversible_families, gen_n_certificate, parse_seifert, presentation,
        quotient_scheme, reversible_seifert)
    from .words import (CyclicWord, GroupScheme, PSL2Z, Syllable, Word,
        conjugate_to_inverse, conjugated, cyclic_reduce, enumerate_reduced, identity,
        invert, is_conjugate, parse_scheme, parse_word, primitive_root, reduce)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a submodule, or a public name from its module, on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
