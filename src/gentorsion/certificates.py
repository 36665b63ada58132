"""Machine-checkable certificates and their verifier.

A certificate is a JSON-safe dict tagged by ``kind``.  It carries enough
data to re-multiply the defining relation of the claim from scratch, so
``verify_certificate`` never trusts the computation that produced it.  Every
kind is one of two relations: a conjugacy k g k^-1 = g', or a product of
conjugates, g != 1 and g (k_1 g k_1^-1) ... (k_r g k_r^-1) = 1, with the
conjugators (r) of a reverser (r g r^-1 = g^-1 exactly when g (r g r^-1) = 1),
the (h1, k) of generalised 3-torsion, or the list of a Seifert gen-n certificate.

Well-formed certificates whose relation fails verify to ``False``; shape
problems (missing fields, unknown kinds, unparseable words) raise
:class:`~gentorsion.errors.MalformedCertificate` instead.

Each group's code is imported when a certificate of that group is first
checked, so checking a PSL(2,Z) certificate loads neither the braid nor the
Seifert code.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .errors import GroupError, MalformedCertificate, UnsupportedBase

if TYPE_CHECKING:
    from .braid3 import BraidWord, CentralElement
    from .words import Word

__all__ = [
    "CERTIFICATE_KINDS",
    "b3_conjugacy_certificate",
    "b3_gen3_certificate",
    "b3_reverser_certificate",
    "pslz_conjugacy_certificate",
    "pslz_gen3_certificate",
    "pslz_reverser_certificate",
    "seifert_gen_n_certificate",
    "seifert_reverser_certificate",
    "verify_certificate",
]


def _certificate(kind: str, *values, **head) -> dict:
    """The dict of a kind, with its text fields in the order of :data:`_KINDS`."""
    return {"kind": kind, **head, **dict(zip(_KINDS[kind][1], map(str, values)))}


def pslz_reverser_certificate(word: Word, reverser: Word) -> dict:
    return _certificate("pslz-reverser", word, reverser)


def pslz_conjugacy_certificate(word: Word, other: Word, conjugator: Word) -> dict:
    return _certificate("pslz-conjugacy", word, other, conjugator)


def pslz_gen3_certificate(word: Word, h1: Word, k: Word) -> dict:
    return _certificate("pslz-gen3", word, h1, k)


def b3_reverser_certificate(element: str, reverser: str) -> dict:
    return _certificate("b3-reverser", element, reverser)


def b3_conjugacy_certificate(element: str, other: str, conjugator: BraidWord | str) -> dict:
    return _certificate("b3-conjugacy", element, other, conjugator)


def b3_gen3_certificate(element: str, h1: CentralElement, k: CentralElement) -> dict:
    return _certificate("b3-gen3", element, h1.spell(), k.spell())


def seifert_reverser_certificate(data: str, element: str, reverser: str) -> dict:
    return _certificate("seifert-reverser", element, reverser, data=data)


def seifert_gen_n_certificate(data: str, cert) -> dict:
    """Serialize a :class:`~gentorsion.seifert.GenNCertificate`."""
    return {"kind": "seifert-gen-n", "data": data, "n": cert.n, "element": cert.element,
            "conjugators": list(cert.conjugators), "x": cert.x, "m1": cert.m1, "m2": cert.m2}


def _shape(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedCertificate(message)


def _text(payload: Mapping, key: str) -> str:
    value = payload.get(key)
    _shape(isinstance(value, str) and bool(value.strip()),
           f"field {key!r} must be a nonempty string")
    return value


def _integer(payload: Mapping, key: str) -> int:
    value = payload.get(key)
    _shape(isinstance(value, int) and not isinstance(value, bool),
           f"field {key!r} must be an integer")
    return value


@lru_cache(maxsize=None)
def _group(name: str) -> tuple:
    """A group's code, imported on first use: for PSL(2,Z) and B3 the reader of
    a text, conjugation and the product of conjugates; for Seifert groups the
    data parser, the group and the relation test."""
    if name == "pslz":
        from .words import PSL2Z, conjugated, gen3_product, parse_word
        return lambda text: parse_word(PSL2Z, text), conjugated, gen3_product
    if name == "b3":
        from .braid3 import CentralElement, gen3_relation, normal_form, parse_braid
        return (lambda text: normal_form(parse_braid(text)), CentralElement.conjugated_by,
                gen3_relation)
    from .seifert import gen_n_relation_holds, parse_seifert, seifert_group
    return parse_seifert, seifert_group, gen_n_relation_holds


def _conjugacy_holds(kind: str, payload: Mapping) -> bool:
    """k g k^-1 = g', from the fields g, g', k."""
    group, fields = _KINDS[kind][:2]
    read, conjugated, _ = _group(group)
    g, other, k = [read(_text(payload, key)) for key in fields]
    return conjugated(g, k) == other


def _conjugates_multiply_to_one(kind: str, payload: Mapping) -> bool:
    """g != 1 and g (k_1 g k_1^-1) ... (k_r g k_r^-1) = 1, from the fields g, k_1, ..., k_r."""
    group, fields = _KINDS[kind][:2]
    if group != "seifert":
        read, _, product = _group(group)
        g, *conjugators = [read(_text(payload, key)) for key in fields]
        return not g.is_identity and product(g, *conjugators).is_identity
    parse_seifert, seifert_group, relation_holds = _group(group)
    data = parse_seifert(_text(payload, "data"))
    if kind == "seifert-reverser":
        seifert_group(data)  # a closed base, without exact arithmetic, raises UnsupportedBase
        # the reverser is read as the relation folds it, after the element is parsed
        element = _text(payload, "element")
        return relation_holds(data, element, (_text(payload, key) for key in fields[1:]))
    n = _integer(payload, "n")
    _shape(n >= 2, "field 'n' must be at least 2")
    x, m1, m2 = (_integer(payload, key) for key in ("x", "m1", "m2"))
    conjugators = payload.get("conjugators")
    _shape(isinstance(conjugators, (list, tuple)), "field 'conjugators' must be a list")
    _shape(all(isinstance(item, str) and item.strip() for item in conjugators),
           "every conjugator must be a nonempty string")
    element = _text(payload, "element")
    if n * x + m1 + m2 != 0 or len(conjugators) != n - 1:
        return False
    return relation_holds(data, element, conjugators)


#: each kind's group, text fields and relation: the element first, then the
#: conjugators of a product of conjugates, or the target and the conjugator of
#: a conjugacy; Seifert kinds also carry their data, and gen-n n, x, m1, m2
_KINDS = {
    "pslz-reverser": ("pslz", ("word", "reverser"), _conjugates_multiply_to_one),
    "pslz-conjugacy": ("pslz", ("word", "other", "conjugator"), _conjugacy_holds),
    "pslz-gen3": ("pslz", ("word", "h1", "k"), _conjugates_multiply_to_one),
    "b3-reverser": ("b3", ("element", "reverser"), _conjugates_multiply_to_one),
    "b3-conjugacy": ("b3", ("element", "other", "conjugator"), _conjugacy_holds),
    "b3-gen3": ("b3", ("element", "h1", "k"), _conjugates_multiply_to_one),
    "seifert-reverser": ("seifert", ("element", "reverser"), _conjugates_multiply_to_one),
    "seifert-gen-n": ("seifert", ("element", "conjugators"), _conjugates_multiply_to_one),
}

CERTIFICATE_KINDS = tuple(sorted(_KINDS))


def verify_certificate(payload) -> bool:
    """Re-multiply the defining relation of ``payload`` and report the outcome.

    Returns ``True`` when the relation holds and ``False`` when it does not
    (a tampered but well-formed certificate).  Raises
    :class:`MalformedCertificate` when the payload is not a dict, names an
    unknown kind, or carries missing, mistyped, or unparseable fields, and
    :class:`~gentorsion.errors.UnsupportedBase` when its Seifert data is
    beyond what can be decided.
    """
    if not isinstance(payload, Mapping):
        raise MalformedCertificate("certificate must be a JSON object")
    if "kind" not in payload:
        raise MalformedCertificate("certificate is missing its 'kind' field")
    kind = payload["kind"]
    _shape(isinstance(kind, str), "field 'kind' must be a string")
    if kind not in _KINDS:
        raise MalformedCertificate(f"unknown certificate kind {kind!r}")
    try:
        return _KINDS[kind][2](kind, payload)
    except (MalformedCertificate, UnsupportedBase):
        raise
    except GroupError as exc:
        raise MalformedCertificate(f"{kind}: {exc}") from exc
