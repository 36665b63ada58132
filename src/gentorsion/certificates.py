"""Machine-checkable certificates and their verifier.

A certificate is a JSON-safe dict tagged by ``kind``.  It carries enough
data to re-multiply the defining relation of the claim from scratch, so
``verify_certificate`` never trusts the computation that produced it: a
reverser certificate is checked by conjugating and comparing against the
inverse, a torsion certificate by expanding the full product, and so on.

Well-formed certificates whose relation fails verify to ``False``; shape
problems (missing fields, unknown kinds, unparseable words) raise
:class:`~gentorsion.errors.MalformedCertificate` instead.

Each checker imports the group modules of its own kind when it runs, so
checking a PSL(2,Z) certificate loads neither the braid nor the Seifert code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .errors import GroupError, MalformedCertificate, UnsupportedBase

if TYPE_CHECKING:
    from .braid3 import CentralElement
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


def pslz_reverser_certificate(word: Word, reverser: Word) -> dict:
    return {"kind": "pslz-reverser", "word": str(word), "reverser": str(reverser)}


def pslz_conjugacy_certificate(word: Word, other: Word, conjugator: Word) -> dict:
    return {
        "kind": "pslz-conjugacy",
        "word": str(word),
        "other": str(other),
        "conjugator": str(conjugator),
    }


def pslz_gen3_certificate(word: Word, h1: Word, k: Word) -> dict:
    return {"kind": "pslz-gen3", "word": str(word), "h1": str(h1), "k": str(k)}


def b3_reverser_certificate(element: str, reverser: str) -> dict:
    return {"kind": "b3-reverser", "element": element, "reverser": reverser}


def b3_conjugacy_certificate(element: str, other: str, conjugator: str) -> dict:
    return {
        "kind": "b3-conjugacy",
        "element": element,
        "other": other,
        "conjugator": conjugator,
    }


def b3_gen3_certificate(element: str, h1: CentralElement, k: CentralElement) -> dict:
    return {
        "kind": "b3-gen3",
        "element": element,
        "h1": str(h1.spell()),
        "k": str(k.spell()),
    }


def seifert_reverser_certificate(data: str, element: str, reverser: str) -> dict:
    return {
        "kind": "seifert-reverser",
        "data": data,
        "element": element,
        "reverser": reverser,
    }


def seifert_gen_n_certificate(data: str, cert) -> dict:
    """Serialize a :class:`~gentorsion.seifert.GenNCertificate`."""
    return {
        "kind": "seifert-gen-n",
        "data": data,
        "n": cert.n,
        "element": cert.element,
        "conjugators": list(cert.conjugators),
        "x": cert.x,
        "m1": cert.m1,
        "m2": cert.m2,
    }


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


def _pslz_words(payload: Mapping, *keys: str) -> list[Word]:
    from .words import PSL2Z, parse_word
    return [parse_word(PSL2Z, _text(payload, key)) for key in keys]


def _braids(payload: Mapping, *keys: str) -> list[CentralElement]:
    from .braid3 import normal_form, parse_braid
    return [normal_form(parse_braid(_text(payload, key))) for key in keys]


def _check_pslz_reverser(payload: Mapping) -> bool:
    from .words import conjugated, invert
    word, reverser = _pslz_words(payload, "word", "reverser")
    return conjugated(word, reverser) == invert(word)


def _check_pslz_conjugacy(payload: Mapping) -> bool:
    from .words import conjugated
    word, other, conjugator = _pslz_words(payload, "word", "other", "conjugator")
    return conjugated(word, conjugator) == other


def _check_pslz_gen3(payload: Mapping) -> bool:
    from .modular import gen3_product
    word, h1, k = _pslz_words(payload, "word", "h1", "k")
    return not word.is_identity and gen3_product(word, h1, k).is_identity


def _check_b3_reverser(payload: Mapping) -> bool:
    element, reverser = _braids(payload, "element", "reverser")
    return element.conjugated_by(reverser) == element.inverse()


def _check_b3_conjugacy(payload: Mapping) -> bool:
    element, other, conjugator = _braids(payload, "element", "other", "conjugator")
    return element.conjugated_by(conjugator) == other


def _check_b3_gen3(payload: Mapping) -> bool:
    from .braid3 import gen3_relation
    element, h1, k = _braids(payload, "element", "h1", "k")
    return not element.is_identity and gen3_relation(element, h1, k).is_identity


def _check_seifert_reverser(payload: Mapping) -> bool:
    from .seifert import parse_seifert, seifert_group
    group = seifert_group(parse_seifert(_text(payload, "data")))
    element = group.element(_text(payload, "element"))
    reverser = group.element(_text(payload, "reverser"))
    return group.conjugated(element, reverser) == group.inv(element)


def _check_seifert_gen_n(payload: Mapping) -> bool:
    from .seifert import gen_n_relation_holds, parse_seifert
    data = parse_seifert(_text(payload, "data"))
    n = _integer(payload, "n")
    _shape(n >= 2, "field 'n' must be at least 2")
    x = _integer(payload, "x")
    m1 = _integer(payload, "m1")
    m2 = _integer(payload, "m2")
    conjugators = payload.get("conjugators")
    _shape(isinstance(conjugators, (list, tuple)), "field 'conjugators' must be a list")
    _shape(all(isinstance(item, str) and item.strip() for item in conjugators),
           "every conjugator must be a nonempty string")
    element_text = _text(payload, "element")
    if n * x + m1 + m2 != 0 or len(conjugators) != n - 1:
        return False
    return gen_n_relation_holds(data, element_text, conjugators)


_CHECKERS: dict[str, Callable[[Mapping], bool]] = {
    "pslz-reverser": _check_pslz_reverser,
    "pslz-conjugacy": _check_pslz_conjugacy,
    "pslz-gen3": _check_pslz_gen3,
    "b3-reverser": _check_b3_reverser,
    "b3-conjugacy": _check_b3_conjugacy,
    "b3-gen3": _check_b3_gen3,
    "seifert-reverser": _check_seifert_reverser,
    "seifert-gen-n": _check_seifert_gen_n,
}

CERTIFICATE_KINDS = tuple(sorted(_CHECKERS))


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
    checker = _CHECKERS.get(kind)
    if checker is None:
        raise MalformedCertificate(f"unknown certificate kind {kind!r}")
    try:
        return checker(payload)
    except (MalformedCertificate, UnsupportedBase):
        raise
    except GroupError as exc:
        raise MalformedCertificate(f"{kind}: {exc}") from exc
