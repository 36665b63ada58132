"""Command line interface.

Every subcommand prints one deterministic result object (JSON by default,
``--format text`` for line-oriented output) and exits with:

* ``0`` for a decided verdict, including negative ones,
* ``1`` for errors: bad words, bad group data, malformed certificates,
  usage problems.

Certificates embedded in results are self-contained and can be piped back
into ``gentorsion verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import certificates
from .braid3 import exponent_sum, gen3_torsion_b3, normal_form, parse_braid, reversible_b3
from .braid3 import conjugate_b3
from .errors import GroupError, InvalidCertificate, MalformedCertificate
from .modular import classify, gen3_torsion, reversible, to_matrix
from .oracle import SUITES, SearchBudget, sweep_agreement
from .seifert import (
    PowersOfH,
    SeifertGroup,
    SurfaceException,
    TwoHalfTwists,
    classify_reversible_families,
    gen_n_absent_reason,
    gen_n_certificate,
    parse_seifert,
    presentation,
    quotient_scheme,
    reversible_seifert,
)
from .words import PSL2Z, is_conjugate, parse_word

__all__ = ["main"]

EXIT_DECIDED = 0
EXIT_ERROR = 1

_SEIFERT_PREFIX = "seifert:"


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit status 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _emit(result: Mapping, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_compact(result) + "\n")
        return
    keys = list(result)
    ordered = (["verdict"] if "verdict" in result else []) + sorted(
        k for k in keys if k != "verdict"
    )
    for key in ordered:
        value = result[key]
        rendered = value if isinstance(value, str) else _compact(value)
        sys.stdout.write(f"{key}: {rendered}\n")


def _emit_error(exc: GroupError, fmt: str) -> None:
    if fmt == "json":
        payload = {"error": str(exc), "error_kind": type(exc).__name__}
        sys.stderr.write(_compact(payload) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def _verified(cert: dict) -> dict:
    """The certificate, once it re-multiplies; a failure is an error, never a yes."""
    if not certificates.verify_certificate(cert):
        raise InvalidCertificate(f"emitted {cert['kind']} certificate failed verification")
    return cert


def _split_group(value: str) -> tuple[str, Optional[str]]:
    if value in ("pslz", "b3"):
        return value, None
    if value.startswith(_SEIFERT_PREFIX):
        spec = value[len(_SEIFERT_PREFIX):]
        if not spec.strip():
            raise GroupError("seifert group data is empty; use seifert:<data>")
        return "seifert", spec
    raise GroupError(
        f"unknown group {value!r}; expected pslz, b3, or seifert:<data>"
    )


def _require_word(args) -> str:
    if not args.word:
        raise GroupError("this subcommand requires --word")
    return args.word


def _handle_normalize(args):
    kind, spec = _split_group(args.group)
    word = _require_word(args)
    diagnostics: list = []
    if kind == "pslz":
        normal = str(parse_word(PSL2Z, word))
    elif kind == "b3":
        nf = normal_form(parse_braid(word))
        normal = {"m": nf.m, "q": str(nf.q), "spelled": str(nf.spell())}
    else:
        group = SeifertGroup(parse_seifert(spec))
        pair = group.element(word)
        normal = {"m": pair.m, "q": str(pair.q), "spelled": group.spell(pair)}
    return {"verdict": "ok", "normal_form": normal, "diagnostics": diagnostics}, EXIT_DECIDED


def _handle_classify(args):
    kind, _ = _split_group(args.group)
    if kind != "pslz":
        raise GroupError("classify supports only --group pslz")
    word = parse_word(PSL2Z, _require_word(args))
    result = {
        "verdict": classify(word).value,
        "normal_form": str(word),
        "diagnostics": [f"absolute trace {abs(to_matrix(word).trace)}"],
    }
    return result, EXIT_DECIDED


def _handle_conjugate(args):
    kind, _ = _split_group(args.group)
    word = _require_word(args)
    if not args.other:
        raise GroupError("conjugate requires --other")
    if kind == "pslz":
        u = parse_word(PSL2Z, word)
        v = parse_word(PSL2Z, args.other)
        conjugator = is_conjugate(u, v)
        if conjugator is None:
            return {"verdict": "no", "diagnostics": []}, EXIT_DECIDED
        cert = certificates.pslz_conjugacy_certificate(u, v, conjugator)
    elif kind == "b3":
        g1 = parse_braid(word)
        g2 = parse_braid(args.other)
        braid_conjugator = conjugate_b3(g1, g2)
        if braid_conjugator is None:
            return {"verdict": "no", "diagnostics": []}, EXIT_DECIDED
        cert = certificates.b3_conjugacy_certificate(
            word, args.other, str(braid_conjugator)
        )
    else:
        raise GroupError("conjugate supports --group pslz and --group b3")
    return {"verdict": "yes", "certificate": _verified(cert), "diagnostics": []}, EXIT_DECIDED


def _handle_reversible(args):
    kind, spec = _split_group(args.group)
    word = _require_word(args)
    if kind == "pslz":
        parsed = parse_word(PSL2Z, word)
        verdict = reversible(parsed)
        diagnostics = [f"isometry class {classify(parsed).value}"]
        if verdict is None:
            return {"verdict": "no", "diagnostics": diagnostics}, EXIT_DECIDED
        u, v = verdict.involution_pair
        diagnostics.append("reverser squares to the identity")
        diagnostics.append(f"involution pair u = {u}, v = {v}")
        cert = certificates.pslz_reverser_certificate(parsed, verdict.reverser)
    elif kind == "b3":
        outcome = reversible_b3(parse_braid(word))
        if outcome is None:
            return {"verdict": "no", "diagnostics": []}, EXIT_DECIDED
        diagnostics = [
            f"commutator witness {outcome.commutator_witness}",
            f"witness conjugator {outcome.witness_conjugator}",
        ]
        cert = certificates.b3_reverser_certificate(word, str(outcome.reverser))
    else:
        data = parse_seifert(spec)
        report = reversible_seifert(word, data)
        diagnostics = [report.reason]
        result = {
            "diagnostics": diagnostics,
            "normal_form": {"m": report.normal_form.m, "q": str(report.normal_form.q)},
        }
        if not report.reversible:
            result["verdict"] = "no"
            return result, EXIT_DECIDED
        group = SeifertGroup(data)
        cert = certificates.seifert_reverser_certificate(
            spec, word, group.spell(report.reverser)
        )
        result.update({"verdict": "yes", "certificate": _verified(cert)})
        return result, EXIT_DECIDED
    result = {"verdict": "yes", "certificate": _verified(cert), "diagnostics": diagnostics}
    return result, EXIT_DECIDED


def _handle_gen_torsion(args):
    kind, spec = _split_group(args.group)
    if kind == "seifert":
        if args.word:
            raise GroupError(
                "gen-torsion over a seifert group is a property of the fibration "
                "data; omit --word"
            )
        data = parse_seifert(spec)
        found = gen_n_certificate(data, args.n)
        if found is None:
            diagnostics = [gen_n_absent_reason(data, args.n)]
            return {"verdict": "absent", "diagnostics": diagnostics}, EXIT_DECIDED
        cert = certificates.seifert_gen_n_certificate(spec, found)
        if found.flipping:
            reason = f"phi({found.flipping}) = -1 inverts h and n = {args.n} is even"
        else:
            reason = f"fibers ({found.i}, {found.j}) with powers ({found.p}, {found.p_prime})"
        result = {"verdict": "yes", "certificate": _verified(cert), "diagnostics": [reason]}
        return result, EXIT_DECIDED
    if args.n != 3:
        raise GroupError(
            f"only n = 3 is decided for group {kind!r}; --n {args.n} is supported "
            "for seifert groups"
        )
    word = _require_word(args)
    if kind == "pslz":
        element = parse_word(PSL2Z, word)
        verdict = gen3_torsion(element)
        build = certificates.pslz_gen3_certificate
    else:
        element = word
        verdict = gen3_torsion_b3(parse_braid(word))
        build = certificates.b3_gen3_certificate
    result = {
        "verdict": verdict.tag.value,
        "diagnostics": [verdict.reason] if verdict.reason else [],
    }
    if verdict.certificate is not None:
        result["certificate"] = _verified(build(element, *verdict.certificate))
    return result, EXIT_DECIDED


def _handle_braid(args):
    word = parse_braid(_require_word(args))
    nf = normal_form(word)
    result = {
        "verdict": "ok",
        "normal_form": {"m": nf.m, "q": str(nf.q), "spelled": str(nf.spell())},
        "diagnostics": [f"exponent sum {exponent_sum(word)}"],
    }
    return result, EXIT_DECIDED


def _family_payload(descriptor):
    if isinstance(descriptor, PowersOfH):
        return {"family": "powers-of-h"}
    if isinstance(descriptor, TwoHalfTwists):
        return {
            "family": "two-half-twists",
            "i": descriptor.i,
            "j": descriptor.j,
            "second_sign": descriptor.second_sign,
            "phi_k": descriptor.phi_k,
            "beta": descriptor.beta,
        }
    assert isinstance(descriptor, SurfaceException)
    return {"family": "surface-exception", "surface": descriptor.surface}


def _handle_seifert(args):
    data = parse_seifert(args.spec)
    if args.action == "families":
        report = classify_reversible_families(data)
        result = {
            "verdict": "ok",
            "families": [_family_payload(f) for f in report.families],
            "notes": list(report.notes),
            "diagnostics": [],
        }
        return result, EXIT_DECIDED
    if args.action == "presentation":
        pres = presentation(data)
        result = {
            "verdict": "ok",
            "generators": list(pres.generators),
            "relations": [[lhs, rhs] for lhs, rhs in pres.relations],
            "diagnostics": [],
        }
        return result, EXIT_DECIDED
    mapping = quotient_scheme(data)
    if mapping is None:
        diagnostics = ["no boundary component: no generator can be eliminated"]
        return {"verdict": "absent", "diagnostics": diagnostics}, EXIT_DECIDED
    result = {
        "verdict": "ok",
        "scheme": [[gen, order] for gen, order in mapping.scheme.generators],
        "eliminated": mapping.eliminated,
        "elimination_image": str(mapping.elimination_image),
        "diagnostics": [],
    }
    return result, EXIT_DECIDED


def _handle_verify(args):
    if args.file:
        text = Path(args.file).read_text(encoding="utf-8")
    elif args.certificate:
        text = args.certificate
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"certificate is not valid JSON: {exc}") from exc
    valid = certificates.verify_certificate(payload)
    result = {
        "verdict": "valid" if valid else "invalid",
        "kind": payload["kind"],
        "diagnostics": [],
    }
    return result, EXIT_DECIDED


def _handle_sweep(args):
    budget = SearchBudget(
        max_conjugator_syllables=args.max_conjugator_syllables,
        max_central_exponent=args.max_central_exponent,
        max_candidates=args.max_candidates,
    )
    report = sweep_agreement(args.suite, budget)
    payload = report.to_dict()
    payload["verdict"] = "agreement" if not report.mismatches else "mismatch"
    payload["diagnostics"] = []
    code = EXIT_DECIDED if not report.mismatches else EXIT_ERROR
    return payload, code


def _add_common(parser: argparse.ArgumentParser, *, group: bool = True) -> None:
    if group:
        parser.add_argument(
            "--group",
            default="pslz",
            help="pslz, b3, or seifert:<data> (default: pslz)",
        )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gentorsion",
        description=
        "Decide reversibility and generalised torsion, with machine-checkable "
        "certificates, in the modular group, the braid group on three strands, "
        "and Seifert-fibered spaces with boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normalize", help="reduce a word to its normal form")
    p.add_argument("--word", required=True)
    _add_common(p)
    p.set_defaults(func=_handle_normalize)

    p = sub.add_parser("classify", help="isometry class of a modular group element")
    p.add_argument("--word", required=True)
    _add_common(p)
    p.set_defaults(func=_handle_classify)

    p = sub.add_parser("conjugate", help="decide conjugacy of two elements")
    p.add_argument("--word", required=True)
    p.add_argument("--other", required=True, help="the second element")
    _add_common(p)
    p.set_defaults(func=_handle_conjugate)

    p = sub.add_parser("reversible", help="decide conjugacy of an element to its inverse")
    p.add_argument("--word", required=True)
    _add_common(p)
    p.set_defaults(func=_handle_reversible)

    p = sub.add_parser("gen-torsion", help="decide generalised n-torsion")
    p.add_argument("--word", help="element text (pslz and b3; omit for seifert)")
    p.add_argument("--n", type=int, default=3, help="torsion degree (default: 3)")
    _add_common(p)
    p.set_defaults(func=_handle_gen_torsion)

    p = sub.add_parser("braid", help="normal form and exponent sum of a braid word")
    p.add_argument("--word", required=True)
    _add_common(p, group=False)
    p.set_defaults(func=_handle_braid)

    p = sub.add_parser("seifert", help="inspect Seifert fibration data")
    p.add_argument("action", choices=("families", "presentation", "quotient"))
    p.add_argument("--spec", required=True, help="Seifert data text")
    _add_common(p, group=False)
    p.set_defaults(func=_handle_seifert)

    p = sub.add_parser("verify", help="re-multiply a certificate's defining relation")
    p.add_argument("--certificate", help="certificate JSON text")
    p.add_argument("--file", help="path to a certificate JSON file")
    _add_common(p, group=False)
    p.set_defaults(func=_handle_verify)

    p = sub.add_parser("sweep", help="compare structural deciders against brute oracles")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-conjugator-syllables", type=int, default=6)
    p.add_argument("--max-central-exponent", type=int, default=2)
    p.add_argument("--max-candidates", type=int, default=1_000_000)
    _add_common(p, group=False)
    p.set_defaults(func=_handle_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        result, code = args.func(args)
    except GroupError as exc:
        _emit_error(exc, fmt)
        return EXIT_ERROR
    except ValueError as exc:
        _emit_error(GroupError(str(exc)), fmt)
        return EXIT_ERROR
    _emit(result, fmt)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
