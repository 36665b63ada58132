"""Command line interface.

Every subcommand prints one deterministic result object (JSON by default,
``--format text`` for line-oriented output) and exits with:

* ``0`` for a decided verdict, including negative ones,
* ``1`` for errors: bad words, bad group data, malformed certificates,
  usage problems; and for a sweep whose verdict is ``mismatch``.

Each handler returns only its result object.  ``main`` does the rest for
every subcommand: it re-multiplies the certificate a result carries with
the checker ``gentorsion verify`` uses, and reports a failure as an
``InvalidCertificate`` error, never as a yes; it fills in empty
diagnostics; and it picks the exit code.  The certificates printed are
self-contained and can be piped back into ``gentorsion verify``.

Each handler imports the modules it runs, so a call pays only for those.
The subcommands and their flags are one table, ``_COMMANDS``.  A plain,
complete command line is read from that table directly; argparse, with
the gettext and locale modules it loads, is imported only to print help
or a usage error, so a well-formed call pays for none of them either.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from . import certificates
from .errors import GroupError, InvalidCertificate, MalformedCertificate

if TYPE_CHECKING:
    import argparse

__all__ = ["main"]

EXIT_DECIDED = 0
EXIT_ERROR = 1

#: ``gentorsion.oracle.SUITES``, spelled out so that the command table
#: does not load the oracles; tests/test_imports.py keeps the two equal
_SUITES = ("pslz-reversible", "pslz-gen3", "b3-reversible", "b3-conjugacy", "seifert-reversible")

#: ``argparse.SUPPRESS``, spelled out so that the command table does not
#: load argparse: a flag with this default is absent unless given
_SUPPRESS = "==SUPPRESS=="


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


def _emit_error(exc: Exception, fmt: str) -> None:
    if not isinstance(exc, GroupError):
        exc = GroupError(str(exc) or type(exc).__name__)
    if fmt == "json":
        payload = {"error": str(exc), "error_kind": type(exc).__name__}
        sys.stderr.write(_compact(payload) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def _group(value: str) -> tuple[str, Optional[str], Callable[[str], Any]]:
    """--group read once: its kind, its Seifert data text and its element reader.

    The reader loads its group's module when called, and reads a PSL(2,Z)
    word or the normal form of a B3 or Seifert group element.
    """
    kind, spec = value, None
    if value.startswith("seifert:"):
        kind, spec = "seifert", value.removeprefix("seifert:")
        if not spec.strip():
            raise GroupError("seifert group data is empty; use seifert:<data>")
    elif value not in ("pslz", "b3"):
        raise GroupError(f"unknown group {value!r}; expected pslz, b3, or seifert:<data>")

    def read(text: str):
        if kind == "pslz":
            from .words import PSL2Z, parse_word
            return parse_word(PSL2Z, text)
        if kind == "b3":
            from .braid3 import normal_form, parse_braid
            return normal_form(parse_braid(text))
        return _seifert(spec).element(text)

    return kind, spec, read


def _seifert(spec: str):
    """The Seifert group of data text, built once per data."""
    from .seifert import parse_seifert, seifert_group
    return seifert_group(parse_seifert(spec))


def _normal_form(pair, spec: Optional[str] = None) -> dict:
    """A B3 normal form h^m q, or one of the Seifert group of spec, as {m, q, spelled}."""
    spelled = pair.spell() if spec is None else _seifert(spec).spell(pair)
    return {"m": pair.m, "q": str(pair.q), "spelled": str(spelled)}


def _require_word(args) -> str:
    if not args.word:
        raise GroupError("this subcommand requires --word")
    return args.word


def _handle_normalize(args):
    kind, spec, read = _group(args.group)
    element = read(_require_word(args))
    normal = str(element) if kind == "pslz" else _normal_form(element, spec)
    return {"verdict": "ok", "normal_form": normal}


def _handle_classify(args):
    kind, _, read = _group(args.group)
    if kind != "pslz":
        raise GroupError("classify supports only --group pslz")
    from .modular import classify, to_matrix
    word = read(_require_word(args))
    trace = abs(to_matrix(word).trace)
    try:
        diagnostic = f"absolute trace {trace}"
    except ValueError:  # past the interpreter's int/str digit limit
        diagnostic = f"absolute trace of {trace.bit_length()} bits"
    return {
        "verdict": classify(word).value,
        "normal_form": str(word),
        "diagnostics": [diagnostic],
    }


def _handle_conjugate(args):
    kind, _, read = _group(args.group)
    word = _require_word(args)
    if not args.other:
        raise GroupError("conjugate requires --other")
    if kind == "seifert":
        raise GroupError("conjugate supports --group pslz and --group b3")
    u, v = read(word), read(args.other)
    if kind == "pslz":
        from .words import is_conjugate
        conjugator, build = is_conjugate(u, v), certificates.pslz_conjugacy_certificate
    else:
        from .braid3 import conjugate_b3
        conjugator, build = conjugate_b3(u, v), certificates.b3_conjugacy_certificate
        u, v = word, args.other  # a B3 certificate carries the text given
    if conjugator is None:
        return {"verdict": "no"}
    return {"verdict": "yes", "certificate": build(u, v, conjugator)}


def _handle_reversible(args):
    kind, spec, read = _group(args.group)
    word = _require_word(args)
    element = read(word)
    result = {"verdict": "no"}
    if kind == "pslz":
        from .modular import classify, reversible
        verdict = reversible(element)
        result["diagnostics"] = diagnostics = [f"isometry class {classify(element).value}"]
        if verdict is None:
            return result
        u, v = verdict.involution_pair
        diagnostics.append("reverser squares to the identity")
        diagnostics.append(f"involution pair u = {u}, v = {v}")
        cert = certificates.pslz_reverser_certificate(element, verdict.reverser)
    elif kind == "b3":
        from .braid3 import reversible_b3
        outcome = reversible_b3(element)
        if outcome is None:
            return result
        result["diagnostics"] = [
            f"commutator witness {outcome.commutator_witness}",
            f"witness conjugator {outcome.witness_conjugator}",
        ]
        cert = certificates.b3_reverser_certificate(word, str(outcome.reverser))
    else:
        from .seifert import reversible_seifert
        group = _seifert(spec)
        report = reversible_seifert(element, group.data)
        result["diagnostics"] = [report.reason]
        result["normal_form"] = {"m": report.normal_form.m, "q": str(report.normal_form.q)}
        if not report.reversible:
            return result
        cert = certificates.seifert_reverser_certificate(
            spec, word, group.spell(report.reverser)
        )
    result.update(verdict="yes", certificate=cert)
    return result


def _handle_gen_torsion(args):
    kind, spec, read = _group(args.group)
    if kind == "seifert":
        from .seifert import gen_n_absent_reason, gen_n_certificate, parse_seifert
        if args.word:
            raise GroupError(
                "gen-torsion over a seifert group is a property of the fibration "
                "data; omit --word"
            )
        data = parse_seifert(spec)
        found = gen_n_certificate(data, args.n)
        if found is None:
            return {"verdict": "absent", "diagnostics": [gen_n_absent_reason(data, args.n)]}
        cert = certificates.seifert_gen_n_certificate(spec, found)
        if found.flipping:
            reason = f"phi({found.flipping}) = -1 inverts h and n = {args.n} is even"
        else:
            reason = f"fibers ({found.i}, {found.j}) with powers ({found.p}, {found.p_prime})"
        return {"verdict": "yes", "certificate": cert, "diagnostics": [reason]}
    if args.n != 3:
        from .words import require_gen_degree
        require_gen_degree(args.n)  # the refusal a seifert group gives below n = 2
        raise GroupError(
            f"only n = 3 is decided for group {kind!r}; --n {args.n} is supported "
            "for seifert groups"
        )
    word = _require_word(args)
    element = read(word)
    if kind == "pslz":
        from .modular import gen3_torsion
        verdict, build = gen3_torsion(element), certificates.pslz_gen3_certificate
    else:
        from .braid3 import gen3_torsion_b3
        verdict, build = gen3_torsion_b3(element), certificates.b3_gen3_certificate
        element = word  # a B3 certificate carries the text given
    result = {"verdict": verdict.tag.value}
    if verdict.reason:
        result["diagnostics"] = [verdict.reason]
    if verdict.certificate is not None:
        result["certificate"] = build(element, *verdict.certificate)
    return result


def _handle_braid(args):
    element = _group("b3")[2](_require_word(args))
    return {
        "verdict": "ok",
        "normal_form": _normal_form(element),
        "diagnostics": [f"exponent sum {element.exponent_sum}"],
    }


def _handle_seifert(args):
    from .seifert import classify_reversible_families, parse_seifert, presentation, quotient_scheme
    data = parse_seifert(args.spec)
    if args.action == "families":
        report = classify_reversible_families(data)
        return {
            "verdict": "ok",
            "families": [{"family": f.family, **f.to_dict()} for f in report.families],
            "notes": list(report.notes),
        }
    if args.action == "presentation":
        return {"verdict": "ok", **presentation(data).to_dict()}
    mapping = quotient_scheme(data)
    if mapping is None:
        diagnostics = ["no boundary component: no generator can be eliminated"]
        return {"verdict": "absent", "diagnostics": diagnostics}
    return {
        "verdict": "ok",
        "scheme": [[gen, order] for gen, order in mapping.scheme.generators],
        "eliminated": mapping.eliminated,
        "elimination_image": str(mapping.elimination_image),
    }


def _handle_verify(args):
    if args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    elif args.certificate is not None:
        text = args.certificate
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except ValueError as exc:  # bad JSON, or a number past the int/str digit limit
        raise MalformedCertificate(f"certificate is not valid JSON: {exc}") from exc
    # the verdict is the check itself, so an invalid certificate is decided, not an error
    valid = certificates.verify_certificate(payload)
    return {"verdict": "valid" if valid else "invalid", "kind": payload["kind"]}


def _handle_sweep(args):
    from .oracle import SearchBudget, sweep_agreement
    # the flags given; SearchBudget holds the defaults
    budget = SearchBudget(**{k: v for k, v in vars(args).items() if k in SearchBudget._fields})
    payload = sweep_agreement(args.suite, budget).to_dict()
    payload["verdict"] = "mismatch" if payload["mismatches"] else "agreement"
    return payload


_FORMAT = ("--format", {
    "choices": ("json", "text"), "default": "json", "help": "output format (default: json)"})
_GROUP = ("--group", {"default": "pslz", "help": "pslz, b3, or seifert:<data> (default: pslz)"})
_WORD = ("--word", {"required": True})

#: every subcommand: its help, its handler and its arguments in the order
#: of the help text, each a name and the keyword arguments of argparse's
#: ``add_argument``; the strict reader and ``build_parser`` both read it
_COMMANDS = {
    "normalize": ("reduce a word to its normal form", _handle_normalize,
                  (_WORD, _GROUP, _FORMAT)),
    "classify": ("isometry class of a modular group element", _handle_classify,
                 (_WORD, _GROUP, _FORMAT)),
    "conjugate": ("decide conjugacy of two elements", _handle_conjugate,
                  (_WORD, ("--other", {"required": True, "help": "the second element"}),
                   _GROUP, _FORMAT)),
    "reversible": ("decide conjugacy of an element to its inverse", _handle_reversible,
                   (_WORD, _GROUP, _FORMAT)),
    "gen-torsion": ("decide generalised n-torsion", _handle_gen_torsion, (
        ("--word", {"help": "element text (pslz and b3; omit for seifert)"}),
        ("--n", {"type": int, "default": 3, "help": "torsion degree (default: 3)"}),
        _GROUP, _FORMAT)),
    "braid": ("normal form and exponent sum of a braid word", _handle_braid,
              (_WORD, _FORMAT)),
    "seifert": ("inspect Seifert fibration data", _handle_seifert, (
        ("action", {"choices": ("families", "presentation", "quotient")}),
        ("--spec", {"required": True, "help": "Seifert data text"}),
        _FORMAT)),
    "verify": ("re-multiply a certificate's defining relation", _handle_verify, (
        ("--certificate", {"help": "certificate JSON text"}),
        ("--file", {"help": "path to a certificate JSON file"}),
        _FORMAT)),
    "sweep": ("compare structural deciders against brute oracles", _handle_sweep, (
        ("--suite", {"required": True, "choices": _SUITES}),
        *((flag, {"type": int, "default": _SUPPRESS}) for flag in (
            "--max-conjugator-syllables", "--max-central-exponent", "--max-candidates")),
        _FORMAT)),
}


def _read(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for a plain, complete command line, or None.

    A plain line is a command, then its positional arguments and each of
    its long flags at most once, as ``--flag value`` or ``--flag=value``,
    with no value that begins with ``-``.  Every other line (help,
    abbreviations, repeated flags, usage errors) is None here, left to
    argparse, which reads or reports it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    flags = {name for name, _ in arguments if name.startswith("-")}
    given: dict = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, equals, value = token.partition("=")
        if flag not in flags or flag in given:
            return None
        if not equals:
            value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        given[flag] = value
    values = {"command": argv[0], "func": func}
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name.startswith("-"):
            text = given.get(name)
        else:
            text = positionals.pop(0) if positionals else None
        if text is None:
            if spec.get("required", not name.startswith("-")):
                return None
            if spec.get("default") != _SUPPRESS:
                values[dest] = spec.get("default")
            continue
        try:
            values[dest] = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and values[dest] not in spec["choices"]:
            return None
    return None if positionals else SimpleNamespace(**values)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table, built once a process.

    ``main`` uses it for the lines the strict reader leaves: it prints help
    and reports usage problems, with exit status 1.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument parser that reports usage problems with exit status 1."""

        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="gentorsion",
        description=
        "Decide reversibility and generalised torsion, with machine-checkable "
        "certificates, in the modular group, the braid group on three strands, "
        "and Seifert-fibered spaces with boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, spec in arguments:
            if spec.get("default") == _SUPPRESS:
                spec = dict(spec, default=argparse.SUPPRESS)
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        parser = build_parser()
        flag = argv[0].partition("=")[0] if argv else ""
        # argparse would read the flag's value as the command; "--" ends the flags
        if flag.startswith("-") and flag != "-h" and not "--help".startswith(flag):
            parser.error(f"{flag} belongs after the command, as in: gentorsion COMMAND {flag} ...")
        args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        result = args.func(args)
        cert = result.get("certificate")
        if cert is not None and not certificates.verify_certificate(cert):
            raise InvalidCertificate(f"emitted {cert['kind']} certificate failed verification")
        result.setdefault("diagnostics", [])
    # GroupError is a ValueError; OSError: an unreadable --file; OverflowError
    # and MemoryError: a power too long to write out
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        _emit_error(exc, fmt)
        return EXIT_ERROR
    _emit(result, fmt)
    return EXIT_ERROR if result["verdict"] == "mismatch" else EXIT_DECIDED


if __name__ == "__main__":
    raise SystemExit(main())
