"""The operations the benchmark times, one per item kind.

An operation is one decision as a user asks for it, including the
program's own certificate construction and re-verification.  ``parse``
turns an item into program objects (part of set-up); ``call`` performs
the operation and returns plain data for the independent checks.
"""

import sys

certificates = modular = braid3 = seifert = words = cli = None
_env: dict = {}
_seifert_cache: dict = {}


class Failed:
    """An operation that gave no decided answer."""

    def __init__(self, reason: str):
        self.reason = reason


def bind(src: str) -> None:
    """Bind gentorsion's modules, looked up at call time so wrappers apply."""
    global certificates, modular, braid3, seifert, words, cli, _env
    import gentorsion

    _env = child_env(src)
    certificates, modular = gentorsion.certificates, gentorsion.modular
    braid3, seifert, words = gentorsion.braid3, gentorsion.seifert, gentorsion.words
    cli = sys.modules.get("gentorsion.cli")


def child_env(src: str) -> dict:
    import os

    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0")
    return env


def _seifert_group(spec: str):
    if spec not in _seifert_cache:
        data = seifert.parse_seifert(spec)
        _seifert_cache[spec] = (data, seifert.SeifertGroup(data))
    return _seifert_cache[spec]


def parse(item: tuple):
    kind, _, *args = item
    if kind in ("rev", "gen3", "conj"):
        return [words.parse_word(words.PSL2Z, a) for a in args]
    if kind in ("nf", "b3gen3", "b3rev", "b3conj"):
        return [braid3.parse_braid(a) for a in args]
    if kind == "srev":
        data, group = _seifert_group(args[0])
        return [data, group, group.element(args[1])]
    if kind == "genn":
        return [seifert.parse_seifert(args[0]), int(args[1])]
    if kind == "cli":
        return [cli.build_parser().parse_args(args)]
    raise ValueError(f"unknown item kind {kind!r}")


def _verified(cert: dict):
    return cert, certificates.verify_certificate(cert)


def _gen3(verdict, cert_of):
    tag = verdict.tag.value
    if tag == "unknown-within-bound":
        return Failed(f"unknown-within-bound ({verdict.reason})")
    if verdict.certificate is None:
        return tag, None, None
    return (tag, *_verified(cert_of(*verdict.certificate)))


def call(item: tuple, objs: list, state: dict, in_process: bool):
    kind, _, *args = item
    if kind == "rev":
        r = modular.reversible(objs[0])
        return None if r is None else _verified(
            certificates.pslz_reverser_certificate(objs[0], r.reverser))
    if kind == "conj":
        k = words.is_conjugate(*objs)
        return None if k is None else _verified(
            certificates.pslz_conjugacy_certificate(*objs, k))
    if kind == "gen3":
        return _gen3(modular.gen3_torsion(objs[0]),
                     lambda h1, k: certificates.pslz_gen3_certificate(objs[0], h1, k))
    if kind == "b3gen3":
        return _gen3(braid3.gen3_torsion_b3(objs[0]),
                     lambda h1, k: certificates.b3_gen3_certificate(args[0], h1, k))
    if kind == "b3rev":
        r = braid3.reversible_b3(objs[0])
        return None if r is None else _verified(
            certificates.b3_reverser_certificate(args[0], str(r.reverser)))
    if kind == "nf":
        nf = braid3.normal_form(objs[0])
        return nf.m, str(nf.q)
    if kind == "b3conj":
        k = braid3.conjugate_b3(*objs)
        return None if k is None else _verified(
            certificates.b3_conjugacy_certificate(args[0], args[1], str(k)))
    if kind == "srev":
        data, group, g = objs
        report = seifert.reversible_seifert(g, data)
        if not report.reversible:
            return None
        return _verified(certificates.seifert_reverser_certificate(
            args[0], args[1], group.spell(report.reverser)))
    if kind == "genn":
        found = seifert.gen_n_certificate(*objs)
        return None if found is None else _verified(
            certificates.seifert_gen_n_certificate(args[0], found))
    if kind == "cli":
        return run_cli(args, state.get("certificate", ""), in_process)
    raise ValueError(f"unknown item kind {kind!r}")


def run_cli(argv: list, stdin_text: str, in_process: bool):
    """(exit status, stdout) of one ``gentorsion`` call."""
    if in_process:
        import contextlib
        import io

        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue()
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "gentorsion", *argv],
        input=stdin_text, capture_output=True, text=True, env=_env,
    )
    return proc.returncode, proc.stdout


def reversible_text(spec: str, text: str) -> bool:
    """The program's verdict on a Seifert element given as text."""
    data, _ = _seifert_group(spec)
    return seifert.reversible_seifert(text, data).reversible
