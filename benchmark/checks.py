"""Independent arithmetic for checking gentorsion's answers.

Nothing here imports gentorsion.  Elements are re-multiplied as integer
matrices, which is faithful on the groups the benchmark uses:

* PSL(2,Z): a -> [[0,-1],[1,0]], b -> [[0,1],[-1,-1]], compared up to sign.
* B3: s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]], paired with the exponent
  sum.  The matrix map has kernel <h^2> and h^2 has exponent sum 12, so
  the pair is faithful.
* The Seifert group of the trefoil data (O,o,0 | b; (2,1),(3,1));
  boundaries=1 maps onto B3 by c1 -> x, c2 -> y, h -> h and
  d1 -> (c1 c2 h^b)^-1, an isomorphism.

Words are read from the same text the program reads or prints, by a parser
of the benchmark's own.
"""

from __future__ import annotations

import re

Matrix = tuple[int, int, int, int]
IDENTITY: Matrix = (1, 0, 0, 1)


def mat_mul(p: Matrix, q: Matrix) -> Matrix:
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(p: Matrix) -> Matrix:
    a, b, c, d = p
    return (d, -b, -c, a)


def mat_pow(p: Matrix, n: int) -> Matrix:
    if n < 0:
        p, n = mat_inv(p), -n
    out = IDENTITY
    while n:
        if n & 1:
            out = mat_mul(out, p)
        p = mat_mul(p, p)
        n >>= 1
    return out


def mat_prod(mats) -> Matrix:
    out = IDENTITY
    for m in mats:
        out = mat_mul(out, m)
    return out


def psl_equal(p: Matrix, q: Matrix) -> bool:
    return p == q or p == tuple(-v for v in q)


_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def tokens(text: str) -> list[tuple[str, int]]:
    """(name, exponent) pairs of a whitespace-separated word; '1' is empty."""
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad token {tok!r}")
        out.append((m.group(1), int(m.group(2) or 1)))
    return out


def word_text(pairs) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in pairs) or "1"


def inverse_pairs(pairs) -> list[tuple[str, int]]:
    return [(g, -e) for g, e in reversed(pairs)]


# -- PSL(2,Z) ------------------------------------------------------------

PSL_GEN = {"a": (0, -1, 1, 0), "b": (0, 1, -1, -1)}
PSL_ORDER = {"a": 2, "b": 3}


def psl_matrix(text: str) -> Matrix:
    return mat_prod(mat_pow(PSL_GEN[g], e) for g, e in tokens(text))


def psl_trace(text: str) -> int:
    m = psl_matrix(text)
    return abs(m[0] + m[3])


def psl_reduce(pairs) -> list[tuple[str, int]]:
    """Free-product reduction over a:2, b:3, exponents kept in [1, order)."""
    stack: list[tuple[str, int]] = []
    for g, e in pairs:
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        e %= PSL_ORDER[g]
        if e:
            stack.append((g, e))
    return stack


def psl_cyclic_core(pairs) -> list[tuple[str, int]]:
    core = psl_reduce(pairs)
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        # syllables alternate between a and b, so the merged end syllable
        # cannot merge again with its new neighbour
        g = core[0][0]
        e = (core[0][1] + core[-1][1]) % PSL_ORDER[g]
        core = core[1:-1] + ([(g, e)] if e else [])
    return core


def a_parity(text: str) -> int:
    return sum(e for g, e in tokens(text) if g == "a") % 2


def mirror_gen3(text: str) -> bool:
    """The mirror test for a hyperbolic element of even a-exponent sum.

    Such an element is generalised 3-torsion exactly when it is conjugate
    to z b^e1 z^-1 b^e2 with z starting and ending in a: its cyclic core
    has length L = 0 mod 4 and a b-syllable at position c with
    s[c+d] = s[c-d]^-1 for d = 1 .. L/2 - 1.
    """
    core = psl_cyclic_core(tokens(text))
    n = len(core)
    if n % 4:
        return False

    def inv(s):
        return (s[0], -s[1] % PSL_ORDER[s[0]])

    for c in range(n):
        if core[c][0] != "b":
            continue
        if all(core[(c + d) % n] == inv(core[(c - d) % n]) for d in range(1, n // 2)):
            return True
    return False


def psl_gen3_relation(g: str, h1: str, k: str) -> bool:
    """g (h1 g h1^-1) (k g k^-1) = 1 in PSL(2,Z)."""
    mg, mh, mk = psl_matrix(g), psl_matrix(h1), psl_matrix(k)
    prod = mat_prod((mg, mh, mg, mat_inv(mh), mk, mg, mat_inv(mk)))
    return psl_equal(prod, IDENTITY)


def psl_conjugates(k: str, g: str, target: str) -> bool:
    """k g k^-1 = target in PSL(2,Z)."""
    mk = psl_matrix(k)
    return psl_equal(mat_prod((mk, psl_matrix(g), mat_inv(mk))), psl_matrix(target))


# -- B3 -------------------------------------------------------------------

_S1, _S2 = (1, 1, 0, 1), (1, 0, -1, 1)
_X = mat_prod((_S1, _S2, _S1))
_Y = mat_mul(_S1, _S2)
B3_GEN = {"s1": (_S1, 1), "s2": (_S2, 1), "x": (_X, 3), "y": (_Y, 2), "h": (mat_pow(_Y, 3), 6)}

B3Image = tuple[Matrix, int]
B3_IDENTITY: B3Image = (IDENTITY, 0)


def braid_pairs(text: str) -> list[tuple[str, int]]:
    """Braid tokens with capital letters read as inverses."""
    out = []
    for g, e in tokens(text):
        if g in ("S1", "S2", "X", "Y", "H"):
            g, e = g.lower(), -e
        if g not in B3_GEN:
            raise ValueError(f"unknown braid letter {g!r}")
        out.append((g, e))
    return out


def b3_image_of_pairs(pairs) -> B3Image:
    m, s = IDENTITY, 0
    for g, e in pairs:
        base, weight = B3_GEN[g]
        m = mat_mul(m, mat_pow(base, e))
        s += weight * e
    return m, s


def b3_image(text: str) -> B3Image:
    return b3_image_of_pairs(braid_pairs(text))


def b3_mul(*images: B3Image) -> B3Image:
    return mat_prod(m for m, _ in images), sum(s for _, s in images)


def b3_inv(p: B3Image) -> B3Image:
    return mat_inv(p[0]), -p[1]


def b3_of_normal_form(m: int, q: str) -> B3Image:
    """h^m times the section of the PSL(2,Z) word q (a -> x, b^e -> y^e)."""
    pairs = [("h", m)] + [("x", e) if g == "a" else ("y", e) for g, e in tokens(q)]
    return b3_image_of_pairs(pairs)


def b3_gen3_relation(g: B3Image, h1: B3Image, k: B3Image) -> bool:
    return b3_mul(g, h1, g, b3_inv(h1), k, g, b3_inv(k)) == B3_IDENTITY


# -- the trefoil Seifert group -------------------------------------------

def trefoil_image(text: str, b: int) -> B3Image:
    """Image in B3 of a word over c1, c2, d1, h of the trefoil data."""
    pairs = []
    for g, e in tokens(text):
        if g == "c1":
            pairs.append(("x", e))
        elif g == "c2":
            pairs.append(("y", e))
        elif g == "h":
            pairs.append(("h", e))
        elif g == "d1":
            d1 = inverse_pairs([("x", 1), ("y", 1), ("h", b)])
            for _ in range(abs(e)):
                pairs.extend(d1 if e > 0 else inverse_pairs(d1))
        else:
            raise ValueError(f"unknown trefoil generator {g!r}")
    return b3_image_of_pairs(pairs)


# -- answer checks, one per operation kind ----------------------------------
#
# check(item, out, state, program) returns None when the operation's output
# agrees with the independent computation, else a description of the
# disagreement.  ``program`` answers Seifert reversibility for the
# invariance check; ``state`` carries a certificate from one cli call to the
# next within a round.

TREFOIL_DATA = {
    "(O,o,0 | 1; (2,1),(3,1)); boundaries=1": 1,
    "(O,o,0 | 1; (2,1),(3,1)); boundaries=1; phi: d1=+1": 1,
    "(O,o,0|1,(2,1),(3,1));boundaries=1": 1,
}


def inverse_text(text: str) -> str:
    return word_text(inverse_pairs(tokens(text)))


def _certified(out, expect: str):
    """The certificate of a yes answer, or an error string."""
    if out is None:
        return None if expect == "no" else f"answered no, expected {expect}"
    cert, verified = out
    if expect == "no":
        return "answered yes to a no-instance"
    if verified is not True:
        return "the program rejected its own certificate"
    return cert


def _gen3_no(text: str, expect: str):
    if a_parity(text):
        return None
    if psl_trace(text) > 2:
        return "mirror test says yes" if mirror_gen3(text) else None
    return None if expect == "no" else f"answered no, expected {expect}"


def check(item: tuple, out, state: dict, program) -> str | None:
    kind, expect, *args = item
    if kind == "rev":
        cert = _certified(out, expect)
        if not isinstance(cert, dict):
            return cert
        if not psl_equal(psl_matrix(cert["word"]), psl_matrix(args[0])):
            return "certificate names another element"
        if not psl_conjugates(cert["reverser"], args[0], inverse_text(args[0])):
            return "reverser does not invert the element"
        return None
    if kind == "conj":
        cert = _certified(out, expect)
        if cert is None and expect == "no" and psl_trace(args[0]) == psl_trace(args[1]):
            return "no-instance has equal traces"
        if not isinstance(cert, dict):
            return cert
        if not psl_conjugates(cert["conjugator"], args[0], args[1]):
            return "conjugator fails"
        return None
    if kind == "gen3":
        tag, cert, verified = out
        if tag == "no":
            return _gen3_no(args[0], expect)
        if expect != "yes" or verified is not True:
            return f"answered {tag} with verified={verified}, expected {expect}"
        if not psl_equal(psl_matrix(cert["word"]), psl_matrix(args[0])):
            return "certificate names another element"
        return None if psl_gen3_relation(args[0], cert["h1"], cert["k"]) else "relation fails"
    if kind == "b3gen3":
        tag, cert, verified = out
        g = b3_image(args[0])
        if tag == "no":
            return None if g[1] != 0 or expect == "no" else "answered no, expected yes"
        if expect != "yes" or verified is not True:
            return f"answered {tag} with verified={verified}, expected {expect}"
        ok = b3_gen3_relation(g, b3_image(cert["h1"]), b3_image(cert["k"]))
        return None if ok else "relation fails"
    if kind == "b3rev":
        cert = _certified(out, expect)
        if cert is None and b3_image(args[0])[1] == 0 and expect != "no":
            return "answered no, expected yes"
        if not isinstance(cert, dict):
            return cert
        g, r = b3_image(args[0]), b3_image(cert["reverser"])
        return None if b3_mul(r, g, b3_inv(r)) == b3_inv(g) else "reverser fails"
    if kind == "nf":
        m, q = out
        return None if b3_of_normal_form(m, q) == b3_image(args[0]) else "normal form differs"
    if kind == "b3conj":
        cert = _certified(out, expect)
        g1, g2 = b3_image(args[0]), b3_image(args[1])
        if cert is None and g1[1] == g2[1]:
            return "no-instance has equal exponent sums"
        if not isinstance(cert, dict):
            return cert
        k = b3_image(cert["conjugator"])
        return None if b3_mul(k, g1, b3_inv(k)) == g2 else "conjugator fails"
    if kind == "srev":
        return _check_seifert_reversible(args, expect, out, program)
    if kind == "genn":
        return _check_gen_n(args[0], int(args[1]), expect, out)
    if kind == "cli":
        return _check_cli(args, expect, out, state)
    return f"unknown kind {kind!r}"


def _check_seifert_reversible(args, expect, out, program):
    spec, text = args
    b = TREFOIL_DATA.get(spec)
    if b is None:
        # no faithful matrices here: the verdict must survive conjugation
        # and inversion
        pairs = tokens(text)
        k = [(g, 1) for g, _ in pairs[:2]]
        verdict = out is not None
        for other in (word_text(k + pairs + inverse_pairs(k)), inverse_text(text)):
            if program(spec, other) != verdict:
                return f"verdict changes on {other!r}"
        if out is not None and out[1] is not True:
            return "the program rejected its own certificate"
        return None
    cert = _certified(out, expect)
    if not isinstance(cert, dict):
        return cert
    g, r = trefoil_image(text, b), trefoil_image(cert["reverser"], b)
    return None if b3_mul(r, g, b3_inv(r)) == b3_inv(g) else "reverser fails"


def _check_gen_n(spec: str, n: int, expect: str, out):
    if out is None:
        return None if expect == "absent" else "answered absent, expected yes"
    cert, verified = out
    if expect == "absent":
        return "certificate for a degree coprime to every fiber order"
    if verified is not True:
        return "the program rejected its own certificate"
    if n * cert["x"] + cert["m1"] + cert["m2"] != 0 or len(cert["conjugators"]) != n - 1:
        return "fiber arithmetic fails"
    b = TREFOIL_DATA.get(spec)
    if b is None:
        return None
    g = trefoil_image(cert["element"], b)
    if g == B3_IDENTITY:
        return "certificate element is trivial"
    product = g
    for text in cert["conjugators"]:
        k = trefoil_image(text, b)
        product = b3_mul(product, k, g, b3_inv(k))
    return None if product == B3_IDENTITY else "relation fails"


def _check_cli(argv, expect, out, state):
    import json

    code, stdout = out
    if code != 0:
        return f"exit status {code}"
    result = json.loads(stdout)
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    group = opts.get("--group", "pslz")
    verdict = result["verdict"]
    if command in ("reversible", "gen-torsion", "conjugate", "classify", "verify"):
        if verdict != expect:
            return f"verdict {verdict}, expected {expect}"
    cert = result.get("certificate")
    if command == "reversible":
        state["certificate"] = json.dumps(cert)
        word = opts["--word"]
        if group == "pslz":
            ok = psl_conjugates(cert["reverser"], word, inverse_text(word))
        elif group == "b3":
            g, r = b3_image(word), b3_image(cert["reverser"])
            ok = b3_mul(r, g, b3_inv(r)) == b3_inv(g)
        else:
            b = TREFOIL_DATA[group.split(":", 1)[1]]
            g, r = trefoil_image(word, b), trefoil_image(cert["reverser"], b)
            ok = b3_mul(r, g, b3_inv(r)) == b3_inv(g)
        return None if ok else "reverser fails"
    if command == "gen-torsion":
        if group == "pslz":
            ok = psl_gen3_relation(opts["--word"], cert["h1"], cert["k"])
            return None if ok else "relation fails"
        return _check_gen_n(group.split(":", 1)[1], int(opts["--n"]), "yes", (cert, True))
    if command == "conjugate":
        ok = psl_conjugates(cert["conjugator"], opts["--word"], opts["--other"])
        return None if ok else "conjugator fails"
    if command == "classify":
        return None
    if command in ("normalize", "braid"):
        nf = result["normal_form"]
        ok = b3_of_normal_form(nf["m"], nf["q"]) == b3_image(opts["--word"])
        ok = ok and b3_image(nf["spelled"]) == b3_image(opts["--word"])
        return None if ok else "normal form differs"
    if command == "seifert":
        return _check_seifert_report(argv[-1], result)
    return None


def _check_seifert_report(action: str, result: dict):
    """Reports on the trefoil data (O,o,0|1,(2,1),(3,1));boundaries=1."""
    if action == "families":
        # fibers 2 and 3: one pair of even orders with equal beta, trivial phi
        families = [f["family"] for f in result["families"]]
        return None if families == ["two-half-twists"] else f"families {families}"
    if action == "presentation":
        ok = result["generators"] == ["c1", "c2", "d1", "h"]
        ok = ok and ["c1^2", "h"] in result["relations"] and ["c2^3", "h"] in result["relations"]
        return None if ok else "presentation differs"
    ok = result["eliminated"] == "d1"
    ok = ok and psl_equal(psl_matrix(result["elimination_image"].replace("c1", "a").replace("c2", "b")),
                          psl_matrix("b^2 a"))
    return None if ok else "quotient differs"
