"""One grammar for element text in PSL(2,Z), B3 and the Seifert groups.

``words.tokens`` reads and ``words.format_tokens`` spells every element
text.  The word and Seifert readers it replaced stay here as references,
with a copy of the per-token braid loop that ``parse_braid`` ran before
its table of spellings, and a derandomized property feeds old and new
readers the same valid and malformed texts.  The braid readers agree on
letters, messages and positions; the others agree except for two
deliberate changes:

* a malformed token is reported before any unknown generator, so some
  texts raise ParseError where they raised UnknownGenerator;
* a Seifert generator name may contain ``_`` like any other name, so an
  unknown one raises UnknownGenerator where it raised ParseError.
"""

import contextlib
import io
import json
import random
import re
import sys
import tracemalloc
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion import braid3, cli, words
from gentorsion.braid3 import parse_braid
from gentorsion.certificates import CERTIFICATE_KINDS, verify_certificate
from gentorsion.errors import MalformedCertificate, ParseError, UnknownGenerator
from gentorsion.seifert import SeifertGroup, SeifertPair, _shown_nontrivial, parse_seifert
from gentorsion.words import (
    PSL2Z,
    format_tokens,
    identity,
    parse_word,
    reduce,
    tokens,
)

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)

TREFOIL = "(O,o,0 | 1; (2,1),(3,1)); boundaries=1"
TREFOIL_GROUP = SeifertGroup(parse_seifert(TREFOIL))
GENUS_ONE = "(O,o,1 | 1; (2,1),(4,1)); boundaries=1"
GENUS_ONE_GROUP = SeifertGroup(parse_seifert(GENUS_ONE))

# -- the readers before the one grammar -------------------------------------

_REF_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?")
_REF_WORD = re.compile(r"(?:\s*(?:1|[A-Za-z][A-Za-z0-9_]*(?:\^-?\d+)?)(?!\S))*\s*")


def reference_parse_word(scheme, text):
    if _REF_WORD.fullmatch(text) is None:
        for found in re.finditer(r"\S+", text):
            token = found.group()
            if token == "1":
                continue
            m = _REF_TOKEN.fullmatch(token)
            if not m:
                raise ParseError(f"bad token {token!r}", found.start())
            if m.group(1) not in scheme:
                raise UnknownGenerator(f"unknown generator {m.group(1)!r}")
    return reduce(
        [(name, int(exp) if exp else 1) for name, exp in _REF_TOKEN.findall(text)], scheme
    )


_REF_ELEMENT_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?$")


def reference_seifert_element(group, text):
    def pieces():
        pos = 0
        for token in text.split():
            pos = text.index(token, pos)
            if token == "1":
                pos += len(token)
                continue
            m = _REF_ELEMENT_TOKEN.match(token)
            if not m:
                raise ParseError(f"bad token {token!r}", pos)
            name, exp = m.group(1), int(m.group(2) or 1)
            if name == "h":
                yield exp, ()
            elif name == group.qmap.eliminated:
                dm = group._dm if exp > 0 else group.inv(group._dm)
                yield from repeat((dm.m, dm.q.syllables), abs(exp))
            elif name in group.scheme:
                yield 0, ((name, exp),)
            else:
                raise UnknownGenerator(f"unknown generator {name!r}")
            pos += len(token)

    return SeifertPair(*group.product(0, identity(group.scheme), pieces()))


# -- the braid reader before its table of spellings ------------------------

_LOOP_SIGNED = {name: (name.lower(), 1 if name.islower() else -1)
                for name in ("s1", "s2", "x", "y", "h", "S1", "S2", "X", "Y", "H")}
SPELLINGS = [name + suffix for name in _LOOP_SIGNED for suffix in ("", "^-1", "^2", "^-2")]


def loop_parse_braid(text):
    """parse_braid as a loop over every token that words.tokens reads."""
    def start(i):
        pos = 0
        for token in text.split():
            pos = text.index(token, pos)
            if token != "1" and (i := i - 1) < 0:
                return pos
            pos += len(token)

    letters = []
    for i, (name, exp) in enumerate(tokens(text)):
        if name not in _LOOP_SIGNED:
            raise ParseError(f"bad braid letter {name!r}", start(i))
        if exp == 0:
            raise ParseError(f"zero exponent on {name!r}", start(i))
        letter, sign = _LOOP_SIGNED[name]
        letters.append((letter, sign * exp))
    return tuple(letters)


# -- the property -----------------------------------------------------------

NAMES = ("a", "b", "s1", "s2", "x", "y", "h", "S1", "S2", "X", "Y", "H", "s3", "q",
         "c1", "c2", "d1", "a1", "b1", "c_1", "a_", "x_1")
MALFORMED = ("a^", "^2", "2a", "a^b", "a^-", "a^^2", "-a", "a^2x", "1a", "a-1", "s1^+1")
SEPARATORS = (" ", "  ", "\t", "\n ", "\u3000", "\x1c")


@st.composite
def texts(draw):
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            parts.append("1")
        elif kind == 1:
            parts.append(draw(st.sampled_from(MALFORMED)))
        else:
            name = draw(st.sampled_from(NAMES))
            exp = draw(st.one_of(st.none(), st.integers(-4, 4)))
            parts.append(name if exp is None else f"{name}^{exp}")
    out = draw(st.sampled_from(("", " ")))
    for part in parts:
        out += part + draw(st.sampled_from(SEPARATORS))
    return out


def _outcome(read, text):
    try:
        return "value", read(text)
    except ValueError as exc:
        return "raises", type(exc)


def _braid_outcome(read, text):
    try:
        return "letters", read(text)
    except ParseError as exc:
        return "raises", str(exc), exc.position


def _malformed(text):
    return [t for t in text.split() if t != "1" and not _REF_TOKEN.fullmatch(t)]


def _agree(old, new, text, underscore_names=False):
    if old == new:
        return True
    if old == ("raises", UnknownGenerator) and new == ("raises", ParseError):
        # a malformed token is now reported before an unknown generator
        return bool(_malformed(text))
    if underscore_names and old == ("raises", ParseError) and new == ("raises", UnknownGenerator):
        # a name with _ is well-formed, and no scheme has one
        return not _malformed(text) and "_" in text
    return False


@PROPERTY
@given(texts())
def test_the_readers_agree_with_the_ones_they_replaced(text):
    old = _outcome(lambda t: reference_parse_word(PSL2Z, t), text)
    new = _outcome(lambda t: parse_word(PSL2Z, t), text)
    assert _agree(old, new, text), (text, old, new)
    new = _braid_outcome(lambda t: parse_braid(t).letters, text)
    assert new == _braid_outcome(loop_parse_braid, text), text
    for group in (TREFOIL_GROUP, GENUS_ONE_GROUP):
        old = _outcome(lambda t: reference_seifert_element(group, t), text)
        new = _outcome(group.element, text)
        assert _agree(old, new, text, underscore_names=True), (text, old, new)


@PROPERTY
@given(texts())
def test_tokens_read_back_what_format_tokens_spells(text):
    try:
        pairs = tokens(text)
    except ParseError:
        assert _malformed(text)
        return
    assert tokens(format_tokens(pairs)) == pairs


# -- tokens and format_tokens ------------------------------------------------

def test_tokens_skip_the_identity_and_read_signed_exponents():
    assert tokens(" a b^-2  1\tc_1^0 ") == [("a", 1), ("b", -2), ("c_1", 0)]
    assert tokens("") == tokens("1 1") == []
    assert format_tokens([("a", 1), ("b", -2), ("c", 0)]) == "a b^-2 c^0"
    assert format_tokens(()) == "1"


def test_tokens_report_the_first_malformed_token_and_its_position():
    with pytest.raises(ParseError) as err:
        tokens("a q b^ ^2")
    assert err.value.position == 4
    assert "'b^'" in str(err.value)


def test_an_exponent_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        tokens("a b^" + "7" * 5000)
    assert err.value.position == 2
    for read in (lambda t: parse_word(PSL2Z, t), parse_braid, TREFOIL_GROUP.element):
        with pytest.raises(ParseError):
            read("h^-" + "7" * 5000)


def test_the_deliberate_changes():
    # a malformed token comes before an unknown generator
    with pytest.raises(UnknownGenerator):
        reference_parse_word(PSL2Z, "c a^")
    with pytest.raises(ParseError):
        parse_word(PSL2Z, "c a^")
    # a Seifert name with _ is a name
    with pytest.raises(ParseError):
        reference_seifert_element(TREFOIL_GROUP, "c_1")
    with pytest.raises(UnknownGenerator):
        TREFOIL_GROUP.element("c_1")
    # the closed-base shape check skips 1 tokens, as every reader does
    d = parse_seifert(GENUS_ONE)
    assert _shown_nontrivial(d, "c1 1 c2 h^-1")
    assert not _shown_nontrivial(d, "c1 c2^")


def test_braid_errors_point_at_the_offending_token():
    for text, position in (("s1 1  s2^0", 6), ("1 x s3", 4), ("xx x", 0), ("s1 s", 3)):
        with pytest.raises(ParseError) as err:
            parse_braid(text)
        assert err.value.position == position, text


# -- hostile exponents in certificates ---------------------------------------

HUGE = "9" * 5000
HOSTILE = {
    "pslz-reverser": {"word": f"a b^{HUGE}", "reverser": "a"},
    "pslz-conjugacy": {"word": "a b", "other": "b a", "conjugator": f"a^{HUGE}"},
    "pslz-gen3": {"word": "a b a b", "h1": "b", "k": f"b^-{HUGE}"},
    "b3-reverser": {"element": "s1 S2", "reverser": f"s1^{HUGE}"},
    "b3-conjugacy": {"element": "s1", "other": "s2", "conjugator": f"x^{HUGE}"},
    "b3-gen3": {"element": f"h^{HUGE}", "h1": "y", "k": "y"},
    "seifert-reverser": {"data": TREFOIL, "element": "c1 c2", "reverser": f"d1^{HUGE}"},
    "seifert-gen-n": {"data": TREFOIL, "n": 2, "element": f"h^{HUGE}", "conjugators": ["c1"],
                      "x": 0, "m1": 0, "m2": 0},
}


def _verify_on_the_command_line(text):
    """Exit status, stdout and error kind of ``gentorsion verify``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--certificate", text])
    return code, out.getvalue(), json.loads(err.getvalue())["error_kind"]


@pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
def test_a_hostile_exponent_makes_a_certificate_malformed(kind):
    cert = {"kind": kind, **HOSTILE[kind]}
    with pytest.raises(MalformedCertificate):
        verify_certificate(cert)
    assert _verify_on_the_command_line(json.dumps(cert)) == (1, "", "MalformedCertificate")


def test_a_certificate_number_past_the_digit_limit_is_malformed():
    cert = json.dumps({**HOSTILE["seifert-gen-n"], "kind": "seifert-gen-n", "element": "h"})
    cert = cert.replace('"n": 2', f'"n": {HUGE}')
    assert _verify_on_the_command_line(cert) == (1, "", "MalformedCertificate")


def test_seifert_data_past_the_digit_limit_is_a_parse_error():
    for text in (f"(O,o,0 | {HUGE}; (2,1),(3,1)); boundaries=1",
                 f"(O,o,0 | 1; (2,1),(3,{HUGE})); boundaries=1",
                 f"(O,o,0 | 1; ({HUGE},1)); boundaries=1"):
        with pytest.raises(ParseError):
            parse_seifert(text)
    cert = {"kind": "seifert-reverser", "data": f"(O,o,0 | {HUGE}; (2,1),(3,1)); boundaries=1",
            "element": "c1", "reverser": "c1"}
    with pytest.raises(MalformedCertificate):
        verify_certificate(cert)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(("a", "b", "t", "u_1")), st.integers(-10**6, 10**6))))
def test_str_spells_what_format_tokens_spells(pairs):
    scheme = words.parse_scheme("a:2, b:3, t:inf, u_1:inf")
    w = reduce(pairs, scheme)
    assert str(w) == str(words.CyclicWord(scheme, w.syllables)) == format_tokens(w.syllables)
    assert reduce(tokens(str(w)), scheme) == w


# -- braid text through the table of token spellings --------------------------

BRAID_MALFORMED = ("s3", "s1^0", "^2", "s1^--1", "S2^0", "s1^+1", "s", "z^2", "x^", "h^-0",
                   "y^2^2", "1s1", "H^-" + "7" * 5000)


@st.composite
def braid_texts(draw):
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            parts.append("1")
        elif kind == 1:
            parts.append(draw(st.sampled_from(BRAID_MALFORMED)))
        elif kind == 2:
            parts.append(draw(st.sampled_from(sorted(_LOOP_SIGNED))) + "^1")
        elif kind == 3:
            exp = draw(st.integers(3, 10**6)) * draw(st.sampled_from((1, -1)))
            parts.append(f"{draw(st.sampled_from(sorted(_LOOP_SIGNED)))}^{exp}")
        else:
            parts.append(draw(st.sampled_from(SPELLINGS)))
    out = draw(st.sampled_from(("", " ", "\t")))
    for part in parts:
        out += part + draw(st.sampled_from(SEPARATORS))
    return out


def test_the_table_holds_the_forty_spellings_each_one_shared_letter():
    assert sorted(braid3._SPELLED) == sorted(SPELLINGS)
    for text in SPELLINGS:
        assert parse_braid(text).letters == loop_parse_braid(text)
        first, second = parse_braid(f" x\t{text}  {text}").letters[1:]
        assert first is second is parse_braid(text).letters[0]


@PROPERTY
@given(braid_texts())
def test_parse_braid_matches_the_per_token_loop(text):
    new = _braid_outcome(lambda t: parse_braid(t).letters, text)
    assert new == _braid_outcome(loop_parse_braid, text), text


@pytest.fixture
def counted_tokens(monkeypatch):
    """Count the calls of words.tokens that parse_braid makes."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokens(text)

    monkeypatch.setattr(braid3, "tokens", counting)
    return calls


def _kept(read, text):
    """The result of read(text), and the bytes it keeps allocated."""
    tracemalloc.start()
    try:
        result = read(text)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_text_of_table_spellings_is_read_without_tokens(counted_tokens, monkeypatch):
    made = []
    make = braid3._SPELLED.make
    monkeypatch.setattr(braid3._SPELLED, "make", lambda token: made.append(token) or make(token))
    rng = random.Random(19)
    spelled = [rng.choice(SPELLINGS) for _ in range(10**5)]
    text = " ".join(spelled)
    parse_braid(text)
    w, kept = _kept(parse_braid, text)
    assert counted_tokens == [] and made == []
    assert kept <= sys.getsizeof(w.letters) + 4096
    assert w.letters == loop_parse_braid(text)

    # a token the table lacks is read alone, and the rest still by lookup
    spelled[len(spelled) // 2] = "s1^7"
    odd = " ".join(spelled)
    w, kept = _kept(parse_braid, odd)
    assert counted_tokens == made == ["s1^7"]
    assert kept <= sys.getsizeof(w.letters) + 4096
    assert w.letters == loop_parse_braid(odd)
