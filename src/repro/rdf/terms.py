"""RDF terms: the three disjoint resource sets U (URIs), L (literals) and
B (blank nodes) of Section II-A, plus a total order so term collections can
be sorted deterministically (ORDER BY, range partitioning).

:func:`read_term`, the inverse of :meth:`Term.n3`, is the one reader of a
term's text for N-Triples, Turtle, SPARQL and SHACL's wire rows.
"""

from __future__ import annotations

import re
import zlib
from typing import Dict, Optional

#: The one way past the raising ``__setattr__`` of the immutable terms.
_set = object.__setattr__


class Term:
    """Base class for RDF terms.  Terms are immutable and hashable."""

    #: Per-term facts, each filled once something asks for it and None
    #: before: the term's hash (terms key every graph index), the bytes
    #: the cost model charges to move it, the hash that places it on a
    #: partition (every shuffled record asks for both) and its N3 text
    #: (every answer cell and ORDER BY tie renders it).  None of them
    #: ever changes.  Constructors only clear the slots and
    #: ``__reduce__`` rebuilds through them, so neither parsing nor the
    #: worker pipe computes (or carries) a fact nobody asked for.
    __slots__ = ("_hash", "_size", "_placement", "_n3")

    #: Sort rank between term kinds: blank nodes < URIs < literals.
    _kind_rank = 0

    def serialized_size(self) -> int:
        """What :func:`repro.spark.metrics.estimate_size` charges for
        the term: ``len(repr(term))``."""
        size = self._size
        if size is None:
            size = len(repr(self))
            _set(self, "_size", size)
        return size

    def placement_hash(self) -> int:
        """Where :func:`repro.spark.partitioner.stable_hash` puts the
        term: ``crc32(repr(term).encode("utf-8"))``."""
        value = self._placement
        if value is None:
            value = zlib.crc32(repr(self).encode("utf-8"))
            _set(self, "_placement", value)
        return value

    def n3(self) -> str:
        """The term in N-Triples syntax."""
        raise NotImplementedError

    def sort_key(self):
        return (self._kind_rank, self._value_key())

    def _value_key(self):
        raise NotImplementedError

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class URI(Term):
    """A URI reference (the set *U*)."""

    __slots__ = ("value",)
    _kind_rank = 1

    def __init__(self, value: str) -> None:
        if not value:
            raise ValueError("URI cannot be empty")
        _set(self, "value", value)
        _set(self, "_hash", None)
        _set(self, "_size", None)
        _set(self, "_placement", None)
        _set(self, "_n3", None)

    def __setattr__(self, name, val):
        raise AttributeError("URI is immutable")

    def __reduce__(self):
        # The raising __setattr__ breaks the default slots-state pickle
        # path; rebuild through the constructor instead.
        return (URI, (self.value,))

    def n3(self) -> str:
        text = self._n3
        if text is None:
            text = "<%s>" % self.value
            _set(self, "_n3", text)
        return text

    def local_name(self) -> str:
        """The fragment after the last '#' or '/', for display."""
        for separator in ("#", "/"):
            if separator in self.value:
                return self.value.rsplit(separator, 1)[1]
        return self.value

    def _value_key(self):
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, URI) and self.value == other.value

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(("URI", self.value))
            _set(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return "URI(%r)" % self.value


class BNode(Term):
    """A blank node (the set *B*): an unknown constant or URI."""

    __slots__ = ("label",)
    _kind_rank = 0
    _counter = [0]

    def __init__(self, label: Optional[str] = None) -> None:
        if label is None:
            BNode._counter[0] += 1
            label = "b%d" % BNode._counter[0]
        _set(self, "label", label)
        _set(self, "_hash", None)
        _set(self, "_size", None)
        _set(self, "_placement", None)
        _set(self, "_n3", None)

    def __setattr__(self, name, val):
        raise AttributeError("BNode is immutable")

    def __reduce__(self):
        # Pin the label so unpickling never consumes the fresh-label counter.
        return (BNode, (self.label,))

    def n3(self) -> str:
        text = self._n3
        if text is None:
            text = "_:%s" % self.label
            _set(self, "_n3", text)
        return text

    def _value_key(self):
        return self.label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNode) and self.label == other.label

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(("BNode", self.label))
            _set(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return "BNode(%r)" % self.label


class Literal(Term):
    """A literal (the set *L*): lexical form + optional datatype/language."""

    __slots__ = ("lexical", "datatype", "language")
    _kind_rank = 2

    def __init__(
        self,
        lexical: object,
        datatype: Optional[URI] = None,
        language: Optional[str] = None,
    ) -> None:
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both datatype and language")
        if isinstance(lexical, bool):
            datatype = datatype or _XSD_BOOLEAN
            lexical = "true" if lexical else "false"
        elif isinstance(lexical, int):
            datatype = datatype or _XSD_INTEGER
            lexical = str(lexical)
        elif isinstance(lexical, float):
            datatype = datatype or _XSD_DOUBLE
            lexical = repr(lexical)
            lexical = _NON_FINITE.get(lexical, lexical)
        _set(self, "lexical", str(lexical))
        _set(self, "datatype", datatype)
        _set(self, "language", language)
        _set(self, "_hash", None)
        _set(self, "_size", None)
        _set(self, "_placement", None)
        _set(self, "_n3", None)

    def __setattr__(self, name, val):
        raise AttributeError("Literal is immutable")

    def __reduce__(self):
        # Lexical form is stored as str, so the constructor's coercion
        # branches are no-ops and the round trip is exact.
        return (Literal, (self.lexical, self.datatype, self.language))

    def n3(self) -> str:
        text = self._n3
        if text is None:
            escaped = (
                self.lexical.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
                .replace("\r", "\\r")
                .replace("\t", "\\t")
            )
            if self.language:
                text = '"%s"@%s' % (escaped, self.language)
            elif self.datatype:
                text = '"%s"^^%s' % (escaped, self.datatype.n3())
            else:
                text = '"%s"' % escaped
            _set(self, "_n3", text)
        return text

    def to_python(self):
        """The literal as a Python value when the datatype is numeric/bool;
        None for a numeric datatype whose lexical form is not one: its
        text must be a numeral of SPARQL's grammar (``INF``, ``-INF`` and
        ``NaN`` too, for a double or float), not just anything Python's
        ``int()`` or ``float()`` reads (``" 7 "``, ``"1_000"``, ``"inf"``)."""
        datatype, lexical = self.datatype, self.lexical
        if datatype == _XSD_INTEGER or datatype == _XSD_INT:
            form, read = _INTEGER_RE, int
        elif datatype == _XSD_DECIMAL:
            form, read = _DECIMAL_RE, float
        elif datatype == _XSD_DOUBLE or datatype == _XSD_FLOAT:
            form, read = _DOUBLE_RE, float
        elif datatype == _XSD_BOOLEAN:
            return lexical == "true"
        else:
            return lexical
        if form.fullmatch(lexical) is None:
            return None
        try:
            return read(lexical)
        except ValueError:  # an integer of more digits than int() reads
            return None

    def _value_key(self):
        value = self.to_python()
        if isinstance(value, bool):
            return (0, int(value), "")
        if isinstance(value, (int, float)):
            # An int stays exact (no float() to overflow or round);
            # Python compares it with a float exactly, and 1 == 1.0.
            if value != value:
                # NaN equals nothing, itself included: it goes after
                # +inf, so that any two keys compare and a sort is total.
                return (1, _INF, "NaN")
            return (1, value, "")
        # A string, or an ill-typed numeric: by its lexical text.
        return (2, 0.0, self.lexical)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(
                ("Literal", self.lexical, self.datatype, self.language)
            )
            _set(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        extra = ""
        if self.datatype:
            extra = ", datatype=%r" % self.datatype
        if self.language:
            extra = ", language=%r" % self.language
        return "Literal(%r%s)" % (self.lexical, extra)


# Module-level datatype URIs; repro.rdf.vocab re-exports them inside XSD.
_XSD = "http://www.w3.org/2001/XMLSchema#"
_XSD_INTEGER = URI(_XSD + "integer")
_XSD_INT = URI(_XSD + "int")
_XSD_DOUBLE = URI(_XSD + "double")
_XSD_FLOAT = URI(_XSD + "float")
_XSD_DECIMAL = URI(_XSD + "decimal")
_XSD_BOOLEAN = URI(_XSD + "boolean")
_XSD_STRING = URI(_XSD + "string")

_INF = float("inf")


# -- Term syntax ---------------------------------------------------------

#: The quoted string (language tag included) and the numerals of the
#: Turtle and SPARQL 1.1 grammars, for their tokenizers to share.
STRING = r"""(?:"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')(?:@[A-Za-z][A-Za-z0-9\-]*)?"""
DOUBLE = r"[+-]?(?:[0-9]+\.[0-9]*[eE][+-]?[0-9]+|\.?[0-9]+[eE][+-]?[0-9]+)"
DECIMAL = r"[+-]?[0-9]*\.[0-9]+"
INTEGER = r"[+-]?[0-9]+"

#: A quoted string and its suffix, split (N-Triples' wider language tag).
_STRING_RE = re.compile(
    r"""(?:"((?:[^"\\]|\\.)*)"|'((?:[^'\\]|\\.)*)')"""
    r"(?:@([A-Za-z0-9\-]+)|\^\^(<[^>]*>))?"
)
_NUMERAL_RE = re.compile(
    "(?P<integer>%s)|(?P<decimal>%s)|(?P<double>%s)" % (INTEGER, DECIMAL, DOUBLE)
)
#: What a numeric datatype's lexical form may be (``Literal.to_python``).
_INTEGER_RE = re.compile(INTEGER)
_DECIMAL_RE = re.compile("%s|%s" % (INTEGER, DECIMAL))
_DOUBLE_RE = re.compile("%s|%s|%s|-?INF|NaN" % (INTEGER, DECIMAL, DOUBLE))
#: Python's text for a float that is not finite, as XSD spells it.
_NON_FINITE = {"inf": "INF", "-inf": "-INF", "nan": "NaN"}
_LABEL_RE = re.compile(r"[A-Za-z0-9_]+")
#: A backslash and what follows it: ECHAR, UCHAR -- or, an error, any
#: other character, or a ``\u`` or ``\U`` short of its digits.
_ESCAPE_RE = re.compile(r"\\(u.{0,4}|U.{0,8}|.)", re.DOTALL)
_ECHARS = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescaped(match) -> str:
    escape = match.group(1)
    if escape in _ECHARS:
        return _ECHARS[escape]
    if len(escape) != {"u": 5, "U": 9}.get(escape[0]):
        raise ValueError("bad escape \\%s: neither ECHAR nor UCHAR" % escape)
    try:
        return chr(int(escape[1:], 16))
    except (ValueError, OverflowError):
        raise ValueError(
            "bad escape \\%s: not a Unicode code point" % escape
        ) from None


#: UCHAR, the one escape an IRI may hold, and what IRIREF forbids a
#: decoded one to be: n3() writes an IRI as it is, so such a character
#: would make an IRI nothing reads back.
_IRI_ESCAPE_RE = re.compile(r"\\(u.{4}|U.{8})", re.DOTALL)
_NOT_IN_IRI = frozenset(map(chr, range(0x21))) | frozenset('<>"{}|^`\\')
#: IRIREF: between ``<`` and ``>``, runs of the characters not in
#: _NOT_IN_IRI (as ranges: faster than a negated class) and UCHAR escapes.
#: :func:`read_term` holds every ``<...>`` token of N-Triples, Turtle and
#: SPARQL to it, so no reader loads an IRI with a raw space, quote, brace
#: or bar -- one that no query can name.
_IRI_CHARS = r"[!#-;=?-\[\]_a-z~-\U0010FFFF]*"
IRIREF = r"<%s(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})%s)*>" % (
    _IRI_CHARS,
    _IRI_CHARS,
)
_IRIREF_RE = re.compile(IRIREF)


def _iri_unescaped(match) -> str:
    char = _unescaped(match)
    if char in _NOT_IN_IRI:
        raise ValueError(
            "bad escape \\%s: %r cannot stand in an IRI" % (match.group(1), char)
        )
    return char


def decode_iri(text: str) -> str:
    """The IRI *text* (between ``<`` and ``>``) spells, its ``\\uXXXX``
    and ``\\UXXXXXXXX`` escapes decoded.  Raises ValueError on an escape
    naming no character or one IRIREF forbids."""
    if "\\" in text:
        return _IRI_ESCAPE_RE.sub(_iri_unescaped, text)
    return text


def read_term(
    token: str,
    datatype: Optional[URI] = None,
    terms: Optional[Dict[str, Term]] = None,
) -> Term:
    """The term *token* spells: an ``<iri>``, a ``_:label``, a quoted
    string with an optional ``@lang`` or ``^^<iri>`` (else *datatype*,
    read by the caller from ``^^prefix:name``), a numeral or a boolean.

    A decimal and a double are both ``Literal(float)``, where SPARQL
    would type a decimal ``xsd:decimal`` and keep a double's text.
    *terms* maps tokens to terms read; the token is entered there, and a
    datatype is the term of its ``<iri>`` token.  Raises ValueError on
    anything else, on a backslash that starts neither ECHAR nor UCHAR,
    and on a UCHAR naming no character.
    """
    terms = {} if terms is None else terms
    first = token[:1]
    if first == "<" and _IRIREF_RE.fullmatch(token):
        term: Term = URI(decode_iri(token[1:-1]))
    elif first == '"' or first == "'":
        match = _STRING_RE.fullmatch(token)
        if match is None:
            raise ValueError("not a term: %r" % token)
        double, single, language, reference = match.groups()
        lexical = single if double is None else double
        if "\\" in lexical:
            lexical = _ESCAPE_RE.sub(_unescaped, lexical)
        if reference is not None:
            datatype = terms.get(reference) or read_term(reference, terms=terms)
        term = Literal(lexical, datatype, language)
    elif token[:2] == "_:" and _LABEL_RE.fullmatch(token, 2):
        term = BNode(token[2:])
    elif token == "true" or token == "false":
        term = Literal(token == "true")
    else:
        numeral = _NUMERAL_RE.fullmatch(token)
        if numeral is None:
            raise ValueError("not a term: %r" % token)
        if numeral.lastgroup == "integer":
            term = Literal(int(token))
        else:
            term = Literal(float(token))
    terms[token] = term
    return term
