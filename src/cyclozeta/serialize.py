"""Textual round-trip formats.

Series files are a header line ``alphabet=X|Y group=<spec> degree=<D>
ring=rational|complex [tol=<t>]`` followed by one ``word<TAB>coefficient``
line per nonzero entry; absent words of degree within the bound read as
zero.  Rational payloads round-trip exactly; complex ones through the
shortest repr of a double.  Series over a restricted letter set are written
against their ambient group and come back over the full alphabet.
"""

from __future__ import annotations

import math

from .algebra import AlgebraElement, format_element_combo, parse_element_combo
from .errors import ParseError
from .groups import format_group, parse_group
from .regularization import TPolynomial
from .rings import ComplexRing, ring_from_name
from .series import Alphabet, TruncatedSeries
from . import words as W


def _number(fields: dict, key: str, convert):
    """A numeric header field, refused unless it is finite and >= 0."""
    try:
        value = convert(fields[key])
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ParseError(f"header field {key}={fields[key]} is not a finite number >= 0")
    return value


def _read(text: str, what: str, kind_key: str, *int_fields: str):
    """The body lines of a series or element file, the kind, group and ring
    its header names, and the values of its ``int_fields``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"empty {what} file")
    fields = {}
    for chunk in lines[0].split():
        key, _, value = chunk.partition("=")
        if not value:
            raise ParseError(f"bad header field {chunk!r}")
        fields[key] = value
    try:
        kind = fields[kind_key].lower()
        group = parse_group(fields["group"])
        values = [_number(fields, key, int) for key in int_fields]
        ring = ring_from_name(fields["ring"],
                              _number(fields, "tol", float) if "tol" in fields else None)
    except KeyError as exc:
        raise ParseError(f"{what} header is missing {exc}") from exc
    if kind not in ("x", "y"):
        raise ParseError(f"bad {kind_key} {fields[kind_key]!r}")
    return (lines[1:], kind, group, ring, *values)


def format_series(series: TruncatedSeries) -> str:
    ring = series.ring
    header = (f"alphabet={series.alphabet.kind.upper()} "
              f"group={format_group(series.alphabet.group)} "
              f"degree={series.degree_bound} ring={ring.name}")
    if isinstance(ring, ComplexRing):
        header += f" tol={ring.tolerance!r}"
    fmt_word = W.format_x_word if series.alphabet.kind == "x" else W.format_y_word
    lines = [header]
    keys = sorted(series.terms,
                  key=lambda w: (series.alphabet.word_degree(w), fmt_word(w)))
    for w in keys:
        lines.append(f"{fmt_word(w)}\t{ring.format(series.terms[w])}")
    return "\n".join(lines) + "\n"


def parse_series(text: str) -> TruncatedSeries:
    lines, kind, group, ring, degree = _read(text, "series", "alphabet", "degree")
    alphabet = Alphabet.x(group) if kind == "x" else Alphabet.y(group)
    coeffs = {}
    parse_word = W.parse_x_word if kind == "x" else W.parse_y_word
    for line in lines:
        word_text, _, coeff_text = line.partition("\t")
        if not coeff_text:
            raise ParseError(f"bad series line {line!r}")
        word = parse_word(word_text.strip(), group)
        if word in coeffs:
            raise ParseError(f"series line {line!r} repeats its word")
        if alphabet.word_degree(word) > degree:
            raise ParseError(f"series line {line!r} is beyond degree {degree}")
        coeffs[word] = ring.parse(coeff_text)
    return TruncatedSeries.make(ring, alphabet, degree, coeffs)


def format_element(elem: AlgebraElement) -> str:
    header = (f"element={elem.kind.upper()} group={format_group(elem.group)} "
              f"ring={elem.ring.name}")
    if isinstance(elem.ring, ComplexRing):
        header += f" tol={elem.ring.tolerance!r}"
    return header + "\n" + format_element_combo(elem) + "\n"


def parse_element(text: str) -> AlgebraElement:
    lines, kind, group, ring = _read(text, "element", "element")
    if len(lines) > 1:
        raise ParseError(f"element file has a second body line {lines[1]!r}")
    return parse_element_combo(lines[0] if lines else "0", ring, kind, group)


def format_tpoly(tpoly: TPolynomial, ring) -> str:
    """``[l: coeff, ...]`` with coefficients in the combination syntax."""
    parts = []
    for l in sorted(tpoly.coeffs):
        c = tpoly.coeffs[l]
        text = format_element_combo(c) if isinstance(c, AlgebraElement) else ring.format(c)
        parts.append(f"{l}: {text}")
    return "[" + ", ".join(parts) + "]"


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
