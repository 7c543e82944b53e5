"""Textual round-trip formats.

Series files are a header line ``alphabet=X|Y group=<spec> degree=<D>
ring=rational|complex [tol=<t>]`` followed by one ``word<TAB>coefficient``
line per nonzero entry; absent words of degree within the bound read as
zero.  Rational payloads round-trip exactly; complex ones through the
shortest repr of a double.  Series over a restricted letter set are written
against their ambient group and come back over the full alphabet.
"""

from __future__ import annotations

from .algebra import AlgebraElement, format_element_combo, parse_element_combo
from .errors import ParseError
from .groups import format_group, parse_group
from .regularization import TPolynomial
from .rings import ComplexRing, ring_from_name
from .series import Alphabet, TruncatedSeries
from . import words as W


def _header_fields(line: str) -> dict:
    out = {}
    for chunk in line.split():
        key, _, value = chunk.partition("=")
        if not value:
            raise ParseError(f"bad header field {chunk!r}")
        out[key] = value
    return out


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty series file")
    fields = _header_fields(lines[0])
    try:
        kind = fields["alphabet"].lower()
        group = parse_group(fields["group"])
        degree = int(fields["degree"])
        ring = ring_from_name(fields["ring"],
                              float(fields["tol"]) if "tol" in fields else None)
    except KeyError as exc:
        raise ParseError(f"series header is missing {exc}") from exc
    if kind not in ("x", "y"):
        raise ParseError(f"bad alphabet {fields['alphabet']!r}")
    alphabet = Alphabet.x(group) if kind == "x" else Alphabet.y(group)
    coeffs = {}
    parse_word = W.parse_x_word if kind == "x" else W.parse_y_word
    for line in lines[1:]:
        word_text, _, coeff_text = line.partition("\t")
        if not coeff_text:
            raise ParseError(f"bad series line {line!r}")
        coeffs[parse_word(word_text.strip(), group)] = ring.parse(coeff_text)
    return TruncatedSeries.make(ring, alphabet, degree, coeffs)


def format_element(elem: AlgebraElement) -> str:
    header = (f"element={elem.kind.upper()} group={format_group(elem.group)} "
              f"ring={elem.ring.name}")
    if isinstance(elem.ring, ComplexRing):
        header += f" tol={elem.ring.tolerance!r}"
    return header + "\n" + format_element_combo(elem) + "\n"


def parse_element(text: str) -> AlgebraElement:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 1:
        raise ParseError("empty element file")
    fields = _header_fields(lines[0])
    try:
        kind = fields["element"].lower()
        group = parse_group(fields["group"])
        ring = ring_from_name(fields["ring"],
                              float(fields["tol"]) if "tol" in fields else None)
    except KeyError as exc:
        raise ParseError(f"element header is missing {exc}") from exc
    body = lines[1] if len(lines) > 1 else "0"
    return parse_element_combo(body, ring, kind, group)


def format_tpoly(tpoly: TPolynomial, ring) -> str:
    """``[l: coeff, ...]`` with coefficients in the combination syntax."""
    parts = []
    for l in sorted(tpoly.coeffs):
        c = tpoly.coeffs[l]
        text = format_element_combo(c) if isinstance(c, AlgebraElement) else ring.format(c)
        parts.append(f"{l}: {text}")
    return "[" + ", ".join(parts) + "]"


def parse_tpoly(text: str, ring, kind: str | None = None, group=None) -> TPolynomial:
    """Parse the bracket form; scalar entries unless ``kind``/``group`` given."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad T-polynomial {text!r}")
    body = text[1:-1].strip()
    out = {}
    if body:
        from .algebra import _split_top_level
        for chunk in _split_top_level(body, ","):
            exp_text, _, coeff_text = chunk.partition(":")
            try:
                l = int(exp_text.strip())
            except ValueError as exc:
                raise ParseError(f"bad exponent in {chunk!r}") from exc
            coeff_text = coeff_text.strip()
            if kind is None:
                out[l] = ring.parse(coeff_text)
            else:
                out[l] = parse_element_combo(coeff_text, ring, kind, group)
    return TPolynomial.make(out)


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
