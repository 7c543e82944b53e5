"""Words over the two alphabets.

An X letter is either ``None`` (the letter ``x0``) or a :class:`GroupElement`
(the letter ``x_g``); an X word is a tuple of X letters, graded by length.
A Y letter is a pair ``(n, g)`` with ``n >= 1``; a Y word is a tuple of Y
letters, graded by the weight ``sum(n_i)``.  The two encodings are exchanged
by ``y_{n,g} <-> x0^(n-1) x_g``, which identifies Y words with the X words
that end in a group letter.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Optional

from .errors import NotInH1Error, ParseError
from .groups import FiniteAbelianGroup, GroupElement, format_element, parse_element

XLetter = Optional[GroupElement]
XWord = tuple[XLetter, ...]
YLetter = tuple[int, GroupElement]
YWord = tuple[YLetter, ...]

X0: XLetter = None

#: one tuple per Y letter, shared by the words made here: the words of a
#: large series or pair table repeat a few letters many times
_Y_LETTERS: dict[YLetter, YLetter] = {}


def _y_letter(n: int, g: GroupElement) -> YLetter:
    y = (n, g)
    return _Y_LETTERS.setdefault(y, y)


def y_weight(word: YWord) -> int:
    return sum(n for n, _ in word)


def y_to_x_word(word: YWord) -> XWord:
    return blocks_to_x_word(word, 0)


def x_to_y_word(word: XWord) -> YWord:
    """Re-encode an X word ending in a group letter; raises otherwise."""
    blocks, trailing = x_word_blocks(word)
    if trailing:
        raise NotInH1Error(f"{format_x_word(word)} ends in x0 and has no Y form")
    return tuple(blocks)


def x_word_in_h1(word: XWord) -> bool:
    return not word or word[-1] is not X0


def x_word_in_h0(word: XWord) -> bool:
    if not word:
        return True
    head_ok = word[0] is X0 or not word[0].is_identity
    return head_ok and word[-1] is not X0


def x_word_blocks(word: XWord) -> tuple[list[tuple[int, GroupElement]], int]:
    """Split into blocks ``x0^(n_i - 1) x_{g_i}`` plus a trailing x0 run."""
    blocks: list[tuple[int, GroupElement]] = []
    run = 0
    for letter in word:
        if letter is X0:
            run += 1
        else:
            blocks.append(_y_letter(run + 1, letter))
            run = 0
    return blocks, run


def blocks_to_x_word(blocks, trailing: int) -> XWord:
    out: list[XLetter] = []
    for n, g in blocks:
        out.extend([X0] * (n - 1))
        out.append(g)
    out.extend([X0] * trailing)
    return tuple(out)


def qg_y_word(word: YWord, inverse: bool = False) -> YWord:
    """The group-label twist, acting on one word.

    Forward replaces the i-th group label ``g_i`` by ``g_i g_{i-1}^(-1)``;
    inverse replaces it by the partial product ``g_1 ... g_i``.
    """
    out: list[YLetter] = []
    if inverse:
        acc = None
        for n, g in word:
            acc = g if acc is None else acc * g
            out.append((n, acc))
    else:
        prev = None
        for n, g in word:
            out.append((n, g if prev is None else g * prev.inverse()))
            prev = g
    return tuple(out)


def qg_x_word(word: XWord, inverse: bool = False) -> XWord:
    """The twist of :func:`qg_y_word` on the blocks of an X word; runs of x0
    are untouched."""
    blocks, trailing = x_word_blocks(word)
    return blocks_to_x_word(qg_y_word(blocks, inverse), trailing)


def x_words_up_to(letters, max_length: int) -> Iterator[XWord]:
    """All X words of length <= max_length over ``{x0} + letters``, by degree."""
    full = (X0,) + tuple(letters)
    for length in range(max_length + 1):
        yield from itertools.product(full, repeat=length)


def y_words_up_to(letters, max_weight: int) -> Iterator[YWord]:
    """All Y words of weight <= max_weight, ordered by weight."""
    letters = tuple(letters)
    ys = {n: [(_y_letter(n, g),) for g in letters]
          for n in range(1, max_weight + 1)}

    def gen(weight: int) -> Iterator[YWord]:
        if weight == 0:
            yield ()
            return
        for n in range(1, weight + 1):
            for y in ys[n]:
                for rest in gen(weight - n):
                    yield y + rest

    for w in range(max_weight + 1):
        yield from gen(w)


# -- textual form -------------------------------------------------------------
#
# X words are juxtaposed letters `x0` and `xg[<vec>]`, Y words are juxtaposed
# `y[<n>,g<vec>]`, with `<vec>` a colon-separated exponent vector.  The empty
# word is `1`.


def format_x_word(word: XWord) -> str:
    if not word:
        return "1"
    parts = []
    for letter in word:
        if letter is X0:
            parts.append("x0")
        else:
            parts.append(f"xg[{format_element(letter)}]")
    return "".join(parts)


def format_y_word(word: YWord) -> str:
    if not word:
        return "1"
    return "".join(f"y[{n},g{format_element(g)}]" for n, g in word)


#: one letter of each alphabet; the bracketed body is parsed separately
_X_LETTER = re.compile(r"x0|xg\[([^\]]*)\]")
_Y_LETTER = re.compile(r"y\[([^\]]*)\]")


def _letter_bodies(text: str, letter: re.Pattern, kind: str) -> Iterator:
    """The bracketed body of each letter of ``text`` (``None`` for x0), left
    to right; a letter that does not parse, an unclosed ``[`` included, is
    named by its offset."""
    text = text.strip()
    if text == "1":
        return
    i = 0
    while i < len(text):
        m = letter.match(text, i)
        if m is None:
            raise ParseError(f"bad {kind} word {text!r} at offset {i}")
        yield m[1]
        i = m.end()


def parse_x_word(text: str, group: FiniteAbelianGroup) -> XWord:
    return tuple(X0 if body is None else parse_element(body, group)
                 for body in _letter_bodies(text, _X_LETTER, "X"))


def parse_y_word(text: str, group: FiniteAbelianGroup) -> YWord:
    text = text.strip()
    out: list[YLetter] = []
    for body in _letter_bodies(text, _Y_LETTER, "Y"):
        n_part, _, g_part = body.partition(",")
        if not g_part.startswith("g"):
            raise ParseError(f"bad Y letter in {text!r}")
        try:
            n = int(n_part)
        except ValueError as exc:
            raise ParseError(f"bad Y letter in {text!r}") from exc
        if n < 1:
            raise ParseError(f"bad Y letter weight in {text!r}")
        out.append((n, parse_element(g_part[1:], group)))
    return tuple(out)
