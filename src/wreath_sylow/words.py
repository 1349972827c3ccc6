"""A tiny expression grammar for tower elements on the command line.

Tokens name the generator families: ``s<i>`` for shifts, ``e<i>`` for
scaling maps, ``r<i>`` for co-shifts, each built by its family's cached
builder, which also refuses a level off the family.  Operators, loosest
first:

    a * b      composition, b acting first
    a ^ b      conjugation of a by b, i.e. b * a * b**-1 (left associative)
    ~a         inverse

with parentheses grouping as usual.  A generator string may instead be
plain cycle notation, recognized by its leading parenthesis-digit shape.
"""

from __future__ import annotations

import re

from .perm import Perm, conjugate, parse_cycles
from .tower import Tower, co_shift_gen, scale_gen, shift_gen

MAX_NESTING = 100  # parentheses and inverses; keeps the recursion off the stack limit

_FAMILIES = {"s": shift_gen, "e": scale_gen, "r": co_shift_gen}  # token letter -> builder

_TOKEN = re.compile(r"\s*(?:(?P<name>[ser]\d+)|(?P<op>[*^~()]))")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:]!r}")
            break
        out.append(m.group("name") or m.group("op"))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tower: Tower, tokens: list[str]):
        self.tower = tower
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Perm:
        out = self.product()
        if self.peek() is not None:
            raise ValueError(f"trailing input from token {self.peek()!r}")
        return out

    def product(self) -> Perm:
        out = self.conj()
        while self.peek() == "*":
            self.take()
            out = out * self.conj()
        return out

    def conj(self) -> Perm:
        out = self.unary()
        while self.peek() == "^":
            self.take()
            out = conjugate(out, self.unary())
        return out

    def unary(self) -> Perm:
        tok = self.peek()
        if tok in ("~", "("):
            self.take()
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise ValueError(f"word nested deeper than {MAX_NESTING} levels")
            out = self.unary().inverse() if tok == "~" else self.product()
            if tok == "(" and self.take() != ")":
                raise ValueError("unbalanced parentheses")
            self.nesting -= 1
            return out
        if tok is None or tok in "*^)":
            raise ValueError(f"expected a generator, found {tok!r}")
        self.take()
        return _FAMILIES[tok[0]](self.tower, int(tok[1:]))


def parse_word(tower: Tower, text: str) -> Perm:
    """A generator word, or plain cycle notation if it looks like one."""
    s = text.strip()
    if re.match(r"^\(\s*\d", s) or s == "()":
        return parse_cycles(s, tower.degree)
    return _Parser(tower, _tokenize(s)).parse()


def generator_items(text: str) -> list[str]:
    """The non-blank items of a semicolon-separated generator list."""
    return [part for part in text.split(";") if part.strip()]


def parse_generators(tower: Tower, text: str) -> list[Perm]:
    """Semicolon-separated list of words or cycle strings."""
    return [parse_word(tower, part) for part in generator_items(text)]
