"""Text syntax for species expressions.

Grammar (precedence ^ > @ > * > +, with @ left-associative)::

    expr    := term { "+" term }
    term    := factor { "*" factor }
    factor  := power { "@" power }
    power   := atom [ "^" INT ]
    atom    := "0" | "1" | "X" | "E" | "E+" | NAME
             | "Ary" "(" INT ")"
             | "park" "(" expr [ "," chi ] ")"
             | "tree" "(" expr ")"
             | "restrict" "(" expr "," INT ")"
             | "(" expr ")"
    chi     := "id" | "affine(" ["-"] INT "," ["-"] INT ")" | "table(" INT {"," INT} ")"

The lexicon is ASCII: INT is ``[0-9]+`` and NAME is ``[A-Za-z_][A-Za-z0-9_]*``,
the names ``SpeciesEnv.bind`` accepts; any other character is a ParseError.
The token ``E+`` is lexed greedily: ``E`` immediately followed by ``+`` is
the nonempty-set species, so a sum with E on the left needs a space
(``E + X``) or parentheses.

A NAME is checked against the environment where it is read, so an unbound
name is reported before any later syntax error.  The ``chi`` production is
also the reader of the ``chi`` field of parking-like JSON (``parse_chi_text``).
"""

from __future__ import annotations

import re

from .chi import ChiMap
from .errors import ParseError, UnboundNameError
from .expr import (
    Compose,
    E,
    EPlus,
    One,
    Park,
    Power,
    Prod,
    Ref,
    Restrict,
    SpeciesExpr,
    Sum,
    Tree,
    X,
    Zero,
)

# ASCII only: str.isdigit() would admit "²", which int() rejects, and "١",
# which int() reads as 1.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<int>[0-9]+)|(?P<eplus>E\+)|(?P<name>[A-Za-z_]\w*)|[-+*@^(),]",
    re.ASCII,
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind  # "int" | "name" | "eplus" | "end" | a symbol
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.value!r}, {self.pos})"


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind, value = m.lastgroup, m.group()
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's int-from-str digit limit
                raise ParseError(f"integer of {len(value)} digits is too long", i) from None
        if kind != "space":
            tokens.append(_Token(kind or value, value, i))
        i = m.end()
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, env=None, extra_names=()):
        self.tokens = _tokenize(text)
        self.i = 0
        self.env = env
        self.extra_names = frozenset(extra_names)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.pos)
        return tok

    # expr := term { "+" term }
    def parse_expr(self) -> SpeciesExpr:
        node = self.parse_term()
        while self.peek().kind == "+":
            self.next()
            node = Sum(node, self.parse_term())
        return node

    # term := factor { "*" factor }
    def parse_term(self) -> SpeciesExpr:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            node = Prod(node, self.parse_factor())
        return node

    # factor := power { "@" power }
    def parse_factor(self) -> SpeciesExpr:
        node = self.parse_power()
        while self.peek().kind == "@":
            self.next()
            node = Compose(node, self.parse_power())
        return node

    # power := atom [ "^" INT ]
    def parse_power(self) -> SpeciesExpr:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            exponent = self.expect("int").value
            node = Power(node, exponent)
        return node

    def parse_atom(self) -> SpeciesExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            if tok.value == 0:
                return Zero()
            if tok.value == 1:
                return One()
            raise ParseError(f"no species literal {tok.value}", tok.pos)
        if tok.kind == "eplus":
            self.next()
            return EPlus()
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.next()
            name = tok.value
            if name == "X":
                return X()
            if name == "E":
                return E()
            if self.peek().kind == "(":
                return self.parse_call(name, tok.pos)
            if name not in self.extra_names and not self.env.knows(name):
                raise UnboundNameError(f"species {name!r} is not defined")
            return Ref(name)
        raise ParseError(f"expected a species, found {tok.value!r}", tok.pos)

    def parse_call(self, name: str, pos: int) -> SpeciesExpr:
        if name == "Ary":
            self.expect("(")
            k = self.expect("int").value
            self.expect(")")
            if k < 1:
                raise ParseError(f"Ary(k) needs k >= 1, got {k}", pos)
            return Ref(f"Ary({k})")
        if name == "park":
            self.expect("(")
            base = self.parse_expr()
            chi = ChiMap.identity()
            if self.peek().kind == ",":
                self.next()
                chi = self.parse_chi()
            self.expect(")")
            return Park(base, chi)
        if name == "tree":
            self.expect("(")
            base = self.parse_expr()
            self.expect(")")
            return Tree(base)
        if name == "restrict":
            self.expect("(")
            base = self.parse_expr()
            self.expect(",")
            card = self.expect("int").value
            self.expect(")")
            return Restrict(base, card)
        raise ParseError(f"{name!r} does not take arguments", pos)

    def parse_chi(self) -> ChiMap:
        tok = self.expect("name")
        if tok.value == "id":
            return ChiMap.identity()
        if tok.value == "affine":
            self.expect("(")
            a = self.parse_signed_int()
            self.expect(",")
            b = self.parse_signed_int()
            self.expect(")")
            return ChiMap.affine(a, b)
        if tok.value == "table":
            self.expect("(")
            values = [self.expect("int").value]
            while self.peek().kind == ",":
                self.next()
                values.append(self.expect("int").value)
            self.expect(")")
            return ChiMap.from_table(values)
        raise ParseError(f"unknown chi {tok.value!r}", tok.pos)

    def parse_signed_int(self) -> int:
        if self.peek().kind == "-":
            self.next()
            return -self.expect("int").value
        return self.expect("int").value

    def parse_complete(self) -> SpeciesExpr:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input at {tok.value!r}", tok.pos)
        return node


def parse_species(text: str, env, extra_names=()) -> SpeciesExpr:
    """Parse an expression; every name must be bound in env or in extra_names."""
    return _Parser(text, env, extra_names).parse_complete()


def parse_chi_text(text: str) -> ChiMap:
    """Parse a standalone chi description ("id", "affine(2,0)", "table(1,1,2)")."""
    parser = _Parser(text)
    chi = parser.parse_chi()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input at {tok.value!r}", tok.pos)
    return chi
