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
    chi     := "id" | "affine(" INT "," INT ")" | "table(" INT {"," INT} ")"

The token ``E+`` is lexed greedily: ``E`` immediately followed by ``+`` is
the nonempty-set species, so a sum with E on the left needs a space
(``E + X``) or parentheses.
"""

from __future__ import annotations

from .chi import ChiMap
from .errors import ParseError
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
    check_bound,
)

_SYMBOLS = "+*@^(),-"


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind  # "int" | "name" | one of _SYMBOLS | "eplus" | "end"
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.value!r}, {self.pos})"


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == "E" and j < n and text[j] == "+":
                tokens.append(_Token("eplus", "E+", i))
                i = j + 1
            else:
                tokens.append(_Token("name", name, i))
                i = j
            continue
        if c in _SYMBOLS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def fail(self, message: str) -> None:
        raise ParseError(message, self.peek().pos)

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
    """Parse an expression and check every name resolves against env."""
    expr = _Parser(text).parse_complete()
    check_bound(expr, env, extra_names)
    return expr


def parse_chi_text(text: str) -> ChiMap:
    """Parse a standalone chi description ("id", "affine(2,0)", "table(1,1,2)")."""
    parser = _Parser(text)
    chi = parser.parse_chi()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input at {tok.value!r}", tok.pos)
    return chi
