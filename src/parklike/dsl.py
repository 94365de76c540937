"""Text syntax for species expressions.

Grammar (precedence ^ > @ > * > +; all three binary operators are
left-associative)::

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

The primitive tokens and the binary operators, loosest first, are the
tables ``PRIMITIVES`` and ``BINARY`` in ``expr``, which the printer
``expr_to_text`` reads too; one method, ``parse_expr(level)``, reads the
expr, term, factor and power levels off ``BINARY``.

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
from collections import namedtuple

from .chi import ChiMap
from .errors import ParseError, UnboundNameError, shown
from .expr import BINARY, PRIMITIVES, Park, Power, Ref, Restrict, SpeciesExpr, Tree

# ASCII only: str.isdigit() would admit "²", which int() rejects, and "١",
# which int() reads as 1.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<int>[0-9]+)|(?P<eplus>E\+)|(?P<name>[A-Za-z_]\w*)|[-+*@^(),]",
    re.ASCII,
)


# kind is "int", "name", "eplus", "end" or a symbol.
_Token = namedtuple("_Token", ("kind", "value", "pos"))


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
            raise ParseError(f"expected {kind!r}, found {shown(tok.value)}", tok.pos)
        return tok

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.peek().kind != kind:
            return False
        self.i += 1
        return True

    def expect_end(self, result):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input at {shown(tok.value)}", tok.pos)
        return result

    def parse_expr(self, level: int = 0) -> SpeciesExpr:
        """An expression whose operators bind at least as tightly as BINARY[level]."""
        if level == len(BINARY):
            node = self.parse_atom()
            if self.accept("^"):
                node = Power(node, self.expect("int").value)
            return node
        op, node_type = BINARY[level]
        node = self.parse_expr(level + 1)
        while self.accept(op):
            node = node_type(node, self.parse_expr(level + 1))
        return node

    def parse_atom(self) -> SpeciesExpr:
        tok = self.next()
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        primitive = PRIMITIVES.get(str(tok.value))
        if primitive is not None:
            return primitive()
        if tok.kind == "int":
            raise ParseError(f"no species literal {shown(tok.value)}", tok.pos)
        if tok.kind == "name":
            if self.peek().kind == "(":
                return self.parse_call(tok.value, tok.pos)
            if tok.value not in self.extra_names and not self.env.knows(tok.value):
                raise UnboundNameError(f"species {shown(tok.value)} is not defined")
            return Ref(tok.value)
        raise ParseError(f"expected a species, found {shown(tok.value)}", tok.pos)

    def parse_call(self, name: str, pos: int) -> SpeciesExpr:
        if name not in ("Ary", "park", "tree", "restrict"):
            raise ParseError(f"{shown(name)} does not take arguments", pos)
        self.expect("(")
        if name == "Ary":
            k = self.expect("int").value
            node = Ref(f"Ary({k})")
        else:
            base = self.parse_expr()
            if name == "park":
                node = Park(base, self.parse_chi() if self.accept(",") else ChiMap.identity())
            elif name == "restrict":
                self.expect(",")
                node = Restrict(base, self.expect("int").value)
            else:
                node = Tree(base)
        self.expect(")")
        if name == "Ary" and k < 1:
            raise ParseError(f"Ary(k) needs k >= 1, got {k}", pos)
        return node

    def parse_chi(self) -> ChiMap:
        tok = self.expect("name")
        if tok.value == "id":
            return ChiMap.identity()
        if tok.value not in ("affine", "table"):
            raise ParseError(f"unknown chi {shown(tok.value)}", tok.pos)
        self.expect("(")
        if tok.value == "affine":
            values = [self.parse_signed_int()]
            self.expect(",")
            values.append(self.parse_signed_int())
        else:
            values = [self.expect("int").value]
            while self.accept(","):
                values.append(self.expect("int").value)
        self.expect(")")
        return ChiMap.affine(*values) if tok.value == "affine" else ChiMap.from_table(values)

    def parse_signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self.expect("int").value


def parse_species(text: str, env, extra_names=()) -> SpeciesExpr:
    """Parse an expression; every name must be bound in env or in extra_names."""
    parser = _Parser(text, env, extra_names)
    return parser.expect_end(parser.parse_expr())


def parse_chi_text(text: str) -> ChiMap:
    """Parse a standalone chi description ("id", "affine(2,0)", "table(1,1,2)")."""
    parser = _Parser(text)
    return parser.expect_end(parser.parse_chi())
