"""The three workloads: their request lists and the check on each outcome.

A request is one CLI invocation (its argv) plus an expectation.  The
expectations come from outside the code under test: closed forms held here,
byte digests pinned in pins.json, or a round trip through the opposite
`biject` direction.  `check` returns None for a correct outcome and a reason
otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

import inputs

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# -- closed forms ------------------------------------------------------------------


def parking_functions(n: int) -> int:
    """(n+1)^(n-1): park(E), tree(E) and Forest on n labels."""
    return (n + 1) ** (n - 1) if n else 1


def park_linear(n: int) -> int:
    """(2n)!/(n+1)!: park(L)."""
    return factorial(2 * n) // factorial(n + 1)


def park_subsets(n: int) -> int:
    """2^n (n+1)^(n-1): park(Sub) and tree(Sub)."""
    return 2**n * parking_functions(n)


def kary_trees(k: int, n: int) -> int:
    """n! times the Fuss-Catalan number: Ary(k)."""
    return factorial(n) * comb(k * n, n) // ((k - 1) * n + 1)


def park_affine(a: int, n: int) -> int:
    """a(a + na)^(n-1): park(E, affine(a,0)), the u-parking functions with u_i = a*i."""
    return a * (a + n * a) ** (n - 1) if n else 1


# -- expectations ------------------------------------------------------------------


@dataclass
class Record:
    """What one request returned, as the capture sinks saw it."""

    rc: object  # exit code, or None when an exception escaped main()
    seconds: float
    digest: str
    out_bytes: int
    out_lines: int
    out_text: str | None
    err_text: str
    escaped: str | None


def _clean(record: Record) -> str | None:
    if record.escaped:
        return f"exception escaped: {record.escaped}"
    if record.rc != 0:
        return f"exit code {record.rc}: {record.err_text.strip()[:200]}"
    if record.err_text:
        return f"unexpected stderr: {record.err_text.strip()[:200]}"
    return None


@dataclass
class Listing:
    """`enumerate --format jsonl`: pinned bytes, one line per counted structure."""

    count: int | None  # closed form; None means the pinned line count

    def check(self, request, record, pins, call):
        pin = pins.get(request.key)
        if pin is None:
            return "no pinned digest"
        expected = pin["lines"] if self.count is None else self.count
        if record.out_lines != expected:
            return f"{record.out_lines} lines, expected {expected}"
        if record.digest != pin["sha256"]:
            return "output digest differs from the pinned one"
        return _clean(record)


@dataclass
class Exact:
    """Output fixed by a closed form."""

    text: str

    def check(self, request, record, pins, call):
        if record.out_text != self.text:
            return f"output {str(record.out_text)[:80]!r} != closed form {self.text[:80]!r}"
        return _clean(record)


@dataclass
class Pinned:
    """Output with no closed form: its digest is pinned."""

    def check(self, request, record, pins, call):
        pin = pins.get(request.key)
        if pin is None:
            return "no pinned digest"
        if record.digest != pin["sha256"]:
            return "output digest differs from the pinned one"
        return _clean(record)


@dataclass
class RoundTrip:
    """`biject`: the opposite direction must give back the input bytes."""

    docs: str
    reverse: list

    def check(self, request, record, pins, call):
        problem = _clean(record)
        if problem:
            return problem
        lines, expected = record.out_text.splitlines(), self.docs.count("\n")
        if len(lines) != expected:
            return f"{len(lines)} output documents for {expected} inputs"
        if any(inputs.canonical(json.loads(line)) != line for line in lines):
            return "output is not canonical JSON"
        back = call(self.reverse, stdin=record.out_text)
        if back.rc != 0 or back.escaped or back.out_text != self.docs:
            return "round trip through the opposite direction changed the document"
        return None


@dataclass
class Rejected:
    """Invalid input: exactly one `error:` line on stderr, nothing on stdout, exit 1."""

    def check(self, request, record, pins, call):
        if record.escaped:
            return f"exception escaped: {record.escaped}"
        lines = record.err_text.splitlines()
        if record.rc != 1 or record.out_text or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected one error line and exit 1, got exit {record.rc} {record.err_text[:120]!r}"
        return None


@dataclass
class Request:
    argv: list
    expect: object
    stdin: str | None = None
    # Set when the outcome is known to fail today; such a failure is counted
    # in `failed` but does not make the run incorrect.
    known_defect: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def keep_output(self) -> bool:
        """Whether the check needs the output text (listings are checked by digest)."""
        return not isinstance(self.expect, Listing)


# -- generate ------------------------------------------------------------------------

# Sizes keep a generate pass near 2.5 s and a series pass near 1.2 s, so a
# 30 s run makes about 10 and 20 passes, and every request has that many
# latency samples.  With multi-second sizes (tree(Sub) n=5 alone takes 5 s) a
# run made two or three passes, and the median request's latency rested on
# two or three samples.
# (command, expression, n, tiny n, closed form of the count or None)
GENERATE = [
    ("enumerate", "park(E)", 6, 3, parking_functions),
    ("enumerate", "tree(Sub)", 4, 2, park_subsets),
    ("enumerate", "tree(Comp)", 4, 3, None),
    ("enumerate", "park(E, affine(2,0))", 4, 2, lambda n: park_affine(2, n)),
    ("enumerate", "(E+)^3", 6, 3, None),
    ("count", "park(L)", 5, 3, park_linear),
    ("count", "park(Par)", 5, 3, None),
    ("count", "L", 7, 4, factorial),
    ("count", "tree(E)", 6, 3, parking_functions),
    ("count", "Ary(2)", 5, 3, lambda n: kary_trees(2, n)),
    ("count", "Ary(3)", 4, 2, lambda n: kary_trees(3, n)),
]

# (expression, order, tiny order, closed form of the n-th count or None).
# An odd number of requests puts the median latency inside one request's
# samples, not in the gap between two requests.
SERIES = [
    ("park(Par)", 20, 6, None),
    ("park(E, affine(2,0))", 16, 6, lambda n: park_affine(2, n)),
    ("park(E, table(1,3,4,6,8,9,11,12))", 6, 4, None),
    ("tree(Comp)", 34, 8, None),
    ("tree(Sub)", 34, 8, park_subsets),
    ("Forest", 24, 8, parking_functions),
    ("Ary(2)", 34, 8, lambda n: kary_trees(2, n)),
]


def generate_requests(tiny: bool) -> list:
    out = []
    for command, expr, n, tiny_n, closed in GENERATE:
        n = tiny_n if tiny else n
        argv = [command, "--expr", expr, "--n", str(n)]
        if command == "enumerate":
            argv += ["--format", "jsonl"]
            expect = Listing(closed(n) if closed else None)
        else:
            expect = Exact(f"{closed(n)}\n") if closed else Pinned()
        out.append(Request(argv, expect))
    return out


def series_requests(tiny: bool) -> list:
    out = []
    for expr, order, tiny_order, closed in SERIES:
        order = tiny_order if tiny else order
        argv = ["series", "--expr", expr, "--order", str(order)]
        if closed:
            counts = [str(closed(n)) for n in range(order + 1)]
            text = json.dumps({"expr": expr, "order": order, "counts": counts}) + "\n"
            expect = Exact(text)
        else:
            expect = Pinned()
        out.append(Request(argv, expect))
    return out


# -- biject --------------------------------------------------------------------------

SIZES = (3, 5, 8, 12, 16, 20, 25, 30, 35, 40)
BUDGET = "64"  # raised from the default 8 to cover 40-label documents
MISSING_SUBTREE = "a tree child without \"subtree\" escapes as KeyError (ROADMAP.md open item 5)"


def biject_requests(seed: int, tiny: bool, round_: int) -> list:
    """About 200 `biject` invocations on small batches on stdin, plus a reject slice.

    Each (base, direction) pair gets the same schedule of label counts and
    batch sizes; the seed and the round draw the structures and the order of
    requests.
    """
    rng = random.Random(f"{seed}:{round_}")
    rounds, sizes = (3, SIZES[:3]) if tiny else (30, SIZES)
    plan = []  # (base, direction, documents, valid?, known defect)
    for i in range(rounds):
        n, batch = sizes[i % len(sizes)], 1 + i % 4
        for base in inputs.BASES:
            for direction, make in (("p2t", inputs.parking_doc), ("t2p", inputs.tree_doc)):
                docs = [inputs.canonical(make(base, n, rng)) for _ in range(batch)]
                plan.append((base, direction, docs, True, None))
    rejects = [
        ("p2t", inputs.unparked_doc, 2 if tiny else 8, None),
        ("p2t", inputs.reused_label_parking_doc, 1 if tiny else 4, None),
        ("t2p", inputs.reused_label_tree_doc, 1 if tiny else 4, None),
        ("t2p", inputs.subtree_missing_doc, 1 if tiny else 4, MISSING_SUBTREE),
    ]
    for direction, make, copies, defect in rejects:
        for _ in range(copies):
            doc = inputs.canonical(make(rng.choice(sizes), rng))
            plan.append(("E", direction, [doc], False, defect))
    rng.shuffle(plan)

    out = []
    for base, direction, docs, valid, defect in plan:
        text = "".join(d + "\n" for d in docs)
        head = ["biject", "--expr", base, "--budget", BUDGET]
        argv = head + ["--direction", direction, "--input", "-"]
        if valid:
            reverse = head + ["--direction", "t2p" if direction == "p2t" else "p2t", "--input", "-"]
            expect = RoundTrip(text, reverse)
        else:
            expect = Rejected()
        out.append(Request(argv, expect, stdin=text, known_defect=defect))
    return out


WORKLOADS = ("generate", "series", "biject")


def build(name: str, seed: int, tiny: bool = False, round_: int = 0) -> list:
    """The request list of one workload for one round (pass) of a run.

    Only `biject` draws its inputs from the seed, afresh for every round: how
    long a document takes to validate depends on the sizes of its blocks, so
    the latency percentiles of one fixed draw of 200 requests would depend on
    the seed.  `generate` and `series` are the same fixed list in a fixed
    order every round: their requests have no random inputs, and a request's
    time depends on the heap the earlier ones left behind.
    """
    if name == "biject":
        return biject_requests(seed, tiny, round_)
    if name == "generate":
        return generate_requests(tiny)
    if name == "series":
        return series_requests(tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())
