"""Property-based checks: the laws that should survive any random input."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from parklike import (
    ChiMap,
    Generator,
    ParkingFunction,
    SpeciesEnv,
    accepts,
    blocks_to_pf,
    deserialize,
    egf_of_species,
    expr_to_text,
    parse_chi_text,
    parse_species,
    pf_to_blocks,
    serialize,
    validate_parking,
)
from parklike.cli import main
from parklike.errors import ChiTableExhaustedError, SpeciesError
from parklike.expr import (
    E, EPlus, One, Compose, Park, Power, Prod, Ref, Restrict, SpeciesExpr, Sum, Tree, X, Zero,
)
from parklike.memo import Memo
from parklike.structures import _read_deep, canonical_labels

from jsonable import to_jsonable

ENV = SpeciesEnv.standard()

leaves = st.sampled_from(
    [Zero(), One(), X(), E(), EPlus(), Ref("L"), Ref("Par"), Ref("Sub")]
)

PARK_CHIS = ["id", "affine(2,0)", "affine(1,1)", "affine(0,2)"]

exprs = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: Sum(*p)),
        st.tuples(sub, sub).map(lambda p: Prod(*p)),
        st.tuples(sub, st.integers(min_value=0, max_value=2)).map(
            lambda p: Power(*p)
        ),
        # inner shaped X*G is guaranteed empty-free, so always admissible
        st.tuples(sub, sub).map(lambda p: Compose(p[0], Prod(X(), p[1]))),
        sub.map(Tree),
        # affine maps only: a table may run out, where the routes differ
        st.tuples(sub, st.sampled_from(PARK_CHIS)).map(lambda p: Park(p[0], parse_chi_text(p[1]))),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(lambda p: Restrict(*p)),
    ),
    max_leaves=4,
)

label_sets = st.sets(st.integers(min_value=-50, max_value=50), max_size=3).map(
    frozenset
)


# Generation holds every structure it builds: a node with more structures
# than this on n labels is not generated on n labels.
LISTED = 20_000


def listed_up_to(env, roots) -> int:
    """The largest n <= 4 on which no node under roots has more than LISTED
    structures, by series; a node whose series raises sets no bound."""
    top, todo = 4, list(roots)
    while todo:
        node = todo.pop()
        todo.extend(v for v in map(node.__getattribute__, node._fields) if isinstance(v, SpeciesExpr))
        try:
            counts = egf_of_species(node, env, top).counts
        except SpeciesError:
            continue
        top = next((n - 1 for n, count in enumerate(counts) if count > LISTED), top)
    return top


@given(exprs, label_sets)
@settings(max_examples=60, deadline=None)
def test_generation_is_functorial(expr, labels):
    # generating on any label set equals transporting the canonical result
    if len(labels) > listed_up_to(ENV, [expr]):
        reject()
    direct = Generator(ENV).raw(expr, labels)
    canon = Generator(ENV).raw(expr, canonical_labels(len(labels)))
    iso = dict(zip(sorted(canonical_labels(len(labels))), sorted(labels)))
    assert {serialize(s) for s in direct} == {
        serialize(s.relabel(iso)) for s in canon
    }


@given(exprs, label_sets)
@settings(max_examples=60, deadline=None)
def test_no_duplicates_and_correct_support(expr, labels):
    if len(labels) > listed_up_to(ENV, [expr]):
        reject()
    out = Generator(ENV).raw(expr, labels)
    texts = [serialize(s) for s in out]
    assert len(set(texts)) == len(texts)
    for s in out:
        assert s.underlying() == labels


@given(exprs, label_sets)
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip(expr, labels):
    if len(labels) > listed_up_to(ENV, [expr]):
        reject()
    for s in Generator(ENV).raw(expr, labels):
        assert deserialize(serialize(s)) == s


@given(
    st.one_of(
        exprs,
        exprs.map(lambda e: Park(e, ChiMap.identity())),
        exprs.map(Tree),
    ),
    label_sets,
)
@settings(max_examples=60, deadline=None)
def test_serialize_writes_the_canonical_json_of_to_jsonable(expr, labels):
    if len(labels) > listed_up_to(ENV, [expr]):
        reject()
    for s in Generator(ENV).raw(expr, labels):
        want = json.dumps(to_jsonable(s), sort_keys=True, separators=(",", ":"))
        assert serialize(s) == want


@given(exprs, exprs, label_sets)
@settings(max_examples=60, deadline=None)
def test_accepts_agrees_with_generated_membership(e1, e2, labels):
    if len(labels) > listed_up_to(ENV, [e1, e2]):
        reject()
    gen = Generator(ENV)
    members = gen.raw(e1, labels)
    listed = set(members)  # parks and trees list thousands of structures on 3 labels
    for s in members + gen.raw(e2, labels):
        assert accepts(e1, s, ENV) == (s in listed)


@given(exprs, st.permutations(range(1, 4)))
@settings(max_examples=60, deadline=None)
def test_relabeling_along_any_bijection(expr, image):
    # not just order isomorphisms: arbitrary bijections transport structures
    if listed_up_to(ENV, [expr]) < 3:
        reject()
    labels = canonical_labels(3)
    mapping = dict(zip(sorted(labels), image))
    gen = Generator(ENV)
    moved = {serialize(s.relabel(mapping)) for s in gen.raw(expr, labels)}
    target = {serialize(s) for s in gen.raw(expr, frozenset(image))}
    assert moved == target


@given(exprs)
@example(Prod(X(), Prod(X(), X())))
@example(Sum(X(), Sum(E(), One())))
@settings(max_examples=200, deadline=None)
def test_printed_text_parses_back_to_the_same_expression(expr):
    assert parse_species(expr_to_text(expr), ENV) == expr


# -- parking properties ---------------------------------------------------------


slot_vectors = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=1, max_value=n) for _ in range(n)])
)


@given(slot_vectors)
@settings(max_examples=120)
def test_parking_function_round_trip(slots):
    counts_ok = all(
        sum(1 for s in slots if s <= k) >= k for k in range(1, len(slots) + 1)
    )
    pf = ParkingFunction(tuple(enumerate(slots, start=1)))
    if not counts_ok:
        try:
            pf_to_blocks(pf)
        except Exception:
            return
        raise AssertionError("non-parking function was accepted")
    assert blocks_to_pf(pf_to_blocks(pf)) == pf


chi_tables = st.lists(
    st.integers(min_value=0, max_value=3), min_size=5, max_size=7
).map(lambda steps: ChiMap.from_table([sum(steps[: i + 1]) for i in range(len(steps))]))


@given(
    st.one_of(
        st.tuples(st.integers(0, 10**30), st.integers(-(10**30), 10**30))
        .filter(lambda ab: ab[0] + ab[1] >= 0)
        .map(lambda ab: ChiMap.affine(*ab)),
        st.lists(st.integers(0, 10**30), min_size=1, max_size=8).map(
            lambda values: ChiMap.from_table(sorted(values))
        ),
        chi_tables.map(lambda chi: chi.shift(2)),
    )
)
@settings(max_examples=200, deadline=None)
def test_chi_key_holds_no_quote_or_backslash(chi):
    # The writers quote a chi key as it is, with no escapes, and the spacing
    # of the format's pieces (structures._SPACED) never reaches inside it.
    key = chi.key()
    assert '"' not in key and "\\" not in key
    assert json.dumps(key) == '"' + key + '"'


@given(chi_tables, st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_generated_parking_always_validates(chi, n):
    for p in Generator(ENV).generate(Park(E(), chi), canonical_labels(n)):
        assert validate_parking(p)
        assert p.underlying() == canonical_labels(n)


# -- readers: every text either reads or raises SpeciesError --------------------

# Any text (non-ASCII digits and letters included), and strings of DSL
# tokens, which get past the lexer and exercise the grammar.
DSL_TOKENS = ["X", "E", "E+", "L", "Ghost", "0", "1", "2", "-", "+", "*", "@", "^",
              "(", ")", ",", " ", "park", "tree", "restrict", "Ary", "id", "affine",
              "table", "²", "١"]
dsl_texts = st.text() | st.lists(st.sampled_from(DSL_TOKENS)).map("".join)

JSON_KEYS = ["k", "labels", "label", "side", "in", "l", "r", "outer", "blocks",
             "chi", "seq", "root", "children", "subtree"]
JSON_WORDS = ["unit", "set", "atom", "sum", "prod", "comp", "L", "R", "id",
              "affine(2,0)", "table(1,1)", "table(١)"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(JSON_WORDS) | st.text(),
    lambda sub: st.lists(sub, max_size=3)
    | st.dictionaries(st.sampled_from(JSON_KEYS), sub, max_size=4),
    max_leaves=12,
)


@given(dsl_texts)
@example("X^²")
@example("X^١")
@example("park(E, table(١,٢,٣))")
@example("X^" + "9" * 5000)
@settings(deadline=None)
def test_parse_species_reads_or_raises_species_error(text):
    try:
        parse_species(text, ENV)
    except SpeciesError:
        pass


@given(dsl_texts)
@example("table(١,٢,٣)")
@settings(deadline=None)
def test_parse_chi_text_reads_or_raises_species_error(text):
    try:
        parse_chi_text(text)
    except SpeciesError:
        pass


@given(st.text() | json_values.map(json.dumps))
@example("[" * 100_000)
@settings(deadline=None)
def test_deserialize_reads_or_raises_species_error(text):
    try:
        deserialize(text)
    except SpeciesError:
        pass


def _decoded(read, text):
    """read(text, 0) as (value text, end), or its error as (message, position)."""
    try:
        value, end = read(text, 0)
    except json.JSONDecodeError as exc:
        return exc.msg, exc.pos
    return json.dumps(value), end


json_tokens = st.lists(st.sampled_from([*"[]{},: ", '"k"', "1", "null"]), max_size=12).map("".join)


@given(json_values.map(lambda v: json.dumps(v, indent=1)) | json_tokens)
@example('{"k"}')
@example('{1: 2}')
@example('{"k": 1,}')
@example('{"k": [1, {}] "j"}')
@example('[[], {"k": null, "k": 1}, 2')
@settings(deadline=None)
def test_deep_reader_reads_as_raw_decode_does(text):
    # The loop that reads a document too deep for raw_decode gives the same
    # value and end, or the same error, on documents and on token soup.
    assert _decoded(_read_deep, text) == _decoded(json.JSONDecoder().raw_decode, text)


def _first(expr, n: int):
    return json.loads(serialize(Generator(ENV).generate(expr, canonical_labels(n))[0]))


@given(st.sampled_from(["E", "L", "Par"]), st.sampled_from(["p2t", "t2p"]), json_values)
@example("E", "p2t", _first(Park(E(), ChiMap.identity()), 3))
@example("L", "p2t", _first(Park(Ref("L"), ChiMap.identity()), 2))
@example("Par", "t2p", _first(Tree(Ref("Par")), 3))
@example("L", "t2p", _first(Tree(Ref("L")), 2))
@settings(deadline=None)
def test_biject_prints_canonical_json_or_one_error_line(base, direction, doc):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), redirect_stdout(out), redirect_stderr(err):
        rc = main(["biject", "--expr", base, "--direction", direction])
    if rc == 0:
        (line,) = out.getvalue().splitlines()
        assert serialize(deserialize(line)) == line and err.getvalue() == ""
    else:
        assert rc == 1 and out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")


CHI_KEYS = ["id", "affine(2,0)", "affine(0,2)", "table(1,2,3,4,5,6)"]


def bodies(names: tuple, depth: int):
    """Definition bodies as text, at most depth operators deep."""
    leaf = st.sampled_from(["X", "1", "E", "E+", "0", *names])
    if not depth:
        return leaf
    sub = bodies(names, depth - 1)
    return st.one_of(
        leaf,
        st.builds("({} + {})".format, sub, sub),
        st.builds("({}*{})".format, sub, sub),
        st.builds("({})^{}".format, sub, st.integers(min_value=0, max_value=3)),
        st.builds("({})@(X*{})".format, sub, sub),
        st.builds("restrict({},{})".format, sub, st.integers(min_value=0, max_value=2)),
        st.builds("park({},{})".format, sub, st.sampled_from(CHI_KEYS)),
        st.builds("tree({})".format, sub),
    )


systems = st.sampled_from([("A",), ("A", "B"), ("A", "B", "C")]).flatmap(
    lambda names: st.tuples(*(bodies(names, 3) for _ in names)).map(
        lambda texts: dict(zip(names, texts))
    )
)


@given(systems)
# B's solve, inside A's, reuses a result that read A's approximation, so A's
# result is not final; outside every solve it must still evaluate.
@example({"A": "B", "B": "tree((restrict(A,1)*(A + E+)))"})
@settings(max_examples=60, deadline=None)
def test_generation_and_series_agree_on_random_definitions(definitions):
    # Series evaluates the whole count vector, so it may diverge where lazy
    # generation answers the small n (A:=1+A has no structure on n >= 1):
    # the routes are compared in the two directions that must hold.
    env = SpeciesEnv.standard()
    for name, text in definitions.items():
        env.bind(name, parse_species(text, env, extra_names=list(definitions)))
    try:
        counts = egf_of_species(Ref("A"), env, 4).counts
    except SpeciesError as error:
        counts, failure = None, type(error)
    gen = Generator(env)
    try:
        with solve_budget():
            for n in range(listed_up_to(env, map(env.lookup, definitions)) + 1):
                try:
                    count = gen.count(Ref("A"), n)
                except SpeciesError as error:
                    assert counts is None and failure is type(error), n
                    return
                if counts is not None:
                    assert count == counts[n], n
    except OverBudget:
        reject()


def test_the_routes_may_name_different_exhausted_tables():
    # A stated difference of error text, not of class: where two tables of
    # one expression run out, generation splits the labels between the
    # factors subset by subset, while series takes each factor's whole
    # series in turn, so each route names the table it reaches first.
    expr = parse_species("park(L, table(2)) * park(X, table(3))", ENV)
    with pytest.raises(ChiTableExhaustedError, match=r"^chi table\(3\) has 1 entries, needed chi\(4\)$"):
        Generator(ENV).count(expr, 3)
    with pytest.raises(ChiTableExhaustedError, match=r"^chi table\(2\) has 1 entries, needed chi\(2\)$"):
        egf_of_species(expr, ENV, 3)


def outcome(route):
    """The value of route(), or the class and text of the SpeciesError it raised."""
    try:
        return route()
    except SpeciesError as error:
        return type(error), str(error)


# Solves allowed per drawn system: listed_up_to bounds structures, not
# rounds, so it cannot stop a system whose nested solves multiply; 400 drawn
# systems took at most 800.
SOLVES = 20_000


class OverBudget(Exception):
    """A drawn system took more than SOLVES fixed-point solves."""


def solve_budget():
    """A patch of Memo.solve that raises OverBudget once SOLVES calls are made."""
    solve, calls = Memo.solve, [0]

    def counted(memo, *args):
        calls[0] += 1
        if calls[0] > SOLVES:
            raise OverBudget
        return solve(memo, *args)

    return mock.patch.object(Memo, "solve", counted)


@given(systems)
@example({"A": "B", "B": "tree((restrict(A,1)*(A + E+)))"})
@example({"A": "X+park(A, affine(0,1))"})
# B's solve reads A's approximation, so it is kept for A's round only.
@example({"A": "tree((park(B,affine(0,2)) + (A)@(X*E)))", "B": "tree((park(B,affine(0,2)) + (A)@(X*E)))"})
@settings(max_examples=60, deadline=None)
def test_listing_and_counting_agree_on_random_definitions(definitions):
    # raw and count fold the same terms, so the count is the listing's
    # length, or both raise the same error, with the same text, at the same n.
    env = SpeciesEnv.standard()
    for name, text in definitions.items():
        env.bind(name, parse_species(text, env, extra_names=list(definitions)))
    gen = Generator(env)
    try:
        with solve_budget():
            for n in range(listed_up_to(env, map(env.lookup, definitions)) + 1):
                listed = outcome(lambda: len(gen.raw(Ref("A"), canonical_labels(n))))
                assert outcome(lambda: gen.count(Ref("A"), n)) == listed, n
                if not isinstance(listed, int):
                    return
    except OverBudget:
        reject()


@given(
    st.one_of(
        exprs,
        st.tuples(exprs, st.sampled_from(CHI_KEYS)).map(lambda p: Park(p[0], parse_chi_text(p[1]))),
        exprs.map(Tree),
        st.tuples(exprs, st.integers(min_value=0, max_value=3)).map(lambda p: Restrict(*p)),
    ),
    label_sets,
)
@settings(max_examples=60, deadline=None)
def test_the_text_fold_writes_serialize_of_the_list_fold(expr, labels):
    # Element by element, in construction order, or the same error.
    if len(labels) > listed_up_to(ENV, [expr]):
        reject()
    listed = outcome(lambda: [serialize(s) for s in Generator(ENV).raw(expr, labels)])
    assert outcome(lambda: Generator(ENV).texts(expr, labels)) == listed


@given(systems)
@example({"A": "B", "B": "tree((restrict(A,1)*(A + E+)))"})
@example({"A": "X+park(A, affine(0,1))"})
@settings(max_examples=60, deadline=None)
def test_the_text_fold_writes_serialize_of_the_list_fold_on_random_definitions(definitions):
    env = SpeciesEnv.standard()
    for name, text in definitions.items():
        env.bind(name, parse_species(text, env, extra_names=list(definitions)))
    gen = Generator(env)
    try:
        with solve_budget():
            for n in range(listed_up_to(env, map(env.lookup, definitions)) + 1):
                labels = canonical_labels(n)
                listed = outcome(lambda: [serialize(s) for s in gen.raw(Ref("A"), labels)])
                assert outcome(lambda: gen.texts(Ref("A"), labels)) == listed, n
                if not isinstance(listed, list):
                    return
    except OverBudget:
        reject()


def _enumerated(definitions: dict, n: int, style: str) -> str:
    """The stdout of `enumerate --expr A` under the definitions, or its error line."""
    out, err = io.StringIO(), io.StringIO()
    argv = [f"--define={name}:={text}" for name, text in definitions.items()]
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([*argv, "enumerate", "--expr", "A", "--n", str(n), "--format", style])
    return out.getvalue() if rc == 0 else err.getvalue()


@given(systems)
@example({"A": "park((A + X), table(1,2,3,4,5,6))"})
@example({"A": "X+park(A, affine(0,1))"})
# C has 65,536 structures on no labels: no size is listed.
@example({"A": "X", "B": "((X + (1 + 1)))^2", "C": "park(((B)^2)^2,affine(2,0))"})
@settings(max_examples=30, deadline=None)
def test_the_json_listing_is_json_dumps_of_the_jsonl_listing_on_random_definitions(definitions):
    # The text fold writes both styles, each text element by element equal to
    # the other re-dumped, or the same error; sorted, the spaced texts come in
    # the compact order, so the printed listings agree too.
    env = SpeciesEnv.standard()
    for name, text in definitions.items():
        env.bind(name, parse_species(text, env, extra_names=list(definitions)))
    gen = Generator(env)
    try:
        with solve_budget():
            top = listed_up_to(env, map(env.lookup, definitions))
            for n in range(top + 1):
                labels = canonical_labels(n)
                compact = outcome(lambda: gen.texts(Ref("A"), labels))
                spaced = outcome(lambda: gen.texts(Ref("A"), labels, spaced=True))
                if not isinstance(compact, list):
                    assert spaced == compact, n
                    return
                assert spaced == [json.dumps(json.loads(text), sort_keys=True) for text in compact], n
                assert sorted(spaced) == [json.dumps(json.loads(t), sort_keys=True) for t in sorted(compact)], n
            if top >= 0:  # -1: n = 0 alone lists more than LISTED, so no size is listed
                listing = [json.loads(line) for line in _enumerated(definitions, top, "jsonl").splitlines()]
                assert _enumerated(definitions, top, "json") == json.dumps(listing, sort_keys=True) + "\n"
    except OverBudget:
        reject()
