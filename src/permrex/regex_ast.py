"""Regular expressions over numbered alphabets, as one hash-consed DAG.

Expressions are built from six node kinds: the leaves EmptySet, Epsilon
and Sym, the binary Concat (left, right), the unary Star (child), and the
n-ary Union over a tuple of two or more terms.  A union is flat: a term
that is itself a union contributes its terms, so every bracketing of the
same terms is one node, and no union has a union as a term.  Repeated
terms are kept.  The size measure used throughout the package is
*alphabetic length*: the number of Sym leaves.  Operators and parentheses
are free.

Every node is interned when it is built: constructing a node whose kind
and children (by identity) already exist returns the existing object.
Structurally equal expressions are therefore the same object, equality
and hashing are plain identity, and the builders and the parser share
one DAG.  Each kind has its own table, indexed by the node's own fields,
so no key object is made beside the node: a Sym by its id, a Star by its
child, a Union by its tuple of terms (the key is the node's `terms`), and
a Concat by its right operand, then its left.  EmptySet and Epsilon have
one node each.  Each constructor looks its fields up once and sets its
slots only on a miss.  The tables hold every node ever built and live as
long as the process, except that a parse that raises takes out the nodes
it created: while `parse` runs, and only then, each new node is also
appended to a journal, which gives the parse its node count and its undo
list.

Two textual formats are supported.  The compact format writes symbols
as bare digits with juxtaposition for concatenation ("(12+21)(34+43)")
and is only valid while every symbol id is a single digit.  The spaced
format separates every token with single spaces and works for any
alphabet size; it is the canonical interchange form.

Concatenation chains can be hundreds of thousands of nodes deep, and a
union can have tens of thousands of terms (the flat union over 8 symbols
has 40320), so nothing here recurses:
`postorder` visits the distinct nodes with an explicit stack, `fold`
computes bottom-up values on top of it, and rendering and parsing keep
their own stacks.

Rendering keeps no table over the DAG.  A parenthesized group met a
second time has its text kept and reused from then on: the spaced `dnc`
n=13 text walks its 4 511 groups 5 590 times, none more than twice.
Everything else, such as `flat`'s shared prefix chains, is walked again
at each occurrence, at a cost in proportion to the text it writes.

Parsing costs what the distinct groups cost, not what the text costs.
With n fixed, the text of a parenthesized group always parses to the
same node, so `parse` keeps a per-call memo of the groups it has closed,
keyed by their first 48 characters.  A '(' that starts the text of one of
them takes its node and resumes tokenizing after it.  The builders'
output repeats each subset's group many times: the spaced `dnc` n=12
text is 4.5 MB, yet its DAG has 21 419 distinct nodes, one union per
subset and the concatenations of its terms.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Callable, Iterator, Literal, NamedTuple, Sequence, TypeVar

from .errors import CompactOverflow, InvalidArgs, RegexSyntaxError, SizeCap, SymbolOutOfRange

RenderFormat = Literal["compact", "spaced"]
T = TypeVar("T")

# The intern tables, one per kind with fields (see the module docstring).
# An inner Concat table is removed when a failed parse empties it.
_SYMS: dict[int, "Sym"] = {}
_STARS: dict["Regex", "Star"] = {}
_UNIONS: dict[tuple["Regex", ...], "Union"] = {}
_CONCATS: dict["Regex", dict["Regex", "Concat"]] = {}

# The nodes created while `parse` runs, oldest first; None otherwise.
_journal: list["Regex"] | None = None


class Regex:
    """Base class for all expression nodes.  Immutable and interned in
    its kind's table, so equality is identity."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # Copies and unpickled nodes go back through the intern tables.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        text = render(self, "spaced")
        if len(text) > 120:
            text = text[:117] + "..."
        return f"{type(self).__name__}<{text}>"


class EmptySet(Regex):
    """The empty language.  Never emitted by the builders; parsed as '&'."""

    __slots__ = ()

    def __new__(cls) -> "EmptySet":
        return _EMPTY_SET


class Epsilon(Regex):
    """The empty word.  Never emitted by the builders; parsed as 'e'."""

    __slots__ = ()

    def __new__(cls) -> "Epsilon":
        return _EPSILON


class Sym(Regex):
    """A single alphabet symbol, identified by an integer id >= 1."""

    __slots__ = ("sym",)
    sym: int

    def __new__(cls, sym: int) -> "Sym":
        node = _SYMS.get(sym)
        if node is None:
            node = _SYMS[sym] = object.__new__(cls)
            _set_sym(node, sym)
            if _journal is not None:
                _journal.append(node)
        return node


class Union(Regex):
    """The union of two or more terms, none of them a union.

    A term that is a union contributes its own terms, so every bracketing
    of the same terms is one node: reduce(Union, xs) is Union(*xs).
    Repeated terms are kept.
    """

    __slots__ = ("terms",)
    terms: tuple[Regex, ...]

    def __new__(cls, *terms: Regex) -> "Union":
        if len(terms) < 2:
            raise TypeError(f"Union takes two or more terms, got {len(terms)}")
        if Union in map(type, terms):
            terms = tuple(part for term in terms
                          for part in (term.terms if type(term) is Union else (term,)))
        node = _UNIONS.get(terms)
        if node is None:
            node = _UNIONS[terms] = object.__new__(cls)
            _set_terms(node, terms)
            if _journal is not None:
                _journal.append(node)
        return node

    def __reduce__(self):
        return Union, self.terms


def union_of(terms: Sequence[Regex]) -> Regex:
    """The union of one or more terms: the only term itself, else Union(*terms)."""
    return Union(*terms) if len(terms) > 1 else terms[0]


class Concat(Regex):
    __slots__ = ("left", "right")
    left: Regex
    right: Regex

    def __new__(cls, left: Regex, right: Regex) -> "Concat":
        lefts = _CONCATS.get(right)
        if lefts is None:
            lefts = _CONCATS[right] = {}
        else:
            node = lefts.get(left)
            if node is not None:
                return node
        node = lefts[left] = object.__new__(cls)
        _set_left(node, left)
        _set_right(node, right)
        if _journal is not None:
            _journal.append(node)
        return node


class Star(Regex):
    __slots__ = ("child",)
    child: Regex

    def __new__(cls, child: Regex) -> "Star":
        node = _STARS.get(child)
        if node is None:
            node = _STARS[child] = object.__new__(cls)
            _set_child(node, child)
            if _journal is not None:
                _journal.append(node)
        return node


_EMPTY_SET = object.__new__(EmptySet)
_EPSILON = object.__new__(Epsilon)

# The slot setters the constructors call; Regex.__setattr__ refuses.
_set_sym = Sym.sym.__set__
_set_terms = Union.terms.__set__
_set_left = Concat.left.__set__
_set_right = Concat.right.__set__
_set_child = Star.child.__set__


def _forget(node: Regex) -> None:
    """Take `node` out of its kind's table."""
    kind = type(node)
    if kind is Concat:
        lefts = _CONCATS[node.right]
        del lefts[node.left]
        if not lefts:
            del _CONCATS[node.right]
    elif kind is Union:
        del _UNIONS[node.terms]
    elif kind is Star:
        del _STARS[node.child]
    else:
        del _SYMS[node.sym]


def _children(node: Regex) -> tuple[Regex, ...]:
    kind = type(node)
    if kind is Concat:
        return node.left, node.right
    if kind is Union:
        return node.terms
    if kind is Star:
        return (node.child,)
    return ()


_EXIT = object()


def postorder(expr: Regex) -> Iterator[Regex]:
    """Each distinct node of `expr` once, after its children (left first).

    A node shared by several parents is yielded at its first occurrence
    only.  Iterative, so chain depth is unbounded.
    """
    seen: set[Regex] = set()
    # A node to visit, or _EXIT followed (below it) by a node to yield.
    stack: list[object] = [expr]
    while stack:
        node = stack.pop()
        if node is _EXIT:
            yield stack.pop()
        elif node not in seen:
            seen.add(node)
            stack += (node, _EXIT)
            stack += reversed(_children(node))


def fold(expr: Regex, combine: Callable[..., T]) -> T:
    """Bottom-up value of `expr`: `combine(node, *child_values)` is called
    once per distinct node, so shared subexpressions are computed once.

    Sym, Epsilon and EmptySet get no child values, Star one, Concat two
    (left, right) and Union one per term, in order.
    """
    values: dict[Regex, T] = {}
    for node in postorder(expr):
        values[node] = combine(node, *map(values.__getitem__, _children(node)))
    return values[expr]


class RegexMetrics(NamedTuple):
    """Size summary of one expression: Sym-leaf count, node count, height."""

    alphabetic_length: int
    node_count: int
    height: int


def alphabetic_length(expr: Regex) -> int:
    """Count Sym leaves. Union/Concat add children, Star keeps its child's count.

    Shared subexpressions (the builders' DAGs) are counted once per logical
    occurrence, as if the DAG were expanded to a tree.
    """
    return fold(expr, lambda node, *kids: 1 if type(node) is Sym else sum(kids))


def metrics(expr: Regex) -> RegexMetrics:
    """Alphabetic length, node count and height of the expanded tree."""

    def measure(node: Regex, *kids: tuple[int, int, int]) -> tuple[int, int, int]:
        if not kids:
            return int(type(node) is Sym), 1, 0
        lengths, counts, heights = zip(*kids)
        return sum(lengths), sum(counts) + 1, max(heights) + 1

    return RegexMetrics(*fold(expr, measure))


# Union binds loosest, then concatenation, then star.  A child is
# parenthesized exactly when its operator binds looser than its parent's:
# a union under a concatenation or a star, or a concatenation under a star.
# Those children are the groups `render_to` keeps.

_END = object()


def render_to(expr: Regex, write: Callable[[str], None], fmt: RenderFormat = "spaced") -> None:
    """Write the textual form of `expr` to `write`, in a single call.

    Only a parenthesized group (a union under a concatenation or a star, or
    a concatenation under a star) has its text kept, parentheses included,
    and only from its second occurrence on, as `parse` keeps the groups it
    has closed.  No group's text is kept while another's is being built,
    so the kept texts are disjoint pieces of the output and hold no more
    than it does, however deep the groups nest.  Everything else is walked
    again at each occurrence.  Nothing is written when CompactOverflow is
    raised.
    """
    if fmt not in ("compact", "spaced"):
        raise InvalidArgs(f"unknown render format {fmt!r}")
    compact = fmt == "compact"
    sep = "" if compact else " "
    names: dict[Regex, str] = {}  # one str per Sym
    seen: set[Regex] = set()  # groups met at least once
    texts: dict[Regex, str] = {}  # groups met twice, as text
    parts: list[str] = []
    # The group whose text is parts[start:] once _END is reached, or None.
    keeping: Regex | None = None
    start = 0
    # A token to append, a node to render, (group,) to render in
    # parentheses, or _END.
    stack: list = [expr]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is Sym:
            name = names.get(item)
            if name is None:
                if compact and item.sym > 9:
                    raise CompactOverflow(item.sym)
                name = names[item] = str(item.sym)
            parts.append(name)
        elif kind is str:
            parts.append(item)
        elif kind is Concat:
            # The left spine in one loop; only a union factor is a group.
            while kind is Concat:
                right = item.right
                stack.append((right,) if type(right) is Union else right)
                item = item.left
                kind = type(item)
            stack.append((item,) if kind is Union else item)
        elif kind is tuple:
            group = item[0]
            text = texts.get(group)
            if text is not None:
                parts.append(text)
                continue
            if group not in seen:
                seen.add(group)
            elif keeping is None:
                keeping, start = group, len(parts)
                stack.append(_END)
            parts.append("(")
            stack += (")", group)
        elif kind is Union:
            # No term is parenthesized: none binds looser than a union.
            for term in reversed(item.terms):
                stack += (term, "+")
            stack.pop()
        elif kind is Star:
            child = item.child
            stack += ("*", (child,) if type(child) in (Union, Concat) else child)
        elif item is _END:
            texts[keeping] = text = sep.join(parts[start:])
            del parts[start:]
            parts.append(text)
            keeping = None
        elif kind is Epsilon:
            parts.append("e")
        else:  # EmptySet
            parts.append("&")
    write(sep.join(parts))


def render(expr: Regex, fmt: RenderFormat = "spaced") -> str:
    """Deterministic textual form of `expr` in the given format."""
    parts: list[str] = []
    render_to(expr, parts.append, fmt)
    return "".join(parts)


# One token per match: group 1 holds a symbol's digits, otherwise the match
# is one operator or other character.  Blanks between tokens are skipped.
# Digit runs are split into single-digit symbols while n <= 9 (the compact
# convention) and read as whole decimal ids once n >= 10 (where only the
# spaced format is legal, so runs are unambiguous).  Only ASCII digits are
# symbols: `\d` would also match other scripts' digits, which int() reads.
_TOKEN_SINGLE_DIGIT = re.compile(r"([0-9])|[^ \t\r\n]")
_TOKEN_MULTI_DIGIT = re.compile(r"([0-9]+)|[^ \t\r\n]")


# The parser's memo of closed groups: a group is keyed by this many
# characters from its '('; a key holds at most _GROUP_BUCKET groups; and the
# group texts held total at most _GROUP_ROOM times the parsed text.  The two
# caps keep a lookup to a few comparisons and the memo's memory linear in
# the text, however deep or repetitive the nesting.  Builder output holds
# at most 1.8 times its text.
_GROUP_KEY = 48
_GROUP_BUCKET = 16
_GROUP_ROOM = 4

# The most nodes one parse may add to the DAG; a chain of that many takes
# about 100 MB.  The dnc DAG at the split proof's largest n, 16, has
# 939 757 nodes.
MAX_PARSE_NODES = 1 << 20


# A group the parser closes with two or more alternatives, one of them a
# union, is kept as the list of its alternatives (each a node or such a
# list) until it is used as something other than a whole alternative of an
# enclosing union.  A nest like ((1+1)+1)+1 is then one flat union built
# once: building one union per level would copy the inner terms at each
# level, quadratic in the nesting depth.


def _group(alts: list) -> Regex | list:
    """A closed group: its one alternative, its union, or the list of its
    alternatives while one of them is a union (above)."""
    if len(alts) == 1:
        return alts[0]
    if list in map(type, alts) or Union in map(type, alts):
        return alts
    return Union(*alts)


def _built(term: Regex | list) -> Regex:
    """The node of a parsed term, building an unbuilt union (above)."""
    if type(term) is not list:
        return term
    flat: list[Regex] = []
    stack = [term]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack += reversed(item)
        else:
            flat.append(item)
    node = union_of(flat)
    term[:] = (node,)
    return node


def _alternative(terms: list) -> Regex | list:
    """One union alternative from a concatenation run; a run of one term
    is that term, so an unbuilt union stays unbuilt."""
    if len(terms) == 1:
        return terms[0]
    if list in map(type, terms):
        terms = list(map(_built, terms))
    return reduce(Concat, terms)


def parse(text: str, n: int) -> Regex:
    """Parse compact or spaced text into an expression over the alphabet {1..n}.

    Union binds loosest, then concatenation, then postfix star.  A union
    is one n-ary node, and concatenation chains associate to the left, so
    parse(render(e)) is e itself for expressions whose concatenations lean
    left, builder output included.  Parenthesis nesting is handled with an
    explicit stack; input depth is unbounded.  A union group that is a
    whole alternative of an enclosing union is flattened into it before
    any union is built (see `_group`), so nested unions cost linear time.

    A group is reused (see the module docstring) only once it has parsed
    cleanly, so every error comes from the token loop, with the message
    and offset it has without the reuse.  SizeCap is raised at the first
    token where the nodes the parse has added to the DAG, plus one for each
    term of the concatenation run being read, pass MAX_PARSE_NODES, so a
    long run is refused before its chain is built.  A parse that raises
    takes every node it added back out of the DAG.
    """
    global _journal
    if n < 1:
        raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
    _journal = journal = []
    try:
        return _parse(text, n, journal)
    except BaseException:
        for node in journal:
            _forget(node)
        raise
    finally:
        _journal = None


def _parse(text: str, n: int, journal: list[Regex]) -> Regex:
    """`parse`'s token loop; `journal` holds the nodes it has created."""
    pattern = _TOKEN_MULTI_DIGIT if n >= 10 else _TOKEN_SINGLE_DIGIT
    width = len(str(n))
    # One frame per open parenthesis: (completed alternatives, current concat
    # run, offset of the '(').  Either list may hold unbuilt unions (see
    # `_group`).
    frames: list[tuple[list, list, int]] = [([], [], 0)]
    # Closed groups by the first _GROUP_KEY characters from their '(':
    # (group text, node or unbuilt union) for each, stored when it first
    # closes.
    groups: dict[str, list[tuple[str, Regex | list]]] = {}
    # Characters of group text the memo may still hold.
    room = _GROUP_ROOM * len(text)
    # Where tokenizing resumes after a reused group; None once the text
    # is consumed.
    resume: int | None = 0
    cap = MAX_PARSE_NODES
    while resume is not None:
        start, resume = resume, None
        for match in pattern.finditer(text, start):
            offset = match.start()
            alts, terms, _ = frames[-1]
            nodes = len(journal) + len(terms)
            if nodes > cap:
                raise SizeCap(nodes, cap, what="parsed nodes")
            digits = match.group(1)
            if digits is not None:
                # An id with more significant digits than n is out of range; it
                # is refused before int(), which Python limits to 4300 digits.
                if len(digits) > width:
                    digits = digits.lstrip("0") or "0"
                    if len(digits) > width:
                        shown = digits if len(digits) <= 20 else (
                            f"{digits[:20]}... ({len(digits)} digits)")
                        raise SymbolOutOfRange(
                            f"symbol {shown} outside [1, {n}] at offset {offset}")
                value = int(digits)
                if not 1 <= value <= n:
                    raise SymbolOutOfRange(
                        f"symbol {value} outside [1, {n}] at offset {offset}")
                terms.append(Sym(value))
                continue
            token = match.group()
            if token == "e":
                terms.append(Epsilon())
            elif token == "&":
                terms.append(EmptySet())
            elif token == "*":
                if not terms:
                    raise RegexSyntaxError("star needs an expression to repeat", offset)
                terms[-1] = Star(_built(terms[-1]))
            elif token == "+":
                if not terms:
                    raise RegexSyntaxError("empty union alternative", offset)
                alts.append(_alternative(terms))
                terms.clear()
            elif token == "(":
                for group, node in groups.get(text[offset:offset + _GROUP_KEY], ()):
                    if text.startswith(group, offset):
                        terms.append(node)
                        resume = offset + len(group)
                        break
                if resume is not None:
                    break
                frames.append(([], [], offset))
            elif token == ")":
                if len(frames) == 1:
                    raise RegexSyntaxError("unbalanced ')'", offset)
                if not terms:
                    raise RegexSyntaxError("empty group or union alternative", offset)
                alts.append(_alternative(terms))
                node = _group(alts)
                opened = frames.pop()[2]
                bucket = groups.setdefault(text[opened:opened + _GROUP_KEY], [])
                size = offset + 1 - opened
                if size <= room and len(bucket) < _GROUP_BUCKET:
                    room -= size
                    bucket.append((text[opened:offset + 1], node))
                frames[-1][1].append(node)
            else:
                raise RegexSyntaxError(f"unexpected character {token!r}", offset)
    if len(frames) > 1:
        raise RegexSyntaxError("unclosed '('", len(text))
    alts, terms, _ = frames[0]
    if not terms:
        raise RegexSyntaxError(
            "empty union alternative" if alts else "empty expression", len(text))
    alts.append(_alternative(terms))
    return _built(_group(alts))
