"""Regular expressions over numbered alphabets, as one hash-consed DAG.

Expressions are built from six node kinds: EmptySet, Epsilon, Sym,
Union, Concat, and Star.  The size measure used throughout the package
is *alphabetic length*: the number of Sym leaves.  Operators and
parentheses are free.

Every node is interned when it is built: constructing a node whose kind
and children (by identity) already exist returns the existing object.
Structurally equal expressions are therefore the same object, equality
and hashing are plain identity, and the builders and the parser share
one DAG.  The intern table holds every node ever built and lives as long
as the process.

Two textual formats are supported.  The compact format writes symbols
as bare digits with juxtaposition for concatenation ("(12+21)(34+43)")
and is only valid while every symbol id is a single digit.  The spaced
format separates every token with single spaces and works for any
alphabet size; it is the canonical interchange form.

Expressions can be hundreds of thousands of nodes deep (a flat union
over 8 symbols is a 40319-deep chain), so nothing here recurses:
`postorder` visits the distinct nodes with an explicit stack, `fold`
computes bottom-up values on top of it, and rendering and parsing keep
their own stacks.

Parsing costs what the distinct groups cost, not what the text costs.
With n fixed, the text of a parenthesized group always parses to the
same node, so `parse` keeps a per-call memo of the groups it has closed,
keyed by their first 48 characters.  A '(' that starts the text of one of
them takes its node and resumes tokenizing after it.  The builders'
output repeats each subset's group many times: the spaced `dnc` n=12
text is 4.5 MB, yet its DAG has 39 193 distinct nodes.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Callable, Iterator, Literal, NamedTuple, TypeVar

from .errors import CompactOverflow, InvalidArgs, RegexSyntaxError, SymbolOutOfRange

RenderFormat = Literal["compact", "spaced"]
T = TypeVar("T")

# (kind, *fields) -> the one node with that kind and those fields.
_INTERNED: dict[tuple, "Regex"] = {}


class Regex:
    """Base class for all expression nodes.  Immutable and interned, so
    equality is identity."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(
                    f"{cls.__name__} takes {len(cls.__slots__)} arguments, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            _INTERNED[key] = node
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # Copies and unpickled nodes go back through the intern table.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        text = render(self, "spaced")
        if len(text) > 120:
            text = text[:117] + "..."
        return f"{type(self).__name__}<{text}>"


class EmptySet(Regex):
    """The empty language.  Never emitted by the builders; parsed as '&'."""

    __slots__ = ()


class Epsilon(Regex):
    """The empty word.  Never emitted by the builders; parsed as 'e'."""

    __slots__ = ()


class Sym(Regex):
    """A single alphabet symbol, identified by an integer id >= 1."""

    __slots__ = ("sym",)
    sym: int


class Union(Regex):
    __slots__ = ("left", "right")
    left: Regex
    right: Regex


class Concat(Regex):
    __slots__ = ("left", "right")
    left: Regex
    right: Regex


class Star(Regex):
    __slots__ = ("child",)
    child: Regex


def _children(node: Regex) -> tuple[Regex, ...]:
    kind = type(node)
    if kind is Union or kind is Concat:
        return node.left, node.right
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

    Sym, Epsilon and EmptySet get no child values, Star one, Union and
    Concat two (left, right).
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


# Operator precedence, loosest first.  A child is parenthesized exactly
# when its operator binds looser than its parent's.
_PREC_UNION = 1
_PREC_CONCAT = 2
_PREC_STAR = 3
_PREC_LEAF = 4

_PREC = {Union: _PREC_UNION, Concat: _PREC_CONCAT, Star: _PREC_STAR,
         Sym: _PREC_LEAF, Epsilon: _PREC_LEAF, EmptySet: _PREC_LEAF}


def render_to(expr: Regex, write: Callable[[str], None], fmt: RenderFormat = "spaced") -> None:
    """Write the textual form of `expr` to `write`, in a single call.

    The text of a node with two or more parents is built once and reused
    at each occurrence; it excludes the parentheses a parent may put
    around it.  Nothing is written when CompactOverflow is raised.
    """
    if fmt not in ("compact", "spaced"):
        raise InvalidArgs(f"unknown render format {fmt!r}")
    compact = fmt == "compact"
    sep = "" if compact else " "
    # Parent edges per node, counted in one pass over the distinct nodes.
    parents: dict[Regex, int] = {expr: 0}
    stack: list = [expr]
    while stack:
        for child in _children(stack.pop()):
            if child in parents:
                parents[child] += 1
            else:
                parents[child] = 1
                stack.append(child)
    # Only the shared nodes are kept while the text is built.
    shared = {node for node, count in parents.items() if count > 1}
    del parents
    texts: dict[Regex, str] = {}
    parts: list[str] = []
    # A token to append, a node to render, or (node, start): the shared
    # node's text is parts[start:], to be joined and kept.
    stack = [expr]

    def push(child: Regex, prec: int) -> None:
        if _PREC[type(child)] < prec:
            stack.extend((")", child, "("))
        else:
            stack.append(child)

    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            parts.append(item)
        elif kind is tuple:
            node, start = item
            texts[node] = text = sep.join(parts[start:])
            del parts[start:]
            parts.append(text)
        elif kind is Sym:
            if compact and item.sym > 9:
                raise CompactOverflow(
                    f"symbol {item.sym} has no single-digit form; use the spaced format")
            parts.append(str(item.sym))
        elif kind is Epsilon:
            parts.append("e")
        elif kind is EmptySet:
            parts.append("&")
        elif item in texts:
            parts.append(texts[item])
        else:
            if item in shared:
                stack.append((item, len(parts)))
            if kind is Star:
                stack.append("*")
                push(item.child, _PREC_STAR)
            elif kind is Union:
                push(item.right, _PREC_UNION)
                stack.append("+")
                push(item.left, _PREC_UNION)
            else:  # Concat
                push(item.right, _PREC_CONCAT)
                push(item.left, _PREC_CONCAT)
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


def parse(text: str, n: int) -> Regex:
    """Parse compact or spaced text into an expression over the alphabet {1..n}.

    Union binds loosest, then concatenation, then postfix star.  Chains
    associate to the left, so parse(render(e)) is e itself for
    expressions in that left-leaning normal form, builder output
    included.  Parenthesis nesting is handled with an explicit stack;
    input depth is unbounded.

    A group is reused (see the module docstring) only once it has parsed
    cleanly, so every error comes from the token loop, with the message
    and offset it has without the reuse.
    """
    if n < 1:
        raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
    pattern = _TOKEN_MULTI_DIGIT if n >= 10 else _TOKEN_SINGLE_DIGIT
    width = len(str(n))
    # One frame per open parenthesis: (completed alternatives, current concat
    # run, offset of the '(').
    frames: list[tuple[list[Regex], list[Regex], int]] = [([], [], 0)]
    # Closed groups by the first _GROUP_KEY characters from their '(':
    # (group text, node) for each, stored when it first closes.
    groups: dict[str, list[tuple[str, Regex]]] = {}
    # Characters of group text the memo may still hold.
    room = _GROUP_ROOM * len(text)
    # Where tokenizing resumes after a reused group; None once the text
    # is consumed.
    resume: int | None = 0
    while resume is not None:
        start, resume = resume, None
        for match in pattern.finditer(text, start):
            offset = match.start()
            alts, terms, _ = frames[-1]
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
                terms[-1] = Star(terms[-1])
            elif token == "+":
                if not terms:
                    raise RegexSyntaxError("empty union alternative", offset)
                alts.append(reduce(Concat, terms))
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
                alts.append(reduce(Concat, terms))
                node = reduce(Union, alts)
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
    alts.append(reduce(Concat, terms))
    return reduce(Union, alts)
