"""Word-level term language with explicit bitwidth/signage annotations.

Every operator carries an output annotation plus one annotation per operand.
Evaluation is exact integer arithmetic on operand values (after coercing each
child result into its operand annotation), followed by truncation to the
output width and reinterpretation under the output signage.  This makes the
term language self-contained: no context-dependent sizing remains.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import Mapping, NamedTuple, Sequence


class _NumpyOnFirstUse:
    """Stands for numpy until the first read of one of its names, which
    imports numpy and binds the module global `np` to it.  Only the
    vectorised evaluators read `np`, so a process that never evaluates a
    design (`wordec extract`, `waterfall`, `saturate`) never loads numpy."""

    def __getattr__(self, name: str):
        global np
        import numpy as np
        return getattr(np, name)


np = _NumpyOnFirstUse()

UNSIGNED = "unsigned"
SIGNED = "signed"

# opcode -> arity; 'slice' additionally carries (hi, lo) literals in the node
ARITY = {
    "+": 2, "-": 2, "*": 2, "neg": 1,
    "<<": 2, ">>": 2, ">>>": 2,
    "&": 2, "|": 2, "^": 2, "~": 1,
    "mux": 3, "concat": 2, "slice": 1,
    "==": 2, "<": 2, "zext": 1, "sext": 1,
}

# operand positions interpreted as an unsigned shift amount
SHIFT_OPS = frozenset({"<<", ">>", ">>>"})


class IrError(Exception):
    """Malformed term, annotation or environment."""


class UnboundVariableError(IrError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


# (width, signed) -> the one Annotation for it
_INTERNED: dict[tuple[int, bool], "Annotation"] = {}


@functools.total_ordering
class Annotation:
    """Bitwidth and signage of a signal.

    Interned: `Annotation(w, s)` returns the one instance for (w, s), so
    equality and hashing are by identity and run in C.  They order by
    (width, signed), and are immutable.  `lo` and `hi`, the least and
    greatest values represented, are stored when the instance is made."""

    __slots__ = ("width", "signed", "lo", "hi")
    width: int
    signed: bool
    lo: int
    hi: int

    def __new__(cls, width: int, signed: bool = False) -> "Annotation":
        key = (operator.index(width), bool(signed))
        a = _INTERNED.get(key)
        if a is None:
            if key[0] < 1:
                raise IrError(f"annotation width must be >= 1, got {width}")
            w, signed = key
            a = object.__new__(cls)
            object.__setattr__(a, "width", w)
            object.__setattr__(a, "signed", signed)
            object.__setattr__(a, "lo", -(1 << (w - 1)) if signed else 0)
            object.__setattr__(a, "hi", (1 << (w - 1)) - 1 if signed
                               else (1 << w) - 1)
            _INTERNED[key] = a
        return a

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Annotation, (self.width, self.signed)

    def __repr__(self) -> str:
        return f"Annotation(width={self.width!r}, signed={self.signed!r})"

    def __lt__(self, other):
        if type(other) is not Annotation:
            return NotImplemented
        return (self.width, self.signed) < (other.width, other.signed)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def sign(self) -> int:
        """Weight of the sign bit when signed, else 0."""
        return 1 << (self.width - 1) if self.signed else 0

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @property
    def signage(self) -> str:
        return SIGNED if self.signed else UNSIGNED

    def __str__(self) -> str:
        return f"{self.width} {self.signage}"


def from_bits(bits: int, a: Annotation) -> int:
    """Reinterpret a bit pattern (0 <= bits < 2^width) under an annotation."""
    if a.signed and bits >= 1 << (a.width - 1):
        return bits - (1 << a.width)
    return bits


def to_bits(value: int, a: Annotation) -> int:
    """Two's-complement bit pattern of a representable value."""
    return value & ((1 << a.width) - 1)


def coerce(value: int, src: Annotation, dst: Annotation) -> int:
    """Resize a value: extend per the source signage, reinterpret per the
    destination signage, truncating to the low destination bits if narrower.

    Total: any representable input yields a representable output.  Masking a
    Python int is simultaneously sign-extension (negative values) and
    zero-extension (non-negative values), so one mask covers both directions.
    """
    return from_bits(value & ((1 << dst.width) - 1), dst)


@dataclass(frozen=True)
class Term:
    """An expression tree node.

    kind is 'var', 'const' or an opcode.  operands pair each child with the
    annotation the child's value is coerced into before the opcode's exact
    arithmetic is applied.  'slice' keeps its (hi, lo) indices structurally in
    `indices` rather than as operand terms.
    """

    kind: str
    out: Annotation
    name: str | None = None
    value: int | None = None
    operands: tuple[tuple[Annotation, "Term"], ...] = ()
    indices: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind == "var":
            if not self.name or self.operands:
                raise IrError("var terms need a name and no operands")
        elif self.kind == "const":
            if self.value is None or self.operands:
                raise IrError("const terms need a value and no operands")
            if not self.out.contains(self.value):
                raise IrError(
                    f"constant {self.value} not representable in ({self.out})")
        elif self.kind in ARITY:
            if len(self.operands) != ARITY[self.kind]:
                raise IrError(
                    f"{self.kind} expects {ARITY[self.kind]} operands, "
                    f"got {len(self.operands)}")
            if self.kind == "slice":
                if self.indices is None:
                    raise IrError("slice needs (hi, lo) indices")
                hi, lo = self.indices
                w = self.operands[0][0].width
                if not (w > hi >= lo >= 0):
                    raise IrError(f"bad slice indices {self.indices} for a "
                                  f"{w}-bit operand")
        else:
            raise IrError(f"unknown opcode: {self.kind}")

    def __hash__(self) -> int:
        # stored on first use: over shared wires the tree is exponential
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.kind, self.out, self.name, self.value,
                      self.operands, self.indices))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):  # not the stored hash: a str's varies by process
        return Term, (self.kind, self.out, self.name, self.value,
                      self.operands, self.indices)

    def at(self, position: tuple[int, ...]) -> "Term":
        t = self
        for i in position:
            t = t.operands[i][1]
        return t

    def replace(self, position: tuple[int, ...], sub: "Term") -> "Term":
        if not position:
            return sub
        i, rest = position[0], position[1:]
        ops = list(self.operands)
        slot_ann, child = ops[i]
        ops[i] = (slot_ann, child.replace(rest, sub))
        return Term(self.kind, self.out, self.name, self.value,
                    tuple(ops), self.indices)


def var(name: str, out: Annotation) -> Term:
    return Term("var", out, name=name)


def const(value: int, out: Annotation) -> Term:
    return Term("const", out, value=value)


def op(kind: str, out: Annotation,
       *operands: tuple[Annotation, Term],
       indices: tuple[int, int] | None = None) -> Term:
    return Term(kind, out, operands=tuple(operands), indices=indices)


# opcodes that are one Python operator on operand values, ints or arrays
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "neg": operator.neg, "~": operator.invert, "&": operator.and_,
          "|": operator.or_, "^": operator.xor}
_COMPARE = {"==": operator.eq, "<": operator.lt}


def _exact_op(kind: str, vals: list[int], slots: tuple[Annotation, ...],
              indices: tuple[int, int] | None, out_width: int) -> int:
    """Exact integer result of an opcode on slot-coerced operand values,
    but for a `<<` amount clamped at the output width, past which every
    amount truncates to the same output."""
    if kind in _ARITH:
        return _ARITH[kind](*vals)
    if kind in SHIFT_OPS:
        amt = to_bits(vals[1], slots[1])  # shift amounts always unsigned
        if kind == "<<":
            return vals[0] << min(amt, out_width)
        if kind == ">>":
            return to_bits(vals[0], slots[0]) >> amt  # logical: shift the pattern
        return vals[0] >> amt  # arithmetic: floor-shift the value
    if kind == "mux":
        return vals[1] if vals[0] != 0 else vals[2]
    if kind == "concat":
        return (to_bits(vals[0], slots[0]) << slots[1].width) | to_bits(vals[1], slots[1])
    if kind == "slice":
        hi, lo = indices
        return (to_bits(vals[0], slots[0]) >> lo) & ((1 << (hi - lo + 1)) - 1)
    if kind in _COMPARE:
        return int(_COMPARE[kind](*vals))
    if kind == "zext":
        return to_bits(vals[0], slots[0])
    if kind == "sext":
        return from_bits(to_bits(vals[0], slots[0]),
                         Annotation(slots[0].width, True))
    raise IrError(f"unknown opcode: {kind}")


def evaluate(t: Term, env: Mapping[str, int]) -> int:
    """Evaluate a term: exact arithmetic on coerced operands, result truncated
    to the output width and reinterpreted under the output signage."""
    if t.kind == "var":
        if t.name not in env:
            raise UnboundVariableError(t.name)
        return coerce(env[t.name], t.out, t.out)
    if t.kind == "const":
        return t.value
    vals = [coerce(evaluate(child, env), child.out, slot)
            for slot, child in t.operands]
    slots = tuple(slot for slot, _ in t.operands)
    exact = _exact_op(t.kind, vals, slots, t.indices, t.out.width)
    return from_bits(exact & ((1 << t.out.width) - 1), t.out)


# ---------------------------------------------------------------------------
# Vectorized evaluation.  `program` lists the distinct subterms of the terms
# to evaluate in post-order, and `_run` evaluates each once per batch, on
# int64 lanes when every exact intermediate fits in 62 bits (vectorizable),
# else on numpy object arrays of exact Python ints, skipping the coercions
# that ranges show to be identities.  Both agree with `evaluate`.
# ---------------------------------------------------------------------------

class Step(NamedTuple):
    """A distinct subterm: its node, its operands' steps, whether each slot
    coercion (`same`) and the output truncation (`fits`) is the identity,
    the node's value range, and the bits (+1 for the sign) an exact
    intermediate of this step or of any step below it can need."""

    node: Term  # or a RowTerm
    args: tuple[int, ...]
    same: tuple[bool, ...]
    fits: bool = False
    range: tuple[int, int] | None = None
    bits: int = 0


class Program(NamedTuple):
    """Steps in post-order, the step of each root, the steps whose last use
    each step is, and whether every exact intermediate fits in 62 bits."""

    steps: list[Step]
    roots: list[int]
    drops: list[list[int]]
    vectorizable: bool


def program(roots: Sequence[Term | RowTerm]) -> Program:
    """Compile `roots` into one `Program`, walking each root in turn, a node
    at a time, so designs that share most subterms reach each together.
    `Term`s alike in kind, annotations, name, value, indices and operand
    steps are one step, and none is hashed or compared whole; a `RowTerm`,
    with array annotations, is one step per object.  A `Term`'s bottom-up
    range (`op_value_range`, `fit`) tells which coercions are identities."""
    steps: list[Step] = []
    index: dict = {}  # id of a walked node, or a Term step's key -> step
    walks = [[(t, False)] for t in roots]
    while walks:
        todo = walks.pop(0)
        if not todo:
            continue
        walks.append(todo)
        t, ready = todo.pop()
        if id(t) in index:
            continue
        if not ready and t.operands:
            todo.append((t, True))
            todo += [(c, False) for _, c in reversed(t.operands)]
            continue
        slots = tuple([s for s, _ in t.operands])
        args = tuple([index[id(c)] for _, c in t.operands])
        term = isinstance(t, Term)
        key = (t.kind, t.out, t.name, t.value, t.indices, slots, args) \
            if term else id(t)
        if key in index:
            index[id(t)] = index[key]
            continue
        index[id(t)] = index[key] = len(steps)
        below = max([steps[j].bits for j in args], default=0)
        if not term:
            steps.append(Step(t, args, tuple(
                s is steps[j].node.out for s, j in zip(slots, args)),
                bits=below))
            continue
        bits = max(below, t.out.width + 1, *(s.width + 1 for s in slots))
        fitted = [fit(*steps[j].range, s) for s, j in zip(slots, args)]
        if t.kind in ARITY:
            r = op_value_range(t.kind, slots, fitted, t.indices, t.out.width)
            lo, hi = op_value_range(t.kind, slots,
                                    [(s.lo, s.hi) for s in slots],
                                    t.indices, t.out.width)
            bits = max(bits, max(abs(lo), abs(hi)).bit_length() + 1)
        else:
            r = (t.out.lo, t.out.hi) if t.kind == "var" else (t.value,) * 2
        same = tuple(f == steps[j].range for f, j in zip(fitted, args))
        steps.append(Step(t, args, same, fit(*r, t.out) == r, fit(*r, t.out),
                          bits))
    return _program(steps, [index[id(t)] for t in roots])


def select(p: Program, roots: Sequence[int]) -> Program:
    """The program of `p`'s steps `roots`: the steps below them, in `p`'s
    order and renumbered, with nothing keyed or ranged again."""
    if list(roots) == p.roots:
        return p
    keep = set(roots)
    for i in range(len(p.steps) - 1, -1, -1):
        if i in keep:
            keep.update(p.steps[i].args)
    new = {i: k for k, i in enumerate(sorted(keep))}
    steps = [p.steps[i]._replace(args=tuple([new[j] for j in p.steps[i].args]))
             for i in new]
    return _program(steps, [new[r] for r in roots])


def _program(steps: list[Step], top: list[int]) -> Program:
    """`steps` with roots `top`, each step's last uses and the lane type."""
    drops: list[list[int]] = [[] for _ in steps]
    kept = set(top)
    for j, i in {j: i for i, s in enumerate(steps) for j in s.args}.items():
        if j not in kept:
            drops[i].append(j)
    # every exact intermediate fits in 62 bits: int64 lanes
    narrow = max([steps[r].bits for r in top], default=0) <= 62
    return Program(steps, top, drops, narrow)


def vectorizable(t: Term) -> bool:
    """True when `evaluate_many` can run `t` on int64 lanes."""
    return program([t]).vectorizable


class RowAnnotation(NamedTuple):
    """Annotations that differ from row to row of one batch, one array entry
    per row: the `width`, `mask` and `sign` that `Annotation` computes
    (`sign` is 0 exactly on unsigned rows).  `_run` takes one wherever it
    takes an `Annotation`."""

    width: np.ndarray
    mask: np.ndarray
    sign: np.ndarray

    @classmethod
    def of(cls, width: np.ndarray, signed: np.ndarray) -> "RowAnnotation":
        if width.max(initial=0) > 62:  # masks past int64: exact ints
            width = width.astype(object)
        mask = (1 << width) - 1
        return cls(width, mask, np.where(signed, (mask >> 1) + 1, 0))

    def take(self, at: np.ndarray) -> "RowAnnotation":
        """This annotation read at rows `at`."""
        return RowAnnotation(self.width[at], self.mask[at], self.sign[at])


def _bits(v, a):
    """Two's-complement pattern of `v` in `a.width` bits."""
    return v & a.mask


def _interpret(bits, a):
    """Read `a.width`-bit patterns under `a`'s signage."""
    if isinstance(a, Annotation) and not a.signed:
        return bits
    return (bits ^ a.sign) - a.sign


def _run(p: Program, env: Mapping[str, np.ndarray], exact: bool,
         rows: int | None = None, nodes: list | None = None) -> list:
    """`p`'s root values on one batch of rows, on int64 lanes or exact ints
    (`nodes`, if given, in place of the steps' own): the one opcode table."""
    dtype = object if exact else np.int64
    if rows is None:
        rows = len(next(iter(env.values()))) if env else 1
    vals: list = [None] * len(p.steps)
    for i, s in enumerate(p.steps):
        t = s.node if nodes is None else nodes[i]
        k = t.kind
        if k == "var":
            if t.name not in env:
                raise UnboundVariableError(t.name)
            vals[i] = np.asarray(env[t.name], dtype=dtype)
            continue
        if k == "const":
            vals[i] = np.broadcast_to(np.asarray(t.value, dtype=dtype), rows)
            continue
        slots = [slot for slot, _ in t.operands]
        v = [vals[j] if same else _interpret(_bits(vals[j], a), a)
             for j, a, same in zip(s.args, slots, s.same)]
        if k in _ARITH:
            r = _ARITH[k](*v)
        elif k in SHIFT_OPS:
            # Amounts are unsigned.  Past the output width (<<) or the
            # operand width (>>, >>>) every amount gives the same truncated
            # result, so clamp there: int64 shifts are modular in the
            # count, and object lanes would build huge ints.
            amt = _bits(v[1], slots[1])
            if k == "<<":
                r = v[0] << np.minimum(amt, t.out.width)
            elif k == ">>":
                r = _bits(v[0], slots[0]) >> np.minimum(amt, slots[0].width)
            else:
                r = v[0] >> np.minimum(amt, slots[0].width)
        elif k == "mux":
            r = np.where(v[0] != 0, v[1], v[2])
        elif k == "concat":
            r = ((_bits(v[0], slots[0]) << slots[1].width)
                 | _bits(v[1], slots[1]))
        elif k == "slice":
            hi, lo = t.indices
            r = (_bits(v[0], slots[0]) >> lo) & ((1 << (hi - lo + 1)) - 1)
        elif k in _COMPARE:
            r = _COMPARE[k](*v).astype(dtype)
        elif k == "zext":
            r = _bits(v[0], slots[0])
        elif k == "sext":
            sign = 1 << (slots[0].width - 1)
            r = (_bits(v[0], slots[0]) ^ sign) - sign
        else:
            raise IrError(f"unknown opcode: {k}")
        vals[i] = r if s.fits else _interpret(_bits(r, t.out), t.out)
        for j in p.drops[i]:
            vals[j] = None
    return [vals[r] for r in p.roots]


def evaluate_many(t: Term | Program, env: Mapping[str, np.ndarray]):
    """Vectorized `evaluate` over equal-length arrays of input values, each
    representable in its variable's annotation (an empty env is one row);
    given a `Program`, the list of its roots' values.  Runs on int64 lanes
    when vectorizable, on object lanes of exact Python ints otherwise."""
    p = t if isinstance(t, Program) else program([t])
    vals = _run(p, env, exact=not p.vectorizable)
    return vals if p is t else vals[0]


# Rows per batch, on either lane type: every input batch is enumerated or
# drawn, and evaluated, ROWS rows at a time, so the rows a pair meets do
# not depend on the pairs checked with it.  A batch holds a few arrays of
# ROWS entries per step of its program.  On `check` of fir8 and vbsme8
# (perfbench check-extract, medians of 10 runs, 2-vCPU x86_64 VM), this
# one size took 0.197 s a pass at 41.2 MB peak RSS, against 0.198 s and
# 53.0 MB for 65,536-row int64 batches evaluated in 4,096-row slices.
ROWS = 1 << 12


def rows_to_inputs(local: np.ndarray, anns: Sequence,
                   at: np.ndarray | None = None) -> list[np.ndarray]:
    """The input values at flat row indices `local` of a joint input space:
    the first input most significant, each low to high.  `anns` holds one
    annotation per input: `Annotation`s, or `RowAnnotation`s read at the
    entries `at` gives each row, one input at a time so that each input's
    gathered fields are freed before the next.  `local` is used up: it is
    shifted in place."""
    vals = []
    for a in reversed(anns):
        if at is not None:
            a = a.take(at)
        vals.append((local & a.mask) - a.sign)
        local >>= a.width
    return vals[::-1]


def _draw(rng: np.random.Generator, a: Annotation, n: int) -> np.ndarray:
    """`n` uniform values of `a`; past 62 bits, built from 32-bit words."""
    if a.width <= 62:
        return rng.integers(a.lo, a.hi + 1, size=n, dtype=np.int64)
    words = rng.integers(0, 1 << 32, size=((a.width + 31) // 32, n),
                         dtype=np.uint64).astype(object)
    pattern = sum(w << (32 * i) for i, w in enumerate(words))
    return _interpret(_bits(pattern, a), a)


Mismatch = tuple[dict[str, int], int, int]


def first_mismatch(a: Term, b: Term, inputs: Sequence[tuple[str, Annotation]],
                   samples: int | None = None, seed: int = 0
                   ) -> Mismatch | None:
    """First input assignment on which `a` and `b` differ, with both values,
    or None.  With `samples` None the joint input space is enumerated in
    lexicographic order (inputs in the given order, each low to high), so
    the result is the lexicographically first counterexample; otherwise
    `samples` seeded uniform draws are checked.  Each input ranges over the
    annotation given here, whose values its variable must represent: a
    narrower one than the variable's own searches a subset of its values."""
    return pair_mismatches([(a, b)], inputs, samples, seed)[0]


def pair_mismatches(pairs: Sequence[tuple[Term, Term]] | Program,
                    inputs: Sequence[tuple[str, Annotation]],
                    samples: int | None = None, seed: int = 0
                    ) -> list[Mismatch | None]:
    """`first_mismatch` of each of `pairs` over the same `inputs`, in one
    pass: one program of all their terms (or `pairs` itself, a compiled
    `Program` whose roots are the pairs' terms in order), each batch of
    ROWS inputs enumerated or drawn once, until every pair has a mismatch
    or the space is used up.  Every batch has that one size, so each pair
    meets the rows that it meets alone, whichever lane type the program
    runs on (object lanes when any pair needs them)."""
    p = pairs if isinstance(pairs, Program) else program(
        [t for pair in pairs for t in pair])
    found: list[Mismatch | None] = [None] * (len(p.roots) // 2)
    names = [n for n, _ in inputs]
    anns = [x for _, x in inputs]
    total = 1 << sum(x.width for x in anns) if samples is None else samples
    rng = np.random.default_rng(seed) if samples is not None else None
    pending = list(range(len(found)))
    for start in range(0, total, ROWS):
        if not pending:
            break
        n = min(ROWS, total - start)
        env = dict(zip(names, rows_to_inputs(np.arange(start, start + n), anns)
                       if samples is None else
                       [_draw(rng, x, n) for x in anns]))
        vals = evaluate_many(p, env)
        for k in pending:
            va, vb = vals[2 * k], vals[2 * k + 1]
            bad = np.flatnonzero(va != vb)
            if bad.size:
                i = int(bad[0])
                found[k] = ({nm: int(env[nm][i]) for nm in names},
                            int(va[i]), int(vb[i]))
        pending = [k for k in pending if found[k] is None]
    return found


# A batch may mix instances of one term pair whose annotations differ: a
# `RowTerm` holds each annotation as a `RowAnnotation` and each constant as
# an array, both indexed by instance.  Such a batch runs on int64 lanes when
# no annotation is wider than ROW_INT64_WIDTH: with slots at most W bits
# wide and shift amounts clamped, every exact intermediate fits in 2W + 1
# bits.
ROW_INT64_WIDTH = 31


class _TakenAnnotation:
    """A `RowAnnotation` read at instances `at`, one field at a time: a
    field is gathered on its first read and kept as an attribute.  `_run`
    reads `width` only for shifts, `concat` and `sext`."""

    def __init__(self, rows: RowAnnotation, at: np.ndarray, exact: bool):
        self.rows, self.at, self.exact = rows, at, exact

    def __getattr__(self, field: str) -> np.ndarray:
        # called only while `field` is not yet an attribute
        if field not in RowAnnotation._fields:
            raise AttributeError(field)
        x = getattr(self.rows, field)[self.at]
        if self.exact:
            x = x.astype(object)
        setattr(self, field, x)
        return x


class RowTerm(NamedTuple):
    """A term whose annotations and constants differ per instance.
    `program` compiles one like a `Term`, into one step per object."""

    kind: str
    out: RowAnnotation
    operands: tuple = ()
    name: str | None = None
    value: np.ndarray | None = None

    def take(self, at: np.ndarray, taken: dict) -> "RowTerm":
        """This node with each annotation as `taken` holds it by id, and its
        constant read at instances `at`."""
        value = None if self.value is None else self.value[at]
        return RowTerm(self.kind, taken[id(self.out)],
                       tuple([(taken[id(s)], c) for s, c in self.operands]),
                       self.name, value)


def first_mismatches(a: RowTerm, b: RowTerm,
                     inputs: Sequence[tuple[str, RowAnnotation]],
                     instances: np.ndarray
                     ) -> dict[int, tuple[dict[str, int], int, int]]:
    """`first_mismatch` for each of `instances`: the first input assignment
    on which `a` and `b` differ, with both values.  Each instance's joint
    input space is enumerated in lexicographic order (inputs in the given
    order, each low to high); the spaces run back to back through batches
    of at most ROWS rows."""
    if not len(instances):
        return {}
    inputs = [(name, x.take(instances)) for name, x in inputs]
    counts = 1 << sum((x.width for _, x in inputs), np.zeros_like(instances))
    ends = np.cumsum(counts)
    starts = ends - counts
    p = program([a, b])
    anns = {id(x): x for s in p.steps
            for x in (s.node.out, *(slot for slot, _ in s.node.operands))}
    exact = max(int(x.width[instances].max())
                for x in anns.values()) > ROW_INT64_WIDTH
    found: dict[int, tuple[dict[str, int], int, int]] = {}
    total = int(ends[-1])
    for begin in range(0, total, ROWS):
        stop = min(begin + ROWS, total)
        # the instance of each row: instances lo..hi meet this batch
        lo, hi = np.searchsorted(ends, (begin, stop - 1), side="right")
        inst = np.repeat(np.arange(lo, hi + 1),
                         np.minimum(ends[lo:hi + 1], stop)
                         - np.maximum(starts[lo:hi + 1], begin))
        local = np.arange(begin, stop) - starts[inst]
        env = dict(zip([n for n, _ in inputs], rows_to_inputs(
            local, [x for _, x in inputs], inst)))
        at = instances[inst]
        # each annotation read at instances `at`, each field on first read
        taken = {k: _TakenAnnotation(x, at, exact) for k, x in anns.items()}
        nodes = [s.node.take(at, taken) for s in p.steps]
        va, vb = _run(p, env, exact, stop - begin, nodes)
        bad = np.flatnonzero(va != vb)
        first = np.ones(len(bad), dtype=bool)  # rows run instance by instance
        first[1:] = inst[bad[1:]] != inst[bad[:-1]]
        for r in bad[first]:
            i = int(at[r])
            if i not in found:
                found[i] = ({n: int(env[n][r]) for n, _ in inputs},
                            int(va[r]), int(vb[r]))
    return found


# ---------------------------------------------------------------------------
# Width arithmetic: exact value ranges per opcode, shared with the interval
# analysis.  Ranges are over slot-coerced operand values.
# ---------------------------------------------------------------------------

def _corners(f, *ranges: tuple[int, int]) -> tuple[int, int]:
    vals = []
    combos = [()]
    for lo, hi in ranges:
        pts = {lo, hi}
        if lo < 0 < hi:
            pts |= {-1, 0}  # sign-boundary corners for products
        combos = [c + (p,) for c in combos for p in pts]
    for c in combos:
        vals.append(f(*c))
    return min(vals), max(vals)


def op_value_range(kind: str, slots: tuple[Annotation, ...],
                   operand_ranges: list[tuple[int, int]],
                   indices: tuple[int, int] | None = None,
                   out_width: int | None = None) -> tuple[int, int]:
    """Sound (and where easy, exact) range of the pre-truncation result of an
    opcode, given ranges of the slot-coerced operand values.  Given the
    output width, a `<<` amount is clamped there, as `_run` does: past it
    every amount truncates to the same output, and the exact shift would
    build an integer about as many bits wide as the amount's largest
    value."""
    r = operand_ranges
    if kind == "+":
        return r[0][0] + r[1][0], r[0][1] + r[1][1]
    if kind == "-":
        return r[0][0] - r[1][1], r[0][1] - r[1][0]
    if kind == "*":
        return _corners(lambda a, b: a * b, r[0], r[1])
    if kind == "neg":
        return -r[0][1], -r[0][0]
    if kind == "~":
        return ~r[0][1], ~r[0][0]
    if kind in ("&", "|", "^"):
        if slots[0].signed or slots[1].signed:
            # both operands fit the signed width one bit wider than an
            # unsigned slot, and so does any bitwise result
            w = max(s.width + (not s.signed) for s in slots)
            return -(1 << (w - 1)), (1 << (w - 1)) - 1
        return 0, (1 << max(slots[0].width, slots[1].width)) - 1
    if kind in SHIFT_OPS:
        # effective amount: unsigned reinterpretation of the amount slot
        amt_lo, amt_hi = r[1]
        if amt_lo < 0:  # pattern reinterpretation can reach the full range
            amt_lo, amt_hi = 0, (1 << slots[1].width) - 1
        if kind == "<<":
            if out_width is not None:
                amt_lo, amt_hi = min(amt_lo, out_width), min(amt_hi, out_width)
            return _corners(lambda a, s: a << s, r[0], (amt_lo, amt_hi))
        if kind == ">>":
            if r[0][0] >= 0:
                return r[0][0] >> amt_hi, r[0][1] >> amt_lo
            return 0, (1 << slots[0].width) - 1
        return _corners(lambda a, s: a >> s, r[0], (amt_lo, amt_hi))
    if kind == "mux":
        return min(r[1][0], r[2][0]), max(r[1][1], r[2][1])
    if kind == "concat":
        wb = slots[1].width
        if r[0][0] >= 0 and r[1][0] >= 0:
            return (r[0][0] << wb) | 0, (r[0][1] << wb) | r[1][1]
        return 0, (1 << (slots[0].width + wb)) - 1
    if kind == "slice":
        hi, lo = indices
        full = (1 << (hi - lo + 1)) - 1
        if r[0][0] >= 0 and r[0][1] >> lo <= full:
            return r[0][0] >> lo, r[0][1] >> lo
        return 0, full
    if kind in ("==", "<"):
        return 0, 1
    if kind == "zext":
        if r[0][0] >= 0:
            return r[0]
        return 0, (1 << slots[0].width) - 1
    if kind == "sext":
        if slots[0].signed:
            return r[0]
        half = 1 << (slots[0].width - 1)
        if r[0][1] < half:
            return r[0]
        return -half, half - 1
    raise IrError(f"unknown opcode: {kind}")


def fit(lo: int, hi: int, a: Annotation) -> tuple[int, int]:
    """The range of a value in [lo, hi] once coerced into `a`: the same
    range when `a` holds all of it, else every value of `a`, since the
    coercion may wrap.  The one rule by which a range passes a slot or an
    output truncation."""
    if a.lo <= lo and hi <= a.hi:
        return lo, hi
    return a.lo, a.hi


def min_width(lo: int, hi: int, signed: bool) -> int:
    """Smallest width representing every value in [lo, hi] under a signage."""
    if signed:
        w = 1
        while not (-(1 << (w - 1)) <= lo and hi <= (1 << (w - 1)) - 1):
            w += 1
        return w
    if lo < 0:
        raise IrError("negative range cannot be unsigned")
    return max(1, hi.bit_length())
