"""The vector program: one loop body compiled for whole-space NumPy
evaluation.

Every :class:`~repro.ir.vectorize.LoopPlan` evaluates its loop body (and
the prologue, epilogue and tile-bound bodies around it) through a
:class:`VectorProgram`: :func:`compile_vector_body` translates the ops
*once per loop op* into a small slot-frame program (closures over
integer slot indices, constants prefilled in the template), cached with
the plan, so per-execution cost is just the NumPy work plus one closure
call per body op.  Each op is applied per lane with the scalar
interpreter's semantics; ``SUPPORTED`` names the ops it can evaluate.
"""

from __future__ import annotations

import numpy as np

from repro.ir.core import SSAValue

#: ops that are safe no-ops inside a vectorized body
SKIPPED = {"hls.pipeline", "hls.unroll", "scf.yield", "omp.yield"}

_BINOPS = {
    "arith.addi": np.add, "arith.subi": np.subtract,
    "arith.muli": np.multiply,
    "arith.addf": np.add, "arith.subf": np.subtract,
    "arith.mulf": np.multiply, "arith.divf": np.divide,
    "arith.andi": np.bitwise_and, "arith.ori": np.bitwise_or,
    "arith.xori": np.bitwise_xor,
    "arith.minimumf": np.minimum, "arith.maximumf": np.maximum,
    "arith.minsi": np.minimum, "arith.maxsi": np.maximum,
}
_CMPS = {
    "eq": np.equal, "ne": np.not_equal,
    "slt": np.less, "sle": np.less_equal,
    "sgt": np.greater, "sge": np.greater_equal,
    "olt": np.less, "ole": np.less_equal,
    "ogt": np.greater, "oge": np.greater_equal,
}
_MATH = {
    "math.sqrt": np.sqrt, "math.absf": np.abs, "math.exp": np.exp,
    "math.log": np.log, "math.sin": np.sin, "math.cos": np.cos,
}

SUPPORTED = (
    set(_BINOPS)
    | set(_MATH)
    | SKIPPED
    | {
        "arith.constant", "arith.cmpi", "arith.cmpf", "arith.select",
        "arith.index_cast", "arith.extsi", "arith.trunci",
        "arith.sitofp", "arith.fptosi", "arith.extf", "arith.truncf",
        "arith.divsi", "arith.remsi",
        "memref.load", "memref.store",
    }
)


def _trunc_divide(a, b):
    """``arith.divsi`` with the scalar engine's exact semantics:
    ``int(math.trunc(a / b))`` — truncating division *via float64*,
    including its precision behaviour."""
    return np.trunc(np.divide(a, b)).astype(np.int64)


class VectorProgram:
    """Compiled whole-iteration-space evaluator for one loop body.

    Frame slot 0 holds the instruction tuple itself, so a run needs only
    one template copy plus the outer-value fetches.  ``iv_slots`` holds
    one slot per induction variable.
    """

    __slots__ = ("template", "slots", "iv_slots", "outer", "fetched")

    def __init__(self, template, slots, iv_slots, outer):
        self.template = template
        self.slots = slots
        self.iv_slots = iv_slots
        #: loop-invariant values fetched from the interpreter env per run
        self.outer = outer
        self.fetched = frozenset(value for _, value in outer)

    def lookup(self, frame, interp, env):
        """``value(v)`` over a run's ``frame``: the program's slot for
        ``v``, else the interpreter environment."""
        slots = self.slots

        def value(v: SSAValue):
            slot = slots.get(v)
            if slot is not None:
                return frame[slot]
            return interp.get(env, v)

        return value

    def run(self, interp, env, ivs, resolve=None) -> list:
        """Evaluate over ``ivs`` (one vector per iv slot).  Outer values
        come from the interpreter environment, or through ``resolve`` —
        the ragged runner feeds per-row values (prologue results repeated
        per segment, the folded accumulator preset for the epilogue
        readback) that way."""
        frame = self.template.copy()
        for slot, vec in zip(self.iv_slots, ivs):
            frame[slot] = vec
        if resolve is None:
            try:
                for slot, value in self.outer:
                    frame[slot] = env[value]
            except KeyError:  # ``interp.get`` raises the typed error
                for slot, value in self.outer:
                    frame[slot] = interp.get(env, value)
        else:
            for slot, value in self.outer:
                frame[slot] = resolve(value)
        for instr in frame[0]:
            instr(frame)
        return frame


class _VectorCompiler:
    def __init__(self):
        self.slots: dict[SSAValue, int] = {}
        #: slot 0 holds the instruction tuple itself (frame is self-contained)
        self.template: list = [None]
        self.outer: list[tuple[int, SSAValue]] = []
        self.instrs: list = []

    def dst(self, value: SSAValue) -> int:
        slot = self.slots.get(value)
        if slot is None:
            slot = self.slots[value] = len(self.template)
            self.template.append(None)
        return slot

    def src(self, value: SSAValue) -> int:
        slot = self.slots.get(value)
        if slot is None:
            slot = self.dst(value)
            self.outer.append((slot, value))
        return slot


def compile_vector_body(
    ops, skip: frozenset[int], ivs
) -> VectorProgram:
    """Translate the (already validated) op sequence into a vector
    program.  ``ivs`` holds one induction-variable value per nest
    dimension (rank-n nests gather them from several blocks)."""
    from repro.ir.attributes import FloatAttr, IntegerAttr, StringAttr
    from repro.ir.types import FloatType

    ctx = _VectorCompiler()
    iv_slots = tuple(ctx.dst(iv) for iv in ivs)

    for op in ops:
        name = op.name
        if name in SKIPPED or id(op) in skip:
            continue
        if name == "arith.constant":
            attr = op.attributes["value"]
            if isinstance(attr, IntegerAttr):
                ctx.template[ctx.dst(op.results[0])] = attr.value
            elif isinstance(attr, FloatAttr):
                ctx.template[ctx.dst(op.results[0])] = (
                    np.float32(attr.value) if attr.width == 32 else attr.value
                )
            continue
        if name in _BINOPS or name in ("arith.divsi", "arith.remsi",
                                       "arith.cmpi", "arith.cmpf"):
            if name in _BINOPS:
                fn = _BINOPS[name]
            elif name == "arith.divsi":
                fn = _trunc_divide
            elif name == "arith.remsi":
                fn = np.fmod  # trunc-style remainder, like math.fmod
            else:
                predicate = op.attributes["predicate"]
                assert isinstance(predicate, StringAttr)
                fn = _CMPS[predicate.value]
            a, b = ctx.src(op.operands[0]), ctx.src(op.operands[1])
            r = ctx.dst(op.results[0])

            def instr(frame, _fn=fn, _a=a, _b=b, _r=r):
                frame[_r] = _fn(frame[_a], frame[_b])
            ctx.instrs.append(instr)
            continue
        if name == "arith.select":
            c, t, f = (ctx.src(o) for o in op.operands)
            r = ctx.dst(op.results[0])

            def instr(frame, _c=c, _t=t, _f=f, _r=r):
                frame[_r] = np.where(frame[_c], frame[_t], frame[_f])
            ctx.instrs.append(instr)
            continue
        if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
            # width-preserving in the reference interpreter: alias the slot
            ctx.slots[op.results[0]] = ctx.src(op.operands[0])
            continue
        if name in ("arith.sitofp", "arith.fptosi", "arith.extf",
                    "arith.truncf"):
            if name == "arith.sitofp":
                ty = op.results[0].type
                dtype = (
                    np.float32
                    if isinstance(ty, FloatType) and ty.width == 32
                    else np.float64
                )
            elif name == "arith.fptosi":
                dtype = np.int64
            elif name == "arith.extf":
                dtype = np.float64
            else:
                dtype = np.float32
            s = ctx.src(op.operands[0])
            r = ctx.dst(op.results[0])

            def instr(frame, _s=s, _r=r, _dtype=dtype):
                frame[_r] = np.asarray(frame[_s]).astype(_dtype)
            ctx.instrs.append(instr)
            continue
        if name in _MATH:
            fn = _MATH[name]
            s = ctx.src(op.operands[0])
            r = ctx.dst(op.results[0])

            def instr(frame, _fn=fn, _s=s, _r=r):
                frame[_r] = _fn(frame[_s])
            ctx.instrs.append(instr)
            continue
        if name == "memref.load":
            m = ctx.src(op.operands[0])
            idx = tuple(ctx.src(i) for i in op.operands[1:])
            r = ctx.dst(op.results[0])
            if not idx:
                def instr(frame, _m=m, _r=r):
                    frame[_r] = frame[_m][()]
            elif len(idx) == 1:
                def instr(frame, _m=m, _i=idx[0], _r=r):
                    frame[_r] = frame[_m][frame[_i]]
            else:
                def instr(frame, _m=m, _idx=idx, _r=r):
                    frame[_r] = frame[_m][tuple(frame[i] for i in _idx)]
            ctx.instrs.append(instr)
            continue
        if name == "memref.store":
            v = ctx.src(op.operands[0])
            m = ctx.src(op.operands[1])
            idx = tuple(ctx.src(i) for i in op.operands[2:])
            if len(idx) == 1:
                def instr(frame, _v=v, _m=m, _i=idx[0]):
                    frame[_m][frame[_i]] = frame[_v]
            else:
                def instr(frame, _v=v, _m=m, _idx=idx):
                    frame[_m][tuple(frame[i] for i in _idx)] = frame[_v]
            ctx.instrs.append(instr)
            continue
        raise AssertionError(f"vectorizer admitted unsupported op {name}")

    ctx.template[0] = tuple(ctx.instrs)
    return VectorProgram(ctx.template, ctx.slots, iv_slots, tuple(ctx.outer))

