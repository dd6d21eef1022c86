"""Loop pairs the vectorizer folds into one dim of a loop plan.

Two structural proofs over the IR, each turning a pair of ``scf.for``
loops into a single dim of a :class:`~repro.ir.vectorize.LoopPlan`:

* :func:`match_unroll_pair` — the ``simdlen`` main/remainder pair that
  ``lower-omp-to-hls`` emits at unroll factor > 1 (a dataflow proof);
* :func:`match_tile` — a hand-tiled ``kk``/``k`` pair whose tile body
  only computes the inner loop's bounds.
"""

from __future__ import annotations

from repro.ir.core import Operation, OpResult, SSAValue, semantic_attributes
from repro.ir.vector_program import SUPPORTED, compile_vector_body


def _const_int(value: SSAValue) -> int | None:
    from repro.ir.attributes import IntegerAttr

    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        attr = value.op.attributes.get("value")
        if isinstance(attr, IntegerAttr):
            return attr.value
    return None


def _attr_int(attr) -> int | None:
    from repro.ir.attributes import IntegerAttr

    return attr.value if isinstance(attr, IntegerAttr) else None


def match_unroll_pair(main: Operation, rem: Operation) -> int | None:
    """Prove two sibling loops are the ``simdlen``-unrolled
    main/remainder pair ``lower-omp-to-hls`` emits, returning the unroll
    factor, or None.

    The pair is *semantically* the plain loop ``for iv in [main.lb,
    rem.ub, rem.step)`` running the remainder body.  The proof cannot be
    a linear shape match against the emitter's output: ``canonicalize``
    runs afterwards and constant-folds the per-lane IV derivations,
    CSE's cloned constants, and shares IV-independent subexpressions
    across lanes.  Instead the proof is over the dataflow:

    * ``rem.lb`` is SSA-identical to ``main.ub``;
    * ``main.step`` is ``F * step`` of the remainder step, either as
      ``muli(step, F)`` or as a folded constant multiple;
    * ``main.ub`` is ``lb + (ub - lb) // chunk * chunk`` over the same
      SSA values (so the main loop never overruns the split point);
    * the main body's stores are exactly F lanes of the remainder
      body's stores, in lane order, where every store operand is
      recursively equivalent to its remainder counterpart under the
      lane-k binding ``rem_iv == main_iv + k*step`` — constants compare
      by value (CSE/cloning makes them distinct SSA values), everything
      else by matching op name/attrs/operands;
    * no buffer both loaded and stored in either body, so lane-order
      sharing of loads can never observe a value an earlier lane's
      store would have changed.
    """
    from repro.transforms.loop_analysis import root_memref

    for member in (main, rem):
        if member.results or len(member.regions[0].blocks) != 1:
            return None
        if len(member.regions[0].block.args) != 1:
            return None
    main_body = main.regions[0].block
    rem_body = rem.regions[0].block
    lb, main_ub, chunk = main.operands[:3]
    rem_lb, ub_ex, step = rem.operands[:3]
    if rem_lb is not main_ub:
        return None
    step_c = _const_int(step)
    factor: int | None = None
    if isinstance(chunk, OpResult) and chunk.op.name == "arith.muli":
        c_lhs, c_rhs = chunk.op.operands
        factor = _const_int(c_rhs) if c_lhs is step else (
            _const_int(c_lhs) if c_rhs is step else None
        )
    if factor is None:
        # canonicalize folds muli(const_step, const_F) to one constant
        chunk_c = _const_int(chunk)
        if chunk_c is not None and step_c not in (None, 0):
            factor, rem_f = divmod(chunk_c, step_c)
            if rem_f:
                factor = None
    if factor is None or factor < 2:
        return None
    # main_ub = addi(lb, muli(divsi(subi(ub_ex, lb), chunk), chunk)):
    # guarantees (main_ub - lb) % chunk == 0, so the chunked main loop
    # covers [lb, main_ub) exactly and never overruns the split point.
    if not (isinstance(main_ub, OpResult) and main_ub.op.name == "arith.addi"):
        return None
    mu_lhs, main_len = main_ub.op.operands
    if mu_lhs is not lb:
        return None
    if not (
        isinstance(main_len, OpResult) and main_len.op.name == "arith.muli"
    ):
        return None
    trips_v, chunk_v = main_len.op.operands
    if chunk_v is not chunk:
        return None
    if not (isinstance(trips_v, OpResult) and trips_v.op.name == "arith.divsi"):
        return None
    span_v, chunk_v2 = trips_v.op.operands
    if chunk_v2 is not chunk:
        return None
    if not (isinstance(span_v, OpResult) and span_v.op.name == "arith.subi"):
        return None
    if span_v.op.operands[0] is not ub_ex or span_v.op.operands[1] is not lb:
        return None

    # -- body dataflow equivalence ----------------------------------------
    main_iv, rem_iv = main_body.args[0], rem_body.args[0]
    rem_ops = list(rem_body.ops)
    main_ops = list(main_body.ops)
    for op in rem_ops + main_ops:
        if op.regions:
            return None
        if op.name == "hls.unroll":
            declared = _attr_int(op.attributes.get("factor"))
            if declared is not None and declared != factor:
                return None
        elif not (
            op.name in ("memref.load", "memref.store", "scf.yield")
            or op.name.startswith(("arith.", "math.", "hls."))
        ):
            return None
    # Lane-order execution of shared loads is only equivalent to the
    # plain sequential loop when no store can invalidate a load another
    # lane reuses — require load/store buffer roots to be disjoint.
    for ops in (main_ops, rem_ops):
        store_roots = {
            id(root_memref(op.operands[1]))
            for op in ops
            if op.name == "memref.store"
        }
        for op in ops:
            if op.name == "memref.load":
                if id(root_memref(op.operands[0])) in store_roots:
                    return None
    rem_stores = [op for op in rem_ops if op.name == "memref.store"]
    main_stores = [op for op in main_ops if op.name == "memref.store"]
    if not rem_stores or len(main_stores) != factor * len(rem_stores):
        return None
    rem_op_ids = {id(op) for op in rem_ops}

    def lane_iv(m_val: SSAValue, k: int) -> bool:
        if k == 0 and m_val is main_iv:
            return True
        if not (isinstance(m_val, OpResult) and m_val.op.name == "arith.addi"):
            return False
        a, b = m_val.op.operands
        off = b if a is main_iv else (a if b is main_iv else None)
        if off is None:
            return False
        off_c = _const_int(off)
        if off_c is not None and step_c is not None:
            return off_c == k * step_c
        if isinstance(off, OpResult) and off.op.name == "arith.muli":
            x, y = off.op.operands
            return (x is step and _const_int(y) == k) or (
                y is step and _const_int(x) == k
            )
        return False

    def equiv(
        m_val: SSAValue,
        r_val: SSAValue,
        k: int,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        if r_val is rem_iv:
            return lane_iv(m_val, k)
        key = (id(m_val), id(r_val))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(r_val, OpResult) and id(r_val.op) in rem_op_ids:
            r_op = r_val.op
            ok = False
            if isinstance(m_val, OpResult):
                m_op = m_val.op
                ok = (
                    m_op.name == r_op.name
                    and semantic_attributes(m_op.attributes)
                    == semantic_attributes(r_op.attributes)
                    and m_val.index == r_val.index
                    and m_val.type == r_val.type
                    and len(m_op.operands) == len(r_op.operands)
                    and not m_op.regions
                    and all(
                        equiv(mo, ro, k, memo)
                        for mo, ro in zip(m_op.operands, r_op.operands)
                    )
                )
        else:
            # loop-invariant: same SSA value, or value-equal constants
            # (cloning and CSE leave equal constants as distinct values)
            ok = m_val is r_val or (
                isinstance(m_val, OpResult)
                and isinstance(r_val, OpResult)
                and m_val.op.name == r_val.op.name == "arith.constant"
                and semantic_attributes(m_val.op.attributes)
                == semantic_attributes(r_val.op.attributes)
                and m_val.type == r_val.type
            )
        memo[key] = ok
        return ok

    width = len(rem_stores)
    for k in range(factor):
        memo: dict[tuple[int, int], bool] = {}
        lane = main_stores[k * width : (k + 1) * width]
        for m_store, r_store in zip(lane, rem_stores):
            if (
                len(m_store.operands) != len(r_store.operands)
                or semantic_attributes(m_store.attributes)
                != semantic_attributes(r_store.attributes)
            ):
                return None
            if not all(
                equiv(mo, ro, k, memo)
                for mo, ro in zip(m_store.operands, r_store.operands)
            ):
                return None
    return factor


def match_tile(tile_for: Operation):
    """Match a tiled chain member: ``tile_for``'s body is pure ops plus
    exactly one ``scf.for`` (the *inner* loop) whose lb or ub depends on
    ``tile_for``'s IV — the hand-tiled ``do kk = 1, n, T; do k = kk,
    min(kk+T-1, n)``.  Returns the :class:`_ChainLevel` tile info, None
    when the member is a plain chain level, or the reason a tiled pair
    cannot be one dim."""
    body = tile_for.regions[0].block
    nested = [op for op in body.ops if op.name == "scf.for"]
    if len(nested) != 1:
        return None
    inner_for = nested[0]
    inner_region = inner_for.regions[0]
    if inner_for.results or len(inner_region.blocks) != 1:
        return None
    if len(inner_region.block.args) != 1:
        return None
    ops = [op for op in body.ops if op is not inner_for]
    if any(
        op.regions or op.name not in SUPPORTED or op.name == "memref.store"
        for op in ops
    ):
        return None
    varying = {body.args[0]}
    for op in ops:
        if any(v in varying for v in op.operands):
            varying.update(op.results)
    if not any(v in varying for v in inner_for.operands[:2]):
        return None  # invariant inner bounds: a plain chain level
    if any(op.name == "scf.for" for op in inner_for.walk() if op is not inner_for):
        return "tiled inner loop is not innermost"
    tile_values = {body.args[0], *(r for op in ops for r in op.results)}
    for op in inner_region.block.ops:
        if any(v in tile_values for v in op.operands):
            # only the inner bounds may see the tile IV: the tile body is
            # evaluated over the tile vector, never over the whole space
            return "tile loop values are used inside the tiled loop body"
    return (
        tile_for,
        inner_for,
        max(1, len(body.ops)),
        compile_vector_body(ops, frozenset(), [body.args[0]]),
    )
