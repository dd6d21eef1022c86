"""Vectorized loop execution for the interpreter.

Interpreting multi-million-trip loops op by op in Python is slow, so a
loop whose behaviour is provable runs as NumPy over its whole iteration
space.  :func:`classify` analyses a loop once (the result is cached on
the IR root) into one :class:`LoopPlan` or a bail-out reason, and
:func:`run_vectorized` is the single runtime entry point: it returns the
loop's results, or None to let the scalar walk run.  A plan has three
parts.

**Dims** — the iteration space, outermost first:

* the root loop's own dims: one for ``scf.for``, n for ``omp.loop_nest``;
* a *perfect chain* of ``scf.for`` loops below the root (the form
  ``lower-omp-to-hls`` emits for ``collapse(n)``), one dim per member.
  Member bounds must not vary with a nest IV; the IV-independent body
  ops they read form a per-level *prelude*, pre-evaluated (step-neutral)
  only when the scalar walk would reach that level;
* a re-stitched ``simdlen`` pair: the main/remainder loops
  ``lower-omp-to-hls`` emits at unroll factor > 1, proven an F-fold
  clone by :func:`~repro.ir.loop_pairs.match_unroll_pair`, become one dim spanning
  ``[main.lb, remainder.ub)`` run by the remainder body;
* a *tiled* pair (:func:`~repro.ir.loop_pairs.match_tile`): a chain member whose body is
  pure ops plus one innermost ``scf.for`` whose bounds depend on the
  member's IV, and whose IV and body values feed only those bounds —
  the hand-tiled ``do kk = 1, n, T; do k = kk, min(kk+T-1, n)``.  The
  pair is one dim: the tile body runs over the tile IV vector, and the
  dim's index vector is the in-order concatenation of the per-tile
  ranges, runtime-proved strictly increasing before anything is
  written (overlapping tiles bail).  The tile body is charged once per
  tile; the tile loop is observed once per outer point and the inner
  loop once per tile, batched by trip count.  A tile loop may be the
  root itself: it then has no dim of its own, and the tiled dim is the
  first;
* a *ragged* dim: an outer loop whose body is ``prologue / inner fold
  loop / epilogue`` with inner bounds affine in the outer IV
  (triangular ``j = k+1, n``) or loaded from an offset array (CSR row
  loops).  The flat space comes from prefix sums of the per-row trip
  counts; offset-array bounds are runtime-proved monotone non-decreasing.

**Accesses** — every subscript is affine in one IV, invariant, or a
*gather*: loaded from an index array nothing in the loop stores to
(``transforms.loop_analysis`` kind ``indirect``).  Gathers are safe for
loads.  The body compiles once into a slot-frame program
(:class:`~repro.ir.vector_program.VectorProgram`) that evaluates every
access over the space.

**Effects** — what the body writes, each bit-identical to the scalar walk:

* *elementwise stores* with injective (affine) subscripts, applied in
  place by the program.  A rank-1 loop must have no loop-carried
  dependence (:func:`~repro.transforms.loop_analysis.loop_carried_dependences`)
  and no two stores that could hit one cell in different iterations; a
  nest must cover every dim and load no buffer it stores;
* *ordered folds* ``cell = combine(cell, expr)`` (add/mul/min/max) along
  the innermost dim, into ``scf.for`` iter_args or a memref cell (the
  frontend's ``h(bins(i))`` histogram shape included: the load and store
  subscripts need only be *provably equal*).  The kernel follows from
  the plan: an ordered ``accumulate`` per row when the cell is invariant
  along the fold dim, in-order ``ufunc.at`` when it varies, is indirect,
  or the rows are ragged.  Both combine strictly in iteration order, so
  float32 folds match the scalar walk bit for bit (no pairwise
  ``np.sum``);
* a *scratch-cell fold* (:class:`_Frame`, shared with the ragged dim's
  prologue/epilogue): the level directly above the fold dim
  re-initialises one invariant cell at every outer point (``t =
  c(i, j)``), the fold dim accumulates into it, and the epilogue reads
  it back and stores injectively over the outer points (``c(i, j) =
  t``).  The prologue runs over the outer points, the fold expression
  over outer points x fold dim by broadcasting, each row folds in order
  from its own init, and the epilogue runs with the readback preset to
  the folded rows; the cell keeps the last outer point's value, like
  the scalar walk leaves it.  A prologue or epilogue may read the very
  cell an epilogue store writes (each outer point's own cell);
* *deferred scatter stores* ``A[idx(i)] = expr`` through a gather
  subscript.  Whole-space fancy assignment does not keep scalar order
  for duplicate indices, so every store waits until each passes the
  injectivity lattice, strongest proof first: ``affine`` (static, a
  subscript dim ``a*iv + b`` with ``a != 0``), ``monotone`` (O(n)),
  ``unique`` or a tuple-wise ``lexsort`` (O(n log n)).  A failed proof
  has mutated nothing.

**Runtime proofs and accounting.**  A NaN in a min/max fold, a failed
injectivity or monotone proof, overlapping tiles, a non-positive inner
step, and a min/max or scatter space too large for one pass all bail
before any write, with
a reason logged on this module's logger, and the scalar walk reruns the
loop.  A space under ``_MIN_TRIPS`` iterations stays scalar (constant
factors) unless the plan drops the floor: a rank-1 loop whose bounds are
runtime data (a *span*, SGESL's hoisted ``j = k+1, n``) has none, so the
tail of a triangular launch sweep never falls off the fast tier.
Rank-n spaces over ``_MAX_NEST_ELEMS`` (1M points) run one outer slice
at a time.  Step and loop-observer (cycle) accounting replay the scalar
walk exactly; observer calls are batched by count, and modelled cycles
are integer-valued floats, so the sums stay exact.

Float32 note: NumPy applies the scalar interpreter's operation per lane
with no reassociation.  min/max use ``np.minimum``/``np.maximum``, which
are order-insensitive for finite values, leaving only the sign of zero
on ties as a potential bit difference.  Integer folds accumulate in
int64 (the scalar engine is unbounded).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.ir.core import (
    Block,
    BlockArgument,
    Operation,
    OpResult,
    SSAValue,
)
from repro.ir.loop_pairs import match_tile, match_unroll_pair
from repro.ir.vector_program import (
    SKIPPED,
    SUPPORTED,
    VectorProgram,
    compile_vector_body,
)

#: Bail-out diagnostics: enable with
#: ``logging.getLogger("repro.ir.vectorize").setLevel(logging.DEBUG)`` to
#: see why a hot loop fell back to the scalar tier.
logger = logging.getLogger("repro.ir.vectorize")

#: reduction combiners and their NumPy ufuncs
_REDUCERS = {
    "arith.addf": np.add, "arith.addi": np.add,
    "arith.mulf": np.multiply, "arith.muli": np.multiply,
    "arith.minimumf": np.minimum, "arith.minsi": np.minimum,
    "arith.maximumf": np.maximum, "arith.maxsi": np.maximum,
}

#: below this trip count the scalar engines win on constant factors
_MIN_TRIPS = 64

#: rank-n nests above this many total iterations are evaluated one
#: outermost slice at a time to bound the whole-space temporaries
_MAX_NEST_ELEMS = 1 << 20


def _body_is_vectorizable(body: Block) -> bool:
    return all(not op.regions and op.name in SUPPORTED for op in body.ops)


def _load_index_ok(idx: SSAValue, iv: SSAValue, body: Block) -> bool:
    # ``indirect`` covers the full gather chain (cast/addi/subi/muli
    # around a load from an un-stored index array) — SpMV's
    # ``x(col_idx(jj) - 1)`` wraps the loaded index in a Fortran 1-based
    # adjustment.
    from repro.transforms.loop_analysis import classify_index

    return classify_index(idx, iv, body).kind in (
        "affine", "invariant", "indirect",
    )


def _stores_conflict(
    first: Operation, second: Operation, iv: SSAValue, body: Block, step
) -> bool:
    """True when two stores to one buffer might touch the same cell in
    *different* iterations — whole-space evaluation runs each store over
    the full index vector in op order, which would reorder such writes.

    Safe cases: identical subscripts in every dim (per-cell op order is
    preserved), or some dim on provably disjoint affine lattices (the
    unroll-by-F clones write interleaved strides and never collide).
    """
    from repro.transforms.loop_analysis import _exact_offset, classify_index

    if len(first.operands) != len(second.operands):
        return True
    for wa, wb in zip(first.operands[2:], second.operands[2:]):
        if wa is wb:
            continue  # same subscript value: same cell in this dim
        pa = classify_index(wa, iv, body)
        pb = classify_index(wb, iv, body)
        if (
            pa.kind == "affine"
            and pb.kind == "affine"
            and pa.parameter == pb.parameter
            and _exact_offset(wa, iv, body)
            and _exact_offset(wb, iv, body)
        ):
            delta = pa.offset - pb.offset
            if delta == 0:
                continue  # same cell in this dim every iteration
            stride = pa.parameter * (step or 1)
            if step is not None and delta % stride != 0:
                return False  # disjoint lattices: never the same cell
            return True  # collide after |delta/stride| iterations
        return True  # incomparable subscripts: assume conflict
    return False


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ChainLevel:
    """One extra dim contributed by a perfect-chain member.

    ``bounds`` is the ``(lb, exclusive ub, step)`` value triple of the
    dim (for a stitched main/remainder pair: the main loop's lb, the
    remainder's ub and step — together they span the original,
    un-unrolled range; for a tiled pair: the tile loop's).  ``stitch``
    is None for a plain ``scf.for`` member, else ``(main_for, rem_for,
    main_opcount, rem_opcount)`` for a proven ``simdlen`` pair whose
    step/observer accounting must charge *both* loops like the scalar
    walk does.  ``tile`` is ``(tile_for, inner_for, tile_opcount,
    bounds_program)`` for a tiled pair: ``bounds_program`` evaluates the
    tile body over the tile IV vector, giving the inner loop's per-tile
    bounds; the dim's index vector is the in-order concatenation of the
    per-tile ranges.
    """

    bounds: tuple[SSAValue, SSAValue, SSAValue]
    stitch: tuple[Operation, Operation, int, int] | None = None
    tile: tuple[Operation, Operation, int, VectorProgram] | None = None


@dataclass(frozen=True)
class _Fold:
    """An ordered fold ``cell = combine(cell, expr)`` along the innermost
    dim: into iter_arg ``position`` when ``acc`` is None, else into the
    memref cell ``acc[cell]``.  ``ordered`` picks the kernel: one ordered
    ``accumulate`` per row when the cell is invariant along the fold dim,
    in-order ``ufunc.at`` otherwise.  ``skip`` holds the ids of the ops
    (load/combiner/store) the vector program leaves to the fold."""

    op_name: str
    expr: SSAValue
    acc: SSAValue | None
    cell: tuple[SSAValue, ...]
    skip: frozenset[int]
    ordered: bool = True
    position: int = 0


@dataclass(frozen=True)
class _Frame:
    """The prologue / epilogue around a fold dim, run once per outer
    point (a row of a segmented nest, an outer point of a rectangular
    one).

    ``row_program`` evaluates the prologue over the outer IV vectors (per
    row inner bounds, the accumulator init, epilogue subscripts); the
    plan's program evaluates the fold expression over the whole space;
    ``epilogue_program`` then runs per outer point with the accumulator
    readback preset to the folded values.
    """

    init_value: SSAValue | None  # prologue accumulator-init stored value
    readback: Operation | None  # epilogue accumulator load (preset)
    row_program: VectorProgram
    epilogue_program: VectorProgram


@dataclass(frozen=True)
class _Ragged:
    """The ragged inner dim of a segmented nest.

    ``needs_monotone`` names the bounds (``"lb"``/``"ub"``) loaded from
    an offset array.  ``shared`` is True when the accumulator cell is
    invariant across rows (SpMV's scratch cell: re-initialised by the
    prologue, read back by the epilogue); False means one cell per row
    (``y(k) += ...``), written back per row.
    """

    loop: Operation  # the inner loop, observed once per row
    bounds: tuple[SSAValue, SSAValue, SSAValue]
    needs_monotone: tuple[str, ...]
    shared: bool


@dataclass(frozen=True)
class LoopPlan:
    """How one loop runs whole-space: dims, the access program, effects.

    ``mode`` is the reported shape (see :func:`loop_vector_mode`).  Dims:
    ``ivs`` holds one induction variable per dim, the first
    ``root_dims`` of them the root loop's own; ``chain`` the perfect
    chain levels below it; ``ragged`` the segmented inner dim.  Effects:
    ``folds``; ``frame``, the prologue/epilogue around a fold (every
    segmented plan, and a rectangular nest folding into one scratch
    cell); ``deferred`` scatter stores with, per store, the
    subscript dims whose values must pass the runtime injectivity proof
    as a tuple (``proof_dims``, empty when statically injective).

    Accounting replays the scalar walk: each ``(dims, ops)`` in
    ``charge_specs`` charges ``ops`` steps per execution of the depth
    ``dims`` body; ``observer_specs`` fire the loop observer for each
    chain member as often as the scalar walk would (stitched and tiled
    levels charge and observe through their stitch / tile info);
    ``prelude`` holds one tuple of bound-feeding ops per chain level.
    ``floor`` is the minimum trip count worth vectorizing.
    """

    mode: str
    ivs: tuple[SSAValue, ...]
    root_dims: int
    program: VectorProgram
    charge_specs: tuple[tuple[int, int], ...]
    chain: tuple[_ChainLevel, ...] = ()
    ragged: _Ragged | None = None
    folds: tuple[_Fold, ...] = ()
    frame: _Frame | None = None
    deferred: tuple[Operation, ...] = ()
    proof_dims: tuple[tuple[int, ...], ...] = ()
    observer_specs: tuple[tuple[int, Operation], ...] = ()
    prelude: tuple[tuple[Operation, ...], ...] = ()
    floor: int = _MIN_TRIPS


# ---------------------------------------------------------------------------
# Cached classification
# ---------------------------------------------------------------------------
#
# The cache hangs off the *root* op of the module/function the loop
# lives in (``Operation.analysis_cache``), so cached plans — which hold
# strong references to body ops and, through ``.parent`` chains, the
# whole module — live exactly as long as the module itself.  Entries are
# keyed by ``id(loop)`` with the loop op kept in the value, so an id
# recycled by the allocator can never alias a stale entry.


def _cache_for(loop: Operation) -> dict:
    # the root walk runs on every dispatch: plain attribute hops (op ->
    # block -> region -> op) instead of the ``parent_op`` property
    root = loop
    block = loop.parent
    while block is not None and block.parent is not None:
        if block.parent.parent is None:
            break
        root = block.parent.parent
        block = root.parent
    cache = getattr(root, "analysis_cache", None)
    if cache is None:
        cache = root.analysis_cache = {}
    return cache


def classify(loop: Operation) -> LoopPlan | str:
    """The loop's :class:`LoopPlan`, or the reason it has none (logged
    at DEBUG as a ``scalar bail-out``).  Cached per loop op."""
    cache = _cache_for(loop)
    hit = cache.get(id(loop))
    if hit is not None and hit[0] is loop:
        return hit[1]
    result = _analyze(loop)
    cache[id(loop)] = (loop, result)
    return result


def loop_vector_mode(loop: Operation) -> tuple[str | None, LoopPlan | None]:
    """``(mode, plan)`` for a classified loop, ``(None, None)`` when it
    bails.  Modes: ``elementwise``, ``scatter_store``,
    ``memref_reduction`` and ``iter_reduction`` for rank-1 loops;
    ``nest_elementwise``, ``nest_reduction`` and ``nest_scatter`` for
    rank-n nests; ``nest_segmented`` for ragged nests and runtime-bounded
    rank-1 spans."""
    plan = classify(loop)
    if isinstance(plan, LoopPlan):
        return plan.mode, plan
    return None, None


def invalidate_analysis(root: Operation) -> None:
    """Drop cached loop classifications under ``root`` (after in-place
    mutation; :func:`repro.ir.compile.invalidate_compilation` drops the
    whole root cache, compilations included)."""
    cache = _cache_for(root)
    for op in root.walk():
        cache.pop(id(op), None)


def _bail(kind: str, reason: str, detail: str = "") -> str:
    logger.debug(
        "scalar bail-out: %s loop not vectorized: %s%s", kind, reason, detail
    )
    return reason


def _analyze(loop: Operation) -> LoopPlan | str:
    body = loop.regions[0].block
    generic = (
        f"no elementwise, reduction or scatter shape "
        f"({len(body.ops)} body ops)"
    )
    if loop.name != "omp.loop_nest" and len(body.args) != 1:
        folds = _iter_folds(loop)
        if folds is None:
            return _bail(loop.name, generic)
        return _rank1_plan(loop, "iter_reduction", folds=folds)
    walk = _walk_dims(loop)
    if not isinstance(walk, str) and len(walk[0]) == 1 and not walk[2]:
        effects = _rank1_effects(loop, body, body.args[0])
        if isinstance(effects, dict):
            return _rank1_plan(loop, **effects)
        if effects is not None:
            return _bail("scatter-store", effects)
        return _bail(loop.name, generic)
    plan = walk if isinstance(walk, str) else _nest_plan(walk)
    if isinstance(plan, LoopPlan):
        return plan
    # imperfect nests get a second chance as a segmented (ragged) nest
    segmented = _segmented_plan(loop) if len(body.args) == 1 else None
    if isinstance(segmented, LoopPlan):
        return segmented
    detail = f"; as a segmented nest: {segmented}" if segmented else ""
    return _bail(f"rank-{_chain_depth(loop)} {loop.name} nest", plan, detail)


# ---------------------------------------------------------------------------
# Dims: the perfect chain, stitched simdlen pairs and tiled pairs
# ---------------------------------------------------------------------------


def _chain_depth(loop: Operation) -> int:
    """Depth of the perfect loop chain rooted at ``loop`` (diagnostics)."""
    depth = len(loop.regions[0].block.args) if loop.name == "omp.loop_nest" else 1
    body = loop.regions[0].block
    while True:
        nested = [op for op in body.ops if op.name == "scf.for"]
        if len(nested) != 1:
            return depth
        depth += 1
        body = nested[0].regions[0].block


def _walk_dims(loop: Operation):
    """Walk the perfect chain below ``loop``.  Returns ``(ivs, root_dims,
    chain, charge_specs, observer_specs, extras_by_level, innermost)`` —
    ``extras_by_level`` holding the non-loop ops of each body that
    contains a chain member — or the reason the chain is not perfect."""
    root_body = loop.regions[0].block
    if loop.name == "omp.loop_nest":
        ivs = list(root_body.args)
    else:
        ivs = [root_body.args[0]]
    chain: list[_ChainLevel] = []
    charge_specs: list[tuple[int, int]] = []
    observer_specs: list[tuple[int, Operation]] = []
    extras_by_level: list[list[Operation]] = []
    body = root_body
    root_tile = match_tile(loop) if loop.name == "scf.for" else None
    if isinstance(root_tile, str):
        root_tile = None  # a plain root: its own bail reasons apply
    if root_tile is not None:
        # A tile loop at the root has no dim of its own: the tiled loop's
        # IV is the first dim, and the caller observes the root itself.
        chain.append(_ChainLevel(
            bounds=tuple(loop.operands[:3]), tile=root_tile
        ))
        extras_by_level.append([])
        body = root_tile[1].regions[0].block
        ivs = [body.args[0]]
    root_dims = len(ivs) - len(chain)
    while True:
        charge_specs.append((len(ivs), max(1, len(body.ops))))
        nested = [op for op in body.ops if op.name == "scf.for"]
        if not nested:
            break
        stitch_factor = None
        if len(nested) == 2:
            stitch_factor = match_unroll_pair(nested[0], nested[1])
        if len(nested) > 1 and stitch_factor is None:
            return "body contains multiple nested loops"
        if stitch_factor is not None:
            main_for, rem_for = nested
            rem_body = rem_for.regions[0].block
            if any(op.name == "scf.for" for op in rem_body.ops):
                return "stitched main/remainder pair is not innermost"
            level_loops = (main_for, rem_for)
        else:
            inner_for = nested[0]
            if inner_for.results or len(inner_for.regions[0].blocks) != 1:
                return "nested loop carries iter_args"
            inner_body = inner_for.regions[0].block
            if len(inner_body.args) != 1:
                return "nested loop carries iter_args"
            tile = match_tile(inner_for)
            if isinstance(tile, str):
                return tile
            level_loops = (inner_for,)
        level_extras: list[Operation] = []
        for op in body.ops:
            if op in level_loops:
                continue
            if op.regions or op.name not in SUPPORTED:
                return "body has nested regions or unsupported ops"
            if op.name not in SKIPPED:
                level_extras.append(op)
        extras_by_level.append(level_extras)
        if stitch_factor is not None:
            # The proven pair is semantically one loop over
            # [main.lb, rem.ub, rem.step) running the remainder body;
            # steps/cycles still charge both loops via the stitch info.
            chain.append(_ChainLevel(
                bounds=(
                    main_for.operands[0],
                    rem_for.operands[1],
                    rem_for.operands[2],
                ),
                stitch=(
                    main_for,
                    rem_for,
                    max(1, len(main_for.regions[0].block.ops)),
                    max(1, len(rem_body.ops)),
                ),
            ))
            ivs.append(rem_body.args[0])
            body = rem_body
            break
        if tile is not None:
            # The pair is one dim: the tiled loop's IV runs over the
            # per-tile ranges in order; the tile loop's charges and
            # observer calls come from the tile info.
            chain.append(_ChainLevel(
                bounds=tuple(inner_for.operands[:3]), tile=tile
            ))
            body = tile[1].regions[0].block
            ivs.append(body.args[0])
            continue
        observer_specs.append((len(ivs), inner_for))
        chain.append(_ChainLevel(bounds=tuple(inner_for.operands[:3])))
        ivs.append(inner_body.args[0])
        body = inner_body
    return (
        ivs, root_dims, chain, charge_specs, observer_specs,
        extras_by_level, body,
    )


def _defined_outside(value: SSAValue, root_body: Block) -> bool:
    """True when ``value`` is defined outside the nest entirely."""
    if isinstance(value, BlockArgument):
        block = value.block
        while block is not None:
            if block is root_body:
                return False
            parent_op = block.parent.parent if block.parent else None
            if parent_op is None:
                return True
            block = parent_op.parent
        return True
    if isinstance(value, OpResult):
        from repro.transforms.loop_analysis import _defined_inside

        return not _defined_inside(value.op, root_body)
    return False


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------


def _rank1_plan(loop: Operation, mode: str, **fields) -> LoopPlan:
    """A plan over the loop's own (single) dim: the induction variable is
    the sole iv slot (iter_args feed skipped combiners, never the
    program)."""
    body = loop.regions[0].block
    skip = frozenset(id(op) for op in fields.get("deferred", ()))
    for fold in fields.get("folds", ()):
        skip |= fold.skip
    return LoopPlan(
        mode=mode,
        ivs=(body.args[0],),
        root_dims=1,
        program=compile_vector_body(list(body.ops), skip, [body.args[0]]),
        charge_specs=((1, max(1, len(body.ops))),),
        **fields,
    )


def _rank1_effects(loop: Operation, body: Block, iv: SSAValue):
    """Effects of a straight-line rank-1 body, tried in order: elementwise
    stores, a memref fold, deferred scatter stores.  Returns the plan
    fields, a reason when the body looks like a scatter but fails a
    proof obligation, or None when it has no vector shape."""
    from repro.transforms.loop_analysis import (
        bound_is_runtime,
        classify_index,
        loop_carried_dependences,
        root_memref,
        static_loop_step,
    )

    if not _body_is_vectorizable(body):
        return None
    stores = [op for op in body.ops if op.name == "memref.store"]
    loads = [op for op in body.ops if op.name == "memref.load"]
    loads_ok = all(
        _load_index_ok(idx, iv, body) for op in loads for idx in op.operands[1:]
    )
    kinds = [
        [classify_index(idx, iv, body).kind for idx in op.operands[2:]]
        for op in stores
    ]
    # Elementwise: every store subscript injective (an affine dim, the
    # rest invariant), no loop-carried dependence, and no two stores to
    # one buffer that could hit one cell in different iterations
    # (dependence analysis only relates stores to loads).
    if loads_ok and all(
        "affine" in k and set(k) <= {"affine", "invariant"} for k in kinds
    ):
        by_root: dict[int, list[Operation]] = {}
        for op in stores:
            by_root.setdefault(id(root_memref(op.operands[1])), []).append(op)
        step = static_loop_step(loop)
        conflict = any(
            _stores_conflict(first, other, iv, body, step)
            for group in by_root.values()
            for i, first in enumerate(group)
            for other in group[i + 1 :]
        )
        if not conflict and not loop_carried_dependences(loop):
            if bound_is_runtime(loop.operands[0]) or bound_is_runtime(
                loop.operands[1]
            ):
                # a span: a runtime-bounded loop is one runtime segment —
                # no static minimum-trip floor (the triangular cliff)
                return {"mode": "nest_segmented", "floor": 0}
            return {"mode": "elementwise"}
    fold = _memref_fold(body, iv)
    if fold is not None:
        ordered = all(
            classify_index(idx, iv, body).kind == "invariant"
            for idx in fold.cell
        )
        return {
            "mode": "memref_reduction",
            "folds": (replace(fold, ordered=ordered),),
        }
    # Scatter: at least one gather store subscript, every store proved
    # injective statically (an affine dim) or by the runtime proof over
    # its gather dims.
    store_roots: set[int] = set()
    proof_dims: list[tuple[int, ...]] = []
    for op, k in zip(stores, kinds):
        if len(op.operands) == 2:
            return None  # rank-0 store: the reduction form's territory
        root = id(root_memref(op.operands[1]))
        if root in store_roots:
            return "two scatter stores to one buffer cannot be ordered"
        store_roots.add(root)
        if not set(k) <= {"affine", "indirect", "invariant"}:
            return (
                "store subscript is neither affine nor a gather from an "
                "un-stored index array"
            )
        gathers = tuple(dim for dim, kind in enumerate(k) if kind == "indirect")
        if not gathers and "affine" not in k:
            return None  # invariant-only subscript: not a scatter
        proof_dims.append(() if "affine" in k else gathers)
    if not any("indirect" in k for k in kinds):
        return None  # plain affine stores: the elementwise path's job
    if {id(root_memref(op.operands[0])) for op in loads} & store_roots:
        return (
            "a scattered-to buffer is also read in the body, so deferred "
            "store application could reorder a read-after-write"
        )
    if not loads_ok:
        return "load subscript is not affine/invariant/gather"
    return {
        "mode": "scatter_store",
        "deferred": tuple(stores),
        "proof_dims": tuple(proof_dims),
    }


def _iter_folds(loop: Operation) -> tuple[_Fold, ...] | None:
    """Folds into ``scf.for`` iter_args: each ``%acc`` feeds exactly one
    ``combine(%acc, %expr)`` whose result is yielded in its position,
    with ``%expr`` elementwise and independent of the accumulators."""
    if loop.name != "scf.for":
        return None
    body = loop.regions[0].block
    last = body.ops[-1] if body.ops else None
    if last is None or last.name != "scf.yield":
        return None
    if len(last.operands) != len(body.args) - 1:
        return None
    iv = body.args[0]
    combiners: list[tuple[str, SSAValue, int]] = []
    combiner_ids: set[int] = set()
    for position, acc in enumerate(body.args[1:]):
        if len(acc.uses) != 1:
            return None
        combiner = acc.uses[0].operation
        if combiner.parent is not body or combiner.name not in _REDUCERS:
            return None
        if len(combiner.results) != 1 or len(combiner.operands) != 2:
            return None
        result = combiner.results[0]
        if len(result.uses) != 1:
            return None
        yield_use = result.uses[0]
        if yield_use.operation is not last or yield_use.index != position:
            return None
        lhs, rhs = combiner.operands
        expr = rhs if lhs is acc else lhs if rhs is acc else None
        if expr is None:
            return None
        combiners.append((combiner.name, expr, position))
        combiner_ids.add(id(combiner))
    for op in body.ops:
        if id(op) in combiner_ids or op is last:
            continue
        if op.regions or op.name not in SUPPORTED:
            return None
        if op.name == "memref.store":
            return None
        if op.name == "memref.load":
            for idx in op.operands[1:]:
                if not _load_index_ok(idx, iv, body):
                    return None
    skip = frozenset(combiner_ids)
    return tuple(
        _Fold(name, expr, None, (), skip, position=position)
        for name, expr, position in combiners
    )


def _memref_fold(body: Block, iv: SSAValue) -> _Fold | None:
    """The ``P[idx] = combine(P[idx], expr)`` accumulator shape in
    ``body``, folded along ``iv`` — the loop IV of a rank-1 loop, the
    innermost dim of a nest, or the inner loop of a segmented nest."""
    from repro.transforms.loop_analysis import index_values_equal, root_memref

    if not _body_is_vectorizable(body):
        return None
    stores = [op for op in body.ops if op.name == "memref.store"]
    if len(stores) != 1:
        return None
    store = stores[0]
    stored = store.operands[0]
    if not isinstance(stored, OpResult):
        return None
    combiner = stored.op
    if combiner.parent is not body or combiner.name not in _REDUCERS:
        return None
    if len(stored.uses) != 1:  # combiner feeds the store and nothing else
        return None
    acc_root = root_memref(store.operands[1])
    load = None
    expr = None
    for candidate, other in (
        (combiner.operands[0], combiner.operands[1]),
        (combiner.operands[1], combiner.operands[0]),
    ):
        if not isinstance(candidate, OpResult):
            continue
        source = candidate.op
        if (
            source.name == "memref.load"
            and source.parent is body
            and root_memref(source.operands[0]) is acc_root
            and len(candidate.uses) == 1
            and len(source.operands) - 1 == len(store.operands) - 2
            # Provably equal subscripts: SSA-identical, or structurally
            # equal chains (two separate loads of the same index-array
            # cell — the lowered ``h(bins(i)) = h(bins(i)) + ...``).
            and all(
                index_values_equal(a, b, body)
                for a, b in zip(source.operands[1:], store.operands[2:])
            )
        ):
            load, expr = source, other
            break
    if load is None:
        return None
    for op in body.ops:
        if op is load or op.name != "memref.load":
            continue
        if root_memref(op.operands[0]) is acc_root:
            return None  # accumulator read outside the combiner chain
        for idx in op.operands[1:]:
            if not _load_index_ok(idx, iv, body):
                return None
    return _Fold(
        combiner.name,
        expr,
        load.operands[0],
        tuple(load.operands[1:]),
        frozenset({id(load), id(combiner), id(store)}),
    )


def _nest_plan(walk) -> LoopPlan | str:
    """Effects over a rank-n perfect chain: ``nest_reduction`` when the
    innermost dim folds into a memref cell invariant along it and
    covering every outer dim, else ``nest_elementwise`` (stores cover
    every dim) or ``nest_scatter`` (gather store subscripts, deferred
    behind the runtime injectivity proof); or a reason."""
    from repro.transforms.loop_analysis import classify_index, root_memref

    (ivs, root_dims, chain, charge_specs, observer_specs, extras_by_level,
     innermost) = walk
    rank = len(ivs)
    root_body = ivs[0].block
    # Above the innermost body only the level directly above the fold dim
    # may store: the scratch-cell frame (init store, readback, writeback).
    framed = bool(chain) and any(
        op.name == "memref.store" for op in extras_by_level[-1]
    )
    if (framed and chain[-1].stitch is not None) or any(
        op.name == "memref.store"
        for level in extras_by_level[:-1]
        for op in level
    ):
        return "store outside the innermost loop body"
    if not _body_is_vectorizable(innermost):
        return "body has nested regions or unsupported ops"

    # -- collect memory accesses over the whole nest ---------------------------
    extra_ops = [op for level in extras_by_level for op in level]
    program_ops = [*extra_ops, *innermost.ops]
    tile_ops = [
        op
        for level in chain
        if level.tile is not None
        for op in level.tile[0].regions[0].block.ops
        if op is not level.tile[1]
    ]
    loaded: set[int] = set()
    store_counts: dict[int, int] = {}
    stores = [op for op in program_ops if op.name == "memref.store"]
    loads = [op for op in program_ops if op.name == "memref.load"]
    for op in stores:
        key = id(root_memref(op.operands[1]))
        store_counts[key] = store_counts.get(key, 0) + 1
    for op in loads:
        loaded.add(id(root_memref(op.operands[0])))

    # -- chain-loop bounds must be invariant (IV-independent prelude) ----------
    # One prelude per chain level: a level's ops are only pre-evaluated
    # at runtime when its containing body would actually execute under
    # the scalar walk (a faulting bound expression below a zero-trip
    # dim must stay unevaluated, exactly like the scalar tier).
    independent: set[SSAValue] = set()
    prelude_levels: list[tuple[Operation, ...]] = []
    for level_extras in extras_by_level:
        level_prelude: list[Operation] = []
        for op in level_extras:
            if op.name == "memref.store" or not all(
                _defined_outside(v, root_body) or v in independent
                for v in op.operands
            ):
                continue  # varies with a nest IV: evaluated by the program
            if op.name == "memref.load" and id(
                root_memref(op.operands[0])
            ) in store_counts:
                continue  # value may change as the nest runs
            independent.update(op.results)
            level_prelude.append(op)
        prelude_levels.append(tuple(level_prelude))
    for level in chain:
        level_bounds = list(level.bounds)
        if level.stitch is not None:
            # the stitched runtime also reads both loops' own triples
            level_bounds += list(level.stitch[0].operands[:3])
            level_bounds += list(level.stitch[1].operands[:3])
        if level.tile is not None:
            # the per-tile bounds must not vary with a nest IV either:
            # the bounds program's inputs and any inner bound it does
            # not compute itself, and no load of a buffer the nest stores
            _, inner_for, _, bounds_program = level.tile
            level_bounds += [v for _, v in bounds_program.outer]
            level_bounds += [
                v for v in inner_for.operands[:3]
                if v not in bounds_program.slots
            ]
        for bound in level_bounds:
            if not (
                _defined_outside(bound, root_body) or bound in independent
            ):
                return (
                    "nested loop bounds vary with an outer induction "
                    "variable"
                )
    if any(
        op.name == "memref.load"
        and id(root_memref(op.operands[0])) in store_counts
        for op in tile_ops
    ):
        return "nested loop bounds vary with an outer induction variable"

    def loads_are_affine(skip: frozenset[int]) -> str | None:
        # ``indirect`` is safe for loads: gathers cannot collide, and the
        # classification already proves the index array is never stored
        # anywhere in the nest.
        for op in loads:
            if id(op) in skip:
                continue
            for idx in op.operands[1:]:
                for iv in ivs:
                    if classify_index(idx, iv, root_body).kind not in (
                        "affine", "invariant", "indirect",
                    ):
                        return "load subscript is not affine/invariant/gather"
        return None

    def plan(
        mode: str, skip: frozenset[int], ops=program_ops, **fields
    ) -> LoopPlan:
        return LoopPlan(
            mode=mode,
            ivs=tuple(ivs),
            root_dims=root_dims,
            program=compile_vector_body(ops, skip, ivs),
            charge_specs=tuple(charge_specs),
            chain=tuple(chain),
            observer_specs=tuple(observer_specs),
            prelude=tuple(prelude_levels),
            **fields,
        )

    # -- innermost-dim fold: P[f(outer ivs)] = P[...] (+) expr -----------------
    fold = _memref_fold(innermost, ivs[-1])
    if framed:
        # The scratch-cell fold: per outer point the level above the fold
        # dim re-initialises one invariant cell, the fold dim accumulates
        # into it and the epilogue reads it back.  The program covers the
        # fold body only; the frame's programs run per outer point.
        if fold is None:
            return "store outside the innermost loop body"
        if any(
            classify_index(idx, iv, root_body).kind != "invariant"
            for idx in fold.cell
            for iv in ivs
        ):
            return "framed fold accumulates into more than one cell"
        last = chain[-1]
        frame_loop = (
            last.tile[0] if last.tile is not None else innermost.parent.parent
        )
        frame_ops = frame_loop.parent.ops
        pos = frame_ops.index(frame_loop)
        upper = [op for level in extras_by_level[:-1] for op in level]
        row_defined = {r for op in (*upper, *frame_ops[:pos]) for r in op.results}
        if not all(
            _defined_outside(idx, root_body) or idx in row_defined
            for idx in fold.cell
        ):
            return "accumulator subscript is computed inside the inner loop body"
        frame = _fold_frame(
            fold, frame_ops[:pos], frame_ops[pos + 1 :], upper,
            [*innermost.ops, *tile_ops], ivs[:-1], root_body, shared=True,
        )
        if isinstance(frame, str):
            return frame
        reason = loads_are_affine(fold.skip)
        if reason is not None:
            return reason
        return plan(
            "nest_reduction", fold.skip, innermost.ops,
            folds=(fold,), frame=frame,
        )
    if fold is not None:
        covered: set[int] = set()
        for idx in fold.cell:
            affine_dim: int | None = None
            for dim, iv in enumerate(ivs):
                pattern = classify_index(idx, iv, root_body)
                if pattern.kind == "affine":
                    if dim == rank - 1:
                        return (
                            "accumulator subscript varies along the "
                            "reduction dim"
                        )
                    if affine_dim is not None:
                        return "accumulator subscript couples two IVs"
                    affine_dim = dim
                elif pattern.kind != "invariant":
                    return "accumulator subscript is not affine/invariant"
            if affine_dim is not None:
                covered.add(affine_dim)
        if covered != set(range(rank - 1)):
            return "accumulator subscripts do not cover the outer nest dims"
        acc_root = root_memref(fold.acc)
        for op in loads:
            if id(op) not in fold.skip and root_memref(op.operands[0]) is acc_root:
                return "accumulator read outside the combiner chain"
        reason = loads_are_affine(fold.skip)
        if reason is not None:
            return reason
        return plan("nest_reduction", fold.skip, folds=(fold,))

    # -- elementwise / scatter: dependence-free, stores injective --------------
    if loaded & set(store_counts):
        return "a buffer is both loaded and stored in the nest body"
    if any(count > 1 for count in store_counts.values()):
        return "multiple stores to one buffer"
    proof_dims: list[tuple[int, ...]] = []
    for op in stores:
        if len(op.operands) == 2:
            return "rank-0 store hits the same cell every iteration"
        used_ivs: set[int] = set()
        store_has_gather = False
        for idx in op.operands[2:]:
            affine_iv: int | None = None
            dim_gather = False
            for dim, iv in enumerate(ivs):
                pattern = classify_index(idx, iv, root_body)
                if pattern.kind == "affine":
                    if affine_iv is not None:
                        return "store subscript couples two IVs"
                    affine_iv = dim
                elif pattern.kind == "indirect":
                    dim_gather = True
                elif pattern.kind != "invariant":
                    return "store subscript is not affine/invariant/gather"
            if dim_gather:
                # varies through runtime index-array contents: no static
                # coverage credit, the runtime proof decides
                store_has_gather = True
            elif affine_iv is not None:
                used_ivs.add(affine_iv)
        if used_ivs == set(range(rank)):
            # statically injective over the whole space — any extra
            # gather dims cannot introduce collisions
            proof_dims.append(())
        elif store_has_gather:
            # the injectivity lattice lifted to the nest: prove the full
            # subscript *tuple* injective over the flat space
            proof_dims.append(tuple(range(len(op.operands) - 2)))
        else:
            return "store subscripts do not cover every nest dim"
    reason = loads_are_affine(frozenset())
    if reason is not None:
        return reason
    if any(proof_dims):
        # defer *every* store so a failed proof leaves nothing mutated
        return plan(
            "nest_scatter",
            frozenset(id(op) for op in stores),
            deferred=tuple(stores),
            proof_dims=tuple(proof_dims),
        )
    return plan("nest_elementwise", frozenset())


def _segmented_plan(loop: Operation) -> LoopPlan | str | None:
    """The ragged-dim shape: an outer loop whose body is ``prologue / one
    inner fold loop / epilogue``, the inner bounds affine in the outer IV
    or loaded from an offset array.  Returns the plan, a reason, or None
    when the shape is something else entirely.  Nothing is mutated at
    runtime until every proof (step sign, monotone offsets, NaN hazard)
    has passed."""
    from repro.transforms.loop_analysis import (
        classify_index,
        index_values_equal,
        root_memref,
    )

    body = loop.regions[0].block
    if loop.results:
        return None
    iv_o = body.args[0]
    inner_loops = [op for op in body.ops if op.name == "scf.for"]
    if len(inner_loops) != 1:
        return None
    inner_for = inner_loops[0]
    if inner_for.results or len(inner_for.regions[0].blocks) != 1:
        return "inner loop carries iter_args"
    inner_body = inner_for.regions[0].block
    if len(inner_body.args) != 1:
        return "inner loop carries iter_args"
    if any(op.name == "scf.for" for op in inner_body.ops):
        return None  # deeper nests: the perfect-chain path
    pos = body.ops.index(inner_for)
    prologue = list(body.ops[:pos])
    epilogue = list(body.ops[pos + 1 :])
    for op in (*prologue, *epilogue):
        if op.regions or op.name not in SUPPORTED:
            return "outer body has nested regions or unsupported ops"
    fold = _memref_fold(inner_body, inner_body.args[0])
    if fold is None:
        return "inner body is not a memref-accumulator reduction"
    acc_root = root_memref(fold.acc)

    # -- inner bounds: affine in the outer IV, or monotone offset loads --------
    lb_v, ub_v, step_v = inner_for.operands[:3]
    needs_monotone: list[str] = []
    for which, bound in (("lb", lb_v), ("ub", ub_v)):
        kind = classify_index(bound, iv_o, body).kind
        if kind == "indirect":
            needs_monotone.append(which)
        elif kind not in ("affine", "invariant"):
            return (
                "inner loop bounds are neither affine in the outer IV nor "
                "loaded from an offset array"
            )
    if classify_index(step_v, iv_o, body).kind != "invariant":
        return "inner loop step varies with the outer IV"

    # -- accumulator cell must be resolvable per row ---------------------------
    prologue_defined = {r for op in prologue for r in op.results}
    if not all(
        # the outer IV itself is the row-program vector
        idx is iv_o or _defined_outside(idx, body) or idx in prologue_defined
        for idx in fold.cell
    ):
        return "accumulator subscript is computed inside the inner loop body"
    shared = True
    for idx in fold.cell:
        kind = classify_index(idx, iv_o, body).kind
        if kind == "affine":
            shared = False  # one cell per row: injective writeback
        elif kind != "invariant":
            return (
                "accumulator subscript is not affine/invariant in the "
                "outer IV"
            )

    frame = _fold_frame(
        fold, prologue, epilogue, (), inner_body.ops, [iv_o], body, shared
    )
    if isinstance(frame, str):
        return frame
    inner_iv = inner_body.args[0]
    return LoopPlan(
        mode="nest_segmented",
        ivs=(iv_o, inner_iv),
        root_dims=1,
        program=compile_vector_body(
            list(inner_body.ops), fold.skip, [iv_o, inner_iv]
        ),
        charge_specs=(
            (1, max(1, len(body.ops))),
            (2, max(1, len(inner_body.ops))),
        ),
        ragged=_Ragged(
            loop=inner_for,
            bounds=(lb_v, ub_v, step_v),
            needs_monotone=tuple(needs_monotone),
            shared=shared,
        ),
        folds=(fold,),
        frame=frame,
    )


def _fold_frame(
    fold: _Fold, prologue, epilogue, upper, inner, outer_ivs, body: Block,
    shared: bool,
) -> _Frame | str:
    """Check the ``prologue / fold dim / epilogue`` frame around ``fold``
    and compile its programs, or return the reason it does not hold.

    The prologue is pure compute plus at most one accumulator init store
    (required when the cell is ``shared`` by every outer point); the
    epilogue may read the accumulator back once and store injectively
    over the outer points (each subscript affine in at most one of
    ``outer_ivs``, together covering all of them).  No buffer read in
    the nest (``upper`` and ``inner`` ops included) may be written in
    it, except a prologue/epilogue load of the very cell an epilogue
    store writes: each outer point then reads only its own cell.
    ``upper`` ops run per outer point ahead of the prologue."""
    from repro.transforms.loop_analysis import (
        classify_index,
        index_values_equal,
        root_memref,
    )

    acc_root = root_memref(fold.acc)

    def same_cell(a, b) -> bool:
        return len(a) == len(b) and all(
            index_values_equal(x, y, body) for x, y in zip(a, b)
        )

    # -- prologue: pure compute plus (at most) the accumulator init store ------
    init_store = None
    for op in prologue:
        if op.name != "memref.store":
            continue
        if not (
            root_memref(op.operands[1]) is acc_root
            and same_cell(op.operands[2:], fold.cell)
        ):
            return "prologue stores to a non-accumulator buffer"
        if init_store is not None:
            return "two accumulator init stores in the prologue"
        init_store = op
    if shared and init_store is None:
        # without a per-row re-init the rows chain sequentially through
        # the shared cell — that is one long fold, not a segmented nest
        return "shared accumulator carries a value across outer iterations"

    # -- epilogue: the accumulator readback + injective per-row stores ---------
    readback = None
    epi_stores: dict[int, Operation] = {}
    for op in epilogue:
        if op.name == "memref.load" and root_memref(op.operands[0]) is acc_root:
            if not shared:
                return "per-row accumulator is read back in the epilogue"
            if readback is not None:
                return "accumulator read twice in the epilogue"
            if not same_cell(op.operands[1:], fold.cell):
                return (
                    "epilogue accumulator load subscript differs from the "
                    "reduction cell"
                )
            readback = op
        elif op.name == "memref.store":
            root = root_memref(op.operands[1])
            if root is acc_root:
                return "epilogue stores to the accumulator"
            if id(root) in epi_stores:
                return "two epilogue stores to one buffer"
            epi_stores[id(root)] = op
            if len(op.operands) == 2:
                return "rank-0 epilogue store hits the same cell every row"
            covered: set[int] = set()
            for idx in op.operands[2:]:
                kinds = [classify_index(idx, iv, body).kind for iv in outer_ivs]
                if not set(kinds) <= {"affine", "invariant"}:
                    return (
                        "epilogue store subscript is not affine/invariant "
                        "in the outer IV"
                    )
                if kinds.count("affine") > 1:
                    return "epilogue store subscript couples two IVs"
                if "affine" in kinds:
                    covered.add(kinds.index("affine"))
            if not covered:
                return "epilogue store hits the same cell every row"
            if len(covered) != len(outer_ivs):
                return "epilogue store subscripts do not cover every outer dim"

    # -- nothing read anywhere in the nest may also be written in it -----------
    def own_cell(load: Operation) -> bool:
        store = epi_stores.get(id(root_memref(load.operands[0])))
        return store is not None and same_cell(
            load.operands[1:], store.operands[2:]
        )

    store_roots = {id(acc_root)} | set(epi_stores)
    for ops, exempt in ((upper, False), (prologue, True), (inner, False),
                        (epilogue, True)):
        for op in ops:
            if (
                op.name == "memref.load"
                and id(op) not in fold.skip
                and op is not readback
                and id(root_memref(op.operands[0])) in store_roots
                and not (exempt and own_cell(op))
            ):
                return "a buffer read in the nest is also written in the nest"

    row_skip = frozenset({id(init_store)} if init_store is not None else ())
    epi_skip = frozenset({id(readback)} if readback is not None else ())
    return _Frame(
        init_value=init_store.operands[0] if init_store is not None else None,
        readback=readback,
        row_program=compile_vector_body(
            [*upper, *prologue], row_skip, outer_ivs
        ),
        epilogue_program=compile_vector_body(epilogue, epi_skip, outer_ivs),
    )


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


def run_vectorized(interp, loop: Operation, env, bounds) -> list | None:
    """Run ``loop`` whole-space through its plan.

    ``bounds`` holds one ``(lb, exclusive ub, step)`` triple per root
    dim.  Returns the loop's results (``[]`` for a loop without any)
    when handled — steps and observer calls then match the scalar walk
    exactly; None means the scalar walk must run, and nothing was
    mutated.
    """
    plan = _guarded_plan(interp, loop)
    if plan is None:
        return None
    if plan.ragged is not None:
        return _run_ragged(interp, env, bounds[0], plan)
    # a rectangular space: the root dims plus the chain levels (a tiled
    # root has no dim of its own: its chain level reads its bounds)
    bounds = list(bounds[: plan.root_dims])
    trips = [_trip_count(lb, ub, step) for lb, ub, step in bounds]
    levels = _chain_dims(interp, env, plan, bounds, trips) if plan.chain else ()
    if levels is None:
        return None
    total = math.prod(trips)
    if 0 < total < plan.floor:
        return None  # scalar wins on constant factors
    # a framed fold runs its prologue/epilogue even when the fold dim is empty
    if total or (plan.frame is not None and math.prod(trips[:-1])):
        results = _evaluate(interp, loop, env, plan, bounds, trips, total)
        if results is None:
            return None
    else:
        results = [
            interp.get(env, loop.operands[3 + fold.position])
            for fold in plan.folds
            if fold.acc is None
        ]

    steps = 0
    for dims, op_count in plan.charge_specs:
        steps += math.prod(trips[:dims]) * op_count
    observer = interp.loop_observer
    for dims, level_steps, observations in levels:
        executions = math.prod(trips[:dims])
        steps += executions * level_steps
        if observer is not None and executions:
            for op, op_trips, count in observations:
                observer(op, op_trips, count * executions)
    interp.steps += steps
    if observer is not None and plan.observer_specs:
        for dims, chain_op in plan.observer_specs:
            count = math.prod(trips[:dims])
            if count:
                observer(chain_op, trips[dims], count)
    return results


def _guarded_plan(interp, loop: Operation) -> LoopPlan | None:
    """Classification that degrades instead of crashing.

    The analysis is side-effect free, so an engine bug inside it must
    never take down a run the scalar tier could complete: the crash is
    recorded as a ``vectorized -> scalar`` degradation, once — the cache
    is poisoned with a bail entry, consulted here before classifying.
    """
    cache = _cache_for(loop)
    hit = cache.get(id(loop))
    if hit is not None and hit[0] is loop:
        plan = hit[1]
    else:
        try:
            plan = classify(loop)
        except Exception as error:  # noqa: BLE001 - degrade, never crash
            plan = "classification crashed"
            cache[id(loop)] = (loop, plan)
            from repro.reliability.report import record_degradation

            record_degradation(
                interp, "vectorized", "scalar", f"{loop.name} classification",
                error,
            )
    return plan if isinstance(plan, LoopPlan) else None


def _chain_dims(interp, env, plan: LoopPlan, bounds, trips):
    """Append the chain levels' bounds and trips, whose bound values are
    read from the environment after the step-neutral prelude evaluation
    (a tiled level appends its index vector in place of a triple).
    Returns the stitched and tiled levels' runtime accounting ``(dims,
    steps per execution, ((loop, trips, calls per execution), ...))``,
    or None when a non-positive step or overlapping tiles leave the loop
    to the scalar walk."""
    levels = []
    for level, level_prelude in zip(plan.chain, plan.prelude):
        if 0 in trips:
            # The scalar walk never reaches this level: its bound
            # expressions must stay unevaluated (they may fault), and
            # every deeper charge/observer product is zero regardless.
            bounds.append((0, 0, 1))
            trips.append(0)
            continue
        if level_prelude:
            # Bounds of chain loops may depend on IV-independent body
            # ops (e.g. the cloned ``n`` load of an inner ``do k = 1,
            # n``); they are pure, so pre-evaluating them is
            # step-neutral and idempotent.
            before = interp.steps
            try:
                for op in level_prelude:
                    interp.run_op(op, env)
            finally:
                interp.steps = before
        lb, ub, step = (interp.get(env, v) for v in level.bounds)
        if step <= 0:
            return None
        if level.tile is not None:
            tiled = _tile_index(interp, env, level.tile, lb, ub, step)
            if tiled is None:
                return None
            index, level_steps, observations = tiled
            if not trips:
                observations = observations[1:]  # a tiled root: observed
            levels.append((len(trips), level_steps, observations))
            bounds.append(index)
            trips.append(len(index))
            continue
        if level.stitch is not None:
            main_for, rem_for, main_ops, rem_ops = level.stitch
            m_lb, m_ub, m_step = (
                interp.get(env, v) for v in main_for.operands[:3]
            )
            if m_step <= 0:
                return None
            m_t = _trip_count(m_lb, m_ub, m_step)
            r_t = _trip_count(
                *(interp.get(env, v) for v in rem_for.operands[:3])
            )
            levels.append((
                len(trips),
                m_t * main_ops + r_t * rem_ops,
                ((main_for, m_t, 1), (rem_for, r_t, 1)),
            ))
        bounds.append((lb, ub, step))
        trips.append(_trip_count(lb, ub, step))
    return levels


def _tile_index(interp, env, tile, lb, ub, step):
    """The index vector of a tiled dim: the inner loop's bounds evaluated
    over the tile IV vector, its per-tile ranges concatenated in order.
    Returns ``(index, steps per execution, observations)`` — the tile
    body is charged once per tile, the tile loop observed once and the
    inner loop once per tile, batched by trip count — or None (nothing
    evaluated beyond the pure tile body) when the inner step is not one
    positive value or (logged) the ranges are not strictly increasing."""
    tile_for, inner_for, tile_ops, program = tile
    tiles = np.arange(
        lb, lb + _trip_count(lb, ub, step) * step, step, dtype=np.int64
    )
    if not len(tiles):
        return np.empty(0, np.int64), 0, ((tile_for, 0, 1),)
    value = program.lookup(program.run(interp, env, [tiles]), interp, env)
    inner_step = value(inner_for.operands[2])
    if np.ndim(inner_step) != 0 or inner_step <= 0:
        return None  # the scalar walk decides
    inner_step = int(inner_step)
    lb_vec, ub_vec = (
        np.broadcast_to(np.asarray(value(v), dtype=np.int64), tiles.shape)
        for v in inner_for.operands[:2]
    )
    counts = _range_trips(lb_vec, ub_vec, inner_step)
    index = _concat_ranges(lb_vec, counts, inner_step)
    if len(index) > 1 and not bool(np.all(np.diff(index) > 0)):
        logger.debug(
            "scalar bail-out: tiled loop ranges overlap or run out of "
            "order (the concatenated index is not strictly increasing); "
            "rerunning the loop on the scalar tier",
        )
        return None
    trip_values, trip_counts = np.unique(counts, return_counts=True)
    return index, len(tiles) * tile_ops, (
        (tile_for, len(tiles), 1),
        *(
            (inner_for, int(t), int(c))
            for t, c in zip(trip_values, trip_counts)
        ),
    )


def _evaluate(interp, loop, env, plan: LoopPlan, bounds, trips, total):
    """Evaluate the program and apply the effects over a non-empty space
    (for a framed fold: a non-empty outer space).  ``bounds`` holds a
    ``(lb, exclusive ub, step)`` triple or a tiled index vector per dim.
    Returns the iter_arg results, or None after a bail (nothing
    mutated)."""
    dim_values = [
        bound if isinstance(bound, np.ndarray)
        else np.arange(bound[0], bound[0] + t * bound[2], bound[2], dtype=np.int64)
        for bound, t in zip(bounds, trips)
    ]
    if len(trips) == 1 or total <= _MAX_NEST_ELEMS:
        chunks = [dim_values]
    else:
        # Bound peak memory: evaluate chunks of outermost-dim slices (the
        # whole-space temporaries scale with the *product* of the dims).
        per_chunk = max(1, _MAX_NEST_ELEMS // max(1, total // trips[0]))
        chunks = (
            [dim_values[0][start : start + per_chunk], *dim_values[1:]]
            for start in range(0, trips[0], per_chunk)
        )
        # Chunks commit one by one, but a NaN or a duplicate found in a
        # later chunk must abort before anything was stored.
        if any(_REDUCERS[f.op_name] in (np.minimum, np.maximum) for f in plan.folds):
            logger.debug(
                "scalar bail-out: min/max nest reduction exceeds the "
                "whole-space size bound (NaN check needs one pass); "
                "rerunning the loop on the scalar tier",
            )
            return None
        if plan.deferred:
            logger.debug(
                "scalar bail-out: scatter nest exceeds the whole-space "
                "size bound (injectivity needs one pass); rerunning the "
                "loop on the scalar tier",
            )
            return None
    if plan.frame is not None:
        for dims in chunks:
            if not _run_frame(interp, env, plan, dims):
                return None  # single chunk (see above): nothing stored yet
        return []
    spaces = (dims if len(dims) == 1 else _flatten_space(dims) for dims in chunks)

    results = []
    program = plan.program
    for vecs in spaces:
        n = len(vecs[0])
        value = program.lookup(program.run(interp, env, vecs), interp, env)
        if plan.deferred and not _apply_scatter(plan, value, n):
            return None  # failed proof: nothing was mutated
        for fold in plan.folds:
            if fold.acc is None:
                result_type = loop.results[fold.position].type
                dtype = _dtype_for(result_type)
                init = interp.get(env, loop.operands[3 + fold.position])
                vec = _as_vector(value(fold.expr), n, dtype)
                if _nan_bail(fold.op_name, init, vec):
                    return None  # evaluation was side-effect free
                folded = _fold_rows(fold.op_name, np.asarray(init, dtype), vec)
                results.append(_to_python(folded, result_type))
                continue
            array = value(fold.acc)
            vec = _as_vector(value(fold.expr), n, array.dtype)
            if _nan_bail(fold.op_name, array, vec):
                return None  # single chunk (see above): nothing stored yet
            if fold.ordered:
                # invariant along the fold dim (the fastest-varying axis):
                # one representative subscript per outer point
                t = trips[-1]
                key = tuple(
                    np.asarray(i)[::t] if np.ndim(i) else int(i)
                    for i in map(value, fold.cell)
                ) if fold.cell else ()
                init = array[key]  # one init per outer point
                array[key] = _fold_rows(
                    fold.op_name, init, vec.reshape(init.shape + (t,))
                )
            else:
                # varying or indirect cells, collisions included: in-order
                # per-cell combine
                key = tuple(
                    np.broadcast_to(i, (n,)) for i in map(value, fold.cell)
                )
                _REDUCERS[fold.op_name].at(
                    array, key if len(key) > 1 else key[0], vec
                )
    return results


def _run_frame(interp, env, plan: LoopPlan, dims) -> bool:
    """One chunk of a framed (scratch-cell) fold over a rectangular space:
    the row program runs over the outer points, the fold expression over
    outer points x fold dim by broadcasting (outer values as columns,
    the fold dim as a row), each row folds from its own init, and the
    epilogue runs with the readback preset to the folded values.  False
    (a NaN min/max bail) means nothing was mutated."""
    frame = plan.frame
    fold = plan.folds[0]
    outer = _flatten_space(dims[:-1]) if len(dims) > 2 else dims[:1]
    points, t = len(outer[0]), len(dims[-1])
    row = frame.row_program
    frame_a = row.run(interp, env, outer)
    row_value = row.lookup(frame_a, interp, env)
    array = row_value(fold.acc)
    init = _as_vector(row_value(frame.init_value), points, array.dtype)
    if t:
        column = _row_resolver(row, frame_a, interp, env, lambda v: v[:, None])
        frame_i = plan.program.run(
            interp, env, [*(o[:, None] for o in outer), dims[-1][None, :]],
            column,
        )
        slot = plan.program.slots.get(fold.expr)
        expr = frame_i[slot] if slot is not None else column(fold.expr)
        frame_i = None  # free the gathers before the fold allocates
        rows = np.broadcast_to(
            np.asarray(expr).astype(array.dtype, copy=False), (points, t)
        )
        if _nan_bail(fold.op_name, init, rows):
            return False
        folded = _fold_rows(fold.op_name, init, rows)
    else:
        folded = init  # an empty fold dim leaves every init as it is
    _run_epilogue(frame, interp, env, outer, row_value, folded)
    # the scalar walk leaves the last outer point's fold in the cell
    array[tuple(int(row_value(i)) for i in fold.cell)] = folded[-1]
    return True


def _row_resolver(row: VectorProgram, frame, interp, env, spread):
    """Outer values for a program that runs below ``row``'s outer points:
    a value the row program computed, ``spread`` over the inner space; a
    scalar, or anything the row program only read, as it is."""

    def resolve(v: SSAValue):
        slot = row.slots.get(v)
        if slot is None or v in row.fetched:
            return interp.get(env, v)
        val = frame[slot]
        return val if np.ndim(val) == 0 else spread(val)

    return resolve


def _run_epilogue(frame: _Frame, interp, env, outer, row_value, folded):
    """Run the epilogue over the outer points with the accumulator
    readback preset to the folded values."""
    readback = frame.readback.results[0] if frame.readback is not None else None
    frame.epilogue_program.run(
        interp, env, outer,
        lambda v: folded if v is readback else row_value(v),
    )


def _run_ragged(interp, env, root_bounds, plan: LoopPlan):
    """A segmented nest: rows of the outer dim, each with its own inner
    trip count.  Stores and accumulator writebacks are all deferred past
    the runtime proofs, so a None return has mutated nothing."""
    ragged, frame = plan.ragged, plan.frame
    fold = plan.folds[0]
    trips_o = _trip_count(*root_bounds)
    if trips_o == 0:
        return []  # the scalar walk would do nothing either
    lb, _, step = root_bounds
    i_vec = np.arange(lb, lb + trips_o * step, step, dtype=np.int64)
    row = frame.row_program
    frame_a = row.run(interp, env, [i_vec])
    row_value = row.lookup(frame_a, interp, env)

    inner_step = row_value(ragged.bounds[2])
    if np.ndim(inner_step) != 0:
        return None  # step varies per row: outside the contract
    inner_step = int(inner_step)
    if inner_step <= 0:
        return None  # the scalar walk decides (zero-trip or diverging)
    lb_vec, ub_vec = (
        np.broadcast_to(np.asarray(row_value(v), dtype=np.int64), (trips_o,))
        for v in ragged.bounds[:2]
    )
    for which, vec in (("lb", lb_vec), ("ub", ub_vec)):
        if which in ragged.needs_monotone and trips_o > 1 and bool(
            np.any(np.diff(vec) < 0)
        ):
            logger.debug(
                "scalar bail-out: segmented nest %s offsets are not "
                "monotone non-decreasing (shuffled offset array); "
                "rerunning the loop on the scalar tier",
                which,
            )
            return None
    trips_vec = _range_trips(lb_vec, ub_vec, inner_step)
    total = int(trips_vec.sum())
    if trips_o + total < plan.floor:
        return None  # scalar wins on constant factors

    acc_arr = row_value(fold.acc)
    dtype = acc_arr.dtype
    cell = tuple(
        np.asarray(v) if np.ndim(v) else int(v)
        for v in (row_value(i) for i in fold.cell)
    )
    if frame.init_value is not None:
        init_rows = _as_vector(row_value(frame.init_value), trips_o, dtype)
    else:
        init_rows = _as_vector(acc_arr[cell], trips_o, dtype)

    folded_all = np.empty(trips_o, dtype=dtype)
    cum = np.cumsum(trips_vec)
    r0 = 0
    while r0 < trips_o:
        if total <= _MAX_NEST_ELEMS:
            r1 = trips_o
        else:
            # Bound peak memory: whole rows per chunk, so segments never
            # straddle a chunk boundary and every fold stays per-row.
            base = int(cum[r0 - 1]) if r0 else 0
            r1 = int(
                np.searchsorted(cum, base + _MAX_NEST_ELEMS, side="right")
            )
            r1 = min(max(r1, r0 + 1), trips_o)
        seg = trips_vec[r0:r1]
        rows_n = r1 - r0
        ctotal = int(seg.sum())
        init_chunk = init_rows[r0:r1]
        if ctotal == 0:
            folded_all[r0:r1] = init_chunk  # empty segments keep the init
            r0 = r1
            continue
        outer_flat = np.repeat(i_vec[r0:r1], seg)
        inner_flat = _concat_ranges(lb_vec[r0:r1], seg, inner_step)

        resolve = _row_resolver(
            row, frame_a, interp, env,
            lambda val, _r0=r0, _r1=r1, _seg=seg: np.repeat(
                val[_r0:_r1], _seg
            ),
        )
        frame_i = plan.program.run(
            interp, env, [outer_flat, inner_flat], resolve
        )
        slot = plan.program.slots.get(fold.expr)
        expr_vec = _as_vector(
            frame_i[slot] if slot is not None else resolve(fold.expr),
            ctotal,
            dtype,
        )
        if _nan_bail(fold.op_name, init_chunk, expr_vec):
            return None  # nothing mutated yet: all writes are deferred
        t0 = int(seg[0])
        if bool(np.all(seg == t0)):
            # equal rows: one ordered accumulate over an init column
            folded = _fold_rows(
                fold.op_name, init_chunk, expr_vec.reshape(rows_n, t0)
            )
        else:
            # ragged rows: in-order per-cell combine over segment ids
            folded = init_chunk.astype(dtype, copy=True)
            _REDUCERS[fold.op_name].at(
                folded, np.repeat(np.arange(rows_n), seg), expr_vec
            )
        folded_all[r0:r1] = folded
        r0 = r1

    # -- every proof passed: run the epilogue and write the folds back ---------
    _run_epilogue(frame, interp, env, [i_vec], row_value, folded_all)
    if ragged.shared:
        # the scalar walk leaves the last row's fold in the shared cell
        acc_arr[cell] = folded_all[-1]
    elif frame.init_value is not None:
        acc_arr[cell] = folded_all  # init store ran even for empty rows
    else:
        nz = trips_vec > 0
        if bool(nz.all()):
            acc_arr[cell] = folded_all
        else:
            # zero-trip rows never touched their cell in the scalar walk
            cell_nz = tuple(c[nz] if np.ndim(c) else c for c in cell)
            acc_arr[cell_nz] = folded_all[nz]

    (_, outer_ops), (_, inner_ops) = plan.charge_specs
    interp.steps += trips_o * outer_ops + total * inner_ops
    observer = interp.loop_observer
    if observer is not None:
        # one observer call per distinct per-row trip count
        uniq, counts = np.unique(trips_vec, return_counts=True)
        for t, c in zip(uniq, counts):
            observer(ragged.loop, int(t), int(c))
    return []


def _flatten_space(dim_values: list) -> list:
    """Row-major per-dimension index vectors over the product space."""
    size = math.prod(len(values) for values in dim_values)
    vecs = []
    reps_after = size
    reps_before = 1
    for values in dim_values:
        t = len(values)
        reps_after //= t
        vecs.append(np.tile(np.repeat(values, reps_after), reps_before))
        reps_before *= t
    return vecs


def _trip_count(lb, ub, step) -> int:
    return max(0, -(-(ub - lb) // step)) if step > 0 else 0


def _range_trips(lb_vec: np.ndarray, ub_vec: np.ndarray, step: int):
    """Trip counts of the ranges ``[lb, ub)`` at a positive ``step``."""
    return np.maximum(0, -((lb_vec - ub_vec) // step))


def _concat_ranges(lb_vec: np.ndarray, counts: np.ndarray, step: int):
    """The ranges ``lb, lb + step, ...`` (``counts`` values each)
    concatenated in order, built from prefix sums."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.repeat(lb_vec, counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    ) * step


def _fold_rows(op_name: str, init, rows: np.ndarray) -> np.ndarray:
    """Fold each row of ``rows`` (its last axis; one row when 1-D) into
    its ``init`` in order: an ordered ``accumulate`` for add/mul (the
    scalar walk's rounding order), ``reduce`` for the order-insensitive
    min/max."""
    ufunc = _REDUCERS[op_name]
    if ufunc is np.minimum or ufunc is np.maximum:
        return ufunc(init, ufunc.reduce(rows, axis=-1))
    seq = np.empty(rows.shape[:-1] + (rows.shape[-1] + 1,), dtype=rows.dtype)
    seq[..., 0] = init
    seq[..., 1:] = rows
    return ufunc.accumulate(seq, axis=-1)[..., -1]


def _nan_bail(op_name: str, init, vec: np.ndarray) -> bool:
    """NaNs make ``np.minimum``/``np.maximum`` diverge from the scalar
    engine's Python ``min``/``max`` (which ignore a NaN rhs): such a fold
    logs a bail and takes the scalar path.  ``init`` is the iter_arg
    init, the whole accumulator array or the per-row inits."""
    ufunc = _REDUCERS[op_name]
    if ufunc is not np.minimum and ufunc is not np.maximum:
        return False
    if vec.dtype.kind != "f":
        return False
    if not (bool(np.isnan(vec).any()) or bool(np.isnan(init).any())):
        return False
    logger.debug(
        "scalar bail-out: %s reduction input contains NaN "
        "(np.minimum/np.maximum propagate NaN where the scalar engine's "
        "min/max ignore a NaN rhs); rerunning the loop on the scalar tier",
        op_name,
    )
    return True


def _prove_injective(vec: np.ndarray) -> str | None:
    """Runtime tiers of the injectivity-proof lattice (see the module
    docstring): ``monotone`` (O(n)) before ``unique`` (O(n log n));
    None when the vector has duplicates."""
    if vec.size <= 1:
        return "trivial"
    deltas = np.diff(vec)
    if bool(np.all(deltas > 0)) or bool(np.all(deltas < 0)):
        return "monotone"
    if np.unique(vec).size == vec.size:
        return "unique"
    return None


def _prove_injective_tuple(columns, total: int) -> str | None:
    """The injectivity lattice lifted to a subscript *tuple* over the
    flattened space: a single varying column uses the rank-1 tiers
    (monotone before unique); several columns are lexsorted together and
    proved duplicate-free by adjacent comparison (O(n log n))."""
    arrays = [np.broadcast_to(np.asarray(c), (total,)) for c in columns]
    if total <= 1:
        return "trivial"
    if len(arrays) == 1:
        return _prove_injective(arrays[0])
    order = np.lexsort(arrays)
    dup = np.ones(total - 1, dtype=bool)
    for a in arrays:
        sorted_col = a[order]
        dup &= sorted_col[1:] == sorted_col[:-1]
    return None if bool(dup.any()) else "tuple-unique"


def _apply_scatter(plan: LoopPlan, value, total: int) -> bool:
    """Prove every deferred store injective over the space, then apply
    them in op order.  False (nothing mutated — the stores were left out
    of the compiled program) means the scalar walk must rerun."""
    resolved = []
    for store, dims in zip(plan.deferred, plan.proof_dims):
        indices = [value(i) for i in store.operands[2:]]
        if dims and _prove_injective_tuple(
            [indices[d] for d in dims], total
        ) is None:
            logger.debug(
                "scalar bail-out: scatter store failed the injectivity "
                "proof (subscript tuple has duplicate entries over the "
                "iteration space); rerunning the loop on the scalar tier",
            )
            return False
        resolved.append((store, indices))
    for store, indices in resolved:
        key = tuple(np.asarray(i) if np.ndim(i) else int(i) for i in indices)
        value(store.operands[1])[key if len(key) > 1 else key[0]] = value(
            store.operands[0]
        )
    return True


def _dtype_for(ty) -> np.dtype:
    from repro.ir.types import FloatType

    if isinstance(ty, FloatType):
        return np.dtype(np.float32 if ty.width == 32 else np.float64)
    return np.dtype(np.int64)


def _as_vector(value, trips: int, dtype) -> np.ndarray:
    vec = np.asarray(value)
    if vec.ndim == 0:
        return np.full(trips, vec[()], dtype=dtype)
    return vec.astype(dtype, copy=False)


def _to_python(value, ty):
    from repro.ir.types import FloatType

    if isinstance(ty, FloatType):
        return float(value)
    return int(value)
