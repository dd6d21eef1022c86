"""The *lower omp mapped data* pass (paper Figure 2, first device stage).

Converts OpenMP data-mapping IR (``omp.map_info``/``omp.bounds`` feeding
``omp.target``/``omp.target_data``/``omp.target_enter_data``/
``omp.target_exit_data``/``omp.target_update``) into ``device`` dialect
data management plus ``memref.dma_start``/``memref.wait`` transfers.

Reference-counted residency (paper §3): each identifier has a counter;
``device.data_acquire`` increments, ``device.data_release`` decrements and
``device.data_check_exists`` tests counter > 0.  Around every map we emit

.. code-block:: text

    %exists = device.data_check_exists {name}
    %absent = arith.xori %exists, true
    scf.if %absent { device.alloc ... }          // first touch allocates
    device.data_acquire {name}
    scf.if %absent { dma host -> device }        // and copies "to" data
    %dev = device.lookup {name}                  // kernel argument
    ...
    device.data_release {name}
    %exists2 = device.data_check_exists {name}
    %last = arith.xori %exists2, true
    scf.if %last { dma device -> host }          // last release copies back

so implicit ``tofrom,implicit`` maps become no-op transfers whenever an
enclosing data region already made the variable resident — the exact
behaviour the paper's Listing 1 discussion requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dialects import arith, device, memref
from repro.dialects.omp import MapInfoOp
from repro.ir.builder import Builder
from repro.ir.core import IRError, Operation, OpResult, SSAValue
from repro.ir.pass_manager import ModulePass, PassOption, register_pass
from repro.ir.types import DYNAMIC, MemRefType


@dataclass
class MemorySpacePolicy:
    """Assigns device memory spaces (HBM banks / DDR) to identifiers.

    ``single`` puts everything in HBM bank 1 (the paper's Listing 2
    layout); ``round_robin`` spreads identifiers across the 16 HBM banks
    to maximise aggregate bandwidth — an ablation knob.
    """

    mode: str = "single"
    num_banks: int = 16

    def __post_init__(self):
        if self.mode not in ("single", "round_robin"):
            raise ValueError(
                f"unknown memory-space policy {self.mode!r}: expected "
                "'single' or 'round_robin'"
            )
        self._assigned: dict[str, int] = {}
        self._next = 1

    def space_for(self, name: str) -> int:
        if self.mode == "single":
            return 1
        if name not in self._assigned:
            self._assigned[name] = self._next
            self._next = self._next % self.num_banks + 1
        return self._assigned[name]


class _MapLowering:
    """Emits the acquire/release structure for one mapped variable."""

    def __init__(self, builder: Builder, info: MapInfoOp, space: int):
        self.builder = builder
        self.info = info
        self.space = space
        host_ty = info.var.type
        if not isinstance(host_ty, MemRefType):
            raise IRError(
                f"mapped variable {info.var_name!r} is not a memref"
            )
        self.host_type = host_ty
        self.device_type = host_ty.with_memory_space(space)

    # -- pieces ------------------------------------------------------------------

    def _absent_flag(self) -> SSAValue:
        check = self.builder.insert(
            device.DataCheckExistsOp(identifier=self.info.var_name)
        )
        true = self.builder.insert(arith.Constant.bool(True))
        absent = self.builder.insert(
            arith.XOrI(check.results[0], true.results[0])
        )
        return absent.results[0]

    def emit_acquire(self) -> SSAValue:
        """Emit the conditional alloc + H2D copy + acquire; returns the
        device memref (a ``device.lookup`` result)."""
        absent = self._absent_flag()
        alloc_if = self.builder.insert(_new_if(absent))
        inner = Builder.at_end(alloc_if.then_block)
        sizes = self._dynamic_sizes_inside(inner)
        inner.insert(
            device.AllocOp(
                self.device_type,
                sizes,
                identifier=self.info.var_name,
                memory_space=self.space,
            )
        )
        inner.insert(_yield())
        Builder.at_end(alloc_if.else_block).insert(_yield())

        self.builder.insert(
            device.DataAcquireOp(
                identifier=self.info.var_name, memory_space=self.space
            )
        )
        if self.info.copies_to_device:
            copy_if = self.builder.insert(_new_if(absent))
            inner = Builder.at_end(copy_if.then_block)
            dev = inner.insert(
                device.LookupOp(
                    self.device_type,
                    identifier=self.info.var_name,
                    memory_space=self.space,
                )
            )
            tag = inner.insert(memref.DmaStart(self.info.var, dev.results[0]))
            inner.insert(memref.DmaWait(tag.results[0]))
            inner.insert(_yield())
            Builder.at_end(copy_if.else_block).insert(_yield())
        lookup = self.builder.insert(
            device.LookupOp(
                self.device_type,
                identifier=self.info.var_name,
                memory_space=self.space,
            )
        )
        return lookup.results[0]

    def emit_release(self) -> None:
        """Emit release + conditional D2H copy-back on last reference."""
        self.builder.insert(
            device.DataReleaseOp(
                identifier=self.info.var_name, memory_space=self.space
            )
        )
        if self.info.copies_from_device:
            gone = self._absent_flag()  # counter hit zero after release
            copy_if = self.builder.insert(_new_if(gone))
            inner = Builder.at_end(copy_if.then_block)
            dev = inner.insert(
                device.LookupOp(
                    self.device_type,
                    identifier=self.info.var_name,
                    memory_space=self.space,
                )
            )
            tag = inner.insert(memref.DmaStart(dev.results[0], self.info.var))
            inner.insert(memref.DmaWait(tag.results[0]))
            inner.insert(_yield())
            Builder.at_end(copy_if.else_block).insert(_yield())

    def emit_update(self, direction: str) -> None:
        """Unconditional transfer for ``omp.target_update``."""
        dev = self.builder.insert(
            device.LookupOp(
                self.device_type,
                identifier=self.info.var_name,
                memory_space=self.space,
            )
        )
        if direction == "to":
            tag = self.builder.insert(
                memref.DmaStart(self.info.var, dev.results[0])
            )
        else:
            tag = self.builder.insert(
                memref.DmaStart(dev.results[0], self.info.var)
            )
        self.builder.insert(memref.DmaWait(tag.results[0]))

    def _dynamic_sizes_inside(self, inner: Builder) -> list[SSAValue]:
        sizes = []
        for dim, extent in enumerate(self.host_type.shape):
            if extent == DYNAMIC:
                dim_const = inner.insert(arith.Constant.index(dim))
                dim_op = inner.insert(
                    memref.Dim(self.info.var, dim_const.results[0])
                )
                sizes.append(dim_op.results[0])
        return sizes


def _new_if(cond: SSAValue):
    from repro.dialects import scf

    return scf.If(cond)


def _yield():
    from repro.dialects import scf

    return scf.Yield()


def _map_info_of(operand: SSAValue) -> MapInfoOp:
    if not isinstance(operand, OpResult) or not isinstance(operand.op, MapInfoOp):
        raise IRError("expected an omp.map_info result")
    return operand.op


@register_pass
class LowerOmpMappedDataPass(ModulePass):
    """Lower OpenMP mapped data onto the ``device`` dialect."""

    name = "lower-omp-mapped-data"

    options = (
        PassOption(
            "policy", str, "single",
            "memory-space assignment: 'single' (HBM bank 1) or "
            "'round_robin' over the banks",
        ),
        PassOption("num_banks", int, 16, "HBM bank count for round_robin"),
    )

    def __init__(
        self,
        policy: MemorySpacePolicy | str | None = None,
        num_banks: int = 16,
    ):
        if isinstance(policy, str):
            policy = MemorySpacePolicy(mode=policy, num_banks=num_banks)
        self.policy = policy or MemorySpacePolicy(num_banks=num_banks)

    def option_values(self) -> dict[str, object]:
        return {"policy": self.policy.mode, "num_banks": self.policy.num_banks}

    def apply(self, module: Operation) -> None:
        # Iterate until no data ops remain (target_data regions may nest).
        changed = True
        while changed:
            changed = False
            for op in list(module.walk()):
                if op.parent is None:
                    continue
                if op.name == "omp.target_data":
                    self._lower_target_data(op)
                    changed = True
                elif op.name == "omp.target_enter_data":
                    self._lower_edge(op, enter=True)
                    changed = True
                elif op.name == "omp.target_exit_data":
                    self._lower_edge(op, enter=False)
                    changed = True
                elif op.name == "omp.target_update":
                    self._lower_update(op)
                    changed = True
                elif op.name == "omp.target" and self._has_map_operands(op):
                    self._lower_target_maps(op)
                    changed = True
        self._cleanup_map_infos(module)

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _has_map_operands(op: Operation) -> bool:
        return any(
            isinstance(o, OpResult) and isinstance(o.op, MapInfoOp)
            for o in op.operands
        )

    def _lowerings(
        self, builder: Builder, op: Operation
    ) -> list[_MapLowering]:
        lowerings = []
        for operand in op.operands:
            info = _map_info_of(operand)
            lowerings.append(
                _MapLowering(builder, info, self.policy.space_for(info.var_name))
            )
        return lowerings

    def _lower_target_data(self, op: Operation) -> None:
        builder = Builder.before(op)
        lowerings = self._lowerings(builder, op)
        for lowering in lowerings:
            lowering.emit_acquire()
        # Inline the region body before the releases.
        block = op.regions[0].block
        last = block.last_op
        if last is not None and last.name == "omp.terminator":
            last.erase()
        for inner_op in list(block.ops):
            inner_op.detach()
            builder.insert(inner_op)
        for lowering in lowerings:
            lowering.builder = builder
            lowering.emit_release()
        op.erase(safe=False)

    def _lower_edge(self, op: Operation, enter: bool) -> None:
        builder = Builder.before(op)
        for lowering in self._lowerings(builder, op):
            if enter:
                lowering.emit_acquire()
            else:
                lowering.emit_release()
        op.erase(safe=False)

    def _lower_update(self, op: Operation) -> None:
        builder = Builder.before(op)
        for operand in op.operands:
            info = _map_info_of(operand)
            lowering = _MapLowering(
                builder, info, self.policy.space_for(info.var_name)
            )
            direction = "to" if info.copies_to_device else "from"
            lowering.emit_update(direction)
        op.erase(safe=False)

    def _lower_target_maps(self, op: Operation) -> None:
        """Rewrite an ``omp.target``'s operands to device memrefs."""
        builder = Builder.before(op)
        lowerings = self._lowerings(builder, op)
        device_values = [lowering.emit_acquire() for lowering in lowerings]
        for i, value in enumerate(device_values):
            op.set_operand(i, value)
        # Block argument types now carry the device memory space.
        for block_arg, value in zip(op.regions[0].block.args, device_values):
            block_arg.type = value.type
        after = Builder.after(op)
        for lowering in lowerings:
            lowering.builder = after
            lowering.emit_release()

    def _cleanup_map_infos(self, module: Operation) -> None:
        for op in list(module.walk(reverse=True)):
            if op.parent is None:
                continue
            if op.name in ("omp.map_info", "omp.bounds") and not any(
                r.has_uses for r in op.results
            ):
                op.erase()
