"""Tests for the syscall entry layer and parameterized isolation."""

import dataclasses

import pytest

from repro.apps.hello import hello_world_image
from repro.baselines import MonolithicOS
from repro.cheri.capability import Capability, OTYPE_SENTRY, Perm
from repro.core import UForkOS
from repro.errors import BadAddress, IsolationViolation
from repro.kernel.syscalls import (
    IsolationConfig,
    IsolationLevel,
    SyscallLayer,
    check_syscall_gate,
)
from repro.kernel.task import Process


class TestIsolationConfig:
    def test_levels(self):
        assert not IsolationConfig.none().validate_args
        assert not IsolationConfig.none().tocttou
        assert IsolationConfig.fault().validate_args
        assert not IsolationConfig.fault().tocttou
        assert IsolationConfig.full().validate_args
        assert IsolationConfig.full().tocttou

    def test_from_level(self):
        for level in IsolationLevel:
            config = IsolationConfig.from_level(level)
            assert config.level is level


class TestEntryCosts:
    def test_sealed_cheaper_than_trap(self, machine):
        sealed = SyscallLayer(machine, trapless=True,
                              isolation=IsolationConfig.none())
        before = machine.clock.now_ns
        sealed.enter("getpid")
        sealed_cost = machine.clock.now_ns - before

        trap = SyscallLayer(machine, trapless=False,
                            isolation=IsolationConfig.none())
        before = machine.clock.now_ns
        trap.enter("getpid")
        trap_cost = machine.clock.now_ns - before
        assert sealed_cost < trap_cost

    def test_validation_charged_per_arg(self, machine):
        layer = SyscallLayer(machine, trapless=True,
                             isolation=IsolationConfig.fault())
        before = machine.clock.now_ns
        layer.enter("write", nargs=3)
        elapsed = machine.clock.now_ns - before
        assert elapsed >= int(machine.costs.sealed_syscall_ns
                              + 3 * machine.costs.syscall_validate_ns)

    def test_tocttou_charged_per_buffer(self, machine):
        full = SyscallLayer(machine, trapless=True,
                            isolation=IsolationConfig.full())
        fault = SyscallLayer(machine, trapless=True,
                             isolation=IsolationConfig.fault())
        before = machine.clock.now_ns
        fault.enter("write", nargs=3, buffer_bytes=(1024,))
        fault_cost = machine.clock.now_ns - before
        before = machine.clock.now_ns
        full.enter("write", nargs=3, buffer_bytes=(1024,))
        full_cost = machine.clock.now_ns - before
        assert full_cost - fault_cost >= int(
            machine.costs.tocttou_setup_ns
            + 2 * 1024 * machine.costs.tocttou_copy_ns_per_byte
        )

    def test_tocttou_copy_capped_for_bulk_payloads(self, machine):
        """Bulk I/O payloads are copied into the kernel once regardless;
        TOCTTOU double copies only the control-structure-sized prefix."""
        layer = SyscallLayer(machine, trapless=True,
                             isolation=IsolationConfig.full())
        cap = machine.costs.tocttou_max_copy_bytes
        before = machine.clock.now_ns
        layer.enter("write", buffer_bytes=(100 * 1024 * 1024,))
        elapsed = machine.clock.now_ns - before
        ceiling = (machine.costs.sealed_syscall_ns
                   + machine.costs.tocttou_setup_ns
                   + 2 * cap * machine.costs.tocttou_copy_ns_per_byte)
        assert elapsed <= int(ceiling) + 1

    def test_invocations_counted(self, machine):
        layer = SyscallLayer(machine, trapless=True,
                             isolation=IsolationConfig.none())
        layer.enter("read")
        layer.enter("read")
        assert machine.counters.get("syscall") == 2
        assert machine.counters.get("syscall_read") == 2


class TestUserCapValidation:
    def make_layer(self, machine, config):
        return SyscallLayer(machine, trapless=True, isolation=config)

    def make_proc(self):
        proc = Process(1, "p")
        proc.region_base = 0x1000
        proc.region_top = 0x9000
        return proc

    def good_cap(self):
        return Capability(base=0x2000, length=0x100, cursor=0x2000,
                          perms=Perm.data_rw())

    def test_valid_buffer_accepted(self, machine):
        layer = self.make_layer(machine, IsolationConfig.fault())
        layer.validate_user_cap(self.make_proc(), self.good_cap(), 0x100)

    def test_invalid_tag_rejected(self, machine):
        layer = self.make_layer(machine, IsolationConfig.fault())
        with pytest.raises(BadAddress):
            layer.validate_user_cap(self.make_proc(),
                                    self.good_cap().invalidated(), 8)

    def test_sealed_rejected(self, machine):
        layer = self.make_layer(machine, IsolationConfig.fault())
        with pytest.raises(BadAddress):
            layer.validate_user_cap(self.make_proc(),
                                    self.good_cap().sealed(5), 8)

    def test_out_of_region_rejected(self, machine):
        layer = self.make_layer(machine, IsolationConfig.fault())
        outside = Capability(base=0xA000, length=0x100, cursor=0xA000,
                             perms=Perm.data_rw())
        with pytest.raises(BadAddress):
            layer.validate_user_cap(self.make_proc(), outside, 8)

    def test_region_edges(self, machine):
        """A buffer may fill the region exactly, but not pass either
        edge by a byte."""
        layer = self.make_layer(machine, IsolationConfig.fault())
        whole = Capability(base=0x1000, length=0x8000, cursor=0x1000,
                           perms=Perm.data_rw())
        layer.validate_user_cap(self.make_proc(), whole, 0x8000)
        wider = Capability(base=0x0FFF, length=0x8002, cursor=0x0FFF,
                           perms=Perm.data_rw())
        with pytest.raises(BadAddress, match="outside"):
            layer.validate_user_cap(self.make_proc(), wider, 8)
        with pytest.raises(BadAddress, match="outside"):
            layer.validate_user_cap(self.make_proc(), whole, 0x8001)

    def test_size_exceeding_bounds_rejected(self, machine):
        layer = self.make_layer(machine, IsolationConfig.fault())
        with pytest.raises(BadAddress):
            layer.validate_user_cap(self.make_proc(), self.good_cap(),
                                    0x101)

    def test_checks_disabled_at_none(self, machine):
        """The deployment opted out (R4): the kernel trusts its caller."""
        layer = self.make_layer(machine, IsolationConfig.none())
        layer.validate_user_cap(self.make_proc(),
                                self.good_cap().invalidated(), 8)


class TestGateCheck:
    def make_gate(self):
        return Capability(
            base=0x1_0000, length=16, cursor=0x1_0000, perms=Perm.code(),
        ).sealed(OTYPE_SENTRY)

    def make_proc(self, gate):
        proc = Process(1, "p")
        proc.syscall_gate = gate
        return proc

    def test_legit_gate_passes(self):
        gate = self.make_gate()
        check_syscall_gate(self.make_proc(gate), gate)

    def test_unsealed_rejected(self):
        gate = self.make_gate()
        proc = self.make_proc(gate)
        lookalike = Capability(base=gate.base, length=16, cursor=gate.cursor,
                               perms=Perm.code())
        with pytest.raises(IsolationViolation):
            check_syscall_gate(proc, lookalike)

    def test_wrong_target_rejected(self):
        gate = self.make_gate()
        proc = self.make_proc(gate)
        elsewhere = Capability(
            base=0x2_0000, length=16, cursor=0x2_0000, perms=Perm.code(),
        ).sealed(OTYPE_SENTRY)
        with pytest.raises(IsolationViolation):
            check_syscall_gate(proc, elsewhere)

    def test_invalid_tag_rejected(self):
        gate = self.make_gate()
        proc = self.make_proc(gate)
        with pytest.raises(IsolationViolation):
            check_syscall_gate(proc, gate.invalidated())

    def test_non_capability_rejected(self):
        proc = self.make_proc(self.make_gate())
        with pytest.raises(IsolationViolation):
            check_syscall_gate(proc, 0xDEADBEEF)

    def test_missing_gate_rejected(self):
        proc = Process(1, "p")
        proc.syscall_gate = None
        with pytest.raises(IsolationViolation):
            check_syscall_gate(proc, self.make_gate())


class TestKernelEntryGate:
    """μFork's entry check: the kernel's own sentry held by the caller
    passes at once, anything else goes through :func:`check_syscall_gate`."""

    def boot(self, machine, config=None):
        os_ = UForkOS(machine=machine, isolation=config)
        return os_, os_.spawn(hello_world_image(), "p")

    def test_own_gate_passes(self, machine):
        os_, proc = self.boot(machine)
        assert proc.syscall_gate is os_.syscall_gate
        assert os_.syscall(proc, "getpid", gate=proc.syscall_gate) == proc.pid
        assert os_.syscall(proc, "getpid") == proc.pid

    def test_field_equal_copy_passes(self, machine):
        os_, proc = self.boot(machine)
        copy = dataclasses.replace(os_.syscall_gate)
        assert copy is not os_.syscall_gate and copy == os_.syscall_gate
        assert os_.syscall(proc, "getpid", gate=copy) == proc.pid
        # a sentry restored into the process (from a register or a
        # checkpoint) is a copy too
        proc.syscall_gate = copy
        assert os_.syscall(proc, "getpid") == proc.pid
        assert os_.syscall(proc, "getpid", gate=os_.syscall_gate) == proc.pid

    def test_forged_sentry_rejected(self, machine):
        os_, proc = self.boot(machine)
        region = os_.kernel_root.set_bounds(proc.region_base, 16) \
            .with_cursor(proc.region_base)
        forged = region.sealed(OTYPE_SENTRY)
        assert proc.syscall_gate is os_.syscall_gate
        with pytest.raises(IsolationViolation):
            os_.syscall(proc, "getpid", gate=forged)

    def test_process_without_gate_rejected(self, machine):
        os_, proc = self.boot(machine)
        proc.syscall_gate = None
        with pytest.raises(IsolationViolation):
            os_.syscall(proc, "getpid")
        with pytest.raises(IsolationViolation):
            os_.syscall(proc, "getpid", gate=os_.syscall_gate)

    def test_no_check_at_none_isolation(self, machine):
        os_, proc = self.boot(machine, IsolationConfig.none())
        proc.syscall_gate = None
        forged = Capability(base=0x2_0000, length=16, cursor=0x2_0000,
                            perms=Perm.code()).sealed(OTYPE_SENTRY)
        assert os_.syscall(proc, "getpid", gate=forged) == proc.pid
        assert os_.syscall(proc, "getpid") == proc.pid


def test_kernels_sharing_a_machine_charge_their_own_plans(machine):
    """Plans belong to a kernel's syscall layer: two kernels on one
    machine, one sealed-entry at FAULT isolation, one trap-entry at
    NONE, each charge their own entry and validation costs, whichever
    ran the name first."""
    costs = machine.costs
    fault_os = UForkOS(machine=machine, isolation=IsolationConfig.fault())
    none_os = MonolithicOS(machine=machine, isolation=IsolationConfig.none())
    procs = {fault_os: fault_os.spawn(hello_world_image(), "fault"),
             none_os: none_os.spawn(hello_world_image(), "none")}
    expected = {
        fault_os: (round(costs.sealed_syscall_ns),
                   round(costs.syscall_validate_ns)),
        none_os: (round(costs.trap_syscall_ns), 0),
    }
    buckets = machine.clock.buckets
    for os_ in (fault_os, none_os, none_os, fault_os):
        for index in range(2):
            entry = buckets.get("syscall_entry", 0)
            validate = buckets.get("syscall_validate", 0)
            os_.syscall(procs[os_], "mkdir", f"/{os_.kind}-{index}-{entry}")
            assert (buckets["syscall_entry"] - entry,
                    buckets.get("syscall_validate", 0) - validate) \
                == expected[os_]
    assert fault_os.syscalls.plans["mkdir"] is not \
        none_os.syscalls.plans["mkdir"]
