"""SMP tier: machine wiring, the shootdown cost formula, IPI drop
recovery, spinlock semantics, per-CPU scheduling, and the throughput
acceptance criteria for the simulated multi-core machine."""

import pytest

from repro.kernel.task import Process, TaskState
from repro.machine import Machine
from repro.params import DEFAULT_COSTS
from repro.smp.sched import SmpScheduler


def smp_machine(num_cpus=4, seed=7, obs=True):
    machine = Machine(seed=seed, num_cpus=num_cpus)
    if obs:
        machine.obs.enable()
    return machine


def make_task(pid=100):
    return Process(pid=pid, name="victim").add_task()


# ----------------------------------------------------------------------
# Machine wiring
# ----------------------------------------------------------------------

class TestMachineWiring:
    def test_default_machine_is_uniprocessor(self):
        machine = Machine()
        assert machine.num_cpus == 1
        assert len(machine.cpus) == 1
        assert machine.tlb is machine.cores[0].tlb

    def test_cpus_grow_config_cores_when_needed(self):
        machine = Machine(num_cpus=8)
        assert machine.num_cpus == 8
        assert len(machine.cpus) == 8
        assert machine.config.cores >= 8

    def test_each_cpu_owns_a_private_tlb(self):
        machine = smp_machine(4)
        tlbs = [cpu.tlb for cpu in machine.cpus]
        assert len(set(map(id, tlbs))) == 4
        assert [tlb.cpu_id for tlb in tlbs] == [0, 1, 2, 3]

    def test_every_machine_boots_the_smp_scheduler(self):
        from repro.core import UForkOS
        for num_cpus in (1, 2):
            os_ = UForkOS(machine=Machine(num_cpus=num_cpus))
            assert type(os_.sched) is SmpScheduler
            assert os_.sched.num_cpus == num_cpus


# ----------------------------------------------------------------------
# Shootdown protocol + cost formula (satellite 1, docs/COSTMODEL.md)
# ----------------------------------------------------------------------

class TestShootdown:
    def test_cost_formula_matches_costmodel_helper(self):
        costs = DEFAULT_COSTS
        per_recipient = (costs.ipi_send_ns + costs.tlb_flush_ns
                         + costs.ipi_ack_ns)
        for recipients in range(5):
            assert costs.shootdown_ns(recipients) == \
                recipients * per_recipient

    def test_broadcast_charges_exactly_the_formula(self):
        machine = smp_machine(4)
        before = machine.clock.now_ns
        count = machine.tlb_shootdown(range(4), initiator=0)
        assert count == 3                       # initiator excluded
        elapsed = machine.clock.now_ns - before
        assert elapsed == machine.costs.shootdown_ns(3)
        assert machine.counters.get("tlb_shootdown_ipis") == 3
        assert machine.counters.get("tlb_shootdown_broadcast") == 1

    def test_recipients_flush_their_private_tlbs(self):
        machine = smp_machine(4)
        flushes_before = [cpu.tlb.flush_count for cpu in machine.cpus]
        machine.tlb_shootdown([1, 3], initiator=0)
        flushes = [cpu.tlb.flush_count - before for cpu, before
                   in zip(machine.cpus, flushes_before)]
        assert flushes == [0, 1, 0, 1]

    def test_empty_target_set_is_free_and_traceless(self):
        """R=0 must leave *no* observable trace — this is what keeps
        every 1-CPU golden bit-identical."""
        machine = smp_machine(4)
        before = machine.clock.now_ns
        assert machine.tlb_shootdown([], initiator=0) == 0
        assert machine.tlb_shootdown([0], initiator=0) == 0  # self only
        assert machine.clock.now_ns == before
        assert machine.counters.get("tlb_shootdown_broadcast") == 0
        assert machine.ipi.sent == 0

    def test_targets_clamped_to_online_cpus(self):
        machine = smp_machine(2)
        assert machine.tlb_shootdown([1, 5, 99], initiator=0) == 1


class TestIpiDrop:
    def test_dropped_ipi_is_resent_and_lands(self):
        from repro.chaos import ChaosEngine, FaultMix
        machine = smp_machine(2)
        engine = ChaosEngine(seed=7, mix=FaultMix.parse("smp.ipi.drop=1.0"))
        engine.attach(machine)
        before = machine.clock.now_ns
        attempts = machine.ipi.send(0, 1, "resched")
        assert attempts == 2
        assert machine.ipi.dropped == 1
        assert machine.ipi.resent == 1
        assert machine.ipi.acked == 1           # the retry always lands
        costs = machine.costs
        assert machine.clock.now_ns - before == (
            costs.ipi_send_ns + costs.ipi_timeout_ns
            + costs.ipi_send_ns + costs.ipi_ack_ns)
        assert engine.recovered.get("smp.ipi.drop") == 1


# ----------------------------------------------------------------------
# Kernel locking discipline
# ----------------------------------------------------------------------

class TestLocks:
    def test_uniprocessor_locks_are_free(self):
        machine = Machine()
        before = machine.clock.now_ns
        with machine.locks.fork.held():
            pass
        assert machine.clock.now_ns == before

    def test_smp_acquire_charges_spinlock_cost(self):
        machine = smp_machine(2)
        before = machine.clock.now_ns
        with machine.locks.fork.held():
            assert machine.irq_depth == 1
        assert machine.irq_depth == 0
        assert machine.clock.now_ns - before == machine.costs.spinlock_ns

    def test_double_acquire_asserts(self):
        machine = smp_machine(2)
        machine.locks.fork.acquire()
        with pytest.raises(AssertionError, match="deadlock"):
            machine.locks.fork.acquire()
        machine.locks.fork.release()

    def test_scheduling_while_atomic_asserts(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, same_address_space=True)
        task = make_task()
        sched.add(task)
        with machine.locks.fork.held():
            with pytest.raises(AssertionError, match="atomic"):
                sched.switch_to(task, cpu=0)


# ----------------------------------------------------------------------
# Per-CPU scheduling, affinity, stealing
# ----------------------------------------------------------------------

class TestSmpScheduler:
    def test_placement_spreads_over_idle_cpus(self):
        machine = smp_machine(4)
        sched = SmpScheduler(machine, True)
        tasks = [make_task(pid) for pid in range(100, 104)]
        for task in tasks:
            sched.add(task)
        depths = [len(queue) for queue in sched._queues]
        assert depths == [1, 1, 1, 1]

    def test_affinity_restricts_placement_and_picks(self):
        machine = smp_machine(4)
        sched = SmpScheduler(machine, True)
        task = make_task()
        task.pin(2)
        sched.add(task)
        assert task in sched._queues[2]
        assert sched.pick_for_cpu(2) is task
        assert sched.pick_next(cpu=0) is None   # affinity bars CPU 0

    def test_affinity_excluding_all_online_cpus_raises(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, True)
        task = make_task()
        task.pin(5)                             # offline CPU
        with pytest.raises(ValueError, match="excludes every online"):
            sched.add(task)

    def test_pin_requires_at_least_one_cpu(self):
        with pytest.raises(ValueError):
            make_task().pin()

    def test_steal_takes_oldest_from_most_loaded_victim(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, True)
        first, second = make_task(100), make_task(101)
        sched._enqueue(first, 0)
        sched._enqueue(second, 0)
        stolen = sched.steal_into(1)
        assert stolen is first                  # oldest waiter migrates
        assert first in sched._queues[1]
        assert machine.counters.get("work_steal") == 1

    def test_steal_respects_affinity(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, True)
        pinned = make_task()
        pinned.pin(0)
        sched._enqueue(pinned, 0)
        assert sched.steal_into(1) is None
        assert pinned in sched._queues[0]

    def test_steal_never_resurrects_exited_task(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, True)
        dead = make_task()
        sched._enqueue(dead, 0)
        dead.state = TaskState.EXITED
        assert sched.steal_into(1) is None
        assert dead not in sched._queues[0]     # reaped from the queue

    def test_remove_is_idempotent_and_clears_current(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, True)
        task = make_task()
        sched.add(task)
        sched.switch_to(task, cpu=1)
        assert sched.current_on(1) is task
        assert task.last_cpu == 1
        sched.remove(task)
        sched.remove(task)                      # second remove: no-op
        assert sched.current_on(1) is None

    def test_block_and_wake_never_resurrect_exited(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, True)
        task = make_task()
        task.state = TaskState.EXITED
        sched.block(task)
        assert task.state is TaskState.EXITED
        sched.wake(task)
        assert task.state is TaskState.EXITED
        sched.add(task)
        assert sched.runnable_count == 0

    def test_mas_switch_flushes_only_that_cpus_tlb(self):
        machine = smp_machine(2)
        sched = SmpScheduler(machine, same_address_space=False)
        task = make_task()
        sched.add(task)
        flush0 = machine.cpus[0].tlb.flush_count
        flush1 = machine.cpus[1].tlb.flush_count
        sched.switch_to(task, cpu=1)
        assert machine.cpus[0].tlb.flush_count == flush0
        assert machine.cpus[1].tlb.flush_count == flush1 + 1


# ----------------------------------------------------------------------
# The §2.2 lightweightness argument, measured
# ----------------------------------------------------------------------

class TestForkGap:
    def test_monolithic_fork_broadcasts_ufork_does_not(self):
        """One fork each at 4 CPUs: classic fork pays exactly
        shootdown_ns(3); μFork's footprint-bounded broadcast is empty
        for a single-threaded unmigrated parent."""
        from repro.apps.guest import GuestContext
        from repro.apps.hello import hello_world_image
        from repro.baselines.monolithic import MonolithicOS
        from repro.core import IsolationConfig, UForkOS

        def one_fork(os_cls, **kwargs):
            machine = Machine(seed=7, num_cpus=4)
            os_ = os_cls(machine=machine, **kwargs)
            ctx = GuestContext(os_, os_.spawn(hello_world_image(), "p"))
            child = ctx.fork()
            child.exit(0)
            ctx.wait(child.pid)
            shoot_ns = (machine.clock.bucket_ns("ipi")
                        + machine.clock.bucket_ns("tlb_shootdown"))
            return machine.counters.get("tlb_shootdown_ipis"), shoot_ns

        mono_ipis, mono_ns = one_fork(MonolithicOS)
        uf_ipis, uf_ns = one_fork(UForkOS,
                                  isolation=IsolationConfig.fault())
        assert mono_ipis == 3
        assert uf_ipis == 0
        # both pay one resched IPI to wake the child's CPU; only the
        # monolithic fork pays the 3-recipient shootdown on top
        assert mono_ns - uf_ns == DEFAULT_COSTS.shootdown_ns(3)

    def test_gap_widens_with_core_count(self):
        from repro.smp.runner import run_smp
        ipis = {}
        for cpus in (1, 2, 4):
            summary = run_smp(seed=7, num_cpus=cpus, requests=4,
                              workload="forkbench")
            systems = summary["systems"]
            assert systems["ufork"]["shootdown_ipis"] == 0
            ipis[cpus] = systems["monolithic"]["shootdown_ipis"]
        assert ipis == {1: 0, 2: 4, 4: 12}      # forks × (N − 1)

    def test_forkbench_rejects_a_fault_mix(self):
        from repro.smp.runner import run_smp
        with pytest.raises(ValueError, match="forkbench"):
            run_smp(seed=1, num_cpus=2, requests=4, workload="forkbench",
                    mix="default=0.05")


# ----------------------------------------------------------------------
# Acceptance: 4-CPU FaaS throughput and SMP metrics in the export
# ----------------------------------------------------------------------

class TestFaasScaling:
    def test_four_cpu_faas_scales_at_least_2_5x(self):
        from repro.smp.runner import run_smp
        one = run_smp(seed=7, num_cpus=1, requests=24, workload="faas")
        four = run_smp(seed=7, num_cpus=4, requests=24, workload="faas")
        assert one["completed"] == four["completed"] == 24
        assert four["throughput_rps"] >= 2.5 * one["throughput_rps"]
        # the SMP machinery demonstrably participated...
        assert four["ipi"]["sent"] > 0
        assert four["ipi"]["acked"] == four["ipi"]["sent"]
        assert all(cpu["busy_ns"] > 0 for cpu in four["per_cpu"])
        # ...and its metrics landed in the obs export
        assert four["obs_export_sha256"] != one["obs_export_sha256"]

    def test_smp_metrics_present_in_export(self, tmp_path):
        import json
        from repro.smp.runner import run_smp
        run_smp(seed=7, num_cpus=4, requests=16, workload="faas",
                obs_dir=str(tmp_path))
        export = json.loads((tmp_path / "smp-7-c4.obs.json").read_text())
        counters = export["metrics"]["counters"]
        assert counters["smp.ipi.sent"] > 0
        assert counters["smp.ipi.acked"] > 0
        assert counters["smp.tlb.shootdowns"] > 0
        gauges = export["metrics"]["gauges"]
        for cpu in range(4):
            assert f"smp.cpu{cpu}.busy_ns" in gauges
            assert f"smp.cpu{cpu}.steps" in gauges
