//! The execution engine: couples the workload, application server, JVM,
//! database, and CPU model on a shared simulated timeline.
//!
//! Time advances in fixed scheduler quanta. Each quantum, every core runs
//! either the garbage collector (stop-the-world), a request task's current
//! plan step, background JIT compilation, or idles. Compute steps are
//! executed as real micro-op streams on the machine model, so transaction
//! service time feeds back from achieved IPC: more cache misses → higher
//! CPI → longer service → deeper queues → higher response times. This
//! closed loop is what lets one simulation regenerate every figure of the
//! paper at once.
//!
//! # The phased round
//!
//! Within a quantum the engine repeats a three-phase round protocol:
//!
//! 1. **Plan.** In fixed core order, the scheduler assigns at most one
//!    execution slice per core: the next compute segment of a request
//!    task, or background JIT. Plan-step side effects (database calls,
//!    allocations, locks) happen here.
//! 2. **Execute.** In core order, each assigned slice runs its micro-op
//!    stream in place against strictly core-private state
//!    ([`jas_cpu::CorePrivate`]): L1 caches, ERAT/TLB, branch predictors,
//!    prefetcher, HPM counters. Shared-hierarchy traffic is recorded into a
//!    per-core ordered [`MemEvent`] buffer and provisionally charged an L2-hit
//!    latency.
//! 3. **Reconcile.** In fixed core order, each core's event buffer is
//!    drained through the shared L2/L3/MESI model
//!    ([`jas_cpu::reconcile_core`]), charging the latency difference
//!    between the provisional L2 hit and the true supplier back to the
//!    core's budget. Task bookkeeping (step advancement, blocking,
//!    completion) follows, again in core order.
//!
//! Each phase covers every core before the next one starts; this order
//! defines the digests. Stop-the-world GC records and reconciles
//! back-to-back (it is a global pause by definition), draining its events
//! in chunks of at most 4096 so a long slice never buffers more. An engine
//! runs on one host thread; a fleet runs its node engines concurrently on
//! lanes (`crate::fleet`).

use crate::config::{RunPlan, ScenarioKind, SutConfig};
use crate::profiles::{profile_for, FootprintConfig};
use jas_appserver::{
    Admission, AppServer, BreakerState, CircuitBreaker, Message, PlanStep, PoolKind, QueueId,
    TxPlan,
};
use jas_cpu::{CorePrivate, HpmEvent, Machine, MachineConfig, MemEvent, StreamGen};
use jas_db::{Database, DbError, DbFault, Query};
use jas_faults::{EventKind, FaultCounters, FaultInjector, FaultKind, FaultLog};
use jas_hpm::{
    CpuState, FaultMonitor, GcLogEntry, OmniscientHpm, SchedStats, Tprof, VerboseGc, Vmstat,
};
use jas_jvm::{Component, GcCycle, Jvm, LockOutcome, MethodId, TxHandle};
use jas_simkernel::snapshot::{self as snap, Persist, StateIo, WordDigest};
use jas_simkernel::{ComponentId, Rng, SimDuration, SimTime, WakeHeap};
use jas_trace::{HostProf, HostProfReport, HostSection, TraceEventKind, Tracer};
use jas_workload::{
    JasScenario, Metrics, ReplayLog, ReplayScenario, RequestKind, Scenario, TradeScenario,
};
use std::collections::VecDeque;

fn comp_index(c: Component) -> usize {
    Component::ALL
        .iter()
        .position(|&x| x == c)
        .expect("component is in ALL")
}

/// Per-component GC work-cost constants (full-scale instructions), chosen
/// so a ~200 MB live set marks in the paper's 300–400 ms band.
const MARK_INSTR_PER_OBJECT: f64 = 255.0;
const MARK_INSTR_PER_EDGE: f64 = 56.0;
const MARK_INSTR_PER_BYTE: f64 = 0.32;
const SWEEP_INSTR_PER_OBJECT: f64 = 14.0;
const SWEEP_INSTR_PER_BYTE: f64 = 0.06;
const COMPACT_INSTR_PER_BYTE: f64 = 1.0;

/// Wake-heap component ids (the deterministic tie-breaker for wake-ups
/// sharing a tick — see the registration contract in DESIGN.md §12): the
/// arrival stream, then the HPM-period sampler, then two slots per fault
/// window (start/end edges), then one slot per task. A running GC registers
/// nothing: an active pause already pins the engine non-idle.
const WAKE_ARRIVAL: ComponentId = 0;
const WAKE_SAMPLER: ComponentId = 1;
const WAKE_FAULT_BASE: ComponentId = 16;
const WAKE_TASK_BASE: ComponentId = 1024;

/// The most shared-hierarchy events a GC slice holds before it drains
/// them through the shared hierarchy: 64 KB of [`MemEvent`]s per core.
/// Without a bound, one stop-the-world slice records ~54K events and every
/// core's buffer keeps that ~1 MB capacity for the rest of the run.
const RECONCILE_CHUNK: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    Ready,
    BlockedUntil(SimTime),
    WaitingPool,
    Done,
}

#[derive(Debug)]
struct Task {
    kind: RequestKind,
    plan: TxPlan,
    step: usize,
    remaining_modeled: f64,
    extra: VecDeque<(Component, f64)>,
    issued: SimTime,
    jvm_tx: Option<TxHandle>,
    pool: Option<PoolKind>,
    state: TaskState,
    /// Whether the current `BlockedUntil` wait is a disk I/O (drives the
    /// vmstat I/O-wait classification).
    io_blocked: bool,
    /// Quantum stamp preventing one task from running on two cores within
    /// the same quantum.
    last_run_quantum: u64,
    /// Failed attempts of the current statement (resets on success; only
    /// touched when the fault plan is armed).
    attempts: u32,
    /// Absolute per-request deadline, when the fault config sets one.
    deadline: Option<SimTime>,
    /// The consumed-but-uncommitted work-order message: on permanent
    /// failure it goes back to its queue (redelivery) or the dead-letter
    /// queue.
    mq_msg: Option<(QueueId, Message)>,
}

impl Task {
    /// Drops the steps of a finished task: nothing reads a `Done` task's
    /// plan or pending extra work, so host memory holds only live plans.
    fn free_steps(&mut self) {
        self.plan = TxPlan::default();
        self.extra = VecDeque::new();
    }
}

struct GcPause {
    remaining_modeled: f64,
    mark_fraction: f64,
    start: SimTime,
    cycle: GcCycle,
}

/// What an execution slice is working on (resolved again at bookkeeping).
#[derive(Clone, Copy, Debug)]
enum SliceKind {
    /// A request task's current compute segment.
    Task(usize),
    /// Background JIT compilation.
    Jit,
}

/// One core's assignment for a round, planned in ascending core order.
struct Slice {
    core: usize,
    kind: SliceKind,
    component: Component,
    max_instr: f64,
}

/// Runs one slice in place to its cycle budget or instruction bound;
/// returns `(cycles used, instructions executed)`. `after_op` sees the
/// core and its event buffer after every op: task slices pass a no-op,
/// touch core-private state only and leave their events for the
/// reconcile phase; GC slices drain theirs in chunks.
fn run_slice(
    cp: &mut CorePrivate,
    gen: &mut StreamGen,
    events: &mut Vec<MemEvent>,
    machine: &MachineConfig,
    cycles_budget: f64,
    max_instr: f64,
    mut after_op: impl FnMut(&mut CorePrivate, &mut Vec<MemEvent>),
) -> (f64, f64) {
    let cost = &machine.cost;
    let addr_map = machine.addr_map;
    let mut used = 0.0;
    let mut executed: u64 = 0;
    // Drain the generator's buffered blocks directly; the closure's return
    // value reproduces the former `while used < budget && executed < max`
    // pre-check (the initial check is the `if` guard, with `used == 0`).
    if cycles_budget > 0.0 && max_instr > 0.0 {
        // For an integer count `k`, `k < max` ⟺ `k < ceil(max)` (no integer
        // lies in `[max, ceil(max))`), so the former f64 instruction-count
        // compare becomes an integer one. The saturating `as u64` cast keeps
        // the equivalence for out-of-range ceilings (the compare is then
        // always true, as with the unbounded f64).
        let max_instr = max_instr.ceil() as u64;
        gen.drive(|ia, op| {
            used += cp.exec_record(cost, addr_map, ia, op, events);
            executed += 1;
            after_op(cp, events);
            used < cycles_budget && executed < max_instr
        });
    }
    // Exact: slice instruction counts are far below 2^53.
    (used, executed as f64)
}

/// The coupled system-under-test simulation.
pub struct Engine {
    cfg: SutConfig,
    run: RunPlan,
    machine: Machine,
    jvm: Jvm,
    db: Database,
    appserver: AppServer,
    scenario: Box<dyn Scenario + Send>,
    rng: Rng,
    clock: SimTime,
    next_arrival: (SimTime, RequestKind),
    /// External-arrival mode (cluster dispatch): when `Some`, the engine
    /// never draws arrivals from its scenario. The queue holds
    /// LB-dispatched requests sorted by arrival time and `next_arrival`
    /// mirrors its front ([`Engine::NO_ARRIVAL`] when empty), so the idle
    /// predicate and wake registration work unchanged. `None` keeps the
    /// byte-identical legacy single-node path.
    external: Option<VecDeque<(SimTime, RequestKind)>>,
    /// Every task ever spawned, indexed by spawn order. A finished task
    /// keeps its slot (indices and trace span ids stay stable) but frees
    /// its plan.
    tasks: Vec<Task>,
    /// Indices of the tasks not yet `Done`, ascending: the per-quantum
    /// scans walk these rather than every task ever spawned. Derived from
    /// `tasks`, so rebuilt on restore rather than persisted.
    live: Vec<usize>,
    /// Per-core ready queues: tasks have core affinity (idx % cores) so
    /// their hot cache state stays on one L1; idle cores steal.
    ready: Vec<VecDeque<usize>>,
    pending_workorders: u64,
    gc: Option<GcPause>,
    jit_backlog_modeled: f64,
    /// One generator per `(core, component)` pair, indexed
    /// `[core][component]`. Cores carry distinct salts so their
    /// thread-local data does not falsely share.
    gens: Vec<Vec<StreamGen>>,
    /// Per-core ordered buffers of recorded shared-hierarchy events,
    /// retained across rounds to avoid reallocation.
    event_bufs: Vec<Vec<MemEvent>>,
    method_cdf: Vec<(Vec<MethodId>, Vec<f64>)>,
    correlation_seq: u64,
    outstanding_io: u32,
    quantum_counter: u64,
    steady_base: Option<jas_cpu::CounterFile>,
    // Instruments.
    hpm: OmniscientHpm,
    tprof: Tprof,
    vmstat: Vmstat,
    vgc: VerboseGc,
    metrics: Metrics,
    completed_requests: u64,
    aborted_requests: u64,
    /// Like `completed_requests`/`aborted_requests` but excluding the
    /// internally spawned work-order follow-ups: outcomes of exactly the
    /// requests a front-end (the cluster LB) handed to this node.
    frontend_completed: u64,
    frontend_aborted: u64,
    // Fault injection + resilience (inert when the plan is empty).
    injector: FaultInjector,
    breaker: CircuitBreaker,
    faultmon: FaultMonitor,
    /// Cached `injector.armed()`: gates every resilience path so a healthy
    /// run takes the byte-identical legacy code.
    faults_active: bool,
    // Request tracing + host self-profiling (inert when disabled).
    tracer: Tracer,
    /// Cached `tracer.active()`: gates every emission site so an untraced
    /// run takes the byte-identical legacy code (jas-faults discipline).
    trace_active: bool,
    /// Host scoped timers (`--host-prof`); wall-clock readings stay here
    /// and never feed back into simulation state.
    hostprof: Option<HostProf>,
    /// When recording, every arrival and compiled plan lands here so the
    /// run can later be replayed without the load generator.
    recorder: Option<ReplayLog>,
    /// Test oracle switch, set only by [`Engine::no_skip`]: execute every
    /// quantum, even provably idle ones. Never persisted or fingerprinted.
    no_skip: bool,
    /// The scheduler's wake-up heap.
    wakes: WakeHeap,
    /// Scheduler-occupancy counters (`--figure sched`).
    sched_stats: SchedStats,
}

// A fleet node hands its engine to a lane thread for each LB epoch
// (`crate::fleet`), so the engine must stay `Send`: a `!Send` field fails
// the build here rather than at the lane.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

impl Engine {
    /// Builds the system under test and its instruments.
    #[must_use]
    pub fn new(cfg: SutConfig, run: RunPlan) -> Self {
        let mut rng = Rng::new(cfg.seed);
        let machine = Machine::new(cfg.machine.clone());
        let jvm = Jvm::new(cfg.jvm);
        let mut db = Database::new(cfg.db);
        let scenario: Box<dyn Scenario + Send> = match cfg.scenario {
            ScenarioKind::JAppServer => Box::new(JasScenario::with_curve(
                &mut db,
                cfg.ir,
                cfg.seed,
                cfg.curve.clone(),
            )),
            ScenarioKind::TradeLike => Box::new(TradeScenario::with_curve(
                &mut db,
                cfg.ir,
                cfg.seed,
                cfg.curve.clone(),
            )),
        };
        let appserver = AppServer::new(cfg.appserver);
        let fp = FootprintConfig::of(&cfg);
        let cores = cfg.machine.topology.cores();
        // Fork order is component-major (stable across layout changes);
        // storage is row-per-core.
        let mut gens: Vec<Vec<StreamGen>> = (0..cores).map(|_| Vec::new()).collect();
        for &c in Component::ALL.iter() {
            for (core, row) in gens.iter_mut().enumerate() {
                row.push(StreamGen::new(
                    profile_for(c, &fp),
                    rng.fork(&format!("{}/{core}", c.name())),
                    core as u64 + 1,
                ));
            }
        }
        let method_cdf = Component::ALL
            .iter()
            .map(|&c| {
                let ids = jvm.registry().of_component(c);
                let mut acc = 0.0;
                let cdf = ids
                    .iter()
                    .map(|&id| {
                        acc += jvm.registry().get(id).weight;
                        acc
                    })
                    .collect();
                (ids, cdf)
            })
            .collect();
        let steady_start = run.steady_start();
        let end = run.end();
        let hpm = OmniscientHpm::new(run.hpm_period);
        let metrics = Metrics::new(run.throughput_bin, steady_start, end);
        // The injector's RNG is seeded independently of the master stream
        // (salted inside FaultInjector), so arming a plan never shifts the
        // healthy workload draws.
        let injector = FaultInjector::new(cfg.seed, cfg.faults.plan.clone());
        let faults_active = injector.armed();
        let breaker = CircuitBreaker::new(cfg.faults.breaker);
        let faultmon = FaultMonitor::new(run.hpm_period);
        let tracer = Tracer::new(cfg.trace, cores);
        let trace_active = tracer.active();
        let hostprof = cfg.host_prof.then(HostProf::new);
        let mut engine = Engine {
            cfg,
            run,
            machine,
            jvm,
            db,
            appserver,
            scenario,
            rng,
            clock: SimTime::ZERO,
            next_arrival: (SimTime::ZERO, RequestKind::Browse),
            external: None,
            tasks: Vec::new(),
            live: Vec::new(),
            ready: vec![VecDeque::new(); cores],
            pending_workorders: 0,
            gc: None,
            jit_backlog_modeled: 0.0,
            gens,
            event_bufs: vec![Vec::new(); cores],
            method_cdf,
            correlation_seq: 0,
            outstanding_io: 0,
            quantum_counter: 0,
            steady_base: None,
            hpm,
            tprof: Tprof::new(),
            vmstat: Vmstat::new(steady_start),
            vgc: VerboseGc::new(),
            metrics,
            completed_requests: 0,
            aborted_requests: 0,
            frontend_completed: 0,
            frontend_aborted: 0,
            injector,
            breaker,
            faultmon,
            faults_active,
            tracer,
            trace_active,
            hostprof,
            recorder: None,
            no_skip: false,
            wakes: WakeHeap::new(),
            sched_stats: SchedStats::default(),
        };
        // Pre-warm the session store so the live set starts near its
        // steady-state target (the paper measures after a long warm-up; a
        // cold live set would make used-heap growth reflect session ramp
        // rather than dark matter).
        let target = engine.cfg.jvm.live_target * 4 / 5;
        let mut warm_rng = engine.rng.fork("session-warmup");
        while engine.jvm.heap().live_bytes() < target {
            engine.jvm.touch_session(&mut warm_rng);
        }
        engine.jvm.take_gc_cycles(); // warm-up GCs are discarded, not measured
        let (gap, kind) = engine.scenario.next_arrival();
        engine.next_arrival = (SimTime::ZERO + gap, kind);
        engine.register_initial_wakes();
        engine
    }

    /// The skip-exactness oracle: an engine that executes every quantum
    /// instead of fast-forwarding over provably idle ones. It registers
    /// and consumes the same wake-ups, so only host time differs; tests
    /// and benches compare it against [`Engine::new`] to show that
    /// skipping is unobservable (DESIGN.md §12).
    #[must_use]
    pub fn no_skip(cfg: SutConfig, run: RunPlan) -> Self {
        let mut engine = Engine::new(cfg, run);
        engine.no_skip = true;
        engine
    }

    /// The simulation clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Runs the whole configured plan (ramp-up + steady state).
    pub fn run_to_end(&mut self) {
        let end = self.run.end();
        self.advance_to(end);
        self.hpm.finish(end);
        if self.faults_active {
            self.faultmon.finish(end);
        }
    }

    /// Advances to `until`, consulting the wake heap and fast-forwarding
    /// over provably idle quanta while replicating their observable
    /// per-quantum effects exactly (DESIGN.md §12), so the simulation
    /// state at every boundary is bit-identical to executing every
    /// quantum — which is what an [`Engine::no_skip`] oracle does.
    fn advance_to(&mut self, until: SimTime) {
        let q = self.cfg.quantum.as_nanos().max(1);
        // Quanta [quantum_counter, limit) remain: quantum `n` spans
        // `[n*q, (n+1)*q)`, and `clock = quantum_counter * q` holds at
        // every boundary, so `clock < until` ⟺ `quantum_counter < limit`.
        let limit = until.as_nanos().div_ceil(q);
        while self.quantum_counter < limit {
            self.register_standing_wakes();
            if !self.no_skip && self.quantum_is_idle() {
                let wake = self.wakes.next_wake().unwrap_or(limit).min(limit);
                if wake > self.quantum_counter {
                    self.skip_idle_quanta(wake - self.quantum_counter);
                    continue;
                }
            }
            self.step_quantum();
            self.sched_stats.quanta_executed += 1;
            self.sched_stats.events_dispatched += self.wakes.take_due(self.quantum_counter - 1);
        }
    }

    /// The quantum index whose *start* clock first reaches `at` — the
    /// quantum that must execute for a `BlockedUntil(at)` unblock check
    /// (`at <= clock`, evaluated at the quantum start) to see the event.
    fn wake_tick_at_start(&self, at: SimTime) -> u64 {
        at.as_nanos().div_ceil(self.cfg.quantum.as_nanos().max(1))
    }

    /// Registers the standing wake-ups that always exist: the next
    /// workload arrival (admitted when it falls *before* a quantum's end,
    /// hence the floor) and the quantum crossing the next HPM-period
    /// boundary (which must execute so the periodic vmstat row and
    /// `HpmSample` trace event land at their exact timestamps). Both are
    /// re-registered — a no-op when unchanged — every scheduler decision.
    fn register_standing_wakes(&mut self) {
        let q = self.cfg.quantum.as_nanos().max(1);
        self.wakes
            .register(WAKE_ARRIVAL, self.next_arrival.0.as_nanos() / q);
        let period = self.run.hpm_period.as_nanos().max(1);
        let boundary = (self.clock.as_nanos() / period + 1) * period;
        // The quantum whose end first reaches the boundary: every skipped
        // quantum ends strictly before it, so skipped idle time stays in
        // the vmstat interval that closes at the boundary.
        self.wakes.register(WAKE_SAMPLER, (boundary - 1) / q);
    }

    /// Registers the wake-ups a freshly built engine starts with: the
    /// standing pair and the static fault-window edges. (No task exists
    /// yet; [`Engine::block_until`] registers each one as it blocks, and a
    /// checkpoint carries the live registrations, so a restore needs no
    /// re-derivation.)
    fn register_initial_wakes(&mut self) {
        self.register_standing_wakes();
        for (w, window) in self.cfg.faults.plan.windows().iter().enumerate() {
            let comp = WAKE_FAULT_BASE + 2 * w as u64;
            let start = self.wake_tick_at_start(window.start);
            let end = self.wake_tick_at_start(window.end);
            self.wakes.register(comp, start);
            self.wakes.register(comp + 1, end);
        }
    }

    /// Whether executing the next quantum would change nothing beyond the
    /// per-quantum accounting the skip path replicates: no GC pause, no
    /// JIT backlog, no runnable or due-to-unblock task, no arrival due,
    /// and — under an armed fault plan — no state-changing fault activity
    /// at this boundary. Spurious `false` costs only host time; the wake
    /// heap exists so `true` stretches are skipped in one step.
    fn quantum_is_idle(&self) -> bool {
        if self.gc.is_some()
            || self.jit_backlog_modeled > 1.0
            || self.ready.iter().any(|r| !r.is_empty())
            || self.next_arrival.0 < self.clock + self.cfg.quantum
        {
            return false;
        }
        if self.live.iter().any(
            |&i| matches!(self.tasks[i].state, TaskState::BlockedUntil(at) if at <= self.clock),
        ) {
            return false;
        }
        if self.faults_active {
            // A GC-storm roll draws from the injector RNG whenever its
            // window is active, and a seize-level change mutates pool
            // state; either forces the quantum to execute. Window
            // activity is constant over any skipped range because the
            // window edges are registered wake-ups.
            let plan = self.injector.plan();
            if plan.active_rate(FaultKind::GcStorm, self.clock).is_some() {
                return false;
            }
            let capacity = self.cfg.appserver.web_threads;
            if self.injector.seize_level(self.clock, capacity)
                != self.appserver.seized(PoolKind::WebContainer)
            {
                return false;
            }
        }
        true
    }

    /// Fast-forwards over `k` provably idle quanta, replicating exactly
    /// what executing each of them would have done: the clock and quantum
    /// counter advance, traced runs stage-and-merge one zero-cycle
    /// `CoreQuantum` per core per quantum, steady-state quanta account a
    /// full idle (or I/O-wait) quantum per core, and the steady-state
    /// counter snapshot is taken if its boundary was crossed. Everything
    /// else — HPM counters, RNG streams, every subsystem — is untouched,
    /// which is precisely what [`Engine::quantum_is_idle`] guarantees.
    // jas-lint: allow(D012, reason = "this is the idle fast-forward itself; it advances the clock to the pre-computed wake tick")
    fn skip_idle_quanta(&mut self, k: u64) {
        let quantum = self.cfg.quantum;
        let cores = self.cfg.machine.topology.cores();
        if self.trace_active {
            let mut at = self.clock;
            for _ in 0..k {
                for core in 0..cores {
                    self.tracer.stage(
                        core,
                        at,
                        core as u64,
                        TraceEventKind::CoreQuantum { cycles: 0 },
                    );
                }
                self.tracer.merge_staged();
                at += quantum;
            }
        }
        // Idle accounting batches into one call per state: the spans are
        // integer nanoseconds, so the sum is exact and order-free.
        let steady_start = self.run.steady_start();
        let first_steady = self
            .quantum_counter
            .max(self.wake_tick_at_start(steady_start));
        let k_steady = (self.quantum_counter + k).saturating_sub(first_steady);
        if k_steady > 0 {
            let span = quantum * (k_steady * cores as u64);
            if self.outstanding_io > 0 {
                self.vmstat.account(CpuState::IoWait, span);
            } else {
                self.vmstat.account(CpuState::Idle, span);
            }
        }
        self.quantum_counter += k;
        self.clock += quantum * k;
        if self.steady_base.is_none() && self.clock >= steady_start {
            // Counters did not move inside the batch, so snapshotting at
            // the batch end equals the executed path's snapshot at the
            // first steady quantum boundary.
            self.steady_base = Some(self.machine.total_counters());
        }
        self.sched_stats.idle_ticks_skipped += k;
        if let Some(hp) = self.hostprof.as_mut() {
            for _ in 0..k {
                hp.note_quantum();
            }
        }
    }

    /// Blocks `task_idx` until `until`, registering the task's wake-up.
    fn block_until(&mut self, task_idx: usize, until: SimTime) {
        self.tasks[task_idx].state = TaskState::BlockedUntil(until);
        let tick = self.wake_tick_at_start(until);
        self.wakes.register(WAKE_TASK_BASE + task_idx as u64, tick);
    }

    /// Enqueues a task on its affinity core's ready queue.
    // jas-lint: allow(D012, reason = "a non-empty ready queue makes the predicate false immediately at the next quantum check")
    fn enqueue(&mut self, task_idx: usize) {
        let core = task_idx % self.ready.len();
        self.ready[core].push_back(task_idx);
    }

    /// Pops the next task for `core`: own queue first, else steal from the
    /// deepest other queue.
    // jas-lint: allow(D012, reason = "removing ready work only moves toward idle; nothing future is stranded")
    fn dequeue_for(&mut self, core: usize) -> Option<usize> {
        if let Some(t) = self.ready[core].pop_front() {
            return Some(t);
        }
        let victim = (0..self.ready.len())
            .filter(|&q| q != core)
            .max_by_key(|&q| self.ready[q].len())?;
        self.ready[victim].pop_front()
    }

    fn sample_method(&mut self, component: Component) -> Option<MethodId> {
        let (ids, cdf) = &self.method_cdf[comp_index(component)];
        let total = *cdf.last()?;
        if total <= 0.0 {
            return None;
        }
        let x = self.rng.next_f64() * total;
        let i = cdf.partition_point(|&c| c < x).min(ids.len() - 1);
        Some(ids[i])
    }

    /// Opens a host-profiler scope for `section` (no-op when profiling is
    /// off; closes any scope already open).
    fn prof(&mut self, section: HostSection) {
        if let Some(hp) = self.hostprof.as_mut() {
            hp.begin(section);
        }
    }

    /// Closes the open host-profiler scope, if any.
    fn prof_end(&mut self) {
        if let Some(hp) = self.hostprof.as_mut() {
            hp.end();
        }
    }

    /// Executes exactly one quantum (only [`Engine::advance_to`] calls
    /// this, so the scheduler sees every quantum).
    fn step_quantum(&mut self) {
        let quantum = self.cfg.quantum;
        let quantum_end = self.clock + quantum;
        self.prof(HostSection::Schedule);

        // 0. Apply quantum-granular faults (pool seizures, GC storms) at
        // the boundary, sequentially: the decisions are thread-invariant.
        if self.faults_active {
            self.apply_quantum_faults();
        }

        // 1. Admit arrivals due in this quantum. In external-arrival mode
        // (cluster dispatch) the queue replaces the scenario's generator;
        // otherwise this is the byte-identical legacy draw loop.
        if self.external.is_some() {
            while self.next_arrival.0 < quantum_end {
                let (at, kind) = self.next_arrival;
                self.admit(kind, at.max(self.clock));
                let queue = self.external.as_mut().expect("external mode");
                queue.pop_front();
                self.next_arrival = queue
                    .front()
                    .copied()
                    .unwrap_or((Engine::NO_ARRIVAL, RequestKind::Browse));
            }
        } else {
            while self.next_arrival.0 < quantum_end {
                let (at, kind) = self.next_arrival;
                self.admit(kind, at.max(self.clock));
                let (gap, next_kind) = self.scenario.next_arrival();
                if let Some(log) = self.recorder.as_mut() {
                    log.arrivals.push((gap, next_kind));
                }
                self.next_arrival = (self.next_arrival.0 + gap, next_kind);
            }
        }

        // 2. Unblock tasks whose waits expired, in index order.
        for k in 0..self.live.len() {
            let i = self.live[k];
            if let TaskState::BlockedUntil(t) = self.tasks[i].state {
                if t <= self.clock {
                    self.tasks[i].state = TaskState::Ready;
                    if self.tasks[i].io_blocked {
                        self.tasks[i].io_blocked = false;
                        self.outstanding_io = self.outstanding_io.saturating_sub(1);
                    }
                    self.enqueue(i);
                }
            }
        }

        // 3. Run the cores through plan/execute/reconcile rounds (see the
        // module docs).
        self.run_rounds();

        // 4. Advance the clock and feed the samplers.
        self.prof(HostSection::Instruments);
        // Did this quantum cross an HPM sampling-period boundary? Computed
        // from integer nanosecond arithmetic so it is trivially
        // thread-invariant; drives the periodic vmstat row and the
        // `HpmSample` trace event at the same cadence the HPM uses.
        let crossed_hpm_period = {
            let period = self.run.hpm_period.as_nanos().max(1);
            self.clock.as_nanos() / period != quantum_end.as_nanos() / period
        };
        self.clock = quantum_end;
        self.quantum_counter += 1;
        let totals = self.machine.total_counters();
        self.hpm.observe(self.clock, &totals);
        if crossed_hpm_period && self.clock >= self.run.steady_start() {
            self.vmstat.sample(self.clock);
        }
        if self.trace_active {
            // Per-core staged events (quantum boundaries) merge here, in
            // the sequential phase, in fixed core order.
            self.tracer.merge_staged();
            if crossed_hpm_period {
                self.tracer.emit(
                    self.clock,
                    0,
                    TraceEventKind::HpmSample {
                        instructions: totals.get(HpmEvent::InstCompleted),
                    },
                );
            }
        }
        if self.faults_active {
            let counters = *self.injector.counters();
            self.faultmon.observe(self.clock, &counters);
        }
        if self.steady_base.is_none() && self.clock >= self.run.steady_start() {
            self.steady_base = Some(self.machine.total_counters());
        }
        self.prof_end();
        if let Some(hp) = self.hostprof.as_mut() {
            hp.note_quantum();
        }
    }

    /// Applies faults that act at quantum granularity: the pool-seizure
    /// level tracks the active window (lifting a window resumes admitted
    /// waiters), and a GC-storm roll forces a real collection.
    // jas-lint: allow(D012, reason = "runs only in executed quanta; fault windows hold standing wakes and lifted windows resume waiters the predicate sees via ready")
    fn apply_quantum_faults(&mut self) {
        let now = self.clock;
        // Seize web-container threads: the front door of the whole stack,
        // so exhaustion backs up into admission queueing and response
        // times, exactly like a stuck thread pool.
        let kind = PoolKind::WebContainer;
        let capacity = self.cfg.appserver.web_threads;
        let level = self.injector.seize_level(now, capacity);
        let current = self.appserver.seized(kind);
        if level != current {
            if level > current {
                self.injector
                    .note(now, EventKind::Injected(FaultKind::PoolSeize));
                if self.trace_active {
                    self.tracer.emit(
                        now,
                        0,
                        TraceEventKind::PoolSeized {
                            level: level as u64,
                        },
                    );
                }
            }
            for token in self.appserver.set_seized(kind, level) {
                let waiter = token as usize;
                if self.tasks[waiter].state == TaskState::WaitingPool {
                    self.tasks[waiter].state = TaskState::Ready;
                    self.enqueue(waiter);
                }
            }
        }
        // GC storm: force a real collection so pause accounting, verbose-gc
        // logging, and heap state stay consistent with organic cycles.
        if self.gc.is_none() && self.injector.roll(FaultKind::GcStorm, now) {
            self.jvm.force_gc();
            self.drain_gc_cycles();
        }
    }

    /// Runs one quantum's plan/execute/reconcile rounds.
    fn run_rounds(&mut self) {
        let quantum = self.cfg.quantum;
        let cores = self.cfg.machine.topology.cores();
        let budget = self.cfg.machine.frequency_hz * quantum.as_secs_f64();
        let freq = self.cfg.machine.frequency_hz;
        let in_steady = self.clock >= self.run.steady_start();
        let cost = self.cfg.machine.cost;
        let topo = self.cfg.machine.topology;

        // Detach the core-private halves from the shared hierarchy, so each
        // reconcile can borrow both.
        let mut core_states = self.machine.take_cores();
        let mut cycles_left = vec![budget; cores];
        let mut user = vec![0.0; cores];
        let mut sys = vec![0.0; cores];
        let mut done = vec![false; cores];
        let mut no_more_tasks = vec![false; cores];
        // The task whose compute segment a core is between rounds of.
        let mut current: Vec<Option<usize>> = vec![None; cores];

        loop {
            // Stop-the-world GC runs sequentially: it is a global pause,
            // and the paper's collector is single-threaded per quantum.
            if self.gc.is_some() {
                self.prof(HostSection::Gc);
                for core in 0..cores {
                    if self.gc.is_none() {
                        break;
                    }
                    if done[core] {
                        continue;
                    }
                    if cycles_left[core] <= budget * 0.02 {
                        done[core] = true;
                        continue;
                    }
                    let used = self.run_gc_slice(
                        core,
                        &mut core_states[core],
                        cycles_left[core],
                        in_steady,
                    );
                    user[core] += used;
                    cycles_left[core] -= used;
                }
                if self.gc.is_some() {
                    // Every core's budget drained with the pause still
                    // active: the quantum is over.
                    break;
                }
            }

            // Phase 1: assign at most one slice per core.
            self.prof(HostSection::Plan);
            let mut slices: Vec<Slice> = Vec::new();
            let mut jit_assigned = false;
            for core in 0..cores {
                if done[core] || self.gc.is_some() {
                    continue;
                }
                if cycles_left[core] <= budget * 0.02 {
                    done[core] = true;
                    continue;
                }
                let assignment = self
                    .next_task_segment(core, &mut current[core], &mut no_more_tasks[core])
                    .map(|(t, component, max_instr)| (SliceKind::Task(t), component, max_instr))
                    .or_else(|| {
                        // Idle capacity goes to background JIT. One slice
                        // per round keeps the backlog decrement exact;
                        // other idle cores pick up the remainder next
                        // round, concurrently with task slices.
                        if self.gc.is_none()
                            && !jit_assigned
                            && cycles_left[core] > budget * 0.05
                            && self.jit_backlog_modeled > 1.0
                        {
                            jit_assigned = true;
                            Some((
                                SliceKind::Jit,
                                Component::JitCompiler,
                                self.jit_backlog_modeled,
                            ))
                        } else {
                            None
                        }
                    });
                if let Some((kind, component, max_instr)) = assignment {
                    slices.push(Slice {
                        core,
                        kind,
                        component,
                        max_instr,
                    });
                }
            }
            if slices.is_empty() {
                if self.gc.is_some() {
                    continue; // a pick triggered GC; run it next round
                }
                break;
            }

            // Phase 2: execute every slice in place, in core order.
            self.prof(HostSection::Execute);
            let results: Vec<(f64, f64)> = slices
                .iter()
                .map(|s| {
                    run_slice(
                        &mut core_states[s.core],
                        &mut self.gens[s.core][comp_index(s.component)],
                        &mut self.event_bufs[s.core],
                        &self.cfg.machine,
                        cycles_left[s.core],
                        s.max_instr,
                        |_, _| {},
                    )
                })
                .collect();

            // Phase 3 (core order): reconcile recorded shared-hierarchy
            // traffic, then task bookkeeping.
            self.prof(HostSection::Reconcile);
            for (s, (used, executed)) in slices.iter().zip(results) {
                let core = s.core;
                let correction = jas_cpu::reconcile_core(
                    &mut core_states[core],
                    topo.chip_of_core(core),
                    &cost,
                    self.machine.mem_mut(),
                    &mut self.event_bufs[core],
                );
                let used = used + correction;
                cycles_left[core] -= used;
                match s.kind {
                    SliceKind::Jit => {
                        self.jit_backlog_modeled -= executed;
                        user[core] += used;
                        if in_steady && executed >= 1.0 {
                            if let Some(m) = self.sample_method(Component::JitCompiler) {
                                self.tprof.record(self.jvm.registry(), m, executed as u64);
                            }
                        }
                    }
                    SliceKind::Task(t) => {
                        self.tasks[t].remaining_modeled -= executed;
                        if in_steady {
                            if let Some(m) = self.sample_method(s.component) {
                                self.tprof.record(self.jvm.registry(), m, executed as u64);
                                let work = self.jvm.record_invocations(m, 10);
                                self.jit_backlog_modeled += work / self.cfg.instruction_scale();
                            }
                        }
                        if s.component == Component::Kernel {
                            sys[core] += used;
                        } else {
                            user[core] += used;
                        }
                        if self.tasks[t].remaining_modeled <= 0.0 {
                            self.advance_past_compute(t);
                            match self.interpret_until_compute(t) {
                                StepOutcome::Compute => {} // next segment, same core
                                StepOutcome::Blocked => current[core] = None,
                                StepOutcome::Finished => {
                                    self.complete_task(t);
                                    current[core] = None;
                                }
                            }
                        }
                    }
                }
            }
        }

        // Re-attach the cores and account utilization.
        self.machine.restore_cores(core_states);
        for core in 0..cores {
            // A segment cut off by the quantum stays with its task; the
            // task rejoins its affinity queue for the next quantum.
            if let Some(t) = current[core].take() {
                self.enqueue(t);
            }
            if self.trace_active {
                // Quantum-boundary events go through the per-core staging
                // buffers; `step_quantum` merges them in fixed core order.
                self.tracer.stage(
                    core,
                    self.clock,
                    core as u64,
                    TraceEventKind::CoreQuantum {
                        cycles: (user[core] + sys[core]).round() as u64,
                    },
                );
            }
            if in_steady {
                let user_t = SimDuration::from_secs_f64(user[core] / freq);
                let sys_t = SimDuration::from_secs_f64(sys[core] / freq);
                self.vmstat.account(CpuState::User, user_t);
                self.vmstat.account(CpuState::System, sys_t);
                let busy = user_t + sys_t;
                let idle = if busy >= quantum {
                    SimDuration::ZERO
                } else {
                    quantum - busy
                };
                if self.outstanding_io > 0 {
                    self.vmstat.account(CpuState::IoWait, idle);
                } else {
                    self.vmstat.account(CpuState::Idle, idle);
                }
            }
        }
    }

    /// Finds `core`'s next task compute segment: the in-flight continuation
    /// if there is one, else dequeued tasks are interpreted (side effects
    /// run here, in the sequential phase) until one yields a compute
    /// segment. Returns `(task, component, max_instructions)`.
    fn next_task_segment(
        &mut self,
        core: usize,
        current: &mut Option<usize>,
        no_more_tasks: &mut bool,
    ) -> Option<(usize, Component, f64)> {
        if let Some(t) = *current {
            return Some((
                t,
                self.current_component(t),
                self.tasks[t].remaining_modeled,
            ));
        }
        if *no_more_tasks {
            return None;
        }
        while self.gc.is_none() {
            let t = self.dequeue_for(core)?;
            if self.tasks[t].last_run_quantum == self.quantum_counter {
                // Already ran this quantum on another core; keep it for the
                // next quantum rather than spreading one request over
                // several cores.
                self.ready[core].push_front(t);
                *no_more_tasks = true;
                return None;
            }
            self.tasks[t].last_run_quantum = self.quantum_counter;
            if self.tasks[t].remaining_modeled > 0.0 {
                // Resuming a segment cut off by a previous quantum.
                *current = Some(t);
                return Some((
                    t,
                    self.current_component(t),
                    self.tasks[t].remaining_modeled,
                ));
            }
            match self.interpret_until_compute(t) {
                StepOutcome::Compute => {
                    *current = Some(t);
                    return Some((
                        t,
                        self.current_component(t),
                        self.tasks[t].remaining_modeled,
                    ));
                }
                StepOutcome::Blocked => continue,
                StepOutcome::Finished => {
                    self.complete_task(t);
                    continue;
                }
            }
        }
        None
    }

    fn admit(&mut self, kind: RequestKind, at: SimTime) {
        let plan = self.scenario.build(kind, self.appserver.work_order_queue());
        if let Some(log) = self.recorder.as_mut() {
            log.plans.push((kind, plan.clone()));
        }
        let pool = if kind.is_web() {
            PoolKind::WebContainer
        } else {
            PoolKind::Orb
        };
        let idx = self.spawn_task(kind, plan, Some(pool), at);
        if self.trace_active {
            let id = idx as u64 + 1;
            self.tracer.emit(
                at,
                id,
                TraceEventKind::RequestAdmitted { kind: kind.index() },
            );
            if pool == PoolKind::Orb {
                self.tracer.emit(at, id, TraceEventKind::RmiDispatch);
            }
        }
        match self.appserver.acquire(pool, idx as u64) {
            Admission::Granted => {
                self.tasks[idx].state = TaskState::Ready;
                self.enqueue(idx);
                if self.trace_active {
                    let what = TraceEventKind::PoolGranted { pool: pool.index() };
                    self.tracer.emit(at, idx as u64 + 1, what);
                }
            }
            Admission::Queued { .. } => {
                self.tasks[idx].state = TaskState::WaitingPool;
                if self.trace_active {
                    let what = TraceEventKind::PoolQueued { pool: pool.index() };
                    self.tracer.emit(at, idx as u64 + 1, what);
                }
            }
        }
    }

    fn spawn_task(
        &mut self,
        kind: RequestKind,
        plan: TxPlan,
        pool: Option<PoolKind>,
        at: SimTime,
    ) -> usize {
        // Kernel-mode wrapper: network receive before, response send after.
        let total = plan.compute_instructions();
        let kernel_each = total * self.cfg.kernel_overhead / 2.0;
        let mut wrapped = TxPlan::new();
        wrapped.push(PlanStep::Compute {
            component: Component::Kernel,
            instructions: kernel_each,
        });
        wrapped.extend(plan.steps);
        wrapped.push(PlanStep::Compute {
            component: Component::Kernel,
            instructions: kernel_each,
        });
        self.tasks.push(Task {
            kind,
            plan: wrapped,
            step: 0,
            remaining_modeled: 0.0,
            extra: VecDeque::new(),
            issued: at,
            jvm_tx: None,
            pool,
            state: TaskState::Ready,
            io_blocked: false,
            last_run_quantum: u64::MAX,
            attempts: 0,
            deadline: if self.faults_active {
                self.cfg.faults.deadline.map(|d| at + d)
            } else {
                None
            },
            mq_msg: None,
        });
        let idx = self.tasks.len() - 1;
        self.live.push(idx);
        idx
    }

    /// Executes GC work on `core` (whose private state is detached into
    /// `cp`); returns cycles used. GC records and reconciles back-to-back:
    /// it runs outside the phased round, where the shared hierarchy is free,
    /// so it drains its events in chunks of at most [`RECONCILE_CHUNK`]
    /// while it records and charges the summed correction once at the end —
    /// bit-identical to one reconcile after the whole slice.
    // jas-lint: allow(D012, reason = "only runs while gc is Some, so the quantum is already non-idle; finishing GC moves toward idle")
    fn run_gc_slice(
        &mut self,
        core: usize,
        cp: &mut CorePrivate,
        cycles_budget: f64,
        in_steady: bool,
    ) -> f64 {
        let chip = self.cfg.machine.topology.chip_of_core(core);
        let cost = &self.cfg.machine.cost;
        let mem = self.machine.mem_mut();
        let Some(gc) = self.gc.as_mut() else {
            return 0.0;
        };
        // Drain before the next op could take the buffer past the chunk.
        let drain_at = RECONCILE_CHUNK.saturating_sub(self.cfg.machine.max_events_per_op()) + 1;
        let mut correction = 0.0;
        // The GC's remaining work only changes after the slice, so it bounds
        // the slice like a task segment's remaining instructions.
        let (used_recorded, executed) = run_slice(
            cp,
            &mut self.gens[core][comp_index(Component::Gc)],
            &mut self.event_bufs[core],
            &self.cfg.machine,
            cycles_budget,
            gc.remaining_modeled,
            |cp, events| {
                if events.len() >= drain_at {
                    jas_cpu::reconcile_drain(cp, chip, cost, mem, events, &mut correction);
                }
            },
        );
        gc.remaining_modeled -= executed;
        let remaining = gc.remaining_modeled;
        let events = &mut self.event_bufs[core];
        jas_cpu::reconcile_drain(cp, chip, cost, mem, events, &mut correction);
        cp.charge_correction(correction);
        let used = used_recorded + correction;
        if in_steady && executed >= 1.0 {
            if let Some(m) = self.sample_method(Component::Gc) {
                self.tprof.record(self.jvm.registry(), m, executed as u64);
            }
        }
        if remaining <= 0.0 {
            let gc = self.gc.take().expect("gc pause active");
            let pause = self.clock + self.cfg.quantum - gc.start;
            if self.trace_active {
                let what = TraceEventKind::GcPauseEnd {
                    pause_nanos: pause.as_nanos(),
                };
                self.tracer.emit(self.clock + self.cfg.quantum, 0, what);
            }
            let mark = SimDuration::from_secs_f64(pause.as_secs_f64() * gc.mark_fraction);
            self.vgc.push(GcLogEntry {
                at: gc.start,
                pause,
                mark,
                sweep: pause - mark,
                compacted: gc.cycle.report.compacted,
                free_after: gc.cycle.report.free_after,
                used_after: gc.cycle.used_after,
                cycle: gc.cycle,
            });
        }
        used
    }

    fn current_component(&self, task_idx: usize) -> Component {
        let t = &self.tasks[task_idx];
        if let Some(&(c, _)) = t.extra.front() {
            return c;
        }
        match t.plan.steps.get(t.step) {
            Some(PlanStep::Compute { component, .. }) => *component,
            _ => Component::AppServer,
        }
    }

    /// Moves past a completed compute step (either an `extra` entry or the
    /// plan's current step).
    fn advance_past_compute(&mut self, task_idx: usize) {
        let t = &mut self.tasks[task_idx];
        if t.extra.pop_front().is_none() {
            t.step += 1;
        }
        // Load the next pending compute if it is an extra entry.
        if let Some(&(_, instr)) = t.extra.front() {
            t.remaining_modeled = instr;
        }
    }

    /// Walks plan steps, applying side effects, until hitting a compute
    /// step (which is loaded into `remaining_modeled`), a blocking
    /// condition, or the end of the plan.
    fn interpret_until_compute(&mut self, task_idx: usize) -> StepOutcome {
        loop {
            if self.faults_active {
                if let Some(deadline) = self.tasks[task_idx].deadline {
                    if self.clock >= deadline {
                        self.injector.note(self.clock, EventKind::DeadlineExceeded);
                        self.fail_task(task_idx);
                        return StepOutcome::Finished;
                    }
                }
            }
            if let Some(&(_, instr)) = self.tasks[task_idx].extra.front() {
                self.tasks[task_idx].remaining_modeled = instr;
                return StepOutcome::Compute;
            }
            let step = {
                let t = &self.tasks[task_idx];
                match t.plan.steps.get(t.step) {
                    Some(s) => *s,
                    None => return StepOutcome::Finished,
                }
            };
            match step {
                PlanStep::Compute { instructions, .. } => {
                    self.tasks[task_idx].remaining_modeled =
                        instructions / self.cfg.instruction_scale();
                    return StepOutcome::Compute;
                }
                PlanStep::Allocate { class, count } => {
                    let tx = self.ensure_jvm_tx(task_idx);
                    let n = count * self.cfg.alloc_multiplier;
                    for _ in 0..n {
                        self.jvm.alloc_in_tx(tx, class, &mut self.rng);
                    }
                    if self.trace_active {
                        let what = TraceEventKind::AllocEpoch {
                            allocated_bytes: self.jvm.allocated_bytes(),
                        };
                        self.tracer.emit(self.clock, task_idx as u64 + 1, what);
                    }
                    self.drain_gc_cycles();
                    self.tasks[task_idx].step += 1;
                    if self.gc.is_some() {
                        // Stop-the-world: the task pauses with everyone else
                        // but stays ready.
                        self.enqueue(task_idx);
                        return StepOutcome::Blocked;
                    }
                }
                PlanStep::SessionTouch => {
                    self.jvm.touch_session(&mut self.rng);
                    self.drain_gc_cycles();
                    self.tasks[task_idx].step += 1;
                    if self.gc.is_some() {
                        self.enqueue(task_idx);
                        return StepOutcome::Blocked;
                    }
                }
                PlanStep::Lock { monitor } => {
                    let outcome = self.jvm.lock(monitor, &mut self.rng);
                    self.tasks[task_idx].step += 1;
                    if let LockOutcome::OsBlock = outcome {
                        // Futex path: kernel work plus a short block.
                        self.tasks[task_idx].extra.push_back((
                            Component::Kernel,
                            12_000.0 / self.cfg.instruction_scale(),
                        ));
                        let until = self.clock + SimDuration::from_micros(500);
                        self.block_until(task_idx, until);
                        return StepOutcome::Blocked;
                    }
                }
                PlanStep::Db { query } => {
                    // Each statement runs in its own short transaction:
                    // holding row locks across a whole multi-quantum plan
                    // under no-wait locking would livelock on hot rows (the
                    // real system holds row latches for microseconds, far
                    // below our scheduling resolution).
                    if self.faults_active {
                        if let Some(outcome) = self.db_step_faulted(task_idx, query) {
                            return outcome;
                        }
                        continue;
                    }
                    let txn = self.db.begin();
                    let result = self.db.execute(txn, query, self.clock);
                    match result {
                        Ok(report) => {
                            self.db.commit(txn);
                            if self.trace_active {
                                self.emit_db_commit(task_idx, &report);
                            }
                            let scale = self.cfg.instruction_scale();
                            let t = &mut self.tasks[task_idx];
                            t.step += 1;
                            t.extra
                                .push_back((Component::Database, report.cpu_instructions / scale));
                            if report.pool_misses > 0 {
                                t.extra.push_back((
                                    Component::Kernel,
                                    f64::from(report.pool_misses) * 8_000.0 / scale,
                                ));
                            }
                            if let Some(done) = report.io_done {
                                // RAM-disk I/O (tens of microseconds)
                                // completes within the slice; spinning-disk
                                // service times block the task, surfacing
                                // as I/O wait exactly as in the paper's
                                // hard-disk runs.
                                if done > self.clock + SimDuration::from_millis(2) {
                                    t.io_blocked = true;
                                    self.outstanding_io += 1;
                                    self.block_until(task_idx, done);
                                    return StepOutcome::Blocked;
                                }
                            }
                        }
                        Err(DbError::Conflict(conflict)) => {
                            // No-wait locking: release and retry shortly.
                            self.db.abort(txn);
                            if self.trace_active {
                                let what = TraceEventKind::DbLockWait {
                                    table: u64::from(conflict.table.0),
                                };
                                self.tracer.emit(self.clock, task_idx as u64 + 1, what);
                            }
                            let until = self.clock + SimDuration::from_millis(1);
                            self.block_until(task_idx, until);
                            return StepOutcome::Blocked;
                        }
                        Err(_) => {
                            // Business-level anomaly (duplicate key on a
                            // retried insert, vanished row): abort the
                            // request.
                            self.db.abort(txn);
                            self.abort_task(task_idx);
                            return StepOutcome::Finished;
                        }
                    }
                }
                PlanStep::MqSend {
                    queue,
                    payload_bytes,
                } => {
                    self.correlation_seq += 1;
                    let correlation = self.correlation_seq;
                    self.appserver
                        .broker_mut()
                        .send(queue, Message::new(correlation, payload_bytes));
                    if self.faults_active && self.injector.roll(FaultKind::JmsDuplicate, self.clock)
                    {
                        // At-least-once delivery: the producer's ack was
                        // lost and it sent the same message again.
                        self.appserver
                            .broker_mut()
                            .send(queue, Message::new(correlation, payload_bytes));
                        self.injector.note(self.clock, EventKind::Duplicated);
                    }
                    if self.trace_active {
                        let what = TraceEventKind::JmsSend { queue: queue.0 };
                        self.tracer.emit(self.clock, task_idx as u64 + 1, what);
                    }
                    self.tasks[task_idx].step += 1;
                    self.maybe_spawn_workorders();
                }
                PlanStep::MqReceive { queue } => {
                    if self.faults_active {
                        if let Some(outcome) = self.mq_receive_faulted(task_idx, queue) {
                            return outcome;
                        }
                        continue;
                    }
                    if let Some(msg) = self.appserver.broker_mut().receive(queue) {
                        if self.trace_active {
                            let what = TraceEventKind::JmsDeliver { queue: queue.0 };
                            self.tracer.emit(self.clock, task_idx as u64 + 1, what);
                        }
                        self.tasks[task_idx].mq_msg = Some((queue, msg));
                    }
                    self.pending_workorders = self.pending_workorders.saturating_sub(1);
                    self.tasks[task_idx].step += 1;
                }
            }
        }
    }

    /// Emits the trace events of one committed database statement (only
    /// called with tracing active).
    fn emit_db_commit(&mut self, task_idx: usize, report: &jas_db::WorkReport) {
        let id = task_idx as u64 + 1;
        let what = TraceEventKind::DbCommit {
            instructions: report.cpu_instructions as u64,
        };
        self.tracer.emit(self.clock, id, what);
        if report.pool_misses > 0 {
            let what = TraceEventKind::DbIo {
                misses: u64::from(report.pool_misses),
            };
            self.tracer.emit(self.clock, id, what);
        }
    }

    /// Interprets one `PlanStep::Db` under an armed fault plan: circuit
    /// breaker at the front, scheduled fault rolls before the statement,
    /// bounded backoff retry after a failure. Returns `None` when the
    /// statement committed and interpretation should continue.
    fn db_step_faulted(&mut self, task_idx: usize, query: Query) -> Option<StepOutcome> {
        let now = self.clock;
        let before = self.breaker.state();
        let admitted = self.breaker.try_acquire(now);
        self.note_breaker_transition(before);
        if !admitted {
            // Fail fast without touching the database at all.
            self.injector.note_fast_fail();
            return Some(self.retry_or_fail(task_idx));
        }
        // Scheduled faults ride on the next statement; the rolls happen
        // here, in the sequential phase, so they are thread-invariant.
        if self.injector.roll(FaultKind::DbLockTimeout, now) {
            self.db.inject(DbFault::LockTimeout);
        } else if self.injector.roll(FaultKind::DbIoStall, now) {
            self.db.inject(DbFault::IoStall);
        }
        let txn = self.db.begin();
        match self.db.execute(txn, query, now) {
            Ok(report) => {
                let before = self.breaker.state();
                self.breaker.on_success();
                self.note_breaker_transition(before);
                self.db.commit(txn);
                if self.trace_active {
                    self.emit_db_commit(task_idx, &report);
                }
                let scale = self.cfg.instruction_scale();
                let t = &mut self.tasks[task_idx];
                t.attempts = 0;
                t.step += 1;
                t.extra
                    .push_back((Component::Database, report.cpu_instructions / scale));
                if report.pool_misses > 0 {
                    t.extra.push_back((
                        Component::Kernel,
                        f64::from(report.pool_misses) * 8_000.0 / scale,
                    ));
                }
                if let Some(done) = report.io_done {
                    if done > now + SimDuration::from_millis(2) {
                        t.io_blocked = true;
                        self.outstanding_io += 1;
                        self.block_until(task_idx, done);
                        return Some(StepOutcome::Blocked);
                    }
                }
                None
            }
            Err(DbError::Conflict(conflict)) => {
                // Organic row contention, not an injected fault: the legacy
                // no-wait backoff, with no breaker penalty.
                self.db.abort(txn);
                if self.trace_active {
                    let what = TraceEventKind::DbLockWait {
                        table: u64::from(conflict.table.0),
                    };
                    self.tracer.emit(now, task_idx as u64 + 1, what);
                }
                self.block_until(task_idx, now + SimDuration::from_millis(1));
                Some(StepOutcome::Blocked)
            }
            Err(DbError::Timeout(_)) => {
                self.db.abort(txn);
                let before = self.breaker.state();
                self.breaker.on_failure(now);
                self.note_breaker_transition(before);
                Some(self.retry_or_fail(task_idx))
            }
            Err(_) => {
                // Business-level anomaly: fail the request outright.
                self.db.abort(txn);
                self.fail_task(task_idx);
                Some(StepOutcome::Finished)
            }
        }
    }

    /// Interprets one `PlanStep::MqReceive` under an armed fault plan: a
    /// redelivery roll can bounce the message back (or dead-letter a
    /// poison one). Returns `None` when interpretation should continue.
    fn mq_receive_faulted(&mut self, task_idx: usize, queue: QueueId) -> Option<StepOutcome> {
        let now = self.clock;
        let Some(msg) = self.appserver.broker_mut().receive(queue) else {
            // Empty queue: keep the legacy bookkeeping.
            self.pending_workorders = self.pending_workorders.saturating_sub(1);
            self.tasks[task_idx].step += 1;
            return None;
        };
        if self.injector.roll(FaultKind::JmsRedelivery, now) {
            if msg.deliveries < self.cfg.faults.max_deliveries {
                // The listener session rolls back: the message returns to
                // the front of its queue and this consumer backs off on
                // the delivery count, then tries again.
                let attempt = msg.deliveries;
                self.appserver.broker_mut().redeliver(queue, msg);
                self.injector.note(now, EventKind::Redelivered);
                if self.trace_active {
                    let what = TraceEventKind::JmsRedeliver { attempt };
                    self.tracer.emit(now, task_idx as u64 + 1, what);
                }
                let delay = self
                    .cfg
                    .faults
                    .retry
                    .delay(self.cfg.seed ^ task_idx as u64, attempt);
                self.block_until(task_idx, now + delay);
                return Some(StepOutcome::Blocked);
            }
            // Poison message: park it and fail the work order. The step
            // advances first so the failure path sees the message as
            // consumed.
            self.appserver.broker_mut().dead_letter(msg);
            self.injector.note(now, EventKind::DeadLettered);
            if self.trace_active {
                self.tracer
                    .emit(now, task_idx as u64 + 1, TraceEventKind::JmsDeadLetter);
            }
            self.pending_workorders = self.pending_workorders.saturating_sub(1);
            self.tasks[task_idx].step += 1;
            self.fail_task(task_idx);
            return Some(StepOutcome::Finished);
        }
        self.pending_workorders = self.pending_workorders.saturating_sub(1);
        if self.trace_active {
            let what = TraceEventKind::JmsDeliver { queue: queue.0 };
            self.tracer.emit(now, task_idx as u64 + 1, what);
        }
        let t = &mut self.tasks[task_idx];
        t.mq_msg = Some((queue, msg));
        t.step += 1;
        None
    }

    /// Books one failed attempt of the current statement: schedules a
    /// deterministic backoff retry, or fails the request once the retry
    /// budget is spent.
    fn retry_or_fail(&mut self, task_idx: usize) -> StepOutcome {
        self.tasks[task_idx].attempts += 1;
        let attempt = self.tasks[task_idx].attempts;
        if attempt > self.cfg.faults.retry.max_retries {
            self.fail_task(task_idx);
            return StepOutcome::Finished;
        }
        let delay = self
            .cfg
            .faults
            .retry
            .delay(self.cfg.seed ^ task_idx as u64, attempt);
        self.block_until(task_idx, self.clock + delay);
        self.injector
            .note(self.clock, EventKind::RetryScheduled { attempt });
        if self.trace_active {
            let what = TraceEventKind::Retry { attempt };
            self.tracer.emit(self.clock, task_idx as u64 + 1, what);
        }
        self.metrics.record_retry(self.clock);
        StepOutcome::Blocked
    }

    /// Permanently fails a request: a consumed work-order message goes
    /// back for redelivery (or to the dead-letter queue), in-flight
    /// work-order accounting is settled, and the task finishes
    /// uncommitted.
    fn fail_task(&mut self, task_idx: usize) {
        if let Some((queue, msg)) = self.tasks[task_idx].mq_msg.take() {
            if msg.deliveries < self.cfg.faults.max_deliveries {
                let attempt = msg.deliveries;
                self.appserver.broker_mut().redeliver(queue, msg);
                self.injector.note(self.clock, EventKind::Redelivered);
                if self.trace_active {
                    let what = TraceEventKind::JmsRedeliver { attempt };
                    self.tracer.emit(self.clock, task_idx as u64 + 1, what);
                }
            } else {
                self.appserver.broker_mut().dead_letter(msg);
                self.injector.note(self.clock, EventKind::DeadLettered);
                if self.trace_active {
                    self.tracer.emit(
                        self.clock,
                        task_idx as u64 + 1,
                        TraceEventKind::JmsDeadLetter,
                    );
                }
            }
        } else if self.tasks[task_idx].kind == RequestKind::WorkOrder {
            // Died before consuming its message: it will never reach the
            // `MqReceive` decrement, so settle the in-flight count here.
            let t = &self.tasks[task_idx];
            let unconsumed = t
                .plan
                .steps
                .iter()
                .skip(t.step)
                .any(|s| matches!(s, PlanStep::MqReceive { .. }));
            if unconsumed {
                self.pending_workorders = self.pending_workorders.saturating_sub(1);
            }
        }
        self.injector.note(self.clock, EventKind::RequestFailed);
        self.metrics.record_error(self.clock);
        self.finish_task(task_idx, false);
    }

    /// Logs a breaker state change observed across one breaker call
    /// (`before` is the state captured just before it).
    fn note_breaker_transition(&mut self, before: BreakerState) {
        let after = self.breaker.state();
        if before == after {
            return;
        }
        let what = match after {
            BreakerState::Open => EventKind::BreakerOpened,
            BreakerState::HalfOpen => EventKind::BreakerHalfOpen,
            BreakerState::Closed => EventKind::BreakerClosed,
        };
        self.injector.note(self.clock, what);
        if self.trace_active {
            let ev = match after {
                BreakerState::Open => TraceEventKind::BreakerOpen,
                BreakerState::HalfOpen => TraceEventKind::BreakerHalfOpen,
                BreakerState::Closed => TraceEventKind::BreakerClosed,
            };
            self.tracer.emit(self.clock, 0, ev);
        }
    }

    // jas-lint: allow(D012, reason = "runs during task execution in a non-idle quantum; the tx handle creates no future work beyond the already-tracked task")
    fn ensure_jvm_tx(&mut self, task_idx: usize) -> TxHandle {
        if let Some(tx) = self.tasks[task_idx].jvm_tx {
            tx
        } else {
            let tx = self.jvm.begin_tx();
            self.tasks[task_idx].jvm_tx = Some(tx);
            tx
        }
    }

    // jas-lint: allow(D012, reason = "starting a GC makes the predicate false immediately at the next quantum check")
    fn drain_gc_cycles(&mut self) {
        for cycle in self.jvm.take_gc_cycles() {
            let scale = self.jvm.config().heap_scale as f64;
            let r = &cycle.report;
            let mark = (r.marked_objects as f64 * MARK_INSTR_PER_OBJECT
                + r.edges_traversed as f64 * MARK_INSTR_PER_EDGE
                + r.marked_bytes as f64 * MARK_INSTR_PER_BYTE)
                * scale;
            let sweep = ((r.marked_objects + r.swept_objects) as f64 * SWEEP_INSTR_PER_OBJECT
                + r.freed_bytes as f64 * SWEEP_INSTR_PER_BYTE)
                * scale;
            let compact = r.compact_moved_bytes as f64 * COMPACT_INSTR_PER_BYTE * scale;
            let total_real = mark + sweep + compact;
            let total_modeled = total_real / self.cfg.instruction_scale();
            let used_after = cycle.used_after;
            self.gc = Some(GcPause {
                remaining_modeled: total_modeled,
                mark_fraction: mark / total_real.max(1.0),
                start: self.clock,
                cycle,
            });
            if self.trace_active {
                let what = TraceEventKind::GcPauseStart {
                    used_bytes: used_after,
                };
                self.tracer.emit(self.clock, 0, what);
            }
        }
    }

    fn maybe_spawn_workorders(&mut self) {
        let queue = self.appserver.work_order_queue();
        while (self.appserver.broker().depth(queue) as u64) > self.pending_workorders {
            let idx = self.tasks.len();
            match self.appserver.acquire(PoolKind::JmsListener, idx as u64) {
                Admission::Granted => {
                    let plan = self.scenario.build(RequestKind::WorkOrder, queue);
                    if let Some(log) = self.recorder.as_mut() {
                        log.plans.push((RequestKind::WorkOrder, plan.clone()));
                    }
                    let at = self.clock;
                    let idx = self.spawn_task(
                        RequestKind::WorkOrder,
                        plan,
                        Some(PoolKind::JmsListener),
                        at,
                    );
                    self.pending_workorders += 1;
                    self.enqueue(idx);
                    if self.trace_active {
                        let id = idx as u64 + 1;
                        self.tracer.emit(
                            at,
                            id,
                            TraceEventKind::RequestAdmitted {
                                kind: RequestKind::WorkOrder.index(),
                            },
                        );
                        let what = TraceEventKind::PoolGranted {
                            pool: PoolKind::JmsListener.index(),
                        };
                        self.tracer.emit(at, id, what);
                    }
                }
                Admission::Queued { .. } => {
                    // Pool exhausted: cancel the reservation and try again
                    // when a listener frees up.
                    self.appserver
                        .cancel_wait(PoolKind::JmsListener, idx as u64);
                    break;
                }
            }
        }
    }

    fn complete_task(&mut self, task_idx: usize) {
        self.finish_task(task_idx, true);
    }

    fn abort_task(&mut self, task_idx: usize) {
        self.finish_task(task_idx, false);
    }

    fn finish_task(&mut self, task_idx: usize, committed: bool) {
        if self.tasks[task_idx].state == TaskState::Done {
            // Already finished (aborted inside interpretation before the
            // scheduler saw `Finished`): the first verdict stands.
            return;
        }
        let kind;
        let issued;
        {
            let t = &mut self.tasks[task_idx];
            kind = t.kind;
            issued = t.issued;
            t.state = TaskState::Done;
            t.free_steps();
        }
        let pos = self
            .live
            .binary_search(&task_idx)
            .expect("a finishing task is live");
        self.live.remove(pos);
        if let Some(tx) = self.tasks[task_idx].jvm_tx.take() {
            self.jvm.end_tx(tx);
        }
        if let Some(pool) = self.tasks[task_idx].pool.take() {
            if let Some(token) = self.appserver.release(pool) {
                let waiter = token as usize;
                if self.tasks[waiter].state == TaskState::WaitingPool {
                    self.tasks[waiter].state = TaskState::Ready;
                    self.enqueue(waiter);
                }
            }
            if pool == PoolKind::JmsListener {
                self.maybe_spawn_workorders();
            }
        }
        if self.trace_active {
            let what = if committed {
                TraceEventKind::RequestDone
            } else {
                TraceEventKind::RequestFailed
            };
            self.tracer.emit(self.clock, task_idx as u64 + 1, what);
        }
        if committed {
            self.completed_requests += 1;
            if kind != RequestKind::WorkOrder {
                self.frontend_completed += 1;
            }
            self.metrics.record(kind, issued, self.clock);
        } else {
            self.aborted_requests += 1;
            if kind != RequestKind::WorkOrder {
                self.frontend_aborted += 1;
            }
        }
    }

    // ---- Read-out accessors for the experiment layer. ----

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SutConfig {
        &self.cfg
    }

    /// The run plan in force.
    #[must_use]
    pub fn run_plan(&self) -> &RunPlan {
        &self.run
    }

    /// The machine model.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The JVM.
    #[must_use]
    pub fn jvm(&self) -> &Jvm {
        &self.jvm
    }

    /// The database.
    #[must_use]
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The application server.
    #[must_use]
    pub fn appserver(&self) -> &AppServer {
        &self.appserver
    }

    /// The running scenario's name.
    #[must_use]
    pub fn scenario_name(&self) -> &'static str {
        self.scenario.name()
    }

    /// The scenario's business label for a request slot.
    #[must_use]
    pub fn scenario_label(&self, kind: RequestKind) -> &'static str {
        self.scenario.label(kind)
    }

    /// The omniscient HPM sampler.
    #[must_use]
    pub fn hpm(&self) -> &OmniscientHpm {
        &self.hpm
    }

    /// The tick profiler.
    #[must_use]
    pub fn tprof(&self) -> &Tprof {
        &self.tprof
    }

    /// The utilization monitor.
    #[must_use]
    pub fn vmstat(&self) -> &Vmstat {
        &self.vmstat
    }

    /// The verbose-GC log.
    #[must_use]
    pub fn vgc(&self) -> &VerboseGc {
        &self.vgc
    }

    /// The workload metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Requests completed (committed) so far.
    #[must_use]
    pub fn completed_requests(&self) -> u64 {
        self.completed_requests
    }

    /// Requests aborted so far.
    #[must_use]
    pub fn aborted_requests(&self) -> u64 {
        self.aborted_requests
    }

    /// Completions excluding internally spawned work-order follow-ups:
    /// exactly the requests a front-end handed to this node.
    #[must_use]
    pub fn frontend_completed(&self) -> u64 {
        self.frontend_completed
    }

    /// Permanent failures excluding internally spawned work-order
    /// follow-ups.
    #[must_use]
    pub fn frontend_aborted(&self) -> u64 {
        self.frontend_aborted
    }

    /// Cumulative fault/resilience counters (all zero on a healthy run).
    #[must_use]
    pub fn fault_counters(&self) -> &FaultCounters {
        self.injector.counters()
    }

    /// The fault/resilience event log (empty on a healthy run).
    #[must_use]
    pub fn fault_log(&self) -> &FaultLog {
        self.injector.log()
    }

    /// The periodic fault monitor ([`Engine::run_to_end`] finishes it).
    #[must_use]
    pub fn fault_monitor(&self) -> &FaultMonitor {
        &self.faultmon
    }

    /// The request tracer (empty when tracing is off).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A snapshot of the host self-profile, when `--host-prof` is on.
    #[must_use]
    pub fn host_profile(&self) -> Option<HostProfReport> {
        self.hostprof.as_ref().map(HostProf::report)
    }

    /// Consumes the engine, handing out the owned instruments that the
    /// artifact layer keeps (the rest is summarized before calling this).
    #[must_use]
    pub fn into_instruments(self) -> (OmniscientHpm, Tprof, Tracer) {
        (self.hpm, self.tprof, self.tracer)
    }

    /// Machine-wide counter deltas accumulated during the steady-state
    /// window (machine totals minus the snapshot taken at steady start).
    /// Falls back to run totals before the window opens.
    #[must_use]
    pub fn steady_counters(&self) -> jas_cpu::CounterFile {
        let total = self.machine.total_counters();
        match &self.steady_base {
            Some(base) => total.delta_since(base),
            None => total,
        }
    }

    /// Machine-wide counter totals for the whole run (all cores, ramp-up
    /// included). The bench harness uses these to report simulated cycles
    /// and instructions per host-second.
    #[must_use]
    pub fn total_counters(&self) -> jas_cpu::CounterFile {
        self.machine.total_counters()
    }

    /// Scheduler-occupancy counters ([`SchedStats`]). Under an
    /// [`Engine::no_skip`] oracle nothing is ever skipped.
    #[must_use]
    pub fn sched_stats(&self) -> SchedStats {
        let mut s = self.sched_stats;
        s.heap_high_water = s.heap_high_water.max(self.wakes.high_water());
        s
    }

    /// Fraction of a GC pause spent marking, from the most recent pause
    /// composition (`None` before the first completed GC).
    #[must_use]
    pub fn last_gc_mark_fraction(&self) -> Option<f64> {
        self.vgc.entries().last().map(|e| {
            e.mark.as_secs_f64() / (e.mark.as_secs_f64() + e.sweep.as_secs_f64()).max(1e-12)
        })
    }
}

enum StepOutcome {
    Compute,
    Blocked,
    Finished,
}
// --- Checkpoint persistence ---
//
// Everything below serializes the engine's *mutable* state for `.jckpt`
// checkpoints. Config-derived structures (plans, CDFs, pool capacities,
// per-core generators' static tables) are rebuilt by `Engine::new` from the
// same `SutConfig`; a restore overlays only what a run mutates. The same
// visitor doubles as the divergence probe: running it through a
// `WordDigest` fingerprints the complete simulation state at a quantum
// boundary without allocating.

impl Persist for TaskState {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut tag: u64 = match self {
            TaskState::Ready => 0,
            TaskState::BlockedUntil(_) => 1,
            TaskState::WaitingPool => 2,
            TaskState::Done => 3,
        };
        io.word(&mut tag);
        if !io.saving() {
            *self = match tag {
                0 => TaskState::Ready,
                1 => TaskState::BlockedUntil(SimTime::ZERO),
                2 => TaskState::WaitingPool,
                _ => TaskState::Done,
            };
        }
        if let TaskState::BlockedUntil(at) = self {
            at.persist(io);
        }
    }
}

impl Default for Task {
    fn default() -> Self {
        Task {
            kind: RequestKind::default(),
            plan: TxPlan::default(),
            step: 0,
            remaining_modeled: 0.0,
            extra: VecDeque::new(),
            issued: SimTime::ZERO,
            jvm_tx: None,
            pool: None,
            state: TaskState::Ready,
            io_blocked: false,
            last_run_quantum: 0,
            attempts: 0,
            deadline: None,
            mq_msg: None,
        }
    }
}

impl Persist for Task {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.kind.persist(io);
        self.plan.persist(io);
        self.step.persist(io);
        self.remaining_modeled.persist(io);
        snap::persist_deque(io, &mut self.extra);
        self.issued.persist(io);
        snap::persist_opt(io, &mut self.jvm_tx);
        snap::persist_opt(io, &mut self.pool);
        self.state.persist(io);
        self.io_blocked.persist(io);
        self.last_run_quantum.persist(io);
        self.attempts.persist(io);
        snap::persist_opt(io, &mut self.deadline);
        snap::persist_opt(io, &mut self.mq_msg);
    }
}

impl Default for GcPause {
    fn default() -> Self {
        GcPause {
            remaining_modeled: 0.0,
            mark_fraction: 0.0,
            start: SimTime::ZERO,
            cycle: GcCycle::default(),
        }
    }
}

impl Persist for GcPause {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.remaining_modeled.persist(io);
        self.mark_fraction.persist(io);
        self.start.persist(io);
        self.cycle.persist(io);
    }
}

impl Engine {
    /// Saves or restores every piece of mutable simulation state.
    ///
    /// Must be called at a quantum boundary (checkpointing mid-quantum is
    /// meaningless: per-core event buffers are drained and tasks are
    /// reconciled only between quanta). Restore overlays a freshly built
    /// engine with the same configuration — the scenario type, DB schema,
    /// and warm session store come from construction, and only
    /// run-mutated state is replayed from the stream. A loaded scenario
    /// tag that does not match the configured scenario poisons the stream.
    // jas-lint: allow(D012, reason = "a load restores the wake heap together with the state its registrations describe; `live` is derived from the loaded tasks")
    pub fn persist_state(&mut self, io: &mut dyn StateIo) {
        self.rng.persist(io);
        self.clock.persist(io);
        self.next_arrival.0.persist(io);
        self.next_arrival.1.persist(io);
        snap::persist_vec(io, &mut self.tasks);
        snap::persist_slice(io, &mut self.ready);
        self.pending_workorders.persist(io);
        snap::persist_opt(io, &mut self.gc);
        self.jit_backlog_modeled.persist(io);
        for row in &mut self.gens {
            snap::persist_slice(io, row);
        }
        self.correlation_seq.persist(io);
        self.outstanding_io.persist(io);
        self.quantum_counter.persist(io);
        snap::persist_opt_with(io, &mut self.steady_base, jas_cpu::CounterFile::new);
        self.hpm.persist(io);
        self.tprof.persist(io);
        self.vmstat.persist(io);
        self.vgc.persist(io);
        self.metrics.persist(io);
        self.completed_requests.persist(io);
        self.aborted_requests.persist(io);
        self.frontend_completed.persist(io);
        self.frontend_aborted.persist(io);
        self.injector.persist(io);
        self.breaker.persist(io);
        self.faultmon.persist(io);
        self.tracer.persist(io);
        self.machine.persist(io);
        self.jvm.persist(io);
        self.db.persist(io);
        self.appserver.persist(io);
        let mut tag = self.scenario.kind_tag();
        io.word(&mut tag);
        if tag != self.scenario.kind_tag() {
            io.poison();
        }
        self.scenario.persist_state(io);
        snap::persist_opt(io, &mut self.recorder);
        // Version 2 tail: the wake heap (canonical live-registration form)
        // and scheduler-occupancy counters. Every engine registers its
        // wake-ups as it runs, so the restored heap is exact.
        self.wakes.persist(io);
        self.sched_stats.persist(io);
        if !io.saving() {
            // The layout lets a finished task carry a plan, which a run
            // to this tick would have freed; free it so the restored
            // engine matches that run.
            for t in &mut self.tasks {
                if t.state == TaskState::Done {
                    t.free_steps();
                }
            }
            self.live = (0..self.tasks.len())
                .filter(|&i| self.tasks[i].state != TaskState::Done)
                .collect();
        }
        // Skipped on purpose: cfg/run (identity — must match at restore),
        // live (derived from tasks, rebuilt above),
        // method_cdf (config-derived), event_bufs (drained every quantum),
        // faults_active/trace_active (cached config flags), no_skip (a
        // property of the test oracle, not of the simulation),
        // hostprof (host wall-clock; never simulation state), external
        // (cluster snapshots are taken only at epoch boundaries, where
        // every dispatched arrival has been admitted and the queue is
        // provably empty — `next_arrival` then persists as the sentinel).
    }

    /// FNV-1a fingerprint of the complete mutable simulation state.
    ///
    /// Two engines with equal probe digests are in bit-identical states
    /// and will evolve identically; the reducer uses this to localize the
    /// first diverging quantum.
    pub fn probe_digest(&mut self) -> u64 {
        let mut d = WordDigest::new();
        self.persist_state(&mut d);
        d.value()
    }

    /// Per-subsystem FNV-1a digests of the mutable state: when two
    /// engines' probe digests differ, this localizes the mismatch to the
    /// subsystem that caused it (the reducer prints the differing
    /// sections alongside the witness window).
    pub fn state_section_digests(&mut self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        let mut dg = WordDigest::new();
        self.rng.persist(&mut dg);
        out.push(("rng", dg.value()));
        let mut dg = WordDigest::new();
        self.clock.persist(&mut dg);
        self.next_arrival.0.persist(&mut dg);
        self.next_arrival.1.persist(&mut dg);
        out.push(("clock", dg.value()));
        let mut dg = WordDigest::new();
        snap::persist_vec(&mut dg, &mut self.tasks);
        snap::persist_slice(&mut dg, &mut self.ready);
        self.pending_workorders.persist(&mut dg);
        snap::persist_opt(&mut dg, &mut self.gc);
        out.push(("tasks", dg.value()));
        let mut dg = WordDigest::new();
        self.jit_backlog_modeled.persist(&mut dg);
        for row in &mut self.gens {
            snap::persist_slice(&mut dg, row);
        }
        out.push(("gens", dg.value()));
        let mut dg = WordDigest::new();
        self.correlation_seq.persist(&mut dg);
        self.outstanding_io.persist(&mut dg);
        self.quantum_counter.persist(&mut dg);
        snap::persist_opt_with(&mut dg, &mut self.steady_base, jas_cpu::CounterFile::new);
        out.push(("bookkeeping", dg.value()));
        let mut dg = WordDigest::new();
        self.hpm.persist(&mut dg);
        out.push(("hpm", dg.value()));
        let mut dg = WordDigest::new();
        self.tprof.persist(&mut dg);
        out.push(("tprof", dg.value()));
        let mut dg = WordDigest::new();
        self.vmstat.persist(&mut dg);
        out.push(("vmstat", dg.value()));
        let mut dg = WordDigest::new();
        self.vgc.persist(&mut dg);
        out.push(("vgc", dg.value()));
        let mut dg = WordDigest::new();
        self.metrics.persist(&mut dg);
        self.completed_requests.persist(&mut dg);
        self.aborted_requests.persist(&mut dg);
        self.frontend_completed.persist(&mut dg);
        self.frontend_aborted.persist(&mut dg);
        out.push(("metrics", dg.value()));
        let mut dg = WordDigest::new();
        self.injector.persist(&mut dg);
        self.breaker.persist(&mut dg);
        self.faultmon.persist(&mut dg);
        out.push(("faults", dg.value()));
        let mut dg = WordDigest::new();
        self.tracer.persist(&mut dg);
        out.push(("tracer", dg.value()));
        let mut dg = WordDigest::new();
        self.machine.persist(&mut dg);
        out.push(("machine", dg.value()));
        let mut dg = WordDigest::new();
        self.jvm.persist(&mut dg);
        out.push(("jvm", dg.value()));
        let mut dg = WordDigest::new();
        self.db.persist(&mut dg);
        out.push(("db", dg.value()));
        let mut dg = WordDigest::new();
        self.appserver.persist(&mut dg);
        out.push(("appserver", dg.value()));
        let mut dg = WordDigest::new();
        self.scenario.persist_state(&mut dg);
        out.push(("scenario", dg.value()));
        let mut dg = WordDigest::new();
        snap::persist_opt(&mut dg, &mut self.recorder);
        out.push(("recorder", dg.value()));
        let mut dg = WordDigest::new();
        self.wakes.persist(&mut dg);
        self.sched_stats.persist(&mut dg);
        out.push(("sched", dg.value()));
        out
    }

    /// FNV-1a fingerprint of the machine-wide HPM counter totals, the
    /// cheap end-of-run identity check used by `replay-smoke`.
    #[must_use]
    pub fn hpm_digest(&self) -> u64 {
        let mut totals = self.machine.total_counters();
        let mut d = WordDigest::new();
        totals.persist(&mut d);
        d.value()
    }

    /// Runs quantum-by-quantum until the clock reaches `until` (clamped to
    /// the plan end). Unlike [`Engine::run_to_end`] this does not close the
    /// instrument windows, so the run can be resumed — or checkpointed.
    pub fn run_to(&mut self, until: SimTime) {
        let until = until.min(self.run.end());
        self.advance_to(until);
    }

    /// The far-future instant standing in for "no external arrival
    /// queued": late enough that neither the idle predicate nor wake
    /// registration ever sees it as due.
    const NO_ARRIVAL: SimTime = SimTime::from_nanos(u64::MAX);

    /// Switches the engine to external-arrival mode (cluster dispatch):
    /// the scenario keeps compiling request plans, but arrivals come
    /// exclusively from [`Engine::push_external_arrival`]. The arrival
    /// drawn at construction is discarded — in a cluster the front-end
    /// load balancer owns the arrival process.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced.
    pub fn enable_external_arrivals(&mut self) {
        assert_eq!(
            self.clock,
            SimTime::ZERO,
            "external-arrival mode must be enabled before the first quantum"
        );
        self.external = Some(VecDeque::new());
        // jas-lint: allow(D012, reason = "the sentinel only moves the arrival later; the standing wake is re-registered at every scheduler decision")
        self.next_arrival = (Engine::NO_ARRIVAL, RequestKind::Browse);
    }

    /// Queues one dispatched request to arrive at `at` (external-arrival
    /// mode only). Insertion keeps the queue time-sorted, so the load
    /// balancer may interleave redispatches behind already-queued work.
    ///
    /// # Panics
    ///
    /// Panics if external-arrival mode is off or `at` is in the past.
    // jas-lint: allow(D012, reason = "called between quanta; the standing arrival wake is re-registered at every scheduler decision")
    pub fn push_external_arrival(&mut self, at: SimTime, kind: RequestKind) {
        assert!(at >= self.clock, "arrival scheduled in the past");
        let queue = self
            .external
            .as_mut()
            .expect("push_external_arrival requires external-arrival mode");
        let pos = queue.partition_point(|&(t, _)| t <= at);
        queue.insert(pos, (at, kind));
        self.next_arrival = *queue.front().expect("just inserted");
    }

    /// External arrivals queued but not yet admitted (external-arrival
    /// mode only; zero otherwise).
    #[must_use]
    pub fn external_arrivals_queued(&self) -> usize {
        self.external.as_ref().map_or(0, VecDeque::len)
    }

    /// Requests currently in flight: admitted tasks that have neither
    /// completed nor aborted. The cluster load balancer uses this for
    /// least-connection dispatch and admission control.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.live.len() as u64
    }

    /// Starts recording arrivals and compiled plans for later replay.
    ///
    /// Must be called before the first quantum: the arrival drawn during
    /// construction is re-recorded here so the log is complete from tick
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced.
    pub fn start_recording(&mut self) {
        assert_eq!(
            self.clock,
            SimTime::ZERO,
            "recording must start before the first quantum"
        );
        let mut log = ReplayLog::default();
        log.arrivals.push((
            self.next_arrival.0.saturating_since(SimTime::ZERO),
            self.next_arrival.1,
        ));
        self.recorder = Some(log);
    }

    /// Takes the recorded request stream, ending recording.
    pub fn take_recording(&mut self) -> Option<ReplayLog> {
        self.recorder.take()
    }

    /// Replaces the configured workload generator with a recorded stream.
    ///
    /// The engine must be freshly constructed: the real scenario has
    /// already seeded the DB schema and warmed the session store, and the
    /// replay log supplies everything the generator would have produced
    /// from tick zero on. A log recorded under another configuration can
    /// still diverge mid-run; check [`Engine::replay_divergence`] after it.
    ///
    /// # Errors
    ///
    /// Fails on a log with a plan step no scenario compiles for this
    /// engine: a JMS queue its broker does not have, one allocation larger
    /// than the whole heap, or a compute step that is not a finite,
    /// non-negative instruction count.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced.
    pub fn arm_replay(&mut self, log: ReplayLog) -> Result<(), String> {
        assert_eq!(
            self.clock,
            SimTime::ZERO,
            "replay must be armed before the first quantum"
        );
        for (i, (_, plan)) in log.plans.iter().enumerate() {
            for step in &plan.steps {
                let refused = match *step {
                    PlanStep::MqSend { queue, .. } | PlanStep::MqReceive { queue } => {
                        !self.appserver.broker().has_queue(queue)
                    }
                    PlanStep::Allocate { class, count } => {
                        u64::from(count)
                            .saturating_mul(u64::from(self.cfg.alloc_multiplier))
                            .saturating_mul(class.size())
                            > self.cfg.jvm.heap.capacity
                    }
                    PlanStep::Compute { instructions, .. } => {
                        !(instructions.is_finite() && instructions >= 0.0)
                    }
                    _ => false,
                };
                if refused {
                    return Err(format!(
                        "plan {i} has a step this engine cannot run: {step:?}"
                    ));
                }
            }
        }
        let mut scenario = ReplayScenario::new(log);
        let (gap, kind) = scenario.next_arrival();
        self.next_arrival = (SimTime::ZERO + gap, kind);
        self.scenario = Box::new(scenario);
        Ok(())
    }

    /// The first point where an armed replay stopped matching the run, if
    /// any (see [`Engine::arm_replay`]). A diverged run's results describe
    /// no recorded run.
    #[must_use]
    pub fn replay_divergence(&self) -> Option<&str> {
        self.scenario.divergence()
    }

    /// The configured run plan (checkpoint tooling needs the end time).
    #[must_use]
    pub fn plan(&self) -> &RunPlan {
        &self.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SutConfig {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        // Shrink the heap so GC cycles fit inside the quick run.
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg
    }

    fn quick_engine() -> Engine {
        Engine::new(quick_cfg(), RunPlan::quick())
    }

    /// Host memory follows live work. Quanta 20x the quick default give
    /// GC slices longer than one reconcile chunk (a buffer that kept a
    /// whole slice would reach 8192 events here) at the quick run's cost;
    /// still, no core's event buffer grows past one reconcile chunk plus
    /// one op's events, every finished task has freed its plan, and the
    /// live list holds exactly the unfinished tasks, in index order.
    #[test]
    fn finished_tasks_and_gc_slices_hold_no_host_memory() {
        let mut cfg = quick_cfg();
        cfg.quantum = SimDuration::from_millis(640);
        let bound = RECONCILE_CHUNK + cfg.machine.max_events_per_op();
        let mut e = Engine::new(cfg, RunPlan::quick());
        e.run_to_end();
        assert!(e.jvm().gc_count() > 0, "no GC in the run");
        for (core, buf) in e.event_bufs.iter().enumerate() {
            assert!(buf.capacity() <= bound, "core {core}: {}", buf.capacity());
        }
        let done: Vec<&Task> = e
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .collect();
        assert!(done.len() > 100, "{} finished tasks", done.len());
        for t in done {
            assert!(t.plan.steps.is_empty() && t.extra.is_empty());
        }
        let unfinished: Vec<usize> = (0..e.tasks.len())
            .filter(|&i| e.tasks[i].state != TaskState::Done)
            .collect();
        assert_eq!(e.live, unfinished);
        assert_eq!(e.in_flight(), unfinished.len() as u64);
    }

    /// A checkpoint written while finished tasks still kept their plans
    /// (the layout is unchanged; only its content differs) restores to the
    /// state of an engine that freed them.
    #[test]
    fn restore_frees_the_plans_of_finished_tasks() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut e = Engine::new(cfg.clone(), plan);
        e.run_to(SimTime::from_secs(3));
        let digest = e.probe_digest();
        let lean = crate::checkpoint::checkpoint_bytes(&mut e);
        let step = PlanStep::Compute {
            component: Component::AppServer,
            instructions: 1.0e5,
        };
        for t in e.tasks.iter_mut().filter(|t| t.state == TaskState::Done) {
            t.plan.push(step);
            t.extra.push_back((Component::Kernel, 1.0));
        }
        let full = crate::checkpoint::checkpoint_bytes(&mut e);
        assert!(full.len() > lean.len());
        for bytes in [lean, full] {
            let mut r = crate::checkpoint::restore_engine(&cfg, plan, &bytes).expect("restores");
            assert_eq!(r.probe_digest(), digest);
            assert_eq!(r.live, e.live);
        }
    }

    /// Footprint guard: the 44 generators of an engine hold one code table
    /// per distinct code window plus one hot-rank table, and a second
    /// engine of the same config adds none. Per-generator copies would
    /// cost ~23 MB of host memory per engine.
    #[test]
    fn stream_generators_share_their_zipf_tables() {
        let (a, b) = (quick_engine(), quick_engine());
        let mut distinct: Vec<&jas_simkernel::dist::Zipf> = Vec::new();
        for z in a.gens.iter().flatten().flat_map(StreamGen::zipfs) {
            if !distinct.iter().any(|d| d.shares_table(z)) {
                distinct.push(z);
            }
        }
        assert!(distinct.len() <= 8, "{} distinct tables", distinct.len());
        for z in b.gens.iter().flatten().flat_map(StreamGen::zipfs) {
            assert!(
                distinct.iter().any(|d| d.shares_table(z)),
                "second engine built its own table of {} ranks",
                z.len()
            );
        }
    }

    #[test]
    fn engine_completes_requests() {
        let mut e = quick_engine();
        e.run_to_end();
        assert!(
            e.completed_requests() > 100,
            "completed {}",
            e.completed_requests()
        );
        assert!(e.metrics().jops() > 0.0);
    }

    #[test]
    fn all_request_kinds_complete() {
        let mut e = quick_engine();
        e.run_to_end();
        for kind in RequestKind::ALL {
            assert!(
                e.metrics().completed(kind) > 0,
                "no completions of {kind:?}"
            );
        }
    }

    #[test]
    fn hpm_sees_instructions() {
        let mut e = quick_engine();
        e.run_to_end();
        let total = e.machine().total_counters();
        assert!(total.get(jas_cpu::HpmEvent::InstCompleted) > 100_000);
        assert!(total.cpi().unwrap() > 1.0);
    }

    #[test]
    fn gc_happens_and_is_logged() {
        let mut e = quick_engine();
        e.run_to_end();
        assert!(e.jvm().gc_count() > 0, "no GC in the run");
        assert_eq!(e.vgc().entries().len() as u64, e.jvm().gc_count());
    }

    #[test]
    fn tprof_covers_components() {
        let mut e = quick_engine();
        e.run_to_end();
        assert!(e.tprof().total_ticks() > 0);
        assert!(e.tprof().component_share(Component::Kernel) > 0.0);
        assert!(e.tprof().component_share(Component::Database) > 0.0);
    }

    #[test]
    fn vmstat_accounts_the_steady_window() {
        let mut e = quick_engine();
        e.run_to_end();
        let u = e.vmstat().utilization();
        let total = u.user + u.system + u.iowait + u.idle;
        assert!((total - 1.0).abs() < 0.02, "fractions {total}");
        assert!(u.user > 0.0);
        assert!(u.system > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let mut a = quick_engine();
        let mut b = quick_engine();
        a.run_to_end();
        b.run_to_end();
        assert_eq!(a.completed_requests(), b.completed_requests());
        assert_eq!(
            a.machine().total_counters().get(jas_cpu::HpmEvent::Cycles),
            b.machine().total_counters().get(jas_cpu::HpmEvent::Cycles)
        );
        assert_eq!(a.jvm().gc_count(), b.jvm().gc_count());
    }

    /// Skipping must be an exact drop-in: every state section except the
    /// scheduler's own occupancy counters is bit-identical to the no-skip
    /// oracle's at end of run.
    #[test]
    fn event_scheduler_is_bit_identical_on_a_quick_run() {
        let mut quantum = Engine::no_skip(quick_cfg(), RunPlan::quick());
        quantum.run_to_end();
        let mut event = quick_engine();
        event.run_to_end();
        assert_eq!(event.hpm_digest(), quantum.hpm_digest());
        assert_eq!(event.completed_requests(), quantum.completed_requests());
        for ((name_q, dig_q), (name_e, dig_e)) in quantum
            .state_section_digests()
            .into_iter()
            .zip(event.state_section_digests())
        {
            assert_eq!(name_q, name_e);
            if name_q == "sched" {
                continue; // skipped/executed counts differ by construction
            }
            assert_eq!(dig_q, dig_e, "section '{name_q}' diverged");
        }
    }

    /// Under a light load on a fast machine the engine actually skips
    /// quanta — and still lands on the no-skip oracle's results.
    #[test]
    fn event_scheduler_skips_idle_quanta() {
        let idle_cfg = || {
            let mut cfg = SutConfig::at_ir(1);
            cfg.machine.frequency_hz = 50_000_000.0;
            cfg
        };
        let mut quantum = Engine::no_skip(idle_cfg(), RunPlan::quick());
        quantum.run_to_end();
        let mut event = Engine::new(idle_cfg(), RunPlan::quick());
        event.run_to_end();
        let stats = event.sched_stats();
        assert!(
            stats.idle_ticks_skipped > 0,
            "a near-idle run must skip quanta: {stats:?}"
        );
        assert_eq!(
            stats.total_ticks(),
            quantum.sched_stats().quanta_executed,
            "skipped + executed must cover the whole run"
        );
        assert!(stats.heap_high_water > 0);
        assert_eq!(event.hpm_digest(), quantum.hpm_digest());
        assert_eq!(event.completed_requests(), quantum.completed_requests());
        assert_eq!(event.steady_counters(), quantum.steady_counters());
    }

    /// External-arrival mode, a fleet node's input: the only thing that
    /// wakes an otherwise idle engine is a sparse arrival pushed between
    /// epoch-sized `run_to` chunks. Skipping must stay exact when those
    /// arrivals land mid-epoch, after the engine last decided to sleep.
    #[test]
    fn external_arrivals_skip_exactly() {
        let drive = |mut e: Engine| {
            e.enable_external_arrivals();
            let epoch = SimDuration::from_millis(256);
            let end = RunPlan::quick().end();
            let mut rng = Rng::new(11);
            while e.now() < end {
                if rng.chance(0.3) {
                    let at = e.now() + SimDuration::from_nanos(rng.next_below(epoch.as_nanos()));
                    let kind = *rng.pick(&RequestKind::ALL).expect("non-empty");
                    e.push_external_arrival(at, kind);
                }
                e.run_to(e.now() + epoch);
            }
            e.run_to_end();
            e
        };
        let mut cfg = quick_cfg();
        cfg.machine.frequency_hz = 50_000_000.0;
        let oracle = drive(Engine::no_skip(cfg.clone(), RunPlan::quick()));
        let skipping = drive(Engine::new(cfg, RunPlan::quick()));
        let stats = skipping.sched_stats();
        assert!(
            stats.idle_ticks_skipped > 0,
            "sparse arrivals leave idle quanta: {stats:?}"
        );
        assert_eq!(stats.total_ticks(), oracle.sched_stats().quanta_executed);
        assert!(skipping.completed_requests() > 0);
        assert_eq!(skipping.completed_requests(), oracle.completed_requests());
        assert_eq!(skipping.hpm_digest(), oracle.hpm_digest());
        assert_eq!(skipping.steady_counters(), oracle.steady_counters());
    }

    /// A fault plan covering every kind, inside `RunPlan::quick`'s 45 s.
    fn storm_config() -> SutConfig {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg.faults.plan = jas_faults::FaultPlan::parse(
            "db-lock@10-25:0.35,db-io@12-30:0.25,jms-redeliver@8-30:0.5,\
             jms-dup@8-30:0.3,pool-seize@15-30:0.6,gc-storm@10-30:0.08",
        )
        .expect("valid spec");
        cfg
    }

    #[test]
    fn faulted_run_exercises_resilience_and_still_finishes() {
        let mut e = Engine::new(storm_config(), RunPlan::quick());
        e.run_to_end();
        let c = *e.fault_counters();
        assert!(c.total_injected() > 0, "storm fired nothing: {c:?}");
        assert!(c.retries > 0, "no retries under a db-fault storm: {c:?}");
        assert!(
            c.injected[FaultKind::GcStorm.index()] > 0,
            "gc storms never rolled: {c:?}"
        );
        assert!(!e.fault_log().is_empty());
        assert!(
            e.completed_requests() > 50,
            "the stack should keep serving through the storm, completed {}",
            e.completed_requests()
        );
        let v = e.metrics().verdict();
        assert!(v.degraded, "retries/errors must mark the run degraded");
        assert!(
            !e.fault_monitor().active_series().is_empty(),
            "the fault monitor saw nothing move"
        );
    }

    #[test]
    fn empty_plan_keeps_resilience_machinery_cold() {
        let mut e = quick_engine();
        e.run_to_end();
        assert_eq!(*e.fault_counters(), jas_faults::FaultCounters::default());
        assert!(e.fault_log().is_empty());
        assert!(e.fault_monitor().active_series().is_empty());
    }

    #[test]
    fn deadlines_fail_requests_when_armed() {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        // A zero-rate window arms the plan without firing anything, so the
        // deadline machinery alone is under test.
        cfg.faults.plan = jas_faults::FaultPlan::parse("db-lock@0-1:0").expect("valid spec");
        cfg.faults.deadline = Some(SimDuration::from_millis(40));
        let mut e = Engine::new(cfg, RunPlan::quick());
        e.run_to_end();
        let c = *e.fault_counters();
        assert!(
            c.deadline_exceeded > 0,
            "a 40 ms deadline must fail some multi-quantum requests: {c:?}"
        );
        assert_eq!(c.errors, c.deadline_exceeded, "only deadlines failed");
        assert!(e.aborted_requests() >= c.deadline_exceeded);
    }
}
