//! System-under-test and experiment configuration.

use jas_appserver::{AppServerConfig, BreakerConfig, RetryPolicy};
use jas_cpu::MachineConfig;
use jas_db::DbConfig;
use jas_faults::FaultPlan;
use jas_jvm::JvmConfig;
use jas_simkernel::{SimDuration, SimTime};
use jas_trace::TraceSpec;
use jas_workload::Curve;

/// Which benchmark application the SUT runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The paper's SPECjAppServer2004-like dealer workload.
    #[default]
    JAppServer,
    /// The Trade6-like brokerage the paper cross-checks GC overhead on.
    TradeLike,
}

/// Which engine scheduler advances simulated time.
///
/// Both schedulers produce bit-identical HPM/TRACE/FAULT digests; the
/// event scheduler additionally skips provably idle quanta so dead time
/// costs no host time (DESIGN.md §12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// The legacy fixed-quantum loop: every quantum is fully simulated.
    #[default]
    Quantum,
    /// The event-driven scheduler: components register wake-ups on a
    /// deterministic min-heap and the engine fast-forwards over quanta
    /// where provably nothing observable happens.
    Event,
}

/// The full-scale clock the modeled frequency is scaled against (POWER4 at
/// 1.3 GHz).
pub const REAL_CORE_HZ: f64 = 1.3e9;

/// Fault-injection plan plus the resilience policies that answer it.
///
/// The default carries an empty plan: no faults fire, and the engine's
/// resilience paths stay cold (bit-identical to a build without them).
#[derive(Clone, Debug)]
pub struct FaultsConfig {
    /// Scheduled fault windows (empty = healthy run).
    pub plan: FaultPlan,
    /// Bounded-retry policy for failed database statements.
    pub retry: RetryPolicy,
    /// Circuit breaker guarding the database tier.
    pub breaker: BreakerConfig,
    /// Optional per-request deadline; requests running past it fail.
    pub deadline: Option<SimDuration>,
    /// JMS delivery attempts (first + redeliveries) before a message is
    /// dead-lettered.
    pub max_deliveries: u32,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            plan: FaultPlan::empty(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline: None,
            max_deliveries: 4,
        }
    }
}

/// Complete configuration of the system under test.
#[derive(Clone, Debug)]
pub struct SutConfig {
    /// Injection rate (drives load and database size).
    pub ir: u32,
    /// Hardware model.
    pub machine: MachineConfig,
    /// JVM model.
    pub jvm: JvmConfig,
    /// Database model.
    pub db: DbConfig,
    /// Application-server pools.
    pub appserver: AppServerConfig,
    /// Master RNG seed.
    pub seed: u64,
    /// Scheduler quantum.
    pub quantum: SimDuration,
    /// Multiplier on plan `Allocate` counts, bridging the modeled plans to
    /// the workload's real multi-MB/s allocation rate at the configured
    /// heap scale (see DESIGN.md).
    pub alloc_multiplier: u32,
    /// Fraction of each request's CPU work added as kernel-mode overhead
    /// (network stack, syscalls): the paper observed ~20% system time.
    pub kernel_overhead: f64,
    /// The benchmark application to run.
    pub scenario: ScenarioKind,
    /// Workload curve: piecewise-linear multiplier on the injection
    /// rate over sim time. The flat default is byte-identical to the
    /// legacy constant-IR driver (same RNG draws, same digests).
    pub curve: Curve,
    /// Host threads: above 1, a fleet runs one lane thread per node
    /// (`crate::fleet`). A single engine always runs on one thread.
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Fault injection and resilience tuning (empty plan = healthy run).
    pub faults: FaultsConfig,
    /// Trace-event categories to record (off by default; an off spec keeps
    /// every emission site cold, leaving digests byte-identical).
    pub trace: TraceSpec,
    /// Record the host self-profile (`HOSTPROF` section). Host wall-clock
    /// never enters simulation state either way.
    pub host_prof: bool,
    /// Which scheduler advances simulated time. Digest-equivalent either
    /// way; `Event` makes idle quanta free.
    pub sched: SchedMode,
}

impl Default for SutConfig {
    fn default() -> Self {
        SutConfig {
            ir: 40,
            machine: MachineConfig::default(),
            jvm: JvmConfig::default(),
            db: DbConfig::default(),
            appserver: AppServerConfig::default(),
            // Bytes grouped to spell "JAS2004" in ASCII.
            #[allow(clippy::unusual_byte_groupings)]
            seed: 0x4A41_5332_3030_34,
            quantum: SimDuration::from_millis(32),
            alloc_multiplier: 11,
            kernel_overhead: 0.22,
            scenario: ScenarioKind::JAppServer,
            curve: Curve::constant(),
            threads: 1,
            faults: FaultsConfig::default(),
            trace: TraceSpec::off(),
            host_prof: false,
            sched: SchedMode::Quantum,
        }
    }
}

impl SutConfig {
    /// Baseline configuration at a given injection rate.
    #[must_use]
    pub fn at_ir(ir: u32) -> Self {
        SutConfig {
            ir,
            ..SutConfig::default()
        }
    }

    /// Real instructions represented by one modeled instruction
    /// (`REAL_CORE_HZ / modeled frequency`).
    #[must_use]
    pub fn instruction_scale(&self) -> f64 {
        REAL_CORE_HZ / self.machine.frequency_hz
    }
}

/// Timing of one experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunPlan {
    /// Ramp-up excluded from all statistics (paper: 5 min; scaled-down
    /// defaults here).
    pub ramp_up: SimDuration,
    /// Steady-state window over which everything is measured.
    pub steady: SimDuration,
    /// HPM sampling period (paper: 0.1 s).
    pub hpm_period: SimDuration,
    /// Throughput bin width for Figure 2.
    pub throughput_bin: SimDuration,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            ramp_up: SimDuration::from_secs(20),
            steady: SimDuration::from_secs(180),
            hpm_period: SimDuration::from_millis(500),
            throughput_bin: SimDuration::from_secs(10),
        }
    }
}

impl RunPlan {
    /// A quick plan for tests.
    #[must_use]
    pub fn quick() -> Self {
        RunPlan {
            ramp_up: SimDuration::from_secs(5),
            steady: SimDuration::from_secs(40),
            hpm_period: SimDuration::from_millis(500),
            throughput_bin: SimDuration::from_secs(5),
        }
    }

    /// Start of the steady-state window.
    #[must_use]
    pub fn steady_start(&self) -> SimTime {
        SimTime::ZERO + self.ramp_up
    }

    /// End of the run.
    #[must_use]
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.ramp_up + self.steady
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_scale_is_real_over_model() {
        let cfg = SutConfig::default();
        let expect = REAL_CORE_HZ / cfg.machine.frequency_hz;
        assert!((cfg.instruction_scale() - expect).abs() < 1e-9);
        assert!(
            cfg.instruction_scale() > 100.0,
            "model runs well below 1.3 GHz"
        );
    }

    #[test]
    fn run_plan_window_arithmetic() {
        let p = RunPlan::default();
        assert_eq!(p.steady_start(), SimTime::ZERO + p.ramp_up);
        assert_eq!(p.end(), p.steady_start() + p.steady);
    }

    #[test]
    fn at_ir_overrides_only_ir() {
        let a = SutConfig::at_ir(10);
        let b = SutConfig::default();
        assert_eq!(a.ir, 10);
        assert_eq!(a.seed, b.seed);
    }
}
