//! The versioned scenario spec: schema, validation, canonicalization,
//! and the pinned `SCENARIO_DIGEST`.
//!
//! A scenario bundles everything that defines a reproducible run — the
//! workload curve, fault plan, trace spec, cluster topology, autoscaler
//! tuning, and SLO — into one named artifact. The digest is FNV-1a over
//! the *canonicalized* spec (fixed section and key order, canonical
//! number formatting, comments and the pin itself excluded), so
//! formatting changes never move the digest but any semantic change
//! does.

use jas_cluster::{AutoscaleConfig, DispatchPolicy};
use jas_faults::FaultPlan;
use jas_simkernel::snapshot::fnv1a;
use jas_simkernel::toml::{Doc, Value};
use jas_trace::TraceSpec;
use jas_workload::Curve;

/// The spec format version this build reads and writes. Versioning
/// policy: a spec carrying any other `version` is rejected outright —
/// digests are only comparable within one format version.
pub const SCENARIO_SPEC_VERSION: u32 = 1;

/// Which benchmark application the scenario drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// The SPECjAppServer2004-like dealer workload.
    Jas,
    /// The Trade6-like brokerage cross-check workload.
    Trade,
}

impl AppKind {
    /// Stable spec name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Jas => "jas",
            AppKind::Trade => "trade",
        }
    }

    fn parse(s: &str) -> Result<AppKind, String> {
        match s {
            "jas" => Ok(AppKind::Jas),
            "trade" => Ok(AppKind::Trade),
            other => Err(format!("unknown app '{other}' (jas|trade)")),
        }
    }
}

/// The workload curve, as written in the spec (compiled to a
/// [`Curve`] by [`ScenarioSpec::compile_curve`]).
#[derive(Clone, Debug, PartialEq)]
pub enum CurveSpec {
    /// Flat injection at the configured IR (the legacy behavior).
    Constant,
    /// A compressed 24-hour day tiled over the run: multiplier swings
    /// between `trough` (pre-dawn) and 1.0 (midday peak), one full day
    /// every `day_s` sim seconds.
    Diurnal {
        /// Sim seconds per simulated day.
        day_s: f64,
        /// Overnight multiplier floor in `[0, 1]`.
        trough: f64,
    },
    /// A flash-crowd trapezoid: baseline 1.0, ramp to `peak` over
    /// `ramp_s` starting at `start_s`, hold `hold_s`, ramp back down.
    FlashCrowd {
        /// When the spike begins (sim seconds).
        start_s: f64,
        /// Ramp duration up and down (sim seconds).
        ramp_s: f64,
        /// Plateau duration at `peak` (sim seconds).
        hold_s: f64,
        /// Peak multiplier.
        peak: f64,
    },
    /// Explicit piecewise-linear control points.
    Piecewise {
        /// Point times (sim seconds, strictly increasing).
        points_s: Vec<f64>,
        /// Multipliers, one per point.
        mults: Vec<f64>,
    },
}

impl CurveSpec {
    /// Stable spec name of the curve kind.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            CurveSpec::Constant => "constant",
            CurveSpec::Diurnal { .. } => "diurnal",
            CurveSpec::FlashCrowd { .. } => "flash-crowd",
            CurveSpec::Piecewise { .. } => "piecewise",
        }
    }
}

/// Normalized day shape sampled every 2 simulated hours (13 samples,
/// first == last so tiled days join continuously): overnight trough,
/// morning ramp, midday peak, evening decay. A fixed table rather than
/// a trig formula keeps the curve — and everything digested from the
/// run — bit-identical across platforms.
const DIURNAL_SHAPE: [f64; 13] = [
    0.05, 0.02, 0.10, 0.30, 0.55, 0.75, 0.90, 1.00, 0.95, 0.80, 0.55, 0.25, 0.05,
];

/// The scenario's pass criteria, checked by the `SCENARIO_VERDICT` line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Web 90th-percentile response-time limit in seconds.
    pub web_p90_s: f64,
    /// RMI 90th-percentile response-time limit in seconds.
    pub rmi_p90_s: f64,
    /// Maximum error fraction.
    pub error_rate: f64,
    /// Maximum fraction of offered load shed by admission control.
    pub shed_fraction: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        // The benchmark's own pass criteria plus a token shed allowance.
        SloSpec {
            web_p90_s: 2.0,
            rmi_p90_s: 5.0,
            error_rate: 0.01,
            shed_fraction: 0.05,
        }
    }
}

/// Everything one run of a scenario is judged on.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioOutcome {
    /// Web 90th-percentile response time (steady window).
    pub web_p90: f64,
    /// RMI 90th-percentile response time (steady window).
    pub rmi_p90: f64,
    /// Error fraction of all outcomes.
    pub error_rate: f64,
    /// Fraction of offered load shed (0 on single-node runs).
    pub shed_fraction: f64,
    /// Fraction of steady-window responses over the web SLO limit.
    pub slo_miss: f64,
    /// Fleet conservation failures (0 on single-node runs).
    pub lost: u64,
}

/// A parsed, validated scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (`[a-z0-9-]`, the file stem by convention).
    pub name: String,
    /// Format version (always [`SCENARIO_SPEC_VERSION`] after parsing).
    pub version: u32,
    /// Free-text description.
    pub description: String,
    /// The digest the spec pins for itself, when present. Parsing fails
    /// on a mismatch, so a stored scenario cannot drift silently.
    pub pinned_digest: Option<u64>,
    /// Ramp-up seconds before the steady measurement window.
    pub ramp_s: u64,
    /// Steady-window seconds.
    pub steady_s: u64,
    /// Benchmark application.
    pub app: AppKind,
    /// Injection rate (the curve multiplies this).
    pub ir: u32,
    /// The workload curve.
    pub curve: CurveSpec,
    /// Fault plan in the `kind@lo-hi:rate` grammar (empty for none).
    pub fault_plan: String,
    /// Trace spec (`off`, `all`, or a category list).
    pub trace: String,
    /// Fleet size (1 = the legacy single-engine path).
    pub nodes: usize,
    /// LB dispatch policy (fleets only).
    pub dispatch: DispatchPolicy,
    /// Per-node admission cap.
    pub max_in_flight: u64,
    /// Reactive autoscaler tuning, when armed.
    pub autoscale: Option<AutoscaleConfig>,
    /// Pass criteria.
    pub slo: SloSpec,
}

impl ScenarioSpec {
    /// Parses and validates a spec.
    ///
    /// # Errors
    ///
    /// Returns a message (with a `line N:` prefix where one applies)
    /// for syntax errors, unknown sections or keys, missing required
    /// keys, malformed curve/fault/trace/cluster values, an unsupported
    /// format version, or a digest-pin mismatch.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let doc = Doc::parse(text)?;
        let mut b = Builder::default();
        for item in doc.items {
            b.apply(&item.section, &item.key, item.value)
                .map_err(|e| format!("line {}: {e}", item.line))?;
        }
        b.finish()
    }

    /// Sim seconds from t=0 to the end of the steady window.
    #[must_use]
    pub fn end_s(&self) -> u64 {
        self.ramp_s + self.steady_s
    }

    /// Compiles the declared curve to control points over this
    /// scenario's run length.
    ///
    /// # Panics
    ///
    /// Never after a successful [`ScenarioSpec::parse`], which compiles
    /// the curve once to validate it.
    #[must_use]
    pub fn compile_curve(&self) -> Curve {
        compile_curve(&self.curve, self.end_s() as f64).expect("curve validated at parse")
    }

    /// The parsed fault plan.
    ///
    /// # Panics
    ///
    /// Never after a successful [`ScenarioSpec::parse`].
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::parse(&self.fault_plan).expect("fault plan validated at parse")
    }

    /// The parsed trace spec.
    ///
    /// # Panics
    ///
    /// Never after a successful [`ScenarioSpec::parse`].
    #[must_use]
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec::parse(&self.trace).expect("trace spec validated at parse")
    }

    /// The canonical serialization the digest covers: fixed section and
    /// key order, canonical number formatting, no comments, and no
    /// digest pin.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(&mut out, "[scenario]".to_string());
        line(&mut out, format!("name = \"{}\"", self.name));
        line(&mut out, format!("version = {}", self.version));
        line(&mut out, format!("description = \"{}\"", self.description));
        line(&mut out, "[run]".to_string());
        line(&mut out, format!("ramp_s = {}", self.ramp_s));
        line(&mut out, format!("steady_s = {}", self.steady_s));
        line(&mut out, "[workload]".to_string());
        line(&mut out, format!("app = \"{}\"", self.app.name()));
        line(&mut out, format!("ir = {}", self.ir));
        line(&mut out, format!("curve = \"{}\"", self.curve.kind_name()));
        match &self.curve {
            CurveSpec::Constant => {}
            CurveSpec::Diurnal { day_s, trough } => {
                line(&mut out, "[workload.diurnal]".to_string());
                line(&mut out, format!("day_s = {}", fmt_num(*day_s)));
                line(&mut out, format!("trough = {}", fmt_num(*trough)));
            }
            CurveSpec::FlashCrowd {
                start_s,
                ramp_s,
                hold_s,
                peak,
            } => {
                line(&mut out, "[workload.flash]".to_string());
                line(&mut out, format!("start_s = {}", fmt_num(*start_s)));
                line(&mut out, format!("ramp_s = {}", fmt_num(*ramp_s)));
                line(&mut out, format!("hold_s = {}", fmt_num(*hold_s)));
                line(&mut out, format!("peak = {}", fmt_num(*peak)));
            }
            CurveSpec::Piecewise { points_s, mults } => {
                line(&mut out, "[workload.piecewise]".to_string());
                line(&mut out, format!("points_s = {}", fmt_nums(points_s)));
                line(&mut out, format!("mults = {}", fmt_nums(mults)));
            }
        }
        line(&mut out, "[faults]".to_string());
        line(&mut out, format!("plan = \"{}\"", self.fault_plan));
        line(&mut out, "[trace]".to_string());
        line(&mut out, format!("spec = \"{}\"", self.trace));
        line(&mut out, "[cluster]".to_string());
        line(&mut out, format!("nodes = {}", self.nodes));
        line(&mut out, format!("dispatch = \"{}\"", self.dispatch.name()));
        line(&mut out, format!("max_in_flight = {}", self.max_in_flight));
        if let Some(a) = self.autoscale {
            line(&mut out, "[autoscale]".to_string());
            line(&mut out, format!("min_nodes = {}", a.min_nodes));
            line(
                &mut out,
                format!("up_jops_per_node = {}", fmt_num(a.up_jops_per_node)),
            );
            line(
                &mut out,
                format!("down_jops_per_node = {}", fmt_num(a.down_jops_per_node)),
            );
            line(
                &mut out,
                format!("slo_miss_fraction = {}", fmt_num(a.slo_miss_fraction)),
            );
            line(&mut out, format!("slo_s = {}", fmt_num(a.slo_s)));
            line(&mut out, format!("evaluate_every = {}", a.evaluate_every));
            line(&mut out, format!("cooldown_epochs = {}", a.cooldown_epochs));
        }
        line(&mut out, "[slo]".to_string());
        line(
            &mut out,
            format!("web_p90_s = {}", fmt_num(self.slo.web_p90_s)),
        );
        line(
            &mut out,
            format!("rmi_p90_s = {}", fmt_num(self.slo.rmi_p90_s)),
        );
        line(
            &mut out,
            format!("error_rate = {}", fmt_num(self.slo.error_rate)),
        );
        line(
            &mut out,
            format!("shed_fraction = {}", fmt_num(self.slo.shed_fraction)),
        );
        out
    }

    /// `SCENARIO_DIGEST`: FNV-1a over the canonical serialization.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical_text().as_bytes())
    }

    /// Whether `outcome` meets this scenario's SLO (and, for fleets,
    /// the conservation invariant).
    #[must_use]
    pub fn passes(&self, outcome: &ScenarioOutcome) -> bool {
        outcome.web_p90 <= self.slo.web_p90_s
            && outcome.rmi_p90 <= self.slo.rmi_p90_s
            && outcome.error_rate <= self.slo.error_rate
            && outcome.shed_fraction <= self.slo.shed_fraction
            && outcome.lost == 0
    }

    /// The `SCENARIO_VERDICT` line the binary prints — fixed field
    /// order and precision so CI can diff it across thread counts.
    #[must_use]
    pub fn verdict_line(&self, outcome: &ScenarioOutcome) -> String {
        format!(
            "SCENARIO_VERDICT={} name={} web_p90={:.4} rmi_p90={:.4} error_rate={:.4} shed_fraction={:.4} slo_miss={:.4}",
            if self.passes(outcome) { "pass" } else { "fail" },
            self.name,
            outcome.web_p90,
            outcome.rmi_p90,
            outcome.error_rate,
            outcome.shed_fraction,
            outcome.slo_miss,
        )
    }
}

/// Canonical number formatting: integers print without a decimal
/// point, everything else uses Rust's shortest round-trip form.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

fn fmt_nums(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| fmt_num(v)).collect();
    format!("[{}]", items.join(", "))
}

fn compile_curve(curve: &CurveSpec, end_s: f64) -> Result<Curve, String> {
    match curve {
        CurveSpec::Constant => Ok(Curve::constant()),
        CurveSpec::Diurnal { day_s, trough } => {
            if *day_s <= 0.0 || day_s.is_nan() {
                return Err(format!("diurnal day_s must be positive, got {day_s}"));
            }
            if !(0.0..=1.0).contains(trough) {
                return Err(format!("diurnal trough must be in [0, 1], got {trough}"));
            }
            let step = day_s / 12.0;
            let mut points = Vec::new();
            let mut i = 0usize;
            loop {
                let t = i as f64 * step;
                // Samples 0..12 of each day; sample 12 equals the next
                // day's sample 0, so tiling just keeps striding.
                let shape = DIURNAL_SHAPE[i % 12];
                points.push((t, trough + (1.0 - trough) * shape));
                if t > end_s {
                    break;
                }
                i += 1;
            }
            Curve::from_points(points)
        }
        CurveSpec::FlashCrowd {
            start_s,
            ramp_s,
            hold_s,
            peak,
        } => {
            if !(*start_s > 0.0 && *ramp_s > 0.0 && *hold_s >= 0.0) {
                return Err(format!(
                    "flash curve needs start_s > 0, ramp_s > 0, hold_s >= 0 \
                     (got {start_s}, {ramp_s}, {hold_s})"
                ));
            }
            if *peak < 1.0 || peak.is_nan() {
                return Err(format!("flash peak must be >= 1, got {peak}"));
            }
            let mut points = vec![(0.0, 1.0), (*start_s, 1.0), (start_s + ramp_s, *peak)];
            if *hold_s > 0.0 {
                points.push((start_s + ramp_s + hold_s, *peak));
            }
            points.push((start_s + ramp_s + hold_s + ramp_s, 1.0));
            Curve::from_points(points)
        }
        CurveSpec::Piecewise { points_s, mults } => {
            if points_s.len() != mults.len() || points_s.is_empty() {
                return Err(format!(
                    "piecewise needs matching non-empty points_s/mults \
                     (got {} and {})",
                    points_s.len(),
                    mults.len()
                ));
            }
            Curve::from_points(
                points_s
                    .iter()
                    .copied()
                    .zip(mults.iter().copied())
                    .collect(),
            )
        }
    }
}

/// `[workload.flash]` keys in declaration order: start_s, ramp_s,
/// hold_s, peak.
type FlashParams = (Option<f64>, Option<f64>, Option<f64>, Option<f64>);
/// `[workload.piecewise]` keys: points_s, mults.
type PiecewiseParams = (Option<Vec<f64>>, Option<Vec<f64>>);

/// Accumulates items during parsing; `finish` validates and builds.
#[derive(Default)]
struct Builder {
    name: Option<String>,
    version: Option<f64>,
    description: Option<String>,
    pinned_digest: Option<u64>,
    ramp_s: Option<f64>,
    steady_s: Option<f64>,
    app: Option<String>,
    ir: Option<f64>,
    curve_kind: Option<String>,
    diurnal: Option<(Option<f64>, Option<f64>)>,
    flash: Option<FlashParams>,
    piecewise: Option<PiecewiseParams>,
    fault_plan: Option<String>,
    trace: Option<String>,
    nodes: Option<f64>,
    dispatch: Option<String>,
    max_in_flight: Option<f64>,
    autoscale_seen: bool,
    as_min_nodes: Option<f64>,
    as_up: Option<f64>,
    as_down: Option<f64>,
    as_miss: Option<f64>,
    as_slo_s: Option<f64>,
    as_every: Option<f64>,
    as_cooldown: Option<f64>,
    slo_web: Option<f64>,
    slo_rmi: Option<f64>,
    slo_err: Option<f64>,
    slo_shed: Option<f64>,
}

impl Builder {
    fn apply(&mut self, section: &str, key: &str, value: Value) -> Result<(), String> {
        match (section, key) {
            ("scenario", "name") => self.name = Some(value.into_string()?),
            ("scenario", "version") => self.version = Some(value.into_num()?),
            ("scenario", "description") => self.description = Some(value.into_string()?),
            ("scenario", "digest") => {
                let s = value.into_string()?;
                let hex = s.strip_prefix("0x").unwrap_or(&s).replace('_', "");
                let d = u64::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad digest '{s}' (expected 0x-prefixed hex)"))?;
                self.pinned_digest = Some(d);
            }
            ("run", "ramp_s") => self.ramp_s = Some(value.into_num()?),
            ("run", "steady_s") => self.steady_s = Some(value.into_num()?),
            ("workload", "app") => self.app = Some(value.into_string()?),
            ("workload", "ir") => self.ir = Some(value.into_num()?),
            ("workload", "curve") => self.curve_kind = Some(value.into_string()?),
            ("workload.diurnal", k) => {
                let d = self.diurnal.get_or_insert((None, None));
                match k {
                    "day_s" => d.0 = Some(value.into_num()?),
                    "trough" => d.1 = Some(value.into_num()?),
                    other => return Err(format!("unknown diurnal key '{other}'")),
                }
            }
            ("workload.flash", k) => {
                let f = self.flash.get_or_insert((None, None, None, None));
                match k {
                    "start_s" => f.0 = Some(value.into_num()?),
                    "ramp_s" => f.1 = Some(value.into_num()?),
                    "hold_s" => f.2 = Some(value.into_num()?),
                    "peak" => f.3 = Some(value.into_num()?),
                    other => return Err(format!("unknown flash key '{other}'")),
                }
            }
            ("workload.piecewise", k) => {
                let p = self.piecewise.get_or_insert((None, None));
                match k {
                    "points_s" => p.0 = Some(value.into_nums()?),
                    "mults" => p.1 = Some(value.into_nums()?),
                    other => return Err(format!("unknown piecewise key '{other}'")),
                }
            }
            ("faults", "plan") => self.fault_plan = Some(value.into_string()?),
            ("trace", "spec") => self.trace = Some(value.into_string()?),
            ("cluster", "nodes") => self.nodes = Some(value.into_num()?),
            ("cluster", "dispatch") => self.dispatch = Some(value.into_string()?),
            ("cluster", "max_in_flight") => self.max_in_flight = Some(value.into_num()?),
            ("autoscale", k) => {
                self.autoscale_seen = true;
                match k {
                    "min_nodes" => self.as_min_nodes = Some(value.into_num()?),
                    "up_jops_per_node" => self.as_up = Some(value.into_num()?),
                    "down_jops_per_node" => self.as_down = Some(value.into_num()?),
                    "slo_miss_fraction" => self.as_miss = Some(value.into_num()?),
                    "slo_s" => self.as_slo_s = Some(value.into_num()?),
                    "evaluate_every" => self.as_every = Some(value.into_num()?),
                    "cooldown_epochs" => self.as_cooldown = Some(value.into_num()?),
                    other => return Err(format!("unknown autoscale key '{other}'")),
                }
            }
            ("slo", "web_p90_s") => self.slo_web = Some(value.into_num()?),
            ("slo", "rmi_p90_s") => self.slo_rmi = Some(value.into_num()?),
            ("slo", "error_rate") => self.slo_err = Some(value.into_num()?),
            ("slo", "shed_fraction") => self.slo_shed = Some(value.into_num()?),
            (sec, k) => {
                return Err(if sec.is_empty() {
                    format!("unknown top-level key '{k}'")
                } else {
                    format!("unknown key '{k}' in section [{sec}]")
                })
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<ScenarioSpec, String> {
        let curve = self.build_curve()?;
        let name = self.name.ok_or("missing [scenario] name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(format!(
                "scenario name '{name}' must be non-empty [a-z0-9-]"
            ));
        }
        let version = as_u64(self.version.ok_or("missing [scenario] version")?, "version")?;
        if version != u64::from(SCENARIO_SPEC_VERSION) {
            return Err(format!(
                "unsupported spec version {version} (this build reads version {SCENARIO_SPEC_VERSION})"
            ));
        }
        let ramp_s = as_u64(self.ramp_s.ok_or("missing [run] ramp_s")?, "ramp_s")?;
        let steady_s = as_u64(self.steady_s.ok_or("missing [run] steady_s")?, "steady_s")?;
        if steady_s == 0 {
            return Err("steady_s must be positive".to_string());
        }
        let ir = as_u64(self.ir.ok_or("missing [workload] ir")?, "ir")?;
        if ir == 0 || ir > u64::from(u32::MAX) {
            return Err(format!("ir must be in [1, 2^32), got {ir}"));
        }
        let app = AppKind::parse(self.app.as_deref().unwrap_or("jas"))?;
        let fault_plan = self.fault_plan.clone().unwrap_or_default();
        FaultPlan::parse(&fault_plan).map_err(|e| format!("[faults] plan: {e}"))?;
        let trace = self.trace.clone().unwrap_or_else(|| "off".to_string());
        TraceSpec::parse(&trace).map_err(|e| format!("[trace] spec: {e}"))?;
        let nodes = as_u64(self.nodes.unwrap_or(1.0), "nodes")? as usize;
        if nodes == 0 {
            return Err("nodes must be at least 1".to_string());
        }
        let dispatch = DispatchPolicy::parse(self.dispatch.as_deref().unwrap_or("round-robin"))?;
        let max_in_flight = as_u64(self.max_in_flight.unwrap_or(64.0), "max_in_flight")?;
        if max_in_flight == 0 {
            return Err("max_in_flight must be at least 1".to_string());
        }
        let autoscale = if self.autoscale_seen {
            if nodes < 2 {
                return Err("[autoscale] requires a fleet (nodes >= 2)".to_string());
            }
            let defaults = AutoscaleConfig::default();
            let min_nodes = as_u64(
                self.as_min_nodes.ok_or("missing [autoscale] min_nodes")?,
                "min_nodes",
            )? as usize;
            if min_nodes == 0 || min_nodes > nodes {
                return Err(format!(
                    "autoscale min_nodes must be in [1, nodes], got {min_nodes}"
                ));
            }
            Some(AutoscaleConfig {
                min_nodes,
                max_nodes: nodes,
                up_jops_per_node: self.as_up.unwrap_or(defaults.up_jops_per_node),
                down_jops_per_node: self.as_down.unwrap_or(defaults.down_jops_per_node),
                slo_miss_fraction: self.as_miss.unwrap_or(defaults.slo_miss_fraction),
                slo_s: self.as_slo_s.unwrap_or(defaults.slo_s),
                evaluate_every: as_u64(
                    self.as_every.unwrap_or(defaults.evaluate_every as f64),
                    "evaluate_every",
                )?,
                cooldown_epochs: as_u64(
                    self.as_cooldown.unwrap_or(defaults.cooldown_epochs as f64),
                    "cooldown_epochs",
                )?,
            })
        } else {
            None
        };
        let slo_defaults = SloSpec::default();
        let spec = ScenarioSpec {
            name,
            version: SCENARIO_SPEC_VERSION,
            description: self.description.unwrap_or_default(),
            pinned_digest: self.pinned_digest,
            ramp_s,
            steady_s,
            app,
            ir: ir as u32,
            curve,
            fault_plan,
            trace,
            nodes,
            dispatch,
            max_in_flight,
            autoscale,
            slo: SloSpec {
                web_p90_s: self.slo_web.unwrap_or(slo_defaults.web_p90_s),
                rmi_p90_s: self.slo_rmi.unwrap_or(slo_defaults.rmi_p90_s),
                error_rate: self.slo_err.unwrap_or(slo_defaults.error_rate),
                shed_fraction: self.slo_shed.unwrap_or(slo_defaults.shed_fraction),
            },
        };
        // Compile once so later `compile_curve` calls cannot fail.
        compile_curve(&spec.curve, spec.end_s() as f64)?;
        if let Some(pin) = spec.pinned_digest {
            let actual = spec.digest();
            if pin != actual {
                return Err(format!(
                    "digest pin mismatch: spec pins {pin:#018x}, canonical digest is {actual:#018x}"
                ));
            }
        }
        Ok(spec)
    }

    fn build_curve(&self) -> Result<CurveSpec, String> {
        let kind = self.curve_kind.as_deref().unwrap_or("constant");
        let params_present = |name: &str, present: bool| -> Result<(), String> {
            if present {
                Err(format!(
                    "[workload.{name}] is only valid when curve = \"{}\"",
                    if name == "flash" { "flash-crowd" } else { name }
                ))
            } else {
                Ok(())
            }
        };
        match kind {
            "constant" => {
                params_present("diurnal", self.diurnal.is_some())?;
                params_present("flash", self.flash.is_some())?;
                params_present("piecewise", self.piecewise.is_some())?;
                Ok(CurveSpec::Constant)
            }
            "diurnal" => {
                params_present("flash", self.flash.is_some())?;
                params_present("piecewise", self.piecewise.is_some())?;
                let (day_s, trough) = self.diurnal.ok_or("missing [workload.diurnal] section")?;
                Ok(CurveSpec::Diurnal {
                    day_s: day_s.ok_or("missing diurnal day_s")?,
                    trough: trough.ok_or("missing diurnal trough")?,
                })
            }
            "flash-crowd" => {
                params_present("diurnal", self.diurnal.is_some())?;
                params_present("piecewise", self.piecewise.is_some())?;
                let (start_s, ramp_s, hold_s, peak) =
                    self.flash.ok_or("missing [workload.flash] section")?;
                Ok(CurveSpec::FlashCrowd {
                    start_s: start_s.ok_or("missing flash start_s")?,
                    ramp_s: ramp_s.ok_or("missing flash ramp_s")?,
                    hold_s: hold_s.ok_or("missing flash hold_s")?,
                    peak: peak.ok_or("missing flash peak")?,
                })
            }
            "piecewise" => {
                params_present("diurnal", self.diurnal.is_some())?;
                params_present("flash", self.flash.is_some())?;
                let (points_s, mults) = self
                    .piecewise
                    .clone()
                    .ok_or("missing [workload.piecewise] section")?;
                Ok(CurveSpec::Piecewise {
                    points_s: points_s.ok_or("missing piecewise points_s")?,
                    mults: mults.ok_or("missing piecewise mults")?,
                })
            }
            other => Err(format!(
                "unknown curve '{other}' (constant|diurnal|flash-crowd|piecewise)"
            )),
        }
    }
}

fn as_u64(v: f64, what: &str) -> Result<u64, String> {
    if v < 0.0 || v.fract() != 0.0 || v > 9.0e15 {
        return Err(format!("{what} must be a non-negative integer, got {v}"));
    }
    Ok(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "mini"
version = 1

[run]
ramp_s = 5
steady_s = 30

[workload]
ir = 10
"#;

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.app, AppKind::Jas);
        assert_eq!(spec.curve, CurveSpec::Constant);
        assert_eq!(spec.nodes, 1);
        assert_eq!(spec.max_in_flight, 64);
        assert!(spec.autoscale.is_none());
        assert!(spec.compile_curve().is_flat());
        assert_eq!(spec.slo, SloSpec::default());
        assert_eq!(spec.end_s(), 35);
    }

    #[test]
    fn digest_ignores_formatting_but_not_semantics() {
        let a = ScenarioSpec::parse(MINIMAL).expect("parses");
        let reordered = ScenarioSpec::parse(
            "[workload]\nir = 10\n# hello\n[run]\nsteady_s = 30\nramp_s = 5\n\
             [scenario]\nversion = 1\nname = \"mini\"\n",
        )
        .expect("parses");
        assert_eq!(a.digest(), reordered.digest());
        let changed = ScenarioSpec::parse(&MINIMAL.replace("ir = 10", "ir = 11")).expect("parses");
        assert_ne!(a.digest(), changed.digest());
    }

    #[test]
    fn canonical_text_round_trips_through_the_parser() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        let reparsed = ScenarioSpec::parse(&spec.canonical_text()).expect("round-trips");
        assert_eq!(spec, reparsed);
        assert_eq!(spec.digest(), reparsed.digest());
    }

    #[test]
    fn digest_pin_is_enforced() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        let pinned = format!(
            "[scenario]\nname = \"mini\"\nversion = 1\ndigest = \"{:#018x}\"\n\
             [run]\nramp_s = 5\nsteady_s = 30\n[workload]\nir = 10\n",
            spec.digest()
        );
        let ok = ScenarioSpec::parse(&pinned).expect("matching pin parses");
        assert_eq!(ok.pinned_digest, Some(spec.digest()));
        let bad = pinned.replace(&format!("{:#018x}", spec.digest()), "0x0000000000000001");
        let err = ScenarioSpec::parse(&bad).expect_err("mismatched pin rejected");
        assert!(err.contains("digest pin mismatch"), "{err}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let err = ScenarioSpec::parse(&MINIMAL.replace("version = 1", "version = 2"))
            .expect_err("rejected");
        assert!(err.contains("unsupported spec version 2"), "{err}");
    }

    #[test]
    fn unknown_keys_and_sections_are_hard_errors() {
        assert!(ScenarioSpec::parse(&format!("{MINIMAL}\n[scenario]\nbogus = 1\n")).is_err());
        assert!(ScenarioSpec::parse(&format!("{MINIMAL}\n[nonsense]\nx = 1\n")).is_err());
        let err =
            ScenarioSpec::parse(&format!("{MINIMAL}\n[cluster]\ncap = 3\n")).expect_err("rejected");
        assert!(err.contains("unknown key 'cap'"), "{err}");
    }

    #[test]
    fn curve_sections_must_match_the_declared_kind() {
        let err = ScenarioSpec::parse(&format!(
            "{MINIMAL}\n[workload.flash]\nstart_s = 5\nramp_s = 1\nhold_s = 2\npeak = 3\n"
        ))
        .expect_err("rejected");
        assert!(err.contains("only valid when curve"), "{err}");
        let err = ScenarioSpec::parse(&format!(
            "{}\n[workload.diurnal]\nday_s = 48\ntrough = 0.2\n",
            MINIMAL.replace("ir = 10", "ir = 10\ncurve = \"flash-crowd\"")
        ))
        .expect_err("rejected");
        assert!(err.contains("diurnal"), "{err}");
    }

    #[test]
    fn fault_plan_errors_surface_with_positions() {
        let err = ScenarioSpec::parse(&format!(
            "{MINIMAL}\n[faults]\nplan = \"db-lock@1-2:0.5,node-crash@9-3:0.5\"\n"
        ))
        .expect_err("rejected");
        assert!(err.contains("plan[1]"), "{err}");
    }

    #[test]
    fn flash_curve_compiles_to_a_trapezoid() {
        let spec = ScenarioSpec::parse(&format!(
            "{}\n[workload.flash]\nstart_s = 12\nramp_s = 2\nhold_s = 6\npeak = 6\n",
            MINIMAL.replace("ir = 10", "ir = 10\ncurve = \"flash-crowd\"")
        ))
        .expect("parses");
        let curve = spec.compile_curve();
        assert!(!curve.is_flat());
        assert_eq!(curve.multiplier_at(0.0), 1.0);
        assert_eq!(curve.multiplier_at(15.0), 6.0);
        assert_eq!(curve.multiplier_at(30.0), 1.0);
    }

    #[test]
    fn diurnal_curve_tiles_days_and_stays_within_bounds() {
        let spec = ScenarioSpec::parse(&format!(
            "{}\n[workload.diurnal]\nday_s = 48\ntrough = 0.25\n",
            MINIMAL.replace("ir = 10", "ir = 10\ncurve = \"diurnal\"")
        ))
        .expect("parses");
        let curve = spec.compile_curve();
        for i in 0..70 {
            let m = curve.multiplier_at(f64::from(i) * 0.5);
            assert!((0.25..=1.0).contains(&m), "t={} m={m}", f64::from(i) * 0.5);
        }
        // Midday of day 0 (hour 14 of 24 -> 28 of 48) is the peak.
        assert!(curve.multiplier_at(28.0) > 0.95);
        // Pre-dawn is near the trough.
        assert!(curve.multiplier_at(4.0) < 0.35);
    }

    #[test]
    fn autoscale_requires_a_fleet_and_sane_bounds() {
        let err = ScenarioSpec::parse(&format!("{MINIMAL}\n[autoscale]\nmin_nodes = 1\n"))
            .expect_err("rejected");
        assert!(err.contains("requires a fleet"), "{err}");
        let spec = ScenarioSpec::parse(&format!(
            "{MINIMAL}\n[cluster]\nnodes = 3\n[autoscale]\nmin_nodes = 1\n"
        ))
        .expect("parses");
        let a = spec.autoscale.expect("armed");
        assert_eq!((a.min_nodes, a.max_nodes), (1, 3));
    }

    #[test]
    fn verdict_line_has_a_stable_shape() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        let outcome = ScenarioOutcome {
            web_p90: 0.5,
            rmi_p90: 1.0,
            error_rate: 0.0,
            shed_fraction: 0.0,
            slo_miss: 0.0123,
            lost: 0,
        };
        assert_eq!(
            spec.verdict_line(&outcome),
            "SCENARIO_VERDICT=pass name=mini web_p90=0.5000 rmi_p90=1.0000 \
             error_rate=0.0000 shed_fraction=0.0000 slo_miss=0.0123"
        );
        let failed = ScenarioOutcome { lost: 1, ..outcome };
        assert!(spec
            .verdict_line(&failed)
            .starts_with("SCENARIO_VERDICT=fail"));
    }
}
