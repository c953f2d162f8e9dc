//! Workload scenarios: pluggable benchmark applications over the same
//! J2EE substrate.
//!
//! The paper's GC result is cross-checked against *Trade6*, "another J2EE
//! workload" (Section 6). [`Scenario`] abstracts what the execution engine
//! needs from a benchmark — an arrival process and a plan compiler — so the
//! same simulated system can run either the jAppServer-like dealer workload
//! ([`JasScenario`]) or a Trade-like online brokerage ([`TradeScenario`]).
//!
//! Scenarios reuse the five structural request slots of [`RequestKind`]
//! (three web classes, one RMI class, one JMS-driven class); each scenario
//! supplies its own business labels via [`Scenario::label`].

use crate::curve::Curve;
use crate::domain::Schema;
use crate::driver::{Driver, DriverConfig};
use crate::requests::{build_plan, catalog_popularity, RequestKind, PATH_LENGTH_MULTIPLIER};
use jas_appserver::{containers, PlanStep, QueueId, TxPlan};
use jas_db::{Database, TableId};
use jas_simkernel::dist::Zipf;
use jas_simkernel::{Rng, SimDuration};

/// A benchmark application the engine can run.
pub trait Scenario {
    /// Scenario name for reports.
    fn name(&self) -> &'static str;

    /// Draws the next external arrival: gap until it occurs, and its kind.
    fn next_arrival(&mut self) -> (SimDuration, RequestKind);

    /// Compiles the plan for one request of `kind`.
    fn build(&mut self, kind: RequestKind, work_order_queue: QueueId) -> TxPlan;

    /// Business label of a request slot under this scenario.
    fn label(&self, kind: RequestKind) -> &'static str;

    /// Stable tag identifying the scenario type inside a checkpoint
    /// stream, so a restore into the wrong scenario fails loudly.
    fn kind_tag(&self) -> u64;

    /// Persists the scenario's mutable state (RNG cursors and key
    /// counters) for checkpoint/restore. Config-derived members (schema,
    /// popularity tables, arrival distributions) are reconstructed from
    /// configuration and not serialized.
    fn persist_state(&mut self, io: &mut dyn jas_simkernel::StateIo);

    /// The first point where a replayed stream stopped matching the
    /// requests the engine made, if any. Generators never diverge.
    fn divergence(&self) -> Option<&str> {
        None
    }
}

/// The SPECjAppServer2004-like dealer/manufacturing workload (the paper's).
pub struct JasScenario {
    schema: Schema,
    driver: Driver,
    zipf: Zipf,
    rng: Rng,
    fresh_key: u64,
}

impl JasScenario {
    /// Creates the scenario, populating `db` for injection rate `ir`.
    #[must_use]
    pub fn new(db: &mut Database, ir: u32, seed: u64) -> Self {
        JasScenario::with_curve(db, ir, seed, Curve::constant())
    }

    /// Creates the scenario with a time-varying arrival-rate curve. A
    /// flat curve is byte-identical to [`JasScenario::new`].
    #[must_use]
    pub fn with_curve(db: &mut Database, ir: u32, seed: u64, curve: Curve) -> Self {
        JasScenario {
            schema: Schema::create(db, ir),
            driver: Driver::with_curve(DriverConfig::at_ir(ir), curve),
            zipf: catalog_popularity(),
            rng: Rng::new(seed ^ 0x4A53),
            fresh_key: 0,
        }
    }

    /// The populated schema (for inspection).
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

impl Scenario for JasScenario {
    fn name(&self) -> &'static str {
        "jAppServer2004-like"
    }

    fn next_arrival(&mut self) -> (SimDuration, RequestKind) {
        self.driver.next_arrival()
    }

    fn build(&mut self, kind: RequestKind, work_order_queue: QueueId) -> TxPlan {
        build_plan(
            kind,
            &self.schema,
            work_order_queue,
            &mut self.rng,
            &self.zipf,
            &mut self.fresh_key,
        )
    }

    fn label(&self, kind: RequestKind) -> &'static str {
        kind.name()
    }

    fn kind_tag(&self) -> u64 {
        1
    }

    fn persist_state(&mut self, io: &mut dyn jas_simkernel::StateIo) {
        use jas_simkernel::Persist as _;
        self.driver.persist(io);
        self.rng.persist(io);
        self.fresh_key.persist(io);
    }
}

/// Table handles of the Trade-like brokerage schema.
#[derive(Clone, Copy, Debug)]
pub struct TradeSchema {
    /// Customer accounts.
    pub accounts: TableId,
    /// Security quotes.
    pub quotes: TableId,
    /// Per-account holdings.
    pub holdings: TableId,
    /// Open orders.
    pub orders: TableId,
    /// Completed trades (settlement history).
    pub trades: TableId,
    /// Preloaded rows (accounts, quotes, holdings, orders, trades).
    pub rows: [u64; 5],
}

impl TradeSchema {
    /// Creates and populates the brokerage schema for injection rate `ir`.
    pub fn create(db: &mut Database, ir: u32) -> Self {
        let ir = u64::from(ir);
        let rows = [ir * 500, 4_000, ir * 1_000, ir * 200, ir * 400];
        let accounts = db.create_table("accounts", 384);
        let quotes = db.create_table("quotes", 192);
        let holdings = db.create_table("holdings", 256);
        let orders = db.create_table("orders", 256);
        let trades = db.create_table("trades", 192);
        for (t, n) in [accounts, quotes, holdings, orders, trades]
            .iter()
            .zip(rows)
        {
            db.bulk_load(*t, 0, n);
        }
        TradeSchema {
            accounts,
            quotes,
            holdings,
            orders,
            trades,
            rows,
        }
    }
}

/// A Trade6-like online brokerage: quotes and portfolio views dominate,
/// buys/sells write orders and holdings, settlement arrives over JMS.
pub struct TradeScenario {
    schema: TradeSchema,
    driver: Driver,
    zipf: Zipf,
    rng: Rng,
    fresh_key: u64,
}

impl TradeScenario {
    /// Creates the scenario, populating `db` for injection rate `ir`.
    #[must_use]
    pub fn new(db: &mut Database, ir: u32, seed: u64) -> Self {
        TradeScenario::with_curve(db, ir, seed, Curve::constant())
    }

    /// Creates the scenario with a time-varying arrival-rate curve. A
    /// flat curve is byte-identical to [`TradeScenario::new`].
    #[must_use]
    pub fn with_curve(db: &mut Database, ir: u32, seed: u64, curve: Curve) -> Self {
        TradeScenario {
            schema: TradeSchema::create(db, ir),
            driver: Driver::with_curve(DriverConfig::at_ir(ir), curve),
            zipf: catalog_popularity(),
            rng: Rng::new(seed ^ 0x5452_4144),
            fresh_key: 0,
        }
    }

    /// The populated schema (for inspection).
    #[must_use]
    pub fn schema(&self) -> &TradeSchema {
        &self.schema
    }

    fn pick(&mut self, n: u64) -> u64 {
        if self.rng.chance(0.7) {
            (self.zipf.sample(&mut self.rng) as u64 * 41) % n.max(1)
        } else {
            self.rng.next_below(n.max(1))
        }
    }
}

impl Scenario for TradeScenario {
    fn name(&self) -> &'static str {
        "Trade6-like brokerage"
    }

    fn next_arrival(&mut self) -> (SimDuration, RequestKind) {
        self.driver.next_arrival()
    }

    fn build(&mut self, kind: RequestKind, work_order_queue: QueueId) -> TxPlan {
        let s = self.schema;
        let mut plan = TxPlan::new();
        match kind {
            // Buy: quote lookup, order + holding writes, async settlement.
            RequestKind::Purchase => {
                plan.extend(containers::http_frontend(700));
                plan.extend(containers::servlet_dispatch(4_000));
                plan.extend(containers::session_bean_call(20_000.0));
                let account = self.pick(s.rows[0]);
                plan.extend(containers::entity_find(s.accounts, account));
                let quote = self.pick(s.rows[1]);
                plan.extend(containers::entity_find(s.quotes, quote));
                self.fresh_key += 1;
                plan.extend(containers::entity_create(
                    s.orders,
                    s.rows[3] + self.fresh_key,
                ));
                plan.extend(containers::entity_update(s.holdings, self.pick(s.rows[2])));
                plan.extend(containers::jms_send(work_order_queue, 400));
                plan.extend(containers::jta_commit(2));
            }
            // Sell: holding lookup, order write, async settlement.
            RequestKind::Manage => {
                plan.extend(containers::http_frontend(650));
                plan.extend(containers::servlet_dispatch(3_800));
                plan.extend(containers::session_bean_call(18_000.0));
                let holding = self.pick(s.rows[2]);
                plan.extend(containers::entity_find(s.holdings, holding));
                self.fresh_key += 1;
                plan.extend(containers::entity_create(
                    s.orders,
                    s.rows[3] + self.fresh_key,
                ));
                plan.extend(containers::entity_update(s.quotes, self.pick(s.rows[1])));
                plan.extend(containers::jms_send(work_order_queue, 400));
                plan.extend(containers::jta_commit(2));
            }
            // Quotes / portfolio view: read-only scans.
            RequestKind::Browse => {
                plan.extend(containers::http_frontend(500));
                plan.extend(containers::servlet_dispatch(7_000));
                plan.extend(containers::session_bean_call(10_000.0));
                for _ in 0..2 {
                    let lo = self.pick(s.rows[1].saturating_sub(16).max(1));
                    plan.extend(containers::entity_find_range(s.quotes, lo, lo + 8));
                }
                let lo = self.pick(s.rows[2].saturating_sub(24).max(1));
                plan.extend(containers::entity_find_range(s.holdings, lo, lo + 15));
                plan.extend(containers::jta_commit(1));
            }
            // Account-profile update over RMI.
            RequestKind::CreateVehicle => {
                plan.extend(containers::rmi_call(1_600));
                plan.extend(containers::session_bean_call(16_000.0));
                let account = self.pick(s.rows[0]);
                plan.extend(containers::entity_find(s.accounts, account));
                plan.extend(containers::entity_update(s.accounts, self.pick(s.rows[0])));
                plan.extend(containers::jta_commit(1));
            }
            // Settlement consumed from JMS: record the trade.
            RequestKind::WorkOrder => {
                plan.extend(containers::jms_receive(work_order_queue));
                plan.extend(containers::session_bean_call(14_000.0));
                self.fresh_key += 1;
                plan.extend(containers::entity_create(
                    s.trades,
                    s.rows[4] + self.fresh_key,
                ));
                plan.extend(containers::entity_update(s.holdings, self.pick(s.rows[2])));
                plan.extend(containers::jta_commit(2));
            }
        }
        for step in &mut plan.steps {
            if let PlanStep::Compute { instructions, .. } = step {
                *instructions *= PATH_LENGTH_MULTIPLIER;
            }
        }
        plan
    }

    fn label(&self, kind: RequestKind) -> &'static str {
        match kind {
            RequestKind::Purchase => "Buy",
            RequestKind::Manage => "Sell",
            RequestKind::Browse => "Quote/Portfolio",
            RequestKind::CreateVehicle => "UpdateProfile",
            RequestKind::WorkOrder => "Settlement",
        }
    }

    fn kind_tag(&self) -> u64 {
        2
    }

    fn persist_state(&mut self, io: &mut dyn jas_simkernel::StateIo) {
        use jas_simkernel::Persist as _;
        self.driver.persist(io);
        self.rng.persist(io);
        self.fresh_key.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jas_db::DbConfig;

    fn db() -> Database {
        Database::new(DbConfig::default())
    }

    #[test]
    fn jas_scenario_builds_all_kinds() {
        let mut database = db();
        let mut s = JasScenario::new(&mut database, 5, 1);
        for kind in RequestKind::ALL {
            let plan = s.build(kind, QueueId(0));
            assert!(!plan.steps.is_empty(), "{kind:?}");
        }
        assert_eq!(s.label(RequestKind::Purchase), "Purchase");
        assert_eq!(s.name(), "jAppServer2004-like");
    }

    #[test]
    fn trade_scenario_builds_all_kinds() {
        let mut database = db();
        let mut s = TradeScenario::new(&mut database, 5, 1);
        for kind in RequestKind::ALL {
            let plan = s.build(kind, QueueId(0));
            assert!(!plan.steps.is_empty(), "{kind:?}");
            assert!(plan.compute_instructions() > 1e6, "{kind:?} too cheap");
        }
        assert_eq!(s.label(RequestKind::Purchase), "Buy");
        assert_eq!(s.label(RequestKind::WorkOrder), "Settlement");
    }

    #[test]
    fn trade_schema_scales_with_ir() {
        let mut d1 = db();
        let mut d2 = db();
        let a = TradeScenario::new(&mut d1, 10, 1);
        let b = TradeScenario::new(&mut d2, 40, 1);
        assert_eq!(b.schema().rows[0], a.schema().rows[0] * 4);
        assert_eq!(
            a.schema().rows[1],
            b.schema().rows[1],
            "quote list does not scale"
        );
    }

    #[test]
    fn trade_browse_is_read_only() {
        let mut database = db();
        let mut s = TradeScenario::new(&mut database, 5, 2);
        let plan = s.build(RequestKind::Browse, QueueId(0));
        for step in &plan.steps {
            if let PlanStep::Db { query } = step {
                assert!(
                    matches!(
                        query,
                        jas_db::Query::SelectByKey { .. } | jas_db::Query::RangeScan { .. }
                    ),
                    "browse wrote: {query:?}"
                );
            }
        }
    }

    #[test]
    fn buy_and_sell_settle_over_jms() {
        let mut database = db();
        let mut s = TradeScenario::new(&mut database, 5, 3);
        for kind in [RequestKind::Purchase, RequestKind::Manage] {
            let plan = s.build(kind, QueueId(7));
            assert!(
                plan.steps
                    .iter()
                    .any(|st| matches!(st, PlanStep::MqSend { queue, .. } if queue.0 == 7)),
                "{kind:?} must enqueue settlement"
            );
        }
    }

    #[test]
    fn arrivals_never_inject_the_jms_slot() {
        let mut database = db();
        let mut s = TradeScenario::new(&mut database, 5, 4);
        for _ in 0..2_000 {
            assert_ne!(s.next_arrival().1, RequestKind::WorkOrder);
        }
    }
}
