//! The database engine facade: tables + buffer pool + device + transactions
//! behind a small query API, with per-query work accounting for the CPU
//! model.

use crate::bufferpool::{BufferPool, PageId};
use crate::storage::{DeviceKind, StorageDevice};
use crate::table::{Table, TableId};
use crate::txn::{LockConflict, LockMode, TxnId, TxnManager, TxnStats};
use jas_simkernel::SimTime;

/// Database configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Backing device.
    pub device: DeviceKind,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            pool_pages: 8192, // 64 MB of 8 KB pages at default scale
            page_bytes: 8192,
            device: DeviceKind::RamDisk,
        }
    }
}

/// A query against the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Point select by primary key.
    SelectByKey {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// Range scan over `[lo, hi]`.
    RangeScan {
        /// Target table.
        table: TableId,
        /// Low key (inclusive).
        lo: u64,
        /// High key (inclusive).
        hi: u64,
    },
    /// Insert a new row.
    Insert {
        /// Target table.
        table: TableId,
        /// Primary key of the new row.
        key: u64,
    },
    /// Update an existing row.
    Update {
        /// Target table.
        table: TableId,
        /// Primary key of the row.
        key: u64,
    },
    /// Delete a row (deleting an absent key affects 0 rows, as in SQL).
    Delete {
        /// Target table.
        table: TableId,
        /// Primary key of the row.
        key: u64,
    },
}

impl Query {
    fn table(&self) -> TableId {
        match *self {
            Query::SelectByKey { table, .. }
            | Query::RangeScan { table, .. }
            | Query::Insert { table, .. }
            | Query::Update { table, .. }
            | Query::Delete { table, .. } => table,
        }
    }
}

/// What executing a query cost, for the execution layer to turn into CPU
/// work and simulated time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkReport {
    /// Estimated full-scale instructions of engine CPU work.
    pub cpu_instructions: f64,
    /// Buffer-pool slot offsets touched (data references for the CPU model).
    pub slots_touched: Vec<u64>,
    /// Buffer-pool hits.
    pub pool_hits: u32,
    /// Buffer-pool misses (each cost a device round trip).
    pub pool_misses: u32,
    /// When the last device I/O completes (`None` when everything hit).
    pub io_done: Option<SimTime>,
    /// Rows produced/affected.
    pub rows: u64,
}

/// Why a query failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbError {
    /// Unknown table.
    NoSuchTable(TableId),
    /// Row-lock conflict; retry later or abort.
    Conflict(LockConflict),
    /// Duplicate primary key on insert.
    DuplicateKey(u64),
    /// Key not found on update.
    NoSuchKey(u64),
    /// Lock wait exceeded its timeout (injected fault); the statement
    /// fails instead of blocking.
    Timeout(TableId),
}

impl core::fmt::Display for DbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {}", t.0),
            DbError::Conflict(c) => write!(f, "{c}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            DbError::NoSuchKey(k) => write!(f, "no row with key {k}"),
            DbError::Timeout(t) => write!(f, "lock wait timeout on table {}", t.0),
        }
    }
}

/// A fault armed against the next statement (injected by the fault plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DbFault {
    /// The next statement's lock wait times out: it fails with
    /// [`DbError::Timeout`] without doing any work.
    #[default]
    LockTimeout,
    /// The next statement's reads stall: every page touch is charged a
    /// device round trip even when the page is resident.
    IoStall,
}

impl std::error::Error for DbError {}

impl From<LockConflict> for DbError {
    fn from(c: LockConflict) -> Self {
        DbError::Conflict(c)
    }
}

// Per-operation CPU cost constants (full-scale instructions). Commercial
// DBMS statement path lengths run to hundreds of thousands of instructions
// once client/server communication, SQL agent dispatch, catalogue lookups,
// and logging are included — that depth is what gives DB2 its double-digit
// CPU share in the paper's Figure 4.
const INSTR_PER_INDEX_NODE: f64 = 9_000.0;
const INSTR_PER_PAGE_HIT: f64 = 38_000.0;
const INSTR_PER_PAGE_MISS: f64 = 140_000.0;
const INSTR_PER_ROW: f64 = 14_000.0;
const INSTR_STATEMENT_OVERHEAD: f64 = 290_000.0;

/// The database engine.
#[derive(Clone, Debug)]
pub struct Database {
    cfg: DbConfig,
    tables: Vec<Table>,
    pool: BufferPool,
    device: StorageDevice,
    txns: TxnManager,
    pending_fault: Option<DbFault>,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new(cfg: DbConfig) -> Self {
        Database {
            cfg,
            tables: Vec::new(),
            pool: BufferPool::new(cfg.pool_pages, cfg.page_bytes),
            device: StorageDevice::new(cfg.device),
            txns: TxnManager::new(),
            pending_fault: None,
        }
    }

    /// Arms `fault` against the next [`Database::execute`] call. The fault
    /// is consumed by that call whether or not the statement would have
    /// succeeded; injecting twice before executing keeps only the second.
    pub fn inject(&mut self, fault: DbFault) {
        self.pending_fault = Some(fault);
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// Creates a table and returns its id.
    pub fn create_table(&mut self, name: impl Into<String>, row_bytes: u64) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.tables
            .push(Table::new(name, row_bytes, self.cfg.page_bytes));
        id
    }

    /// Bulk-loads `count` rows with keys `start..start + count` without
    /// transaction overhead (initial database population).
    ///
    /// # Panics
    ///
    /// Panics if the table does not exist.
    pub fn bulk_load(&mut self, table: TableId, start: u64, count: u64) {
        let t = self
            .tables
            .get_mut(table.0 as usize)
            .expect("bulk_load: no such table");
        for k in start..start + count {
            t.insert(k);
        }
    }

    /// Rows currently in `table` (0 for unknown tables).
    #[must_use]
    pub fn row_count(&self, table: TableId) -> u64 {
        self.tables.get(table.0 as usize).map_or(0, Table::rows)
    }

    /// Opens a transaction.
    pub fn begin(&mut self) -> TxnId {
        self.txns.begin()
    }

    /// Commits a transaction.
    pub fn commit(&mut self, txn: TxnId) {
        self.txns.commit(txn);
    }

    /// Aborts a transaction.
    pub fn abort(&mut self, txn: TxnId) {
        self.txns.abort(txn);
    }

    /// Executes `query` within `txn` at simulated time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on unknown tables, lock conflicts (no-wait),
    /// duplicate inserts, or missing update keys.
    pub fn execute(
        &mut self,
        txn: TxnId,
        query: Query,
        now: SimTime,
    ) -> Result<WorkReport, DbError> {
        match self.pending_fault.take() {
            None => self.run_query(txn, query, now),
            Some(DbFault::LockTimeout) => {
                self.txns.note_timeout();
                Err(DbError::Timeout(query.table()))
            }
            Some(DbFault::IoStall) => {
                self.pool.set_stall_reads(true);
                let result = self.run_query(txn, query, now);
                self.pool.set_stall_reads(false);
                result
            }
        }
    }

    fn run_query(&mut self, txn: TxnId, query: Query, now: SimTime) -> Result<WorkReport, DbError> {
        let table_id = query.table();
        if table_id.0 as usize >= self.tables.len() {
            return Err(DbError::NoSuchTable(table_id));
        }
        let mut report = WorkReport {
            cpu_instructions: INSTR_STATEMENT_OVERHEAD,
            ..WorkReport::default()
        };
        match query {
            Query::SelectByKey { table, key } => {
                self.txns.lock(txn, table, key, LockMode::Shared)?;
                let (page, touched) = self.tables[table.0 as usize].find(key);
                report.cpu_instructions += f64::from(touched) * INSTR_PER_INDEX_NODE;
                if let Some(page) = page {
                    self.touch_page(table, page, now, &mut report);
                    report.rows = 1;
                    report.cpu_instructions += INSTR_PER_ROW;
                }
            }
            Query::RangeScan { table, lo, hi } => {
                // Range locks degenerate to locking the boundary keys in
                // this model.
                self.txns.lock(txn, table, lo, LockMode::Shared)?;
                let (pages, touched) = self.tables[table.0 as usize].find_range(lo, hi);
                report.cpu_instructions += f64::from(touched) * INSTR_PER_INDEX_NODE;
                report.rows = (hi.saturating_sub(lo).saturating_add(1))
                    .min(self.tables[table.0 as usize].rows());
                report.cpu_instructions += report.rows as f64 * INSTR_PER_ROW;
                for page in pages {
                    self.touch_page(table, page, now, &mut report);
                }
            }
            Query::Insert { table, key } => {
                self.txns.lock(txn, table, key, LockMode::Exclusive)?;
                let page = self.tables[table.0 as usize]
                    .insert(key)
                    .ok_or(DbError::DuplicateKey(key))?;
                report.cpu_instructions += 3.0 * INSTR_PER_INDEX_NODE + INSTR_PER_ROW * 2.0;
                self.touch_page(table, page, now, &mut report);
                report.rows = 1;
            }
            Query::Update { table, key } => {
                self.txns.lock(txn, table, key, LockMode::Exclusive)?;
                let (page, touched) = self.tables[table.0 as usize].find(key);
                report.cpu_instructions += f64::from(touched) * INSTR_PER_INDEX_NODE;
                let page = page.ok_or(DbError::NoSuchKey(key))?;
                self.touch_page(table, page, now, &mut report);
                report.rows = 1;
                report.cpu_instructions += INSTR_PER_ROW * 2.0;
            }
            Query::Delete { table, key } => {
                self.txns.lock(txn, table, key, LockMode::Exclusive)?;
                report.cpu_instructions += 3.0 * INSTR_PER_INDEX_NODE;
                if let Some(page) = self.tables[table.0 as usize].delete(key) {
                    self.touch_page(table, page, now, &mut report);
                    report.rows = 1;
                    report.cpu_instructions += INSTR_PER_ROW;
                }
            }
        }
        Ok(report)
    }

    fn touch_page(&mut self, table: TableId, page: u64, now: SimTime, report: &mut WorkReport) {
        let access = self.pool.touch(PageId {
            table: table.0,
            page,
        });
        report.slots_touched.push(access.slot_offset);
        if access.hit {
            report.pool_hits += 1;
            report.cpu_instructions += INSTR_PER_PAGE_HIT;
        } else {
            report.pool_misses += 1;
            report.cpu_instructions += INSTR_PER_PAGE_MISS;
            let done = self.device.submit(now);
            report.io_done = Some(report.io_done.map_or(done, |d| d.max(done)));
        }
    }

    /// Buffer-pool statistics.
    #[must_use]
    pub fn pool_stats(&self) -> crate::bufferpool::PoolStats {
        self.pool.stats()
    }

    /// Device statistics.
    #[must_use]
    pub fn device_stats(&self) -> crate::storage::DeviceStats {
        self.device.stats()
    }

    /// Transaction statistics.
    #[must_use]
    pub fn txn_stats(&self) -> TxnStats {
        self.txns.stats()
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for DbFault {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut tag: u64 = match self {
            DbFault::LockTimeout => 0,
            DbFault::IoStall => 1,
        };
        io.word(&mut tag);
        if !io.saving() {
            *self = if tag == 0 {
                DbFault::LockTimeout
            } else {
                DbFault::IoStall
            };
        }
    }
}

impl Persist for Database {
    // `cfg` is immutable config. Tables are created by the scenario's
    // schema setup before a restore overlays state, so the count is
    // already correct and they persist in place.
    // jas-lint: allow(D009, reason = "cfg is construction-time configuration")
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_slice(io, &mut self.tables);
        self.pool.persist(io);
        self.device.persist(io);
        self.txns.persist(io);
        snap::persist_opt(io, &mut self.pending_fault);
    }
}

impl Default for Query {
    fn default() -> Self {
        Query::SelectByKey {
            table: TableId(0),
            key: 0,
        }
    }
}

impl Persist for Query {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut tag: u64 = match self {
            Query::SelectByKey { .. } => 0,
            Query::RangeScan { .. } => 1,
            Query::Insert { .. } => 2,
            Query::Update { .. } => 3,
            Query::Delete { .. } => 4,
        };
        io.word(&mut tag);
        if !io.saving() {
            let t = TableId(0);
            *self = match tag {
                0 => Query::SelectByKey { table: t, key: 0 },
                1 => Query::RangeScan {
                    table: t,
                    lo: 0,
                    hi: 0,
                },
                2 => Query::Insert { table: t, key: 0 },
                3 => Query::Update { table: t, key: 0 },
                _ => Query::Delete { table: t, key: 0 },
            };
        }
        match self {
            Query::SelectByKey { table, key }
            | Query::Insert { table, key }
            | Query::Update { table, key }
            | Query::Delete { table, key } => {
                table.persist(io);
                key.persist(io);
            }
            Query::RangeScan { table, lo, hi } => {
                table.persist(io);
                lo.persist(io);
                hi.persist(io);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> (Database, TableId) {
        let mut d = Database::new(DbConfig::default());
        let t = d.create_table("orders", 256);
        d.bulk_load(t, 0, 10_000);
        (d, t)
    }

    #[test]
    fn select_finds_loaded_rows() {
        let (mut d, t) = db();
        let txn = d.begin();
        let r = d
            .execute(
                txn,
                Query::SelectByKey { table: t, key: 500 },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(r.rows, 1);
        assert!(r.cpu_instructions > 0.0);
        assert_eq!(r.slots_touched.len(), 1);
        d.commit(txn);
    }

    #[test]
    fn select_missing_key_returns_zero_rows() {
        let (mut d, t) = db();
        let txn = d.begin();
        let r = d
            .execute(
                txn,
                Query::SelectByKey {
                    table: t,
                    key: 999_999,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(r.rows, 0);
        d.commit(txn);
    }

    #[test]
    fn repeated_select_hits_buffer_pool() {
        let (mut d, t) = db();
        let txn = d.begin();
        let first = d
            .execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap();
        let second = d
            .execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(first.pool_misses, 1);
        assert_eq!(second.pool_hits, 1);
        assert!(second.io_done.is_none());
        d.commit(txn);
    }

    #[test]
    fn insert_then_select_round_trips() {
        let (mut d, t) = db();
        let txn = d.begin();
        d.execute(
            txn,
            Query::Insert {
                table: t,
                key: 123_456,
            },
            SimTime::ZERO,
        )
        .unwrap();
        let r = d
            .execute(
                txn,
                Query::SelectByKey {
                    table: t,
                    key: 123_456,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(r.rows, 1);
        d.commit(txn);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut d, t) = db();
        let txn = d.begin();
        let err = d
            .execute(txn, Query::Insert { table: t, key: 5 }, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, DbError::DuplicateKey(5));
        d.abort(txn);
    }

    #[test]
    fn update_missing_key_fails() {
        let (mut d, t) = db();
        let txn = d.begin();
        let err = d
            .execute(
                txn,
                Query::Update {
                    table: t,
                    key: 999_999,
                },
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, DbError::NoSuchKey(999_999));
        d.abort(txn);
    }

    #[test]
    fn conflicting_writers_detected() {
        let (mut d, t) = db();
        let a = d.begin();
        let b = d.begin();
        d.execute(a, Query::Update { table: t, key: 7 }, SimTime::ZERO)
            .unwrap();
        let err = d
            .execute(b, Query::Update { table: t, key: 7 }, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, DbError::Conflict(_)));
        d.commit(a);
        // After commit, b can proceed.
        assert!(d
            .execute(b, Query::Update { table: t, key: 7 }, SimTime::ZERO)
            .is_ok());
        d.commit(b);
    }

    #[test]
    fn range_scan_touches_multiple_pages() {
        let (mut d, t) = db();
        let txn = d.begin();
        let r = d
            .execute(
                txn,
                Query::RangeScan {
                    table: t,
                    lo: 0,
                    hi: 200,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert!(r.slots_touched.len() > 1);
        assert_eq!(r.rows, 201);
        d.commit(txn);
    }

    #[test]
    fn ram_disk_vs_hard_disk_io_latency() {
        let run = |device| {
            let mut d = Database::new(DbConfig {
                device,
                ..DbConfig::default()
            });
            let t = d.create_table("x", 256);
            d.bulk_load(t, 0, 100_000);
            let txn = d.begin();
            let mut worst = SimTime::ZERO;
            for k in (0..100_000u64).step_by(1000) {
                let r = d
                    .execute(txn, Query::SelectByKey { table: t, key: k }, SimTime::ZERO)
                    .unwrap();
                if let Some(done) = r.io_done {
                    worst = worst.max(done);
                }
            }
            d.commit(txn);
            worst
        };
        let ram = run(DeviceKind::RamDisk);
        let disk = run(DeviceKind::HardDisk { spindles: 2 });
        assert!(
            disk.as_nanos() > ram.as_nanos() * 20,
            "disk {disk} vs ram {ram}"
        );
    }

    #[test]
    fn delete_round_trips_and_tolerates_absence() {
        let (mut d, t) = db();
        let txn = d.begin();
        let r = d
            .execute(txn, Query::Delete { table: t, key: 7 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.rows, 1);
        // Deleted row no longer selectable.
        let r = d
            .execute(txn, Query::SelectByKey { table: t, key: 7 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.rows, 0);
        // SQL semantics: deleting an absent row succeeds with 0 rows.
        let r = d
            .execute(txn, Query::Delete { table: t, key: 7 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.rows, 0);
        d.commit(txn);
    }

    #[test]
    fn injected_lock_timeout_fails_exactly_one_statement() {
        let (mut d, t) = db();
        let txn = d.begin();
        d.inject(DbFault::LockTimeout);
        let err = d
            .execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, DbError::Timeout(t));
        assert_eq!(d.txn_stats().timeouts, 1);
        // The fault is consumed; the retry goes through.
        let r = d
            .execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.rows, 1);
        d.commit(txn);
    }

    #[test]
    fn injected_io_stall_degrades_one_statement_to_device_reads() {
        let (mut d, t) = db();
        let txn = d.begin();
        // Warm the page so a healthy re-read would hit.
        d.execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap();
        d.inject(DbFault::IoStall);
        let stalled = d
            .execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(stalled.pool_misses, 1, "stalled read is charged as a miss");
        assert!(stalled.io_done.is_some(), "device round trip charged");
        let healthy = d
            .execute(txn, Query::SelectByKey { table: t, key: 1 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(healthy.pool_hits, 1, "stall does not outlive its statement");
        d.commit(txn);
    }

    #[test]
    fn unknown_table_rejected() {
        let mut d = Database::new(DbConfig::default());
        let txn = d.begin();
        let err = d
            .execute(
                txn,
                Query::SelectByKey {
                    table: TableId(9),
                    key: 1,
                },
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, DbError::NoSuchTable(TableId(9)));
    }
}
