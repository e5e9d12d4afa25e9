//! The YCSB "core workload": a configurable mix of reads, updates, inserts,
//! scans and read-modify-writes over a synthetic record space.

use crate::generators::{
    CounterGenerator, DiscreteGenerator, LatestGenerator, RequestDistribution,
    ScrambledZipfianGenerator, UniformGenerator,
};
use concord_sim::SimRng;
use serde::{Deserialize, Serialize};

/// The type of a single client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperationType {
    /// Read one record.
    Read,
    /// Overwrite one field of an existing record.
    Update,
    /// Insert a new record.
    Insert,
    /// Read a contiguous range of records.
    Scan,
    /// Read one record, then write it back.
    ReadModifyWrite,
}

impl OperationType {
    /// Does this operation perform a write at the storage layer?
    pub fn is_write(self) -> bool {
        matches!(
            self,
            OperationType::Update | OperationType::Insert | OperationType::ReadModifyWrite
        )
    }
}

/// One generated client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadOp {
    /// The kind of operation.
    pub op: OperationType,
    /// The primary record the operation targets.
    pub key: u64,
    /// Number of records touched for scans (1 otherwise).
    pub scan_length: u32,
    /// Bytes read or written by the operation payload.
    pub value_size: u32,
}

/// Configuration of the core workload, mirroring YCSB's
/// `workloads/workload*` property files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of records loaded before the run.
    pub record_count: u64,
    /// Number of operations in the run phase.
    pub operation_count: u64,
    /// Proportion of reads (0..=1).
    pub read_proportion: f64,
    /// Proportion of updates.
    pub update_proportion: f64,
    /// Proportion of inserts.
    pub insert_proportion: f64,
    /// Proportion of scans.
    pub scan_proportion: f64,
    /// Proportion of read-modify-writes.
    pub read_modify_write_proportion: f64,
    /// Distribution of record popularity (`Zipfian` is YCSB's θ = 0.99).
    pub request_distribution: RequestDistribution,
    /// Number of fields per record.
    pub field_count: u32,
    /// Bytes per field.
    pub field_length: u32,
    /// Maximum scan length (uniformly chosen in `1..=max_scan_length`).
    pub max_scan_length: u32,
    /// When true updates write all fields; otherwise a single field.
    pub write_all_fields: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        // YCSB defaults: 1000-byte records (10 × 100 B), zipfian requests.
        WorkloadConfig {
            record_count: 1_000,
            operation_count: 1_000,
            read_proportion: 0.95,
            update_proportion: 0.05,
            insert_proportion: 0.0,
            scan_proportion: 0.0,
            read_modify_write_proportion: 0.0,
            request_distribution: RequestDistribution::Zipfian,
            field_count: 10,
            field_length: 100,
            max_scan_length: 100,
            write_all_fields: false,
        }
    }
}

impl WorkloadConfig {
    /// Total bytes of one full record.
    pub fn record_size(&self) -> u32 {
        self.field_count * self.field_length
    }

    /// Bytes an update writes: the whole record or one field.
    fn update_size(&self) -> u32 {
        if self.write_all_fields {
            self.record_size()
        } else {
            self.field_length
        }
    }

    /// Total size of the loaded data set in bytes.
    pub fn dataset_bytes(&self) -> u64 {
        self.record_count * self.record_size() as u64
    }

    /// Validate that the proportions form a sensible mix.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.read_modify_write_proportion;
        if !(0.999..=1.001).contains(&sum) {
            return Err(format!("operation proportions must sum to 1.0, got {sum}"));
        }
        if self.record_count == 0 {
            return Err("record_count must be positive".into());
        }
        if self.field_count == 0 || self.field_length == 0 {
            return Err("record fields must be non-empty".into());
        }
        // Value sizes are `u32` arithmetic, which wraps in release builds.
        if self.field_count.checked_mul(self.field_length).is_none() {
            return Err(format!(
                "record size field_count {} × field_length {} does not fit in u32",
                self.field_count, self.field_length
            ));
        }
        let (record, update) = (self.record_size(), self.update_size());
        if self.read_modify_write_proportion > 0.0 && record.checked_add(update).is_none() {
            return Err(format!(
                "a read-modify-write of record size {record} plus update size \
                 {update} does not fit in u32"
            ));
        }
        Ok(())
    }
}

/// The one dispatch over [`RequestDistribution`]: which generator draws the
/// key of a read, update, scan or read-modify-write.
enum KeyChooser {
    Uniform(UniformGenerator),
    Zipfian(ScrambledZipfianGenerator),
    Latest(LatestGenerator),
}

impl KeyChooser {
    fn new(distribution: RequestDistribution, record_count: u64) -> Self {
        match distribution {
            RequestDistribution::Uniform => {
                KeyChooser::Uniform(UniformGenerator::new(record_count))
            }
            RequestDistribution::Zipfian => {
                KeyChooser::Zipfian(ScrambledZipfianGenerator::new(record_count))
            }
            RequestDistribution::Latest => KeyChooser::Latest(LatestGenerator::new(record_count)),
        }
    }

    fn next(&mut self, rng: &mut SimRng) -> u64 {
        match self {
            KeyChooser::Uniform(g) => g.next(rng),
            KeyChooser::Zipfian(g) => g.next(rng),
            KeyChooser::Latest(g) => g.next(rng),
        }
    }

    fn grow(&mut self, new_count: u64) {
        match self {
            KeyChooser::Uniform(g) => g.set_item_count(new_count),
            KeyChooser::Zipfian(g) => g.set_item_count(new_count),
            KeyChooser::Latest(g) => g.record_insert(new_count - 1),
        }
    }
}

/// The runtime generator of client operations for a [`WorkloadConfig`].
///
/// Operations honor the **key-density contract** (see
/// [`generators`](crate::generators)): every produced record id is below the
/// current record count (which only grows, by one per insert), so the
/// cluster's direct-indexed per-key tables stay dense. The key choosers
/// assert the contract on every draw.
pub struct CoreWorkload {
    config: WorkloadConfig,
    op_chooser: DiscreteGenerator<OperationType>,
    key_chooser: KeyChooser,
    scan_len_chooser: UniformGenerator,
    insert_keys: CounterGenerator,
    record_count: u64,
    generated: u64,
}

impl CoreWorkload {
    /// Build the workload from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`WorkloadConfig::validate`].
    pub fn new(config: WorkloadConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid workload configuration: {e}");
        }
        let mut op_chooser = DiscreteGenerator::new();
        op_chooser
            .add(OperationType::Read, config.read_proportion)
            .add(OperationType::Update, config.update_proportion)
            .add(OperationType::Insert, config.insert_proportion)
            .add(OperationType::Scan, config.scan_proportion)
            .add(
                OperationType::ReadModifyWrite,
                config.read_modify_write_proportion,
            );

        let key_chooser = KeyChooser::new(config.request_distribution, config.record_count);
        let scan_len_chooser = UniformGenerator::new(config.max_scan_length.max(1) as u64);
        let insert_keys = CounterGenerator::new(config.record_count);
        let record_count = config.record_count;
        CoreWorkload {
            config,
            op_chooser,
            key_chooser,
            scan_len_chooser,
            insert_keys,
            record_count,
            generated: 0,
        }
    }

    /// The configuration this workload was built from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Number of operations generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Current number of records (grows with inserts).
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// True once `operation_count` operations have been generated.
    pub fn is_exhausted(&self) -> bool {
        self.generated >= self.config.operation_count
    }

    /// Pair the run phase's remaining operations with a **sorted** open-loop
    /// arrival schedule: yields `(arrival_time, op)` with non-decreasing
    /// times, the exact stream `Cluster::submit_batch` bulk-loads through
    /// the event queue's O(1) lane. Operation generation and arrival gaps
    /// draw from the same `rng` in a fixed interleaving (gap first, then
    /// op), so a fixed seed reproduces the identical timed stream.
    ///
    /// # Panics
    /// Panics if `process` is a closed loop: its arrivals are
    /// completion-driven and have no a-priori schedule.
    pub fn timed_ops<'a>(
        &'a mut self,
        process: crate::ArrivalProcess,
        start: concord_sim::SimTime,
        rng: &'a mut SimRng,
    ) -> TimedOps<'a> {
        assert!(
            process.concurrency().is_none(),
            "closed-loop arrivals are completion-driven; timed_ops needs an \
             open-loop process"
        );
        TimedOps {
            workload: self,
            process,
            at: start,
            rng,
        }
    }

    /// Generate the next operation of the run phase.
    pub fn next_op(&mut self, rng: &mut SimRng) -> WorkloadOp {
        self.generated += 1;
        let op = self.op_chooser.next(rng);
        match op {
            OperationType::Insert => {
                let key = self.insert_keys.allocate();
                self.record_count = key + 1;
                self.key_chooser.grow(self.record_count);
                WorkloadOp {
                    op,
                    key,
                    scan_length: 1,
                    value_size: self.config.record_size(),
                }
            }
            OperationType::Scan => {
                let key = self.next_existing_key(rng);
                let len = 1 + self.scan_len_chooser.next(rng) as u32;
                WorkloadOp {
                    op,
                    key,
                    scan_length: len.min(self.config.max_scan_length.max(1)),
                    value_size: self.config.record_size(),
                }
            }
            OperationType::Read => WorkloadOp {
                op,
                key: self.next_existing_key(rng),
                scan_length: 1,
                value_size: self.config.record_size(),
            },
            OperationType::Update => WorkloadOp {
                op,
                key: self.next_existing_key(rng),
                scan_length: 1,
                value_size: self.config.update_size(),
            },
            OperationType::ReadModifyWrite => WorkloadOp {
                op,
                key: self.next_existing_key(rng),
                scan_length: 1,
                value_size: self.config.record_size() + self.config.update_size(),
            },
        }
    }

    fn next_existing_key(&mut self, rng: &mut SimRng) -> u64 {
        // The chooser may briefly overshoot right after growth; clamp like
        // YCSB's `nextKeynum` loop does.
        loop {
            let k = self.key_chooser.next(rng);
            if k < self.record_count {
                return k;
            }
        }
    }
}

/// Iterator over `(sorted arrival time, operation)` pairs of an open-loop
/// run phase (see [`CoreWorkload::timed_ops`]).
pub struct TimedOps<'a> {
    workload: &'a mut CoreWorkload,
    process: crate::ArrivalProcess,
    at: concord_sim::SimTime,
    rng: &'a mut SimRng,
}

impl Iterator for TimedOps<'_> {
    type Item = (concord_sim::SimTime, WorkloadOp);

    fn next(&mut self) -> Option<Self::Item> {
        if self.workload.is_exhausted() {
            return None;
        }
        let at = self.process.next_arrival(&mut self.at, self.rng);
        let op = self.workload.next_op(self.rng);
        Some((at, op))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .workload
            .config
            .operation_count
            .saturating_sub(self.workload.generated);
        let n = usize::try_from(remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for TimedOps<'_> {}

impl std::fmt::Debug for CoreWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreWorkload")
            .field("config", &self.config)
            .field("generated", &self.generated)
            .field("record_count", &self.record_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_read_update() -> WorkloadConfig {
        WorkloadConfig {
            record_count: 10_000,
            operation_count: 50_000,
            read_proportion: 0.5,
            update_proportion: 0.5,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn proportions_are_respected() {
        let mut w = CoreWorkload::new(heavy_read_update());
        let mut rng = SimRng::new(1);
        let n = 50_000;
        let mut reads = 0;
        for _ in 0..n {
            if w.next_op(&mut rng).op == OperationType::Read {
                reads += 1;
            }
        }
        let share = reads as f64 / n as f64;
        assert!((share - 0.5).abs() < 0.02, "read share={share}");
        assert!(w.is_exhausted());
    }

    #[test]
    fn keys_stay_in_record_space() {
        let mut w = CoreWorkload::new(heavy_read_update());
        let mut rng = SimRng::new(2);
        for _ in 0..20_000 {
            let op = w.next_op(&mut rng);
            assert!(op.key < w.record_count());
        }
    }

    #[test]
    fn inserts_extend_the_key_space() {
        let cfg = WorkloadConfig {
            record_count: 100,
            operation_count: 1_000,
            read_proportion: 0.5,
            update_proportion: 0.0,
            insert_proportion: 0.5,
            request_distribution: RequestDistribution::Latest,
            ..WorkloadConfig::default()
        };
        let mut w = CoreWorkload::new(cfg);
        let mut rng = SimRng::new(3);
        let mut max_insert_key = 0;
        for _ in 0..1_000 {
            let op = w.next_op(&mut rng);
            if op.op == OperationType::Insert {
                assert!(op.key >= 100, "inserts allocate new keys");
                max_insert_key = max_insert_key.max(op.key);
            }
        }
        assert!(w.record_count() > 100);
        assert_eq!(w.record_count(), max_insert_key + 1);
    }

    #[test]
    fn scan_lengths_respect_bound() {
        let cfg = WorkloadConfig {
            record_count: 1_000,
            operation_count: 10_000,
            read_proportion: 0.0,
            update_proportion: 0.0,
            scan_proportion: 1.0,
            max_scan_length: 50,
            ..WorkloadConfig::default()
        };
        let mut w = CoreWorkload::new(cfg);
        let mut rng = SimRng::new(4);
        for _ in 0..5_000 {
            let op = w.next_op(&mut rng);
            assert_eq!(op.op, OperationType::Scan);
            assert!((1..=50).contains(&op.scan_length));
        }
    }

    #[test]
    fn update_payload_depends_on_write_all_fields() {
        let mut cfg = heavy_read_update();
        cfg.write_all_fields = false;
        let mut w = CoreWorkload::new(cfg.clone());
        let mut rng = SimRng::new(5);
        let update = std::iter::from_fn(|| Some(w.next_op(&mut rng)))
            .find(|o| o.op == OperationType::Update)
            .unwrap();
        assert_eq!(update.value_size, cfg.field_length);

        cfg.write_all_fields = true;
        let mut w = CoreWorkload::new(cfg.clone());
        let update = std::iter::from_fn(|| Some(w.next_op(&mut rng)))
            .find(|o| o.op == OperationType::Update)
            .unwrap();
        assert_eq!(update.value_size, cfg.record_size());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = WorkloadConfig {
            read_proportion: 0.5,
            update_proportion: 0.1,
            ..WorkloadConfig::default()
        };
        assert!(bad.validate().is_err());

        let bad = WorkloadConfig {
            record_count: 0,
            ..WorkloadConfig::default()
        };
        assert!(bad.validate().is_err());

        assert!(WorkloadConfig::default().validate().is_ok());
    }

    #[test]
    fn a_record_size_past_u32_is_rejected() {
        // 5 × 10^9 wraps to 705 032 704 in a release build's `u32`.
        let wraps = WorkloadConfig {
            field_count: 5,
            field_length: 1_000_000_000,
            ..WorkloadConfig::default()
        };
        let err = wraps.validate().unwrap_err();
        assert!(
            err.contains("field_count 5") && err.contains("field_length 1000000000"),
            "{err}"
        );
        let fits = WorkloadConfig {
            field_count: 4,
            ..wraps
        };
        assert_eq!(fits.validate(), Ok(()));
        assert_eq!(fits.record_size(), 4_000_000_000);
        // A read-modify-write sends the record plus the update.
        let rmw = WorkloadConfig {
            read_proportion: 0.5,
            update_proportion: 0.0,
            read_modify_write_proportion: 0.5,
            ..fits
        };
        let err = rmw.validate().unwrap_err();
        assert!(
            err.contains("4000000000 plus update size 1000000000"),
            "{err}"
        );
    }

    #[test]
    fn dataset_size_and_fractions() {
        let cfg = heavy_read_update();
        assert_eq!(cfg.record_size(), 1_000);
        assert_eq!(cfg.dataset_bytes(), 10_000_000);
    }

    #[test]
    fn op_type_classification() {
        assert!(OperationType::Update.is_write());
        assert!(OperationType::Insert.is_write());
        assert!(!OperationType::Read.is_write());
        assert!(OperationType::ReadModifyWrite.is_write());
        assert!(!OperationType::Scan.is_write());
    }

    #[test]
    fn timed_ops_yield_sorted_times_until_exhaustion() {
        for process in [
            crate::ArrivalProcess::OpenLoopPoisson { ops_per_sec: 800.0 },
            crate::ArrivalProcess::OpenLoopUniform { ops_per_sec: 800.0 },
        ] {
            let mut w = CoreWorkload::new(WorkloadConfig {
                record_count: 1_000,
                operation_count: 2_500,
                read_proportion: 0.5,
                update_proportion: 0.5,
                ..WorkloadConfig::default()
            });
            let mut rng = SimRng::new(12);
            let start = concord_sim::SimTime::from_millis(5);
            let stream = w.timed_ops(process, start, &mut rng);
            assert_eq!(stream.len(), 2_500, "the stream is exact-sized");
            let timed: Vec<_> = stream.collect();
            assert_eq!(timed.len(), 2_500);
            assert!(w.is_exhausted());
            assert!(timed[0].0 >= start);
            assert!(
                timed.windows(2).all(|p| p[0].0 <= p[1].0),
                "timed op stream must be sorted by arrival time"
            );
            assert!(timed.iter().all(|(_, op)| op.key < 1_000));
        }
    }

    #[test]
    #[should_panic(expected = "open-loop")]
    fn timed_ops_reject_closed_loops() {
        let mut w = CoreWorkload::new(WorkloadConfig::default());
        let mut rng = SimRng::new(1);
        let _ = w.timed_ops(
            crate::ArrivalProcess::closed(4),
            concord_sim::SimTime::ZERO,
            &mut rng,
        );
    }

    #[test]
    fn every_request_distribution_works_end_to_end() {
        for dist in [
            RequestDistribution::Uniform,
            RequestDistribution::Zipfian,
            RequestDistribution::Latest,
        ] {
            let cfg = WorkloadConfig {
                request_distribution: dist,
                record_count: 1_000,
                operation_count: 5_000,
                ..heavy_read_update()
            };
            let mut w = CoreWorkload::new(cfg);
            let mut rng = SimRng::new(6);
            for _ in 0..5_000 {
                assert!(w.next_op(&mut rng).key < 1_000);
            }
        }
    }
}
