//! The resilience layer: health-aware replica selection behind per-node
//! circuit breakers, hedged reads, and retry backoff.
//!
//! Every part is off by default and then adds zero events and zero RNG
//! draws: health state is read or written only under
//! [`ReplicaSelection::Dynamic`], a hedge trigger is scheduled only when
//! `ResilienceConfig::hedging_enabled`, and the backoff jitter is drawn only
//! for a backed-off retry.
//!
//! **State.** One [`NodeHealth`] per replica in every shard
//! (`ShardState::health`): an EWMA of the latency excess this shard's
//! coordinators observed, the consecutive timeout strikes, and the
//! [`Breaker`]. A shard only sees responses to reads it coordinates, so the
//! state needs no cross-shard synchronization.
//!
//! **Events.** [`Event::HedgeFire`](super::Event::HedgeFire), handled by
//! [`ShardCtx::on_hedge_fire`]. The rest hooks into the read path of
//! `ops.rs`: replica selection ranks through [`ShardCtx::rank_by_health`],
//! `on_read_response` feeds [`ShardCtx::observe_response`] and `on_timeout`
//! feeds [`ShardCtx::strike_contacted`]; whichever engine path re-issues a
//! timed-out attempt draws its wait from [`backoff_delay`].

use super::engine::ShardCtx;
use super::ops::{pack_node, ReplicaTask};
use super::{OpState, ReplicaSelection};
use crate::config::{ClusterConfig, ResilienceConfig};
use crate::types::OpId;
use concord_monitor::Ewma;
use concord_sim::{NodeId, SimDuration, SimRng, SimTime};

/// Circuit-breaker state of one replica as seen by coordinators of one
/// shard (part of [`NodeHealth`]; [`ReplicaSelection::Dynamic`] only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    /// Healthy: the replica is ranked by its latency EWMA.
    Closed,
    /// Tripped after `BREAKER_FAILURES` consecutive timeout strikes: the
    /// replica is ranked last until the cooldown expires.
    Open { until: SimTime },
    /// Cooldown expired: one probe read is allowed through; a response
    /// closes the breaker, another strike reopens it.
    HalfOpen,
}

/// Coordinator-side health bookkeeping for one replica, maintained per
/// shard (coordinator-homed: a shard only observes responses to reads it
/// coordinates, so the state needs no cross-shard synchronization). Only
/// read or written when the cluster's selection is
/// [`ReplicaSelection::Dynamic`] — otherwise it stays untouched, adding
/// zero RNG draws and zero events.
#[derive(Debug, Clone, Copy)]
pub(super) struct NodeHealth {
    /// EWMA of the observed latency **excess** over the expected round trip
    /// to the replica, in microseconds. Subtracting the static distance
    /// before averaging keeps observations from near and far coordinators
    /// comparable — a node-global mean of raw response latencies would let
    /// remote observers poison a replica's score for its neighbours.
    ewma: Ewma,
    /// Consecutive timeout strikes since the last response.
    failures: u32,
    breaker: Breaker,
}

impl NodeHealth {
    pub(super) fn new() -> Self {
        NodeHealth {
            ewma: Ewma::new(ResilienceConfig::HEALTH_ALPHA),
            failures: 0,
            breaker: Breaker::Closed,
        }
    }

    /// The [`ReplicaSelection::Dynamic`] rank key (lower is better) of this
    /// replica for a coordinator `mean_lat_ms` away: the distance prior
    /// (expected round trip, ms → µs) plus the observed excess, so an
    /// unmeasured node ranks purely by distance, exactly like `Closest`. An
    /// open breaker ranks behind every healthy candidate but stays
    /// eligible as the choice of last resort.
    fn score(&self, mean_lat_ms: f64) -> f64 {
        let base = 2.0 * mean_lat_ms * 1_000.0 + self.ewma.value_or(0.0);
        if matches!(self.breaker, Breaker::Open { .. }) {
            base + 1e12
        } else {
            base
        }
    }
}

/// Exponential retry backoff with deterministic RNG-drawn jitter: the
/// nominal delay doubles per retry consumed of the configured budget
/// (`base`, `2·base`, `4·base`, …) up to the cap, then a full-jitter-style
/// multiplier in `[0.5, 1.5)` is drawn from the one shard's stream (retries
/// need the one-shard engine). The draw happens on every backoff retry and
/// only then — backoff off means zero extra draws.
pub(super) fn backoff_delay(
    config: &ClusterConfig,
    retries_left: u32,
    rng: &mut SimRng,
) -> SimDuration {
    let base = ResilienceConfig::BACKOFF_BASE.as_micros();
    let cap = ResilienceConfig::BACKOFF_CAP.as_micros();
    // First re-issue has consumed 1 retry → exponent 0 → nominal = base.
    let consumed = config.retry_on_timeout.saturating_sub(retries_left).max(1);
    let exp = (consumed - 1).min(20);
    let nominal = base.saturating_mul(1u64 << exp).min(cap);
    let jitter = 0.5 + rng.next_f64();
    SimDuration::from_micros(((nominal as f64 * jitter).round() as u64).max(1))
}

impl ShardCtx<'_> {
    /// Fire a hedged read: if the attempt is still pending and has not
    /// hedged, send one speculative **digest** request to the best replica
    /// the read has not contacted yet (digest, so coverage and records are
    /// never double-counted). Ranking is deterministic — health score under
    /// [`ReplicaSelection::Dynamic`], the mean-latency table otherwise —
    /// with node id breaking ties; no RNG is drawn for the choice. The
    /// request's bytes land in `hedge_traffic` and, like repair traffic, in
    /// the plain `traffic` meter, so the bill prices tail-tolerance traffic
    /// like any other transfer. A losing hedge response is reaped by
    /// the slab generation check exactly like any straggler: the winning
    /// response removes the op's slot, so there is no double completion and
    /// no leak.
    pub(super) fn on_hedge_fire(&mut self, now: SimTime, op_id: OpId) {
        let (coordinator, key, contacted) = match self.s.ops.get(op_id) {
            Some(OpState::Read(r)) if r.hedge.is_none() && r.seg_pending > 0 && r.scan_len <= 1 => {
                (r.coordinator, r.key, r.contacted.clone())
            }
            _ => return,
        };
        let mut replicas = std::mem::take(&mut self.s.replica_scratch);
        self.shared.ring.replicas_into(key, &mut replicas);
        let (shared, health) = (self.shared, &self.s.health);
        let row = shared.mean_lat_row(coordinator);
        let rank = |n: &NodeId| match shared.config.read_selection {
            ReplicaSelection::Dynamic => health[n.0 as usize].score(row[n.0 as usize]),
            _ => row[n.0 as usize],
        };
        let target = replicas
            .iter()
            .filter(|&&n| {
                !contacted.iter().any(|&c| c == n)
                    && !shared.faults.is_down(n)
                    && shared.faults.link_up(coordinator, n)
            })
            .min_by(|a, b| {
                let by_rank = rank(a).partial_cmp(&rank(b)).expect("ranks are finite");
                by_rank.then(a.0.cmp(&b.0))
            })
            .copied();
        self.s.replica_scratch = replicas;
        let Some(target) = target else {
            return; // every replica is contacted, down or unreachable
        };
        self.s.metrics.hedged_requests += 1;
        let bytes = ClusterConfig::SMALL_MESSAGE_BYTES;
        let (class, total) = self.shared.wire(coordinator, target, bytes);
        self.s.metrics.hedge_traffic.add(class, total);
        let delay = self.account_message(coordinator, target, bytes);
        let task = ReplicaTask::Read {
            op_id,
            key,
            data: false,
            len: 1,
            segment: 0,
            coordinator: pack_node(coordinator),
            load_owner: self.shared.on_load_ring,
        };
        self.send_read(now + delay, target, task);
        if let Some(OpState::Read(r)) = self.s.ops.get_mut(op_id) {
            r.hedge = Some(target);
            // The hedge target is a contacted replica from here on: its
            // response counts toward the quorum and read repair covers it.
            r.contacted.push(target);
            self.s.metrics.read_replicas_contacted += 1;
        }
    }

    /// Order a read's candidate replicas (already shuffled, so equal scores
    /// tie-break randomly) by [`NodeHealth::score`]: the coordinator-side
    /// EWMA of observed response latency on top of the static distance
    /// (which alone ranks nodes that have not answered yet), a node whose
    /// circuit breaker is open behind every healthy candidate. An open
    /// breaker whose cooldown has elapsed transitions to half-open here —
    /// the next read that still picks it is the timed probe: one success
    /// closes the breaker, one timeout re-opens it.
    pub(super) fn rank_by_health(
        &mut self,
        now: SimTime,
        coordinator: NodeId,
        candidates: &mut [NodeId],
    ) {
        let health = &mut self.s.health;
        for &n in candidates.iter() {
            let h = &mut health[n.0 as usize];
            if matches!(h.breaker, Breaker::Open { until } if until <= now) {
                h.breaker = Breaker::HalfOpen;
            }
        }
        let row = self.shared.mean_lat_row(coordinator);
        let score = |n: &NodeId| health[n.0 as usize].score(row[n.0 as usize]);
        candidates.sort_by(|a, b| {
            score(a)
                .partial_cmp(&score(b))
                .expect("health scores are finite")
        });
    }

    /// Health feed (Dynamic selection only, so Closest/Random runs touch no
    /// health state and stay byte-identical): every response that passes
    /// the generation check updates the responder's latency EWMA and closes
    /// its breaker — a response is proof the node serves again.
    pub(super) fn observe_response(&mut self, now: SimTime, op_id: OpId, from: NodeId) {
        if self.shared.config.read_selection != ReplicaSelection::Dynamic {
            return;
        }
        let Some(OpState::Read(r)) = self.s.ops.get(op_id) else {
            return;
        };
        // A hedge response is timed from the hedge fire
        // (`attempt_at + hedge_delay`), not the attempt start, so the hedge
        // target is not charged for the wait on the primary replica.
        let base = if r.hedge == Some(from) {
            r.attempt_at + self.shared.config.resilience.hedge_delay
        } else {
            r.attempt_at
        };
        // Distance-normalize before averaging: subtract the expected round
        // trip (ms → µs) so the EWMA measures excess (queueing, gray
        // slowness) and observations from near and far coordinators feed
        // one comparable per-node signal.
        let expected = 2.0 * self.shared.mean_lat_row(r.coordinator)[from.0 as usize] * 1_000.0;
        let excess = ((now - base).as_micros() as f64 - expected).max(0.0);
        let h = &mut self.s.health[from.0 as usize];
        h.ewma.observe(excess);
        h.failures = 0;
        h.breaker = Breaker::Closed;
    }

    /// Breaker strikes (Dynamic selection only): a read attempt timing out
    /// is a failure strike against every replica it contacted —
    /// `BREAKER_FAILURES` consecutive strikes open a node's breaker for
    /// `BREAKER_COOLDOWN`, steering subsequent reads away until the
    /// half-open probe succeeds. A node that does answer has its strike
    /// count reset on every response, so only persistently silent replicas
    /// accumulate to the threshold. Writes are excluded: a write timeout
    /// implicates the consistency level, not a single replica.
    pub(super) fn strike_contacted(&mut self, now: SimTime, op_id: OpId) {
        if self.shared.config.read_selection != ReplicaSelection::Dynamic {
            return;
        }
        let s = &mut *self.s;
        let Some(OpState::Read(r)) = s.ops.get(op_id) else {
            return;
        };
        for &n in r.contacted.iter() {
            let h = &mut s.health[n.0 as usize];
            h.failures += 1;
            if h.failures >= ResilienceConfig::BREAKER_FAILURES
                && matches!(h.breaker, Breaker::Closed | Breaker::HalfOpen)
            {
                h.breaker = Breaker::Open {
                    until: now + ResilienceConfig::BREAKER_COOLDOWN,
                };
                s.metrics.breaker_opens += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{BatchOp, Cluster, FaultAction};
    use super::*;
    use crate::consistency::ConsistencyLevel;
    use crate::types::OpStatus;

    #[test]
    fn resilience_off_runs_are_byte_identical_to_the_seed_path() {
        // The whole resilience layer off (the default) must add zero events
        // and zero RNG draws even under gray faults: only service/response
        // delays of the slowed node change, nothing else in the stream.
        let run = |resilience_off_twice: bool| {
            let cfg = ClusterConfig::lan_test(5, 3);
            assert!(!cfg.resilience.hedging_enabled());
            assert!(!cfg.resilience.backoff);
            // Construct-drop a second identical config to prove the literal
            // has no hidden state; the run itself is what must be stable.
            if resilience_off_twice {
                let _ = ClusterConfig::lan_test(5, 3);
            }
            let mut c = Cluster::new(cfg, 11);
            c.load_records((0..10u64).map(|k| (k, 100)));
            c.inject(FaultAction::SlowNode(0, 4.0));
            for i in 0..100u64 {
                c.submit_read_at(i % 10, SimTime::from_millis(i));
            }
            drain(&mut c)
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b);
    }

    #[test]
    fn hedged_reads_complete_once_and_do_not_leak() {
        // Hedge aggressively (the timer fires long before any response can
        // arrive): every point read sends one speculative duplicate, yet
        // each op completes exactly once and the slab fully drains — the
        // losing response is reaped by the generation check.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.resilience.hedge_delay = SimDuration::from_micros(50);
        let mut c = Cluster::new(cfg, 31);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let mut submitted = Vec::new();
        for i in 0..200u64 {
            submitted.push(c.submit_read_at(i % 10, SimTime::from_millis(i)));
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 200, "every read completes exactly once");
        let mut completed: Vec<OpId> = done.iter().map(|o| o.id).collect();
        completed.sort();
        submitted.sort();
        assert_eq!(completed, submitted);
        let m = c.metrics();
        assert!(
            m.hedged_requests >= 150,
            "an aggressive hedge_delay must hedge nearly every read, got {}",
            m.hedged_requests
        );
        assert!(m.hedge_wins <= m.hedged_requests);
        assert!(
            m.hedge_traffic.total() > 0,
            "hedge bytes must be metered separately"
        );
        assert!(
            m.traffic.total() >= m.hedge_traffic.total(),
            "hedge bytes are part of the billable total"
        );
        assert_eq!(c.inflight_ops(), 0, "hedged ops must not leak slab slots");
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn hedging_survives_a_crash_during_the_hedge_window() {
        // The hedge target (or the original replica) dies while both
        // requests are in flight: completions stay exactly-once and nothing
        // leaks. Exercises the straggler-reap path under faults.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.resilience.hedge_delay = SimDuration::from_micros(50);
        cfg.op_timeout = SimDuration::from_millis(50);
        let mut c = Cluster::new(cfg, 37);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let mut submitted = Vec::new();
        for i in 0..100u64 {
            submitted.push(c.submit_read_at(i % 10, SimTime::from_micros(i * 20)));
        }
        // Take a replica down mid-flight, then bring it back.
        c.schedule_fault(SimTime::from_micros(300), FaultAction::NodeDown(1));
        c.schedule_fault(SimTime::from_millis(5), FaultAction::NodeUp(1));
        let done = drain(&mut c);
        assert_eq!(done.len(), 100, "every read completes exactly once");
        let mut completed: Vec<OpId> = done.iter().map(|o| o.id).collect();
        completed.sort();
        submitted.sort();
        assert_eq!(completed, submitted);
        assert_eq!(c.inflight_ops(), 0, "crash-during-hedge must not leak");
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn backoff_spaces_retries_and_accounts_them() {
        // Same transient fault, backoff off vs on: both complete every op,
        // but backoff stretches the retry schedule (latency of exhausted
        // ops grows by the summed delays) and counts each backed-off
        // re-issue.
        let run = |backoff: bool| {
            let mut cfg = ClusterConfig::lan_test(4, 3);
            cfg.op_timeout = SimDuration::from_millis(50);
            cfg.retry_on_timeout = 2;
            cfg.resilience.backoff = backoff;
            let mut c = Cluster::new(cfg, 5);
            c.load_records((0..10u64).map(|k| (k, 100)));
            c.inject(FaultAction::NodeDown(1));
            for i in 0..30u64 {
                c.submit(
                    BatchOp::write(SimTime::from_millis(i), i % 10, 100)
                        .with_level(ConsistencyLevel::All),
                );
            }
            let done = drain(&mut c);
            assert_eq!(done.len(), 30, "every op completes exactly once");
            assert_eq!(c.inflight_ops(), 0);
            let max_latency = done.iter().map(|o| o.latency()).max().unwrap();
            (
                c.metrics().retries,
                c.metrics().backoff_retries,
                max_latency,
            )
        };
        let (retries_off, backoff_off, latency_off) = run(false);
        let (retries_on, backoff_on, latency_on) = run(true);
        assert!(retries_off > 0 && retries_on > 0);
        assert_eq!(backoff_off, 0, "backoff counter must stay 0 when off");
        assert_eq!(
            backoff_on, retries_on,
            "with backoff on, every re-issue is a backed-off re-issue"
        );
        // An exhausted op waited out two backoffs, nominally `base` and
        // `2·base`, each jittered by a factor in [0.5, 1.5).
        let base = ResilienceConfig::BACKOFF_BASE.as_micros();
        let stretch = (latency_on - latency_off).as_micros();
        assert!(
            (3 * base / 2..9 * base / 2 + 2).contains(&stretch),
            "backoff must stretch the retry schedule by 1.5-4.5x its base \
             ({latency_off:?} -> {latency_on:?})"
        );
    }

    #[test]
    fn a_backed_off_retry_reports_the_submitted_id() {
        // A backed-off retry waits in the slab as a pending op under a slab
        // id of its own, yet completes under the ticket `submit` returned.
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.op_timeout = SimDuration::from_millis(50);
        cfg.retry_on_timeout = 2;
        cfg.resilience.backoff = true;
        let mut c = Cluster::new(cfg, 5);
        c.load_records((0..10u64).map(|k| (k, 100)));
        c.inject(FaultAction::NodeDown(1));
        let mut submitted: Vec<OpId> = (0..10u64)
            .map(|i| {
                let op = BatchOp::write(SimTime::from_millis(i), i, 100);
                c.submit(op.with_level(ConsistencyLevel::All))
            })
            .collect();
        let done = drain(&mut c);
        assert!(c.metrics().backoff_retries > 0);
        let mut completed: Vec<OpId> = done.iter().map(|o| o.id).collect();
        completed.sort();
        submitted.sort();
        assert_eq!(completed, submitted);
        assert_eq!(c.check_drained(), Ok(()));
    }

    #[test]
    fn dynamic_selection_steers_reads_away_from_a_slow_replica() {
        // One replica 50x slow. Closest (static table; LAN peers are
        // equidistant, so the shuffle picks the slow node ~rf^-1 of the
        // time) keeps paying the gray tax; Dynamic learns the slow node's
        // observed latency and routes around it.
        let run = |selection: ReplicaSelection| {
            let mut cfg = ClusterConfig::lan_test(5, 3);
            cfg.read_selection = selection;
            let mut c = Cluster::new(cfg, 43);
            c.load_records((0..4u64).map(|k| (k, 100)));
            let victim = c.replicas_of(0)[0];
            c.inject(FaultAction::SlowNode(victim.0, 50.0));
            for i in 0..400u64 {
                c.submit_read_at(0, SimTime::from_millis(i));
            }
            let done = drain(&mut c);
            assert!(done.iter().all(|o| o.status == OpStatus::Ok));
            c.metrics().read_latency.mean_ms()
        };
        let closest = run(ReplicaSelection::Closest);
        let dynamic = run(ReplicaSelection::Dynamic);
        assert!(
            dynamic < closest * 0.5,
            "dynamic selection must dodge the slow replica \
             (closest {closest} ms vs dynamic {dynamic} ms)"
        );
    }

    #[test]
    fn breaker_opens_on_silent_replicas_and_reads_recover() {
        // A down replica never answers: every timed-out attempt strikes it,
        // the breaker opens (and is counted), and subsequent reads rank the
        // node last so they stop wasting attempts on it.
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.read_selection = ReplicaSelection::Dynamic;
        cfg.op_timeout = SimDuration::from_millis(20);
        cfg.retry_on_timeout = 3;
        let mut c = Cluster::new(cfg, 47);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(0)[0];
        c.inject(FaultAction::NodeDown(victim.0));
        for i in 0..60u64 {
            c.submit_read_at(0, SimTime::from_millis(i * 30));
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 60);
        assert!(
            c.metrics().breaker_opens >= 1,
            "consecutive timeout strikes must trip the breaker"
        );
        let ok = done.iter().filter(|o| o.status == OpStatus::Ok).count();
        assert!(
            ok > 50,
            "with the breaker open, reads route to live replicas ({ok}/60 ok)"
        );
        assert_eq!(c.inflight_ops(), 0);
    }
}
