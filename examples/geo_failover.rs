//! Failure injection on a geo-replicated deployment: take a replica node
//! down in the middle of a run and watch how the different consistency
//! levels react (ALL times out, QUORUM and ONE keep serving), using the
//! lower-level cluster API directly.
//!
//! Run with:
//! ```text
//! cargo run --release --example geo_failover
//! ```

use concord::prelude::*;
use concord_cluster::OpStatus;

/// Drive `ops` alternating write/read operations against a fresh cluster at
/// the given read level, taking one replica of the hot key down halfway
/// through, and report (completed, timeouts, stale reads).
fn run_with_failure(read_level: ConsistencyLevel, ops: u64) -> (u64, u64, u64) {
    let platform = concord::platforms::grid5000_cost(0.2);
    let mut cluster = Cluster::new(platform.cluster.clone(), 99);
    cluster.load_records((0..100u64).map(|k| (k, 1_000)));
    cluster.set_levels(read_level, ConsistencyLevel::One);

    // Alternate writes and reads over a small hot set.
    let mut at = SimTime::ZERO;
    for i in 0..ops {
        at += SimDuration::from_micros(400);
        if i % 2 == 0 {
            cluster.submit_write_at((i / 2) % 10, 1_000, at);
        } else {
            cluster.submit_read_at((i / 2) % 10, at);
        }
        if i == ops / 2 {
            // Fail one replica of key 0 mid-run, at the halfway arrival.
            let victim = cluster.replicas_of(0)[1];
            cluster.schedule_fault(at, FaultAction::NodeDown(victim.0));
        }
    }

    let done = cluster.run_to_completion(u64::MAX);
    let timeouts = done
        .iter()
        .filter(|op| op.status == OpStatus::Timeout)
        .count();
    let stale = done.iter().filter(|op| op.stale).count();
    (done.len() as u64, timeouts as u64, stale as u64)
}

fn main() {
    println!(
        "{:<12} {:>10} {:>10} {:>12}",
        "read level", "completed", "timeouts", "stale reads"
    );
    for level in [
        ConsistencyLevel::One,
        ConsistencyLevel::Quorum,
        ConsistencyLevel::All,
    ] {
        let (completed, timeouts, stale) = run_with_failure(level, 4_000);
        println!(
            "{:<12} {:>10} {:>10} {:>12}",
            level.to_string(),
            completed,
            timeouts,
            stale
        );
    }
    println!(
        "\nWith a replica down, ALL can no longer assemble every response and times out;\n\
         QUORUM keeps serving consistently; ONE keeps serving but returns more stale data.\n\
         This is the availability-consistency trade-off that motivates adaptive tuning."
    );
}
