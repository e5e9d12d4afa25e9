//! EXP-F — adaptive consistency under deterministic fault injection.
//!
//! The paper's evaluation runs every policy on a healthy cluster; this
//! experiment drives the same policy set through a scripted outage on the
//! two-site Grid'5000-like platform, under a fixed **open-loop offered
//! load** (so the load does not politely back off when the cluster degrades,
//! the way a closed loop does):
//!
//! 1. a node crashes (ring reconfigures onto the survivors) and later
//!    recovers;
//! 2. another node goes down transiently — it stays in the ring, so writes
//!    keep fanning out to it (hinted handoff's use case) — then comes back;
//! 3. the two sites partition (cross-site messages are lost) and later heal;
//! 4. the inter-site link degrades 8× (WAN brown-out) and later restores.
//!
//! Timed-out operations get one retry (`retry_on_timeout = 1`), so the
//! report's `retries` column shows the extra work the faults induce.
//!
//! The run is a standard [`run_sweep`] grid — policies × seeds, every point
//! its own cluster — executed once on the `--threads` pool. Fault scripts
//! are part of the deterministic scenario, not a source of nondeterminism,
//! so the whole stdout (sweep and gray-failure leg) is a function of the
//! flags other than `--threads`: CI runs each smoke at `--threads 1` and
//! `--threads 2` and compares the outputs byte for byte, as it does for the
//! other paper binaries. The fault script is timed against the binary's own
//! open-loop schedule, so `--arrival` is refused; every other flag applies.
//!
//! `--repair hints|anti-entropy|full` turns on the repair plane for every
//! point: the crash/recover leg then exercises hinted handoff and recovery
//! migration, and the report grows hint/streaming columns plus the repair
//! bytes the bill prices.
//!
//! `--hedge <ms>` / `--selection dynamic` / `--backoff` turn on the
//! resilience layer for every point, and the report grows hedge/backoff/
//! breaker columns.
//!
//! After the sweep, a **gray-failure leg** runs the same platform through a
//! scenario whose only fault is one node serving 10× slow mid-run (a gray
//! failure: the node answers, just slowly, so nothing marks it down) —
//! once with the resilience layer off and once with hedged reads (2 ms),
//! health-aware dynamic selection and retry backoff. The leg asserts
//! hedging measurably cuts the read p99 and prints a greppable
//! `HEDGE_DATAPOINT` line with both tails and the hedge traffic billed.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_faults -- --seeds 2 --threads 1  # PR smoke
//! cargo run --release -p concord-bench --bin exp_faults -- --repair full --seeds 2
//! cargo run --release -p concord-bench --bin exp_faults -- --hedge 20 --selection dynamic --backoff --seeds 2
//! cargo run --release -p concord-bench --bin exp_faults -- --scale 1.0 --seeds 8  # nightly
//! ```

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::{render_summary_table, run_sweep, slim, Harness};
use concord_sim::LinkClass;

fn main() {
    let harness = Harness::from_env();
    // The fault script's offsets are derived from this binary's own 20 s
    // open-loop span; an arrival override would desynchronize them.
    harness.reject(&["--arrival"], "the fault script is timed to its own load");

    let mut platform = harness.preset(platforms::grid5000_harmony, platforms::ec2_harmony);
    // Fault runs need timeouts that fire inside the outage windows, plus one
    // retry so the report separates "slow" from "failed".
    platform.cluster.op_timeout = SimDuration::from_secs(1);
    platform.cluster.retry_on_timeout = 1;
    let workload = harness.apply_workload(slim(presets::harmony_grid5000_workload(
        harness.scale.workload,
    )));

    // Offered load sized so the arrival schedule spans ~20 simulated seconds
    // at any --scale; the fault script hits fixed fractions of that span.
    let span_secs = 20.0;
    let rate = workload.operation_count as f64 / span_secs;
    let at = |frac: f64| span_secs * frac;
    let scenario = Scenario::open_poisson(rate).with_faults(vec![
        FaultEvent::at_secs(at(0.15), FaultAction::CrashNode(1)),
        FaultEvent::at_secs(at(0.25), FaultAction::NodeDown(2)),
        FaultEvent::at_secs(at(0.35), FaultAction::NodeUp(2)),
        FaultEvent::at_secs(at(0.40), FaultAction::RecoverNode(1)),
        FaultEvent::at_secs(at(0.50), FaultAction::PartitionDcs(0, 1)),
        FaultEvent::at_secs(at(0.70), FaultAction::HealDcs(0, 1)),
        FaultEvent::at_secs(at(0.80), FaultAction::DegradeLink(LinkClass::InterDc, 8.0)),
        FaultEvent::at_secs(at(0.95), FaultAction::RestoreLink(LinkClass::InterDc)),
    ]);

    println!(
        "EXP-F (faults): platform = {}, {} records, {} operations, scenario = {}, {} seeds",
        platform.name,
        workload.record_count,
        workload.operation_count,
        scenario.label(),
        harness.seed_count,
    );

    let experiment = Experiment::new(platform.clone(), workload.clone())
        .with_adaptation_interval(SimDuration::from_millis(100))
        .with_seed(2013)
        .with_scenario(scenario);

    let policies = [
        PolicySpec::Eventual,
        PolicySpec::Quorum,
        PolicySpec::Harmony { tolerance: 0.20 },
        PolicySpec::Harmony { tolerance: 0.40 },
    ];
    let seeds = harness.seeds(2013);

    let sweep = run_sweep(&experiment, &policies, &seeds);
    let reports = sweep.primary();
    println!("{}", render_table("EXP-F (first seed)", &reports));
    if sweep.seeds.len() > 1 {
        println!(
            "{}",
            render_summary_table("EXP-F (faults)", &sweep.summaries())
        );
    }
    println!("policy                        timeouts  retries  msgs-lost  faults");
    for r in &reports {
        println!(
            "{:<28} {:>9} {:>8} {:>10} {:>7}",
            r.policy, r.timeouts, r.retries, r.messages_lost, r.faults_injected
        );
        assert_eq!(r.faults_injected, 8, "every scripted fault must fire");
        assert!(
            r.messages_lost > 0,
            "{}: the partition window must drop messages",
            r.policy
        );
    }
    if let Some(mode) = harness.repair {
        println!(
            "policy                        hints-q  hints-rep  hints-drop  pages-cmp  recs-strm  repair-KB"
        );
        for r in &reports {
            println!(
                "{:<28} {:>8} {:>10} {:>11} {:>10} {:>10} {:>10.1}",
                r.policy,
                r.hints_queued,
                r.hints_replayed,
                r.hints_dropped,
                r.repair_pages_compared,
                r.repair_records_streamed,
                r.repair_traffic.total() as f64 / 1024.0,
            );
            // The crash/recover leg guarantees work for whichever repair
            // subsystems the mode enables; a silent zero would mean the
            // flag never reached the cluster.
            if mode.hints_enabled() {
                assert!(
                    r.hints_queued > 0,
                    "{}: the crash window must queue hints",
                    r.policy
                );
            }
            if mode.anti_entropy_enabled() {
                assert!(
                    r.repair_pages_compared > 0,
                    "{}: recovery must compare page summaries",
                    r.policy
                );
            }
            assert!(
                r.repair_traffic.total() > 0,
                "{}: the repair plane must move bytes",
                r.policy
            );
        }
    }
    if harness.hedge.is_some() || harness.selection.is_some() || harness.backoff {
        println!(
            "policy                        hedged  hedge-wins  hedge-KB  backoff-ret  breakers"
        );
        for r in &reports {
            println!(
                "{:<28} {:>7} {:>11} {:>9.1} {:>12} {:>9}",
                r.policy,
                r.hedged_requests,
                r.hedge_wins,
                r.hedge_bytes as f64 / 1024.0,
                r.backoff_retries,
                r.breaker_opens,
            );
        }
    }

    // Gray-failure leg: one node serves 10x slow for the middle 40% of the
    // run — it still answers, so nothing marks it down — and the same run is
    // measured with the resilience layer off and on. The 2 ms hedge delay is
    // calibrated to the platform: healthy local reads finish in ~1 ms, reads
    // stuck behind the gray node take several times that, so the hedge fires
    // almost exclusively for the reads that need rescuing.
    let gray_scenario = Scenario::open_poisson(rate).with_faults(vec![
        FaultEvent::at_secs(at(0.30), FaultAction::SlowNode(3, 10.0)),
        FaultEvent::at_secs(at(0.70), FaultAction::RestoreNode(3)),
    ]);
    let first_seed = seeds[0];
    let gray_run = |hedge: bool, dynamic: bool| {
        let mut p = platform.clone();
        p.cluster.resilience = ResilienceConfig::off();
        p.cluster.read_selection = ReplicaSelection::Closest;
        if hedge {
            p.cluster.resilience.hedge_delay = SimDuration::from_millis(2);
        }
        if dynamic {
            p.cluster.resilience.backoff = true;
            p.cluster.read_selection = ReplicaSelection::Dynamic;
        }
        Experiment::new(p, workload.clone())
            .with_adaptation_interval(SimDuration::from_millis(100))
            .with_seed(first_seed)
            .with_scenario(gray_scenario.clone())
            .run_spec(&PolicySpec::Eventual)
    };
    // Three arms: no resilience; hedging alone (reads still hit the gray
    // node, the 2 ms hedge rescues them — the cleanest attribution of the
    // p99 cut to hedging itself); the full layer (dynamic selection also
    // steers reads away, so hedges fire less and win less).
    let off = gray_run(false, false);
    let hedged = gray_run(true, false);
    let full = gray_run(true, true);
    println!("\ngray failure (node 3 serves 10x slow): hedging off vs on (hedge=2ms)");
    println!("resilience   read-p50(ms)  read-p99(ms)  hedged  hedge-wins  hedge-KB  backoff-ret  breakers");
    for (label, r) in [("off", &off), ("hedged", &hedged), ("full", &full)] {
        println!(
            "{:<12} {:>13.3} {:>13.3} {:>7} {:>11} {:>9.1} {:>12} {:>9}",
            label,
            r.read_latency_ms.p50,
            r.read_latency_ms.p99,
            r.hedged_requests,
            r.hedge_wins,
            r.hedge_bytes as f64 / 1024.0,
            r.backoff_retries,
            r.breaker_opens,
        );
        assert_eq!(r.faults_injected, 2, "both gray faults must fire");
        assert_eq!(r.total_ops, off.total_ops, "every arm completes every op");
    }
    assert_eq!(off.hedged_requests, 0, "resilience off must never hedge");
    assert_eq!(off.hedge_bytes, 0);
    assert!(
        hedged.hedged_requests > 0,
        "the gray window must trigger hedges"
    );
    assert!(
        hedged.hedge_wins > 0,
        "hedges past a 10x-slow node must win"
    );
    assert!(hedged.hedge_bytes > 0, "hedge duplicates must be metered");
    for (label, r) in [("hedged", &hedged), ("full", &full)] {
        assert!(
            r.read_latency_ms.p99 < off.read_latency_ms.p99 * 0.9,
            "{label}: the resilience layer must measurably cut the read p99 ({:.3} ms vs {:.3} ms)",
            r.read_latency_ms.p99,
            off.read_latency_ms.p99
        );
    }
    let (off_bill, hedged_bill) = (off.bill.as_ref().unwrap(), hedged.bill.as_ref().unwrap());
    // Every hedge byte is metered *inside* the billable traffic the bill
    // prices — not tracked on the side. (The off/on traffic totals are not
    // compared: hedging perturbs the sampled universe, so the cross-run
    // delta is dominated by re-sampled message placement, not by the hedge
    // bytes. `resilience_layer_surfaces_in_fault_reports_and_the_bill`
    // pins the controlled off/on traffic and bill comparison.)
    assert!(
        hedged.hedge_bytes <= hedged.usage.traffic.total(),
        "hedge bytes are part of the metered traffic, not extra"
    );
    println!(
        "HEDGE_DATAPOINT {{\"hedge_ms\":2,\"p99_off_ms\":{:.3},\"p99_hedged_ms\":{:.3},\"p99_full_ms\":{:.3},\"hedged\":{},\"hedge_wins\":{},\"hedge_kb\":{:.1},\"backoff_retries\":{},\"breaker_opens\":{},\"network_usd_off\":{:.6},\"network_usd_hedged\":{:.6}}}",
        off.read_latency_ms.p99,
        hedged.read_latency_ms.p99,
        full.read_latency_ms.p99,
        hedged.hedged_requests,
        hedged.hedge_wins,
        hedged.hedge_bytes as f64 / 1024.0,
        full.backoff_retries,
        full.breaker_opens,
        off_bill.network_usd,
        hedged_bill.network_usd,
    );
}
