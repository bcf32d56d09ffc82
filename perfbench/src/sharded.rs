//! `planted-faulty-sharded`: the path `estimate-stream --policy repair
//! --shards 2 --mmap` takes — map and verify the `.adjb`, repair it once
//! upstream of the split, plan the shards, and run the shard-mergeable
//! three-pass estimator one thread per shard.

use std::time::Instant;

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{ShardedTriangle, ShardedTriangleConfig, TriangleEstimate};
use adjstream_graph::VertexId;
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::shard::drive_shard_pass;
use adjstream_stream::{
    run_sharded_hooked, run_slice_passes, Checkpoint, GuardPolicy, GuardStats, Guarded,
    MappedTrace, Metrics, MultiPassAlgorithm, ShardAlgorithm, ShardPlan, SpaceUsage, StreamItem,
};

use crate::inputs::Manifest;
use crate::ledger::{self, Ledger, ROOT};
use crate::{
    at_nominal_speed, cycle_estimates, median, secs, set_cycle_metrics, within, Args, Job, Outcome,
    Timed, CLI_SEED,
};

/// Shards, as `--shards 2`.
pub const SHARDS: usize = 2;
/// Checksum window, as the CLI's mmap path uses.
pub const VERIFY_WINDOW: usize = 1 << 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 41;
/// Relative error one m/10-budget estimate must stay within.
pub const TOLERANCE: f64 = 0.25;
/// Estimator seeds a run cycles through, starting from [`CLI_SEED`]: one
/// job each.
pub const SEEDS: usize = 4;

/// One-pass item collector: run behind [`Guarded`] it materializes the
/// repaired stream, as `estimate-stream` does before the shard split.
#[derive(Default)]
pub struct CollectItems {
    items: Vec<StreamItem>,
}

impl SpaceUsage for CollectItems {
    fn space_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<StreamItem>()
    }
}

impl MultiPassAlgorithm for CollectItems {
    type Output = Vec<StreamItem>;

    fn passes(&self) -> usize {
        1
    }
    fn begin_pass(&mut self, _pass: usize) {}
    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.items.push(StreamItem::new(src, dst));
    }
    fn finish(self) -> Vec<StreamItem> {
        self.items
    }
}

/// A static algorithm that does nothing, to isolate the guard's own cost.
struct NoOp;

impl SpaceUsage for NoOp {
    fn space_bytes(&self) -> usize {
        0
    }
}

impl MultiPassAlgorithm for NoOp {
    type Output = ();

    fn passes(&self) -> usize {
        1
    }
    fn begin_pass(&mut self, _pass: usize) {}
    fn item(&mut self, _src: VertexId, _dst: VertexId) {}
    fn feed_slice(&mut self, _items: &[StreamItem]) {}
    fn finish(self) {}
}

fn config(m: usize, seed: u64) -> (ShardedTriangleConfig, usize) {
    let budget = (m / 10).max(16);
    let cfg = ShardedTriangleConfig {
        seed,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    };
    (cfg, budget)
}

/// Map and fully verify the trace: the guard policy forces verification
/// before the repair pass, so this is the time until items can stream.
fn open(args: &Args) -> Result<MappedTrace, String> {
    let mut mapped =
        MappedTrace::open(&args.dir.join("faulty.adjb")).map_err(|e| format!("open: {e}"))?;
    mapped
        .verify_all(VERIFY_WINDOW)
        .map_err(|e| format!("verify: {e}"))?;
    Ok(mapped)
}

/// The repair pass upstream of the split.
fn repair(raw: &[StreamItem]) -> Result<(Vec<StreamItem>, GuardStats), String> {
    let (fixed, rep) = run_slice_passes(
        Guarded::new(CollectItems::default(), GuardPolicy::Repair),
        |_| raw,
    )
    .map_err(|e| format!("repair pass: {e}"))?;
    Ok((fixed, rep.guard.unwrap_or_default()))
}

/// Every injected fault must be detected.
fn check_guard(man: &Manifest, stats: &GuardStats) -> Result<(), String> {
    let injected = man.u64("faults_injected")? as usize;
    if stats.faults_detected >= injected && injected > 0 {
        Ok(())
    } else {
        Err(format!(
            "{} faults detected, {injected} injected",
            stats.faults_detected
        ))
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, man: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exact = man.u64("triangles")?;
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut mapped = None;
    for _ in 0..SETUP_REPS {
        drop(mapped.take());
        let t0 = Instant::now();
        mapped = Some(open(args)?);
        raw_setups.push(secs(t0));
        setups.push(at_nominal_speed(secs(t0)).0);
    }
    let mapped = mapped.expect("SETUP_REPS > 0");
    let raw = mapped.items();

    let jobs: Vec<Job> = (0..SEEDS as u64)
        .map(|k| Job {
            label: format!("seed{}", CLI_SEED + k),
            exact,
        })
        .collect();
    let mut guard = Ok(());
    let c = cycle_estimates(&mut out, args.seconds, &jobs, TOLERANCE, |k| {
        let t0 = Instant::now();
        let (items, stats) = repair(raw)?;
        let (cfg, budget) = config(items.len() / 2, CLI_SEED + k as u64);
        let plan = ShardPlan::build(&items, SHARDS);
        let (est, rep) = run_sharded_hooked(
            ShardedTriangle::new(cfg),
            &plan,
            &items,
            &Metrics::disabled(),
            |_| Ok(()),
        )
        .map_err(|e| e.to_string())?;
        let wall = secs(t0);
        if guard.is_ok() {
            guard = check_guard(man, &stats);
        }
        Ok(Timed {
            estimate: est.estimate,
            peak_state_bytes: rep.peak_state_bytes,
            budget,
            // The three passes over the trace are the deliveries counted;
            // the repair pass runs inside the timed wall.
            deliveries: raw.len() * 3,
            wall,
        })
    });
    out.check("guard", guard);
    out.set("setup_s", median(&setups));
    out.note("raw.setup_s", median(&raw_setups));
    set_cycle_metrics(&mut out, &c, &jobs);
    Ok(out)
}

/// What one serialized sharded run measured beyond the ledger.
struct ShardRun {
    est: TriangleEstimate,
    guard: GuardStats,
    items: usize,
    skew: f64,
    peak: usize,
    heap_over_meter: f64,
}

/// The sharded path with shards driven one after another on this thread,
/// so every layer call gets its own span and the ledger adds up. Shard
/// replicas are restored from the same pass-boundary state and merged in
/// shard order, exactly as `run_sharded_hooked` does with threads.
fn path(lg: &mut Ledger, args: &Args) -> Result<ShardRun, String> {
    lg.span(ROOT, "sharded", |lg| {
        let mut mapped = lg
            .time("stream.mmapfile", "open", || {
                MappedTrace::open(&args.dir.join("faulty.adjb"))
            })
            .map_err(|e| format!("open: {e}"))?;
        lg.time("stream.mmapfile", "verify", || {
            mapped.verify_all(VERIFY_WINDOW)
        })
        .map_err(|e| format!("verify: {e}"))?;
        let (items, guard) = lg.time("stream.guard", "repair", || repair(mapped.items()))?;
        let plan = lg.time("stream.shard", "plan", || ShardPlan::build(&items, SHARDS));
        let loads: Vec<f64> = (0..SHARDS)
            .map(|s| {
                plan.runs_for(s)
                    .iter()
                    .map(|r| r.end - r.start)
                    .sum::<usize>() as f64
            })
            .collect();
        let skew = loads.iter().cloned().fold(0.0, f64::max) / (items.len() as f64 / SHARDS as f64);

        let (cfg, _) = config(items.len() / 2, CLI_SEED);
        let mut algo = ShardedTriangle::new(cfg);
        let mut peak_all = 0usize;
        let mut heap_over_meter = 0.0;
        for pass in 0..algo.passes() {
            let mut blob = Vec::new();
            lg.time("stream.shard", "save", || algo.save(&mut blob))
                .map_err(|e| e.to_string())?;
            let mut merged: Option<ShardedTriangle> = None;
            for shard in 0..SHARDS {
                let heap_base = ledger::heap_window();
                let mut replica = lg
                    .time("stream.shard", "restore", || {
                        ShardedTriangle::restore(&mut blob.as_slice())
                    })
                    .map_err(|e| e.to_string())?;
                let mut peak = PeakTracker::new();
                let mut processed = 0usize;
                lg.time(
                    "core.triangle.sharded",
                    &format!("pass{pass}.shard{shard}"),
                    || {
                        drive_shard_pass(
                            &mut replica,
                            pass,
                            &items,
                            plan.runs_for(shard),
                            &mut peak,
                            &mut processed,
                        )
                    },
                )
                .map_err(|e| e.to_string())?;
                if peak.peak() >= peak_all {
                    peak_all = peak.peak();
                    heap_over_meter =
                        ledger::heap_peak_since(heap_base) as f64 / peak.peak().max(1) as f64;
                }
                merged = Some(match merged {
                    None => replica,
                    Some(mut m) => {
                        lg.time("stream.shard", "merge", || m.merge_pass(replica, pass))?;
                        m
                    }
                });
            }
            algo = merged.expect("SHARDS >= 1");
        }
        let est = lg.time("core.triangle.sharded", "finish", || algo.finish());
        Ok(ShardRun {
            est,
            guard,
            items: items.len(),
            skew,
            peak: peak_all,
            heap_over_meter,
        })
    })
}

/// The guard's own cost: the repair pass over a do-nothing algorithm.
fn guard_alone(args: &Args) -> Result<f64, String> {
    let mapped = open(args)?;
    let t0 = Instant::now();
    run_slice_passes(Guarded::new(NoOp, GuardPolicy::Repair), |_| mapped.items())
        .map_err(|e| e.to_string())?;
    Ok(secs(t0) * 1e9 / mapped.len() as f64)
}

/// The traced run: per-layer ledger.
pub fn run_traced(args: &Args, man: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exact = man.u64("triangles")?;
    let mut rounds = Vec::new();
    let t_run = Instant::now();
    while rounds.is_empty() || secs(t_run) < args.seconds {
        let traced_first = rounds.len() % 2 == 0;
        let plain = |args: &Args| -> Result<f64, String> {
            let t0 = Instant::now();
            path(&mut Ledger::off(), args)?;
            Ok(secs(t0))
        };
        let mut plain_wall = if traced_first { 0.0 } else { plain(args)? };
        let mut lg = Ledger::new();
        let run = path(&mut lg, args)?;
        if traced_first {
            plain_wall = plain(args)?;
        }
        out.check("guard", check_guard(man, &run.guard));
        out.check("estimate", within(run.est.estimate, exact, TOLERANCE));
        let mut r = ledger::reconcile(&mut out, &lg);
        let mut set = |k: &str, v: f64| {
            r.insert(k.to_string(), v);
        };
        let items = run.items as f64;
        set(
            "stream.mmapfile.open_s",
            lg.total("stream.mmapfile", "open"),
        );
        set(
            "stream.mmapfile.verify_s",
            lg.total("stream.mmapfile", "verify"),
        );
        set("stream.guard.ns_per_item", guard_alone(args)?);
        set(
            "stream.guard.faults_detected",
            run.guard.faults_detected as f64,
        );
        set(
            "stream.guard.items_repaired",
            run.guard.items_repaired as f64,
        );
        set(
            "stream.guard.validator_peak_bytes",
            run.guard.validator_peak_bytes as f64,
        );
        set("stream.shard.plan_s", lg.total("stream.shard", "plan"));
        set("stream.shard.skew", run.skew);
        let mut critical = 0.0;
        for pass in 0..3 {
            let per_shard: Vec<f64> = (0..SHARDS)
                .map(|s| lg.total("core.triangle.sharded", &format!("pass{pass}.shard{s}")))
                .collect();
            critical += per_shard.iter().cloned().fold(0.0, f64::max);
            set(
                &format!("core.triangle.sharded.pass{pass}_ns_per_item"),
                per_shard.iter().sum::<f64>() * 1e9 / items,
            );
        }
        set("stream.shard.pass_critical_s", critical);
        set(
            "stream.shard.merge_s",
            lg.total("stream.shard", "merge")
                + lg.total("stream.shard", "save")
                + lg.total("stream.shard", "restore"),
        );
        set("core.triangle.sharded.peak_state_bytes", run.peak as f64);
        set("stream.meter.heap_over_meter", run.heap_over_meter);
        set("trace.overhead", lg.root_wall() / plain_wall);
        rounds.push(r);
        if secs(t_run) >= args.seconds {
            lg.write(&args.dir.join("spans.txt"))
                .map_err(|e| e.to_string())?;
        }
    }
    out.metrics = ledger::median_rounds(&rounds);
    out.set("trace.rounds", rounds.len() as f64);
    Ok(out)
}
