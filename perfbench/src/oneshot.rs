//! `powerlaw-oneshot`: `import-edges` → `.adjb` → `estimate-stream` with
//! its defaults, as a batch job.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{TriangleEstimate, TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_graph::import::ImportConfig;
use adjstream_stream::import::{import_edge_list_to_adjb, ImportReport};
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::trace::{read_trace_file_with_retry, RetryPolicy};
use adjstream_stream::{
    drive_pass_slice, run_slice_passes, ItemTrace, MultiPassAlgorithm, ObsCounters,
};

use crate::inputs::Manifest;
use crate::ledger::{self, Ledger, ROOT};
use crate::{
    at_nominal_speed, burn_rounds_for, cycle_estimates, median, secs, set_cycle_metrics, within,
    Args, Job, Outcome, Slowed, Timed, CLI_SEED,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Relative error one m/10-budget estimate must stay within.
pub const TOLERANCE: f64 = 0.25;
/// The `estimate-stream` default sample budget for an `m`-edge trace.
pub fn budget(m: usize) -> usize {
    (m / 10).max(16)
}

/// The `estimate-stream` default configuration for an `m`-edge trace.
pub fn config(m: usize, seed: u64) -> TwoPassTriangleConfig {
    TwoPassTriangleConfig {
        seed,
        edge_sampling: EdgeSampling::BottomK { k: budget(m) },
        pair_capacity: budget(m),
    }
}

/// `import-edges` of graph `g` with its defaults, scratch buckets kept in
/// `dir`.
fn import(dir: &Path, g: usize) -> Result<ImportReport, String> {
    let input = File::open(dir.join(format!("edges{g}.txt"))).map_err(|e| e.to_string())?;
    let cfg = ImportConfig {
        tmp_dir: Some(dir.to_path_buf()),
        ..ImportConfig::default()
    };
    import_edge_list_to_adjb(
        BufReader::new(input),
        &dir.join(format!("graph{g}.adjb")),
        &cfg,
    )
    .map_err(|e| format!("import-edges graph {g}: {e}"))
}

/// Read, checksum and validate graph `g`'s imported trace, as
/// `estimate-stream` does without a guard policy.
fn load(dir: &Path, g: usize) -> Result<ItemTrace, String> {
    read_trace_file_with_retry(
        &dir.join(format!("graph{g}.adjb")),
        RetryPolicy::none(),
        true,
    )
    .map(|(t, _)| t)
    .map_err(|e| format!("reading graph{g}.adjb: {e}"))
}

/// The workload's jobs: one per graph, each with the CLI's default seed.
fn jobs(man: &Manifest) -> Result<Vec<Job>, String> {
    (0..man.u64("graphs")? as usize)
        .map(|g| {
            Ok(Job {
                label: format!("graph{g}"),
                exact: man.u64(&format!("graph{g}.triangles"))?,
            })
        })
        .collect()
}

fn check_import(
    out: &mut Outcome,
    man: &Manifest,
    g: usize,
    rep: &ImportReport,
    trace: &ItemTrace,
) {
    let want = man.u64(&format!("graph{g}.m")).unwrap_or(0);
    out.check(
        &format!("import graph{g}"),
        if rep.stats.edges_read == want && trace.edges() as u64 == want {
            Ok(())
        } else {
            Err(format!(
                "read {} edges, trace holds {}, generated {want}",
                rep.stats.edges_read,
                trace.edges()
            ))
        },
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, man: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = jobs(man)?;
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPS {
        // A set-up makes every graph of the run ready to stream.
        let t0 = Instant::now();
        let loaded = (0..jobs.len())
            .map(|g| Ok((import(&args.dir, g)?, load(&args.dir, g)?)))
            .collect::<Result<Vec<_>, String>>()?;
        raw_setups.push(secs(t0));
        setups.push(at_nominal_speed(secs(t0)).0);
        traces.clear();
        for (g, (rep, trace)) in loaded.into_iter().enumerate() {
            check_import(&mut out, man, g, &rep, &trace);
            out.note(
                &format!("graph{g}.import.checksum64"),
                format!("{:016x}", rep.checksum),
            );
            traces.push(trace);
        }
    }

    let rounds = match args.inject_item_ns {
        0 => 0,
        ns => burn_rounds_for(ns),
    };
    if rounds > 0 {
        out.note("inject.rounds_per_item", rounds);
    }
    let c = cycle_estimates(&mut out, args.seconds, &jobs, TOLERANCE, |g| {
        let trace = &traces[g];
        let algo = TwoPassTriangle::new(config(trace.edges(), CLI_SEED));
        let t0 = Instant::now();
        let res = if rounds > 0 {
            let slowed = Slowed {
                inner: algo,
                rounds,
            };
            run_slice_passes(slowed, |_| trace.items())
        } else {
            run_slice_passes(algo, |_| trace.items())
        };
        let (est, rep) = res.map_err(|e| e.to_string())?;
        Ok(Timed {
            estimate: est.estimate,
            peak_state_bytes: rep.peak_state_bytes,
            budget: budget(trace.edges()),
            deliveries: trace.len() * 2,
            wall: secs(t0),
        })
    });
    out.set("setup_s", median(&setups));
    out.note("raw.setup_s", median(&raw_setups));
    set_cycle_metrics(&mut out, &c, &jobs);
    Ok(out)
}

/// What one pass through the whole path produced.
struct PathRun {
    rep: ImportReport,
    trace: ItemTrace,
    est: TriangleEstimate,
    peak: PeakTracker,
    /// Sampler and watcher counters, read between the last pass and `finish`.
    counters: ObsCounters,
    /// Peak heap growth during the passes (traced binary only).
    heap: usize,
}

/// One traced (or, with `lg` off, untraced) pass through the whole path
/// on graph `g`.
fn path(lg: &mut Ledger, dir: &Path, g: usize) -> Result<PathRun, String> {
    lg.span(ROOT, "oneshot", |lg| {
        let rep = lg.time("graph.import", "import_edge_list_to_adjb", || {
            import(dir, g)
        })?;
        let trace = lg.time("stream.trace", "read_trace_file", || load(dir, g))?;
        let mut algo = TwoPassTriangle::new(config(trace.edges(), CLI_SEED));
        let mut peak = PeakTracker::new();
        let mut processed = 0usize;
        let heap_base = ledger::heap_window();
        for pass in 0..algo.passes() {
            lg.time("core.triangle.two_pass", &format!("pass{pass}"), || {
                drive_pass_slice(&mut algo, pass, trace.items(), &mut peak, &mut processed)
            })
            .map_err(|e| e.to_string())?;
        }
        let heap = ledger::heap_peak_since(heap_base);
        let counters = algo.obs_counters().unwrap_or_default();
        let est = lg.time("core.triangle.two_pass", "finish", || algo.finish());
        Ok(PathRun {
            rep,
            trace,
            est,
            peak,
            counters,
            heap,
        })
    })
}

/// The traced run: per-layer ledger.
pub fn run_traced(args: &Args, man: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = jobs(man)?;
    // The importer's own high-water mark, before any estimate runs.
    import(&args.dir, 0)?;
    let import_rss = crate::self_peak_rss_mb();
    let mut rounds = Vec::new();
    let t_run = Instant::now();
    while rounds.is_empty() || secs(t_run) < args.seconds {
        let traced_first = rounds.len() % 2 == 0;
        let mut plain_wall = 0.0;
        // Rounds take the graphs in turn.
        let g = rounds.len() % jobs.len();
        if !traced_first {
            plain_wall = plain(&args.dir, g)?;
        }
        let mut lg = Ledger::new();
        let PathRun {
            rep,
            trace,
            est,
            peak,
            counters,
            heap,
        } = path(&mut lg, &args.dir, g)?;
        if traced_first {
            plain_wall = plain(&args.dir, g)?;
        }
        check_import(&mut out, man, g, &rep, &trace);
        out.check(
            &format!("estimate graph{g}"),
            within(est.estimate, jobs[g].exact, TOLERANCE),
        );
        let mut r = ledger::reconcile(&mut out, &lg);
        let mut set = |k: &str, v: f64| {
            r.insert(k.to_string(), v);
        };
        let items = trace.len() as f64;
        let import_s = lg.total("graph.import", "import_edge_list_to_adjb");
        let decode_s = lg.total("stream.trace", "read_trace_file");
        set("graph.import.s", import_s);
        set(
            "graph.import.edges_per_s",
            rep.stats.edges_read as f64 / import_s,
        );
        set("stream.trace.decode_s", decode_s);
        set(
            "stream.trace.mb_per_s",
            rep.bytes_written as f64 / decode_s / 1e6,
        );
        set(
            "core.triangle.two_pass.pass0_ns_per_item",
            lg.total("core.triangle.two_pass", "pass0") * 1e9 / items,
        );
        set(
            "core.triangle.two_pass.pass1_ns_per_item",
            lg.total("core.triangle.two_pass", "pass1") * 1e9 / items,
        );
        set(
            "core.triangle.two_pass.finish_s",
            lg.total("core.triangle.two_pass", "finish"),
        );
        set(
            "core.triangle.two_pass.peak_state_bytes",
            peak.peak() as f64,
        );
        set_counters(&mut set, &counters);
        set(
            "stream.meter.heap_over_meter",
            heap as f64 / peak.peak().max(1) as f64,
        );
        set("trace.overhead", lg.root_wall() / plain_wall);
        rounds.push(r);
        if secs(t_run) >= args.seconds {
            lg.write(&args.dir.join("spans.txt"))
                .map_err(|e| e.to_string())?;
        }
    }
    out.metrics = ledger::median_rounds(&rounds);
    out.set("graph.import.peak_rss_mb", import_rss);
    out.set("trace.rounds", rounds.len() as f64);
    Ok(out)
}

/// The algorithm-layer counters of one two-pass run.
pub fn set_counters(set: &mut impl FnMut(&str, f64), c: &ObsCounters) {
    set("core.triangle.two_pass.admissions", c.admissions as f64);
    set("core.triangle.two_pass.evictions", c.evictions as f64);
    set("core.triangle.two_pass.pairs_stored", c.pairs_stored as f64);
    set(
        "core.triangle.two_pass.pairs_replaced",
        c.pairs_replaced as f64,
    );
    set(
        "core.triangle.two_pass.watches_started",
        c.watches_started as f64,
    );
}

/// The same calls as the traced path with the ledger off; returns the wall.
fn plain(dir: &Path, g: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    path(&mut Ledger::off(), dir, g)?;
    Ok(secs(t0))
}
