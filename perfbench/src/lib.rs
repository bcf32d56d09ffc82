//! Benchmark of the adjstream user paths.
//!
//! Three workloads, each driven through the same public calls the CLI and
//! `adjstreamd` make:
//!
//! * `powerlaw-oneshot` — `import-edges` → `.adjb` → `estimate-stream`
//!   defaults (one `TwoPassTriangle`, bottom-k budget m/10);
//! * `planted-faulty-sharded` — `estimate-stream --policy repair --shards 2
//!   --mmap` over a fault-injected planted-triangle trace;
//! * `daemon-mixed` — `adjstreamd --workers 2` under two closed-loop
//!   clients, one submitting `triangles` jobs, one `update` jobs.
//!
//! The untraced binary (`perfbench`) reports the end-to-end metrics; the
//! traced binary (`perfbench-traced`) wraps every layer call in a span,
//! counts the real heap with a counting global allocator, and reports the
//! per-layer ledger. See `README.md` for the metric definitions.

pub mod daemon;
pub mod inputs;
pub mod ledger;
pub mod oneshot;
pub mod sharded;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use adjstream_graph::VertexId;
use adjstream_stream::{MultiPassAlgorithm, SpaceUsage, StreamItem};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["powerlaw-oneshot", "planted-faulty-sharded", "daemon-mixed"];

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "items/s"),
    ("setup_s", "s"),
    ("state_bytes_per_sample", "B"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "jobs/s"),
];

/// Per-layer metrics (traced runs): name and unit. A layer that is not on
/// a workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("graph.import.s", "s"),
    ("graph.import.edges_per_s", "edges/s"),
    ("graph.import.peak_rss_mb", "MiB"),
    ("stream.trace.decode_s", "s"),
    ("stream.trace.mb_per_s", "MB/s"),
    ("stream.mmapfile.open_s", "s"),
    ("stream.mmapfile.verify_s", "s"),
    ("stream.guard.ns_per_item", "ns/item"),
    ("stream.guard.faults_detected", "count"),
    ("stream.guard.items_repaired", "count"),
    ("stream.guard.validator_peak_bytes", "B"),
    ("stream.shard.plan_s", "s"),
    ("stream.shard.skew", "ratio"),
    ("stream.shard.pass_critical_s", "s"),
    ("stream.shard.merge_s", "s"),
    ("core.triangle.sharded.pass0_ns_per_item", "ns/item"),
    ("core.triangle.sharded.pass1_ns_per_item", "ns/item"),
    ("core.triangle.sharded.pass2_ns_per_item", "ns/item"),
    ("core.triangle.sharded.peak_state_bytes", "B"),
    ("core.triangle.two_pass.pass0_ns_per_item", "ns/item"),
    ("core.triangle.two_pass.pass1_ns_per_item", "ns/item"),
    ("core.triangle.two_pass.finish_s", "s"),
    ("core.triangle.two_pass.peak_state_bytes", "B"),
    ("core.triangle.two_pass.admissions", "count"),
    ("core.triangle.two_pass.evictions", "count"),
    ("core.triangle.two_pass.pairs_stored", "count"),
    ("core.triangle.two_pass.pairs_replaced", "count"),
    ("core.triangle.two_pass.watches_started", "count"),
    ("stream.batch.pass_s", "s"),
    ("stream.batch.instances", "count"),
    ("stream.batch.live_bytes", "B"),
    ("stream.checkpoint.writes", "count"),
    ("stream.checkpoint.write_s", "s"),
    ("stream.checkpoint.write_bytes", "B"),
    ("core.amplify.median_s", "s"),
    ("service.catalog.verify_s", "s"),
    ("service.catalog.load_s", "s"),
    ("service.server.admit_s", "s"),
    ("service.server.overhead_s", "s"),
    ("service.server.update_job_p50_s", "s"),
    ("service.server.update_job_p90_s", "s"),
    ("stream.update_trace.decode_ns_per_event", "ns/event"),
    ("stream.update_guard.ns_per_event", "ns/event"),
    ("stream.update_guard.detections", "count"),
    ("stream.update_guard.dropped", "count"),
    ("core.triangle.triest_fd.ns_per_update", "ns/update"),
    ("core.triangle.triest_fd.sample_size", "count"),
    ("core.triangle.triest_fd.peak_state_bytes", "B"),
    ("trace.overhead", "ratio"),
    ("trace.rounds", "count"),
    ("ledger.coverage", "ratio"),
    ("ledger.wall_s", "s"),
    ("stream.meter.heap_over_meter", "ratio"),
];

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// `gen` or `run`.
    pub command: String,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: f64,
    /// Directory holding the generated inputs and scratch files.
    pub dir: PathBuf,
    /// Path of the `adjstreamd` binary (daemon workload).
    pub daemon: Option<PathBuf>,
    /// Work added per stream item, as nanoseconds at nominal machine speed
    /// (bounds self-test only).
    pub inject_item_ns: u64,
}

impl Args {
    /// Parse `COMMAND --key value ...`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (command, rest) = argv.split_first().ok_or("missing command (gen|run)")?;
        let mut flags = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), v.clone());
        }
        let need = |k: &str| flags.get(k).cloned().ok_or(format!("missing --{k}"));
        let workload = need("workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let num = |k: &str, default: &str| -> Result<String, String> {
            Ok(flags.get(k).cloned().unwrap_or_else(|| default.to_string()))
        };
        Ok(Args {
            command: command.clone(),
            workload,
            seed: need("seed")?.parse().map_err(|_| "bad --seed")?,
            seconds: num("seconds", "10")?.parse().map_err(|_| "bad --seconds")?,
            dir: PathBuf::from(need("dir")?),
            daemon: flags.get("daemon").map(PathBuf::from),
            inject_item_ns: num("inject-item-ns", "0")?
                .parse()
                .map_err(|_| "bad --inject-item-ns")?,
        })
    }
}

/// What one run produced: the operation tally and the metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (estimates, jobs, ledger checks).
    pub attempted: u64,
    /// Operations that returned an error, were rejected, or answered
    /// outside their tolerance.
    pub failed: u64,
    /// Human-readable reasons for each failure.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra facts printed before the result line (inputs, estimates, …).
    pub info: BTreeMap<String, String>,
}

impl Outcome {
    /// Count one operation; `Err` marks it failed.
    pub fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.problems.push(format!("{what}: {e}"));
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record an informational fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// Print the info lines and the final result line for `names`, every
    /// one of which must have been set (or defaults to 0 when
    /// `zero_missing`). Returns whether the run was correct.
    pub fn print(&self, names: &[(&str, &str)], zero_missing: bool) -> bool {
        for p in &self.problems {
            println!("problem: {p}");
        }
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        println!("{{\"info\":{{{}}}}}", info.join(","));
        let mut missing = Vec::new();
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = match self.metrics.get(*name) {
                    Some(v) => *v,
                    None => {
                        if !zero_missing {
                            missing.push(*name);
                        }
                        0.0
                    }
                };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect();
        for m in &missing {
            println!("problem: metric {m} was not measured");
        }
        let correct = self.failed == 0 && missing.is_empty();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        correct
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every significant digit.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `xs`, `0 < q <= 1`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds [`reference_s`] takes at the speed the batch workloads' time
/// metrics are scaled to. A fixed convention, inside the range of the
/// kernel's times on the shared 2-vCPU Xeon host that sized the benchmark
/// (0.013 s quiet to 0.035 s in a slow phase).
pub const REFERENCE_NOMINAL_S: f64 = 0.02;

/// Run a fixed kernel that lives in the benchmark, not in the code under
/// test, and return its wall time. It mixes random read-modify-writes over
/// a 4 MiB table with insert/lookup/remove churn on a `std` hash map of
/// 32k keys, the kinds of work the estimators do, so it slows down with
/// the machine much as they do. Nothing a change to the repository makes
/// can change its speed.
pub fn reference_s() -> f64 {
    const TABLE: usize = 1 << 19;
    const KEYS: u64 = 1 << 15;
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Written before timing, so no page faults fall inside it.
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    let mut map: std::collections::HashMap<u64, u64> =
        (0..KEYS).map(|k| (k.wrapping_mul(GOLDEN), k)).collect();
    let t0 = Instant::now();
    for _ in 0..2_000_000 {
        let r = next();
        let i = r as usize & (TABLE - 1);
        table[i] = table[i].wrapping_mul(31).wrapping_add(r);
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let r = next();
        if let Some(v) = map.get_mut(&(r & (KEYS - 1)).wrapping_mul(GOLDEN)) {
            *v = v.wrapping_add(r);
            acc = acc.wrapping_add(*v);
        }
        map.insert(r | 1 << 63, r);
        map.remove(&(r | 1 << 63));
    }
    let wall = secs(t0);
    std::hint::black_box((&table, acc));
    wall
}

/// `wall`, just measured, scaled to nominal machine speed: the reference
/// kernel runs right after the measured work, and `wall` is multiplied by
/// [`REFERENCE_NOMINAL_S`] over the reference's time. The host is shared
/// and its speed drifts by up to 2x over minutes; the scaled figure does
/// not drift with it, but still moves with any change to the code under
/// test. Returns the scaled wall and the reference's time.
pub fn at_nominal_speed(wall: f64) -> (f64, f64) {
    let r = reference_s();
    (wall * REFERENCE_NOMINAL_S / r, r)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A field of `/proc/<pid>/status` in KiB (`VmHWM`, `VmRSS`, …).
pub fn proc_status_kib(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    proc_status_kib("self", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Relative error of `estimate` against a positive exact count.
pub fn rel_error(estimate: f64, exact: u64) -> f64 {
    (estimate - exact as f64).abs() / (exact.max(1) as f64)
}

/// Check `estimate` against `exact` within relative tolerance `tol`.
pub fn within(estimate: f64, exact: u64, tol: f64) -> Result<(), String> {
    let err = rel_error(estimate, exact);
    if estimate.is_finite() && err <= tol {
        Ok(())
    } else {
        Err(format!(
            "estimate {estimate} vs exact {exact}: relative error {err:.4} > {tol}"
        ))
    }
}

/// `estimate-stream`'s default seed.
pub const CLI_SEED: u64 = 2019;

/// One kind of estimate a batch run repeats: an input and an estimator
/// seed.
pub struct Job {
    /// Name in the info line (`graph3`, `seed2020`, …).
    pub label: String,
    /// Exact triangle count the estimate is checked against.
    pub exact: u64,
}

/// One timed estimate.
pub struct Timed {
    /// The estimate.
    pub estimate: f64,
    /// The space meter's peak during the run.
    pub peak_state_bytes: usize,
    /// The estimator's sample budget, in edges.
    pub budget: usize,
    /// Stream items delivered to the estimator, over all its passes.
    pub deliveries: usize,
    /// Wall time of the estimate.
    pub wall: f64,
}

/// What [`cycle_estimates`] measured.
pub struct Cycle {
    /// Cost per job: the median of its timed walls at nominal speed.
    pub cost: Vec<f64>,
    /// Timed walls per job at nominal speed, in order.
    pub walls: Vec<Vec<f64>>,
    /// The same walls as measured, unscaled.
    pub raw_walls: Vec<Vec<f64>>,
    /// The reference kernel's time after each timed estimate.
    pub refs: Vec<f64>,
    /// Items one estimate of each job delivers.
    pub deliveries: Vec<usize>,
    /// Largest meter peak seen over its sample budget, in bytes.
    pub bytes_per_sample: f64,
    /// Estimate bits per job.
    pub bits: Vec<u64>,
}

/// Run `estimate(j)` over every job `j`: one untimed warm-up, then whole
/// cycles over the jobs until `seconds` have passed. Every answer must lie
/// within `tol` of its job's exact count and repeat bit for bit for the
/// same job.
///
/// Each wall is scaled to nominal machine speed ([`at_nominal_speed`]),
/// and each job's cost is the median of its scaled repetitions.
pub fn cycle_estimates(
    out: &mut Outcome,
    seconds: f64,
    jobs: &[Job],
    tol: f64,
    mut estimate: impl FnMut(usize) -> Result<Timed, String>,
) -> Cycle {
    let mut c = Cycle {
        cost: Vec::new(),
        walls: vec![Vec::new(); jobs.len()],
        raw_walls: vec![Vec::new(); jobs.len()],
        refs: Vec::new(),
        deliveries: vec![0; jobs.len()],
        bytes_per_sample: 0.0,
        bits: Vec::new(),
    };
    let t_run = Instant::now();
    let mut warm = true;
    let mut i = 0;
    while warm || i % jobs.len() != 0 || i == 0 || secs(t_run) < seconds {
        let k = i % jobs.len();
        match estimate(k) {
            Ok(t) => {
                let b = t.estimate.to_bits();
                if c.bits.len() == k {
                    c.bits.push(b);
                }
                out.check(
                    &format!("estimate {}", jobs[k].label),
                    within(t.estimate, jobs[k].exact, tol).and_then(|()| {
                        if c.bits[k] == b {
                            Ok(())
                        } else {
                            Err(format!(
                                "bits {b:016x} differ from {:016x} for the same job",
                                c.bits[k]
                            ))
                        }
                    }),
                );
                if !warm {
                    let (scaled, r) = at_nominal_speed(t.wall);
                    c.walls[k].push(scaled);
                    c.raw_walls[k].push(t.wall);
                    c.refs.push(r);
                    c.deliveries[k] = t.deliveries;
                    c.bytes_per_sample = c
                        .bytes_per_sample
                        .max(t.peak_state_bytes as f64 / t.budget.max(1) as f64);
                }
            }
            Err(e) => out.check(&format!("estimate {}", jobs[k].label), Err(e)),
        }
        if !std::mem::take(&mut warm) {
            i += 1;
        }
    }
    // Every job has run at least once past the warm-up.
    c.cost = c.walls.iter().map(|w| median(w)).collect();
    c
}

/// Set the end-to-end metrics of a batch workload from its job cycle.
pub fn set_cycle_metrics(out: &mut Outcome, c: &Cycle, jobs: &[Job]) {
    let busy: f64 = c.cost.iter().sum();
    let delivered: usize = c.deliveries.iter().sum();
    let all: Vec<f64> = c.walls.concat();
    out.set("items_per_s", delivered as f64 / busy);
    out.set("state_bytes_per_sample", c.bytes_per_sample);
    out.set("peak_rss_mb", self_peak_rss_mb());
    out.note("tri_job_p50_s", median(&all));
    out.note("tri_job_p90_s", quantile(&all, 0.9));
    out.set("jobs_per_s", c.cost.len() as f64 / busy);
    let raw_busy: f64 = c.raw_walls.iter().map(|w| median(w)).sum();
    out.note("raw.items_per_s", delivered as f64 / raw_busy);
    out.note("raw.tri_job_p50_s", median(&c.raw_walls.concat()));
    out.note("reference_s.median", median(&c.refs));
    let rel: Vec<f64> = c
        .bits
        .iter()
        .zip(jobs)
        .map(|(b, j)| rel_error(f64::from_bits(*b), j.exact))
        .collect();
    let list = |xs: Vec<String>| xs.join(",");
    out.note(
        "estimate.bits",
        list(c.bits.iter().map(|b| format!("{b:016x}")).collect()),
    );
    out.note("estimate.rel_error.median", median(&rel));
    out.note("estimate.rel_error.max", quantile(&rel, 1.0));
    out.note("estimates", all.len());
    for (j, w) in jobs.iter().zip(&c.walls) {
        let key = format!("walls.{}", j.label);
        out.note(&key, list(w.iter().map(|w| format!("{w:.4}")).collect()));
    }
}

/// `rounds` steps of a dependent xorshift chain: a fixed amount of work,
/// the bounds self-test's injected cost.
fn burn(rounds: u64) {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
}

/// Rounds of [`burn`] that take `ns` nanoseconds at nominal machine speed,
/// from five probes scaled by [`at_nominal_speed`]. A fixed amount of work,
/// unlike a fixed wait, slows down with the machine as a real code change
/// would, so the scaled figures see all of it.
pub fn burn_rounds_for(ns: u64) -> u64 {
    const PROBE: u64 = 2_000_000;
    let per_round: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            burn(PROBE);
            at_nominal_speed(secs(t0)).0 * 1e9 / PROBE as f64
        })
        .collect();
    (ns as f64 / median(&per_round)).round() as u64
}

/// A pass-through wrapper that adds a fixed amount of work per stream item.
/// Used only by the bounds self-test (`--inject-item-ns`), to show that the
/// bound on `items_per_s` catches a known slowdown.
pub struct Slowed<A> {
    /// The wrapped algorithm.
    pub inner: A,
    /// Added work per item, in [`burn`] rounds.
    pub rounds: u64,
}

impl<A: SpaceUsage> SpaceUsage for Slowed<A> {
    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
}

impl<A: MultiPassAlgorithm> MultiPassAlgorithm for Slowed<A> {
    type Output = A::Output;

    fn passes(&self) -> usize {
        self.inner.passes()
    }
    fn requires_same_order(&self) -> bool {
        self.inner.requires_same_order()
    }
    fn begin_pass(&mut self, pass: usize) {
        self.inner.begin_pass(pass)
    }
    fn begin_list(&mut self, owner: VertexId) {
        self.inner.begin_list(owner)
    }
    fn item(&mut self, src: VertexId, dst: VertexId) {
        burn(self.rounds);
        self.inner.item(src, dst)
    }
    fn feed_slice(&mut self, items: &[StreamItem]) {
        burn(self.rounds * items.len() as u64);
        self.inner.feed_slice(items)
    }
    fn end_list(&mut self, owner: VertexId) {
        self.inner.end_list(owner)
    }
    fn end_pass(&mut self, pass: usize) {
        self.inner.end_pass(pass)
    }
    fn abort_error(&self) -> Option<adjstream_stream::StreamError> {
        self.inner.abort_error()
    }
    fn abort_run(&self) -> Option<adjstream_stream::RunError> {
        self.inner.abort_run()
    }
    fn guard_stats(&self) -> Option<adjstream_stream::GuardStats> {
        self.inner.guard_stats()
    }
    fn obs_counters(&self) -> Option<adjstream_stream::ObsCounters> {
        self.inner.obs_counters()
    }
    fn finish(self) -> A::Output {
        self.inner.finish()
    }
}

/// Entry point shared by both binaries: `traced` selects the ledger run.
pub fn main_with(traced: bool) -> std::process::ExitCode {
    use std::process::ExitCode;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.command == "gen" {
        return match inputs::generate(&args.workload, args.seed, &args.dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: generating inputs: {e}");
                ExitCode::from(1)
            }
        };
    }
    if args.command != "run" {
        eprintln!("error: unknown command {:?}", args.command);
        return ExitCode::from(2);
    }
    let manifest = match inputs::Manifest::read(&args.dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: reading inputs: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match (args.workload.as_str(), traced) {
        ("powerlaw-oneshot", false) => oneshot::run(&args, &manifest),
        ("powerlaw-oneshot", true) => oneshot::run_traced(&args, &manifest),
        ("planted-faulty-sharded", false) => sharded::run(&args, &manifest),
        ("planted-faulty-sharded", true) => sharded::run_traced(&args, &manifest),
        ("daemon-mixed", false) => daemon::run(&args, &manifest),
        (_, _) => daemon::run_traced(&args, &manifest),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for (k, v) in manifest.entries() {
        out.note(&format!("input.{k}"), v);
    }
    let correct = if traced {
        out.print(&PER_LAYER, true)
    } else {
        out.print(&END_TO_END, false)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
