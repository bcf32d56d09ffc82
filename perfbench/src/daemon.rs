//! `daemon-mixed`: `adjstreamd --workers 2` under two closed-loop clients,
//! each on its own connection and each waiting for its job to finish, then
//! a short think time, before submitting the next. Client A submits `triangles` jobs with an
//! explicit `t_lower` (43 repetitions as one batch job); client B submits
//! `update` jobs (TRIÈST-FD behind the repair guard) on a churn trace.
//!
//! The client speaks the socket protocol itself and polls every
//! millisecond, so the poll interval does not become the latency.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use adjstream_core::amplify::{median_of_survivors, quorum};
use adjstream_core::common::EdgeSampling;
use adjstream_core::estimate::triangle_budget;
use adjstream_core::triangle::{TriestFd, TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_graph::EdgeKey;
use adjstream_service::json::{parse, Json};
use adjstream_service::Catalog;
use adjstream_stream::checkpoint::write_checkpoint_file;
use adjstream_stream::estimator::repetitions_for_confidence;
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::update::UpdateAlgorithm;
use adjstream_stream::{
    drive_pass_slice, parse_update_bytes, BatchConfig, BatchJob, Checkpoint, GuardPolicy,
    GuardedUpdate, ItemTrace, MultiPassAlgorithm, SpaceUsage, UpdateEvent,
};

use crate::inputs::Manifest;
use crate::ledger::{self, Ledger, ROOT};
use crate::{median, proc_status_kib, quantile, secs, within, Args, Outcome};

/// Daemon launches per run; `setup_s` is the median launch → ready with
/// both traces registered.
pub const SETUP_REPS: usize = 9;
/// Worker threads, as `--workers 2`.
pub const WORKERS: usize = 2;
/// Accuracy target of `triangles` jobs.
pub const TRI_EPSILON: f64 = 1.0;
/// Failure probability of `triangles` jobs: 43 repetitions.
pub const TRI_DELTA: f64 = 0.1;
/// Relative error a `triangles` job's median must stay within.
pub const TRI_TOLERANCE: f64 = 0.5;
/// Events per `update` batch; the server checkpoints at each boundary.
pub const UPDATE_BATCH: usize = 1000;
/// TRIÈST-FD reservoir slots of `update` jobs.
pub const UPDATE_CAPACITY: usize = 4096;
/// Relative error an `update` job's final estimate must stay within.
pub const UPDATE_TOLERANCE: f64 = 0.5;
/// Status poll interval.
const POLL: Duration = Duration::from_millis(1);
/// Think time of each client between a reply and its next submission.
/// Every job fsyncs checkpoints (a triangles job one of ~0.8 MB, an update
/// job one per 1 000-event batch); back to back, the two clients wrote over
/// 1 GB per 30 s run, and the disk's latency then climbed run after run.
/// The pause caps that write rate while each job keeps its full shape.
const THINK: Duration = Duration::from_millis(150);
/// Seed of every job; fixed so that every job of a kind answers the same
/// bits, which the run checks.
const JOB_SEED: u64 = 2019;

/// A running `adjstreamd`, stopped and reaped on drop.
pub struct Daemon {
    child: Child,
    /// The daemon's stdout, kept open (and drained at shutdown) so its
    /// closing report line has a reader.
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Start the daemon with a fresh state directory under `base` and wait
    /// for its ready line.
    pub fn launch(bin: &Path, base: &Path, tag: usize) -> Result<Daemon, String> {
        let state = base.join(format!("state{tag}"));
        let socket = base.join(format!("d{tag}.sock"));
        let _ = std::fs::remove_dir_all(&state);
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(bin)
            .arg("--state-dir")
            .arg(&state)
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = stdout.read_line(&mut line);
        let daemon = Daemon {
            child,
            stdout,
            socket,
        };
        match read {
            Ok(_) if line.contains("\"ready\":true") => Ok(daemon),
            _ => Err(format!("adjstreamd did not report ready: {line:?}")),
        }
    }

    /// Open a client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let s = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        let w = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            r: BufReader::new(s),
            w,
        })
    }

    /// Peak resident set of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_status_kib(&self.child.id().to_string(), "VmHWM").unwrap_or(0) as f64 / 1024.0
    }

    /// Ask the daemon to drain and exit, and reap it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.call("{\"op\":\"shutdown\"}")?;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading adjstreamd output: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("adjstreamd exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("adjstreamd did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line-delimited JSON protocol.
pub struct Client {
    r: BufReader<UnixStream>,
    w: UnixStream,
}

impl Client {
    /// Send one request line and parse the response line.
    pub fn call(&mut self, request: &str) -> Result<Json, String> {
        self.w
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.r
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        parse(line.trim())
    }

    fn register(&mut self, name: &str, path: &Path) -> Result<Json, String> {
        let req = format!(
            "{{\"op\":\"register\",\"name\":\"{name}\",\"path\":\"{}\"}}",
            path.display()
        );
        let resp = self.call(&req)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(resp)
        } else {
            Err(format!("register {name}: {resp:?}"))
        }
    }
}

/// The two job kinds the clients submit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Triangles,
    Update,
}

/// The fixed job specs, derived from the inputs.
struct Jobs {
    t_lower: u64,
    tri_budget: usize,
    tri_reps: usize,
}

impl Jobs {
    fn new(man: &Manifest) -> Result<Jobs, String> {
        let t_lower = man.u64("static.triangles")?;
        Ok(Jobs {
            t_lower,
            tri_budget: triangle_budget(man.u64("static.m")? as usize, t_lower, TRI_EPSILON),
            tri_reps: repetitions_for_confidence(TRI_DELTA),
        })
    }

    fn submit(&self, kind: Kind) -> String {
        match kind {
            Kind::Triangles => format!(
                "{{\"op\":\"submit\",\"trace\":\"static\",\"kind\":\"triangles\",\"t_lower\":{},\
                 \"epsilon\":{TRI_EPSILON},\"delta\":{TRI_DELTA},\"seed\":{JOB_SEED},\
                 \"collect_metrics\":true}}",
                self.t_lower
            ),
            Kind::Update => format!(
                "{{\"op\":\"submit\",\"trace\":\"updates\",\"kind\":\"update\",\
                 \"batch_size\":{UPDATE_BATCH},\"capacity\":{UPDATE_CAPACITY},\
                 \"guard\":\"repair\",\"seed\":{JOB_SEED}}}"
            ),
        }
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct Tally {
    admit_s: Vec<f64>,
    latency_s: Vec<f64>,
    bits: Vec<u64>,
    errors: Vec<String>,
    attempted: u64,
}

/// Run one closed loop of `kind` jobs until `until`, finishing the job in
/// flight.
fn client_loop(daemon: &Daemon, jobs: &Jobs, kind: Kind, until: Instant) -> Tally {
    let mut t = Tally::default();
    let mut c = match daemon.connect() {
        Ok(c) => c,
        Err(e) => {
            t.attempted += 1;
            t.errors.push(e);
            return t;
        }
    };
    let req = jobs.submit(kind);
    while Instant::now() < until {
        t.attempted += 1;
        let t0 = Instant::now();
        let resp = match c.call(&req) {
            Ok(r) => r,
            Err(e) => {
                t.errors.push(e);
                break;
            }
        };
        t.admit_s.push(secs(t0));
        let Some(id) = resp.str_field("id").map(str::to_string) else {
            t.errors.push(format!("submit refused: {resp:?}"));
            continue;
        };
        let status = format!("{{\"op\":\"status\",\"id\":\"{id}\"}}");
        loop {
            std::thread::sleep(POLL);
            let s = match c.call(&status) {
                Ok(s) => s,
                Err(e) => {
                    t.errors.push(e);
                    return t;
                }
            };
            match s.str_field("state") {
                Some("done") => {
                    t.latency_s.push(secs(t0));
                    let bits = s
                        .get("result")
                        .and_then(|r| r.str_field("estimate_bits"))
                        .and_then(|b| u64::from_str_radix(b, 16).ok());
                    match bits {
                        Some(b) => t.bits.push(b),
                        None => t.errors.push(format!("job {id}: no estimate in {s:?}")),
                    }
                    break;
                }
                Some("queued") | Some("running") | Some("suspended") => {}
                _ => {
                    t.errors.push(format!("job {id}: {s:?}"));
                    break;
                }
            }
        }
        if Instant::now() < until {
            std::thread::sleep(THINK);
        }
    }
    t
}

/// Check a tally's answers: every job of the kind returns the same bits,
/// within tolerance of the exact count.
fn check_tally(out: &mut Outcome, what: &str, t: &Tally, exact: u64, tol: f64) {
    count_errors(out, what, t);
    let Some(&first) = t.bits.first() else {
        out.check(what, Err("no job completed".into()));
        return;
    };
    let est = f64::from_bits(first);
    out.note(&format!("{what}.estimate"), est);
    out.note(&format!("{what}.estimate.bits"), format!("{first:016x}"));
    out.note(&format!("{what}.rel_error"), crate::rel_error(est, exact));
    out.note(&format!("{what}.jobs"), t.latency_s.len());
    for &b in &t.bits {
        if b != first {
            out.failed += 1;
            out.problems.push(format!(
                "{what}: estimate bits {b:016x} differ from {first:016x}"
            ));
        } else if let Err(e) = within(est, exact, tol) {
            out.failed += 1;
            out.problems.push(format!("{what}: {e}"));
        }
    }
}

/// Count a tally's operations, and its errors as failures.
fn count_errors(out: &mut Outcome, what: &str, t: &Tally) {
    out.attempted += t.attempted;
    out.failed += t.errors.len() as u64;
    out.problems
        .extend(t.errors.iter().map(|e| format!("{what}: {e}")));
}

/// Launch the daemon and register both traces.
fn launch_registered(args: &Args, man: &Manifest, tag: usize) -> Result<Daemon, String> {
    let bin = args.daemon.as_deref().ok_or("missing --daemon")?;
    let d = Daemon::launch(bin, &args.dir, tag)?;
    let mut c = d.connect()?;
    let r = c.register("static", &args.dir.join("static.adjb"))?;
    let want = man.u64("static.m")?;
    if r.u64_field("edges") != Some(want) {
        return Err(format!(
            "registered static trace reports {r:?}, want {want} edges"
        ));
    }
    c.register("updates", &args.dir.join("updates.adjbu"))?;
    Ok(d)
}

/// Untimed warm-up: two `triangles` jobs then two `update` jobs submitted
/// at once, so each worker has run both kinds before timing starts and
/// the daemon's memory high-water mark does not hinge on which worker
/// happened to draw which kind.
fn warm_up(d: &Daemon, jobs: &Jobs) -> Tally {
    let mut t = Tally::default();
    let mut c = match d.connect() {
        Ok(c) => c,
        Err(e) => {
            t.attempted += 1;
            t.errors.push(e);
            return t;
        }
    };
    let kinds = [Kind::Triangles, Kind::Triangles, Kind::Update, Kind::Update];
    let mut ids = Vec::new();
    for kind in kinds {
        t.attempted += 1;
        match c.call(&jobs.submit(kind)) {
            Ok(r) => match r.str_field("id") {
                Some(id) => ids.push(id.to_string()),
                None => t.errors.push(format!("warm-up submit refused: {r:?}")),
            },
            Err(e) => t.errors.push(e),
        }
    }
    for id in ids {
        let status = format!("{{\"op\":\"status\",\"id\":\"{id}\"}}");
        loop {
            std::thread::sleep(POLL);
            match c.call(&status) {
                Ok(s) => match s.str_field("state") {
                    Some("done") => break,
                    Some("queued") | Some("running") | Some("suspended") => {}
                    _ => {
                        t.errors.push(format!("warm-up job {id}: {s:?}"));
                        break;
                    }
                },
                Err(e) => {
                    t.errors.push(e);
                    return t;
                }
            }
        }
    }
    t
}

/// Both clients for `seconds`; returns the tallies and the loop wall.
fn closed_loop(d: &Daemon, jobs: &Jobs, seconds: f64) -> (Tally, Tally, f64) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let (tri, upd) = std::thread::scope(|s| {
        let a = s.spawn(|| client_loop(d, jobs, Kind::Triangles, until));
        let b = s.spawn(|| client_loop(d, jobs, Kind::Update, until));
        (
            a.join().expect("client A does not panic"),
            b.join().expect("client B does not panic"),
        )
    });
    (tri, upd, secs(t0))
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, man: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = Jobs::new(man)?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for tag in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let t0 = Instant::now();
        daemon = Some(launch_registered(args, man, tag)?);
        setups.push(secs(t0));
    }
    let d = daemon.expect("SETUP_REPS > 0");
    let warm = warm_up(&d, &jobs);
    count_errors(&mut out, "warm-up", &warm);
    let (tri, upd, wall) = closed_loop(&d, &jobs, args.seconds);
    let metrics = d.connect()?.call("{\"op\":\"metrics\"}")?;
    let peak_state = metrics
        .get("metrics")
        .and_then(|m| m.u64_field("peak_state_bytes"))
        .unwrap_or(0);
    let rss = d.peak_rss_mb();
    d.shutdown()?;

    check_tally(
        &mut out,
        "triangles",
        &tri,
        man.u64("static.triangles")?,
        TRI_TOLERANCE,
    );
    check_tally(
        &mut out,
        "update",
        &upd,
        man.u64("updates.final_triangles")?,
        UPDATE_TOLERANCE,
    );
    if tri.latency_s.is_empty() || upd.latency_s.is_empty() {
        return Err("a client completed no job".into());
    }
    let tri_items = man.u64("static.items")? as f64 * 2.0 * jobs.tri_reps as f64;
    let upd_items = man.u64("updates.events")? as f64;
    let done = (tri.latency_s.len() + upd.latency_s.len()) as f64;
    out.set(
        "items_per_s",
        (tri.latency_s.len() as f64 * tri_items + upd.latency_s.len() as f64 * upd_items) / wall,
    );
    out.set("setup_s", median(&setups));
    out.set(
        "state_bytes_per_sample",
        peak_state as f64 / jobs.tri_budget as f64,
    );
    out.set("peak_rss_mb", rss);
    out.note("tri_job_p50_s", median(&tri.latency_s));
    out.note("tri_job_p90_s", quantile(&tri.latency_s, 0.9));
    out.set("jobs_per_s", done / wall);
    out.note("update_job_p50_s", median(&upd.latency_s));
    out.note("update_job_p90_s", quantile(&upd.latency_s, 0.9));
    out.note("admit_p50_s", median(&[tri.admit_s, upd.admit_s].concat()));
    out.note("tri_budget", jobs.tri_budget);
    out.note("tri_repetitions", jobs.tri_reps);
    Ok(out)
}

/// An update algorithm that keeps the events the guard lets through, to
/// isolate the guard's cost and replay TRIÈST-FD on the repaired events.
#[derive(Default)]
struct Recorder {
    events: Vec<UpdateEvent>,
}

impl SpaceUsage for Recorder {
    fn space_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<UpdateEvent>()
    }
}

impl UpdateAlgorithm for Recorder {
    fn insert(&mut self, e: EdgeKey, ts: u64) {
        self.events
            .push(UpdateEvent::insert(e.lo().0, e.hi().0, ts));
    }
    fn delete(&mut self, e: EdgeKey, ts: u64) {
        self.events
            .push(UpdateEvent::delete(e.lo().0, e.hi().0, ts));
    }
    fn estimate(&self) -> f64 {
        0.0
    }
}

/// What one replay measured beyond the ledger.
struct Replay {
    tri_estimate: f64,
    upd_estimate: f64,
    tri_wall: f64,
    live_bytes: usize,
    checkpoint_bytes: u64,
    heap_over_meter: f64,
    guard: adjstream_stream::UpdateGuardStats,
    triest_peak: usize,
    sample_size: usize,
}

/// One triangles job and one update job replayed in-process through the
/// calls the server makes, each under its layer's span.
fn replay(lg: &mut Ledger, cat: &Catalog, jobs: &Jobs, ckpt_dir: &Path) -> Result<Replay, String> {
    let ckpt = ckpt_dir.join("replay.ckpt");
    lg.span(ROOT, "daemon-replay", |lg| {
        let t_tri = Instant::now();
        lg.time("service.catalog", "verify_checksum", || {
            cat.verify_checksum("static")
        })?;
        let trace = lg.time("service.catalog", "load_items", || cat.load_items("static"))?;
        let cfg = BatchConfig {
            metrics: true,
            ..BatchConfig::with_threads(1)
        };
        let heap_base = ledger::heap_window();
        let mut job = lg
            .time("stream.batch", "new", || {
                BatchJob::new(
                    (0..jobs.tri_reps)
                        .map(|i| TwoPassTriangle::new(two_pass_config(jobs, i as u64)))
                        .collect(),
                    &cfg,
                )
            })
            .map_err(|e| e.to_string())?;
        let mut live_bytes = 0;
        let mut checkpoint_bytes = 0u64;
        let mut generations = 0;
        let mut heap = 0;
        while !job.is_complete() {
            // Checkpoint payloads are transient: reopen the heap window so
            // only the instances' own growth during the pass counts.
            ledger::heap_window();
            lg.time("stream.batch", "run_pass", || job.run_pass(trace.items()))
                .map_err(|e| e.to_string())?;
            heap = heap.max(ledger::heap_peak_since(heap_base));
            generations += 1;
            job.set_source_generations(generations);
            live_bytes = live_bytes.max(job.total_live_bytes());
            if !job.is_complete() {
                lg.time("stream.checkpoint", "write", || job.write_checkpoint(&ckpt))
                    .map_err(|e| e.to_string())?;
                checkpoint_bytes += std::fs::metadata(&ckpt).map_or(0, |m| m.len());
            }
        }
        let outcome = lg.time("stream.batch", "finish", || job.finish());
        let meter: usize = outcome
            .report
            .per_instance
            .iter()
            .map(|r| r.peak_state_bytes)
            .sum();
        let runs: Vec<Option<f64>> = outcome
            .outputs
            .iter()
            .map(|o| o.as_ref().map(|e| e.estimate))
            .collect();
        let median = lg
            .time("core.amplify", "median_of_survivors", || {
                median_of_survivors(&runs, quorum(jobs.tri_reps))
            })
            .map_err(|d| format!("degraded: {d:?}"))?;
        let tri_wall = secs(t_tri);

        lg.time("service.catalog", "verify_checksum", || {
            cat.verify_checksum("updates")
        })?;
        let stream = lg.time("service.catalog", "load_updates", || {
            cat.load_updates("updates")
        })?;
        let mut guard = GuardedUpdate::new(
            TriestFd::new(JOB_SEED, UPDATE_CAPACITY),
            GuardPolicy::Repair,
        );
        let mut triest_peak = PeakTracker::new();
        let batches: Vec<&[UpdateEvent]> = stream.events().chunks(UPDATE_BATCH).collect();
        for (i, chunk) in batches.iter().enumerate() {
            lg.time("stream.update_guard", "apply_event", || {
                chunk.iter().try_for_each(|ev| guard.apply_event(ev))
            })
            .map_err(|v| v.to_string())?;
            triest_peak.observe(guard.inner_ref().space_bytes());
            if i + 1 < batches.len() {
                lg.time("stream.checkpoint", "write", || {
                    let mut payload = Vec::new();
                    guard
                        .save(&mut payload)
                        .map_err(adjstream_stream::CheckpointError::Io)
                        .and_then(|()| write_checkpoint_file(&ckpt, &payload))
                })
                .map_err(|e| e.to_string())?;
                checkpoint_bytes += std::fs::metadata(&ckpt).map_or(0, |m| m.len());
            }
        }
        let _ = std::fs::remove_file(&ckpt);
        Ok(Replay {
            tri_estimate: median.median,
            upd_estimate: guard.estimate(),
            tri_wall,
            live_bytes,
            checkpoint_bytes,
            heap_over_meter: heap as f64 / meter.max(1) as f64,
            guard: guard.stats(),
            triest_peak: triest_peak.peak(),
            sample_size: guard.inner_ref().sample_size(),
        })
    })
}

fn two_pass_config(jobs: &Jobs, rep: u64) -> TwoPassTriangleConfig {
    TwoPassTriangleConfig {
        seed: JOB_SEED.wrapping_add(rep),
        edge_sampling: EdgeSampling::BottomK { k: jobs.tri_budget },
        pair_capacity: jobs.tri_budget,
    }
}

/// Layers measured alone, outside the reconciled replay: trace decoding,
/// one batch instance driven directly, and the update guard over a
/// recorder against TRIÈST-FD on the repaired events.
fn isolated(args: &Args, jobs: &Jobs, set: &mut impl FnMut(&str, f64)) -> Result<(), String> {
    let bytes = std::fs::read(args.dir.join("static.adjb")).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let trace = ItemTrace::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let decode_s = secs(t0);
    set("stream.trace.decode_s", decode_s);
    set("stream.trace.mb_per_s", bytes.len() as f64 / decode_s / 1e6);

    let mut algo = TwoPassTriangle::new(two_pass_config(jobs, 0));
    let (mut peak, mut processed) = (PeakTracker::new(), 0usize);
    let items = trace.len() as f64;
    for pass in 0..algo.passes() {
        let t0 = Instant::now();
        drive_pass_slice(&mut algo, pass, trace.items(), &mut peak, &mut processed)
            .map_err(|e| e.to_string())?;
        set(
            &format!("core.triangle.two_pass.pass{pass}_ns_per_item"),
            secs(t0) * 1e9 / items,
        );
    }
    crate::oneshot::set_counters(set, &algo.obs_counters().unwrap_or_default());
    let t0 = Instant::now();
    algo.finish();
    set("core.triangle.two_pass.finish_s", secs(t0));
    set(
        "core.triangle.two_pass.peak_state_bytes",
        peak.peak() as f64,
    );

    let bytes = std::fs::read(args.dir.join("updates.adjbu")).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let stream = parse_update_bytes(&bytes).map_err(|e| e.to_string())?;
    let events = stream.len() as f64;
    set(
        "stream.update_trace.decode_ns_per_event",
        secs(t0) * 1e9 / events,
    );
    let mut guard = GuardedUpdate::new(Recorder::default(), GuardPolicy::Repair);
    let t0 = Instant::now();
    for ev in stream.events() {
        guard.apply_event(ev).map_err(|v| v.to_string())?;
    }
    set("stream.update_guard.ns_per_event", secs(t0) * 1e9 / events);
    let repaired = guard.into_inner().events;
    let mut triest = TriestFd::new(JOB_SEED, UPDATE_CAPACITY);
    let t0 = Instant::now();
    for ev in &repaired {
        triest.apply(ev);
    }
    set(
        "core.triangle.triest_fd.ns_per_update",
        secs(t0) * 1e9 / repaired.len().max(1) as f64,
    );
    Ok(())
}

/// The traced run: the closed loop against the daemon for the server's
/// own costs, then in-process replays for the per-layer ledger.
pub fn run_traced(args: &Args, man: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = Jobs::new(man)?;
    let t_run = Instant::now();
    let d = launch_registered(args, man, 0)?;
    let warm = warm_up(&d, &jobs);
    count_errors(&mut out, "warm-up", &warm);
    let (tri, upd, _) = closed_loop(&d, &jobs, (args.seconds * 0.4).max(1.0));
    d.shutdown()?;
    let exact_tri = man.u64("static.triangles")?;
    let exact_upd = man.u64("updates.final_triangles")?;
    check_tally(&mut out, "triangles", &tri, exact_tri, TRI_TOLERANCE);
    check_tally(&mut out, "update", &upd, exact_upd, UPDATE_TOLERANCE);
    if tri.latency_s.is_empty() || upd.latency_s.is_empty() {
        return Err("a client completed no job".into());
    }

    let state = args.dir.join("replay-state");
    std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
    let cat = Catalog::open(&state);
    cat.register("static", &args.dir.join("static.adjb"))
        .map_err(|e| e.to_string())?;
    cat.register("updates", &args.dir.join("updates.adjbu"))
        .map_err(|e| e.to_string())?;

    let mut rounds = Vec::new();
    while rounds.is_empty() || secs(t_run) < args.seconds {
        let traced_first = rounds.len() % 2 == 0;
        let plain = || -> Result<f64, String> {
            let t0 = Instant::now();
            replay(&mut Ledger::off(), &cat, &jobs, &state)?;
            Ok(secs(t0))
        };
        let mut plain_wall = if traced_first { 0.0 } else { plain()? };
        let mut lg = Ledger::new();
        let rep = replay(&mut lg, &cat, &jobs, &state)?;
        if traced_first {
            plain_wall = plain()?;
        }
        out.check(
            "replayed triangles job",
            within(rep.tri_estimate, exact_tri, TRI_TOLERANCE),
        );
        out.check(
            "replayed update job",
            within(rep.upd_estimate, exact_upd, UPDATE_TOLERANCE),
        );
        let mut r = ledger::reconcile(&mut out, &lg);
        let mut set = |k: &str, v: f64| {
            r.insert(k.to_string(), v);
        };
        set(
            "service.catalog.verify_s",
            lg.total("service.catalog", "verify_checksum"),
        );
        set(
            "service.catalog.load_s",
            lg.total("service.catalog", "load_items") + lg.total("service.catalog", "load_updates"),
        );
        set("stream.batch.pass_s", lg.total("stream.batch", "run_pass"));
        set("stream.batch.instances", jobs.tri_reps as f64);
        set("stream.batch.live_bytes", rep.live_bytes as f64);
        set(
            "stream.checkpoint.writes",
            lg.durations("stream.checkpoint", "write").len() as f64,
        );
        set(
            "stream.checkpoint.write_s",
            lg.total("stream.checkpoint", "write"),
        );
        set("stream.checkpoint.write_bytes", rep.checkpoint_bytes as f64);
        set(
            "core.amplify.median_s",
            lg.total("core.amplify", "median_of_survivors"),
        );
        set(
            "service.server.overhead_s",
            median(&tri.latency_s) - rep.tri_wall,
        );
        set(
            "stream.update_guard.detections",
            rep.guard.detections as f64,
        );
        set("stream.update_guard.dropped", rep.guard.dropped as f64);
        set(
            "core.triangle.triest_fd.sample_size",
            rep.sample_size as f64,
        );
        set(
            "core.triangle.triest_fd.peak_state_bytes",
            rep.triest_peak as f64,
        );
        set("stream.meter.heap_over_meter", rep.heap_over_meter);
        set("trace.overhead", lg.root_wall() / plain_wall);
        isolated(args, &jobs, &mut set)?;
        rounds.push(r);
        if secs(t_run) >= args.seconds {
            lg.write(&args.dir.join("spans.txt"))
                .map_err(|e| e.to_string())?;
        }
    }
    out.metrics = ledger::median_rounds(&rounds);
    out.set(
        "service.server.admit_s",
        median(&[tri.admit_s, upd.admit_s].concat()),
    );
    out.set("service.server.update_job_p50_s", median(&upd.latency_s));
    out.set(
        "service.server.update_job_p90_s",
        quantile(&upd.latency_s, 0.9),
    );
    out.set("trace.rounds", rounds.len() as f64);
    Ok(out)
}
