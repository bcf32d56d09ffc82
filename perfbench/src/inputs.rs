//! Seeded input generation. Runs in its own process before any timing, so
//! neither its time nor its memory shows in a measured run.
//!
//! Every generated file is recorded in `inputs.txt` (one `key value` per
//! line) with its checksum, its sizes and the exact answer the estimators
//! are checked against.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use adjstream_core::dynamic::ExactDynamicTriangles;
use adjstream_graph::exact::count_triangles;
use adjstream_graph::gen::{chung_lu, planted_triangles_on_bipartite};
use adjstream_graph::{Graph, GraphBuilder, VertexId};
use adjstream_stream::hashing::checksum64;
use adjstream_stream::update::{churn, UpdateAlgorithm};
use adjstream_stream::{
    run_slice_passes, update_trace::write_adjbu, AdjListStream, ChurnConfig, FaultKind, FaultPlan,
    GuardPolicy, Guarded, ItemTrace, StreamItem, StreamOrder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sharded::CollectItems;

/// Power-law exponent and mean degree of every Chung–Lu input.
pub const GAMMA: f64 = 2.3;
/// Mean expected degree of every Chung–Lu input.
pub const AVG_DEGREE: f64 = 10.0;
/// `powerlaw-oneshot` vertex count of each graph: about 0.25 s per
/// estimate on a 2-CPU box, so a run repeats each graph's estimate about
/// a dozen times.
pub const ONESHOT_N: usize = 8_000;
/// `powerlaw-oneshot` graphs per seed. An estimate's cost varies by ~10%
/// from one Chung–Lu draw to the next at the same n; a run averages over
/// this many draws, so its figures speak for the graph family, not one
/// draw.
pub const ONESHOT_GRAPHS: usize = 8;
/// `planted-faulty-sharded`: bipartite side size, background edges and
/// planted triangles.
pub const SHARDED_SIDE: usize = 40_000;
/// Background edges of the planted workload.
pub const SHARDED_M_BG: usize = 450_000;
/// Planted triangles: the exact count before faults.
pub const SHARDED_T: usize = 3_000;
/// Faults of each kind injected into the planted trace. The injector
/// rescans the whole trace per fault, so the count is kept small; the
/// guard validates every item either way.
pub const SHARDED_FAULTS_PER_KIND: usize = 10;
/// `daemon-mixed`: vertex count of the static trace of `triangles` jobs.
pub const DAEMON_STATIC_N: usize = 600;
/// Vertex count of the graph behind the churn trace of `update` jobs.
pub const DAEMON_UPDATE_N: usize = 1_000;

/// The `key value` record of one workload's generated inputs.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    map: BTreeMap<String, String>,
}

impl Manifest {
    fn set(&mut self, key: &str, value: impl ToString) {
        self.map.insert(key.to_string(), value.to_string());
    }

    /// A recorded string value.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("inputs.txt lacks {key:?}"))
    }

    /// A recorded integer value.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("inputs.txt: {key:?} is not an integer"))
    }

    /// Every recorded entry, sorted by key.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &String)> {
        self.map.iter()
    }

    fn write(&self, dir: &Path) -> std::io::Result<()> {
        let mut f = BufWriter::new(File::create(dir.join("inputs.txt"))?);
        for (k, v) in &self.map {
            writeln!(f, "{k} {v}")?;
        }
        f.flush()
    }

    /// Read `dir/inputs.txt`.
    pub fn read(dir: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(dir.join("inputs.txt")).map_err(|e| e.to_string())?;
        let mut m = Manifest::default();
        for line in text.lines() {
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad inputs.txt line {line:?}"))?;
            m.set(k, v);
        }
        Ok(m)
    }
}

/// Generate `workload`'s inputs for `seed` into `dir`.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut m = Manifest::default();
    m.set("workload", workload);
    m.set("seed", seed);
    match workload {
        "powerlaw-oneshot" => gen_oneshot(seed, dir, &mut m),
        "planted-faulty-sharded" => gen_sharded(seed, dir, &mut m),
        "daemon-mixed" => gen_daemon(seed, dir, &mut m),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    m.write(dir).map_err(|e| e.to_string())
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

fn record_file(m: &mut Manifest, key: &str, path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(io)?;
    m.set(&format!("{key}.bytes"), bytes.len());
    m.set(
        &format!("{key}.checksum64"),
        format!("{:016x}", checksum64(&bytes)),
    );
    Ok(())
}

fn shuffled_items(g: &Graph, seed: u64) -> Vec<StreamItem> {
    AdjListStream::new(g, StreamOrder::shuffled(g.vertex_count(), seed)).collect_items()
}

fn write_adjb(items: Vec<StreamItem>, path: &Path) -> Result<(), String> {
    let mut f = BufWriter::new(File::create(path).map_err(io)?);
    ItemTrace::new_unchecked(items)
        .write_adjb(&mut f)
        .map_err(io)?;
    f.flush().map_err(io)
}

/// [`ONESHOT_GRAPHS`] SNAP-style edge lists of Chung–Lu graphs, drawn one
/// after another from one seeded generator: `#` header lines, then one
/// tab-separated edge per line.
fn gen_oneshot(seed: u64, dir: &Path, m: &mut Manifest) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut edges, mut triangles) = (0, 0);
    for i in 0..ONESHOT_GRAPHS {
        let g = chung_lu(ONESHOT_N, GAMMA, AVG_DEGREE, &mut rng);
        let path = dir.join(format!("edges{i}.txt"));
        let mut f = BufWriter::new(File::create(&path).map_err(io)?);
        writeln!(
            f,
            "# Undirected graph: Chung-Lu gamma={GAMMA} avg_degree={AVG_DEGREE} seed={seed} draw={i}"
        )
        .map_err(io)?;
        writeln!(f, "# Nodes: {} Edges: {}", g.vertex_count(), g.edge_count()).map_err(io)?;
        writeln!(f, "# FromNodeId\tToNodeId").map_err(io)?;
        for e in g.edge_vec() {
            writeln!(f, "{}\t{}", e.lo().0, e.hi().0).map_err(io)?;
        }
        f.flush().map_err(io)?;
        record_file(m, &format!("graph{i}.edges"), &path)?;
        let t = count_triangles(&g);
        m.set(&format!("graph{i}.m"), g.edge_count());
        m.set(&format!("graph{i}.triangles"), t);
        edges += g.edge_count();
        triangles += t;
    }
    m.set("graphs", ONESHOT_GRAPHS);
    m.set("n", ONESHOT_N);
    m.set("m", edges);
    m.set("items", 2 * edges);
    m.set("triangles", triangles);
    Ok(())
}

/// Planted triangles on a triangle-free bipartite background, streamed in
/// a seeded list order, with a seeded fault plan injected.
fn gen_sharded(seed: u64, dir: &Path, m: &mut Manifest) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = planted_triangles_on_bipartite(
        SHARDED_SIDE,
        SHARDED_SIDE,
        SHARDED_M_BG,
        SHARDED_T,
        &mut rng,
    );
    let items = shuffled_items(&g, seed);
    let plan = FaultPlan::new(seed)
        .with(FaultKind::DuplicateItem, SHARDED_FAULTS_PER_KIND)
        .with(FaultKind::DropDirection, SHARDED_FAULTS_PER_KIND)
        .with(FaultKind::InjectSelfLoop, SHARDED_FAULTS_PER_KIND);
    let corrupted = plan.apply(&items);
    let faulty = corrupted.items().to_vec();
    // The exact answer is the triangle count of what the repair guard
    // lets through: edges whose both directions survive repair.
    let (repaired, _) = run_slice_passes(
        Guarded::new(CollectItems::default(), GuardPolicy::Repair),
        |_| faulty.as_slice(),
    )
    .map_err(|e| format!("repairing the generated trace: {e}"))?;
    let exact = count_triangles(&mutual_graph(g.vertex_count(), &repaired));
    m.set("n", g.vertex_count());
    m.set("m", g.edge_count());
    m.set("items", faulty.len());
    m.set("faults_injected", corrupted.injected().len());
    m.set("planted_triangles", SHARDED_T);
    m.set("triangles", exact);
    let path = dir.join("faulty.adjb");
    write_adjb(faulty, &path)?;
    record_file(m, "trace", &path)
}

/// The undirected graph of the pairs `{u, v}` seen as both `u → v` and
/// `v → u` in `items`.
fn mutual_graph(n: usize, items: &[StreamItem]) -> Graph {
    let mut pairs: Vec<(u32, u32)> = items.iter().map(|it| (it.src.0, it.dst.0)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut b = GraphBuilder::new(n);
    for &(u, v) in &pairs {
        if u < v && pairs.binary_search(&(v, u)).is_ok() {
            b.add_edge(VertexId(u), VertexId(v))
                .expect("vertex ids come from an n-vertex graph");
        }
    }
    b.build().expect("edges are distinct and loop-free")
}

/// A small power-law `.adjb` for `triangles` jobs and a churn `.adjbu`
/// with 50% deletions for `update` jobs.
fn gen_daemon(seed: u64, dir: &Path, m: &mut Manifest) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = chung_lu(DAEMON_STATIC_N, GAMMA, AVG_DEGREE, &mut rng);
    let path = dir.join("static.adjb");
    write_adjb(shuffled_items(&g, seed), &path)?;
    record_file(m, "static", &path)?;
    m.set("static.n", g.vertex_count());
    m.set("static.m", g.edge_count());
    m.set("static.items", 2 * g.edge_count());
    m.set("static.triangles", count_triangles(&g));

    let ug = chung_lu(DAEMON_UPDATE_N, GAMMA, AVG_DEGREE, &mut rng);
    let stream = churn(
        &ug,
        &ChurnConfig {
            churn_events: ug.edge_count(),
            delete_fraction: 0.5,
            seed,
        },
    );
    let mut exact = ExactDynamicTriangles::new();
    for ev in stream.events() {
        exact.apply(ev);
    }
    let (inserts, deletes) = stream.op_counts();
    let path = dir.join("updates.adjbu");
    let mut f = BufWriter::new(File::create(&path).map_err(io)?);
    write_adjbu(&stream, &mut f).map_err(io)?;
    f.flush().map_err(io)?;
    record_file(m, "updates", &path)?;
    m.set("updates.n", ug.vertex_count());
    m.set("updates.m", ug.edge_count());
    m.set("updates.events", stream.len());
    m.set("updates.inserts", inserts);
    m.set("updates.deletes", deletes);
    m.set("updates.final_triangles", exact.triangles());
    Ok(())
}
