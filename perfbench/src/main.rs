//! The repository benchmark: YCSB workloads served by a `hot-server`
//! started in this process on 127.0.0.1 and driven by a closed-loop load
//! generator, next to the same op stream replayed in-process on the same
//! index configuration. Every wire answer is checked against the
//! in-process answer for the same op.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--keys N] [--run-index N] [--rustc V] [--git REV] [--trace-out FILE]
//! ```
//!
//! The last stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Lines before it carry the run's provenance, the raw
//! samples and, in a traced run, the cost ledger. Exit code 0 means every
//! answer was correct.
//!
//! End-to-end figures are reported at a reference host speed (see
//! [`calib`]); the raw figures are on the `samples` line. Per-layer
//! figures are raw.

mod calib;
mod exec;
mod ledger;
mod trace;
mod util;
mod wire;

use calib::Calibration;
use exec::{arena_copy, Replayer, ShardLayer, WINDOW};
use hot_client::Connection;
use hot_core::numa;
use hot_keys::ArenaKeySource;
use hot_server::protocol::{Request, Response};
use hot_server::{start_with_data, NetData, ServerConfig, ServerHandle};
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Spans;
use util::{median, now_ns, quantile, Op};
use wire::{ClientCosts, LoadGen};

/// One benchmark workload: data set, YCSB mix and index configuration.
pub struct Spec {
    pub name: &'static str,
    kind: DatasetKind,
    workload: Workload,
    dist: RequestDistribution,
    /// Shards of the inline router the server executes on.
    pub shards: usize,
    /// Op log bound per run, as a multiple of the loaded keys; it also
    /// sizes the insert reserve of insert-bearing mixes.
    ops_per_key: usize,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "read_url",
        kind: DatasetKind::Url,
        workload: Workload::C,
        dist: RequestDistribution::Uniform,
        shards: 1,
        ops_per_key: 12,
    },
    Spec {
        name: "update_zipf_int",
        kind: DatasetKind::Integer,
        workload: Workload::A,
        dist: RequestDistribution::Zipfian,
        shards: 1,
        ops_per_key: 12,
    },
    // Two inline shards: scans continue across the shard boundary. On the
    // worker pool this mix was not steady on a 2-vCPU host (wire Mop/s
    // halved and p99 grew 5x in some runs), so the pool is measured only
    // as a ledger layer (`shard.pool_self_ns`).
    Spec {
        name: "scan_email",
        kind: DatasetKind::Email,
        workload: Workload::E,
        dist: RequestDistribution::Uniform,
        shards: 2,
        ops_per_key: 4,
    },
];

/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Alternating in-process / wire rounds per measurement phase.
const ROUNDS: usize = 12;
/// Share of a round's time budget given to the in-process replay.
const INPROC_SHARE: f64 = 0.3;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    keys: usize,
    run_index: u64,
    rustc: String,
    git: String,
    trace_out: Option<PathBuf>,
    /// CPUs available to the process, read before any thread is pinned.
    nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload <name> is required")?;
    let spec = SPECS.iter().find(|s| s.name == workload).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload:?} (expected one of {names:?})")
    })?;
    let num = |v: Option<String>, flag: &str, default: &str| -> Result<f64, String> {
        let v = v.unwrap_or_else(|| default.to_string());
        v.parse::<f64>()
            .map_err(|_| format!("{flag} expects a number, got {v:?}"))
    };
    let seed = num(get("--seed"), "--seed", "1")? as u64;
    let seconds = num(get("--seconds"), "--seconds", "10")?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let keys = num(get("--keys"), "--keys", "1000000")? as usize;
    if keys < 1000 || seconds <= 0.0 {
        return Err("--keys must be at least 1000 and --seconds positive".to_string());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        keys,
        run_index: num(get("--run-index"), "--run-index", "0")? as u64,
        rustc: get("--rustc").unwrap_or_else(|| "unknown".to_string()),
        git: get("--git").unwrap_or_else(|| "unknown".to_string()),
        trace_out: get("--trace-out").map(PathBuf::from),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Generate the corpus: the loaded keys plus the insert reserve, and the
/// tuple store that resolves them.
fn build_corpus(spec: &Spec, keys: usize, seed: u64) -> NetData {
    let reserve =
        WorkloadRun::new(spec.workload, spec.dist, keys, ops_cap(spec, keys), seed).reserve_keys();
    let dataset = Dataset::generate(spec.kind, keys + reserve, seed);
    let mut arena =
        ArenaKeySource::with_capacity(dataset.keys.len(), dataset.avg_key_len().ceil() as usize);
    let tids: Vec<u64> = dataset.keys.iter().map(|k| arena.push(k)).collect();
    NetData {
        dataset,
        arena: Arc::new(arena),
        tids,
        loaded: keys,
    }
}

fn ops_cap(spec: &Spec, keys: usize) -> usize {
    spec.ops_per_key * keys
}

/// The op count after which `bytes_per_key` is read: a fixed prefix of the
/// op log (half the loaded keys, in whole windows), so the footprint of an
/// insert-bearing mix does not depend on how far a timed run got.
fn footprint_ops(keys: usize) -> usize {
    (keys / 2 / WINDOW).max(1) * WINDOW
}

struct Setup {
    /// The client's copy of the corpus (shares the server's tuple store).
    data: NetData,
    server: ServerHandle,
    setup_s: f64,
    corpus_s: f64,
}

/// Corpus generation plus bulk load, until the server listens. The
/// client's copy of the corpus is made outside the timed part.
fn setup(spec: &Spec, args: &Args) -> std::io::Result<Setup> {
    let t0 = Instant::now();
    let served = build_corpus(spec, args.keys, args.seed);
    let corpus_s = t0.elapsed().as_secs_f64();
    let data = NetData {
        dataset: served.dataset.clone(),
        arena: Arc::clone(&served.arena),
        tids: served.tids.clone(),
        loaded: served.loaded,
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        kind: spec.kind,
        keys: args.keys,
        ops: ops_cap(spec, args.keys),
        seed: args.seed,
        shards: spec.shards,
        workers: false,
        pin: false,
        window: WINDOW,
        idle_timeout: Duration::from_secs(30),
    };
    let t1 = Instant::now();
    let server = start_with_data(config, served)?;
    let setup_s = corpus_s + t1.elapsed().as_secs_f64();
    Ok(Setup {
        data,
        server,
        setup_s,
        corpus_s,
    })
}

/// The server counters the benchmark reads from STATS frames.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    requests: f64,
    bytes_in: f64,
    bytes_out: f64,
    net_ops: f64,
    net_exec_ns: f64,
}

fn json_field(doc: &str, key: &str) -> Option<f64> {
    let at = doc.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &doc[at..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))?;
    rest[..end].parse().ok()
}

fn read_stats(conn: &mut Connection) -> Result<Stats, String> {
    let doc = match conn
        .call(&Request::Stats)
        .map_err(|e| format!("STATS: {e}"))?
    {
        Response::Text(doc) => doc,
        other => return Err(format!("STATS answered {other:?}")),
    };
    let field = |d: &str, k: &str| json_field(d, k).ok_or(format!("STATS lacks {k}: {doc}"));
    let mut s = Stats {
        requests: field(&doc, "requests")?,
        bytes_in: field(&doc, "bytes_in")?,
        bytes_out: field(&doc, "bytes_out")?,
        ..Stats::default()
    };
    if let Some(at) = doc.find("\"net_op\"") {
        let op = &doc[at..];
        s.net_ops = field(op, "count")?;
        s.net_exec_ns = s.net_ops * field(op, "mean_ns")?;
    }
    Ok(s)
}

/// A throughput over several segments: the run's rate is all ops over
/// all time, so a run that straddles host slow and fast phases reads
/// their mix rather than whichever phase its median segment fell in.
#[derive(Default)]
struct Rate {
    segments: Vec<f64>,
    ops: usize,
    ns: u64,
}

impl Rate {
    fn add(&mut self, ops: usize, ns: u64) {
        if ops > 0 && ns > 0 {
            self.segments.push(ops as f64 / ns as f64 * 1e3);
            self.ops += ops;
            self.ns += ns;
        }
    }

    fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Million ops per second over every segment.
    fn mops(&self) -> f64 {
        self.ops as f64 / self.ns as f64 * 1e3
    }
}

/// What the measurement phase saw.
#[derive(Default)]
struct Measured {
    ops: Vec<Op>,
    answers: Vec<u64>,
    opgen_ns: u64,
    inproc: Rate,
    wire: Rate,
    traced: Rate,
    /// Latency samples of untraced wire segments (ns), and each such
    /// segment's median in µs.
    lat_ns: Vec<u32>,
    p50_us: Vec<f64>,
    wire_ops: usize,
    failed: usize,
    lost: usize,
    costs: ClientCosts,
    stats: (Stats, Stats),
    /// Index bytes per key of the in-process index once it has replayed
    /// the first [`footprint_ops`] ops.
    bytes_per_key: f64,
}

/// Alternate in-process replay and wire segments for `budget` seconds.
/// The in-process replay runs ahead of the wire and logs the reference
/// answer of every op; the wire then sends the same ops, in the same
/// order, and each answer is compared with the logged one. In a traced
/// run every other wire segment records client spans.
#[allow(clippy::too_many_arguments)]
fn measure(
    spec: &Spec,
    args: &Args,
    data: &NetData,
    entries: &[(&[u8], u64)],
    server: &ServerHandle,
    budget: f64,
    calib: &mut Calibration,
    mut spans: Option<&mut Spans>,
) -> Result<Measured, String> {
    let mut reference = ShardLayer::load(&arena_copy(data), entries, spec.shards, false);
    let cap = ops_cap(spec, args.keys);
    let run = WorkloadRun::new(spec.workload, spec.dist, args.keys, cap, args.seed);
    let mut stream = run.operations();
    let mut replayer = Replayer::new(data);
    let mut control = Connection::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut gen = LoadGen::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut m = Measured {
        ops: Vec::with_capacity(cap),
        answers: Vec::with_capacity(cap),
        ..Default::default()
    };
    let slot_ns = |share: f64| (budget * share / ROUNDS as f64 * 1e9) as u64;
    let (in_slot, wire_slot) = (slot_ns(INPROC_SHARE), slot_ns(1.0 - INPROC_SHARE));
    let footprint_at = footprint_ops(args.keys);

    m.stats.0 = read_stats(&mut control)?;
    let mut last_wire_ops = 0usize;
    for round in 0..ROUNDS {
        // In-process: its slot or its share of the op log, whichever ends
        // first, but always far enough ahead that the wire cannot catch
        // up within its slot.
        calib.sample();
        let slot_end = now_ns() + in_slot;
        let (mut exec_ns, mut done) = (0u64, 0usize);
        loop {
            let t = now_ns();
            let rate = done as f64 / exec_ns.max(1) as f64;
            let ahead = (rate * wire_slot as f64 * 1.2) as usize;
            let need = m.wire_ops + ahead.max(2 * last_wire_ops).max(WINDOW);
            let slot_done = t >= slot_end || done >= cap / ROUNDS;
            let footprint_done = m.ops.len() >= footprint_at;
            if m.ops.len() >= cap || (slot_done && footprint_done && m.ops.len() >= need) {
                break;
            }
            let w0 = m.ops.len();
            m.ops.extend(
                stream
                    .by_ref()
                    .take(WINDOW.min(cap - w0))
                    .map(Op::from_ycsb),
            );
            let g = now_ns();
            m.opgen_ns += g - t;
            replayer.window(&mut reference, &m.ops[w0..], &mut m.answers);
            exec_ns += now_ns() - g;
            done += m.ops.len() - w0;
            if m.ops.len() == footprint_at {
                m.bytes_per_key = reference.0.memory_stats().bytes_per_key();
            }
        }
        m.inproc.add(done, exec_ns);

        let traced = spans.is_some() && round % 2 == 1;
        let client = if traced {
            spans.as_deref_mut().map(|s| (s, &mut m.costs))
        } else {
            None
        };
        let mut lat = Vec::new();
        calib.sample();
        let seg = gen.run(
            data,
            &m.ops,
            &m.answers,
            m.wire_ops,
            now_ns() + wire_slot,
            &mut lat,
            client,
        );
        if !traced && !lat.is_empty() {
            let mut us: Vec<f64> = lat.iter().map(|&n| f64::from(n) / 1e3).collect();
            m.p50_us.push(quantile(&mut us, 0.5));
            m.lat_ns.extend_from_slice(&lat);
        }
        m.wire_ops += seg.ops + seg.lost;
        m.failed += seg.failed;
        m.lost += seg.lost;
        last_wire_ops = seg.ops;
        if seg.lost > 0 {
            eprintln!("perfbench: {} wire requests got no response", seg.lost);
            break;
        }
        let rate = if traced { &mut m.traced } else { &mut m.wire };
        rate.add(seg.ops, seg.ns);
    }
    m.stats.1 = read_stats(&mut control)?;
    Ok(m)
}

fn provenance(
    args: &Args,
    m: &Measured,
    placement: &str,
    host_msteps: f64,
    steal_frac: Option<f64>,
) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"keys\": {}, \"ops\": {}, \
         \"wire_ops\": {}, \"seconds\": {}, \"trace\": {}, \"run_index\": {}, \"nproc\": {}, \
         \"cpu\": {}, \"kernel\": {}, \"placement\": {}, \"host_msteps\": {}, \"host_steal_frac\": {}, \"rustc\": {}, \
         \"git\": {}}}}}",
        json_str(args.spec.name),
        args.seed,
        args.keys,
        m.ops.len(),
        m.wire_ops,
        args.seconds,
        u8::from(args.trace),
        args.run_index,
        args.nproc,
        json_str(&cpu),
        json_str(&kernel),
        json_str(placement),
        host_msteps,
        steal_frac.map_or("null".to_string(), |f| f.to_string()),
        json_str(&args.rustc),
        json_str(&args.git),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = args.spec;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut corpus_s) = (Vec::new(), Vec::new());
    let mut calib = Calibration::new();
    // The server's threads run on core 0 and the client on core 1: left
    // to the scheduler, the two alternate between sharing a core and not,
    // which moves the wire latency by ~40%. Server threads inherit the
    // core of the thread that starts the server.
    let mut kept: Option<Setup> = None;
    for _ in 0..reps {
        // An earlier setup is shut down before the next one starts.
        drop(kept.take());
        calib.sample();
        let s = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    numa::pin_to_core(0);
                    setup(spec, args)
                })
                .join()
                .expect("setup thread")
        })
        .map_err(|e| format!("server setup: {e}"))?;
        setup_s.push(s.setup_s);
        corpus_s.push(s.corpus_s);
        kept = Some(s);
    }
    let Setup { data, server, .. } = kept.expect("at least one setup");
    let entries = data.sorted_entries();
    // Loaded before the client pins itself: a pool spawned from a pinned
    // thread would put every worker on that one core.
    let layers = args
        .trace
        .then(|| ledger::Layers::load(spec, &data, &entries));
    let placement = if numa::pin_to_core(1) {
        "server threads core 0, client core 1"
    } else {
        "unpinned"
    };
    // Untraced: the whole budget measures. Traced: half of it measures
    // (alternating untraced and traced wire segments), half replays the
    // ledger.
    let mut spans = if args.trace {
        Spans::new()
    } else {
        Spans::default()
    };
    let wire_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let steal0 = calib::steal_ticks();
    let m = measure(
        spec,
        args,
        &data,
        &entries,
        &server,
        wire_budget,
        &mut calib,
        args.trace.then_some(&mut spans),
    )?;
    server.shutdown();
    // The share of CPU time the host took away while the run measured: on
    // a shared host, wire figures fall when it rises.
    let steal_frac = match (steal0, calib::steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    println!(
        "{}",
        provenance(args, &m, placement, calib.msteps(), steal_frac)
    );

    let wire_ops = m.wire_ops.max(1) as f64;
    let mut attempted = m.wire_ops;
    let mut failed = m.failed + m.lost;
    let mut metrics = Metrics::default();
    let (s0, s1) = m.stats;
    if !args.trace {
        if m.lat_ns.is_empty() || m.wire.is_empty() || m.inproc.is_empty() {
            return Err("the run completed no wire or in-process ops".to_string());
        }
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        // Rates scale up and times down on a host slower than the
        // reference (see `calib`); the raw figures go on the samples line.
        let scale = calib.rate_scale();
        let mut lat_us: Vec<f64> = m.lat_ns.iter().map(|&n| f64::from(n) / 1e3).collect();
        let raw = [
            ("wire_mops", m.wire.mops(), scale, "Mop/s"),
            // Percentiles over every untraced sample of the run. The 99th
            // is not gated: on a shared 2-vCPU host it follows how often
            // the host stalls a thread for 1-6 ms, which changes from run
            // to run. It goes on the samples line with the 99.9th.
            ("wire_p50_us", quantile(&mut lat_us, 0.5), 1.0 / scale, "us"),
            ("wire_p90_us", quantile(&mut lat_us, 0.9), 1.0 / scale, "us"),
            ("inproc_mops", m.inproc.mops(), scale, "Mop/s"),
            ("setup_s", median(&setup_s), 1.0 / scale, "s"),
        ];
        let raw_json: Vec<String> = raw
            .iter()
            .map(|(n, v, _, _)| format!("\"{n}\": {v}"))
            .collect();
        println!(
            "{{\"samples\": {{\"latency\": {}, \"wire_p99_us\": {}, \"wire_p999_us\": {}, \
             \"wire_mops\": [{}], \"wire_p50_us\": [{}], \"inproc_mops\": [{}], \"setup_s\": [{}], \
             \"host_msteps\": {}, \"rate_scale\": {scale}, \"raw\": {{{}}}}}}}",
            lat_us.len(),
            quantile(&mut lat_us, 0.99),
            quantile(&mut lat_us, 0.999),
            list(&m.wire.segments),
            list(&m.p50_us),
            list(&m.inproc.segments),
            list(&setup_s),
            calib.msteps(),
            raw_json.join(", "),
        );
        for (name, value, factor, unit) in raw {
            metrics.add(name, value * factor, unit);
        }
        metrics.add("bytes_per_key", m.bytes_per_key, "B/key");
    } else {
        let ledger_budget = (args.seconds / 2.0 * 1e9) as u64;
        let l = ledger::run(
            &data,
            &entries,
            layers.expect("layers are loaded for a traced run"),
            &m.ops,
            &m.answers,
            ledger_budget,
            &mut spans,
        );
        attempted += l.ops * 5;
        failed += l.mismatches;
        if m.traced.is_empty() || m.wire.is_empty() || l.ops == 0 {
            return Err("the traced run completed no wire segment or ledger window".to_string());
        }
        let traced_mops = m.traced.mops();
        let wire_ns = 1e3 / traced_mops;
        let index_ns = l.inline_ns;
        let protocol_ns = l.proto_ns - index_ns;
        let socket_ns = wire_ns - l.proto_ns;
        println!(
            "{{\"ledger\": {{\"wire_ns\": {wire_ns}, \"trie_ns\": {}, \"sync_self_ns\": {}, \
             \"shard_inline_self_ns\": {}, \"shard_pool_self_ns\": {}, \
             \"index_ns\": {index_ns}, \"protocol_ns\": {protocol_ns}, \"socket_ns\": {socket_ns}, \
             \"proto_exec_ns\": {}, \"sum_ns\": {}, \"ops\": {}}}}}",
            l.trie_ns,
            l.sync_ns - l.trie_ns,
            l.inline_ns - l.sync_ns,
            l.pool_ns - l.inline_ns,
            l.exec_ns,
            index_ns + protocol_ns + socket_ns,
            l.ops,
        );
        let p = &l.probes;
        let per_op = |v: f64| v / wire_ops;
        let opgen_ns = m.opgen_ns as f64 / m.ops.len().max(1) as f64;
        let costs = m.costs;
        let per_req = |v: u64| v as f64 / costs.requests.max(1) as f64;
        metrics.add("ycsb.corpus_s", median(&corpus_s), "s");
        metrics.add("ycsb.opgen_ns", opgen_ns, "ns");
        metrics.add("trie.get_ns", p.trie_get_ns, "ns");
        metrics.add("trie.batch_ns", l.trie_ns, "ns");
        metrics.add("trie.insert_ns", p.trie_insert_ns, "ns");
        metrics.add("trie.depth_mean", l.depth_mean, "nodes");
        metrics.add("mlp.get_ns", p.mlp_get_ns, "ns");
        metrics.add("batch.get_ns", p.batch_get_ns, "ns");
        metrics.add("scan.batch_ns", p.scan_batch_ns, "ns");
        metrics.add("sync.self_ns", l.sync_ns - l.trie_ns, "ns");
        metrics.add("sync.insert_ns", p.sync_insert_ns, "ns");
        metrics.add("epoch.pin_ns.1t", p.pin_ns_1t, "ns");
        metrics.add("epoch.pin_ns.2t", p.pin_ns_2t, "ns");
        metrics.add("shard.inline_self_ns", l.inline_ns - l.sync_ns, "ns");
        metrics.add("shard.pool_self_ns", l.pool_ns - l.inline_ns, "ns");
        metrics.add("shard.imbalance", l.imbalance, "ratio");
        metrics.add("arena.get_ns", p.arena_get_ns, "ns");
        metrics.add("arena.bytes_per_key", p.arena_bytes_per_key, "B/key");
        metrics.add("protocol.req_encode_ns", l.req_encode_ns, "ns");
        metrics.add("protocol.req_decode_ns", l.req_decode_ns, "ns");
        metrics.add("protocol.resp_encode_ns", l.resp_encode_ns, "ns");
        metrics.add("protocol.resp_decode_ns", l.resp_decode_ns, "ns");
        metrics.add(
            "protocol.bytes_in_per_op",
            per_op(s1.bytes_in - s0.bytes_in),
            "B",
        );
        metrics.add(
            "protocol.bytes_out_per_op",
            per_op(s1.bytes_out - s0.bytes_out),
            "B",
        );
        metrics.add("server.pipeline_ns", l.pipeline_ns, "ns");
        metrics.add(
            "server.exec_ns",
            (s1.net_exec_ns - s0.net_exec_ns) / (s1.net_ops - s0.net_ops).max(1.0),
            "ns",
        );
        metrics.add(
            "server.requests_per_op",
            per_op(s1.requests - s0.requests),
            "ratio",
        );
        metrics.add("client.send_ns", per_req(costs.send_ns), "ns");
        metrics.add("client.recv_wait_ns", per_req(costs.recv_wait_ns), "ns");
        metrics.add("socket.self_ns", socket_ns, "ns");
        metrics.add("share.index", index_ns / wire_ns, "frac");
        metrics.add("share.protocol", protocol_ns / wire_ns, "frac");
        metrics.add("share.socket", socket_ns / wire_ns, "frac");
        metrics.add(
            "trace.overhead_frac",
            1.0 - traced_mops / m.wire.mops(),
            "frac",
        );
        if let Some(path) = &args.trace_out {
            spans
                .write(path, &ledger::LAYERS)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    if let Some((name, v, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number ({v})"));
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: wire or layer answers differ from the in-process answers");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
