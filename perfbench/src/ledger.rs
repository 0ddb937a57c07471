//! The traced run's per-layer cost ledger and single-layer probes.
//!
//! The ledger replays the workload's exact windows through stacked
//! layers, each on its own freshly bulk-loaded index: `HotTrie` →
//! `ConcurrentHot` → `ShardedHot` inline → `ShardedHot` on its worker
//! pool → the in-memory protocol path over the workload's index
//! configuration. Layers alternate within every window, so host drift
//! lands on all of them alike, and every layer's answers are checked
//! against the reference answers. A layer's self time is its cost minus
//! the cost of the layer it wraps.

use crate::exec::{
    arena_copy, Layer, ProtoPath, ProtoStamps, Replayer, ShardLayer, SyncLayer, TrieLayer, WINDOW,
};
use crate::trace::{Spans, WindowRec};
use crate::util::{median, now_ns, Op};
use crate::Spec;
use hot_core::sync::ConcurrentCompact;
use hot_core::{numa, BatchCursor, CompactBatchCursor, MlpScheduler};
use hot_server::NetData;
use std::hint::black_box;

pub const LAYERS: [&str; 5] = [
    "ledger.trie",
    "ledger.sync",
    "ledger.shard_inline",
    "ledger.shard_pool",
    "ledger.protocol",
];

/// Per-op costs from the ledger, in ns.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops replayed through every layer.
    pub ops: usize,
    /// Answers from any layer that differ from the reference answers.
    pub mismatches: usize,
    pub trie_ns: f64,
    pub sync_ns: f64,
    pub inline_ns: f64,
    pub pool_ns: f64,
    /// The whole in-memory protocol path.
    pub proto_ns: f64,
    pub req_encode_ns: f64,
    pub req_decode_ns: f64,
    /// The path's execute step: the inline router the server executes
    /// on, measured a second time.
    pub exec_ns: f64,
    pub resp_encode_ns: f64,
    pub resp_decode_ns: f64,
    /// Server side of the path: request decode → execute → response
    /// encode.
    pub pipeline_ns: f64,
    pub imbalance: f64,
    pub depth_mean: f64,
    pub probes: Probes,
}

/// The stacked layers, each a freshly bulk-loaded index over its own copy
/// of the tuple store.
pub struct Layers {
    trie: TrieLayer,
    sync: SyncLayer,
    inline: ShardLayer,
    pool: ShardLayer,
    proto: ProtoPath,
}

impl Layers {
    pub fn load(spec: &Spec, data: &NetData, entries: &[(&[u8], u64)]) -> Layers {
        let arena = arena_copy(data);
        Layers {
            trie: TrieLayer::load(&arena_copy(data), entries),
            sync: SyncLayer::load(&arena_copy(data), entries),
            inline: ShardLayer::load(&arena_copy(data), entries, spec.shards, false),
            pool: ShardLayer::load(&arena_copy(data), entries, spec.shards, true),
            proto: ProtoPath::new(
                ShardLayer::load(&arena, entries, spec.shards, false),
                &arena,
            ),
        }
    }
}

/// Replay `ops` (whose reference answers are `answers`) window by window
/// through every layer until `budget_ns` has passed, then run the probes.
pub fn run(
    data: &NetData,
    entries: &[(&[u8], u64)],
    layers: Layers,
    ops: &[Op],
    answers: &[u64],
    budget_ns: u64,
    spans: &mut Spans,
) -> Ledger {
    let Layers {
        mut trie,
        mut sync,
        mut inline,
        mut pool,
        mut proto,
    } = layers;
    let mut replayer = Replayer::new(data);
    let mut got = Vec::with_capacity(WINDOW);
    let mut total = [0u64; LAYERS.len()];
    let mut parts = [0u64; 6];
    let mut out = Ledger::default();

    let deadline = now_ns() + budget_ns;
    for (w, window) in ops.chunks(WINDOW).enumerate() {
        if now_ns() >= deadline {
            break;
        }
        let expected = &answers[w * WINDOW..w * WINDOW + window.len()];
        let mut rec = WindowRec {
            start: now_ns(),
            end: 0,
            layers: [(0, 0); LAYERS.len()],
            proto: ProtoStamps::default(),
        };
        for k in 0..LAYERS.len() {
            let layer = (w + k) % LAYERS.len();
            got.clear();
            let t0 = now_ns();
            match layer {
                0 => replayer.window(&mut trie, window, &mut got),
                1 => replayer.window(&mut sync, window, &mut got),
                2 => replayer.window(&mut inline, window, &mut got),
                3 => replayer.window(&mut pool, window, &mut got),
                _ => {
                    rec.proto = proto.window(data, window, &mut got);
                    for (i, (_, a, b)) in rec.proto.steps().into_iter().enumerate() {
                        parts[i] += b - a;
                    }
                    parts[5] += rec.proto.resp_encoded - rec.proto.req_encoded;
                }
            }
            let t1 = now_ns();
            total[layer] += t1 - t0;
            rec.layers[layer] = (t0, t1);
            out.mismatches += got.iter().zip(expected).filter(|(g, e)| g != e).count();
            out.mismatches += expected.len().abs_diff(got.len());
        }
        rec.end = now_ns();
        spans.window(rec);
        out.ops += window.len();
    }

    let per_op = |ns: u64| ns as f64 / out.ops.max(1) as f64;
    out.trie_ns = per_op(total[0]);
    out.sync_ns = per_op(total[1]);
    out.inline_ns = per_op(total[2]);
    out.pool_ns = per_op(total[3]);
    out.proto_ns = per_op(total[4]);
    out.req_encode_ns = per_op(parts[0]);
    out.req_decode_ns = per_op(parts[1]);
    out.exec_ns = per_op(parts[2]);
    out.resp_encode_ns = per_op(parts[3]);
    out.resp_decode_ns = per_op(parts[4]);
    out.pipeline_ns = per_op(parts[5]);
    out.imbalance = inline.0.imbalance();
    out.depth_mean = trie.0.depth_stats().mean_depth();
    drop((pool, proto, inline));
    out.probes = probes(data, entries, &ops[..out.ops], &mut trie, &sync);
    out
}

/// Single-layer costs, in ns per op (per key for lookups and upserts, per
/// request for scans).
#[derive(Debug, Default)]
pub struct Probes {
    pub trie_get_ns: f64,
    pub mlp_get_ns: f64,
    pub batch_get_ns: f64,
    pub scan_batch_ns: f64,
    pub trie_insert_ns: f64,
    pub sync_insert_ns: f64,
    pub arena_get_ns: f64,
    pub arena_bytes_per_key: f64,
    pub pin_ns_1t: f64,
    pub pin_ns_2t: f64,
}

/// Keys per probe pass.
const PROBE_KEYS: usize = 50_000;
/// Probe passes; each probe reports its median pass.
const PROBE_REPS: usize = 5;
/// Scan length of the scan probe for ops that are not scans.
const PROBE_SCAN_LEN: usize = 10;
/// Epoch pins per probe pass and thread.
const PINS: usize = 200_000;

fn time_ns(n: usize, f: impl FnOnce()) -> f64 {
    let t0 = now_ns();
    f();
    (now_ns() - t0) as f64 / n.max(1) as f64
}

fn pin_pass() -> f64 {
    time_ns(PINS, || {
        for _ in 0..PINS {
            drop(black_box(crossbeam_epoch::pin()));
        }
    })
}

/// Each probe runs on the workload's own op keys (the ledger's first
/// keys); passes of all probes alternate.
fn probes(
    data: &NetData,
    entries: &[(&[u8], u64)],
    ops: &[Op],
    trie: &mut TrieLayer,
    sync: &SyncLayer,
) -> Probes {
    let ops = &ops[..ops.len().min(PROBE_KEYS)];
    let keys: Vec<&[u8]> = ops
        .iter()
        .map(|o| data.dataset.keys[o.key()].as_slice())
        .collect();
    let tids: Vec<u64> = ops.iter().map(|o| data.tids[o.key()]).collect();
    let scans: Vec<(&[u8], usize)> = ops
        .iter()
        .zip(&keys)
        .map(|(o, &k)| match *o {
            Op::Scan(_, len) => (k, usize::from(len)),
            _ => (k, PROBE_SCAN_LEN),
        })
        .collect();
    let arena = ConcurrentCompact::new();
    arena.bulk_load(entries).expect("sorted distinct entries");
    let arena_bytes_per_key = arena.memory_stats().footprint_per_key();

    let n = keys.len();
    let mut found = vec![None; WINDOW];
    let (mut tid_buf, mut bounds) = (Vec::new(), Vec::new());
    let mut sched = MlpScheduler::new();
    let mut cursor = BatchCursor::new();
    let mut compact_cursor = CompactBatchCursor::new();
    let mut samples: [Vec<f64>; 9] = Default::default();
    for _ in 0..PROBE_REPS {
        samples[0].push(time_ns(n, || {
            for k in &keys {
                black_box(trie.0.get(k));
            }
        }));
        samples[1].push(time_ns(n, || {
            for w in keys.chunks(WINDOW) {
                trie.0.get_batch_ooo(w, &mut found[..w.len()], &mut sched);
            }
        }));
        samples[2].push(time_ns(n, || {
            for w in keys.chunks(WINDOW) {
                trie.0.get_batch_with(w, &mut found[..w.len()], &mut cursor);
            }
        }));
        samples[3].push(time_ns(n, || {
            for w in scans.chunks(WINDOW) {
                trie.scans(w, &mut tid_buf, &mut bounds);
            }
        }));
        samples[4].push(time_ns(n, || {
            for (k, &t) in keys.iter().zip(&tids) {
                black_box(trie.0.insert(k, t));
            }
        }));
        samples[5].push(time_ns(n, || {
            for (k, &t) in keys.iter().zip(&tids) {
                black_box(sync.0.insert(k, t));
            }
        }));
        samples[6].push(time_ns(n, || {
            for w in keys.chunks(WINDOW) {
                arena.get_batch_with(&mut compact_cursor, w, &mut found[..w.len()]);
            }
        }));
        samples[7].push(pin_pass());
        samples[8].push({
            let barrier = std::sync::Barrier::new(2);
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                // One thread per core: threads spawned from a pinned
                // client would otherwise share its core and take turns.
                let runs: Vec<_> = (0..2)
                    .map(|core| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            numa::pin_to_core(core);
                            barrier.wait();
                            pin_pass()
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().expect("pin probe thread"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / per_thread.len() as f64
        });
    }
    black_box(&found);
    Probes {
        trie_get_ns: median(&samples[0]),
        mlp_get_ns: median(&samples[1]),
        batch_get_ns: median(&samples[2]),
        scan_batch_ns: median(&samples[3]),
        trie_insert_ns: median(&samples[4]),
        sync_insert_ns: median(&samples[5]),
        arena_get_ns: median(&samples[6]),
        arena_bytes_per_key,
        pin_ns_1t: median(&samples[7]),
        pin_ns_2t: median(&samples[8]),
    }
}
