//! In-process execution: the index layers the benchmark stacks, the
//! window replayer that drives them with the server's coalescing, and the
//! in-memory protocol path (encode → decode → execute → encode → decode,
//! with no socket).

use crate::util::{answer_of, answer_scan, answer_tid, now_ns, Op};
use hot_core::sync::ConcurrentHot;
use hot_core::{HotTrie, MlpScheduler, RouterScratch, ShardedHot};
use hot_keys::ArenaKeySource;
use hot_server::protocol::{err_code, FrameDecoder, Request, Response, MAX_SCAN_TIDS};
use hot_server::NetData;
use std::sync::Arc;

/// Ops per replay window: the server's default request window, and the
/// load generator's in-flight bound.
pub const WINDOW: usize = 128;

pub type Arena = Arc<ArenaKeySource>;

/// A private copy of the corpus's tuple store, with the same TIDs, so
/// indexes measured side by side never find each other's key records in
/// cache.
pub fn arena_copy(data: &NetData) -> Arena {
    let keys = &data.dataset.keys;
    let mut arena =
        ArenaKeySource::with_capacity(keys.len(), data.dataset.avg_key_len().ceil() as usize);
    for (key, &tid) in keys.iter().zip(&data.tids) {
        assert_eq!(
            arena.push(key),
            tid,
            "a copy of the tuple store keeps every TID"
        );
    }
    Arc::new(arena)
}

/// The three operations a window needs, however a layer implements them.
pub trait Layer {
    fn gets(&mut self, keys: &[&[u8]], out: &mut [Option<u64>]);
    fn scans(&mut self, reqs: &[(&[u8], usize)], tids: &mut Vec<u64>, bounds: &mut Vec<usize>);
    fn put(&mut self, key: &[u8], tid: u64) -> Option<u64>;
}

/// The single-threaded trie, driven through the out-of-order scheduler.
pub struct TrieLayer(pub HotTrie<Arena>, MlpScheduler);

impl TrieLayer {
    pub fn load(arena: &Arena, entries: &[(&[u8], u64)]) -> TrieLayer {
        let mut trie = HotTrie::new(Arc::clone(arena));
        trie.bulk_load(entries).expect("sorted distinct entries");
        TrieLayer(trie, MlpScheduler::new())
    }
}

impl Layer for TrieLayer {
    fn gets(&mut self, keys: &[&[u8]], out: &mut [Option<u64>]) {
        self.0.get_batch_ooo(keys, out, &mut self.1);
    }
    fn scans(&mut self, reqs: &[(&[u8], usize)], tids: &mut Vec<u64>, bounds: &mut Vec<usize>) {
        self.0.scan_batch_ooo(reqs, tids, bounds, &mut self.1);
    }
    fn put(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        self.0.insert(key, tid)
    }
}

/// The ROWEX trie: the same calls plus one epoch pin per batch or write.
pub struct SyncLayer(pub ConcurrentHot<Arena>, MlpScheduler);

impl SyncLayer {
    pub fn load(arena: &Arena, entries: &[(&[u8], u64)]) -> SyncLayer {
        let trie = ConcurrentHot::new(Arc::clone(arena));
        trie.bulk_load(entries).expect("sorted distinct entries");
        SyncLayer(trie, MlpScheduler::new())
    }
}

impl Layer for SyncLayer {
    fn gets(&mut self, keys: &[&[u8]], out: &mut [Option<u64>]) {
        self.0.get_batch_ooo(keys, out, &mut self.1);
    }
    fn scans(&mut self, reqs: &[(&[u8], usize)], tids: &mut Vec<u64>, bounds: &mut Vec<usize>) {
        self.0.scan_batch_ooo(reqs, tids, bounds, &mut self.1);
    }
    fn put(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        self.0.insert(key, tid)
    }
}

/// The range-partitioned router, inline or on its shard worker pool: the
/// index the server executes on.
pub struct ShardLayer(pub ShardedHot<Arena>, RouterScratch);

impl ShardLayer {
    pub fn load(arena: &Arena, entries: &[(&[u8], u64)], shards: usize, pool: bool) -> ShardLayer {
        let index = ShardedHot::with_config(Arc::clone(arena), shards, pool, false);
        index.bulk_load(entries).expect("sorted distinct entries");
        ShardLayer(index, RouterScratch::new())
    }
}

impl Layer for ShardLayer {
    fn gets(&mut self, keys: &[&[u8]], out: &mut [Option<u64>]) {
        self.0.get_batch_with(keys, out, &mut self.1);
    }
    fn scans(&mut self, reqs: &[(&[u8], usize)], tids: &mut Vec<u64>, bounds: &mut Vec<usize>) {
        self.0.scan_batch(reqs, tids, bounds, &mut self.1);
    }
    fn put(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        self.0.insert(key, tid)
    }
}

/// End of the run of same-kind ops starting at `i` (GETs and SCANs
/// coalesce; a PUT is a run of one).
fn run_end<T>(items: &[T], i: usize, same: impl Fn(&T) -> bool) -> usize {
    if !same(&items[i]) {
        return i + 1;
    }
    let mut j = i + 1;
    while j < items.len() && same(&items[j]) {
        j += 1;
    }
    j
}

/// Replays op windows on a [`Layer`] the way the server executes a
/// request window: maximal GET runs to one batch call, maximal SCAN runs
/// to one scan batch, PUTs one by one, answers in op order.
pub struct Replayer<'a> {
    data: &'a NetData,
    keys: Vec<&'a [u8]>,
    scans: Vec<(&'a [u8], usize)>,
    found: Vec<Option<u64>>,
    tids: Vec<u64>,
    bounds: Vec<usize>,
}

impl<'a> Replayer<'a> {
    pub fn new(data: &'a NetData) -> Replayer<'a> {
        Replayer {
            data,
            keys: Vec::with_capacity(WINDOW),
            scans: Vec::with_capacity(WINDOW),
            found: Vec::with_capacity(WINDOW),
            tids: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Execute `ops` on `layer`, appending one answer fingerprint per op.
    pub fn window<L: Layer + ?Sized>(&mut self, layer: &mut L, ops: &[Op], answers: &mut Vec<u64>) {
        let keys = &self.data.dataset.keys;
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                Op::Get(_) => {
                    let j = run_end(ops, i, |o| matches!(o, Op::Get(_)));
                    self.keys.clear();
                    self.keys
                        .extend(ops[i..j].iter().map(|o| keys[o.key()].as_slice()));
                    self.found.clear();
                    self.found.resize(j - i, None);
                    layer.gets(&self.keys, &mut self.found);
                    answers.extend(self.found.iter().map(|&f| answer_tid(f)));
                    i = j;
                }
                Op::Scan(..) => {
                    let j = run_end(ops, i, |o| matches!(o, Op::Scan(..)));
                    self.scans.clear();
                    self.scans.extend(ops[i..j].iter().map(|o| match *o {
                        Op::Scan(k, len) => (keys[k as usize].as_slice(), usize::from(len)),
                        _ => unreachable!("run holds only scans"),
                    }));
                    layer.scans(&self.scans, &mut self.tids, &mut self.bounds);
                    answers.extend(
                        self.bounds
                            .windows(2)
                            .map(|b| answer_scan(&self.tids[b[0]..b[1]])),
                    );
                    i = j;
                }
                Op::Put(k) => {
                    let k = k as usize;
                    answers.push(answer_tid(layer.put(&keys[k], self.data.tids[k])));
                    i += 1;
                }
            }
        }
    }
}

/// Span boundaries of one in-memory protocol window, in [`now_ns`] time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoStamps {
    pub start: u64,
    pub req_encoded: u64,
    pub req_decoded: u64,
    pub executed: u64,
    pub resp_encoded: u64,
    pub end: u64,
}

impl ProtoStamps {
    /// The path's five steps as (span name, start, end).
    pub fn steps(&self) -> [(&'static str, u64, u64); 5] {
        [
            ("protocol.req_encode", self.start, self.req_encoded),
            ("protocol.req_decode", self.req_encoded, self.req_decoded),
            ("server.exec", self.req_decoded, self.executed),
            ("protocol.resp_encode", self.executed, self.resp_encoded),
            ("protocol.resp_decode", self.resp_encoded, self.end),
        ]
    }
}

/// The server's request pipeline without the socket: the client's request
/// encoding, the server's frame decoding, its coalesced execution on the
/// index and its response encoding, then the client's response decoding.
/// The execution step mirrors the server's window executor through the
/// public API (GET runs → `get_batch_with`, SCAN runs → `scan_batch` with
/// a continuation token per page, PUTs validated against the tuple store
/// and inserted).
pub struct ProtoPath {
    index: ShardLayer,
    arena: Arena,
    wire: Vec<u8>,
    req_dec: FrameDecoder,
    reqs: Vec<Request>,
    resps: Vec<Response>,
    tids: Vec<u64>,
    bounds: Vec<usize>,
    found: Vec<Option<u64>>,
    resp_dec: FrameDecoder,
}

impl ProtoPath {
    pub fn new(index: ShardLayer, arena: &Arena) -> ProtoPath {
        ProtoPath {
            index,
            arena: Arc::clone(arena),
            wire: Vec::new(),
            req_dec: FrameDecoder::new(),
            reqs: Vec::with_capacity(WINDOW),
            resps: Vec::with_capacity(WINDOW),
            tids: Vec::new(),
            bounds: Vec::new(),
            found: Vec::new(),
            resp_dec: FrameDecoder::new(),
        }
    }

    /// Run one window through the whole path, appending one answer
    /// fingerprint per op.
    pub fn window(&mut self, data: &NetData, ops: &[Op], answers: &mut Vec<u64>) -> ProtoStamps {
        let start = now_ns();
        self.wire.clear();
        for op in ops {
            op.request(data).encode(&mut self.wire);
        }
        let req_encoded = now_ns();
        self.req_dec.feed(&self.wire);
        self.reqs.clear();
        while let Some(body) = self
            .req_dec
            .next_frame()
            .expect("well-formed request frames")
        {
            self.reqs
                .push(Request::decode(&body).expect("well-formed request"));
        }
        let req_decoded = now_ns();
        self.execute();
        let executed = now_ns();
        self.wire.clear();
        for r in &self.resps {
            r.encode(&mut self.wire);
        }
        let resp_encoded = now_ns();
        self.resp_dec.feed(&self.wire);
        while let Some(body) = self
            .resp_dec
            .next_frame()
            .expect("well-formed response frames")
        {
            answers.push(answer_of(
                &Response::decode(&body).expect("well-formed response"),
            ));
        }
        let end = now_ns();
        ProtoStamps {
            start,
            req_encoded,
            req_decoded,
            executed,
            resp_encoded,
            end,
        }
    }

    fn execute(&mut self) {
        self.resps.clear();
        let reqs = &self.reqs;
        let index = &mut self.index;
        let mut i = 0;
        while i < reqs.len() {
            match &reqs[i] {
                Request::Get { .. } => {
                    let j = run_end(reqs, i, |r| matches!(r, Request::Get { .. }));
                    let keys: Vec<&[u8]> = reqs[i..j]
                        .iter()
                        .map(|r| match r {
                            Request::Get { key } => key.as_slice(),
                            _ => unreachable!("run holds only GETs"),
                        })
                        .collect();
                    self.found.clear();
                    self.found.resize(keys.len(), None);
                    index.gets(&keys, &mut self.found);
                    self.resps.extend(self.found.iter().map(|f| match f {
                        Some(t) => Response::Tid(*t),
                        None => Response::None,
                    }));
                    i = j;
                }
                Request::Scan { .. } => {
                    let j = run_end(reqs, i, |r| matches!(r, Request::Scan { .. }));
                    let scans: Vec<(&[u8], usize)> = reqs[i..j]
                        .iter()
                        .map(|r| match r {
                            Request::Scan { start, limit } => {
                                (start.as_slice(), (*limit as usize).min(MAX_SCAN_TIDS))
                            }
                            _ => unreachable!("run holds only SCANs"),
                        })
                        .collect();
                    index.scans(&scans, &mut self.tids, &mut self.bounds);
                    for (s, b) in scans.iter().zip(self.bounds.windows(2)) {
                        let page = &self.tids[b[0]..b[1]];
                        let token = index.0.scan_token(page, s.1);
                        self.resps.push(Response::Scan {
                            tids: page.to_vec(),
                            token,
                        });
                    }
                    i = j;
                }
                Request::Put { tid, key } => {
                    let resp = match self.arena.try_key(*tid) {
                        Some(stored) if stored == key.as_slice() => match index.put(key, *tid) {
                            Some(old) => Response::Tid(old),
                            None => Response::None,
                        },
                        _ => Response::Error {
                            code: err_code::TID_MISMATCH,
                            msg: format!("tid {tid} does not resolve to its key"),
                        },
                    };
                    self.resps.push(resp);
                    i += 1;
                }
                other => unreachable!("the benchmark sends no {other:?}"),
            }
        }
    }
}
