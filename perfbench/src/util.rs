//! Small shared pieces: the compact op encoding, answer fingerprints,
//! order statistics and the monotonic clock every span is stamped with.

use hot_server::protocol::{Request, Response};
use hot_server::NetData;
use hot_ycsb::Operation;
use std::sync::OnceLock;
use std::time::Instant;

/// One workload operation, as small as the op log that both the wire
/// client and every in-process layer replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of key index `.0`.
    Get(u32),
    /// Upsert of key index `.0` with its own TID (YCSB update or insert).
    Put(u32),
    /// Range scan from key index `.0`, up to `.1` entries.
    Scan(u32, u8),
}

impl Op {
    pub fn from_ycsb(op: Operation) -> Op {
        let idx = |i: usize| u32::try_from(i).expect("key index fits in u32");
        match op {
            Operation::Read(i) => Op::Get(idx(i)),
            Operation::Update(i) | Operation::Insert(i) => Op::Put(idx(i)),
            Operation::Scan(i, len) => Op::Scan(
                idx(i),
                u8::try_from(len).expect("YCSB scans fetch at most 100"),
            ),
            Operation::ReadModifyWrite(_) => {
                unreachable!("the benchmark's workloads (A, C, E) never emit read-modify-write")
            }
        }
    }

    pub fn key(self) -> usize {
        match self {
            Op::Get(i) | Op::Put(i) | Op::Scan(i, _) => i as usize,
        }
    }

    /// The wire request for this op, exactly as the load generator sends it.
    pub fn request(self, data: &NetData) -> Request {
        let key = data.dataset.keys[self.key()].clone();
        match self {
            Op::Get(_) => Request::Get { key },
            Op::Put(i) => Request::Put {
                tid: data.tids[i as usize],
                key,
            },
            Op::Scan(_, len) => Request::Scan {
                start: key,
                limit: u32::from(len),
            },
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprint of a GET or PUT answer: the TID, or none.
pub fn answer_tid(tid: Option<u64>) -> u64 {
    match tid {
        Some(t) => mix(t ^ 0x7_1D00),
        None => mix(0x0_0E0E),
    }
}

/// Fingerprint of a SCAN answer: the whole TID list, in order.
pub fn answer_scan(tids: &[u64]) -> u64 {
    tids.iter()
        .fold(mix(tids.len() as u64 ^ 0x5CA_0000), |h, &t| mix(h ^ t))
}

/// Fingerprint of a wire response. An ERR (or any frame no op expects)
/// maps to a value no in-process answer produces in practice, so it counts
/// as a mismatch.
pub fn answer_of(resp: &Response) -> u64 {
    match resp {
        Response::None => answer_tid(None),
        Response::Tid(t) => answer_tid(Some(*t)),
        Response::Scan { tids, .. } => answer_scan(tids),
        _ => mix(0xE_EEEE),
    }
}

/// Nanoseconds since the first call: the one clock all spans share.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `q`-quantile of `v` by linear interpolation (sorts `v`).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}
