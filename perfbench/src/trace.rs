//! In-memory span store. Spans are recorded by the benchmark around its
//! calls into each layer, kept in memory as fixed-size records while the
//! run measures, and written out once at exit as one line per span.

use crate::exec::ProtoStamps;
use std::io::Write;
use std::path::Path;

/// Client requests kept per run; later requests still feed the per-layer
/// sums but are not written out.
const MAX_REQUESTS: usize = 100_000;

/// One wire request: `client.request` and its four children.
#[derive(Debug, Clone, Copy)]
pub struct RequestRec {
    pub op: usize,
    pub enc_start: u64,
    pub enc_end: u64,
    pub sent: u64,
    pub send_end: u64,
    pub wait_start: u64,
    pub received: u64,
    pub decoded: u64,
}

/// One ledger window: `ledger.window`, one child per layer call, and the
/// protocol path's steps under its layer span.
#[derive(Debug, Clone, Copy)]
pub struct WindowRec {
    pub start: u64,
    pub end: u64,
    /// (start, end) of each layer call, in ledger layer order.
    pub layers: [(u64, u64); 5],
    pub proto: ProtoStamps,
}

#[derive(Default)]
pub struct Spans {
    requests: Vec<RequestRec>,
    requests_dropped: u64,
    windows: Vec<WindowRec>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            requests: Vec::with_capacity(MAX_REQUESTS),
            ..Spans::default()
        }
    }

    pub fn request(&mut self, rec: RequestRec) {
        if self.requests.len() < MAX_REQUESTS {
            self.requests.push(rec);
        } else {
            self.requests_dropped += 1;
        }
    }

    pub fn window(&mut self, rec: WindowRec) {
        self.windows.push(rec);
    }

    /// Write every kept span as a `name,id,parent,start_ns,end_ns` line;
    /// spans of one request share its op index as their `request` column.
    pub fn write(&self, path: &Path, layer_names: &[&str; 5]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# client requests not kept: {}", self.requests_dropped)?;
        writeln!(out, "name,id,parent,request,start_ns,end_ns")?;
        let mut id = 0u64;
        let mut span = |out: &mut dyn Write, name: &str, parent: Option<u64>, req: &str, a, b| {
            id += 1;
            let p = parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{name},{id},{p},{req},{a},{b}").map(|()| id)
        };
        for r in &self.requests {
            let req = r.op.to_string();
            let top = span(
                &mut out,
                "client.request",
                None,
                &req,
                r.enc_start,
                r.decoded,
            )?;
            span(
                &mut out,
                "protocol.req_encode",
                Some(top),
                &req,
                r.enc_start,
                r.enc_end,
            )?;
            span(&mut out, "client.send", Some(top), &req, r.sent, r.send_end)?;
            span(
                &mut out,
                "client.recv_wait",
                Some(top),
                &req,
                r.wait_start,
                r.received,
            )?;
            span(
                &mut out,
                "protocol.resp_decode",
                Some(top),
                &req,
                r.received,
                r.decoded,
            )?;
        }
        for w in &self.windows {
            let top = span(&mut out, "ledger.window", None, "", w.start, w.end)?;
            for (name, &(a, b)) in layer_names.iter().zip(&w.layers) {
                let layer = span(&mut out, name, Some(top), "", a, b)?;
                if *name == "ledger.protocol" {
                    for (step, a, b) in w.proto.steps() {
                        span(&mut out, step, Some(layer), "", a, b)?;
                    }
                }
            }
        }
        out.flush()
    }
}
