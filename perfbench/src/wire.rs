//! The closed-loop load generator: one connection, [`WINDOW`] requests in
//! flight, the next request queued as each response arrives and written
//! with the others queued before the generator waits. It lives here, not
//! in `hot-client`, so the traffic stays fixed while the client crate
//! changes. Every response is checked against the in-process answer for
//! the same op index.

use crate::exec::WINDOW;
use crate::trace::{RequestRec, Spans};
use crate::util::{answer_of, now_ns, Op};
use hot_server::protocol::{FrameDecoder, Response};
use hot_server::NetData;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Per-request client costs summed over a traced segment.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientCosts {
    pub requests: u64,
    pub send_ns: u64,
    pub recv_wait_ns: u64,
}

/// What one wire segment did.
#[derive(Debug, Default)]
pub struct Segment {
    /// Requests answered.
    pub ops: usize,
    /// Answers that differed from the in-process answer, or were ERR.
    pub failed: usize,
    /// Requests sent but never answered.
    pub lost: usize,
    /// Wall time of the segment, drain included.
    pub ns: u64,
}

pub struct LoadGen {
    stream: TcpStream,
    decoder: FrameDecoder,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

/// A request in flight: its op index, when it was encoded, and when the
/// write that carried it began and ended.
struct InFlight {
    op: usize,
    enc_start: u64,
    enc_end: u64,
    sent: u64,
    send_end: u64,
}

impl LoadGen {
    pub fn connect(addr: SocketAddr) -> std::io::Result<LoadGen> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LoadGen {
            stream,
            decoder: FrameDecoder::new(),
            rbuf: vec![0u8; 64 << 10],
            wbuf: Vec::with_capacity(64 << 10),
        })
    }

    /// Block until the socket delivers more bytes and feed them to the
    /// decoder.
    fn read_more(&mut self) -> std::io::Result<()> {
        let n = self.stream.read(&mut self.rbuf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.decoder.feed(&self.rbuf[..n]);
        Ok(())
    }

    /// Drive ops `from..` until `deadline_ns` ([`now_ns`] time), then
    /// drain what is in flight. `answers[i]` is the in-process answer to op
    /// `i`. The first [`WINDOW`] requests go out in one write; after that
    /// each response taken up queues the next request, and what is queued
    /// is written in one write as soon as no decoded response is left,
    /// before the generator blocks on the socket. So no request waits
    /// while the generator waits, and the server sees every request that
    /// arrived together. Latency samples (write of the request → its
    /// response taken up by the generator) go to `lat_ns`. With `spans`,
    /// every request records a `client.request` span with its four
    /// children and `costs` sums them.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        data: &NetData,
        ops: &[Op],
        answers: &[u64],
        from: usize,
        deadline_ns: u64,
        lat_ns: &mut Vec<u32>,
        mut spans: Option<(&mut Spans, &mut ClientCosts)>,
    ) -> Segment {
        let traced = spans.is_some();
        let to = ops.len();
        let mut seg = Segment::default();
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        // The last `queued` requests of `inflight` are encoded in `wbuf`
        // but not written yet.
        let mut queued = 0usize;
        let mut next = from;
        let started = now_ns();
        self.wbuf.clear();
        while next < to && inflight.len() < WINDOW {
            inflight.push_back(self.queue(data, next, ops[next], traced));
            queued += 1;
            next += 1;
        }
        while !inflight.is_empty() {
            let mut wait_start = now_ns();
            let body = loop {
                match self.decoder.next_frame() {
                    Ok(Some(body)) => break Some(body),
                    Ok(None) => {}
                    Err(_) => break None,
                }
                if queued > 0 {
                    let sent = now_ns();
                    if self.stream.write_all(&self.wbuf).is_err() {
                        break None;
                    }
                    let send_end = now_ns();
                    self.wbuf.clear();
                    for r in inflight.iter_mut().rev().take(queued) {
                        r.sent = sent;
                        r.send_end = send_end;
                    }
                    queued = 0;
                    if let Some((_, costs)) = spans.as_mut() {
                        costs.send_ns += send_end - sent;
                    }
                    wait_start = send_end;
                }
                if self.read_more().is_err() {
                    break None;
                }
            };
            let Some(body) = body else {
                seg.lost += inflight.len();
                break;
            };
            let received = now_ns();
            let req = inflight
                .pop_front()
                .expect("a response answers a request in flight");
            let answer = match Response::decode(&body) {
                Ok(resp) => answer_of(&resp),
                Err(_) => !answers[req.op],
            };
            let decoded = if traced { now_ns() } else { 0 };
            seg.ops += 1;
            if answer != answers[req.op] {
                seg.failed += 1;
            }
            lat_ns.push(u32::try_from(received - req.sent).unwrap_or(u32::MAX));
            if let Some((spans, costs)) = spans.as_mut() {
                spans.request(RequestRec {
                    op: req.op,
                    enc_start: req.enc_start,
                    enc_end: req.enc_end,
                    sent: req.sent,
                    send_end: req.send_end,
                    wait_start,
                    received,
                    decoded,
                });
                costs.requests += 1;
                costs.recv_wait_ns += received - wait_start;
            }
            if next < to && received < deadline_ns {
                inflight.push_back(self.queue(data, next, ops[next], traced));
                queued += 1;
                next += 1;
            }
        }
        seg.ns = now_ns() - started;
        seg
    }

    /// Encode the request for op `i` onto the write buffer. Only a traced
    /// run stamps the encoding.
    fn queue(&mut self, data: &NetData, i: usize, op: Op, traced: bool) -> InFlight {
        let enc_start = if traced { now_ns() } else { 0 };
        op.request(data).encode(&mut self.wbuf);
        let enc_end = if traced { now_ns() } else { 0 };
        InFlight {
            op: i,
            enc_start,
            enc_end,
            sent: 0,
            send_end: 0,
        }
    }
}
