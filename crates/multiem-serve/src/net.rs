//! Event-driven connection multiplexer: the serving layer's I/O substrate.
//!
//! The first serving front end pinned one blocking pool worker to every live
//! keep-alive connection, so concurrency beyond `--workers` queued even when
//! every shard was idle. This module replaces that substrate with a small
//! reactor, the same thin-I/O-over-compute-pool split the related VectorDB
//! repo uses:
//!
//! * an **acceptor** thread blocks on the listener and deals new
//!   connections round-robin to the event loops (sockets are switched to
//!   nonblocking mode at accept time);
//! * **N I/O event loops** (`io_threads`) each multiplex *many* nonblocking
//!   `TcpStream`s via readiness polling: every connection owns a
//!   [`RequestParser`] state machine fed from partial reads and an output
//!   buffer drained by partial writes, so 10k idle keep-alive connections
//!   cost buffers, not threads;
//! * fully parsed requests are dispatched to the shared worker
//!   [`ThreadPool`] with [`ThreadPool::execute`]; the job ends by sending
//!   the rendered response back to the owning event loop's channel (which
//!   doubles as its wakeup), so no I/O thread parks on a response, and the
//!   loop queues the bytes on the connection for writeback.
//!
//! Each connection is **pipelined**: up to [`MAX_PIPELINE`] requests may be
//! in flight at once, so a client that writes a burst of requests without
//! waiting for responses pays one round trip for the whole burst instead of
//! one per request. HTTP/1.1 requires responses in request order, and the
//! worker pool completes them in *any* order, so every dispatched request
//! takes a per-connection sequence number and completions are resequenced:
//! a response whose turn has not come waits in a small pending buffer, and
//! responses are appended to the connection's output buffer strictly in
//! sequence order. Requests the server answers inline on the I/O thread
//! (liveness/stats probes) take a sequence number like
//! any other request, so they cannot jump the queue ahead of an earlier
//! in-flight request on the same connection. A malformed request mid-
//! pipeline is sequenced the same way: its 400 flushes after every earlier
//! response, then the connection closes.
//!
//! Without `epoll` in `std` (and with `unsafe` forbidden workspace-wide),
//! readiness is discovered by polling: a loop that made progress spins
//! again immediately; an idle loop parks on its channel with an
//! exponentially backed-off timeout (200 µs → 10 ms), so active periods add
//! microseconds of latency while idle fleets of connections cost a few
//! wakeups per second. Worker completions land on the channel and wake the
//! loop instantly. A connection with queued work — unflushed response bytes
//! or buffered pipelined requests stalled behind in-flight ones — resets
//! the backoff to its shortest park, so queued work never waits out the
//! 10 ms idle cap.
//!
//! # Graceful shutdown
//!
//! [`Reactor::join`] returns only after a shutdown is signalled (the shared
//! `AtomicBool`) **and** every dispatched request has drained: the acceptor
//! stops, event loops stop parsing new requests but keep accepting worker
//! completions and flushing response bytes, and only when no connection has
//! a request in flight or unflushed output (or [`DRAIN_DEADLINE`] passes)
//! do the loops exit. The server layer then flushes WALs and exits cleanly.

use crate::http::{reason_phrase, render_response, Request, RequestParser};
use crate::obs::NetMetrics;
use rayon::ThreadPool;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a shutdown waits for in-flight requests and unflushed responses
/// before abandoning them.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Read timeout for a request that has started arriving but never
/// completes: the stream position is unknown, so the connection is dropped.
const PARTIAL_REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Shortest idle park (one spin after progress); doubles per idle
/// iteration.
const POLL_MIN: Duration = Duration::from_micros(200);
/// Longest idle park while connections are registered.
const POLL_MAX: Duration = Duration::from_millis(10);
/// Idle park with no connections at all (only channel traffic can matter).
const POLL_EMPTY: Duration = Duration::from_millis(50);

/// Bytes read per `read` call on a ready connection.
const READ_CHUNK: usize = 16 << 10;

/// Per-connection cap on pipelined requests in flight (dispatched but not
/// yet sequenced into the output buffer). Reads pause at the cap, so a
/// connection's parser buffer and pending-response memory stay bounded no
/// matter how deep the client pipelines.
pub const MAX_PIPELINE: usize = 32;

/// What the server decided about one parsed request.
pub enum Routed {
    /// Answered inline on the I/O thread — for requests that must stay
    /// responsive when every worker is busy (probes, scrapes): the rendered
    /// response bytes and whether to close the connection afterwards.
    Inline(Vec<u8>, bool),
    /// A job for the worker pool, returning the same pair.
    Worker(Box<dyn FnOnce() -> (Vec<u8>, bool) + Send>),
}

/// The request handler, called once per parsed request on the I/O thread
/// that parsed it. Must not block: anything that can goes in a
/// [`Routed::Worker`] job.
pub type Handler = dyn Fn(Request) -> Routed + Send + Sync;

/// Messages delivered to an event loop's channel (which is also its waker).
enum LoopMsg {
    /// A freshly accepted connection to adopt.
    Accept(TcpStream),
    /// A worker finished request `seq` for connection `slot` (guarded by
    /// `generation` against slot reuse).
    Response {
        slot: usize,
        generation: u64,
        seq: u64,
        bytes: Vec<u8>,
        close: bool,
    },
    /// Bare wakeup (shutdown nudge).
    Wake,
}

/// The multiplexer: acceptor + event-loop threads. See the [module
/// docs](self).
pub struct Reactor {
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Spawn the acceptor and `io_threads` event loops over `listener`.
    /// `handler` routes every parsed request: answered inline, or as a job
    /// run on `pool`. Setting `shutdown` and poking the listener with a
    /// connect (to unblock the acceptor) begins the drain; the acceptor
    /// relays the wakeup to every event loop on its way out.
    pub fn start(
        listener: TcpListener,
        io_threads: usize,
        pool: Arc<ThreadPool>,
        handler: Arc<Handler>,
        shutdown: Arc<AtomicBool>,
        net_metrics: NetMetrics,
    ) -> io::Result<Self> {
        let io_threads = io_threads.max(1);
        let mut senders = Vec::with_capacity(io_threads);
        let mut loops = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let (tx, rx) = mpsc::channel::<LoopMsg>();
            let event_loop = EventLoop {
                rx,
                tx: tx.clone(),
                conns: Vec::new(),
                free: Vec::new(),
                next_generation: 0,
                pool: Arc::clone(&pool),
                handler: Arc::clone(&handler),
                shutdown: Arc::clone(&shutdown),
                drain_deadline: None,
                net_metrics: net_metrics.clone(),
            };
            senders.push(tx);
            loops.push(
                std::thread::Builder::new()
                    .name(format!("multiem-io-{i}"))
                    .spawn(move || event_loop.run())?,
            );
        }

        let accept_txs = senders.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new()
            .name("multiem-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Round-robin deal; a closed loop (shutdown race) just
                    // drops the connection.
                    let _ = accept_txs[next % accept_txs.len()].send(LoopMsg::Accept(stream));
                    next += 1;
                }
                // The shutdown signaller unblocked this thread with a
                // self-connect; pass the wakeup on so parked event loops
                // begin their drain immediately instead of at the next
                // poll tick.
                for tx in &accept_txs {
                    let _ = tx.send(LoopMsg::Wake);
                }
            })?;

        Ok(Self {
            acceptor: Some(acceptor),
            loops,
        })
    }

    /// Block until the acceptor and every event loop exit (which they do
    /// once shutdown is signalled and in-flight work has drained).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes (`written..` not yet on the wire). Responses
    /// are appended strictly in request order; the buffer is compacted once
    /// fully flushed (capacity is kept for reuse).
    outbuf: Vec<u8>,
    written: usize,
    /// Sequence number the next dispatched request takes.
    next_seq: u64,
    /// Sequence number the next response appended to `outbuf` must carry;
    /// completions arriving out of order wait in `pending`.
    flushed_seq: u64,
    /// Out-of-order completions `(seq, bytes, close)` waiting for their
    /// turn. At most [`MAX_PIPELINE`] entries; scanned linearly.
    pending: Vec<(u64, Vec<u8>, bool)>,
    /// No further requests will be parsed from this connection (the peer
    /// sent `Connection: close`, or a malformed request was rejected).
    /// Responses already in flight still flush in order.
    stopped: bool,
    /// Close once `outbuf` drains.
    close_after: bool,
    /// Peer closed its write half; serve what is queued, then drop.
    read_closed: bool,
    /// Guards stale completions after slot reuse.
    generation: u64,
    /// When the currently-buffered partial request started arriving.
    partial_since: Option<Instant>,
}

impl Conn {
    fn has_pending_output(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// Requests dispatched whose responses are not yet sequenced into
    /// `outbuf` (including completions parked in `pending`).
    fn inflight(&self) -> usize {
        (self.next_seq - self.flushed_seq) as usize
    }
}

struct EventLoop {
    rx: Receiver<LoopMsg>,
    /// Kept alive so `rx` never disconnects; cloned into worker completions.
    tx: Sender<LoopMsg>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    pool: Arc<ThreadPool>,
    handler: Arc<Handler>,
    shutdown: Arc<AtomicBool>,
    drain_deadline: Option<Instant>,
    net_metrics: NetMetrics,
}

impl EventLoop {
    fn run(mut self) {
        let mut idle_iters = 0u32;
        loop {
            let mut progress = false;
            while let Ok(msg) = self.rx.try_recv() {
                progress |= self.handle(msg);
            }
            progress |= self.poll_conns();

            if self.shutdown.load(Ordering::SeqCst) {
                let deadline = *self
                    .drain_deadline
                    .get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
                if self.drained() || Instant::now() >= deadline {
                    break;
                }
            }

            if progress {
                idle_iters = 0;
                continue;
            }
            // A connection with queued work — unflushed response bytes, or
            // buffered pipelined requests stalled behind in-flight ones —
            // must never wait out the exponential backoff; reset to the
            // shortest park so it is revisited immediately.
            if self.has_queued_work() {
                idle_iters = 0;
            }
            idle_iters = idle_iters.saturating_add(1);
            let park = if self.live_conns() == 0 && !self.shutdown.load(Ordering::SeqCst) {
                POLL_EMPTY
            } else {
                backoff(idle_iters)
            };
            match self.rx.recv_timeout(park) {
                Ok(msg) => {
                    if self.handle(msg) {
                        idle_iters = 0;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Shutdown: anything still open is past the drain deadline.
        for conn in self.conns.iter_mut().filter_map(Option::take) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.net_metrics.closed.inc();
        }
    }

    fn live_conns(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    /// Whether any connection has work the loop itself must push forward
    /// (as opposed to waiting on the peer or on a worker completion, both
    /// of which produce their own wakeups).
    fn has_queued_work(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .any(|c| c.has_pending_output() || (c.inflight() > 0 && !c.parser.is_empty()))
    }

    /// Whether every connection is quiescent (no request in flight, no
    /// unflushed response bytes) — the condition for a clean shutdown.
    fn drained(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|c| c.inflight() == 0 && !c.has_pending_output())
    }

    fn handle(&mut self, msg: LoopMsg) -> bool {
        match msg {
            LoopMsg::Wake => false,
            LoopMsg::Accept(stream) => {
                if self.shutdown.load(Ordering::SeqCst) {
                    return false; // refused at the door during drain
                }
                self.net_metrics.accepted.inc();
                self.next_generation += 1;
                let conn = Conn {
                    stream,
                    parser: RequestParser::new(),
                    outbuf: Vec::new(),
                    written: 0,
                    next_seq: 0,
                    flushed_seq: 0,
                    pending: Vec::new(),
                    stopped: false,
                    close_after: false,
                    read_closed: false,
                    generation: self.next_generation,
                    partial_since: None,
                };
                match self.free.pop() {
                    Some(slot) => self.conns[slot] = Some(conn),
                    None => self.conns.push(Some(conn)),
                }
                true
            }
            LoopMsg::Response {
                slot,
                generation,
                seq,
                bytes,
                close,
            } => {
                {
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        return false; // connection died while the worker ran
                    };
                    if conn.generation != generation {
                        return false; // stale completion for a recycled slot
                    }
                }
                self.complete(slot, seq, bytes, close);
                self.service(slot);
                true
            }
        }
    }

    /// Sequence one finished request's response into connection `slot`'s
    /// output buffer. A completion whose turn has not come yet waits in the
    /// pending buffer; whenever the next-expected response is available,
    /// it (and any directly following ones) is appended, so pipelined
    /// responses always leave in request order.
    fn complete(&mut self, slot: usize, seq: u64, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.pending.push((seq, bytes, close));
        while let Some(pos) = conn
            .pending
            .iter()
            .position(|(s, _, _)| *s == conn.flushed_seq)
        {
            let (_, bytes, close) = conn.pending.swap_remove(pos);
            if !conn.has_pending_output() {
                conn.outbuf.clear();
                conn.written = 0;
            }
            conn.outbuf.extend_from_slice(&bytes);
            if close {
                conn.close_after = true;
                conn.stopped = true;
            }
            conn.flushed_seq += 1;
        }
    }

    /// Drive every connection once: flush writes, read what is ready, parse
    /// and dispatch. Returns whether any byte moved.
    fn poll_conns(&mut self) -> bool {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                progress |= self.service(slot);
            }
        }
        progress
    }

    /// Advance one connection's state machine as far as it can go without
    /// blocking: flush, read, parse, dispatch — looping so every complete
    /// pipelined request in the buffer dispatches on this tick (up to the
    /// in-flight cap). May drop the connection.
    fn service(&mut self, slot: usize) -> bool {
        let mut progress = false;
        loop {
            let draining = self.shutdown.load(Ordering::SeqCst);
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return progress;
            };
            let (moved, action) = advance(conn, draining);
            progress |= moved;
            match action {
                Action::Keep => return progress,
                Action::Close => {
                    self.close(slot);
                    return progress;
                }
                Action::Dispatch(request) => {
                    let (seq, generation) = {
                        // `advance` just borrowed this slot, so it is live;
                        // stay panic-free anyway — a vacated slot simply ends
                        // the connection's tick instead of killing the loop.
                        let Some(conn) = self.conns[slot].as_mut() else {
                            return progress;
                        };
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        if request.close {
                            // `Connection: close`: no request after this one
                            // will be answered, so stop parsing now.
                            conn.stopped = true;
                        }
                        (seq, conn.generation)
                    };
                    match (self.handler)(request) {
                        // Completes immediately, but still takes its
                        // sequenced turn behind earlier in-flight requests
                        // on this connection.
                        Routed::Inline(bytes, close) => self.complete(slot, seq, bytes, close),
                        Routed::Worker(job) => {
                            let tx = self.tx.clone();
                            self.pool.execute(move || {
                                let (bytes, close) = job();
                                // The loop may be gone past the drain
                                // deadline; nothing to do with the response
                                // then.
                                let _ = tx.send(LoopMsg::Response {
                                    slot,
                                    generation,
                                    seq,
                                    bytes,
                                    close,
                                });
                            });
                        }
                    }
                    progress = true;
                    continue; // keep parsing pipelined requests behind it
                }
                Action::Reject(msg) => {
                    // Terminal parse error mid-pipeline: the 400 takes the
                    // next sequence number, so every earlier response still
                    // flushes (in order) before the connection closes.
                    let seq = {
                        // Same defensive shape as the dispatch arm above.
                        let Some(conn) = self.conns[slot].as_mut() else {
                            return progress;
                        };
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.stopped = true;
                        seq
                    };
                    let body = error_body(&msg);
                    let bytes = render_response(400, reason_phrase(400), &body, true, &[]);
                    self.complete(slot, seq, bytes, true);
                    progress = true;
                    continue;
                }
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.net_metrics.closed.inc();
            self.free.push(slot);
        }
    }
}

/// What [`advance`] decided about a connection.
enum Action {
    /// Still multiplexed; revisit on the next readiness tick.
    Keep,
    /// Drop the connection.
    Close,
    /// A complete request parsed; the caller dispatches it.
    Dispatch(Request),
    /// The parser hit a terminal error; the caller sequences a 400 behind
    /// the in-flight responses and stops parsing.
    Reject(String),
}

/// Drive one connection without blocking: flush pending output, read ready
/// bytes, try to parse the next pipelined request (the caller loops to pull
/// out the rest). Returns whether any byte moved plus the resulting
/// [`Action`].
fn advance(conn: &mut Conn, draining: bool) -> (bool, Action) {
    let mut progress = false;

    // 1. Drain pending response bytes.
    while conn.has_pending_output() {
        match conn.stream.write(&conn.outbuf[conn.written..]) {
            Ok(0) => return (progress, Action::Close),
            Ok(n) => {
                conn.written += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (progress, Action::Close),
        }
    }
    if conn.has_pending_output() {
        return (progress, Action::Keep); // wire is full; next tick
    }
    if !conn.outbuf.is_empty() {
        conn.outbuf.clear();
        conn.written = 0;
    }
    if conn.close_after {
        return (progress, Action::Close);
    }

    // 2. Read whatever the socket has ready — not during drain (new request
    // bytes are no longer welcome), not past a close/parse-error, and not
    // beyond the pipeline cap (which bounds per-connection parser memory:
    // bytes beyond it wait in the socket buffer).
    if !draining && !conn.read_closed && !conn.stopped && conn.inflight() < MAX_PIPELINE {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.feed(&chunk[..n]);
                    progress = true;
                    if n < chunk.len() {
                        break; // drained the socket buffer
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return (progress, Action::Close),
            }
        }
    }

    // 3. Parse the next pipelined request, up to the in-flight cap. The
    // caller loops, so each buffered request dispatches before the next is
    // pulled out.
    if !draining && !conn.stopped && conn.inflight() < MAX_PIPELINE {
        match conn.parser.try_next() {
            Ok(Some(request)) => {
                conn.partial_since = None;
                return (true, Action::Dispatch(request));
            }
            Ok(None) => {
                if conn.parser.has_partial() {
                    let since = *conn.partial_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= PARTIAL_REQUEST_TIMEOUT {
                        return (progress, Action::Close);
                    }
                } else {
                    conn.partial_since = None;
                }
            }
            Err(e) => return (true, Action::Reject(e.to_string())),
        }
    }

    // 4. A half-closed connection with nothing left to parse, execute or
    // flush is finished.
    if conn.read_closed && conn.parser.is_empty() && conn.inflight() == 0 {
        return (progress, Action::Close);
    }
    (progress, Action::Keep)
}

/// Exponential idle backoff: 200 µs doubling to the 10 ms cap.
fn backoff(idle_iters: u32) -> Duration {
    let factor = 1u32 << idle_iters.min(7).saturating_sub(1);
    POLL_MIN.saturating_mul(factor).min(POLL_MAX)
}

/// `{"error": msg}` rendered through the workspace JSON codec (same shape
/// the routed error responses use).
fn error_body(msg: &str) -> String {
    let value = serde::Value::Map(vec![(
        "error".to_string(),
        serde::Value::Str(msg.to_string()),
    )]);
    serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff(1), POLL_MIN);
        assert!(backoff(2) > backoff(1));
        assert_eq!(backoff(60), POLL_MAX);
    }

    #[test]
    fn error_bodies_escape_cleanly() {
        assert_eq!(error_body("plain"), "{\"error\":\"plain\"}");
        assert!(error_body("a\"b\\c").contains("a\\\"b\\\\c"));
    }
}
