//! The serving layer's connection front end: one blocking reader thread per
//! connection over the shared worker pool.
//!
//! * An **acceptor** hands each connection to a **reader** thread of its own,
//!   blocked in `read`, so a request is parsed the moment its last byte
//!   arrives: there is no event loop to wake and no timer tick to wait out.
//!   The reader answers inline routes itself and queues worker routes on the
//!   `--workers` [`ThreadPool`]. A panicking handler or job answers `500`
//!   and closes its connection; the thread survives.
//! * **Whichever thread completes a response writes it**, in request order,
//!   with a 1 ms send timeout, so no completer blocks on a peer that stops
//!   reading. Bytes the socket does not take stay queued on the connection
//!   for one shared **flusher** thread, which closes a peer that takes
//!   nothing for 10 s. The flusher is the only thread that polls, and only
//!   while some peer is not reading.
//!
//! Each connection is **pipelined**: up to [`MAX_PIPELINE`] requests may be
//! in flight. The pool completes them in any order, so every request (inline
//! ones and a mid-pipeline `400` included) takes a sequence number, and a
//! response waits until every earlier one is queued. A response that closes
//! the connection (`Connection: close`, a parse error, a panic) is the last
//! one written.
//!
//! A connection costs a thread (a 256 KiB stack and a 16 KiB read buffer)
//! and no CPU while idle. A request that stalls part-way for 30 s is dropped.
//!
//! # Graceful shutdown
//!
//! [`Reactor::join`] returns once a shutdown is signalled (the shared
//! `AtomicBool`, plus a connect to unblock the acceptor) and the connections
//! have drained: every live connection's read half is shut, and each reader
//! waits up to [`DRAIN_DEADLINE`] for its in-flight responses to be written.
//! The server layer then flushes WALs and exits cleanly.

use crate::http::{reason_phrase, render_response, Request, RequestParser};
use crate::obs::NetMetrics;
use crate::sync::lock_unpoisoned;
use rayon::ThreadPool;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a shutdown waits for in-flight requests and unflushed responses
/// before abandoning them.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Read timeout: an idle connection reads again, a partial request is
/// dropped (the stream position is unknown).
const PARTIAL_REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Send timeout: the longest a writer waits for socket room.
const SEND_TIMEOUT: Duration = Duration::from_millis(1);

/// The flusher closes a peer whose socket takes no byte for this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes read per `read` call.
const READ_CHUNK: usize = 16 << 10;

/// A reader's stack. Its deepest work is an inline route (`/metrics`,
/// `/debug/slow`); the test suite passes with 16 KiB in a debug build.
const READER_STACK: usize = 256 << 10;

/// Per-connection cap on requests in flight (dispatched, their response not
/// fully written). The reader stops parsing at the cap, so a connection's
/// buffers stay bounded however deep the client pipelines or slowly it
/// reads.
pub const MAX_PIPELINE: usize = 32;

/// What the server decided about one parsed request.
pub enum Routed {
    /// Answered on the connection's reader (probes and scrapes, which must
    /// stay responsive when every worker is busy): the response bytes and
    /// whether to close the connection afterwards.
    Inline(Vec<u8>, bool),
    /// A job for the worker pool, returning the same pair.
    Worker(Box<dyn FnOnce() -> (Vec<u8>, bool) + Send>),
}

/// The request handler, called once per parsed request on the reader that
/// parsed it. Anything slow goes in a [`Routed::Worker`] job: the reader
/// parses nothing else of its connection until the handler returns.
pub type Handler = dyn Fn(Request) -> Routed + Send + Sync;

/// The connection front end: the acceptor, its readers and the flusher. See
/// the [module docs](self).
pub struct Reactor {
    acceptor: JoinHandle<Vec<Reader>>,
    flusher: JoinHandle<()>,
    /// `None` stops the flusher.
    to_flusher: Sender<Option<Arc<Conn>>>,
}

/// A reader thread and its connection (weak: the list keeps no socket open).
type Reader = (JoinHandle<()>, Weak<Conn>);

impl Reactor {
    /// Spawn the acceptor and the flusher over `listener`. `handler` routes
    /// every parsed request: answered inline, or as a job run on `pool`.
    /// Setting `shutdown` and poking the listener with a connect (to unblock
    /// the acceptor) begins the drain.
    pub fn start(
        listener: TcpListener,
        pool: Arc<ThreadPool>,
        handler: Arc<Handler>,
        shutdown: Arc<AtomicBool>,
        net_metrics: NetMetrics,
    ) -> io::Result<Self> {
        let (to_flusher, stalled) = mpsc::channel();
        let flusher = std::thread::Builder::new()
            .name("multiem-flush".into())
            .spawn(move || flush_stalled(&stalled))?;
        let front = Front {
            pool,
            handler,
            shutdown,
            net_metrics,
            to_flusher: to_flusher.clone(),
        };
        let acceptor = std::thread::Builder::new()
            .name("multiem-accept".into())
            .spawn(move || Arc::new(front).accept(&listener))?;
        Ok(Self {
            acceptor,
            flusher,
            to_flusher,
        })
    }

    /// Block until the acceptor exits (once shutdown is signalled), then
    /// drain: shut every live connection's read half and join its reader,
    /// which waits up to [`DRAIN_DEADLINE`] for its in-flight responses.
    pub fn join(self) {
        let readers = self.acceptor.join().unwrap_or_default();
        for conn in readers.iter().filter_map(|(_, conn)| conn.upgrade()) {
            let _ = conn.stream.shutdown(Shutdown::Read);
            // Taking the lock orders this wakeup after the reader's check of
            // the shutdown flag, so a reader about to wait cannot miss it.
            drop(lock_unpoisoned(&conn.out));
            conn.progress.notify_all();
        }
        for (reader, _) in readers {
            let _ = reader.join();
        }
        let _ = self.to_flusher.send(None);
        let _ = self.flusher.join();
    }
}

/// What the acceptor and every reader share.
struct Front {
    pool: Arc<ThreadPool>,
    handler: Arc<Handler>,
    shutdown: Arc<AtomicBool>,
    net_metrics: NetMetrics,
    to_flusher: Sender<Option<Arc<Conn>>>,
}

impl Front {
    /// The acceptor: spawn a reader per connection until shutdown, joining
    /// finished readers as it goes. Returns the readers still running.
    fn accept(self: Arc<Self>, listener: &TcpListener) -> Vec<Reader> {
        let mut readers: Vec<Reader> = Vec::new();
        for stream in listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            for (reader, _) in readers.extract_if(.., |(reader, _)| reader.is_finished()) {
                let _ = reader.join();
            }
            let configured = stream.set_read_timeout(Some(PARTIAL_REQUEST_TIMEOUT));
            let configured = configured.and(stream.set_write_timeout(Some(SEND_TIMEOUT)));
            if configured.and(stream.set_nodelay(true)).is_err() {
                continue;
            }
            let conn = Arc::new(Conn {
                stream,
                out: Mutex::new(Output::default()),
                progress: Condvar::new(),
                to_flusher: self.to_flusher.clone(),
            });
            let weak = Arc::downgrade(&conn);
            let front = Arc::clone(&self);
            self.net_metrics.accepted.inc();
            let spawned = std::thread::Builder::new()
                .name("multiem-conn".into())
                .stack_size(READER_STACK)
                .spawn(move || {
                    // A reader that panics (a bug) still closes and counts
                    // its connection, so its join cannot fail.
                    let _ = catch_unwind(AssertUnwindSafe(|| front.serve(&conn)));
                    lock_unpoisoned(&conn.out).close(&conn.stream);
                    front.net_metrics.closed.inc();
                });
            match spawned {
                Ok(reader) => readers.push((reader, weak)),
                // Out of threads: this connection drops, the server lives.
                Err(_) => self.net_metrics.closed.inc(),
            }
        }
        readers
    }

    /// A connection's reader: parse and dispatch requests as their bytes
    /// arrive until the connection stops (peer EOF, `Connection: close`, a
    /// parse error, a read error or timeout, the drain), then wait for its
    /// in-flight responses to be written.
    fn serve(&self, conn: &Arc<Conn>) {
        let draining = || self.shutdown.load(Ordering::SeqCst);
        let mut parser = RequestParser::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut dispatched = 0u64;
        loop {
            let out = lock_unpoisoned(&conn.out);
            let out = conn.progress.wait_while(out, |out| {
                !out.closing && !draining() && out.unfinished(dispatched) >= MAX_PIPELINE as u64
            });
            if out.unwrap_or_else(PoisonError::into_inner).closing || draining() {
                break;
            }
            match parser.try_next() {
                Ok(Some(request)) => {
                    let close = request.close;
                    self.dispatch(conn, dispatched, request);
                    dispatched += 1;
                    if close {
                        break;
                    }
                    continue;
                }
                Ok(None) => {}
                Err(e) => {
                    let body = error_body(&e.to_string());
                    let bytes = render_response(400, reason_phrase(400), &body, true, &[]);
                    conn.complete(dispatched, bytes, true);
                    dispatched += 1;
                    break;
                }
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => parser.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // An idle keep-alive connection outlives any read timeout.
                Err(e) if timed_out(&e) && parser.is_empty() => {}
                Err(_) => break,
            }
        }

        // The drain's clock starts when the drain does.
        let mut deadline = Instant::now() + DRAIN_DEADLINE;
        let mut out = lock_unpoisoned(&conn.out);
        while !out.closed && out.unfinished(dispatched) > 0 {
            if !draining() {
                deadline = Instant::now() + DRAIN_DEADLINE;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let waited = conn.progress.wait_timeout(out, left);
            out = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Route request `seq`: answer it inline or queue its job on the pool.
    /// A handler or job that panics answers `500`.
    fn dispatch(&self, conn: &Arc<Conn>, seq: u64, request: Request) {
        match catch_unwind(AssertUnwindSafe(|| (self.handler)(request))) {
            Ok(Routed::Inline(bytes, close)) => conn.complete(seq, bytes, close),
            Ok(Routed::Worker(job)) => {
                let conn = Arc::clone(conn);
                self.pool.execute(move || {
                    let done = catch_unwind(AssertUnwindSafe(job));
                    let (bytes, close) = done.unwrap_or_else(|_| (panicked(), true));
                    conn.complete(seq, bytes, close);
                });
            }
            Err(_) => conn.complete(seq, panicked(), true),
        }
    }
}

/// A connection, shared by its reader, its completers and the flusher.
struct Conn {
    stream: TcpStream,
    out: Mutex<Output>,
    /// Signalled when a response leaves the wire or the connection closes
    /// (the reader waits on it for pipeline room and for the drain).
    progress: Condvar,
    to_flusher: Sender<Option<Arc<Conn>>>,
}

impl Conn {
    /// Queue the response to request `seq` in request order, then write the
    /// queue unless another thread already is; what the socket does not take
    /// goes to the flusher.
    fn complete(self: &Arc<Self>, seq: u64, bytes: Vec<u8>, close: bool) {
        let mut out = lock_unpoisoned(&self.out);
        out.early.push((seq, bytes, close));
        while let Some(at) = out.early.iter().position(|(s, _, _)| *s == out.sequenced) {
            let (_, bytes, close) = out.early.swap_remove(at);
            out.sequenced += 1;
            // Nothing is written after a response that closes.
            if !out.closing {
                out.queue.push_back(Arc::new(bytes));
                out.closing = close;
            }
        }
        let idle = !out.writing;
        out.writing = true;
        drop(out);
        if idle && !self.write_queued().1 {
            let _ = self.to_flusher.send(Some(Arc::clone(self)));
        }
        self.progress.notify_all();
    }

    /// Write the queue as the connection's one writer (the caller holds
    /// `writing`), never holding the lock across a `write`. Returns whether a
    /// byte moved, and whether the role was released (the queue emptied or
    /// the connection closed) rather than kept after a send timeout.
    fn write_queued(&self) -> (bool, bool) {
        let mut moved = false;
        let mut out = lock_unpoisoned(&self.out);
        while let Some(front) = out.queue.front().cloned() {
            let from = out.written;
            drop(out);
            let sent = (&self.stream).write(&front[from..]);
            out = lock_unpoisoned(&self.out);
            match sent {
                // A close cleared the queue meanwhile: nothing to advance.
                Ok(_) if out.closed => {}
                Ok(n) if n > 0 => {
                    moved = true;
                    out.written += n;
                    if out.written == front.len() {
                        out.queue.pop_front();
                        out.written = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if timed_out(&e) => return (moved, false),
                _ => out.close(&self.stream), // the socket failed
            }
        }
        if out.closing {
            out.close(&self.stream);
        }
        out.writing = false;
        (moved, true)
    }
}

/// A connection's output side.
#[derive(Default)]
struct Output {
    /// Responses sequenced so far: the sequence number of the next one.
    sequenced: u64,
    /// Completions `(seq, bytes, close)` waiting for their turn.
    early: Vec<(u64, Vec<u8>, bool)>,
    /// Responses in request order not yet fully written; `written` bytes of
    /// the front one are on the wire.
    queue: VecDeque<Arc<Vec<u8>>>,
    written: usize,
    /// A thread is writing `queue`; others only append to it.
    writing: bool,
    /// A response that closes the connection is queued: nothing after it is
    /// queued, and the socket shuts once it is written.
    closing: bool,
    /// The socket is shut: nothing more is written.
    closed: bool,
}

impl Output {
    /// Requests dispatched whose response is not fully written.
    fn unfinished(&self, dispatched: u64) -> u64 {
        dispatched - self.sequenced + self.queue.len() as u64
    }

    /// Shut the socket: nothing more is queued or written.
    fn close(&mut self, stream: &TcpStream) {
        if !self.closed {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.queue.clear();
        self.closing = true;
        self.closed = true;
    }
}

/// The flusher: the writer of connections whose peers stopped reading, pass
/// after pass, closing a peer that takes nothing for [`WRITE_TIMEOUT`].
/// Blocks on its channel while no connection is stalled.
fn flush_stalled(incoming: &Receiver<Option<Arc<Conn>>>) {
    let mut stalled: Vec<(Arc<Conn>, Instant)> = Vec::new();
    loop {
        let next = if stalled.is_empty() {
            incoming.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            incoming.try_recv()
        };
        match next {
            Ok(Some(conn)) => stalled.push((conn, Instant::now())),
            Ok(None) | Err(TryRecvError::Disconnected) => return,
            Err(TryRecvError::Empty) => stalled.retain_mut(|(conn, last_moved)| {
                let (moved, released) = conn.write_queued();
                if moved {
                    *last_moved = Instant::now();
                }
                let abandoned = !released && last_moved.elapsed() >= WRITE_TIMEOUT;
                if abandoned {
                    let mut out = lock_unpoisoned(&conn.out);
                    out.close(&conn.stream);
                    out.writing = false;
                }
                conn.progress.notify_all();
                !released && !abandoned
            }),
        }
    }
}

/// Whether a socket error is a read or send timeout expiring.
fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The `500` a panicking handler or job answers; it closes the connection.
fn panicked() -> Vec<u8> {
    let body = error_body("internal error: the request handler panicked");
    render_response(500, reason_phrase(500), &body, true, &[])
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
    use crate::http::{read_response, HttpClient};
    use crate::obs::Counter;
    use std::io::BufReader;

    #[test]
    fn error_bodies_escape_cleanly() {
        assert_eq!(error_body("plain"), "{\"error\":\"plain\"}");
        assert!(error_body("a\"b\\c").contains("a\\\"b\\\\c"));
    }

    /// A front end on an ephemeral port with a one-worker pool. Its handler
    /// panics on `/inline-boom`, its job panics on `/boom`, and everything
    /// else answers `200`.
    fn panicking_front() -> (Reactor, Arc<AtomicBool>, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handler: Arc<Handler> = Arc::new(|request: Request| {
            assert_ne!(request.path, "/inline-boom", "the handler panics");
            Routed::Worker(Box::new(move || {
                assert_ne!(request.path, "/boom", "the job panics");
                let bytes = render_response(200, "OK", "{}", request.close, &[]);
                (bytes, request.close)
            }))
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let net_metrics = NetMetrics {
            accepted: Arc::new(Counter::default()),
            closed: Arc::new(Counter::default()),
        };
        let pool = Arc::new(ThreadPool::new(1));
        let reactor = Reactor::start(listener, pool, handler, Arc::clone(&shutdown), net_metrics)
            .expect("front end starts");
        (reactor, shutdown, addr)
    }

    #[test]
    fn a_panicking_job_answers_500_and_keeps_its_worker() {
        let (reactor, shutdown, addr) = panicking_front();

        for path in ["/boom", "/inline-boom"] {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut wire = &stream;
            let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
            wire.write_all(request.as_bytes()).expect("send");
            let mut reader = BufReader::new(&stream);
            let (status, headers, body) =
                read_response(&mut reader).expect("the panic is answered");
            assert_eq!(status, 500, "{path}: {body}");
            assert!(body.contains("panicked"), "{body}");
            assert!(headers.contains(&("connection".to_string(), "close".to_string())));
            let mut rest = Vec::new();
            reader
                .read_to_end(&mut rest)
                .expect("the connection closes");
            assert!(rest.is_empty());
        }

        // The one worker survived: a new connection is served by it.
        let mut client = HttpClient::connect(&addr).expect("connect again");
        let (status, _) = client.request("GET", "/fine", None).expect("served");
        assert_eq!(status, 200);

        shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&addr);
        reactor.join();
    }
}
