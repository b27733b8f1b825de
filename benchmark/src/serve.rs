//! The serve workloads: the real `serve` binary as a child process, driven
//! closed-loop by client threads of this process over keep-alive
//! connections, then (disk workloads) killed, restarted and verified.

use crate::data::{self, Mix, Op, ServePlan};
use crate::json::{self, Value};
use crate::spans::Spans;
use crate::{layers, replay, scrape, stats};
use crate::{Contract, Env, Metrics, Outcome};
use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
use multiem_serve::http::HttpClient;
use multiem_serve::{ServeConfig, ShardedEntityStore};
use multiem_table::{Record, Schema};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Store shards, server workers and closed-loop clients: the sandbox has two
/// cores, so two of each plus one I/O loop.
pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;
/// Operations per client discarded as warm-up.
pub const WARMUP_OPS: usize = 200;
/// Records per preload request.
const PRELOAD_BATCH: usize = 64;
/// Length of the windows the measured phase is cut into, and the samples of
/// one operation kind a window needs for its median to count.
const WINDOW_SECS: f64 = 1.0;
const MIN_WINDOW_SAMPLES: usize = 10;
/// Operation kinds in sample order, each with the tail percentile reported
/// for it. A tail needs ten samples beyond it: a run completes 1,400–1,800
/// matches and 1,050–1,350 ingests on `serve_mixed`, enough for p99, but
/// only 290–370 deletes, enough for p90. The name says which.
const TAILS: [(&str, f64, &str); 3] = [
    ("match", 0.99, "p99_ms"),
    ("ingest", 0.99, "p99_ms"),
    ("delete", 0.90, "p90_ms"),
];
/// Match queries replayed before the kill and after the restart.
const PROBES: usize = 100;

/// A server-assigned record id: `(shard, source, row)`.
pub type ServerId = (u64, u64, u64);

/// A running `serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Held open, never read again: `serve` prints a few more lines, and a
    /// closed pipe would turn its `println!` into a panic.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `serve` on an ephemeral port and wait for its listening line.
    pub fn spawn(env: &Env, data_dir: Option<&Path>, telemetry: bool) -> io::Result<Self> {
        let mut cmd = Command::new(&env.serve_bin);
        cmd.args(["--addr", "127.0.0.1:0", "--io-threads", "1"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--workers", &CLIENTS.to_string()]);
        if !telemetry {
            cmd.arg("--no-telemetry");
        }
        if let Some(dir) = data_dir {
            // The flush policy is fixed: with `always`, acknowledged means
            // fsynced, so the kill test needs no extra discard step.
            cmd.args(["--storage", "disk", "--fsync", "always", "--data-dir"])
                .arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line
            .trim()
            .rsplit_once("http://")
            .map(|(_, a)| a.to_string())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "serve did not announce its address: `{}`",
                line.trim()
            )));
        };
        Ok(Self {
            child,
            addr,
            _stdout: stdout,
        })
    }

    pub fn connect(&self) -> io::Result<HttpClient> {
        HttpClient::connect(&self.addr)
    }

    /// `VmHWM` of the child, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::machine::proc_status_kb(&self.child.id().to_string(), "VmHWM") / 1024.0
    }

    /// `SIGKILL` and reap (no graceful drain, no final flush).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Poll `GET /readyz` until it answers 200.
fn wait_ready(server: &Server) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = server
            .connect()
            .and_then(|mut c| c.request("GET", "/readyz", None))
        {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other("serve never became ready"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn id_of(value: &Value) -> Option<ServerId> {
    let part = |name| json::get(value, name).and_then(Value::as_u64);
    Some((part("shard")?, part("source")?, part("row")?))
}

fn id_path((shard, source, row): ServerId) -> String {
    format!("/records/{shard}-{source}-{row}")
}

/// An empty sharded store, built only to route records with the server's own
/// `shard_of`.
fn router() -> Result<ShardedEntityStore<HashedLexicalEncoder>, String> {
    ShardedEntityStore::new(
        ServeConfig::default().online,
        Schema::new(["title"]).shared(),
        SHARDS,
        HashedLexicalEncoder::default(),
    )
    .map_err(|e| format!("router: {e}"))
}

/// A loaded server plus what loading it taught the client.
pub struct Loaded {
    pub server: Server,
    /// Server id of every preloaded record → its plan index.
    pub ids: HashMap<ServerId, usize>,
    /// Requests sent while loading, by endpoint label.
    pub issued: HashMap<&'static str, u64>,
}

/// Start a server and preload it: one connection per shard, each sending its
/// shard's records in plan order, so per-shard insertion order — and with it
/// the store state — is the same on every run.
pub fn start_and_preload(
    env: &Env,
    plan: &ServePlan,
    data_dir: Option<&Path>,
    telemetry: bool,
) -> Result<Loaded, String> {
    let server = Server::spawn(env, data_dir, telemetry).map_err(|e| format!("spawn: {e}"))?;
    wait_ready(&server).map_err(|e| e.to_string())?;

    let router = router()?;
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
    for &i in &plan.preload {
        by_shard[router.shard_of(&Record::from_texts([plan.records[i].as_str()]))].push(i);
    }

    let loaded: Vec<Result<Vec<(ServerId, usize)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = by_shard
            .iter()
            .map(|indices| {
                let server = &server;
                scope.spawn(move || {
                    let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
                    let mut acked = Vec::with_capacity(indices.len());
                    for chunk in indices.chunks(PRELOAD_BATCH) {
                        let body =
                            json::records_body(chunk.iter().map(|&i| plan.records[i].as_str()));
                        let (status, reply) = client
                            .request("POST", "/records", Some(&body))
                            .map_err(|e| format!("preload: {e}"))?;
                        let reply = json::parse(&reply)?;
                        let results = json::get(&reply, "results").and_then(Value::as_seq);
                        match results {
                            Some(results) if status == 200 && results.len() == chunk.len() => {
                                for (value, &i) in results.iter().zip(chunk) {
                                    acked.push((id_of(value).ok_or("ack without an id")?, i));
                                }
                            }
                            _ => return Err(format!("preload batch answered {status}")),
                        }
                    }
                    Ok(acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("preload thread panicked".into()))
            })
            .collect()
    });
    let mut ids = HashMap::with_capacity(plan.preload.len());
    let mut requests = 0u64;
    for (shard, acked) in loaded.into_iter().enumerate() {
        requests += by_shard[shard].chunks(PRELOAD_BATCH).len() as u64;
        ids.extend(acked?);
    }
    Ok(Loaded {
        server,
        ids,
        issued: HashMap::from([("records", requests)]),
    })
}

/// What one client thread measured.
#[derive(Default)]
struct ClientReport {
    /// Every operation completed after warm-up: seconds since the start
    /// barrier at which it completed, kind (match, ingest, delete), latency
    /// in ms.
    samples: Vec<(f64, usize, f64)>,
    attempted: u64,
    failed: u64,
    /// Match queries answered / answered with a true co-referent.
    answered: u64,
    hits: u64,
    /// Ids of acknowledged own inserts, by insert ordinal, and which of
    /// them an acknowledged delete removed.
    inserted: Vec<ServerId>,
    deleted: Vec<bool>,
    /// Title bytes of the acknowledged inserts.
    inserted_bytes: u64,
    issued: [u64; 3],
    first_error: Option<String>,
}

fn run_client(
    server: &Server,
    plan: &ServePlan,
    ops: &[Op],
    ids: &HashMap<ServerId, usize>,
    start: &Barrier,
    seconds: f64,
) -> ClientReport {
    let mut report = ClientReport::default();
    let mut client = match server.connect() {
        Ok(client) => client,
        Err(e) => {
            report.attempted = 1;
            report.failed = 1;
            report.first_error = Some(format!("connect: {e}"));
            start.wait();
            return report;
        }
    };
    start.wait();
    let begin = Instant::now();
    for (n, op) in ops.iter().enumerate() {
        if begin.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (kind, method, path, body) = match *op {
            Op::Match(i) => (
                0,
                "POST",
                "/match".to_string(),
                Some(json::record_body(&plan.records[i])),
            ),
            Op::Insert(i) => (
                1,
                "POST",
                "/records".to_string(),
                Some(json::records_body([plan.records[i].as_str()])),
            ),
            Op::Delete(ordinal) => (2, "DELETE", id_path(report.inserted[ordinal]), None),
        };
        report.attempted += 1;
        report.issued[kind] += 1;
        let sent = Instant::now();
        let reply = client.request(method, &path, body.as_deref());
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let checked =
            reply
                .map_err(|e| format!("{method} {path}: {e}"))
                .and_then(|(status, body)| {
                    if status != 200 {
                        return Err(format!("{method} {path} answered {status}: {body}"));
                    }
                    let body = json::parse(&body)?;
                    match *op {
                        Op::Match(i) => {
                            let matches = json::get(&body, "matches")
                                .and_then(Value::as_seq)
                                .ok_or("match reply without `matches`")?;
                            report.answered += 1;
                            let truth = plan.tuple_of[i];
                            let hit = matches
                                .iter()
                                .filter_map(id_of)
                                .any(|id| ids.get(&id).is_some_and(|&j| plan.tuple_of[j] == truth));
                            report.hits += u64::from(hit);
                        }
                        Op::Insert(i) => {
                            report.inserted_bytes += plan.records[i].len() as u64;
                            let id = json::get(&body, "results")
                                .and_then(Value::as_seq)
                                .and_then(|r| r.first())
                                .and_then(id_of)
                                .ok_or("ingest ack without an id")?;
                            report.inserted.push(id);
                            report.deleted.push(false);
                        }
                        Op::Delete(ordinal) => report.deleted[ordinal] = true,
                    }
                    Ok(())
                });
        match checked {
            Ok(()) if n >= WARMUP_OPS => {
                report
                    .samples
                    .push((begin.elapsed().as_secs_f64(), kind, ms));
            }
            Ok(()) => {}
            Err(e) => {
                report.failed += 1;
                report.first_error.get_or_insert(e);
                // An unacknowledged insert has no id; later deletes of it
                // would index past `inserted`, so stop this client.
                break;
            }
        }
    }
    report
}

/// Sizes of everything under `dir`, in bytes.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn get_json(client: &mut HttpClient, method: &str, path: &str) -> Result<Value, String> {
    let (status, body) = client
        .request(method, path, None)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if status != 200 {
        return Err(format!("{method} {path} answered {status}: {body}"));
    }
    json::parse(&body)
}

/// The store-state prefix of `/stats` that must survive a kill + replay.
fn store_state(stats: &Value) -> Vec<u64> {
    [
        "records",
        "deleted",
        "clusters",
        "tuples",
        "pruned_outliers",
    ]
    .iter()
    .map(|name| json::num(stats, name) as u64)
    .collect()
}

fn probe(client: &mut HttpClient, plan: &ServePlan) -> Result<Vec<String>, String> {
    plan.queries
        .iter()
        .take(PROBES)
        .map(|&q| {
            client
                .request("POST", "/match", Some(&json::record_body(&plan.records[q])))
                .map(|(_, body)| body)
                .map_err(|e| format!("probe: {e}"))
        })
        .collect()
}

/// Client-side summary of the measured phase: per-kind medians over
/// one-second windows (a stall of the sandbox that lasts a second or two
/// moves two windows, not the result), tails over all samples, and
/// throughput as the median window's completed operations.
fn summarize_clients(
    samples: &[(f64, usize, f64)],
    windows: std::ops::Range<usize>,
    out: &mut Outcome,
) {
    let window_of = |t: f64| (t / WINDOW_SECS).floor() as usize;
    let per_window_ops: Vec<f64> = windows
        .clone()
        .map(|w| samples.iter().filter(|s| window_of(s.0) == w).count() as f64 / WINDOW_SECS)
        .collect();
    out.metrics.insert(
        "serve.client.throughput_rps".into(),
        stats::median(&per_window_ops),
    );
    for (kind, (name, tail, tail_name)) in TAILS.iter().enumerate() {
        let latencies = |window: Option<usize>| -> Vec<f64> {
            stats::sorted(
                samples
                    .iter()
                    .filter(|s| s.1 == kind && window.is_none_or(|w| window_of(s.0) == w))
                    .map(|s| s.2)
                    .collect(),
            )
        };
        let window_medians: Vec<f64> = windows
            .clone()
            .map(|w| latencies(Some(w)))
            .filter(|lat| lat.len() >= MIN_WINDOW_SAMPLES)
            .map(|lat| stats::percentile(&lat, 0.5))
            .collect();
        let all = latencies(None);
        let n = all.len();
        if n > 0 && !stats::supported(n, *tail) {
            out.notes.push(format!(
                "{name}_{tail_name}: only {n} samples, fewer than {} beyond the percentile",
                stats::MIN_BEYOND
            ));
        }
        for (suffix, value) in [
            ("samples", n as f64),
            ("p50_ms", stats::median(&window_medians)),
            (tail_name, stats::percentile(&all, *tail)),
        ] {
            out.metrics
                .insert(format!("serve.client.{name}_{suffix}"), value);
        }
    }
}

/// Drive the measured phase on a loaded server and collect every client- and
/// server-side number. `data_dir` selects the disk workload, which also runs
/// one checkpoint mid-run and the kill / restart / verify epilogue.
pub fn measure(
    env: &Env,
    plan: &ServePlan,
    loaded: Loaded,
    data_dir: Option<&Path>,
    telemetry: bool,
    seconds: f64,
    min_hit_rate: f64,
) -> Result<Outcome, String> {
    let Loaded {
        server,
        ids,
        mut issued,
    } = loaded;
    let mut out = Outcome {
        metrics: Metrics::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let scrape = |what: &str| -> Result<String, String> {
        let mut client = server.connect().map_err(|e| format!("{what}: {e}"))?;
        let (_, text) = client
            .request("GET", "/metrics", None)
            .map_err(|e| format!("{what}: {e}"))?;
        Ok(text)
    };
    // Preload traffic is in the server's histograms too; scrape now so the
    // stages can be reported for the measured phase alone.
    let metrics_before = if telemetry {
        scrape("GET /metrics before")?
    } else {
        String::new()
    };
    let start = Barrier::new(CLIENTS + 1);
    let mut checkpoint: Option<(f64, Value)> = None;
    let jiffies_before = crate::machine::cpu_jiffies();

    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .ops
            .iter()
            .map(|ops| {
                let (server, ids, start) = (&server, &ids, &start);
                scope.spawn(move || run_client(server, plan, ops, ids, start, seconds))
            })
            .collect();
        start.wait();
        if data_dir.is_some() {
            // One checkpoint + compaction cycle half-way through: it takes
            // every shard lock, so its stall lands in the tail latencies.
            std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
            let sent = Instant::now();
            let reply = server
                .connect()
                .map_err(|e| e.to_string())
                .and_then(|mut c| get_json(&mut c, "POST", "/snapshot"));
            if let Ok(reply) = reply {
                checkpoint = Some((sent.elapsed().as_secs_f64(), reply));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let jiffies = crate::machine::cpu_jiffies();
    out.notes.push(format!(
        "hypervisor stole {:.1}% of CPU time during the measured phase",
        (jiffies.1 - jiffies_before.1) as f64 / (jiffies.0 - jiffies_before.0).max(1) as f64
            * 100.0
    ));
    let (mut answered, mut hits, mut inserted_bytes) = (0u64, 0u64, 0u64);
    let mut samples: Vec<(f64, usize, f64)> = Vec::new();
    // Whole windows only: from the first one after every client finished
    // warming up to the last one before the deadline.
    let mut first_window = 0usize;
    // Acknowledged own inserts, and whether an acknowledged delete followed.
    let mut acked: Vec<(ServerId, bool)> = Vec::new();
    for report in reports {
        out.attempted += report.attempted;
        out.failed += report.failed;
        answered += report.answered;
        hits += report.hits;
        inserted_bytes += report.inserted_bytes;
        if let Some(&(t, _, _)) = report.samples.first() {
            first_window = first_window.max((t / WINDOW_SECS).ceil() as usize);
        }
        samples.extend(report.samples);
        for (endpoint, n) in ["match", "records", "records_delete"]
            .iter()
            .zip(report.issued)
        {
            *issued.entry(endpoint).or_default() += n;
        }
        acked.extend(report.inserted.into_iter().zip(report.deleted));
        if let Some(e) = report.first_error {
            out.notes.push(format!("client error: {e}"));
        }
    }
    summarize_clients(
        &samples,
        first_window..(seconds / WINDOW_SECS).floor() as usize,
        &mut out,
    );
    let hit_rate = hits as f64 / answered.max(1) as f64;
    out.metrics
        .insert("serve.client.match_hit_rate".into(), hit_rate);
    out.attempted += 1;
    if hit_rate < min_hit_rate {
        out.failed += 1;
        out.notes.push(format!(
            "match hit rate {hit_rate:.3} below the floor {min_hit_rate}"
        ));
    }
    if data_dir.is_some() {
        out.attempted += 1;
        *issued.entry("snapshot").or_default() += 1;
        match &checkpoint {
            Some((secs, reply)) => {
                out.metrics.insert("serve.checkpoint_s".into(), *secs);
                out.metrics.insert(
                    "serve.checkpoint_mb".into(),
                    json::num(reply, "snapshot_bytes") / 1e6,
                );
            }
            None => {
                out.failed += 1;
                out.notes.push("mid-run POST /snapshot failed".into());
            }
        }
    }

    // Server-side view at the end of the measured phase.
    let mut admin = server
        .connect()
        .map_err(|e| format!("admin connect: {e}"))?;
    let stats_before = get_json(&mut admin, "GET", "/stats")?;
    scrape::store_metrics(&stats_before, &mut out.metrics);
    out.metrics
        .insert("peak_rss_mb".into(), server.peak_rss_mb());
    if telemetry {
        let text = scrape("GET /metrics after")?;
        scrape::stage_metrics(&metrics_before, &text, &mut out.metrics);
        // The traced run also checks that the server counted exactly the
        // requests this process sent, endpoint by endpoint.
        for (endpoint, &sent) in &issued {
            out.attempted += 1;
            let counted = scrape::requests_2xx(&text, endpoint);
            if counted != sent {
                out.failed += 1;
                out.notes.push(format!(
                    "server counted {counted} 2xx `{endpoint}` requests, client sent {sent}"
                ));
            }
        }
        // Write cost: WAL frames plus segment bytes, per byte of record
        // text the clients sent (zero on the memory backend by definition).
        if data_dir.is_some() {
            let written = scrape::plain(&text, "multiem_wal_appended_bytes_total")
                + out.metrics["online.storage.spilled_mb"] * 1e6;
            let preloaded: u64 = plan
                .preload
                .iter()
                .map(|&i| plan.records[i].len() as u64)
                .sum();
            out.metrics.insert(
                "online.storage.write_amp".into(),
                written / (preloaded + inserted_bytes).max(1) as f64,
            );
        }
    }

    match data_dir {
        Some(dir) => {
            kill_restart_verify(env, plan, server, dir, &stats_before, &acked, &mut out)?;
        }
        None => {
            let _ = admin.request("POST", "/admin/shutdown", None);
        }
    }
    Ok(out)
}

/// `SIGKILL` the server, restart it on the same data dir, and check that
/// nothing acknowledged was lost.
fn kill_restart_verify(
    env: &Env,
    plan: &ServePlan,
    server: Server,
    dir: &Path,
    stats_before: &Value,
    acked: &[(ServerId, bool)],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut probe_client = server.connect().map_err(|e| e.to_string())?;
    let replies_before = probe(&mut probe_client, plan)?;
    drop(probe_client);

    let killed = Instant::now();
    server.kill();
    let wal_ops: usize = wal_files(dir)
        .iter()
        .map(|path| multiem_serve::wal::read_ops(path).map_or(0, |ops| ops.len()))
        .sum();
    out.metrics
        .insert("serve.recovery.wal_ops".into(), wal_ops as f64);
    let server = Server::spawn(env, Some(dir), false).map_err(|e| format!("restart: {e}"))?;
    wait_ready(&server).map_err(|e| e.to_string())?;
    out.metrics
        .insert("serve.recovery_s".into(), killed.elapsed().as_secs_f64());

    let mut client = server.connect().map_err(|e| e.to_string())?;
    let check = |out: &mut Outcome, checked: u64, wrong: u64, what: String| {
        out.attempted += checked;
        if wrong > 0 {
            out.failed += wrong;
            out.notes.push(what);
        }
    };

    // Restarted ≡ never killed: same store state, same answers.
    let stats_after = get_json(&mut client, "GET", "/stats")?;
    check(
        out,
        1,
        u64::from(store_state(&stats_after) != store_state(stats_before)),
        format!(
            "store state changed across the kill: {:?} → {:?}",
            store_state(stats_before),
            store_state(&stats_after)
        ),
    );
    let replies_after = probe(&mut client, plan)?;
    let differing = replies_before
        .iter()
        .zip(&replies_after)
        .filter(|(a, b)| a != b)
        .count();
    check(
        out,
        1,
        u64::from(differing > 0),
        format!("{differing} of {PROBES} match replies changed across the kill"),
    );

    // Space: bytes under the data dir after a final checkpoint, per live record.
    get_json(&mut client, "POST", "/snapshot")?;
    let live = json::num(&stats_after, "records").max(1.0);
    out.metrics.insert(
        "serve.disk_bytes_per_record".into(),
        dir_bytes(dir) as f64 / live,
    );

    // Every acknowledged insert is still deletable under its returned id
    // (so it survived), every acknowledged delete is gone.
    for expect_live in [true, false] {
        let ids: Vec<ServerId> = acked
            .iter()
            .filter(|(_, deleted)| *deleted != expect_live)
            .map(|(id, _)| *id)
            .collect();
        for chunk in ids.chunks(256) {
            let triples = chunk
                .iter()
                .map(|&(a, b, c)| Value::Seq(vec![Value::UInt(a), Value::UInt(b), Value::UInt(c)]))
                .collect();
            let body = json::render(&json::obj([("ids", Value::Seq(triples))]));
            let (status, reply) = client
                .request("POST", "/records/delete", Some(&body))
                .map_err(|e| format!("verify delete: {e}"))?;
            let reply = json::parse(&reply)?;
            let right = json::get(&reply, "results")
                .and_then(Value::as_seq)
                .unwrap_or(&[])
                .iter()
                .filter(|r| **r == Value::Bool(expect_live))
                .count();
            let wrong = if status == 200 {
                chunk.len() - right
            } else {
                chunk.len()
            };
            check(
                out,
                chunk.len() as u64,
                wrong as u64,
                format!(
                    "{wrong} of {} acknowledged {} did not survive the kill",
                    chunk.len(),
                    if expect_live { "inserts" } else { "deletes" }
                ),
            );
        }
    }
    let _ = client.request("POST", "/admin/shutdown", None);
    Ok(())
}

fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect()
}

/// Sizing of one serve workload. Fixed; see `WORKLOADS` in `main.rs`.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Scale of the `shopee` datagen preset (product titles, 20 sources,
    /// heavy corruption).
    pub scale: f64,
    /// Records loaded before the measured phase (`usize::MAX` = all).
    pub preload: usize,
    pub mix: Mix,
    /// `--storage disk --fsync always`, one mid-run checkpoint, and the
    /// kill / restart / verify epilogue.
    pub disk: bool,
    /// Share of held-out duplicate queries that must come back with a true
    /// co-referent: below this the server is answering faster by matching
    /// worse. Ten seeds measured 0.69–0.76 read-only and 0.61–0.66 mixed.
    pub min_hit_rate: f64,
}

/// Operations generated per client: more than a run can consume.
const OPS_PER_CLIENT: usize = 60_000;
/// Seconds of the in-process replay in a traced run.
const REPLAY_SECONDS: f64 = 5.0;

/// Generate, start and preload once; returns the set-up time too.
fn set_up(
    env: &Env,
    spec: &ServeSpec,
    seed: u64,
    telemetry: bool,
) -> Result<(ServePlan, Loaded, Option<PathBuf>, f64), String> {
    let started = Instant::now();
    let dataset = data::generate("shopee", spec.scale, seed);
    let plan = data::serve_plan(
        &dataset,
        seed,
        spec.preload,
        CLIENTS,
        OPS_PER_CLIENT,
        spec.mix,
    );
    let data_dir = spec.disk.then(|| {
        env.work_dir
            .join(format!("data-{seed}-{}", u8::from(telemetry)))
    });
    let loaded = start_and_preload(env, &plan, data_dir.as_deref(), telemetry)?;
    Ok((plan, loaded, data_dir, started.elapsed().as_secs_f64()))
}

/// Plain run: end-to-end metrics, server telemetry off.
pub fn run_plain(env: &Env, spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // One set-up per run: it is itself thousands of inserts, and a second
    // one would cost as much again as the measured phase.
    let (plan, loaded, data_dir, setup_s) = set_up(env, spec, seed, false)?;
    let mut outcome = measure(
        env,
        &plan,
        loaded,
        data_dir.as_deref(),
        false,
        seconds,
        spec.min_hit_rate,
    )?;
    let m = &mut outcome.metrics;
    let op = if spec.disk { "ingest" } else { "match" };
    let end_to_end = [
        ("setup_s", setup_s),
        ("op_p50_ms", m[&format!("serve.client.{op}_p50_ms")]),
        ("records_per_s", m["serve.client.throughput_rps"]),
        ("quality", m["serve.client.match_hit_rate"]),
    ];
    m.extend(end_to_end.map(|(name, value)| (name.to_string(), value)));
    outcome.notes.push(format!(
        "{} records preloaded, {} held-out queries, {CLIENTS} closed-loop clients; \
         samples after {WARMUP_OPS} warm-up ops per client: match {}, ingest {}, delete {}",
        plan.preload.len(),
        plan.queries.len(),
        m["serve.client.match_samples"],
        m["serve.client.ingest_samples"],
        m["serve.client.delete_samples"],
    ));
    Ok(outcome)
}

/// Traced run: a plain run for the overhead base, the same run with server
/// telemetry on for the scraped stages, then the in-process replay and the
/// shared layer measurements.
pub fn run_traced(
    env: &Env,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    contract: &Contract,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let (plan, loaded, data_dir, _) = set_up(env, spec, seed, false)?;
    let plain = measure(
        env,
        &plan,
        loaded,
        data_dir.as_deref(),
        false,
        seconds,
        spec.min_hit_rate,
    )?;
    let (plan, loaded, data_dir, _) = set_up(env, spec, seed, true)?;
    let traced = measure(
        env,
        &plan,
        loaded,
        data_dir.as_deref(),
        true,
        seconds,
        spec.min_hit_rate,
    )?;

    let mut outcome = traced;
    outcome.attempted += plain.attempted;
    outcome.failed += plain.failed;
    outcome.notes.extend(plain.notes);
    let m = &mut outcome.metrics;
    let throughput = "serve.client.throughput_rps";
    m.insert(
        "serve.obs.overhead_pct".into(),
        (plain.metrics[throughput] - m[throughput]) / plain.metrics[throughput].max(1.0) * 100.0,
    );
    // Client-side minus server-side median: network polling, socket I/O and
    // the client's own JSON work — what the server's spans cannot see.
    m.insert(
        "serve.net.residual_us".into(),
        (m["serve.client.match_p50_ms"] - m["serve.server.match_p50_ms"]) * 1e3,
    );

    let replay_dir = spec
        .disk
        .then(|| env.work_dir.join(format!("replay-{seed}")));
    if let Some(dir) = &replay_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("replay dir: {e}"))?;
    }
    replay::replay(&plan, replay_dir.as_deref(), REPLAY_SECONDS, spans, m)?;

    // ANN and per-record layers on what the two shards hold after preload.
    let config = ServeConfig::default().online.base;
    let encoder = HashedLexicalEncoder::default();
    let router = router()?;
    let mut by_shard: Vec<Vec<Vec<f32>>> = vec![Vec::new(); SHARDS];
    let records: Vec<Record> = plan
        .preload
        .iter()
        .map(|&i| Record::from_texts([plan.records[i].as_str()]))
        .collect();
    for record in &records {
        let text = multiem_table::serialize_record_projected(record, &[0], &config.serialize);
        by_shard[router.shard_of(record)].push(encoder.encode(&text));
    }
    let halves: Vec<Vec<&[f32]>> = by_shard
        .iter()
        .map(|vs| vs.iter().map(Vec::as_slice).collect())
        .collect();
    let matches = layers::ann_layer(&halves[0], &halves[1], &config, spans, m);
    layers::record_layers(
        &records,
        &[0],
        &encoder,
        &halves[0],
        &halves[1],
        &matches,
        &config,
        spans,
        m,
    );

    let mut idle = vec!["core."];
    if !spec.disk {
        idle.extend([
            "serve.checkpoint",
            "serve.recovery",
            "serve.disk_bytes",
            "serve.wal.",
            "online.storage.write_amp",
        ]);
    }
    contract.zero_fill(m, &idle);
    Ok(outcome)
}
