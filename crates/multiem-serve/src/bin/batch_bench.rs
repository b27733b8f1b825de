//! Batched hot-path gate: prove match micro-batching and group-commit
//! ingest pay for themselves, and fail the build when they stop doing so.
//!
//! Two legs, each run as interleaved best-of-N trials so machine noise
//! lands on both modes evenly:
//!
//! - **match**: pipelined clients hammer `POST /match` against an embedded
//!   server with coalescing on (`--batch-window-us`/`--batch-max`) and
//!   again with it off. Batch-friendly concurrency — many in-flight
//!   requests per worker — is exactly where one shared fan-out per batch
//!   should beat one fan-out per request.
//! - **ingest**: a WAL-durable server under `--fsync always` ingests the
//!   same record count as multi-record requests (whose per-shard groups
//!   share one WAL batch append + fsync — the group commit) and as
//!   single-record requests (one fsync each).
//!
//! `--gate` enforces: grouped ingest ≥ 1.5x single-record throughput,
//! batched match ≥ 1.04x unbatched throughput, batched match p99 ≤ 1.5x
//! unbatched p99, zero errors anywhere. The match floor is a ratio, so it
//! falls whenever the unbatched path gets cheaper (1.68x before the one-scan
//! brute-force kernel, 1.3x after it, 1.08–1.12x now that a fan-out spawns
//! one thread fewer); it is re-based to the lowest measured ratio minus the
//! run-to-run spread and never below 1.0x — coalescing must pay for itself.
//!
//! ```bash
//! cargo run --release -p multiem-serve --bin batch_bench -- --gate --out BENCH_batch.json
//! ```

#![forbid(unsafe_code)]

use multiem_embed::HashedLexicalEncoder;
use multiem_serve::http::HttpClient;
use multiem_serve::metrics::percentile_ms;
use multiem_serve::{FsyncPolicy, MatchServer, ServeConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    trials: usize,
    /// Total `POST /match` requests per match trial.
    match_requests: usize,
    clients: usize,
    /// Pipelined requests in flight per client connection.
    depth: usize,
    shards: usize,
    workers: usize,
    /// Coalescing window of the batched mode, microseconds.
    window_us: u64,
    /// Batch size cap of the batched mode.
    batch_max: usize,
    /// Records seeded into the store before each match trial.
    prefill: usize,
    /// Total records per ingest trial.
    ingest_records: usize,
    /// Records per request in the grouped ingest mode.
    ingest_batch: usize,
    seed: u64,
    /// Enforce the throughput/p99/error gates (default: report only).
    gate: bool,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            trials: 3,
            match_requests: 4000,
            clients: 8,
            depth: 16,
            shards: 4,
            workers: 8,
            window_us: 500,
            batch_max: 32,
            prefill: 4096,
            ingest_records: 480,
            ingest_batch: 16,
            seed: 42,
            gate: false,
            out: None,
        }
    }
}

fn main() {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--trials" => opts.trials = parse(&value("--trials"), "--trials"),
            "--match-requests" => {
                opts.match_requests = parse(&value("--match-requests"), "--match-requests");
            }
            "--clients" => opts.clients = parse(&value("--clients"), "--clients"),
            "--depth" => opts.depth = parse(&value("--depth"), "--depth"),
            "--shards" => opts.shards = parse(&value("--shards"), "--shards"),
            "--workers" => opts.workers = parse(&value("--workers"), "--workers"),
            "--window-us" => opts.window_us = parse(&value("--window-us"), "--window-us"),
            "--batch-max" => opts.batch_max = parse(&value("--batch-max"), "--batch-max"),
            "--prefill" => opts.prefill = parse(&value("--prefill"), "--prefill"),
            "--ingest-records" => {
                opts.ingest_records = parse(&value("--ingest-records"), "--ingest-records");
            }
            "--ingest-batch" => {
                opts.ingest_batch = parse(&value("--ingest-batch"), "--ingest-batch");
            }
            "--seed" => opts.seed = parse(&value("--seed"), "--seed"),
            "--gate" => opts.gate = true,
            "--out" => opts.out = Some(value("--out")),
            "--help" | "-h" => {
                println!(
                    "batch_bench: gate the batched hot path (micro-batched match fan-out,\n\
                     group-commit ingest) against the unbatched baselines\n\n\
                     options:\n\
                     \x20 --trials N          best-of-N interleaved trials per mode (default 3)\n\
                     \x20 --match-requests N  /match requests per match trial (default 4000)\n\
                     \x20 --clients N         pipelined client connections (default 8)\n\
                     \x20 --depth N           pipelined requests per connection (default 16)\n\
                     \x20 --shards N          embedded server shards (default 4)\n\
                     \x20 --workers N         embedded server workers (default 8)\n\
                     \x20 --window-us N       batched mode coalescing window (default 500)\n\
                     \x20 --batch-max N       batched mode size cap (default 32)\n\
                     \x20 --prefill N         records seeded before each match trial\n\
                     \x20                     (default 4096)\n\
                     \x20 --ingest-records N  records per ingest trial (default 480)\n\
                     \x20 --ingest-batch N    records per request, grouped mode (default 16)\n\
                     \x20 --seed N            workload seed (default 42)\n\
                     \x20 --gate              enforce: grouped ingest >= 1.5x single,\n\
                     \x20                     batched match >= 1.04x unbatched, batched p99\n\
                     \x20                     <= 1.5x unbatched, zero errors\n\
                     \x20 --out PATH          also write the JSON report to PATH"
                );
                return;
            }
            other => fail(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    if opts.trials == 0 || opts.clients == 0 || opts.depth == 0 {
        fail("--trials, --clients and --depth must be at least 1");
    }

    // Interleave (batched, unbatched) within every trial so load drift hits
    // both modes instead of biasing whichever ran last. Best-of-N per mode;
    // the p99 reported is the one of each mode's best-throughput trial.
    let mut best_batched = (0.0f64, 0.0f64);
    let mut best_direct = (0.0f64, 0.0f64);
    let mut errors = 0usize;
    for trial in 0..opts.trials {
        for batched in [true, false] {
            let (rps, p99_ms, errs) = match_trial(&opts, batched, trial);
            errors += errs;
            let best = if batched {
                &mut best_batched
            } else {
                &mut best_direct
            };
            if rps > best.0 {
                *best = (rps, p99_ms);
            }
            println!(
                "  match trial {}/{} batched={batched}: {rps:.0} req/s, p99 {p99_ms:.2} ms, \
                 errors {errs}",
                trial + 1,
                opts.trials
            );
        }
    }
    let mut best_grouped = 0.0f64;
    let mut best_single = 0.0f64;
    for trial in 0..opts.trials {
        for grouped in [true, false] {
            let (rps, errs) = ingest_trial(&opts, grouped, trial);
            errors += errs;
            let best = if grouped {
                &mut best_grouped
            } else {
                &mut best_single
            };
            *best = best.max(rps);
            println!(
                "  ingest trial {}/{} grouped={grouped}: {rps:.0} records/s, errors {errs}",
                trial + 1,
                opts.trials
            );
        }
    }

    let match_ratio = ratio(best_batched.0, best_direct.0);
    let ingest_ratio = ratio(best_grouped, best_single);
    let p99_ratio = ratio(best_batched.1, best_direct.1);
    let report = format!(
        "{{\"trials\":{},\"match_requests\":{},\"clients\":{},\"depth\":{},\"shards\":{},\
         \"workers\":{},\"window_us\":{},\"batch_max\":{},\"prefill\":{},\"ingest_records\":{},\
         \"ingest_batch\":{},\"seed\":{},\"errors\":{},\
         \"match_batched_rps\":{:.1},\"match_direct_rps\":{:.1},\"match_ratio\":{:.3},\
         \"match_batched_p99_ms\":{:.3},\"match_direct_p99_ms\":{:.3},\"p99_ratio\":{:.3},\
         \"ingest_grouped_rps\":{:.1},\"ingest_single_rps\":{:.1},\"ingest_ratio\":{:.3}}}",
        opts.trials,
        opts.match_requests,
        opts.clients,
        opts.depth,
        opts.shards,
        opts.workers,
        opts.window_us,
        opts.batch_max,
        opts.prefill,
        opts.ingest_records,
        opts.ingest_batch,
        opts.seed,
        errors,
        best_batched.0,
        best_direct.0,
        match_ratio,
        best_batched.1,
        best_direct.1,
        p99_ratio,
        best_grouped,
        best_single,
        ingest_ratio,
    );
    println!(
        "batch_bench: match batched {:.0} vs direct {:.0} req/s ({match_ratio:.2}x), \
         ingest grouped {best_grouped:.0} vs single {best_single:.0} records/s \
         ({ingest_ratio:.2}x), p99 ratio {p99_ratio:.2}x, errors {errors}",
        best_batched.0, best_direct.0
    );
    println!("{report}");
    if let Some(path) = &opts.out {
        std::fs::write(path, &report)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("  report written to {path}");
    }

    if opts.gate {
        let mut failed = false;
        if errors > 0 {
            eprintln!("error: {errors} request(s) failed across the trials");
            failed = true;
        }
        if ingest_ratio < 1.5 {
            eprintln!(
                "error: grouped ingest is only {ingest_ratio:.2}x single-record throughput \
                 (gate: >= 1.5x)"
            );
            failed = true;
        }
        if match_ratio < 1.04 {
            eprintln!(
                "error: batched match is only {match_ratio:.2}x unbatched throughput \
                 (gate: >= 1.04x)"
            );
            failed = true;
        }
        if p99_ratio > 1.5 {
            eprintln!(
                "error: batched match p99 is {p99_ratio:.2}x the unbatched p99 (gate: <= 1.5x)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("  all gates passed (ingest >= 1.5x, match >= 1.04x, p99 <= 1.5x, 0 errors)");
    }
}

/// `a / b`, `0.0` when the denominator is unmeasured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One match trial: fresh embedded server (coalescing on or off), prefilled
/// store, pipelined match-only load. Returns `(req/s, client p99 ms,
/// errors)`.
fn match_trial(opts: &Options, batched: bool, trial: usize) -> (f64, f64, usize) {
    let mut config = ServeConfig {
        shards: opts.shards,
        workers: opts.workers,
        batch_window_us: if batched { opts.window_us } else { 0 },
        batch_max: opts.batch_max,
        ..ServeConfig::default()
    };
    config.obs.log_level = multiem_serve::obs::Level::Error;
    let server = MatchServer::bind(config, HashedLexicalEncoder::default(), "127.0.0.1:0")
        .unwrap_or_else(|e| fail(&format!("embedded server failed: {e}")));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("no local addr: {e}")))
        .to_string();
    let handle = server
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn failed: {e}")));

    // Prefill so matches scan a real candidate set: the per-query cost a
    // batch amortizes is the representative-index pass over these.
    prefill(&addr, opts.seed, opts.prefill);

    let per_client = opts.match_requests.div_ceil(opts.clients);
    let started = Instant::now();
    let results: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let addr = addr.clone();
                let seed = opts
                    .seed
                    .wrapping_add(client as u64)
                    .wrapping_add(trial as u64 * 1000);
                scope.spawn(move || match_client(&addr, seed, per_client, opts.depth))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    handle.shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0usize;
    for (ns, errs) in results {
        latencies.extend(ns);
        errors += errs;
    }
    latencies.sort_unstable();
    let rps = latencies.len() as f64 / elapsed.as_secs_f64();
    (rps, percentile_ms(&latencies, 0.99), errors)
}

/// Seed the store with `count` distinct catalog titles (wide token space so
/// they stay separate clusters and prefill is one index pass per insert).
fn prefill(addr: &str, seed: u64, count: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut client =
        HttpClient::connect(addr).unwrap_or_else(|e| fail(&format!("prefill connect: {e}")));
    let mut remaining = count;
    while remaining > 0 {
        let n = remaining.min(32);
        remaining -= n;
        let records: Vec<String> = (0..n)
            .map(|_| {
                // No token shared between any two titles (and none with the
                // probe stream): every record stays its own cluster, so the
                // index scanned per match really holds ~`prefill` entries.
                format!(
                    "[\"c{} c{} c{}\"]",
                    rng.gen_range(0..1_000_000_000u32),
                    rng.gen_range(0..1_000_000_000u32),
                    rng.gen_range(0..1_000_000_000u32),
                )
            })
            .collect();
        let body = format!("{{\"records\":[{}]}}", records.join(","));
        match client.request("POST", "/records", Some(&body)) {
            Ok((200, _)) => {}
            Ok((status, body)) => fail(&format!("prefill answered {status}: {body}")),
            Err(e) => fail(&format!("prefill failed: {e}")),
        }
    }
}

/// Pipelined match-only client: bursts of `depth` requests per socket, with
/// per-response latency measured from the burst's first write. Probes are
/// drawn from a token space disjoint from the catalog's, so each one pays
/// the full candidate scan (the cost micro-batching amortizes) without the
/// per-hit mutual-top-K verification that a match would add on top.
fn match_client(addr: &str, seed: u64, requests: usize, depth: usize) -> (Vec<u64>, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut latencies = Vec::with_capacity(requests);
    let mut errors = 0usize;
    let Ok(mut client) = HttpClient::connect(addr) else {
        return (latencies, requests);
    };
    let mut sent = 0usize;
    while sent < requests {
        let burst = depth.min(requests - sent);
        sent += burst;
        let start = Instant::now();
        let mut wrote = 0usize;
        for _ in 0..burst {
            let body = format!(
                "{{\"record\":[\"p{} p{}\"]}}",
                rng.gen_range(0..1_000_000_000u32),
                rng.gen_range(0..1_000_000_000u32),
            );
            if client.send("POST", "/match", Some(&body)).is_err() {
                break;
            }
            wrote += 1;
        }
        errors += burst - wrote;
        for _ in 0..wrote {
            match client.recv() {
                Ok((200, _, _)) => {
                    latencies.push(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                }
                _ => errors += 1,
            }
        }
    }
    (latencies, errors)
}

/// One ingest trial: WAL-durable server with `--fsync always`, the same
/// record total ingested as `ingest_batch`-record requests (grouped — the
/// per-shard groups share one WAL batch append + fsync) or as one-record
/// requests (one fsync each). Returns `(records/s, errors)`.
fn ingest_trial(opts: &Options, grouped: bool, trial: usize) -> (f64, usize) {
    let dir = std::env::temp_dir().join(format!(
        "multiem-batch-bench-{}-{trial}-{grouped}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("temp dir: {e}")));
    let mut config = ServeConfig {
        shards: opts.shards,
        workers: opts.workers,
        data_dir: Some(PathBuf::from(&dir)),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    };
    config.obs.log_level = multiem_serve::obs::Level::Error;
    let server = MatchServer::bind(config, HashedLexicalEncoder::default(), "127.0.0.1:0")
        .unwrap_or_else(|e| fail(&format!("embedded server failed: {e}")));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("no local addr: {e}")))
        .to_string();
    let handle = server
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn failed: {e}")));

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed.wrapping_add(trial as u64));
    let batch = if grouped { opts.ingest_batch.max(1) } else { 1 };
    let mut remaining = opts.ingest_records;
    let mut ingested = 0usize;
    let mut errors = 0usize;
    let mut client =
        HttpClient::connect(&addr).unwrap_or_else(|e| fail(&format!("ingest connect: {e}")));
    let started = Instant::now();
    while remaining > 0 {
        let n = batch.min(remaining);
        remaining -= n;
        let records: Vec<String> = (0..n)
            .map(|_| {
                format!(
                    "[\"brand product {} {}\"]",
                    rng.gen_range(0..100_000u32),
                    rng.gen_range(0..100_000u32)
                )
            })
            .collect();
        let body = format!("{{\"records\":[{}]}}", records.join(","));
        match client.request("POST", "/records", Some(&body)) {
            Ok((200, _)) => ingested += n,
            _ => errors += n,
        }
    }
    let elapsed = started.elapsed();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    (ingested as f64 / elapsed.as_secs_f64(), errors)
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("invalid value `{text}` for {flag}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
