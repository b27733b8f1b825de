//! End-to-end tests of the serving layer: loopback HTTP, kill-and-restart
//! WAL durability (memory and disk record storage), delta checkpoints,
//! ingest backpressure, multi-threaded ingestion, and the connection front
//! end (slow clients, idle keep-alive fleets larger than the worker pool,
//! peers that stop reading, reader threads that end with their connections,
//! malformed requests, graceful shutdown, segment GC).

use multiem_embed::HashedLexicalEncoder;
use multiem_serve::http::{read_response, HttpClient};
use multiem_serve::{MatchServer, ServeConfig, ServeError, ServerHandle, ShardedEntityStore};
use multiem_table::{Record, Schema};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "multiem-serve-it-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_server(config: ServeConfig) -> (ServerHandle, String) {
    let server = MatchServer::bind(config, HashedLexicalEncoder::default(), "127.0.0.1:0")
        .expect("server binds");
    let addr = server.local_addr().unwrap().to_string();
    (server.spawn().expect("server spawns"), addr)
}

/// A `POST /records` body of one-attribute records.
fn records_body<T: AsRef<str>>(titles: &[T]) -> String {
    let records: Vec<String> = titles
        .iter()
        .map(|t| format!("[\"{}\"]", t.as_ref()))
        .collect();
    format!("{{\"records\":[{}]}}", records.join(","))
}

fn post_records<T: AsRef<str>>(client: &mut HttpClient, titles: &[T]) -> String {
    let body = records_body(titles);
    let (status, response) = client.request("POST", "/records", Some(&body)).unwrap();
    assert_eq!(status, 200, "ingest failed: {response}");
    response
}

fn snapshot(client: &mut HttpClient) -> String {
    let (status, body) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

fn get_stats(client: &mut HttpClient) -> String {
    let (status, body) = client.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    body
}

fn match_title(client: &mut HttpClient, title: &str) -> String {
    let body = format!("{{\"record\":[\"{title}\"]}}");
    let (status, response) = client.request("POST", "/match", Some(&body)).unwrap();
    assert_eq!(status, 200, "match failed: {response}");
    response
}

/// The `POST /match` answer for each title. Answers name clusters by id (a
/// cluster answers as its smallest member), so equal answers for every
/// ingested title mean equal ids, equal clusters and equal distances.
fn match_all<T: AsRef<str>>(client: &mut HttpClient, titles: &[T]) -> Vec<String> {
    let titles = titles.iter();
    titles.map(|t| match_title(client, t.as_ref())).collect()
}

/// The store-state part of a stats body: everything before the per-process
/// `"requests"` counter, which legitimately differs across server lifetimes.
fn store_part(stats: &str) -> &str {
    let end = stats
        .find(",\"requests\"")
        .expect("stats has requests field");
    &stats[..end]
}

/// Pull `"records":N` style counters out of a stats body without a full JSON
/// parser dependency in the test.
fn counter(stats: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = stats.find(&needle).unwrap_or_else(|| {
        panic!("stats body lacks {name}: {stats}");
    }) + needle.len();
    stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric counter")
}

#[test]
fn loopback_http_roundtrip() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();

    // Liveness.
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""));
    assert!(body.contains("\"durable\":false"));

    // Ingest three records; two are near-duplicates.
    let response = post_records(
        &mut client,
        &[
            "golden heart river",
            "makita drill 18v",
            "golden heart river live",
        ],
    );
    assert!(response.contains("\"ingested\":3"));
    assert!(
        response.contains("\"matched\":true"),
        "the near-duplicate should merge: {response}"
    );

    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "records"), 3);
    assert_eq!(counter(&stats, "tuples"), 1);

    // Read-only match finds the river cluster.
    let matches = match_title(&mut client, "golden heart river remaster");
    assert!(matches.contains("\"distance\""), "no matches: {matches}");
    let stats_after = get_stats(&mut client);
    assert_eq!(counter(&stats_after, "records"), 3, "match must not ingest");

    // Unknown route and malformed bodies.
    let (status, _) = client.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = client
        .request("POST", "/records", Some("{not json"))
        .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    let (status, _) = client
        .request(
            "POST",
            "/records",
            Some("{\"records\":[[\"a\",\"extra\"]]}"),
        )
        .unwrap();
    assert_eq!(status, 400, "arity mismatch must be rejected");
    // Snapshot without a data dir is a client error, not a crash.
    let (status, _) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 400);

    handle.shutdown();
}

#[test]
fn wal_replay_restores_identical_state_after_kill() {
    let dir = temp_dir("kill-restart");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 3,
        ..ServeConfig::default()
    };

    let titles = [
        "apple iphone 8 plus 64gb silver",
        "sony bravia tv 55",
        "apple iphone 8 plus 64 gb silver",
        "dyson v11 vacuum cleaner",
        "sony bravia television 55 inch",
        "garmin gps watch",
    ];

    // First life: ingest over HTTP, record the observable state, then drop
    // the server WITHOUT checkpointing (the handle shutdown is the kill; no
    // /snapshot is ever issued).
    let (stats_before, matches_before) = {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        post_records(&mut client, &titles);
        let stats = get_stats(&mut client);
        let matches = match_title(&mut client, "apple iphone 8 plus silver");
        handle.shutdown();
        (stats, matches)
    };
    assert_eq!(counter(&stats_before, "records"), titles.len() as u64);
    assert!(counter(&stats_before, "wal_bytes") > 0);

    // Second life: WAL replay must reproduce identical stats and matches.
    {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        assert_eq!(
            store_part(&get_stats(&mut client)),
            store_part(&stats_before)
        );
        assert_eq!(
            match_title(&mut client, "apple iphone 8 plus silver"),
            matches_before
        );

        // Checkpoint, write more, and restart again: snapshot + residual WAL
        // compose.
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"checkpointed\":true"));
        let stats = get_stats(&mut client);
        assert_eq!(counter(&stats, "wal_bytes"), 0, "checkpoint truncates WAL");
        post_records(&mut client, &["bosch washing machine pro"]);
        handle.shutdown();
    }

    // Third life: checkpoint restore + replay of the single post-checkpoint op.
    {
        let (handle, addr) = spawn_server(config);
        let mut client = HttpClient::connect(&addr).unwrap();
        let stats = get_stats(&mut client);
        assert_eq!(counter(&stats, "records"), titles.len() as u64 + 1);
        assert_eq!(
            counter(&stats, "tuples"),
            counter(&stats_before, "tuples"),
            "the lone extra record must not change tuples"
        );
        assert_eq!(
            match_title(&mut client, "apple iphone 8 plus silver"),
            matches_before
        );
        handle.shutdown();
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_checkpoint_is_invisible_until_manifest_commit() {
    let dir = temp_dir("torn-checkpoint");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 2,
        ..ServeConfig::default()
    };

    // Build a checkpointed state (epoch 1) plus one post-checkpoint WAL op.
    let (stats_before, matches_before) = {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        post_records(
            &mut client,
            &[
                "apple iphone 8 plus",
                "sony bravia tv",
                "apple iphone 8 plus 64gb",
            ],
        );
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"epoch\":1"));
        post_records(&mut client, &["garmin gps watch"]);
        let stats = get_stats(&mut client);
        let matches = match_title(&mut client, "apple iphone 8");
        handle.shutdown();
        (stats, matches)
    };
    assert_eq!(counter(&stats_before, "records"), 4);

    // The checkpoint must have garbage-collected every epoch-0 file.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains("-000000."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "epoch-0 files survived: {leftovers:?}"
    );

    // Simulate a second checkpoint that crashed AFTER writing its epoch-2
    // snapshots and WALs but BEFORE the manifest commit: stale epoch-2
    // files exist (missing the post-checkpoint record), manifest still says
    // epoch 1.
    for shard in 0..2 {
        std::fs::copy(
            dir.join(format!("shard-{shard:03}-000001.snap")),
            dir.join(format!("shard-{shard:03}-000002.snap")),
        )
        .unwrap();
        std::fs::write(dir.join(format!("wal-{shard:03}-000002.log")), b"").unwrap();
    }

    // Restart: the torn epoch 2 must be ignored; state == pre-kill state.
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    let stats = get_stats(&mut client);
    assert_eq!(store_part(&stats), store_part(&stats_before));
    assert_eq!(match_title(&mut client, "apple iphone 8"), matches_before);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A serve config whose shards spill records to segment files under the
/// data dir, with tiny segments so even small tests exercise sealing.
fn disk_config(dir: &std::path::Path, shards: usize) -> ServeConfig {
    let mut config = ServeConfig {
        data_dir: Some(dir.to_path_buf()),
        shards,
        ..ServeConfig::default()
    };
    config.online.storage =
        multiem_online::StorageConfig::Disk(multiem_online::DiskStorageConfig {
            segment_records: 4,
            cache_records: 8,
            ..multiem_online::DiskStorageConfig::new(String::new())
        });
    config
}

#[test]
fn disk_backend_kill_and_restart_mid_delta_checkpoint() {
    let dir = temp_dir("disk-kill-restart");
    let config = disk_config(&dir, 3);

    let titles = [
        "apple iphone 8 plus 64gb silver",
        "sony bravia tv 55",
        "apple iphone 8 plus 64 gb silver",
        "dyson v11 vacuum cleaner",
        "sony bravia television 55 inch",
        "garmin gps watch",
        "makita drill 18v",
        "makita drill 18 v cordless",
    ];

    // First life: ingest, delta-checkpoint, ingest more, then die without a
    // second checkpoint — the classic "killed mid-delta-epoch" state: a
    // committed delta checkpoint plus a non-empty WAL on top of it.
    let (stats_before, matches_before) = {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        assert!(client
            .request("GET", "/healthz", None)
            .unwrap()
            .1
            .contains("\"storage\":\"disk\""));
        post_records(&mut client, &titles[..5]);
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"checkpointed\":true"));
        post_records(&mut client, &titles[5..]);
        let stats = get_stats(&mut client);
        let matches = match_title(&mut client, "apple iphone 8 plus silver");
        handle.shutdown();
        (stats, matches)
    };
    assert_eq!(counter(&stats_before, "records"), titles.len() as u64);
    assert!(
        counter(&stats_before, "wal_bytes") > 0,
        "post-checkpoint ops logged"
    );
    assert!(
        counter(&stats_before, "spilled_records") > 0,
        "records spilled to segments"
    );

    // Second life: checkpoint restore (segment index + cluster state) plus
    // WAL replay must reproduce byte-identical store stats and matches.
    {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        assert_eq!(
            store_part(&get_stats(&mut client)),
            store_part(&stats_before),
            "disk-backed restart must restore byte-identical store state"
        );
        assert_eq!(
            match_title(&mut client, "apple iphone 8 plus silver"),
            matches_before
        );
        // Another checkpoint + restart composes.
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        handle.shutdown();
    }
    {
        let (handle, addr) = spawn_server(config);
        let mut client = HttpClient::connect(&addr).unwrap();
        // The second checkpoint truncated the WAL, so compare the cluster
        // state (everything before `wal_bytes`) and the match results.
        let stats = get_stats(&mut client);
        assert_eq!(counter(&stats, "records"), titles.len() as u64);
        assert_eq!(counter(&stats, "tuples"), counter(&stats_before, "tuples"));
        assert_eq!(
            counter(&stats, "clusters"),
            counter(&stats_before, "clusters")
        );
        assert_eq!(counter(&stats, "wal_bytes"), 0, "checkpoint truncated WAL");
        assert_eq!(
            match_title(&mut client, "apple iphone 8 plus silver"),
            matches_before
        );
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_backend_interrupted_delta_checkpoint_is_invisible() {
    let dir = temp_dir("disk-torn-checkpoint");
    let config = disk_config(&dir, 2);

    // Committed epoch 1 plus one post-checkpoint WAL op.
    let (stats_before, matches_before) = {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        post_records(
            &mut client,
            &[
                "apple iphone 8 plus",
                "sony bravia tv",
                "apple iphone 8 plus 64gb",
                "dyson v11 vacuum",
                "makita drill 18v",
            ],
        );
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"epoch\":1"));
        post_records(&mut client, &["garmin gps watch"]);
        let stats = get_stats(&mut client);
        let matches = match_title(&mut client, "apple iphone 8");
        handle.shutdown();
        (stats, matches)
    };

    // Simulate a second delta checkpoint that crashed after writing its
    // epoch-2 shard snapshots and empty WALs but BEFORE the manifest
    // commit. The stale epoch-2 files miss the post-checkpoint record; the
    // manifest still names epoch 1.
    for shard in 0..2 {
        std::fs::copy(
            dir.join(format!("shard-{shard:03}-000001.snap")),
            dir.join(format!("shard-{shard:03}-000002.snap")),
        )
        .unwrap();
        std::fs::write(dir.join(format!("wal-{shard:03}-000002.log")), b"").unwrap();
    }

    // Restart: the torn epoch 2 is ignored; state == pre-kill state.
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(
        store_part(&get_stats(&mut client)),
        store_part(&stats_before)
    );
    assert_eq!(match_title(&mut client, "apple iphone 8"), matches_before);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_checkpoint_skips_clean_shards() {
    let dir = temp_dir("delta-skip");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 4,
        ..ServeConfig::default()
    };
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    post_records(&mut client, &["golden heart river", "makita drill"]);

    // First checkpoint: only the shards that received records snapshot.
    let (status, body) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let written = counter(&body, "snapshots_written");
    assert!(
        (1..=2).contains(&written),
        "only touched shards snapshot: {body}"
    );

    // No writes since: the next checkpoint is a pure epoch roll.
    let (status, body) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "snapshots_written"), 0, "{body}");
    assert!(body.contains("\"epoch\":2"));

    // One more record re-dirties exactly one shard.
    post_records(&mut client, &["golden heart river live"]);
    let (status, body) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "snapshots_written"), 1, "{body}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_data_dir_owns_its_shard_count_and_a_log_nobody_replays_is_refused() {
    let dir = temp_dir("shard-count");
    let config = |shards| ServeConfig {
        data_dir: Some(dir.clone()),
        shards,
        ..ServeConfig::default()
    };
    let titles: Vec<String> = (0..12).map(|i| format!("source{i} item {i}")).collect();

    // First life: four shards, all of them written, no checkpoint.
    let (stats, answers) = {
        let (handle, addr) = spawn_server(config(4));
        let mut client = HttpClient::connect(&addr).unwrap();
        let ids = ids_of(&post_records(&mut client, &titles));
        let touched: std::collections::BTreeSet<u64> = ids.iter().map(|id| id.0).collect();
        assert_eq!(
            touched.len(),
            4,
            "the titles must land on all four: {ids:?}"
        );
        let seen = (get_stats(&mut client), match_all(&mut client, &titles));
        handle.shutdown();
        seen
    };

    // (i) The manifest written at first boot says four; `shards: 2` on the
    // populated directory is advisory.
    {
        let (handle, addr) = spawn_server(config(2));
        let mut client = HttpClient::connect(&addr).unwrap();
        assert_eq!(store_part(&get_stats(&mut client)), store_part(&stats));
        assert_eq!(match_all(&mut client, &titles), answers);
        handle.shutdown();
    }

    // (ii) Without the manifest nothing says four: two shards would leave
    // two logs unread, so start-up refuses by name instead.
    std::fs::remove_file(dir.join("MANIFEST.json")).unwrap();
    let refused = MatchServer::bind(config(2), HashedLexicalEncoder::default(), "127.0.0.1:0");
    let refused = refused.err().expect("a stray log must fail start-up");
    assert!(
        refused.to_string().contains("wal-002-000000.log"),
        "{refused}"
    );

    // (iii) Enough shards for every log: each log replays into the shard
    // that wrote it — whatever its records hash to among six — so every id
    // a client was given still names its record.
    let (handle, addr) = spawn_server(config(6));
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(counter(&get_stats(&mut client), "records"), 12);
    assert_eq!(match_all(&mut client, &titles), answers);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_manifests_are_refused_not_reinterpreted() {
    let dir = temp_dir("damaged-manifest");
    let bind = || {
        let config = ServeConfig {
            data_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        MatchServer::bind(config, HashedLexicalEncoder::default(), "127.0.0.1:0").map(|_| ())
    };
    // The manifest a first boot writes opens again; one that lost
    // `shard_epochs` or miscounts its shards is an error, not a guess.
    bind().expect("creates the directory and its manifest");
    bind().expect("reads it back");
    for damaged in [
        r#"{"shards":4,"epoch":0,"attributes":["title"]}"#,
        r#"{"shards":0,"epoch":0,"shard_epochs":[],"attributes":["title"]}"#,
        r#"{"shards":4,"epoch":0,"shard_epochs":[0,0],"attributes":["title"]}"#,
    ] {
        std::fs::write(dir.join("MANIFEST.json"), damaged).unwrap();
        let refused = bind().expect_err(damaged);
        assert!(refused.to_string().contains("MANIFEST.json"), "{refused}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_fsync_readiness_threshold_without_telemetry_is_refused() {
    let bind = |telemetry: bool, ready_max_fsync_ms: u64| {
        let mut config = ServeConfig::default();
        config.obs.telemetry = telemetry;
        config.obs.ready_max_fsync_ms = ready_max_fsync_ms;
        MatchServer::bind(config, HashedLexicalEncoder::default(), "127.0.0.1:0").map(|_| ())
    };
    // The threshold reads the windowed fsync p99, which only telemetry
    // keeps: without it the check could never trip, so start-up says so.
    let refused = bind(false, 50).expect_err("a threshold that cannot trip");
    assert!(matches!(refused, ServeError::Config(_)), "{refused}");
    let msg = refused.to_string();
    assert!(
        msg.contains("--ready-max-fsync-ms") && msg.contains("--no-telemetry"),
        "{msg}"
    );
    bind(false, 0).expect("no threshold, no telemetry");
    bind(true, 50).expect("a threshold with telemetry");
}

/// `/healthz`'s `storage` and `/stats`' `storage.backend`: the backend the
/// server runs, as each route reports it.
fn backends(client: &mut HttpClient) -> (String, String) {
    let healthz = get_json(client, "/healthz");
    let stats = get_json(client, "/stats");
    let backend = json_field(&stats, "storage").and_then(|s| json_field(s, "backend"));
    let name = |v: Option<&serde::Value>| v.and_then(serde::Value::as_str).map(str::to_string);
    (
        name(json_field(&healthz, "storage")).expect("healthz names its storage"),
        name(backend).expect("stats names its storage backend"),
    )
}

#[test]
fn a_data_dir_owns_its_storage_backend() {
    let dir = temp_dir("owns-backend");
    let log = dir.join("second-life.log");
    let titles: Vec<String> = (0..11).map(|i| format!("source{i} item {i}")).collect();
    {
        let (handle, addr) = spawn_server(disk_config(&dir, 2));
        let mut client = HttpClient::connect(&addr).unwrap();
        post_records(&mut client, &titles[..8]);
        snapshot(&mut client);
        handle.shutdown();
    }

    // Restarted with the default (memory) configuration, the directory keeps
    // its backend, both routes say so, and the override is logged.
    let mut config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 2,
        ..ServeConfig::default()
    };
    config.obs.log_file = Some(log.clone());
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(backends(&mut client), ("disk".into(), "disk".into()));
    // A disk checkpoint seals every shard's tail (too few records here to
    // fill one), so after it every record lives in a segment file.
    post_records(&mut client, &titles[8..]);
    snapshot(&mut client);
    let stats = get_json(&mut client, "/stats");
    let storage = json_field(&stats, "storage").expect("stats has storage");
    let count = |name| json_field(storage, name).and_then(serde::Value::as_u64);
    assert_eq!(count("records"), Some(11));
    assert_eq!(count("spilled_records"), count("records"));
    handle.shutdown();
    let log = std::fs::read_to_string(&log).unwrap();
    assert!(
        log.contains("\"event\":\"checkpoint_storage_override\""),
        "{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_memory_data_dir_stays_memory_under_a_disk_config() {
    let dir = temp_dir("stays-memory");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 3,
        ..ServeConfig::default()
    };
    {
        let (handle, addr) = spawn_server(config);
        let mut client = HttpClient::connect(&addr).unwrap();
        // One leading token, one shard: the other two are never checkpointed.
        post_records(&mut client, &["apple iphone 8", "apple iphone 8 plus"]);
        snapshot(&mut client);
        handle.shutdown();
    }

    let (handle, addr) = spawn_server(disk_config(&dir, 3));
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(backends(&mut client), ("memory".into(), "memory".into()));
    let storage = get_json(&mut client, "/debug/storage");
    let shards = json_field(&storage, "shards").and_then(serde::Value::as_seq);
    let shard_backends: Vec<&str> = shards
        .expect("debug/storage lists shards")
        .iter()
        .filter_map(|shard| json_field(shard, "backend").and_then(serde::Value::as_str))
        .collect();
    assert_eq!(shard_backends, ["memory"; 3]);
    post_records(&mut client, &["sony bravia tv"]);
    snapshot(&mut client);
    handle.shutdown();
    assert!(!dir.join("segments").exists(), "nothing may spill");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_manifest_without_a_backend_opens_with_the_configured_one() {
    // What a PR-24 build wrote at first boot: no `storage` key.
    let dir = temp_dir("backendless-manifest");
    let manifest = r#"{"shards":2,"epoch":0,"shard_epochs":[0,0],"attributes":["title"]}"#;
    std::fs::write(dir.join("MANIFEST.json"), manifest).unwrap();
    let (handle, addr) = spawn_server(disk_config(&dir, 2));
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(backends(&mut client), ("disk".into(), "disk".into()));
    post_records(&mut client, &["apple iphone 8"]);
    snapshot(&mut client);
    handle.shutdown();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
    assert!(manifest.contains("\"storage\":\"disk\""), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Make every seal of every disk shard under `dir` fail while reads of the
/// sealed segments keep working: a directory squats on the temp name of each
/// segment file a seal could write next.
fn block_seals(dir: &std::path::Path, blocked: bool) {
    for shard in std::fs::read_dir(dir.join("segments")).unwrap() {
        for n in 0..256 {
            let squatter = shard
                .as_ref()
                .unwrap()
                .path()
                .join(format!("seg-{n:06}.tmp"));
            if blocked {
                std::fs::create_dir(squatter).unwrap();
            } else {
                std::fs::remove_dir(squatter).unwrap();
            }
        }
    }
}

#[test]
fn a_group_that_fails_part_way_still_dirties_its_shard() {
    let dir = temp_dir("partial-group");
    let config = disk_config(&dir, 1);
    let (handle, addr) = spawn_server(config.clone());
    let mut client = HttpClient::connect(&addr).unwrap();
    post_records(&mut client, &["apple iphone 8 plus", "sony bravia tv"]);
    snapshot(&mut client);

    // The checkpoint sealed the tail, so of five more records the fourth
    // fills it (`segment_records: 4`), its seal fails, and the group answers
    // `500` with three records applied and all five logged.
    block_seals(&dir, true);
    let group = ["garmin gps watch", "makita drill 18v", "dyson v11 vacuum"];
    let group = [&group[..], &["bosch washing machine", "zanussi fridge"]].concat();
    let (status, body) = client
        .request("POST", "/records", Some(&records_body(&group)))
        .unwrap();
    assert_eq!(status, 500, "{body}");
    block_seals(&dir, false);
    assert_eq!(counter(&get_stats(&mut client), "records"), 5);

    // What was applied counted: the shard is dirty, so the checkpoint that
    // truncates the log also writes the snapshot that holds the three.
    assert_eq!(counter(&snapshot(&mut client), "snapshots_written"), 1);
    let stats = get_stats(&mut client);
    handle.shutdown();

    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(store_part(&get_stats(&mut client)), store_part(&stats));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// --------------------------------------------------------------------------
// restarted ≡ never-killed, from seeds
// --------------------------------------------------------------------------

/// One step of a seeded script. Records are named by their position among
/// the ids the script's ingests were answered with.
#[derive(Debug)]
enum Step {
    Ingest(Vec<String>),
    Delete(usize),
    /// These records — the first of them twice — and two ids nobody was given.
    DeleteBatch(Vec<usize>),
    Snapshot,
    /// Disk only: a group the store fails part-way through, between two
    /// checkpoints (see [`perform`]).
    FailedGroup(Vec<String>),
    /// Server B only: shut down without a checkpoint, bind again asking for
    /// this many shards.
    Restart(usize),
}

fn script(seed: u64, shards: usize, disk: bool) -> Vec<Step> {
    use rand::{Rng, SeedableRng};
    const BRANDS: [&str; 8] = [
        "apple", "sony", "makita", "dyson", "garmin", "bosch", "zanussi", "lenovo",
    ];
    const MODELS: [&str; 5] = [
        "phone 8 plus",
        "bravia tv 55",
        "drill 18v",
        "vacuum v11",
        "watch",
    ];
    const VARIANTS: [&str; 5] = ["", " silver", " 64gb", " 64 gb", " pro edition"];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut pick = |from: &[&'static str]| from[rng.gen_range(0..from.len())];
    let mut title = || format!("{} {}{}", pick(&BRANDS), pick(&MODELS), pick(&VARIANTS));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(!seed);
    let mut steps = Vec::new();
    let mut records = 0;
    for n in 0..40 {
        steps.push(match rng.gen_range(0..10) {
            4 if records > 0 => Step::Delete(rng.gen_range(0..records)),
            5 if records > 0 => {
                let picks = (0..rng.gen_range(1..=4)).map(|_| rng.gen_range(0..records));
                Step::DeleteBatch(picks.collect())
            }
            6 => Step::Snapshot,
            // One leading token, so one shard takes the whole group.
            7 if disk => {
                Step::FailedGroup((0..5).map(|i| format!("failing{n} item {i}")).collect())
            }
            8 => Step::Restart(shards + rng.gen_range(1..=2usize)),
            _ => {
                let group: Vec<String> = (0..rng.gen_range(1..=8)).map(|_| title()).collect();
                records += group.len();
                Step::Ingest(group)
            }
        });
    }
    // The end state is compared across a restart too.
    steps.push(Step::Restart(shards + 1));
    steps
}

/// Run one step against one server, returning what the other server must
/// answer too.
fn perform(
    client: &mut HttpClient,
    dir: &std::path::Path,
    step: &Step,
    ids: &[(u64, u64, u64)],
) -> String {
    let triple = |&(shard, source, row): &(u64, u64, u64)| format!("[{shard},{source},{row}]");
    match step {
        Step::Ingest(titles) => post_records(client, titles),
        Step::Delete(at) => delete_record(client, ids[*at]).to_string(),
        Step::DeleteBatch(picks) => {
            let mut batch: Vec<String> = picks.iter().map(|&at| triple(&ids[at])).collect();
            batch.extend([
                triple(&ids[picks[0]]),
                triple(&(0, 7, 7)),
                triple(&(99, 0, 0)),
            ]);
            let body = format!("{{\"ids\":[{}]}}", batch.join(","));
            let (status, response) = client
                .request("POST", "/records/delete", Some(&body))
                .unwrap();
            assert_eq!(status, 200, "{response}");
            response
        }
        Step::Snapshot => {
            snapshot(client);
            String::new()
        }
        // The first checkpoint empties every tail, so the fourth record of
        // the group fills its shard's and fails to seal: three are applied,
        // five are logged. No restart separates that from the second
        // checkpoint, which must snapshot the three before it drops the log.
        Step::FailedGroup(titles) => {
            snapshot(client);
            block_seals(dir, true);
            let body = records_body(titles);
            let (status, response) = client.request("POST", "/records", Some(&body)).unwrap();
            block_seals(dir, false);
            assert_eq!(status, 500, "{response}");
            snapshot(client);
            String::new()
        }
        Step::Restart(_) => unreachable!("restarts are the driver's"),
    }
}

#[test]
fn seeded_scripts_restarted_equals_never_killed() {
    const PROBES: [&str; 4] = [
        "apple phone 8",
        "sony bravia television",
        "makita cordless drill",
        "nothing like this was ever ingested",
    ];
    for (seed, disk, shards) in [(1, false, 1), (2, false, 3), (3, true, 1), (4, true, 3)] {
        let dirs = [temp_dir("seeded-a"), temp_dir("seeded-b")];
        let config = |dir: &std::path::Path, shards| match disk {
            true => disk_config(dir, shards),
            false => ServeConfig {
                data_dir: Some(dir.to_path_buf()),
                shards,
                ..ServeConfig::default()
            },
        };
        let boot = |dir: &std::path::Path, shards| {
            let (handle, addr) = spawn_server(config(dir, shards));
            (handle, HttpClient::connect(&addr).unwrap())
        };
        // A runs the whole script; B is the one that gets restarted.
        let mut a = boot(&dirs[0], shards);
        let mut b = boot(&dirs[1], shards);
        let (mut ids, mut titles) = (Vec::new(), Vec::<String>::new());
        let mut first_life = true;
        for step in script(seed, shards, disk) {
            let context = format!("seed {seed}, {step:?}");
            let Step::Restart(asked) = step else {
                let answers = [(&mut a, &dirs[0]), (&mut b, &dirs[1])]
                    .map(|(server, dir)| perform(&mut server.1, dir, &step, &ids));
                assert_eq!(answers[0], answers[1], "{context}");
                if let Step::Ingest(group) = step {
                    ids.extend(ids_of(&answers[0]));
                    titles.extend(group);
                }
                continue;
            };
            b.0.shutdown();
            if std::mem::take(&mut first_life) {
                // Same requests, same logs: what replay will read is what
                // the server that keeps running wrote.
                let logs = |dir: &PathBuf| {
                    let mut logs: Vec<_> = std::fs::read_dir(dir)
                        .unwrap()
                        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                        .filter(|name| name.starts_with("wal-"))
                        .map(|name| {
                            (
                                multiem_serve::wal::read_ops(&dir.join(&name)).unwrap(),
                                name,
                            )
                        })
                        .collect();
                    logs.sort_by(|x, y| x.1.cmp(&y.1));
                    logs
                };
                assert_eq!(logs(&dirs[0]), logs(&dirs[1]), "{context}");
            }
            b = boot(&dirs[1], asked);
            let seen = [&mut a, &mut b].map(|server| {
                let stats = store_part(&get_stats(&mut server.1)).to_string();
                let answers = match_all(&mut server.1, &titles);
                (stats, answers, match_all(&mut server.1, &PROBES))
            });
            assert_eq!(seen[0], seen[1], "{context}");
        }
        a.0.shutdown();
        b.0.shutdown();
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

#[test]
fn full_ingest_queue_answers_429_with_retry_after() {
    // queue_depth 0: every ingest is refused (the drain/maintenance mode),
    // which makes the backpressure path deterministic to observe.
    let (handle, addr) = spawn_server(ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();

    let (status, headers, body) = client
        .request_with_headers(
            "POST",
            "/records",
            Some("{\"records\":[[\"golden heart river\"],[\"makita drill\"]]}"),
        )
        .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    let retry_after: u64 = headers
        .iter()
        .find(|(name, _)| name == "retry-after")
        .map(|(_, value)| value.parse().expect("numeric Retry-After"))
        .expect("429 must carry Retry-After");
    // Nothing has ever drained on this server, so the adaptive backoff
    // reports the maximum — not the old hardcoded 1 that sent clients
    // straight back into the full queue.
    assert_eq!(retry_after, 30, "no drain history => maximum backoff");

    // Nothing was ingested; the rejection is counted in /stats.
    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "records"), 0);
    assert_eq!(counter(&stats, "rejected"), 2);
    assert_eq!(counter(&stats, "queue_depth"), 0);

    // Reads still work while writes shed load.
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn batch_larger_than_queue_depth_gets_terminal_400() {
    // A batch that routes more records to one shard than the queue could
    // ever hold must not 429 (the client would retry it verbatim forever):
    // it gets a terminal 400 telling the client to split.
    let (handle, addr) = spawn_server(ServeConfig {
        queue_depth: 2,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();
    // Same leading token => same shard for all three.
    let (status, body) = client
        .request(
            "POST",
            "/records",
            Some("{\"records\":[[\"golden one\"],[\"golden two\"],[\"golden three\"]]}"),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("split the batch"), "{body}");
    // A fitting batch on the same connection still lands.
    let (status, _) = client
        .request(
            "POST",
            "/records",
            Some("{\"records\":[[\"golden one\"],[\"golden two\"]]}"),
        )
        .unwrap();
    assert_eq!(status, 200);
    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "records"), 2);
    handle.shutdown();
}

#[test]
fn stats_counters_are_the_metric_registry() {
    // `queue_depth: 0` refuses every ingest, so the ingests are the 429s;
    // deletes are not queued, so the delete is the store's 404.
    let (handle, addr) = spawn_server(ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();
    let (two, one) = (records_body(&["a b", "c d"]), records_body(&["e f"]));
    let script = [
        ("GET", "/healthz", None, 200),
        ("GET", "/debug/top", None, 200),
        (
            "POST",
            "/match",
            Some("{\"record\":[\"apple iphone\"]}"),
            200,
        ),
        ("POST", "/records", Some(two.as_str()), 429),
        ("POST", "/records", Some(one.as_str()), 429),
        ("DELETE", "/records/0-0-0", None, 404),
        ("GET", "/nope", None, 404),
        ("PUT", "/match", None, 405),
    ];
    for (method, path, body, status) in script {
        let answer = client.request(method, path, body).unwrap();
        assert_eq!(answer.0, status, "{method} {path}: {}", answer.1);
    }
    let stats = get_stats(&mut client);
    let metrics = get_metrics(&mut client);
    let answered: f64 = metrics
        .lines()
        .filter(|line| line.starts_with("multiem_requests_total{"))
        .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum();
    // Every answered request, and the scrape counts the `/stats` before it.
    assert_eq!(counter(&stats, "requests"), script.len() as u64);
    assert_eq!(counter(&stats, "requests") as f64 + 1.0, answered);
    assert_eq!(counter(&stats, "rejected"), 3);
    assert_eq!(
        counter(&stats, "rejected") as f64,
        sample(&metrics, "multiem_rejected_records_total")
    );
    handle.shutdown();
}

#[test]
fn default_queue_depth_accepts_normal_traffic() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();
    post_records(&mut client, &["golden heart river", "makita drill 18v"]);
    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "records"), 2);
    assert_eq!(counter(&stats, "rejected"), 0);
    handle.shutdown();
}

// --------------------------------------------------------------------------
// Record deletion + segment compaction
// --------------------------------------------------------------------------

/// The `(shard, source, row)` id triples of a `POST /records` response, in
/// request order.
fn ids_of(response: &str) -> Vec<(u64, u64, u64)> {
    let value: serde::Value = serde_json::from_str(response).expect("ingest response JSON");
    let results = json_field(&value, "results").and_then(serde::Value::as_seq);
    let results = results.expect("ingest response has results");
    let part = |result: &serde::Value, name: &str| {
        json_field(result, name)
            .and_then(serde::Value::as_u64)
            .unwrap_or_else(|| panic!("response lacks {name}: {response}"))
    };
    let id = |r| (part(r, "shard"), part(r, "source"), part(r, "row"));
    results.iter().map(id).collect()
}

/// Ingest titles one request at a time, returning each record's
/// `(shard, source, row)` id triple from the response.
fn ingest_with_ids(client: &mut HttpClient, titles: &[&str]) -> Vec<(u64, u64, u64)> {
    let mut ids = Vec::with_capacity(titles.len());
    for title in titles {
        let posted = ids_of(&post_records(client, &[title]));
        assert_eq!(posted.len(), 1);
        ids.extend(posted);
    }
    ids
}

fn delete_record(client: &mut HttpClient, id: (u64, u64, u64)) -> u16 {
    let (shard, source, row) = id;
    let (status, _) = client
        .request("DELETE", &format!("/records/{shard}-{source}-{row}"), None)
        .unwrap();
    status
}

#[test]
fn delete_endpoints_remove_records_and_count() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();
    let titles = [
        "golden heart river",
        "golden heart river live",
        "makita drill 18v",
        "zanussi fridge compact",
    ];
    let ids = ingest_with_ids(&mut client, &titles);
    assert_eq!(counter(&get_stats(&mut client), "records"), 4);

    // Single delete: the near-duplicate leaves its cluster.
    assert_eq!(delete_record(&mut client, ids[1]), 200);
    // Idempotent: a second delete of the same id is a 404.
    assert_eq!(delete_record(&mut client, ids[1]), 404);
    // Unknown ids and malformed ids answer 404 / 400, not 500.
    assert_eq!(delete_record(&mut client, (0, 0, 999)), 404);
    let (status, _) = client
        .request("DELETE", "/records/not-an-id", None)
        .unwrap();
    assert_eq!(status, 400);

    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "records"), 3);
    assert_eq!(counter(&stats, "deleted"), 1);
    assert_eq!(counter(&stats, "tuples"), 0, "the river pair is gone");

    // The deleted record can no longer be matched; its twin still can.
    let matches = match_title(&mut client, "golden heart river remaster");
    let needle = format!(
        "\"shard\":{},\"source\":{},\"row\":{}",
        ids[1].0, ids[1].1, ids[1].2
    );
    assert!(
        !matches.contains(&needle),
        "deleted id resurfaced: {matches}"
    );

    // Batch deletion: one live, one already gone.
    let body = format!(
        "{{\"ids\":[[{},{},{}],[{},{},{}]]}}",
        ids[2].0, ids[2].1, ids[2].2, ids[1].0, ids[1].1, ids[1].2
    );
    let (status, response) = client
        .request("POST", "/records/delete", Some(&body))
        .unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"deleted\":1"), "{response}");
    assert!(response.contains("\"missing\":1"), "{response}");
    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "records"), 2);
    assert_eq!(counter(&stats, "deleted"), 2);

    // Malformed batch bodies are client errors.
    let (status, _) = client
        .request("POST", "/records/delete", Some("{\"ids\":[[1,2]]}"))
        .unwrap();
    assert_eq!(status, 400);
    handle.shutdown();
}

#[test]
fn delete_half_compaction_and_kill_restart() {
    // The end-to-end erasure story: delete half the records, force
    // compaction through a checkpoint, "kill" (drop without a final
    // checkpoint so the post-checkpoint deletes live only in the WAL),
    // restart, and require (a) deleted ids stay gone, (b) survivors match
    // exactly as on a never-killed control server, (c) segment bytes shrink.
    let titles: Vec<String> = (0..24)
        .map(|i| format!("item{i} unique product number {i}"))
        .collect();
    let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();

    // Run the same op sequence against a server; returns (stats, per-title
    // match responses, spilled bytes before/after the compacting
    // checkpoint). `restart_mid_way` kills and restarts the server between
    // the compacting checkpoint and the WAL-only deletes.
    let run = |dir: &std::path::Path, restart_mid_way: bool| {
        let config = disk_config(dir, 2);
        let mut handle;
        let mut addr;
        (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        let ids = ingest_with_ids(&mut client, &title_refs);

        // Seal every tail so the spilled footprint is comparable.
        let (status, _) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200);
        let spilled_before = counter(&get_stats(&mut client), "spilled_bytes");
        assert!(spilled_before > 0, "records must be spilled to segments");

        // Delete every other row of each shard: every sealed segment drops
        // to ~half live, under the 0.6 compaction threshold.
        let mut deleted: Vec<usize> = Vec::new();
        let mut rows_seen: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            let nth = rows_seen.entry(id.0).or_insert(0);
            if (*nth).is_multiple_of(2) {
                assert_eq!(delete_record(&mut client, *id), 200, "delete {id:?}");
                deleted.push(i);
            }
            *nth += 1;
        }

        // The compacting checkpoint: dirty shards flush + compact, the
        // manifest commits the rewritten segment index, GC sweeps the
        // superseded files.
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(counter(&body, "compactions") > 0, "{body}");
        assert!(counter(&body, "reclaimed_bytes") > 0, "{body}");
        let spilled_after = counter(&get_stats(&mut client), "spilled_bytes");
        assert!(
            spilled_after * 10 <= spilled_before * 7,
            "compaction must reclaim a solid share of segment bytes \
             ({spilled_before} -> {spilled_after})"
        );

        if restart_mid_way {
            handle.shutdown();
            (handle, addr) = spawn_server(config.clone());
            client = HttpClient::connect(&addr).unwrap();
        }

        // Two more deletes covered only by the WAL (no checkpoint after).
        let survivors: Vec<usize> = (0..ids.len()).filter(|i| !deleted.contains(i)).collect();
        for &i in &survivors[..2] {
            assert_eq!(delete_record(&mut client, ids[i]), 200);
            deleted.push(i);
        }

        if restart_mid_way {
            // Kill again: these last deletes must replay from the WAL.
            handle.shutdown();
            (handle, addr) = spawn_server(config);
            client = HttpClient::connect(&addr).unwrap();
        }

        // Deleted ids are gone for good (a re-delete is a 404)...
        for &i in &deleted {
            assert_eq!(delete_record(&mut client, ids[i]), 404, "id {i} came back");
        }
        // ...and every survivor still matches.
        let matches: Vec<String> = (0..ids.len())
            .filter(|i| !deleted.contains(i))
            .map(|i| match_title(&mut client, title_refs[i]))
            .collect();
        let stats = get_stats(&mut client);
        handle.shutdown();
        (store_part(&stats).to_string(), matches, deleted.len())
    };

    let dir_killed = temp_dir("del-compact-killed");
    let dir_control = temp_dir("del-compact-control");
    let (stats_killed, matches_killed, deleted_killed) = run(&dir_killed, true);
    let (stats_control, matches_control, deleted_control) = run(&dir_control, false);
    assert_eq!(deleted_killed, deleted_control);
    assert_eq!(
        stats_killed, stats_control,
        "restarted store state must be byte-identical to the never-killed run"
    );
    assert_eq!(
        matches_killed, matches_control,
        "survivors must match identically after kill-restart"
    );
    std::fs::remove_dir_all(&dir_killed).ok();
    std::fs::remove_dir_all(&dir_control).ok();
}

#[test]
fn deleted_counters_survive_kill_restart() {
    // `deleted`, `compactions`, `reclaimed_bytes` and `segments_deleted`
    // are persisted: after a checkpoint + restart the /stats counters must
    // not go backwards (they used to reset to zero on restore).
    let dir = temp_dir("counter-persist");
    let config = disk_config(&dir, 2);
    let (before, after) = {
        let (handle, addr) = spawn_server(config.clone());
        let mut client = HttpClient::connect(&addr).unwrap();
        let titles: Vec<String> = (0..16)
            .map(|i| format!("obj{i} padded title {i}"))
            .collect();
        let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();
        let ids = ingest_with_ids(&mut client, &title_refs);
        // Seal everything, then hollow out every segment (alternating rows
        // per shard) so the next checkpoint must compact.
        let (status, _) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200);
        let mut rows_seen: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for id in &ids {
            let nth = rows_seen.entry(id.0).or_insert(0);
            if (*nth).is_multiple_of(2) {
                assert_eq!(delete_record(&mut client, *id), 200);
            }
            *nth += 1;
        }
        let (status, body) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(counter(&body, "compactions") > 0, "{body}");

        // That checkpoint's post-commit GC bumped `segments_deleted` after
        // its own snapshot was written. Dirty every shard with one more
        // insert, then checkpoint again so the swept counts persist too.
        let mut dirtied = std::collections::BTreeSet::new();
        for i in 0..32 {
            let filler = format!("filler{i} spare entry");
            let id = ingest_with_ids(&mut client, &[&filler]);
            dirtied.insert(id[0].0);
            if dirtied.len() == 2 {
                break;
            }
        }
        assert_eq!(dirtied.len(), 2, "fillers must dirty both shards");
        let (status, _) = client.request("POST", "/snapshot", None).unwrap();
        assert_eq!(status, 200);

        let stats = get_stats(&mut client);
        handle.shutdown();

        let (handle, addr) = spawn_server(config);
        let mut client = HttpClient::connect(&addr).unwrap();
        let restored = get_stats(&mut client);
        handle.shutdown();
        (stats, restored)
    };
    for name in [
        "deleted",
        "compactions",
        "reclaimed_bytes",
        "segments_deleted",
    ] {
        assert_eq!(
            counter(&before, name),
            counter(&after, name),
            "{name} went backwards across restart:\n{before}\n{after}"
        );
    }
    assert!(counter(&after, "compactions") > 0);
    assert!(counter(&after, "segments_deleted") > 0);
    std::fs::remove_dir_all(&dir).ok();
}

// --------------------------------------------------------------------------
// Event-driven multiplexer: slow clients, idle fleets, malformed requests,
// graceful shutdown, segment GC
// --------------------------------------------------------------------------

/// Send `pieces` over a raw socket with a pause between each, then read the
/// response — the server's incremental parser must reassemble the request
/// no matter where the fragmentation falls.
fn trickle(addr: &str, pieces: &[&[u8]], pause: Duration) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for piece in pieces {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(pause);
    }
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response(&mut reader).unwrap();
    (status, body)
}

#[test]
fn header_split_across_reads_parses_fine() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let (status, body) = trickle(
        &addr,
        &[
            b"GET /hea",
            b"lthz HT",
            b"TP/1.1\r\nHo",
            b"st: trickle\r\n",
            b"\r\n",
        ],
        Duration::from_millis(20),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""));
    handle.shutdown();
}

#[test]
fn body_trickled_byte_by_byte_parses_fine() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let body_bytes = b"{\"records\":[[\"golden heart river\"]]}";
    let head = format!(
        "POST /records HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body_bytes.len()
    );
    let mut pieces: Vec<&[u8]> = vec![head.as_bytes()];
    pieces.extend(body_bytes.chunks(1));
    let (status, response) = trickle(&addr, &pieces, Duration::from_millis(2));
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"ingested\":1"), "{response}");

    // The trickled record actually landed.
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(counter(&get_stats(&mut client), "records"), 1);
    handle.shutdown();
}

#[test]
fn slow_client_does_not_block_other_connections() {
    // One worker: under the old thread-per-connection front end, a client
    // holding the worker mid-request starved everyone else. Its own reader
    // thread parses incrementally, so the slow sender costs no worker until
    // its request completes.
    let (handle, addr) = spawn_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    let slow_body = b"{\"records\":[[\"slow sender\"]]}";
    let (first, rest) = slow_body.split_at(5);
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.write_all(
        format!(
            "POST /records HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            slow_body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    slow.write_all(first).unwrap();
    slow.flush().unwrap();

    // While the slow request dangles, fast clients cycle freely.
    let mut fast = HttpClient::connect(&addr).unwrap();
    for _ in 0..5 {
        let (status, _) = fast.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    post_records(&mut fast, &["makita drill 18v"]);

    // Finish the slow request; it still parses and executes.
    slow.write_all(rest).unwrap();
    slow.flush().unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (status, body) = {
        let mut reader = BufReader::new(slow);
        let (status, _, body) = read_response(&mut reader).unwrap();
        (status, body)
    };
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&get_stats(&mut fast), "records"), 2);
    handle.shutdown();
}

#[test]
fn idle_keepalive_connections_far_beyond_workers_all_serve() {
    // 2 workers, 32 keep-alive connections: the old front end pinned one
    // worker per connection, so connections 3..32 would starve forever.
    // Idle connections cost their reader threads, never a worker.
    const CONNECTIONS: usize = 32;
    let (handle, addr) = spawn_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    let mut clients: Vec<HttpClient> = (0..CONNECTIONS)
        .map(|_| HttpClient::connect(&addr).unwrap())
        .collect();
    // Two full rounds over every connection, interleaved with long idle
    // stretches for all the others — each request must land.
    for round in 0..2 {
        for (i, client) in clients.iter_mut().enumerate() {
            let title = format!("conn {i} round {round}");
            let body = format!("{{\"records\":[[\"{title}\"]]}}");
            let (status, response) = client.request("POST", "/records", Some(&body)).unwrap();
            assert_eq!(status, 200, "conn {i} round {round}: {response}");
        }
    }
    let stats = get_stats(&mut clients[0]);
    assert_eq!(counter(&stats, "records"), (CONNECTIONS * 2) as u64);
    handle.shutdown();
}

#[test]
fn malformed_request_gets_400_and_the_connection_closes() {
    let (handle, addr) = spawn_server(ServeConfig::default());

    // Garbage that can never become a request: the incremental parser must
    // answer 400 and hang up.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"), "{body}");
    // The server closed the connection after the 400.
    use std::io::Read;
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after a parse error");

    // A bad HTTP version is rejected the same way.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET / SMTP/3.7\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let (status, _, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 400);

    // The server is unharmed.
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn admin_shutdown_drains_and_flushes_the_wal() {
    let dir = temp_dir("graceful");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 2,
        // `never` means durability at exit depends entirely on the
        // graceful path's final WAL flush.
        fsync: multiem_serve::FsyncPolicy::Never,
        ..ServeConfig::default()
    };

    let (handle, addr) = spawn_server(config.clone());
    let mut client = HttpClient::connect(&addr).unwrap();
    post_records(&mut client, &["golden heart river", "makita drill 18v"]);

    // The shutdown request itself is served (drain includes it), then the
    // server thread exits on its own.
    let (status, body) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"shutting_down\":true"), "{body}");
    handle.shutdown(); // joins the already-exiting thread

    // New connections are refused once the server is down.
    assert!(
        HttpClient::connect(&addr).is_err()
            || HttpClient::connect(&addr)
                .and_then(|mut c| c.request("GET", "/healthz", None))
                .is_err(),
        "server must stop serving after shutdown"
    );

    // Acknowledged writes survived the graceful exit.
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(counter(&get_stats(&mut client), "records"), 2);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_bin_announces_what_it_runs_with_and_outlives_a_closed_stdout() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    // `--shards 0 --workers 0`: the store and the pool clamp both to 1, and
    // the banner must say what runs, not what was asked for.
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--shards", "0", "--workers", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let mut banner = [String::new(), String::new(), String::new()];
    for line in &mut banner {
        stdout.read_line(line).unwrap();
    }
    let addr = banner[0]
        .trim()
        .strip_prefix("multiem-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected first banner line: {}", banner[0]));
    let mut client = HttpClient::connect(addr).unwrap();
    let (status, health) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{health}");
    let shards = counter(&health, "shards");
    assert!(
        banner[1].starts_with(&format!("  {shards} shard(s), 1 worker(s), ")),
        "banner must announce /healthz's shard count ({shards}) and the one worker: {}",
        banner[1]
    );
    assert!(banner[2].contains("POST /match"), "{}", banner[2]);

    // A supervisor that read the banner and dropped the pipe: the farewell
    // line hits EPIPE, and the process must still exit 0 after the drain.
    drop(stdout);
    let (status, body) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let exit = child.wait().unwrap();
    assert_eq!(exit.code(), Some(0), "serve must exit cleanly: {exit:?}");
}

#[test]
fn checkpoint_garbage_collects_orphaned_segments() {
    let dir = temp_dir("segment-gc");
    let config = disk_config(&dir, 2);

    let (handle, addr) = spawn_server(config.clone());
    let mut client = HttpClient::connect(&addr).unwrap();
    post_records(
        &mut client,
        &[
            "apple iphone 8 plus",
            "apple iphone 8 plus 64gb",
            "sony bravia tv",
            "sony bravia television",
            "makita drill 18v",
            "dyson v11 vacuum",
            "garmin gps watch",
            "bosch washing machine",
        ],
    );
    // Seal the tails so the segment dirs exist and hold real files.
    let (status, body) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200, "{body}");

    // Plant orphans a crashed checkpoint could have left behind: a sealed
    // segment beyond the committed index and an interrupted seal's tmp.
    let shard0 = dir.join("segments").join("shard-000");
    assert!(shard0.is_dir(), "disk shards have segment dirs");
    std::fs::write(shard0.join("seg-000099.seg"), b"orphaned payload").unwrap();
    std::fs::write(shard0.join("seg-000050.tmp"), b"torn seal").unwrap();
    // A foreign file must never be touched.
    std::fs::write(shard0.join("KEEP.txt"), b"not ours").unwrap();

    // Dirty a shard so the next checkpoint does real work, then checkpoint:
    // post-commit GC must sweep exactly the two orphans.
    post_records(&mut client, &["apple iphone 8 plus 64 gb silver"]);
    let (status, body) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "segments_deleted"), 2, "{body}");
    assert!(!shard0.join("seg-000099.seg").exists());
    assert!(!shard0.join("seg-000050.tmp").exists());
    assert!(shard0.join("KEEP.txt").exists(), "foreign files survive GC");

    // The counter surfaces in /stats storage counters.
    let stats = get_stats(&mut client);
    assert_eq!(counter(&stats, "segments_deleted"), 2, "{stats}");

    // A restart over the GC'd directory restores cleanly.
    handle.shutdown();
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(counter(&get_stats(&mut client), "records"), 9);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_writers_and_readers_lose_nothing() {
    // Direct (in-process) concurrency over the sharded store: writers on
    // distinct records + readers matching throughout, then every insert must
    // be accounted for and match results must be stable.
    let store = ShardedEntityStore::new(
        ServeConfig::default().online,
        Schema::new(["title"]).shared(),
        8,
        HashedLexicalEncoder::default(),
    )
    .unwrap();

    const WRITERS: usize = 4;
    const PER_WRITER: usize = 50;
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    store
                        .insert(Record::from_texts([format!("writer {writer} item {i}")]))
                        .unwrap();
                }
            });
        }
        // Two readers hammer match_record while writers run; results only
        // need to be well-formed (sorted, bounded), not stable mid-write.
        for _ in 0..2 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..100 {
                    let hits =
                        store.match_record(&Record::from_texts([format!("writer 1 item {i}")]));
                    for pair in hits.windows(2) {
                        assert!(pair[0].1 <= pair[1].1, "merge order broken");
                    }
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(stats.records, WRITERS * PER_WRITER, "no lost inserts");
    assert_eq!(stats.shards.len(), 8);

    // Stable read results once writes quiesce.
    let probe = Record::from_texts(["writer 2 item 17"]);
    let first = store.match_record(&probe);
    assert!(!first.is_empty(), "probe should find its own record");
    for _ in 0..10 {
        assert_eq!(store.match_record(&probe), first);
    }
}

// --------------------------------------------------------------------------
// Observability: /metrics exposition, request counters, sampled traces,
// access log, healthz build info, scrape-under-load
// --------------------------------------------------------------------------

fn get_metrics(client: &mut HttpClient) -> String {
    let (status, headers, body) = client
        .request_with_headers("GET", "/metrics", None)
        .unwrap();
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(name, value)| name == "content-type" && value.starts_with("text/plain")),
        "metrics must use the text exposition content type: {headers:?}"
    );
    body
}

/// The value of the first sample line starting with `prefix` (counters and
/// gauges render as plain numbers at end of line).
fn sample(body: &str, prefix: &str) -> f64 {
    body.lines()
        .find(|line| line.starts_with(prefix))
        .unwrap_or_else(|| panic!("no sample starts with {prefix}:\n{body}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("numeric sample value")
}

#[test]
fn metrics_endpoint_counts_requests_and_exports_histograms() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();

    for i in 0..3 {
        post_records(&mut client, &[&format!("metrics item {i}")]);
    }
    match_title(&mut client, "metrics item 0");
    match_title(&mut client, "metrics item 1");
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    let body = get_metrics(&mut client);
    assert_eq!(
        sample(
            &body,
            "multiem_requests_total{endpoint=\"records\",status=\"2xx\"}"
        ),
        3.0
    );
    assert_eq!(
        sample(
            &body,
            "multiem_requests_total{endpoint=\"match\",status=\"2xx\"}"
        ),
        2.0
    );
    assert_eq!(
        sample(
            &body,
            "multiem_requests_total{endpoint=\"healthz\",status=\"2xx\"}"
        ),
        1.0
    );
    assert_eq!(
        sample(
            &body,
            "multiem_requests_total{endpoint=\"other\",status=\"4xx\"}"
        ),
        1.0
    );
    // Worker-path latencies land in per-endpoint histograms.
    assert_eq!(
        sample(
            &body,
            "multiem_request_duration_seconds_count{endpoint=\"match\"}"
        ),
        2.0
    );
    assert!(
        sample(
            &body,
            "multiem_request_duration_seconds_sum{endpoint=\"records\"}"
        ) > 0.0
    );
    // Per-stage histograms saw the search pipeline.
    assert!(
        sample(
            &body,
            "multiem_stage_duration_seconds_count{stage=\"ann_search\"}"
        ) >= 2.0
    );
    // Ingest/domain counters and build info are exported too.
    assert_eq!(sample(&body, "multiem_ingested_records_total"), 3.0);
    assert_eq!(
        sample(
            &body,
            &format!(
                "multiem_build_info{{version=\"{}\"}}",
                env!("CARGO_PKG_VERSION")
            )
        ),
        1.0
    );
    assert!(sample(&body, "multiem_uptime_seconds") >= 0.0);
    assert!(sample(&body, "multiem_connections_accepted_total") >= 1.0);

    // The scrape itself is counted like any other request.
    let second = get_metrics(&mut client);
    assert!(
        sample(
            &second,
            "multiem_requests_total{endpoint=\"metrics\",status=\"2xx\"}"
        ) >= 1.0
    );
    handle.shutdown();
}

#[test]
fn no_telemetry_keeps_counters_but_drops_histograms() {
    let mut config = ServeConfig::default();
    config.obs.telemetry = false;
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();

    post_records(&mut client, &["kill switch item a"]);
    post_records(&mut client, &["kill switch item b"]);
    let body = get_metrics(&mut client);
    // Counters are always on...
    assert_eq!(
        sample(
            &body,
            "multiem_requests_total{endpoint=\"records\",status=\"2xx\"}"
        ),
        2.0
    );
    // ...but nothing with measurable cost recorded.
    assert_eq!(
        sample(
            &body,
            "multiem_request_duration_seconds_count{endpoint=\"records\"}"
        ),
        0.0
    );
    handle.shutdown();
}

#[test]
fn group_commit_fsyncs_once_per_shard_touched_not_once_per_record() {
    let dir = temp_dir("group-commit");
    let (handle, addr) = spawn_server(ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 4,
        fsync: multiem_serve::FsyncPolicy::Always,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();
    let fsyncs = |client: &mut HttpClient| sample(&get_metrics(client), "multiem_wal_fsyncs_total");
    // Sixteen leading tokens, so the records spread over the shards.
    let titles: Vec<String> = (0..16).map(|i| format!("source{i} item {i}")).collect();
    let refs: Vec<&str> = titles.iter().map(String::as_str).collect();

    // One request of 16 records: each shard's group rides one WAL append,
    // so `always` costs one fsync per shard the request touched.
    let before = fsyncs(&mut client);
    let response = post_records(&mut client, &refs);
    let parsed: serde::Value = serde_json::from_str(&response).unwrap();
    let touched: std::collections::BTreeSet<u64> = json_field(&parsed, "results")
        .and_then(serde::Value::as_seq)
        .expect("ingest response has results")
        .iter()
        .filter_map(|result| json_field(result, "shard")?.as_u64())
        .collect();
    assert!(touched.len() > 1, "the batch must span shards: {response}");
    assert_eq!(fsyncs(&mut client) - before, touched.len() as f64);

    // The same 16 records one request each: 16 fsyncs.
    let before = fsyncs(&mut client);
    let singles = ingest_with_ids(&mut client, &refs);
    assert_eq!(fsyncs(&mut client) - before, 16.0);

    // Deletes group-commit the same way: the first 16 in one request cost
    // one fsync per shard they live on, the other 16 one `DELETE` each.
    let triples = ids_of(&response).into_iter();
    let triples: Vec<String> = triples.map(|(s, t, r)| format!("[{s},{t},{r}]")).collect();
    let body = format!("{{\"ids\":[{}]}}", triples.join(","));
    let before = fsyncs(&mut client);
    let (status, deleted) = client
        .request("POST", "/records/delete", Some(&body))
        .unwrap();
    assert_eq!(
        (status, counter(&deleted, "deleted")),
        (200, 16),
        "{deleted}"
    );
    assert_eq!(fsyncs(&mut client) - before, touched.len() as f64);
    let before = fsyncs(&mut client);
    for id in singles {
        assert_eq!(delete_record(&mut client, id), 200);
    }
    assert_eq!(fsyncs(&mut client) - before, 16.0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_match_trace_sums_exactly_to_access_log_latency() {
    let dir = temp_dir("obs-trace");
    let log_path = dir.join("server.log");
    let access_path = dir.join("access.log");
    let mut config = ServeConfig::default();
    config.obs.trace_sample_rate = 1.0;
    config.obs.log_file = Some(log_path.clone());
    config.obs.access_log = Some(access_path.clone());
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();

    post_records(
        &mut client,
        &["golden heart river", "makita drill 18v", "dyson v11 vacuum"],
    );
    match_title(&mut client, "golden heart river live");
    handle.shutdown();

    let field = |value: &serde::Value, name: &str| -> Option<serde::Value> {
        value
            .as_map()?
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, v)| v.clone())
    };
    let lines_of = |path: &std::path::Path| -> Vec<serde::Value> {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
            .lines()
            .map(|line| serde_json::from_str(line).expect("log line is JSON"))
            .collect()
    };

    // Every request was sampled; find the /match trace.
    let traces: Vec<serde::Value> = lines_of(&log_path)
        .into_iter()
        .filter(|v| {
            field(v, "event").and_then(|e| e.as_str().map(String::from))
                == Some("trace".to_string())
                && field(v, "path").and_then(|p| p.as_str().map(String::from))
                    == Some("/match".to_string())
        })
        .collect();
    assert_eq!(traces.len(), 1, "exactly one /match request was made");
    let trace = &traces[0];
    let total_ns = field(trace, "total_ns").and_then(|v| v.as_u64()).unwrap();
    let spans = field(trace, "spans").expect("trace has spans");
    let spans = spans.as_map().expect("spans is a map");
    // The pipeline stages are visible by name...
    let span_names: Vec<&str> = spans.iter().map(|(k, _)| k.as_str()).collect();
    for required in ["parse_ns", "ann_search_ns", "respond_ns"] {
        assert!(
            span_names.contains(&required),
            "trace lacks {required}: {span_names:?}"
        );
    }
    // ...the search fanned out over every shard...
    assert_eq!(field(trace, "fan_out").and_then(|v| v.as_u64()), Some(4));
    // ...and the stage durations sum EXACTLY to the request latency (the
    // acceptance bar is within 10%; respond is defined as the residual).
    let span_sum: u64 = spans.iter().filter_map(|(_, v)| v.as_u64()).sum();
    assert_eq!(span_sum, total_ns, "spans must sum to total_ns: {trace:?}");

    // The access log carries the same request with the same latency.
    let request_id = field(trace, "request_id").and_then(|v| v.as_u64()).unwrap();
    let access_lines = lines_of(&access_path);
    let access = access_lines
        .iter()
        .find(|v| field(v, "request_id").and_then(|id| id.as_u64()) == Some(request_id))
        .expect("access log has the /match request");
    assert_eq!(
        field(access, "latency_ns").and_then(|v| v.as_u64()),
        Some(total_ns),
        "access latency must equal the traced total"
    );
    assert_eq!(field(access, "status").and_then(|v| v.as_u64()), Some(200));
    // One access line per worker request: the ingest batch and the match.
    assert_eq!(access_lines.len(), 2, "one access line per worker request");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_and_metrics_expose_uptime_version_and_checkpoint_epoch() {
    let dir = temp_dir("obs-healthz");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        shards: 2,
        ..ServeConfig::default()
    };
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();

    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"uptime_seconds\":"), "{body}");
    assert!(
        body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{body}"
    );
    assert!(body.contains("\"checkpoint_epoch\":0"), "{body}");

    post_records(&mut client, &["golden heart river"]);
    let (status, _) = client.request("POST", "/snapshot", None).unwrap();
    assert_eq!(status, 200);

    let (_, body) = client.request("GET", "/healthz", None).unwrap();
    assert!(body.contains("\"checkpoint_epoch\":1"), "{body}");
    let metrics = get_metrics(&mut client);
    assert_eq!(sample(&metrics, "multiem_checkpoint_epoch"), 1.0);
    assert_eq!(sample(&metrics, "multiem_checkpoints_total"), 1.0);
    assert!(sample(&metrics, "multiem_wal_appended_bytes_total") > 0.0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_scrape_stays_responsive_under_write_load() {
    // The scrape path must never wait on shard or WAL locks: while writers
    // hold them continuously, repeated scrapes (served on the I/O fast
    // path) all answer promptly.
    let (handle, addr) = spawn_server(ServeConfig {
        shards: 2,
        workers: 2,
        ..ServeConfig::default()
    });

    std::thread::scope(|scope| {
        let writer_addr = addr.clone();
        scope.spawn(move || {
            let mut client = HttpClient::connect(&writer_addr).unwrap();
            for i in 0..60 {
                let body = format!("{{\"records\":[[\"load item {i}\"]]}}");
                let (status, _) = client.request("POST", "/records", Some(&body)).unwrap();
                assert_eq!(status, 200);
            }
        });
        let mut client = HttpClient::connect(&addr).unwrap();
        for _ in 0..20 {
            let body = get_metrics(&mut client);
            assert!(body.contains("multiem_requests_total"));
        }
    });

    let body = {
        let mut client = HttpClient::connect(&addr).unwrap();
        get_metrics(&mut client)
    };
    assert_eq!(sample(&body, "multiem_ingested_records_total"), 60.0);
    handle.shutdown();
}

#[test]
fn concurrent_http_clients_see_zero_errors() {
    let (handle, addr) = spawn_server(ServeConfig {
        shards: 4,
        workers: 6,
        ..ServeConfig::default()
    });

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = HttpClient::connect(&addr).unwrap();
                for i in 0..PER_CLIENT {
                    let title = format!("client {client_id} product {i}");
                    let body = format!("{{\"records\":[[\"{title}\"]]}}");
                    let (status, response) =
                        client.request("POST", "/records", Some(&body)).unwrap();
                    assert_eq!(status, 200, "write failed: {response}");
                    if i % 5 == 0 {
                        let body = format!("{{\"record\":[\"{title}\"]}}");
                        let (status, _) = client.request("POST", "/match", Some(&body)).unwrap();
                        assert_eq!(status, 200);
                    }
                }
            });
        }
    });

    let mut client = HttpClient::connect(&addr).unwrap();
    let stats = get_stats(&mut client);
    assert_eq!(
        counter(&stats, "records"),
        (CLIENTS * PER_CLIENT) as u64,
        "every concurrent write must land: {stats}"
    );
    handle.shutdown();
}

/// The value of key `name` inside a parsed JSON map (debug surfaces).
fn json_field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
    value
        .as_map()?
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, v)| v)
}

fn get_json(client: &mut HttpClient, path: &str) -> serde::Value {
    let (status, body) = client.request("GET", path, None).unwrap();
    assert_eq!(status, 200, "GET {path}: {body}");
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("GET {path}: bad JSON {e}: {body}"))
}

#[test]
fn windowed_p99_agrees_with_the_client_observed_p99() {
    use multiem_serve::obs::histogram::{bucket_bound, bucket_width};

    // The 60 s analytics window outlasts this test, so every sample of it
    // stays inside.
    let (handle, addr) = spawn_server(ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();

    // Batched ingests cost the server tens of milliseconds each, in a
    // release build too; at that scale one log-linear bucket is ~6% wide.
    // The client's clock runs from when a request's last byte is written
    // to when the reply's first byte is read, with the request built
    // before it starts: building the body, writing it and reading the
    // reply are not the server's latency, and a thread descheduled during
    // them (the suite's other tests share the cores) would count them.
    const REQUESTS: usize = 10;
    const PER_BATCH: usize = 200;
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut client_ns: Vec<u64> = (0..REQUESTS)
        .map(|batch| {
            let titles: Vec<String> = (0..PER_BATCH)
                .map(|i| format!("corpus item {} batch {batch}", batch * PER_BATCH + i))
                .collect();
            let body = records_body(&titles);
            let request = format!(
                "POST /records HTTP/1.1\r\nHost: multiem\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(request.as_bytes()).unwrap();
            let written = std::time::Instant::now();
            reader.fill_buf().unwrap();
            let elapsed = written.elapsed();
            let (status, _, response) = read_response(&mut reader).unwrap();
            assert_eq!(status, 200, "ingest failed: {response}");
            elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
        })
        .collect();
    client_ns.sort_unstable();
    // Same nearest-rank rule the server's histogram quantile applies.
    let rank = ((REQUESTS - 1) as f64 * 0.99).round() as usize;
    let client_p99 = client_ns[rank];

    let window = get_json(&mut client, "/debug/window");
    assert!(matches!(
        json_field(&window, "enabled"),
        Some(serde::Value::Bool(true))
    ));
    let endpoints = json_field(&window, "endpoints")
        .and_then(serde::Value::as_seq)
        .expect("window has endpoints");
    let records_entry = endpoints
        .iter()
        .find(|e| json_field(e, "endpoint").and_then(serde::Value::as_str) == Some("records"))
        .expect("records endpoint visible in the window");
    assert_eq!(
        json_field(records_entry, "count").and_then(serde::Value::as_u64),
        Some(REQUESTS as u64),
        "the window saw exactly the ingests this test issued"
    );
    let server_p99 = json_field(records_entry, "p99_ns")
        .and_then(serde::Value::as_u64)
        .expect("window reports p99_ns");

    // The reported quantile is a bucket's inclusive upper bound; the
    // acceptance bar is agreement within that bucket's width.
    let index = (0..4096)
        .find(|&i| bucket_bound(i) == server_p99)
        .expect("reported p99 is a bucket bound");
    let tolerance = bucket_width(index);
    assert!(
        client_p99.abs_diff(server_p99) <= tolerance,
        "client p99 {client_p99}ns vs windowed p99 {server_p99}ns differs by more than one \
         bucket width ({tolerance}ns)"
    );
    handle.shutdown();
}

#[test]
fn debug_top_names_the_hottest_ingest_source() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();

    // 60 records lead with "zeta"; four decoy sources get 5 each. The
    // source key is the leading title token (the shard-routing token).
    let hot: Vec<String> = (0..60).map(|i| format!("zeta item {i}")).collect();
    let refs: Vec<&str> = hot.iter().map(String::as_str).collect();
    post_records(&mut client, &refs);
    for decoy in ["alpha", "beta", "gamma", "delta"] {
        let titles: Vec<String> = (0..5).map(|i| format!("{decoy} item {i}")).collect();
        let refs: Vec<&str> = titles.iter().map(String::as_str).collect();
        post_records(&mut client, &refs);
    }

    let top = get_json(&mut client, "/debug/top");
    assert!(matches!(
        json_field(&top, "enabled"),
        Some(serde::Value::Bool(true))
    ));
    let hitters = json_field(&top, "sources")
        .and_then(|s| json_field(s, "current"))
        .and_then(serde::Value::as_seq)
        .expect("sources.current present");
    let first = hitters.first().expect("at least one hot source");
    assert_eq!(
        json_field(first, "key").and_then(serde::Value::as_str),
        Some("zeta"),
        "the sketch must name the true hottest source: {hitters:?}"
    );
    // Five distinct sources fit the sketch exactly: no eviction error.
    assert_eq!(
        json_field(first, "count").and_then(serde::Value::as_u64),
        Some(60)
    );
    assert_eq!(
        json_field(first, "error").and_then(serde::Value::as_u64),
        Some(0)
    );
    // Shard traffic is tracked under synthetic shard-N keys.
    let shard_hitters = json_field(&top, "shards")
        .and_then(|s| json_field(s, "current"))
        .and_then(serde::Value::as_seq)
        .expect("shards.current present");
    assert!(
        shard_hitters.iter().all(|h| {
            json_field(h, "key")
                .and_then(serde::Value::as_str)
                .is_some_and(|k| k.starts_with("shard-"))
        }),
        "{shard_hitters:?}"
    );
    handle.shutdown();
}

#[test]
fn readyz_and_debug_surfaces_answer_on_the_fast_path() {
    let mut config = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    // Thresholds enabled but far from tripping: /readyz must stay 200.
    config.obs.ready_max_backlog = 1_000_000;
    config.obs.ready_max_fsync_ms = 60_000;
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();

    post_records(&mut client, &["ready item a", "ready item b"]);
    match_title(&mut client, "ready item a");

    let (status, body) = client.request("GET", "/readyz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    assert!(body.contains("\"max_backlog\":1000000"), "{body}");
    assert!(body.contains("\"reasons\":[]"), "{body}");

    // /debug/slow retains the slowest requests with full span breakdowns.
    let slow = get_json(&mut client, "/debug/slow");
    assert!(matches!(
        json_field(&slow, "enabled"),
        Some(serde::Value::Bool(true))
    ));
    let exemplars = json_field(&slow, "exemplars")
        .and_then(serde::Value::as_seq)
        .expect("exemplars present");
    assert!(!exemplars.is_empty(), "worker requests leave exemplars");
    let slowest = &exemplars[0];
    assert!(
        json_field(slowest, "total_ns")
            .and_then(serde::Value::as_u64)
            .is_some_and(|ns| ns > 0),
        "{slowest:?}"
    );
    let spans = json_field(slowest, "spans")
        .and_then(serde::Value::as_map)
        .expect("exemplar carries spans");
    assert!(!spans.is_empty(), "{slowest:?}");

    // /debug/storage answers one entry per shard without touching locks.
    let storage = get_json(&mut client, "/debug/storage");
    for key in ["cache_hits", "cache_misses", "cache_hit_rate", "wal_bytes"] {
        assert!(json_field(&storage, key).is_some(), "storage lacks {key}");
    }
    let shards = json_field(&storage, "shards")
        .and_then(serde::Value::as_seq)
        .expect("storage has shards");
    assert_eq!(shards.len(), 2, "one entry per shard");
    handle.shutdown();
}

#[test]
fn debug_surfaces_disable_cleanly_without_telemetry() {
    let mut config = ServeConfig::default();
    config.obs.telemetry = false;
    let (handle, addr) = spawn_server(config);
    let mut client = HttpClient::connect(&addr).unwrap();

    post_records(&mut client, &["kill switch debug item"]);
    for path in ["/debug/window", "/debug/top", "/debug/slow"] {
        let body = get_json(&mut client, path);
        assert!(
            matches!(
                json_field(&body, "enabled"),
                Some(serde::Value::Bool(false))
            ),
            "{path} must report the analytics layer as off"
        );
    }
    // Liveness and readiness stay up: with no analytics the fsync check is
    // simply skipped, and nothing is backlogged.
    let (status, body) = client.request("GET", "/readyz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    // Storage introspection does not depend on the analytics layer at all.
    let storage = get_json(&mut client, "/debug/storage");
    assert!(json_field(&storage, "shards").is_some());
    handle.shutdown();
}

// --------------------------------------------------------------------------
// HTTP/1.1 pipelining: multiple in-flight requests per connection
// --------------------------------------------------------------------------

#[test]
fn pipelined_requests_trickled_across_buffers_answer_in_order() {
    let (handle, addr) = spawn_server(ServeConfig::default());

    // Three pipelined requests written back-to-back, then re-chunked at
    // boundaries that straddle the seams between them: the incremental
    // parser must recover each request no matter where a read ends, and the
    // responses must come back in request order.
    let ingest = b"{\"records\":[[\"pipelined golden heart\"]]}";
    let mut wire = Vec::new();
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: p\r\n\r\n");
    wire.extend_from_slice(
        format!(
            "POST /records HTTP/1.1\r\nHost: p\r\nContent-Length: {}\r\n\r\n",
            ingest.len()
        )
        .as_bytes(),
    );
    wire.extend_from_slice(ingest);
    wire.extend_from_slice(b"GET /stats HTTP/1.1\r\nHost: p\r\n\r\n");

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 7-byte chunks land mid-request-line, mid-header, and mid-body.
    for piece in wire.chunks(7) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "first must be healthz");
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ingested\":1"), "second must be the ingest");
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"records\":1"),
        "third must be stats: {body}"
    );
    handle.shutdown();
}

#[test]
fn malformed_request_mid_pipeline_flushes_earlier_responses_then_closes() {
    let (handle, addr) = spawn_server(ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();
    post_records(&mut client, &["golden heart river"]);

    // Two good requests, then garbage, then another good request that must
    // never be served: the earlier responses flush, the garbage earns a 400,
    // and the connection closes without touching what follows.
    let mut wire = Vec::new();
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: p\r\n\r\n");
    wire.extend_from_slice(b"GET /stats HTTP/1.1\r\nHost: p\r\n\r\n");
    wire.extend_from_slice(b"NOT-HTTP GARBAGE\r\n\r\n");
    wire.extend_from_slice(b"POST /records HTTP/1.1\r\nHost: p\r\nContent-Length: 36\r\n\r\n{\"records\":[[\"must never be stored\"]]}");

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"records\":1"), "{body}");
    let (status, _, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 400, "garbage must earn a 400: {body}");
    // After the 400 the connection closes; the trailing ingest is dropped.
    use std::io::Read;
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection must close after the mid-pipeline parse error"
    );
    assert_eq!(
        counter(&get_stats(&mut client), "records"),
        1,
        "the request after the garbage must never execute"
    );
    handle.shutdown();
}

/// `POST /records/delete` requests answered so far, read from `/metrics`
/// (an inline route, so it answers with every worker busy).
fn deletes_answered(client: &mut HttpClient) -> f64 {
    let prefix = "multiem_requests_total{endpoint=\"records_delete\",status=\"2xx\"}";
    let metrics = get_metrics(client);
    let found = metrics.lines().any(|line| line.starts_with(prefix));
    if found {
        sample(&metrics, prefix)
    } else {
        0.0
    }
}

#[test]
fn a_peer_that_stops_reading_stalls_no_worker_and_still_gets_every_response() {
    // One worker, and connection A pipelines 32 deletes of 100,000 unknown
    // ids each without reading: ~19 MB of responses, more than the loopback
    // socket buffers hold. A completer that blocked writing to A would hold
    // the only worker, and nobody else would be answered.
    const REQUESTS: usize = 32;
    const IDS: usize = 100_000;
    let (handle, addr) = spawn_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // Request i carries IDS + i ids, so its response says which it is.
    let request = |i: usize| {
        let ids: Vec<String> = (0..IDS + i).map(|row| format!("[0,7,{row}]")).collect();
        let body = format!("{{\"ids\":[{}]}}", ids.join(","));
        format!(
            "POST /records/delete HTTP/1.1\r\nHost: a\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let wire: Vec<String> = (0..REQUESTS).map(request).collect();

    let a = TcpStream::connect(&addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut a_out = a.try_clone().unwrap();
    let writer = std::thread::spawn(move || -> std::io::Result<()> {
        for request in &wire {
            a_out.write_all(request.as_bytes())?;
        }
        a_out.flush()
    });

    // A stalls: every delete is answered by the worker, but A reads none.
    let mut b = HttpClient::connect(&addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while deletes_answered(&mut b) < REQUESTS as f64 {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker stalled on a peer that does not read ({} of {REQUESTS} answered)",
            deletes_answered(&mut b)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let started = std::time::Instant::now();
    match_title(&mut b, "golden heart river");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a second client waited {:?} behind a peer that does not read",
        started.elapsed()
    );

    // A reads now: every response arrives, in request order.
    let mut reader = BufReader::new(&a);
    for i in 0..REQUESTS {
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "response {i}");
        let head = format!("{{\"deleted\":0,\"missing\":{},", IDS + i);
        assert!(body.starts_with(&head), "response {i} out of order");
    }
    writer
        .join()
        .expect("writer thread")
        .expect("A's requests all sent");
    handle.shutdown();
}

/// A child process killed (and reaped) when dropped, so a failing test
/// leaves no server behind.
struct Reaped(std::process::Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `Threads:` of process `pid`, from `/proc/<pid>/status`.
fn thread_count(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn no_reader_thread_outlives_its_connection() {
    use std::io::{BufRead, Read};
    use std::process::{Command, Stdio};

    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--io-threads", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve starts"),
    );
    let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout was piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("multiem-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected first banner line: {banner}"))
        .to_string();
    let pid = child.0.id();
    // Served once, so the acceptor and the flusher are up; this connection
    // stays open, and its reader is part of the baseline.
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let before = thread_count(pid);

    // 200 connections, all open at once, each served once: a third close
    // with `Connection: close`, the rest by EOF, and one hits a 400
    // mid-pipeline.
    let mut open = Vec::new();
    for i in 0..200 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let close = if i % 3 == 0 {
            "Connection: close\r\n"
        } else {
            ""
        };
        let mut wire = format!("GET /healthz HTTP/1.1\r\nHost: t\r\n{close}\r\n");
        if i == 100 {
            wire.push_str("NOT-HTTP\r\n\r\n");
        }
        stream.write_all(wire.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "connection {i}");
        if i == 100 {
            let (status, _, _) = read_response(&mut reader).unwrap();
            assert_eq!(status, 400, "the garbage earns a 400");
        }
        if i % 3 == 0 || i == 100 {
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(
                rest.is_empty(),
                "connection {i} must be closed by the server"
            );
        }
        open.push(reader);
    }
    assert!(
        thread_count(pid) > before,
        "the open connections have reader threads"
    );
    drop(open);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while thread_count(pid) > before {
        assert!(
            std::time::Instant::now() < deadline,
            "{} threads outlive their connections ({before} before any)",
            thread_count(pid) - before
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, body) = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let exit = child.0.wait().unwrap();
    assert_eq!(exit.code(), Some(0), "serve must exit cleanly: {exit:?}");
}

#[test]
fn obstop_renders_a_frame_of_a_running_server() {
    use std::process::{Command, Output};

    let obstop = |args: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_obstop"))
            .args(args)
            .output()
            .expect("obstop runs")
    };
    // One frame of a server that has taken one ingest.
    let frame = |config: ServeConfig| -> String {
        let (handle, addr) = spawn_server(config);
        let mut client = HttpClient::connect(&addr).unwrap();
        post_records(&mut client, &["apple iphone 8"]);
        let run = obstop(&["--addr", &addr, "--iterations", "1", "--no-clear"]);
        handle.shutdown();
        assert!(run.status.success(), "{run:?}");
        String::from_utf8(run.stdout).unwrap()
    };

    let on = frame(ServeConfig::default());
    let window = on
        .split("[window]")
        .nth(1)
        .unwrap_or_else(|| panic!("no [window] section: {on}"));
    assert!(
        window
            .lines()
            .any(|line| line.trim_start().starts_with("records ")),
        "no `records` row in the window: {on}"
    );

    let mut config = ServeConfig::default();
    config.obs.telemetry = false;
    let off = frame(config);
    assert!(off.contains("[window]  analytics disabled"), "{off}");

    let bogus = obstop(&["--bogus"]);
    assert_eq!(bogus.status.code(), Some(2), "{bogus:?}");
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn a_bounded_obstop_run_whose_last_frame_failed_exits_1() {
    // An address that refuses connections: bound once, then released.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_obstop"))
        .args(["--addr", &addr, "--iterations", "1", "--no-clear"])
        .output()
        .expect("obstop runs");
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains(&format!("obstop: {addr} unreachable")),
        "{stdout}"
    );
}

#[test]
fn every_flag_serve_help_prints_is_one_its_parser_knows() {
    use std::process::{Command, Output};

    // A port that is not a number fails before any resolver runs, so a run
    // that gets as far as binding exits 2 without touching the network.
    const UNBINDABLE: &str = "127.0.0.1:no-port";
    let serve = |args: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("serve runs")
    };
    let help = serve(&["--help"]);
    assert!(help.status.success(), "{help:?}");
    let help = String::from_utf8(help.stdout).unwrap();
    let mut flags: Vec<&str> = help
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--") && *word != "--help")
        .collect();
    flags.sort_unstable();
    flags.dedup();
    assert!(
        flags.contains(&"--addr") && flags.contains(&"--no-telemetry"),
        "{flags:?}"
    );

    let readme = include_str!("../../../README.md");
    for flag in flags {
        // Named whole: `--m` is not documented by `--match`.
        let named = readme.match_indices(flag).any(|(at, _)| {
            !readme[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        });
        assert!(named, "README does not document {flag}");
        let run = serve(&["--addr", UNBINDABLE, flag]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("unknown flag"), "{flag}: {stderr}");
        assert_eq!(run.status.code(), Some(2), "{flag}: {stderr}");
        // A value flag given no value says so; the one switch gets as far
        // as binding.
        let expected = match flag {
            "--no-telemetry" => "startup failed".to_string(),
            _ => format!("{flag} needs a value"),
        };
        assert!(stderr.contains(&expected), "{flag}: {stderr}");
    }

    for removed in ["--batch-window-us", "--batch-max"] {
        assert!(!help.contains(removed), "{removed} is still documented");
        let run = serve(&["--addr", UNBINDABLE, removed, "1"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{removed}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{removed}: {stderr}");
    }
}
