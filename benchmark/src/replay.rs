//! In-process replay of a serve workload's operation list, timing the calls
//! the server makes for each request: HTTP parse and render, the sharded
//! store, the WAL, the `EntityStore` underneath, and segment-storage reads.
//!
//! Single-threaded and without sockets, so these are the layers' own costs
//! with no queueing, lock contention or network polling on top — the traced
//! server run (see `serve.rs`) shows what those add.

use crate::data::{Op, ServePlan};
use crate::json;
use crate::serve::SHARDS;
use crate::spans::Spans;
use crate::Metrics;
use multiem_embed::HashedLexicalEncoder;
use multiem_serve::http::{render_response, RequestParser};
use multiem_serve::shard::apply_insert;
use multiem_serve::{FsyncPolicy, GlobalEntityId, ServeConfig, ShardedEntityStore, Wal, WalOp};
use multiem_table::{EntityId, Record, Schema};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Stored records read back (twice) for the hit / miss split.
const STORAGE_READS: usize = 600;

type Store = ShardedEntityStore<HashedLexicalEncoder>;

fn record_of(title: &str) -> Record {
    Record::from_texts([title])
}

/// Replay `plan` for at most `seconds`. `data_dir` selects disk storage and
/// a per-shard WAL under `fsync always`, as the disk workload's server runs.
pub fn replay(
    plan: &ServePlan,
    data_dir: Option<&Path>,
    seconds: f64,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut online = ServeConfig::default().online;
    if let Some(dir) = data_dir {
        online = online.with_disk_storage(dir.join("segments").display().to_string());
    }
    let store: Store = ShardedEntityStore::new(
        online,
        Schema::new(["title"]).shared(),
        SHARDS,
        HashedLexicalEncoder::default(),
    )
    .map_err(|e| format!("in-process store: {e}"))?;
    let mut wals: Vec<Wal> = match data_dir {
        Some(dir) => (0..SHARDS)
            .map(|shard| {
                Wal::open_with(
                    &dir.join(format!("wal-{shard:03}.log")),
                    FsyncPolicy::Always,
                )
                .map(|(wal, _)| wal)
                .map_err(|e| format!("open wal: {e}"))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    for &i in &plan.preload {
        store
            .insert(record_of(&plan.records[i]))
            .map_err(|e| format!("preload: {e}"))?;
    }

    // The clients' lists interleaved, each client deleting its own inserts.
    let mut own: Vec<Vec<GlobalEntityId>> = vec![Vec::new(); plan.ops.len()];
    let longest = plan.ops.iter().map(Vec::len).max().unwrap_or(0);
    let (mut wal_bytes, mut wal_inserts, mut fsyncs) = (0u64, 0u64, 0u64);
    let mut parser = RequestParser::new();
    let begin = Instant::now();
    'replay: for n in 0..longest {
        for (client, ops) in plan.ops.iter().enumerate() {
            let Some(op) = ops.get(n) else { continue };
            if begin.elapsed().as_secs_f64() >= seconds {
                break 'replay;
            }
            spans.next_op();
            let (method, path, body) = match *op {
                Op::Match(i) => (
                    "POST",
                    "/match".to_string(),
                    json::record_body(&plan.records[i]),
                ),
                Op::Insert(i) => (
                    "POST",
                    "/records".to_string(),
                    json::records_body([plan.records[i].as_str()]),
                ),
                Op::Delete(ordinal) => {
                    let id = own[client][ordinal];
                    let path = format!(
                        "/records/{}-{}-{}",
                        id.shard, id.entity.source, id.entity.row
                    );
                    ("DELETE", path, String::new())
                }
            };
            let wire = format!(
                "{method} {path} HTTP/1.1\r\nHost: multiem\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let parsed = spans.time("serve.http.parse", |_| {
                parser.feed(wire.as_bytes());
                parser.try_next()
            });
            if !matches!(parsed, Ok(Some(_))) {
                return Err(format!("the server's parser refused `{method} {path}`"));
            }

            match *op {
                Op::Match(i) => {
                    let record = record_of(&plan.records[i]);
                    let (hits, timing) =
                        spans.time("serve.shard.match", |_| store.match_record_timed(&record));
                    spans.attribute(&[
                        ("serve.shard.ann_max", timing.ann_max_ns),
                        ("serve.shard.merge", timing.merge_ns),
                        ("serve.shard.coordination", timing.coordination_ns()),
                    ]);
                    black_box(hits);
                    // The same query against its home shard alone: the
                    // store's cost without fan-out and rank-merge.
                    let shard = store.read_shard(store.shard_of(&record));
                    spans.time("online.store.match", |_| {
                        black_box(shard.match_record(&record))
                    });
                }
                Op::Insert(i) => {
                    let record = record_of(&plan.records[i]);
                    let shard = store.shard_of(&record);
                    let id = spans.time("serve.shard.insert", |spans| {
                        let mut guard = store.write_shard(shard);
                        if let Some(wal) = wals.get_mut(shard) {
                            let op = WalOp::Insert(record.clone());
                            let timing = spans
                                .time("serve.wal.append", |_| wal.append_timed(&op))
                                .map_err(|e| format!("wal append: {e}"))?;
                            spans.attribute(&[("serve.wal.fsync", timing.fsync_ns)]);
                            wal_bytes += timing.appended_bytes;
                            wal_inserts += 1;
                            fsyncs += u64::from(timing.fsynced);
                        }
                        spans
                            .time("online.store.insert", |_| {
                                apply_insert(&mut guard, shard, record)
                            })
                            .map(|(id, _)| id)
                            .map_err(|e| format!("insert: {e}"))
                    })?;
                    own[client].push(id);
                }
                Op::Delete(ordinal) => {
                    let id = own[client][ordinal];
                    spans.time("serve.shard.delete", |spans| {
                        let mut guard = store.write_shard(id.shard as usize);
                        if let Some(wal) = wals.get_mut(id.shard as usize) {
                            let op = WalOp::Delete(id.entity);
                            let timing = spans
                                .time("serve.wal.append", |_| wal.append_timed(&op))
                                .map_err(|e| format!("wal append: {e}"))?;
                            spans.attribute(&[("serve.wal.fsync", timing.fsync_ns)]);
                            fsyncs += u64::from(timing.fsynced);
                        }
                        spans
                            .time("online.store.delete", |_| guard.delete_record(id.entity))
                            .map_err(|e| format!("delete: {e}"))
                    })?;
                }
            }
            spans.time("serve.http.render", |_| {
                black_box(render_response(200, "OK", &body, false, &[]))
            });
        }
    }

    for (metric, span) in [
        ("serve.http.parse_us", "serve.http.parse"),
        ("serve.http.render_us", "serve.http.render"),
        ("serve.shard.match_us", "serve.shard.match"),
        ("serve.shard.ann_max_us", "serve.shard.ann_max"),
        ("serve.shard.merge_us", "serve.shard.merge"),
        ("serve.shard.coordination_us", "serve.shard.coordination"),
        ("serve.wal.append_us", "serve.wal.append"),
        ("serve.wal.fsync_us", "serve.wal.fsync"),
        ("online.store.insert_us", "online.store.insert"),
        ("online.store.match_us", "online.store.match"),
        ("online.store.delete_us", "online.store.delete"),
    ] {
        m.insert(metric.into(), spans.median_us(span));
    }
    m.insert(
        "serve.wal.bytes_per_record".into(),
        wal_bytes as f64 / wal_inserts.max(1) as f64,
    );
    m.insert("serve.wal.fsyncs".into(), fsyncs as f64);
    m.insert(
        "serve.replay.ops".into(),
        spans.count("serve.http.parse") as f64,
    );

    storage_reads(plan, &store, data_dir.is_some(), spans);
    m.insert(
        "online.storage.get_hit_us".into(),
        spans.median_us("online.storage.get_hit"),
    );
    m.insert(
        "online.storage.get_miss_us".into(),
        spans.median_us("online.storage.get_miss"),
    );
    Ok(())
}

/// Read preloaded records back through `EntityStore::record`, twice over the
/// same sample: the second pass finds them in the segment hot cache. Each
/// read is classed by whether the store's own miss counter moved. The memory
/// backend has no cache, so both classes stay empty there.
fn storage_reads(plan: &ServePlan, store: &Store, disk: bool, spans: &mut Spans) {
    if !disk {
        return;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(plan.preload.len() as u64);
    let per_shard: Vec<usize> = (0..SHARDS)
        .map(|s| store.read_shard(s).num_records())
        .collect();
    let sample: Vec<(usize, EntityId)> = (0..STORAGE_READS)
        .map(|_| {
            let shard = rng.gen_range(0..SHARDS);
            // Streamed inserts of a shard share source 0; low rows are the
            // preloaded (sealed, possibly evicted) records.
            let row = rng.gen_range(0..per_shard[shard].max(1).min(plan.preload.len()));
            (shard, EntityId::new(0, row as u32))
        })
        .collect();
    for _pass in 0..2 {
        for &(shard, id) in &sample {
            let guard = store.read_shard(shard);
            let before = guard.storage_stats().cache_misses;
            let started = Instant::now();
            black_box(guard.record(id));
            let ns = started.elapsed().as_nanos() as u64;
            let missed = guard.storage_stats().cache_misses > before;
            let class = if missed {
                "online.storage.get_miss"
            } else {
                "online.storage.get_hit"
            };
            spans.record(class, ns);
        }
    }
}
