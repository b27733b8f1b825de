//! The repo's benchmark: paper-shaped batch runs and datagen-driven serve
//! traffic, end to end and layer by layer. See `README.md` beside
//! `Cargo.toml` for the metrics, the workloads and why each exists.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--trace 0|1] [--out LEDGER]
//! benchmark [--seed N] [--out LEDGER]          every workload, plain then traced
//! benchmark --compare A.jsonl B.jsonl          regression verdicts between two ledgers
//! ```
//!
//! Run length is `run_seconds` of `BENCHMARK.json`; `--seconds` is accepted
//! only because the driver passes it, and must repeat that value.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

#![forbid(unsafe_code)]

mod batch;
mod compare;
mod contract;
mod data;
mod json;
mod layers;
mod machine;
mod replay;
mod scrape;
mod serve;
mod spans;
mod stats;

use batch::BatchSpec;
use contract::Contract;
use data::Mix;
use json::Value;
use serve::ServeSpec;
use spans::Spans;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Metric name → measured value.
pub type Metrics = BTreeMap<String, f64>;

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations and correctness checks attempted / failed, refused or wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts, sizes and the first error of each kind, for the log.
    pub notes: Vec<String>,
}

pub enum Kind {
    Batch(BatchSpec),
    Serve(ServeSpec),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The four workloads. Sizing is fixed here: no environment variable and no
/// flag changes what a name means. `BENCHMARK.json` records why each exists.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch_wide",
        // Five ~1.1k-row tables: from level 1 up the merge inputs exceed
        // `hnsw_threshold` (2,000), so HNSW build + search dominates.
        kind: Kind::Batch(BatchSpec {
            preset: "music-20",
            scale: 0.3,
            reps: 3,
            min_f1: 0.90,
        }),
    },
    Workload {
        name: "batch_many",
        // Twenty ~165-row tables, heavy corruption: nineteen merges that all
        // stay on the brute-force index.
        kind: Kind::Batch(BatchSpec {
            preset: "shopee",
            scale: 0.1,
            reps: 9,
            min_f1: 0.75,
        }),
    },
    Workload {
        name: "serve_read",
        // ~6k records over two shards: each shard's representative index is
        // past `hnsw_threshold`, and nothing is written while it is queried.
        kind: Kind::Serve(ServeSpec {
            scale: 0.2,
            preload: usize::MAX,
            mix: Mix {
                ingest: 0.0,
                delete: 0.0,
            },
            disk: false,
            min_hit_rate: 0.65,
        }),
    },
    Workload {
        name: "serve_mixed",
        // Twice the records so the run never exhausts fresh ones; 5,000 are
        // loaded up front — more than the 2 x 1,024-record segment hot cache,
        // and enough that the larger shard is already on its HNSW index (the
        // multi-second rebuild at `hnsw_threshold` would otherwise land in
        // some runs and not in others) — and the store grows while queried.
        kind: Kind::Serve(ServeSpec {
            scale: 0.4,
            preload: 5_000,
            mix: Mix {
                ingest: 0.4,
                delete: 0.1,
            },
            disk: true,
            min_hit_rate: 0.55,
        }),
    },
];

/// Where things are: the repo, the built `serve`, and a scratch directory of
/// this process (inside cargo's target dir, so inside the checkout and never
/// committed).
pub struct Env {
    pub repo_root: PathBuf,
    target_dir: PathBuf,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

impl Env {
    fn new() -> std::io::Result<Self> {
        let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark package sits one level below the repo root")
            .to_path_buf();
        // This executable is `<target dir>/release/benchmark`; `serve` is
        // built into the same target dir, wherever cargo was told to put it.
        let exe = std::env::current_exe()?;
        let target_dir = exe
            .ancestors()
            .nth(2)
            .ok_or_else(|| std::io::Error::other("executable is not inside a target dir"))?
            .to_path_buf();
        let work_dir = target_dir
            .join("benchmark-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&work_dir)?;
        Ok(Self {
            serve_bin: target_dir.join("release").join("serve"),
            repo_root,
            target_dir,
            work_dir,
        })
    }

    /// Build the program under test from source (a no-op when up to date).
    fn build_serve(&self) -> Result<(), String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--offline"])
            .args(["-p", "multiem-serve", "--bin", "serve", "--manifest-path"])
            .arg(self.repo_root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&self.target_dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if status.success() && self.serve_bin.is_file() {
            Ok(())
        } else {
            Err(format!(
                "building `serve` failed ({status}); expected {}",
                self.serve_bin.display()
            ))
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work_dir);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>, contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        trace: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                // Not a knob: the driver states the run length it read from
                // BENCHMARK.json, and any other value is a mistake.
                if value()?.parse() != Ok(contract.run_seconds) {
                    return Err(format!(
                        "run length is fixed: --seconds must be {}",
                        contract.run_seconds
                    ));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Run one workload once, in this process, and report it.
fn run_one(workload: &Workload, args: &Args, contract: &Contract) -> Result<(), String> {
    let env = Env::new().map_err(|e| format!("work dir: {e}"))?;
    if matches!(workload.kind, Kind::Serve(_)) {
        env.build_serve()?;
    }
    let seconds = contract.run_seconds;
    let mut spans = Spans::new();
    let outcome = match (&workload.kind, args.trace) {
        (Kind::Batch(spec), false) => batch::run_plain(spec, args.seed),
        (Kind::Batch(spec), true) => batch::run_traced(spec, args.seed, contract, &mut spans),
        (Kind::Serve(spec), false) => serve::run_plain(&env, spec, args.seed, seconds)?,
        (Kind::Serve(spec), true) => {
            serve::run_traced(&env, spec, args.seed, seconds, contract, &mut spans)?
        }
    };
    report(&env, workload.name, args, contract, outcome, &spans)
}

/// Command lines of the whole suite: every workload plain, then traced.
/// Each is a process of its own, so `VmHWM` of one run (the batch workloads'
/// `peak_rss_mb`) never carries the peak of the run before it.
fn suite_commands(args: &Args) -> Vec<Vec<String>> {
    let mut commands = Vec::new();
    for workload in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut command: Vec<String> = ["--workload", workload.name, "--trace", trace]
                .map(String::from)
                .to_vec();
            command.extend(["--seed".to_string(), args.seed.to_string()]);
            if let Some(out) = &args.out {
                command.extend(["--out".to_string(), out.display().to_string()]);
            }
            commands.push(command);
        }
    }
    commands
}

fn run_suite(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    for command in suite_commands(args) {
        let status = Command::new(&exe)
            .args(&command)
            .status()
            .map_err(|e| format!("cannot re-run self: {e}"))?;
        if !status.success() {
            return Err(format!(
                "`benchmark {}` failed ({status})",
                command.join(" ")
            ));
        }
    }
    Ok(())
}

/// The metrics a run in this mode must report, in `BENCHMARK.json` order. A
/// name the run did not measure, or measured as NaN or infinite, is a failed
/// check and reads 0.
fn checked_metrics<'c>(
    outcome: &mut Outcome,
    declared: &'c [contract::Metric],
) -> Vec<(&'c str, &'c str, f64)> {
    declared
        .iter()
        .map(|metric| {
            let name = metric.name.as_str();
            let value = match outcome.metrics.get(name) {
                Some(&v) if v.is_finite() => v,
                other => {
                    outcome.failed += 1;
                    outcome.notes.push(match other {
                        Some(_) => format!("{name} is not a finite number"),
                        None => format!("{name} was not measured"),
                    });
                    0.0
                }
            };
            (name, metric.unit.as_str(), value)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> Value {
    json::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::UInt(outcome.attempted.max(1))),
        ("failed", Value::UInt(outcome.failed)),
        (
            "metrics",
            json::obj(metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    json::obj([("value", Value::Float(value)), ("unit", json::s(unit))]),
                )
            })),
        ),
    ])
}

/// Print every metric by name with its unit, append the run to the ledger,
/// write the spans beside it, and end with the result line.
fn report(
    env: &Env,
    workload: &str,
    args: &Args,
    contract: &Contract,
    mut outcome: Outcome,
    spans: &Spans,
) -> Result<(), String> {
    let declared = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let metrics = checked_metrics(&mut outcome, declared);
    let mut seen = std::collections::HashSet::new();
    outcome.notes.retain(|note| seen.insert(note.clone()));
    let result = result_line(&outcome, &metrics);

    println!(
        "# {workload} seed={} seconds={} trace={}",
        args.seed,
        contract.run_seconds,
        u8::from(args.trace)
    );
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("# note: {note}");
    }
    let machine = machine::record(&env.repo_root, &env.work_dir);
    println!("# machine: {}", json::render(&machine));

    if let Some(path) = &args.out {
        let entry = json::obj([
            ("workload", json::s(workload)),
            ("seed", Value::UInt(args.seed)),
            ("seconds", Value::Float(contract.run_seconds)),
            ("trace", Value::Bool(args.trace)),
            ("machine", machine),
            (
                "notes",
                Value::Seq(outcome.notes.iter().map(json::s).collect()),
            ),
            ("result", result.clone()),
        ]);
        let mut ledger = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(ledger, "{}", json::render(&entry)).map_err(|e| e.to_string())?;
        if args.trace {
            let spans_path = path.with_extension(format!("{workload}.spans.jsonl"));
            spans.write(&spans_path).map_err(|e| e.to_string())?;
        }
    }
    println!("{}", json::render(&result));
    Ok(())
}

fn main() -> ExitCode {
    let parsed = Contract::load()
        .and_then(|contract| Ok((parse_args(std::env::args().skip(1), &contract)?, contract)));
    let (args, contract) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // An incorrect run still reports and exits 0: `correct: false` on the
    // result line is the verdict (and `--compare` refuses such a ledger).
    // Only a run that could not be made fails.
    let done = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => match compare::compare(a, b, &contract) {
            Ok(true) => Ok(()),
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        (None, Some(name)) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(workload) => run_one(workload, &args, &contract),
            None => {
                eprintln!(
                    "error: unknown workload `{name}`; BENCHMARK.json lists {}",
                    contract.workloads.join(", ")
                );
                return ExitCode::from(2);
            }
        },
        (None, None) => run_suite(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str, contract: &Contract) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from), contract)
    }

    #[test]
    fn result_line_parses_and_holds_exactly_the_declared_names() {
        let contract = Contract::load().unwrap();
        for declared in [&contract.end_to_end, &contract.per_layer] {
            let mut outcome = Outcome {
                metrics: declared.iter().map(|m| (m.name.clone(), 1.5)).collect(),
                attempted: 3,
                failed: 0,
                notes: Vec::new(),
            };
            outcome.metrics.insert("not.declared".into(), 1.0);
            let metrics = checked_metrics(&mut outcome, declared);
            let line = json::render(&result_line(&outcome, &metrics));
            let parsed = json::parse(&line).unwrap();
            let keys: Vec<&str> = parsed
                .as_map()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json::get(&parsed, "correct"), Some(&Value::Bool(true)));
            let reported = json::get(&parsed, "metrics")
                .and_then(Value::as_map)
                .unwrap();
            assert_eq!(reported.len(), declared.len());
            for ((name, value), metric) in reported.iter().zip(declared) {
                assert_eq!(name, &metric.name);
                assert_eq!(json::get(value, "unit"), Some(&json::s(&metric.unit)));
            }
        }
    }

    #[test]
    fn an_unmeasured_or_non_finite_metric_fails_the_run() {
        let contract = Contract::load().unwrap();
        let mut outcome = Outcome {
            metrics: Metrics::from([("setup_s".to_string(), f64::NAN)]),
            attempted: 1,
            failed: 0,
            notes: Vec::new(),
        };
        let metrics = checked_metrics(&mut outcome, &contract.end_to_end);
        assert_eq!(outcome.failed, contract.end_to_end.len() as u64);
        assert!(metrics.iter().all(|m| m.2 == 0.0));
        let line = result_line(&outcome, &metrics);
        assert_eq!(json::get(&line, "correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn the_drivers_command_line_parses_and_run_length_is_not_a_knob() {
        let contract = Contract::load().unwrap();
        let seconds = contract.run_seconds;
        let parsed = args(
            &format!("--workload serve_read --seed 7 --seconds {seconds} --trace 1"),
            &contract,
        )
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve_read"));
        assert_eq!((parsed.seed, parsed.trace), (7, true));
        assert!(args(&format!("--seconds {}", seconds + 1.0), &contract).is_err());
        assert!(args("--trace yes", &contract).is_err());
        assert!(args("--traced", &contract).is_err());
    }

    #[test]
    fn the_suite_runs_every_workload_in_both_modes_as_its_own_process() {
        let contract = Contract::load().unwrap();
        let suite = suite_commands(&args("--seed 9 --out l.jsonl", &contract).unwrap());
        assert_eq!(suite.len(), 2 * WORKLOADS.len());
        for (i, command) in suite.iter().enumerate() {
            // Each command line selects one workload, so `main` runs it in
            // the child and never recurses into the suite.
            let child = parse_args(command.iter().cloned(), &contract).unwrap();
            assert_eq!(child.workload.as_deref(), Some(WORKLOADS[i / 2].name));
            assert_eq!(child.trace, i % 2 == 1);
            assert_eq!(child.seed, 9);
            assert_eq!(child.out.as_deref(), Some(Path::new("l.jsonl")));
        }
    }
}
