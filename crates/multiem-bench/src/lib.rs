//! The harness behind `exhibits`, the one binary that regenerates every
//! table and figure of the MultiEM evaluation (Section IV):
//!
//! ```bash
//! cargo run --release -p multiem-bench --bin exhibits                  # every exhibit
//! MULTIEM_SCALE=0.02 MULTIEM_DATASETS=geo,shopee \
//!     cargo run --release -p multiem-bench --bin exhibits -- table4 fig6-m
//! cargo run --release -p multiem-bench --bin exhibits > crates/multiem-bench/EXHIBITS.txt
//! ```
//!
//! The last command writes the committed `EXHIBITS.txt` (default scale, all
//! six presets; its header names the machine). The harness:
//!
//! * generates the six benchmark-dataset analogues at a configurable scale
//!   ([`HarnessConfig`], from the values of `MULTIEM_SCALE` and
//!   `MULTIEM_DATASETS`, its only inputs besides the exhibit names);
//! * runs every method of Tables IV–VI once per dataset ([`run_methods`]):
//!   each baseline with the guards the paper applies (quadratic / cubic
//!   methods are skipped on datasets too large for them, reported like the
//!   `-` / `\` entries of Tables IV–VI), and MultiEM and its ablations with
//!   the paper's per-dataset grid search over `m`, `γ` and `ε`
//!   ([`run_multiem_grid`]); MultiEM's grid runs inside a one-thread pool,
//!   and its selected configuration runs once more at the machine's width
//!   (the `MultiEM (parallel)` row). Tables IV–VI and Figure 5 all render
//!   that pass;
//! * renders each [`Exhibit`] as text ([`render`]).

#![forbid(unsafe_code)]

use multiem_baselines::{
    AlmserGb, AutoFjMatcher, ChainExtension, MatchContext, MscdAp, MscdHac, MultiTableMatcher,
    PairwiseExtension, SupervisedMatcher,
};
use multiem_core::{select_attributes, MultiEm, MultiEmConfig, MultiEmOutput};
use multiem_datagen::{benchmark_dataset, benchmark_specs, BenchmarkDataset};
use multiem_embed::HashedLexicalEncoder;
use multiem_eval::{
    evaluate, format_bytes, format_duration, sample_labeled_pairs, EvaluationReport,
    SamplingConfig, TextTable,
};
use multiem_table::{Dataset, MatchTuple};
use rayon::ThreadPool;
use std::time::{Duration, Instant};

/// The presets run below `MULTIEM_SCALE`, each with the factor it is
/// reduced by, so default harness runs stay laptop-sized; every other preset
/// runs at `MULTIEM_SCALE` itself.
const SCALE_FACTORS: [(&str, f64); 3] =
    [("music-200", 0.2), ("music-2000", 0.02), ("person", 0.02)];

/// Configuration of the experiment harness.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Scale factor applied to every dataset preset (`MULTIEM_SCALE`,
    /// default 0.05). `1.0` reproduces the paper's cardinalities.
    pub scale: f64,
    /// Optional comma-separated dataset filter (`MULTIEM_DATASETS`).
    pub datasets: Option<Vec<String>>,
    /// Entity-count ceiling for the quadratic clustering baselines
    /// (MSCD-AP, ALMSER-GB); larger datasets are skipped.
    pub quadratic_limit: usize,
    /// Entity-count ceiling for MSCD-HAC, whose naive agglomerative loop is
    /// cubic (the paper likewise only obtains MSCD-HAC numbers on Geo).
    pub hac_limit: usize,
    /// Entity-count ceiling for the pairwise / chain two-table baselines.
    pub pairwise_limit: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.05,
            datasets: None,
            quadratic_limit: 4_000,
            hac_limit: 800,
            pairwise_limit: 30_000,
        }
    }
}

impl HarnessConfig {
    /// Build the configuration from the values of `MULTIEM_SCALE` and
    /// `MULTIEM_DATASETS` (`None` when unset). A scale that does not parse
    /// or lies outside `[0.0005, 1]`, or an unknown preset, is an error that
    /// names the valid values.
    pub fn parse(scale: Option<&str>, datasets: Option<&str>) -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Some(raw) = scale {
            cfg.scale = raw
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|s| (0.0005..=1.0).contains(s))
                .ok_or_else(|| format!("MULTIEM_SCALE={raw:?} is not a number in [0.0005, 1]"))?;
        }
        if let Some(raw) = datasets {
            let presets: Vec<String> = benchmark_specs().into_iter().map(|s| s.name).collect();
            let list: Vec<String> = raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if let Some(unknown) = list.iter().find(|name| !presets.contains(name)) {
                return Err(format!(
                    "MULTIEM_DATASETS names unknown preset {unknown:?}; valid: {}",
                    presets.join(", ")
                ));
            }
            cfg.datasets = Some(list).filter(|list| !list.is_empty());
        }
        Ok(cfg)
    }

    /// The header line of every run: `MULTIEM_SCALE`, the datasets its
    /// numbers were obtained at, the machine they were timed on and the
    /// instruction set the binary was compiled for (`target_level`). Each
    /// preset's own scale ([`HarnessConfig::scale_for`]) is Table III's.
    pub fn announce(&self, datasets: &[BenchmarkDataset]) -> String {
        let names: Vec<&str> = datasets.iter().map(|d| d.stats.name.as_str()).collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown CPU".to_string());
        format!(
            "[multiem-bench] MULTIEM_SCALE={}, datasets {}; {cores} cores, {cpu}; built for {}\n",
            self.scale,
            names.join(","),
            target_level()
        )
    }

    /// Per-dataset scale: `MULTIEM_SCALE` times the preset's factor in
    /// `SCALE_FACTORS`. Table III prints it per preset.
    pub fn scale_for(&self, name: &str) -> f64 {
        let factor = SCALE_FACTORS
            .iter()
            .find(|(preset, _)| *preset == name)
            .map_or(1.0, |&(_, factor)| factor);
        self.scale * factor
    }

    /// Generate every (selected) benchmark dataset at the configured scale.
    pub fn datasets(&self) -> Vec<BenchmarkDataset> {
        benchmark_specs()
            .into_iter()
            .filter(|spec| {
                self.datasets
                    .as_ref()
                    .is_none_or(|list| list.contains(&spec.name))
            })
            .map(|spec| {
                benchmark_dataset(&spec.name, self.scale_for(&spec.name)).expect("preset exists")
            })
            .collect()
    }
}

/// The x86-64 microarchitecture level this binary was compiled for (the
/// root `.cargo/config.toml` asks for v3), named by the widest extension
/// each level adds, or the architecture's name elsewhere. The time cells
/// depend on it; the quality cells must not.
fn target_level() -> &'static str {
    if !cfg!(target_arch = "x86_64") {
        std::env::consts::ARCH
    } else if cfg!(target_feature = "avx512f") {
        "x86-64-v4"
    } else if cfg!(target_feature = "avx2") {
        "x86-64-v3"
    } else if cfg!(target_feature = "sse4.2") {
        "x86-64-v2"
    } else {
        "x86-64"
    }
}

/// The hyper-parameter grid of Section IV-A.
pub fn paper_grid() -> Vec<MultiEmConfig> {
    let mut out = Vec::new();
    for &m in &[0.2f32, 0.35, 0.5] {
        for &gamma in &[0.8f64, 0.9] {
            for &epsilon in &[0.8f32, 1.0] {
                out.push(MultiEmConfig {
                    m,
                    gamma,
                    epsilon,
                    ..MultiEmConfig::default()
                });
            }
        }
    }
    out
}

/// Attribute-selection sample ratio, as the paper sets it: 0.05 for the
/// largest dataset, 0.2 otherwise.
fn sample_ratio(dataset: &Dataset) -> f64 {
    if dataset.total_entities() > 1_000_000 {
        0.05
    } else {
        0.2
    }
}

/// Outcome of one method on one dataset.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name as reported in the paper's tables.
    pub method: String,
    /// Quality metrics (`None` when the method was skipped).
    pub report: Option<EvaluationReport>,
    /// Wall-clock runtime of the method (excluding dataset generation).
    pub runtime: Duration,
    /// Accounted memory in bytes.
    pub memory_bytes: usize,
    /// Reason the method was skipped, if it was.
    pub skipped: Option<String>,
}

/// MultiEM variants reported in Tables IV–VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiEmVariant {
    /// The full pipeline; [`run_methods`] runs it on one thread.
    Full,
    /// The same pipeline at the machine's width (same output, different
    /// runtime, and one right-hand top-K table in flight per thread).
    Parallel,
    /// Ablation without enhanced entity representation.
    WithoutEer,
    /// Ablation without density-based pruning.
    WithoutDp,
}

impl MultiEmVariant {
    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            MultiEmVariant::Full => "MultiEM",
            MultiEmVariant::Parallel => "MultiEM (parallel)",
            MultiEmVariant::WithoutEer => "MultiEM w/o EER",
            MultiEmVariant::WithoutDp => "MultiEM w/o DP",
        }
    }

    fn apply(&self, config: MultiEmConfig) -> MultiEmConfig {
        match self {
            MultiEmVariant::Full | MultiEmVariant::Parallel => config,
            MultiEmVariant::WithoutEer => config.without_attribute_selection(),
            MultiEmVariant::WithoutDp => config.without_pruning(),
        }
    }
}

/// One timed MultiEM run, scored against the dataset's ground truth.
#[derive(Debug, Clone)]
pub struct MultiEmRun {
    /// The configuration that ran.
    pub config: MultiEmConfig,
    /// What the pipeline returned.
    pub output: MultiEmOutput,
    /// Quality of `output.tuples`.
    pub report: EvaluationReport,
    /// Wall-clock time of `MultiEm::run`.
    pub runtime: Duration,
}

impl MultiEmRun {
    fn result(&self, variant: MultiEmVariant) -> MethodResult {
        MethodResult {
            method: variant.name().to_string(),
            report: Some(self.report),
            runtime: self.runtime,
            memory_bytes: self.output.total_memory_bytes(),
            skipped: None,
        }
    }
}

/// Run a single MultiEM configuration and measure it.
pub fn run_multiem_once(dataset: &Dataset, config: MultiEmConfig) -> MultiEmRun {
    let gt = dataset.ground_truth().expect("ground truth");
    let start = Instant::now();
    let output = MultiEm::new(config.clone(), HashedLexicalEncoder::default())
        .run(dataset)
        .expect("pipeline runs on benchmark data");
    let runtime = start.elapsed();
    MultiEmRun {
        config,
        report: evaluate(&output.tuples, gt),
        output,
        runtime,
    }
}

/// Run MultiEM with the paper's grid search, returning the best run by tuple
/// F1 (the first of equals), timed as it ran in the grid.
pub fn run_multiem_grid(dataset: &Dataset, variant: MultiEmVariant) -> MultiEmRun {
    let sample_ratio = sample_ratio(dataset);
    paper_grid()
        .into_iter()
        .map(|base| {
            let config = variant.apply(MultiEmConfig {
                sample_ratio,
                ..base
            });
            run_multiem_once(dataset, config)
        })
        .reduce(|best, run| {
            if run.report.tuple.f1 > best.report.tuple.f1 {
                run
            } else {
                best
            }
        })
        .expect("grid is non-empty")
}

/// The baseline methods of Table IV, with the entity-count guards that mirror
/// the `-` (out of memory) and `\` (timeout) entries of the paper's tables.
pub fn run_baselines(data: &BenchmarkDataset, harness: &HarnessConfig) -> Vec<MethodResult> {
    let dataset = &data.dataset;
    let gt = dataset.ground_truth().expect("ground truth");
    let n = dataset.total_entities();
    let encoder = HashedLexicalEncoder::default();

    // Context shared by all baselines; its construction time is excluded from
    // per-method runtimes (it corresponds to data loading / encoding that the
    // paper also excludes for the supervised baselines' preprocessing).
    let labeled = sample_labeled_pairs(dataset, &SamplingConfig::default());
    let ctx = MatchContext::build(dataset, &encoder, labeled);
    let ctx_bytes = ctx.approx_bytes();

    let pairwise = (harness.pairwise_limit, "skipped: exceeds pairwise limit");
    let clustering = |limit| (limit, "skipped: exceeds clustering size limit");
    let mut results = Vec::new();
    let mut run = |method: String,
                   (limit, reason): (usize, &str),
                   memory_bytes: usize,
                   matcher: &dyn Fn() -> Vec<MatchTuple>| {
        let (report, runtime, memory_bytes, skipped) = if n > limit {
            (None, Duration::ZERO, 0, Some(reason.to_string()))
        } else {
            let start = Instant::now();
            let tuples = matcher();
            let runtime = start.elapsed();
            (Some(evaluate(&tuples, gt)), runtime, memory_bytes, None)
        };
        results.push(MethodResult {
            method,
            report,
            runtime,
            memory_bytes,
            skipped,
        });
    };

    // Supervised two-table matchers under both extensions.
    for (label, factory) in [
        (
            "PromptEM",
            SupervisedMatcher::promptem_like as fn() -> SupervisedMatcher,
        ),
        ("Ditto", SupervisedMatcher::ditto_like),
    ] {
        let trained = || {
            let mut matcher = factory();
            matcher.train(&ctx);
            matcher
        };
        run(format!("{label} (pw)"), pairwise, ctx_bytes, &|| {
            PairwiseExtension::new(trained()).run(&ctx)
        });
        run(format!("{label} (c)"), pairwise, ctx_bytes, &|| {
            ChainExtension::new(trained()).run(&ctx)
        });
    }
    run("AutoFJ (pw)".into(), pairwise, ctx_bytes, &|| {
        PairwiseExtension::new(AutoFjMatcher::default()).run(&ctx)
    });
    run("AutoFJ (c)".into(), pairwise, ctx_bytes, &|| {
        ChainExtension::new(AutoFjMatcher::default()).run(&ctx)
    });
    // ALMSER-GB's candidate graph is quadratic-ish; MSCD-HAC and MSCD-AP
    // hold dense pairwise distance / message matrices.
    run("ALMSER-GB".into(), pairwise, ctx_bytes + n * n / 8, &|| {
        AlmserGb::default().run(&ctx)
    });
    let dense = ctx_bytes + n * n * 4;
    run(
        "MSCD-HAC".into(),
        clustering(harness.hac_limit),
        dense,
        &|| MscdHac::default().run(&ctx),
    );
    run(
        "MSCD-AP".into(),
        clustering(harness.quadratic_limit),
        dense,
        &|| MscdAp::default().run(&ctx),
    );
    results
}

/// Every method of Tables IV–VI on one dataset, each run once.
#[derive(Debug, Clone)]
pub struct MethodsPass {
    /// The dataset's name.
    pub dataset: String,
    /// The baselines, then MultiEM, MultiEM (parallel), w/o EER and w/o DP.
    pub results: Vec<MethodResult>,
    /// MultiEM's selected grid run, on one thread (Figure 5's S / R / M / P
    /// and total).
    pub multiem: MultiEmOutput,
    /// The same configuration at the machine's width (Figure 5's `(p)`
    /// columns).
    pub full_width: MultiEmOutput,
}

/// Run every method of Tables IV–VI once on `data`. MultiEM, w/o EER and
/// w/o DP are grid-searched, MultiEM's grid inside a one-thread pool, so its
/// row is a single-threaded run. MultiEM (parallel) is one run of MultiEM's
/// selected configuration at the machine's width, and it is an error naming
/// the dataset if it matches other tuples than MultiEM did.
pub fn run_methods(
    data: &BenchmarkDataset,
    harness: &HarnessConfig,
) -> Result<MethodsPass, String> {
    let dataset = &data.dataset;
    let mut results = run_baselines(data, harness);
    let full = ThreadPool::new(1).install(|| run_multiem_grid(dataset, MultiEmVariant::Full));
    let parallel = run_multiem_once(dataset, full.config.clone());
    let sorted = |run: &MultiEmRun| {
        let mut tuples = run.output.tuples.clone();
        tuples.sort();
        tuples
    };
    if sorted(&full) != sorted(&parallel) {
        return Err(format!(
            "{}: MultiEM (parallel) matched other tuples than MultiEM",
            data.stats.name
        ));
    }
    results.push(full.result(MultiEmVariant::Full));
    results.push(parallel.result(MultiEmVariant::Parallel));
    for variant in [MultiEmVariant::WithoutEer, MultiEmVariant::WithoutDp] {
        results.push(run_multiem_grid(dataset, variant).result(variant));
    }
    Ok(MethodsPass {
        dataset: data.stats.name.clone(),
        results,
        multiem: full.output,
        full_width: parallel.output,
    })
}

/// One table or figure panel of Section IV, in the order `exhibits` prints
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Exhibit {
    /// Table III, dataset statistics.
    Table3,
    /// Table IV, matching quality.
    Table4,
    /// Table V, running time.
    Table5,
    /// Table VI, accounted memory.
    Table6,
    /// Table VII, selected attributes.
    Table7,
    /// Figure 5, per-module running time.
    Fig5,
    /// Figure 6(a), F1 vs `γ`.
    Fig6Gamma,
    /// Figure 6(b), F1 vs merge-order seed.
    Fig6Seed,
    /// Figure 6(c)(d), F1 and normalised time vs `m`.
    Fig6M,
    /// Figure 6(e)(f), F1 and normalised time vs `ε`.
    Fig6Epsilon,
}

impl Exhibit {
    /// Every exhibit, in print order.
    pub const ALL: [Exhibit; 10] = [
        Exhibit::Table3,
        Exhibit::Table4,
        Exhibit::Table5,
        Exhibit::Table6,
        Exhibit::Table7,
        Exhibit::Fig5,
        Exhibit::Fig6Gamma,
        Exhibit::Fig6Seed,
        Exhibit::Fig6M,
        Exhibit::Fig6Epsilon,
    ];

    /// The name that selects this exhibit on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Exhibit::Table3 => "table3",
            Exhibit::Table4 => "table4",
            Exhibit::Table5 => "table5",
            Exhibit::Table6 => "table6",
            Exhibit::Table7 => "table7",
            Exhibit::Fig5 => "fig5",
            Exhibit::Fig6Gamma => "fig6-gamma",
            Exhibit::Fig6Seed => "fig6-seed",
            Exhibit::Fig6M => "fig6-m",
            Exhibit::Fig6Epsilon => "fig6-epsilon",
        }
    }

    /// Whether the exhibit renders the [`MethodsPass`].
    pub fn needs_methods(self) -> bool {
        matches!(
            self,
            Exhibit::Table4 | Exhibit::Table5 | Exhibit::Table6 | Exhibit::Fig5
        )
    }

    /// Whether the exhibit is a panel of Figure 6.
    pub fn is_fig6(self) -> bool {
        self >= Exhibit::Fig6Gamma
    }

    /// The exhibits the command-line `names` select, in print order: none
    /// selects all, and `fig6` selects its four panels. An unknown name is
    /// an error that lists the valid ones.
    pub fn parse(names: &[String]) -> Result<Vec<Exhibit>, String> {
        if names.is_empty() {
            return Ok(Self::ALL.to_vec());
        }
        let mut out = Vec::new();
        for name in names {
            match Self::ALL.into_iter().find(|e| e.name() == name) {
                Some(exhibit) => out.push(exhibit),
                None if name == "fig6" => out.extend(Self::ALL.into_iter().filter(|e| e.is_fig6())),
                None => {
                    let mut valid: Vec<&str> = Self::ALL.iter().map(|e| e.name()).collect();
                    let panels = Self::ALL.iter().position(|e| e.is_fig6());
                    valid.insert(panels.unwrap_or(valid.len()), "fig6");
                    return Err(format!(
                        "unknown exhibit {name:?}; valid: {}",
                        valid.join(", ")
                    ));
                }
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

/// What the paper reports for Figure 6, printed once after its panels.
pub const FIG6_FOOTER: &str = concat!(
    "paper reference (shape): F1 is sensitive to m (each dataset has a sweet spot and\n",
    "  running time decreases slightly as m grows), mildly sensitive to gamma, and\n",
    "  stable across merge-order seeds (avg variation 1.4 F1) and across epsilon.\n",
);

/// Render one exhibit. `passes` holds one [`MethodsPass`] per dataset when
/// [`Exhibit::needs_methods`], and may be empty otherwise.
pub fn render(
    exhibit: Exhibit,
    harness: &HarnessConfig,
    datasets: &[BenchmarkDataset],
    passes: &[MethodsPass],
) -> String {
    let scale = harness.scale;
    let default = MultiEmConfig::default;
    match exhibit {
        Exhibit::Table3 => table3(harness, datasets),
        Exhibit::Table4 => table4(datasets, passes),
        Exhibit::Table5 => with_footer(
            &method_table(scaled_title("Table V — running time", scale), passes, |r| {
                format_duration(r.runtime)
            }),
            concat!(
                "paper reference: MultiEM 6.1s (geo) … 1.8h (person); baselines minutes-to-hours or\n",
                "  unable to finish within 7 days on the large datasets (`\\`).\n",
            ),
        ),
        // Memory is byte-accounted (embeddings, ANN indexes, similarity
        // matrices, candidate graphs) rather than measured as RSS: the
        // accounted number repeats exactly for a seed.
        Exhibit::Table6 => with_footer(
            &method_table(
                scaled_title("Table VI — accounted memory usage", scale),
                passes,
                |r| format_bytes(r.memory_bytes),
            ),
            concat!(
                "paper reference: MultiEM 16.3–18.2G across all datasets (flat); PromptEM/Ditto\n",
                "  30–68G; AutoFJ runs out of memory on the large datasets; MSCD-HAC 2.1G on geo only.\n",
            ),
        ),
        Exhibit::Table7 => table7(datasets),
        Exhibit::Fig5 => fig5(scale, passes),
        Exhibit::Fig6Gamma => fig6_sweep(
            datasets,
            ("Figure 6(a) — F1 (%) vs gamma", None),
            ["0.80", "0.85", "0.90", "0.95"],
            [0.80, 0.85, 0.90, 0.95].map(|gamma| MultiEmConfig { gamma, ..default() }),
        ),
        Exhibit::Fig6Seed => fig6_sweep(
            datasets,
            ("Figure 6(b) — F1 (%) vs merge-order seed", None),
            ["0", "1", "2", "3"],
            [0, 1, 2, 3].map(|merge_seed| MultiEmConfig {
                merge_seed,
                ..default()
            }),
        ),
        Exhibit::Fig6M => fig6_sweep(
            datasets,
            (
                "Figure 6(c) — F1 (%) vs m",
                Some("Figure 6(d) — normalised time vs m"),
            ),
            ["0.05", "0.20", "0.35", "0.50"],
            [0.05, 0.2, 0.35, 0.5].map(|m| MultiEmConfig { m, ..default() }),
        ),
        Exhibit::Fig6Epsilon => fig6_sweep(
            datasets,
            (
                "Figure 6(e) — F1 (%) vs epsilon",
                Some("Figure 6(f) — normalised time vs epsilon"),
            ),
            ["0.7", "0.8", "0.9", "1.0"],
            [0.7, 0.8, 0.9, 1.0].map(|epsilon| MultiEmConfig {
                epsilon,
                ..default()
            }),
        ),
    }
}

/// The title of an exhibit over every preset: `MULTIEM_SCALE`, and where
/// each preset's own scale is.
fn scaled_title(exhibit: &str, scale: f64) -> String {
    format!("{exhibit} (MULTIEM_SCALE {scale}; per-preset scale: Table III's Scale column)")
}

fn with_footer(table: &TextTable, footer: &str) -> String {
    format!("{}\n{footer}", table.render())
}

fn table3(harness: &HarnessConfig, datasets: &[BenchmarkDataset]) -> String {
    let mut table = TextTable::new(
        format!(
            "Table III — dataset statistics (MULTIEM_SCALE {})",
            harness.scale
        ),
        &[
            "Name", "Scale", "Domain", "Srcs", "Attrs", "Entities", "Tuples", "Pairs",
        ],
    );
    for data in datasets {
        let s = &data.stats;
        table.add_row([
            s.name.clone(),
            format_scale(harness.scale_for(&s.name)),
            s.domain.clone(),
            s.sources.to_string(),
            s.attributes.to_string(),
            s.entities.to_string(),
            s.tuples.to_string(),
            s.pairs.to_string(),
        ]);
    }
    with_footer(
        &table,
        concat!(
            "paper (scale 1.0): geo 4/3/3054/820/4391, music-20 5/8*/19375/5000/16250,\n",
            "  music-200 5/8*/193750/50000/162500, music-2000 5/8*/1937500/500000/1625000,\n",
            "  person 5/4/5000000/500000/3331384, shopee 20/1/32563/10962/54488\n",
            "  (*Table III reports 5 attributes for Music; this reproduction uses the\n",
            "   8-attribute schema listed in Table VII so attribute selection has work to do.)\n",
        ),
    )
}

/// A scale rounded to six places: `0.05 * 0.2` prints as `0.01`, not
/// `0.010000000000000002`.
fn format_scale(scale: f64) -> String {
    ((scale * 1e6).round() / 1e6).to_string()
}

fn table4(datasets: &[BenchmarkDataset], passes: &[MethodsPass]) -> String {
    let mut out = String::new();
    for (data, pass) in datasets.iter().zip(passes) {
        let mut table = TextTable::new(
            format!(
                "Table IV — matching performance on {} ({} entities, {} true tuples)",
                data.stats.name, data.stats.entities, data.stats.tuples
            ),
            &["Method", "P", "R", "F1", "pair-F1"],
        );
        for r in &pass.results {
            let cells = match &r.report {
                Some(report) => {
                    let (p, rec, f1) = report.tuple.as_percentages();
                    let (_, _, pair_f1) = report.pair.as_percentages();
                    [p, rec, f1, pair_f1].map(|x| format!("{x:.1}"))
                }
                None => {
                    let reason = format!("({})", r.skipped.as_deref().unwrap_or_default());
                    ["\\".into(), "\\".into(), "\\".into(), reason]
                }
            };
            table.add_row(std::iter::once(r.method.clone()).chain(cells));
        }
        out.push_str(&format!("{}\n", table.render()));
    }
    out + concat!(
        "paper reference (F1 / pair-F1): MultiEM geo 90.9/97.3, music-20 88.6/95.3,\n",
        "  music-200 82.2/92.3, music-2000 68.7/85.2, person 36.5/73.6, shopee 26.2/43.5;\n",
        "  best baseline per dataset: MSCD-HAC 54.6/90.9 (geo), ALMSER-GB 63.5/87.0 (music-20),\n",
        "  Ditto (c) 55.8/72.6 (music-200), AutoFJ (c) 31.6/31.1-45.0 (shopee).\n",
    )
}

/// Tables V and VI: one row per method, one column per dataset, each cell
/// `cell` of that method's result there, and `\` where it was skipped.
fn method_table(
    title: String,
    passes: &[MethodsPass],
    cell: fn(&MethodResult) -> String,
) -> TextTable {
    let mut headers = vec!["Method"];
    headers.extend(passes.iter().map(|p| p.dataset.as_str()));
    let mut table = TextTable::new(title, &headers);
    // Every pass lists the same methods in the same order.
    let methods = passes.first().map_or(&[][..], |p| &p.results[..]);
    for method in methods.iter().map(|r| &r.method) {
        let cells = passes.iter().map(|pass| {
            let result = pass.results.iter().find(|r| &r.method == method);
            result
                .filter(|r| r.skipped.is_none())
                .map_or("\\".to_string(), cell)
        });
        table.add_row(std::iter::once(method.clone()).chain(cells));
    }
    table
}

fn table7(datasets: &[BenchmarkDataset]) -> String {
    let encoder = HashedLexicalEncoder::default();
    let mut table = TextTable::new(
        "Table VII — automated attribute selection",
        &[
            "Dataset",
            "All attributes",
            "Selected attributes",
            "Similarity scores",
        ],
    );
    for data in datasets {
        let dataset = &data.dataset;
        let config = MultiEmConfig {
            sample_ratio: sample_ratio(dataset),
            gamma: 0.9,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(dataset, &encoder, &config).expect("selection runs");
        let all: Vec<&str> = dataset.schema().names().collect();
        let scores: Vec<String> = selection
            .scores
            .iter()
            .map(|s| format!("{}={:.2}", s.name, s.mean_similarity))
            .collect();
        table.add_row([
            data.stats.name.clone(),
            all.join(", "),
            selection.selected_names().join(", "),
            scores.join(" "),
        ]);
    }
    with_footer(
        &table,
        concat!(
            "paper reference: geo -> name; music -> title, artist, album;\n",
            "  person -> givenname, surname, suburb, postcode; shopee -> title.\n",
        ),
    )
}

fn fig5(scale: f64, passes: &[MethodsPass]) -> String {
    let mut table = TextTable::new(
        scaled_title("Figure 5 — per-module running time", scale),
        &[
            "Dataset", "S", "R", "M", "M(p)", "P", "P(p)", "total", "total(p)",
        ],
    );
    for pass in passes {
        let (seq, par) = (&pass.multiem, &pass.full_width);
        table.add_row([
            pass.dataset.clone(),
            format_duration(seq.phases.attribute_selection),
            format_duration(seq.phases.representation),
            format_duration(seq.phases.merging),
            format_duration(par.phases.merging),
            format_duration(seq.phases.pruning),
            format_duration(par.phases.pruning),
            format_duration(seq.total_time),
            format_duration(par.total_time),
        ]);
    }
    with_footer(
        &table,
        concat!(
            "paper reference (shape): merging dominates (~37% of the pipeline on average),\n",
            "  and the parallel extension cuts merging and pruning times substantially on the\n",
            "  larger datasets while adding overhead on the tiny geo dataset.\n",
        ),
    )
}

/// One Figure 6 sweep: tuple F1 for each of `configs` on every dataset,
/// and, when `time_title` titles a second panel, each config's median run
/// time over the first config's.
fn fig6_sweep(
    datasets: &[BenchmarkDataset],
    (title, time_title): (&str, Option<&str>),
    labels: [&str; 4],
    configs: [MultiEmConfig; 4],
) -> String {
    // A time cell is the median of this many runs: one run's time spreads
    // more than the differences the panel shows.
    const TIME_RUNS: usize = 3;
    let headers = [&["Dataset"][..], &labels[..]].concat();
    let mut quality = TextTable::new(title, &headers);
    let time_title = time_title.map(|t| format!("{t} (median of {TIME_RUNS} runs)"));
    let mut time = TextTable::new(time_title.clone().unwrap_or_default(), &headers);
    for data in datasets {
        // The first run of each config, and the median time of its runs.
        let runs = configs.clone().map(|config| {
            let first = run_multiem_once(&data.dataset, config);
            let mut times = vec![first.runtime];
            if time_title.is_some() {
                for _ in 1..TIME_RUNS {
                    let again = run_multiem_once(&data.dataset, first.config.clone());
                    assert_eq!(
                        again.output.tuples, first.output.tuples,
                        "{}: a rerun matched other tuples",
                        data.stats.name
                    );
                    times.push(again.runtime);
                }
            }
            times.sort_unstable();
            let median = times[times.len() / 2].as_secs_f64();
            (first, median)
        });
        let base = runs[0].1.max(1e-9);
        let row = |cell: &dyn Fn(&(MultiEmRun, f64)) -> String| {
            let cells = runs.iter().map(cell);
            std::iter::once(data.stats.name.clone())
                .chain(cells)
                .collect::<Vec<_>>()
        };
        quality.add_row(row(&|(r, _)| format!("{:.1}", r.report.tuple.f1 * 100.0)));
        time.add_row(row(&|(_, t)| format!("{:.2}", t / base)));
    }
    let mut out = format!("{}\n", quality.render());
    if time_title.is_some() {
        out.push_str(&format!("{}\n", time.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_config_scales_presets() {
        let cfg = HarnessConfig::default();
        assert!(cfg.scale_for("music-2000") < cfg.scale_for("music-20"));
        assert_eq!(cfg.scale_for("geo"), cfg.scale);
        let scales = ["music-20", "music-200", "music-2000"].map(|p| cfg.scale_for(p));
        assert_eq!(scales.map(format_scale), ["0.05", "0.01", "0.001"]);
        assert_eq!(format_scale(1.0), "1");
    }

    #[test]
    fn paper_grid_has_twelve_points() {
        assert_eq!(paper_grid().len(), 12);
    }

    #[test]
    fn harness_input_is_parsed_from_values_and_refused_when_bad() {
        let cfg = HarnessConfig::parse(Some("0.02"), Some("geo, shopee,")).unwrap();
        assert_eq!(cfg.scale, 0.02);
        assert_eq!(cfg.datasets, Some(vec!["geo".into(), "shopee".into()]));
        let unset = HarnessConfig::parse(None, Some("")).unwrap();
        assert_eq!((unset.scale, unset.datasets), (0.05, None));
        for scale in ["0,02", "7", "0", "nan", ""] {
            let err = HarnessConfig::parse(Some(scale), None).unwrap_err();
            assert!(err.contains("[0.0005, 1]"), "{scale}: {err}");
        }
        let err = HarnessConfig::parse(None, Some("geo,music20")).unwrap_err();
        assert!(err.contains("\"music20\"") && err.contains("music-20, music-200"));
    }

    #[test]
    fn exhibit_names_parse_and_an_unknown_name_is_an_error() {
        assert_eq!(Exhibit::parse(&[]).unwrap(), Exhibit::ALL.to_vec());
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for exhibit in Exhibit::ALL {
            assert_eq!(
                Exhibit::parse(&names(&[exhibit.name()])).unwrap(),
                [exhibit]
            );
        }
        assert_eq!(
            Exhibit::parse(&names(&["fig6-m", "table3", "fig6"])).unwrap(),
            [
                Exhibit::Table3,
                Exhibit::Fig6Gamma,
                Exhibit::Fig6Seed,
                Exhibit::Fig6M,
                Exhibit::Fig6Epsilon
            ]
        );
        let err = Exhibit::parse(&names(&["table4", "gama"])).unwrap_err();
        assert!(err.contains("\"gama\"") && err.contains("fig5, fig6, fig6-gamma"));
    }

    #[test]
    fn grid_search_runs_on_tiny_geo() {
        let data = benchmark_dataset("geo", 0.02).unwrap();
        let run = run_multiem_grid(&data.dataset, MultiEmVariant::Full);
        assert!(!run.output.tuples.is_empty());
        assert!(run.report.tuple.f1 > 0.2);
        assert!(run.config.m > 0.0);
        // The selected run is reported as it ran in the grid: a fresh run of
        // its configuration scores the same.
        let again = run_multiem_once(&data.dataset, run.config.clone());
        assert_eq!(again.report, run.report);
        assert_eq!(again.output.tuples, run.output.tuples);
    }

    #[test]
    fn baselines_respect_limits() {
        let data = benchmark_dataset("geo", 0.02).unwrap();
        let harness = HarnessConfig {
            quadratic_limit: 1,
            hac_limit: 1,
            ..HarnessConfig::default()
        };
        let results = run_baselines(&data, &harness);
        let hac = results.iter().find(|r| r.method == "MSCD-HAC").unwrap();
        assert!(hac.skipped.is_some());
        let autofj = results.iter().find(|r| r.method == "AutoFJ (pw)").unwrap();
        assert!(autofj.report.is_some());

        // The methods pass over the same limits: every method exactly once,
        // and MultiEM (parallel) scores as MultiEM does.
        let pass = run_methods(&data, &harness).unwrap();
        let mut methods: Vec<&str> = pass.results.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(methods.len(), 13);
        methods.sort();
        methods.dedup();
        assert_eq!(methods.len(), 13);
        let row = |variant: MultiEmVariant| {
            let found = pass.results.iter().find(|r| r.method == variant.name());
            found.unwrap().report.unwrap()
        };
        assert_eq!(row(MultiEmVariant::Parallel), row(MultiEmVariant::Full));

        // Tables V and VI are one renderer: same rows, same columns, `\`
        // exactly where a method was skipped.
        let passes = [pass.clone(), pass];
        let time = method_table("V".into(), &passes, |r| format_duration(r.runtime));
        let memory = method_table("VI".into(), &passes, |r| format_bytes(r.memory_bytes));
        assert_eq!(time.num_rows(), 13);
        let header = |t: &TextTable| {
            let line = t.render().lines().nth(1).unwrap().to_string();
            line.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(header(&time), header(&memory));
        for ((t, m), r) in time
            .rows()
            .iter()
            .zip(memory.rows())
            .zip(&passes[0].results)
        {
            assert_eq!((t.len(), &t[0], &m[0]), (3, &r.method, &r.method));
            for cells in [t, m] {
                assert!(cells[1..]
                    .iter()
                    .all(|c| (c == "\\") == r.skipped.is_some()));
            }
        }
        assert!(time.rows().iter().any(|row| row[1] == "\\"));
    }
}
