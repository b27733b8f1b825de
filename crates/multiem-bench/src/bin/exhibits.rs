//! Regenerates the paper's Section IV exhibits: Tables III–VII and the
//! panels of Figures 5 and 6.
//!
//! ```bash
//! cargo run --release -p multiem-bench --bin exhibits                   # all of them
//! cargo run --release -p multiem-bench --bin exhibits -- table4 fig6-m  # some of them
//! ```
//!
//! Names: `table3` … `table7`, `fig5`, `fig6` (all four panels), or one of
//! `fig6-gamma`, `fig6-seed`, `fig6-m`, `fig6-epsilon`. `MULTIEM_SCALE` and
//! `MULTIEM_DATASETS` pick the scale and presets (see the crate docs). Bad
//! input exits 2 naming the valid values; MultiEM (parallel) matching other
//! tuples than MultiEM exits 1 naming the dataset.

#![forbid(unsafe_code)]

use multiem_bench::{render, run_methods, Exhibit, HarnessConfig, MethodsPass, FIG6_FOOTER};
use std::io::Write;
use std::process::exit;

fn fail(code: i32, message: &str) -> ! {
    eprintln!("exhibits: {message}");
    exit(code)
}

/// Write through the one locked stdout; stop quietly once the reader has
/// gone (`exhibits | head`).
fn emit(out: &mut impl Write, text: &str) {
    if out
        .write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .is_err()
    {
        exit(0);
    }
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let var = |name| std::env::var(name).ok();
    let exhibits = Exhibit::parse(&names).unwrap_or_else(|e| fail(2, &e));
    let harness = HarnessConfig::parse(
        var("MULTIEM_SCALE").as_deref(),
        var("MULTIEM_DATASETS").as_deref(),
    )
    .unwrap_or_else(|e| fail(2, &e));

    let mut out = std::io::stdout().lock();
    let datasets = harness.datasets();
    emit(&mut out, &harness.announce(&datasets));
    let mut passes: Option<Vec<MethodsPass>> = None;
    for &exhibit in &exhibits {
        let passes: &[MethodsPass] = if exhibit.needs_methods() {
            passes.get_or_insert_with(|| {
                datasets
                    .iter()
                    .map(|data| run_methods(data, &harness))
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|e| fail(1, &e))
            })
        } else {
            &[]
        };
        emit(&mut out, &render(exhibit, &harness, &datasets, passes));
    }
    if exhibits.iter().any(|e| e.is_fig6()) {
        emit(&mut out, FIG6_FOOTER);
    }
}
