//! Formatting of the efficiency experiments' measurements.
//!
//! The paper reports per-method running time (Table V), per-method memory
//! usage (Table VI) and per-module running time (Figure 5). The measurements
//! themselves come from the methods (`MultiEm::run` keeps its own phase
//! breakdown); this module renders them the way the paper's tables do.

use std::time::Duration;

/// Format a duration the way the paper's tables do (`6.1s`, `4.2m`, `1.3h`),
/// with a millisecond form for the sub-second runtimes that small-scale
/// harness runs produce.
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1000.0)
    } else if secs < 60.0 {
        format!("{secs:.1}s")
    } else if secs < 3600.0 {
        format!("{:.1}m", secs / 60.0)
    } else {
        format!("{:.1}h", secs / 3600.0)
    }
}

/// Format a byte count the way the paper's tables do: `17.5G`, `43.9M`, `512K`.
pub fn format_bytes(bytes: usize) -> String {
    const K: f64 = 1024.0;
    let b = bytes as f64;
    if b >= K * K * K {
        format!("{:.1}G", b / (K * K * K))
    } else if b >= K * K {
        format!("{:.1}M", b / (K * K))
    } else if b >= K {
        format!("{:.1}K", b / K)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(format_duration(Duration::from_millis(47)), "47ms");
        assert_eq!(format_duration(Duration::from_secs_f64(6.13)), "6.1s");
        assert_eq!(format_duration(Duration::from_secs(252)), "4.2m");
        assert_eq!(format_duration(Duration::from_secs(4680)), "1.3h");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2048), "2.0K");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0M");
        assert_eq!(format_bytes(175 * 1024 * 1024 * 1024 / 10), "17.5G");
    }
}
