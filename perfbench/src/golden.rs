//! Read-only comparison of rendered tables with `results/golden`.

use tcor_runner::{GoldenStatus, GoldenStore};
use tcor_sim::Table;

/// Directory of the committed golden tables, relative to the checkout.
pub const GOLDEN_DIR: &str = "results/golden";

/// `None` when `table` matches its golden CSV (and the golden its
/// manifest hash), else why not. Never writes.
pub fn mismatch(table: &Table) -> Option<String> {
    match GoldenStore::new(GOLDEN_DIR).check(&table.id, &table.to_csv()) {
        GoldenStatus::Match => None,
        GoldenStatus::Mismatch { diffs, total } => Some(format!(
            "{}: {total} line(s) differ from the golden, first {:?}",
            table.id,
            diffs.first()
        )),
        other => Some(format!("{}: golden is {other:?}", table.id)),
    }
}

/// Mean absolute gap, in percentage points, between the `measured` and
/// `paper` columns over the percentage rows of the headline table.
pub fn model_err_pp(headline: &Table) -> f64 {
    let pct = |s: &str| s.strip_suffix('%').and_then(|v| v.parse::<f64>().ok());
    let gaps: Vec<f64> = headline
        .rows
        .iter()
        .filter_map(|row| Some((pct(row.get(1)?)? - pct(row.get(2)?)?).abs()))
        .collect();
    crate::report::ratio(gaps.iter().sum(), gaps.len() as f64)
}
