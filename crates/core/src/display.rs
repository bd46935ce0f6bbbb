//! Rendering schedules in the paper's two-dimensional figure layout.
//!
//! Figure 1 of the paper draws each schedule as a grid with one row per
//! transaction and time flowing left to right; a transaction's steps appear
//! in its row at the column corresponding to their position in the schedule.
//! [`grid`] reproduces that layout as plain text, which the example binaries
//! and the Figure 1 harness print.

use crate::Schedule;
use std::fmt::Write as _;

/// Renders `schedule` as the paper's grid layout.
///
/// ```
/// use mvcc_core::Schedule;
/// let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
/// let grid = mvcc_core::display::grid(&s);
/// assert!(grid.lines().count() >= 2);
/// assert!(grid.contains("T1:"));
/// ```
pub fn grid(schedule: &Schedule) -> String {
    let txs = schedule.tx_ids();
    if txs.is_empty() {
        return String::from("(empty schedule)\n");
    }
    // Column width: widest rendered step plus one space.
    let rendered: Vec<String> = schedule
        .steps()
        .iter()
        .map(|s| format!("{}({})", s.action, s.entity))
        .collect();
    let col_width = rendered.iter().map(|r| r.len()).max().unwrap_or(4) + 1;

    let label_width = txs.iter().map(|t| format!("{t}").len()).max().unwrap_or(2) + 1;

    let mut out = String::new();
    for &tx in &txs {
        let mut line = format!("{:<width$}", format!("{tx}:"), width = label_width + 1);
        for (pos, step) in schedule.steps().iter().enumerate() {
            if step.tx == tx {
                let _ = write!(line, "{:<width$}", rendered[pos], width = col_width);
            } else {
                let _ = write!(line, "{:<width$}", "", width = col_width);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;

    #[test]
    fn grid_has_one_row_per_transaction() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        let g = grid(&s);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("T1:"));
        assert!(lines[1].starts_with("T2:"));
    }

    #[test]
    fn grid_columns_align_with_schedule_positions() {
        let s = Schedule::parse("Ra(x) Wb(y)").unwrap();
        let g = grid(&s);
        let lines: Vec<&str> = g.lines().collect();
        // T1's step is in the first column, T2's in the second: T2's row
        // must therefore have more leading blank space before its step.
        let t1_col = lines[0].find("R(x)").unwrap();
        let t2_col = lines[1].find("W(y)").unwrap();
        assert!(t2_col > t1_col);
    }

    #[test]
    fn empty_schedule_grid() {
        assert_eq!(grid(&Schedule::empty()), "(empty schedule)\n");
    }
}
