//! Sweep journals written before rows went through the JSON codec (keys
//! in writer order, strings escaped by hand) must still replay, value for
//! value, and re-encoding their rows must not change what they say.
//!
//! `fixtures/size_based.jsonl` is the `size_based_fairness` grid journal
//! shipped under `results/`; `fixtures/sweep_detail.jsonl` holds a
//! poisoned row whose detail needs escaping and an ok row of awkward
//! floats (`-0`, integral values, `2^60`, `1e21`, `1/3`).

use fairsched_core::sweep::journal::{replay, CellStatus, JournalReplay, JournalWriter};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Writes `journal`'s header and rows with today's writer and replays the
/// result.
fn reencode(journal: &JournalReplay, name: &str) -> JournalReplay {
    let dir =
        std::env::temp_dir().join(format!("fairsched-legacy-journals-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut w =
        JournalWriter::create(&path, journal.fingerprint.unwrap(), journal.cells.unwrap()).unwrap();
    for row in &journal.rows {
        w.write_row(row).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    replay(&path).unwrap()
}

#[test]
fn the_size_based_grid_journal_replays_unchanged() {
    let journal = replay(&fixture("size_based.jsonl")).unwrap();
    assert_eq!(journal.skipped, 0);
    assert_eq!(journal.fingerprint, Some(1_249_493_366_402_676_484));
    assert_eq!(journal.cells, Some(15));
    assert_eq!(journal.rows.len(), 15);
    let first = journal.rows[0].metrics.as_ref().unwrap();
    assert_eq!(
        first.percent_unfair.to_bits(),
        0.09474161378059837f64.to_bits()
    );

    let again = reencode(&journal, "size_based.jsonl");
    assert_eq!(again.skipped, 0);
    assert_eq!(again.fingerprint, journal.fingerprint);
    assert_eq!(again.rows, journal.rows);
}

#[test]
fn escaped_details_and_awkward_floats_replay_bit_exactly() {
    let journal = replay(&fixture("sweep_detail.jsonl")).unwrap();
    assert_eq!(journal.skipped, 0);
    assert_eq!(journal.rows.len(), 2);

    let poisoned = &journal.rows[0];
    assert_eq!(poisoned.status, CellStatus::Poisoned);
    assert_eq!(
        poisoned.detail,
        "panicked at \"engine\\ledger.rs\":42\nreservation \\\"slipped\\\"\ttwice"
    );
    assert!(poisoned.metrics.is_none());

    let ok = &journal.rows[1];
    assert_eq!(ok.attempts, 2);
    assert_eq!(ok.fault, "mtbf=16w");
    let m = ok.metrics.as_ref().unwrap();
    let bits = |v: f64| v.to_bits();
    assert_eq!(bits(m.average_miss_time), bits(-0.0));
    assert_eq!(bits(m.average_turnaround), bits(7.0));
    assert_eq!(bits(m.loss_of_capacity), bits(1.0e-7));
    assert_eq!(bits(m.utilization), bits(2.0f64.powi(60)));
    assert_eq!(bits(m.miss_by_width[10]), bits(1e21));
    assert_eq!(bits(m.turnaround_by_width[10]), bits(1.0 / 3.0));

    let again = reencode(&journal, "sweep_detail.jsonl");
    assert_eq!(again.skipped, 0);
    assert_eq!(again.rows, journal.rows);
    let m = again.rows[1].metrics.as_ref().unwrap();
    assert_eq!(bits(m.average_miss_time), bits(-0.0));
}
