//! The durable results journal: append-only, checksummed, schema-versioned
//! JSONL.
//!
//! Layout: one header line carrying the plan fingerprint and cell count,
//! then one line per *terminal* cell outcome (ok / failed / timed_out /
//! poisoned — in-process retries are not journaled). The wire discipline —
//! sealed `"crc"` lines, torn-write tolerance, schema-version skipping,
//! rows as [`Json`] values through the workspace's one codec — lives in
//! the shared [`crate::journal`] module, which the online service's
//! submission journal uses too. This module owns only the sweep schema:
//! what a cell row says and how a replay folds rows into resume state.
//!
//! The codec writes floats with Rust's shortest-round-trip `Display` and
//! parses them back exactly, which makes a replayed row's metrics
//! bit-identical to the run that produced them — the property the
//! kill-and-resume test pins.

use crate::journal::{replay_lines, seal_line, LineWriter};
use crate::runner::OutcomeMetrics;
use fairsched_obs::json::Json;
use fairsched_workload::categories::WIDTH_BUCKETS;
use std::path::Path;

/// The journal schema version this build writes.
pub const SCHEMA_VERSION: u64 = 1;

/// How a cell's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Simulation completed; metrics are present.
    Ok,
    /// The simulator rejected the cell with a typed error (deterministic —
    /// never retried).
    Failed,
    /// The watchdog cancelled the cell and every retry.
    TimedOut,
    /// The cell panicked; quarantined with its payload, never retried.
    Poisoned,
}

impl CellStatus {
    /// The status keyword as journaled (`ok`, `failed`, `timed_out`,
    /// `poisoned`).
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::TimedOut => "timed_out",
            CellStatus::Poisoned => "poisoned",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => CellStatus::Ok,
            "failed" => CellStatus::Failed,
            "timed_out" => CellStatus::TimedOut,
            "poisoned" => CellStatus::Poisoned,
            _ => return None,
        })
    }
}

/// One journaled cell outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Dense cell index within the plan.
    pub cell: u64,
    /// Policy identifier (redundant with the index; kept for grep-ability).
    pub policy: String,
    /// Workload generator seed of the cell's trace.
    pub workload_seed: u64,
    /// Fault point label.
    pub fault: String,
    /// The derived per-cell fault sub-seed actually injected.
    pub fault_seed: u64,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Error / panic message for non-ok rows; empty for ok.
    pub detail: String,
    /// The scalar summary, present exactly when `status` is `Ok`.
    pub metrics: Option<OutcomeMetrics>,
}

fn header_row(fingerprint: u64, cells: u64) -> Json {
    Json::obj([
        ("v", Json::UInt(SCHEMA_VERSION)),
        ("kind", Json::Str("header".into())),
        ("fingerprint", Json::UInt(fingerprint)),
        ("cells", Json::UInt(cells)),
    ])
}

fn floats(vals: &[f64]) -> Json {
    Json::Arr(vals.iter().map(|&v| Json::Float(v)).collect())
}

fn float_array<const N: usize>(row: &Json, key: &str) -> Option<[f64; N]> {
    let items = row.get(key)?.as_arr()?;
    let floats: Option<Vec<f64>> = items.iter().map(Json::as_f64).collect();
    floats?.try_into().ok()
}

impl CellRow {
    fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let mut pairs = vec![
            ("v", Json::UInt(SCHEMA_VERSION)),
            ("kind", text("cell")),
            ("cell", Json::UInt(self.cell)),
            ("policy", text(&self.policy)),
            ("workload_seed", Json::UInt(self.workload_seed)),
            ("fault", text(&self.fault)),
            ("fault_seed", Json::UInt(self.fault_seed)),
            ("status", text(self.status.as_str())),
            ("attempts", Json::UInt(self.attempts.into())),
            ("detail", text(&self.detail)),
        ];
        if let Some(m) = &self.metrics {
            pairs.extend([
                ("percent_unfair", Json::Float(m.percent_unfair)),
                ("average_miss_time", Json::Float(m.average_miss_time)),
                ("average_turnaround", Json::Float(m.average_turnaround)),
                ("loss_of_capacity", Json::Float(m.loss_of_capacity)),
                ("utilization", Json::Float(m.utilization)),
                ("miss_by_width", floats(&m.miss_by_width)),
                ("turnaround_by_width", floats(&m.turnaround_by_width)),
            ]);
        }
        Json::obj(pairs)
    }

    /// The sealed JSONL line (newline included).
    pub fn to_jsonl(&self) -> String {
        seal_line(&self.to_json())
    }

    /// Reads a *verified* row (checksum already checked by the caller).
    fn from_json(row: &Json) -> Option<CellRow> {
        let u64_at = |key: &str| row.get(key).and_then(Json::as_u64);
        let f64_at = |key: &str| row.get(key).and_then(Json::as_f64);
        let str_at = |key: &str| row.get(key).and_then(Json::as_str).map(str::to_string);
        let status = CellStatus::parse(row.get("status")?.as_str()?)?;
        let metrics = if status == CellStatus::Ok {
            Some(OutcomeMetrics {
                percent_unfair: f64_at("percent_unfair")?,
                average_miss_time: f64_at("average_miss_time")?,
                average_turnaround: f64_at("average_turnaround")?,
                loss_of_capacity: f64_at("loss_of_capacity")?,
                utilization: f64_at("utilization")?,
                miss_by_width: float_array::<WIDTH_BUCKETS>(row, "miss_by_width")?,
                turnaround_by_width: float_array::<WIDTH_BUCKETS>(row, "turnaround_by_width")?,
            })
        } else {
            None
        };
        Some(CellRow {
            cell: u64_at("cell")?,
            policy: str_at("policy")?,
            workload_seed: u64_at("workload_seed")?,
            fault: str_at("fault")?,
            fault_seed: u64_at("fault_seed")?,
            status,
            attempts: u32::try_from(u64_at("attempts")?).ok()?,
            detail: str_at("detail")?,
            metrics,
        })
    }
}

/// Streams sealed rows into the journal. Every row is flushed to the
/// kernel as it is written (a process kill loses nothing), and the file is
/// fsynced every `batch` rows plus on [`JournalWriter::sync`]/drop (a
/// power cut loses at most one batch).
pub struct JournalWriter {
    out: LineWriter,
    pending: usize,
    batch: usize,
}

/// Rows per fsync batch: small enough that a crash re-runs at most a
/// handful of cells, large enough not to serialize the sweep on disk
/// flushes.
const SYNC_BATCH: usize = 8;

impl JournalWriter {
    /// Creates (truncates) `path` and writes the header line.
    pub fn create(path: &Path, fingerprint: u64, cells: u64) -> std::io::Result<Self> {
        let mut w = JournalWriter {
            out: LineWriter::create(path)?,
            pending: 0,
            batch: SYNC_BATCH,
        };
        w.write_line(&header_row(fingerprint, cells))?;
        w.sync()?;
        Ok(w)
    }

    /// Opens `path` for appending (resume: the header is already there).
    pub fn append(path: &Path) -> std::io::Result<Self> {
        Ok(JournalWriter {
            out: LineWriter::append(path)?,
            pending: 0,
            batch: SYNC_BATCH,
        })
    }

    fn write_line(&mut self, row: &Json) -> std::io::Result<()> {
        self.out.write_sealed(row)?;
        // Hand the row to the kernel right away: a SIGKILLed process then
        // loses nothing — only the fsync (power-cut durability) is
        // batched, because it is the expensive half.
        self.out.flush()?;
        self.pending += 1;
        if self.pending >= self.batch {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one sealed row.
    pub fn write_row(&mut self, row: &CellRow) -> std::io::Result<()> {
        self.write_line(&row.to_json())
    }

    /// Flushes buffered rows and fsyncs the file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.out.sync()?;
        self.pending = 0;
        Ok(())
    }
}

/// What a journal replay recovered.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// The header's plan fingerprint, when a valid header was found.
    pub fingerprint: Option<u64>,
    /// The header's declared cell count.
    pub cells: Option<u64>,
    /// Valid rows in file order. Duplicates (a cell journaled twice across
    /// a kill boundary) are kept; [`JournalReplay::latest_rows`] dedupes.
    pub rows: Vec<CellRow>,
    /// Malformed lines skipped (torn writes, checksum mismatches, unknown
    /// schema versions).
    pub skipped: usize,
}

impl JournalReplay {
    /// The set of cell indices with a journaled terminal outcome — what
    /// `--resume` skips.
    pub fn done_cells(&self) -> std::collections::HashSet<u64> {
        self.rows.iter().map(|r| r.cell).collect()
    }

    /// One row per cell (first write wins — a cell is only ever journaled
    /// again if a torn write hid the first row, in which case the rerun's
    /// row is the only *valid* one), sorted by cell index.
    pub fn latest_rows(&self) -> Vec<CellRow> {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<CellRow> = self
            .rows
            .iter()
            .filter(|r| seen.insert(r.cell))
            .cloned()
            .collect();
        out.sort_by_key(|r| r.cell);
        out
    }
}

/// Replays a journal, skipping (with a warning, never a panic) every line
/// that fails framing, checksum, or schema-version checks. A missing file
/// replays as empty.
pub fn replay(path: &Path) -> std::io::Result<JournalReplay> {
    let mut replay = JournalReplay::default();
    let skipped = replay_lines(
        path,
        SCHEMA_VERSION,
        "the affected cell will re-run",
        |row| match row.get("kind").and_then(Json::as_str) {
            Some("header") => {
                replay.fingerprint = row.get("fingerprint").and_then(Json::as_u64);
                replay.cells = row.get("cells").and_then(Json::as_u64);
                Ok(())
            }
            Some("cell") => match CellRow::from_json(row) {
                Some(row) => {
                    replay.rows.push(row);
                    Ok(())
                }
                None => Err("malformed cell row".into()),
            },
            _ => Err("unknown record kind".into()),
        },
    )?;
    replay.skipped = skipped;
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{fnv1a, unseal_line};
    use fairsched_obs::json;

    fn row(cell: u64, status: CellStatus) -> CellRow {
        CellRow {
            cell,
            policy: "cplant24.nomax.all".into(),
            workload_seed: 42,
            fault: "clean".into(),
            fault_seed: 7,
            status,
            attempts: 1,
            detail: if status == CellStatus::Ok {
                String::new()
            } else {
                "it \"broke\"\nbadly".into()
            },
            metrics: (status == CellStatus::Ok).then_some(OutcomeMetrics {
                percent_unfair: 0.25,
                average_miss_time: 123.456789,
                average_turnaround: 1.0e6 + 0.125,
                loss_of_capacity: 0.015625,
                utilization: 0.87,
                miss_by_width: [0.0, 1.5, 2.25, 0.1, 7.0, 0.5, 0.0, 3.75, 9.0, 0.25, 1.0],
                turnaround_by_width: [
                    10.0, 20.0, 30.5, 40.0, 50.0, 60.0, 70.5, 80.0, 90.0, 100.0, 110.0,
                ],
            }),
        }
    }

    fn write_journal(path: &Path, rows: &[CellRow]) {
        let mut w = JournalWriter::create(path, 99, rows.len() as u64).unwrap();
        for r in rows {
            w.write_row(r).unwrap();
        }
        w.sync().unwrap();
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fairsched-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let path = tmp("roundtrip.jsonl");
        let rows = vec![row(0, CellStatus::Ok), row(1, CellStatus::Poisoned)];
        write_journal(&path, &rows);
        let replay = replay(&path).unwrap();
        assert_eq!(replay.fingerprint, Some(99));
        assert_eq!(replay.cells, Some(2));
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.rows, rows);
    }

    #[test]
    fn truncated_final_line_is_skipped_with_a_warning() {
        let path = tmp("truncated.jsonl");
        write_journal(&path, &[row(0, CellStatus::Ok), row(1, CellStatus::Ok)]);
        // Tear the last line mid-write, as a SIGKILL would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 25];
        std::fs::write(&path, torn).unwrap();
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.skipped, 1);
        assert_eq!(replay.done_cells().len(), 1);
        assert!(warnings
            .iter()
            .any(|(_, m)| m.contains("torn") && m.contains("re-run")));
    }

    #[test]
    fn corrupted_checksum_is_skipped_with_a_warning() {
        let path = tmp("corrupt.jsonl");
        write_journal(&path, &[row(0, CellStatus::Ok), row(1, CellStatus::Ok)]);
        // Flip a metric digit in row 0's line; its crc no longer matches.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("0.25", "0.35", 1);
        assert_ne!(text, corrupted, "corruption must hit");
        std::fs::write(&path, corrupted).unwrap();
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.rows[0].cell, 1);
        assert_eq!(replay.skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("checksum")));
    }

    #[test]
    fn unknown_schema_version_is_skipped_with_a_warning() {
        let path = tmp("version.jsonl");
        write_journal(&path, &[row(0, CellStatus::Ok)]);
        // Append a validly-sealed row from a "future" schema.
        let future = seal_line(&Json::obj([
            ("v", Json::UInt(999)),
            ("kind", Json::Str("cell".into())),
            ("cell", Json::UInt(5)),
        ]));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&future);
        std::fs::write(&path, text).unwrap();
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("schema version")));
        assert!(!replay.done_cells().contains(&5));
    }

    #[test]
    fn missing_file_replays_as_empty() {
        let replay = super::replay(&tmp("never-written.jsonl")).unwrap();
        assert!(replay.rows.is_empty());
        assert_eq!(replay.fingerprint, None);
    }

    #[test]
    fn latest_rows_dedupes_and_sorts() {
        let path = tmp("dedupe.jsonl");
        let mut first = row(3, CellStatus::Ok);
        first.attempts = 1;
        let mut dup = row(3, CellStatus::Ok);
        dup.attempts = 2;
        write_journal(&path, &[first.clone(), row(1, CellStatus::Failed), dup]);
        let replay = super::replay(&path).unwrap();
        let latest = replay.latest_rows();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].cell, 1);
        assert_eq!(latest[1].cell, 3);
        assert_eq!(latest[1].attempts, 1, "first write wins");
    }

    #[test]
    fn detail_strings_survive_escaping() {
        let r = row(0, CellStatus::Poisoned);
        let line = r.to_jsonl();
        let (body, crc) = unseal_line(line.trim_end()).unwrap();
        assert_eq!(fnv1a(body.as_bytes()), crc);
        let parsed = CellRow::from_json(&json::parse(line.trim_end()).unwrap()).unwrap();
        assert_eq!(parsed.detail, "it \"broke\"\nbadly");
        assert_eq!(parsed, r);
    }
}
