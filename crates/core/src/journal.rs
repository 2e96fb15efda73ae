//! Shared framing for durable, checksummed JSONL journals.
//!
//! Two subsystems persist append-only journals: the sweep harness (one
//! row per finished grid cell, `sweep::journal`) and the online service
//! (one row per accepted submission or clock grant,
//! `fairsched_served::journal`). Both need the same wire discipline, so
//! the machinery lives here once:
//!
//! * **Sealed lines.** Every line is a JSON object whose final field is
//!   `"crc"`, the FNV-1a checksum of everything before it. A torn
//!   final line (the process was SIGKILLed mid-write) or a corrupted line
//!   fails [`unseal_line`] or the checksum comparison and is *skipped* on
//!   replay — never trusted, never panicked over.
//! * **Schema versions.** Every body carries `"v":N`; a line from an
//!   unknown (newer) schema degrades to a skip with a warning, not a
//!   crash.
//! * **One codec.** Rows are [`Json`] values written and read through
//!   [`fairsched_obs::json`], the workspace's only JSON codec. Keys are
//!   rendered in sorted order and looked up by name, so lines written
//!   with any key order replay. Floats round-trip through Rust's
//!   shortest-representation `Display`, which keeps replayed rows
//!   bit-identical to the run that wrote them.
//!
//! [`LineWriter`] owns the file half: append-only writes of sealed
//! lines with explicit [`LineWriter::flush`] (kernel handoff — a SIGKILL
//! then loses nothing) and [`LineWriter::sync`] (fsync — a power cut
//! then loses nothing) so each consumer picks its own durability batch
//! size. [`replay_lines`] owns the read half: framing, checksum, and
//! version checks per line, with every skip warned and counted.

use fairsched_obs::json::{self, Json};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// FNV-1a (64-bit): the journal checksum and the sweep-plan fingerprint.
/// Not cryptographic — it guards against truncation and bit rot, not
/// tampering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Renders `row` as a sealed line: `line = body + ',"crc":N}' + '\n'`
/// where `body` is the rendered object without its closing `}` and
/// `N = fnv1a(body)`, so the checksum is always the last field whatever
/// the codec's key order. `row` must be a non-empty object (every row
/// carries `"v"`).
pub fn seal_line(row: &Json) -> String {
    let text = row.render();
    let body = text
        .strip_suffix('}')
        .filter(|b| b.len() > 1)
        .expect("journal rows are non-empty objects");
    format!("{body},\"crc\":{}}}\n", fnv1a(body.as_bytes()))
}

/// Splits a sealed line back into `(body, crc)`; `None` when the framing
/// is absent (torn write).
pub fn unseal_line(line: &str) -> Option<(&str, u64)> {
    let line = line.strip_suffix('}')?;
    let at = line.rfind(",\"crc\":")?;
    let crc: u64 = line[at + 7..].parse().ok()?;
    Some((&line[..at], crc))
}

/// The append side of a journal file: sealed lines into a buffered
/// writer, with flush (SIGKILL durability) and fsync (power-cut
/// durability) under the caller's control so each consumer chooses its
/// own batching policy.
pub struct LineWriter {
    out: BufWriter<File>,
}

impl LineWriter {
    /// Creates (truncating) `path`.
    pub fn create(path: &Path) -> std::io::Result<LineWriter> {
        Ok(LineWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens `path` for appending (resume / recovery: the header is
    /// already there).
    pub fn append(path: &Path) -> std::io::Result<LineWriter> {
        Ok(LineWriter {
            out: BufWriter::new(OpenOptions::new().append(true).open(path)?),
        })
    }

    /// Seals `row` and writes the line into the buffer (no flush).
    /// Returns the number of bytes written.
    pub fn write_sealed(&mut self, row: &Json) -> std::io::Result<u64> {
        let line = seal_line(row);
        self.out.write_all(line.as_bytes())?;
        Ok(line.len() as u64)
    }

    /// Hands buffered lines to the kernel: a SIGKILLed process then loses
    /// nothing already written.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }

    /// Flushes and fsyncs: a power cut then loses nothing already
    /// written.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }
}

impl Drop for LineWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// Replays `path` line by line, verifying framing and checksum, parsing
/// the line once, checking its schema version, and handing the *verified
/// row* (its `"crc"` field included) to `on_line`. Every failed line —
/// torn, corrupt, unparseable, unknown version, or rejected by `on_line`
/// with a reason — is skipped with a warning carrying `skip_consequence`
/// (e.g. `"the affected cell will re-run"`), never panicked over.
/// Returns the number of skipped lines. A missing file replays as empty.
pub fn replay_lines(
    path: &Path,
    version: u64,
    skip_consequence: &str,
    mut on_line: impl FnMut(&Json) -> Result<(), String>,
) -> std::io::Result<usize> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut text)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    }
    let mut skipped = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let why = match unseal_line(line) {
            None => "torn or unframed line".to_string(),
            Some((body, crc)) if fnv1a(body.as_bytes()) != crc => "checksum mismatch".to_string(),
            // A verified sealed line is the whole row object.
            Some(_) => match json::parse(line) {
                Err(e) => e.to_string(),
                Ok(row) if row.get("v").and_then(Json::as_u64) != Some(version) => {
                    "unknown schema version".to_string()
                }
                Ok(row) => match on_line(&row) {
                    Ok(()) => continue,
                    Err(why) => why,
                },
            },
        };
        fairsched_obs::log::warn(format!(
            "journal {}: skipping line {} ({why}); {skip_consequence}",
            path.display(),
            lineno + 1,
        ));
        skipped += 1;
    }
    Ok(skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fairsched-core-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn row(v: u64, n: u64) -> Json {
        Json::obj([("v", Json::UInt(v)), ("n", Json::UInt(n))])
    }

    #[test]
    fn sealed_lines_round_trip_and_verify() {
        let row = Json::obj([
            ("v", Json::UInt(1)),
            ("kind", Json::Str("x".into())),
            ("s", Json::Str("a\"b".into())),
        ]);
        let line = seal_line(&row);
        let (body, crc) = unseal_line(line.trim_end()).unwrap();
        assert_eq!(format!("{body}}}"), row.render());
        assert_eq!(crc, fnv1a(body.as_bytes()));
    }

    #[test]
    fn torn_corrupt_and_future_lines_are_skipped_with_warnings() {
        let path = tmp("mixed.jsonl");
        let mut w = LineWriter::create(&path).unwrap();
        w.write_sealed(&row(1, 1)).unwrap();
        w.write_sealed(&row(1, 2)).unwrap();
        w.write_sealed(&row(99, 3)).unwrap();
        w.sync().unwrap();
        drop(w);
        // Tear the tail and corrupt line 2.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"n\":2", "\"n\":5", 1) + "{\"n\":4,\"v\":1,\"crc";
        std::fs::write(&path, corrupted).unwrap();
        let mut seen = Vec::new();
        let mut skipped = 0;
        let warnings = fairsched_obs::log::capture(|| {
            skipped = replay_lines(&path, 1, "row ignored", |row| {
                seen.push(row.get("n").and_then(Json::as_u64).unwrap());
                Ok(())
            })
            .unwrap();
        });
        assert_eq!(seen, vec![1]);
        assert_eq!(skipped, 3);
        assert!(warnings.iter().any(|(_, m)| m.contains("checksum")));
        assert!(warnings.iter().any(|(_, m)| m.contains("schema version")));
        assert!(warnings.iter().any(|(_, m)| m.contains("torn")));
    }

    #[test]
    fn checksummed_lines_that_are_not_json_are_skipped() {
        let path = tmp("unparseable.jsonl");
        let body = "{\"v\":1,\"n\":oops";
        let line = format!("{body},\"crc\":{}}}\n", fnv1a(body.as_bytes()));
        std::fs::write(&path, line).unwrap();
        let mut skipped = 0;
        let warnings = fairsched_obs::log::capture(|| {
            skipped = replay_lines(&path, 1, "ignored", |_| panic!("no rows expected")).unwrap();
        });
        assert_eq!(skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("invalid json")));
    }

    #[test]
    fn missing_files_replay_as_empty() {
        let skipped = replay_lines(&tmp("never-written.jsonl"), 1, "ignored", |_| {
            panic!("no lines expected")
        })
        .unwrap();
        assert_eq!(skipped, 0);
    }

    #[test]
    fn consumer_rejections_count_as_skips() {
        let path = tmp("rejected.jsonl");
        let mut w = LineWriter::create(&path).unwrap();
        w.write_sealed(&row(1, 1)).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut skipped = 0;
        let warnings = fairsched_obs::log::capture(|| {
            skipped = replay_lines(&path, 1, "ignored", |_| Err("not my kind".into())).unwrap();
        });
        assert_eq!(skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("not my kind")));
    }
}
