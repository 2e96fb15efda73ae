//! Session journals written before rows went through the JSON codec
//! (keys in writer order) must still recover the same session.
//!
//! Both fixtures were written by `fairschedd --journal-dir`:
//! `manual.journal.jsonl` by `--manual --id-floor 100` (three submits, a
//! grant to 500, the seal), `realtime.journal.jsonl` by
//! `--speedup 2.5 --no-trace` (one submit, the seal).

use fairsched_served::journal::{replay, JournalEvent};
use fairsched_served::{ClockMode, Session, SubmitRequest};
use std::path::Path;

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn req(
    id: u32,
    user: u32,
    group: u32,
    submit: u64,
    nodes: u32,
    runtime: u64,
    estimate: u64,
) -> SubmitRequest {
    SubmitRequest {
        id,
        user,
        group,
        submit,
        nodes,
        runtime,
        estimate,
    }
}

#[test]
fn a_manual_session_journal_recovers_its_config_history_and_schedule() {
    let r = replay(&fixture("manual.journal.jsonl")).unwrap().unwrap();
    assert_eq!(r.skipped, 0);
    assert_eq!(r.name, "default");
    assert_eq!(r.config.policy, "easy.nomax");
    assert_eq!(r.config.nodes, 1024);
    assert_eq!(r.config.id_floor, 100);
    assert!(r.config.traced);
    assert_eq!(r.config.clock, ClockMode::Manual);
    assert_eq!(
        r.events,
        vec![
            JournalEvent::Submit(req(101, 7, 1, 0, 64, 3600, 7200)),
            JournalEvent::Submit(req(102, 8, 2, 10, 1024, 600, 900)),
            JournalEvent::Grant(500),
            JournalEvent::Submit(req(103, 7, 1, 500, 16, 120, 4_294_967_296)),
            JournalEvent::Seal,
        ]
    );

    // Replaying the history reproduces the schedule the writing daemon
    // sealed (its `POST /v1/seal` answered this fingerprint).
    let session = Session::new(r.config).unwrap();
    let mut sealed = None;
    for event in &r.events {
        match event {
            JournalEvent::Submit(req) => {
                session.submit(req).unwrap();
            }
            JournalEvent::Grant(to) => {
                session.advance_to(*to).unwrap();
            }
            JournalEvent::Seal => sealed = Some(session.seal().unwrap()),
        }
    }
    let sealed = sealed.unwrap();
    assert_eq!(sealed.records, 3);
    assert_eq!(sealed.makespan, 4320);
    assert_eq!(sealed.schedule_fnv, 712_769_092_253_785_907);
}

#[test]
fn a_realtime_untraced_header_recovers_its_speedup() {
    let r = replay(&fixture("realtime.journal.jsonl")).unwrap().unwrap();
    assert_eq!(r.skipped, 0);
    assert_eq!(r.config.clock, ClockMode::Realtime { speedup: 2.5 });
    assert!(!r.config.traced);
    assert_eq!(r.config.id_floor, 0);
    assert_eq!(
        r.events,
        vec![
            JournalEvent::Submit(req(1, 3, 1, 100_000, 8, 60, 60)),
            JournalEvent::Seal,
        ]
    );
}
