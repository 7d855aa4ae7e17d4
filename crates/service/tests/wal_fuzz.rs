//! Seeded fuzz of the two WAL-directory decoders, `read_log` (with its
//! torn-tail salvage) and `read_snapshot`: arbitrary bytes up to 4 KiB,
//! and a valid log and a valid snapshot with one to three bytes
//! overwritten, inserted or cut off.
//!
//! Every input must read as a value or a typed `Corrupt` error, never a
//! panic or an I/O error. Salvage must account for every byte of the
//! file (`good_bytes + truncated_bytes` is its length), keep no more
//! records than the valid log had, and `Wal::open` must leave the file
//! at exactly `good_bytes`.

use iris_service::api::{AllocEntry, RecoverySummary};
use iris_service::wal::{CutRecord, SNAPSHOT_FILE, WAL_FILE};
use iris_service::{read_log, read_snapshot, PersistedSnapshot, Wal, WalBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Records in the valid log the mutations start from.
const RECORDS: u64 = 6;
/// Inputs per decoder and input kind.
const CASES: usize = 1500;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("iris-wal-fuzz")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn recovery(cuts: Vec<usize>) -> RecoverySummary {
    RecoverySummary {
        cuts,
        within_tolerance: true,
        fully_recovered: true,
        shed_pairs: 0,
        detection_ms: 10.0,
        replan_ms: 5.0,
        reconfig_ms: 52.0,
        recovery_ms: 67.0,
    }
}

fn batch(epoch: u64) -> WalBatch {
    WalBatch {
        epoch,
        updates: (0..epoch as usize % 3 + 1)
            .map(|k| AllocEntry {
                a: k,
                b: k + 1 + epoch as usize % 4,
                circuits: (epoch * 7 + k as u64) as u32 % 40,
            })
            .collect(),
        cuts: if epoch.is_multiple_of(2) {
            vec![CutRecord {
                cuts: vec![epoch as usize],
                recovery: recovery(vec![epoch as usize]),
            }]
        } else {
            Vec::new()
        },
        writes_applied: epoch + 2,
        coalesced: epoch / 2,
    }
}

/// The bytes of a valid `RECORDS`-record log and a valid snapshot, as
/// `Wal` writes them, made in a directory of the caller's own.
fn valid_files(test: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = scratch_dir(&format!("{test}-valid"));
    let (mut wal, _) = Wal::open(&dir).expect("open");
    wal.compact(&PersistedSnapshot {
        epoch: 3,
        allocation: vec![AllocEntry {
            a: 0,
            b: 2,
            circuits: 9,
        }],
        active_cuts: vec![4, 11],
        quarantined: vec![1],
        writes_applied: 12,
        coalesced: 5,
        last_recovery: Some(recovery(vec![4, 11])),
    })
    .expect("compact");
    for epoch in 1..=RECORDS {
        wal.append(&batch(epoch)).expect("append");
    }
    drop(wal);
    let log = std::fs::read(dir.join(WAL_FILE)).expect("log");
    let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    (log, snapshot)
}

/// One input of `CASES`: arbitrary bytes for the first third, else
/// `valid` with one to three overwrite, truncate or insert edits.
fn input(rng: &mut StdRng, case: usize, valid: &[u8]) -> Vec<u8> {
    if case.is_multiple_of(3) {
        let len = rng.random_range(0..=4096usize);
        return (0..len).map(|_| rng.random_range(0u8..=255)).collect();
    }
    let mut out = valid.to_vec();
    for _ in 0..rng.random_range(1..=3usize) {
        let at = rng.random_range(0..=out.len());
        match rng.random_range(0..3u8) {
            0 if at < out.len() => out[at] = rng.random_range(0u8..=255),
            1 => out.truncate(at),
            _ => out.insert(at, rng.random_range(0u8..=255)),
        }
    }
    out
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("metadata").len()
}

#[test]
fn fuzzed_logs_salvage_or_fail_typed() {
    let (log, _) = valid_files("log");
    let dir = scratch_dir("log");
    let path = dir.join(WAL_FILE);
    let mut rng = StdRng::seed_from_u64(0x3a1);
    let mut salvaged = 0;
    for case in 0..CASES {
        let bytes = input(&mut rng, case, &log);
        std::fs::write(&path, &bytes).expect("write log");
        match read_log(&path) {
            Ok((batches, salvage)) => {
                assert_eq!(
                    salvage.good_bytes + salvage.truncated_bytes,
                    bytes.len() as u64,
                    "case {case}: salvage lost bytes"
                );
                assert_eq!(batches.len() as u64, salvage.records, "case {case}");
                assert!(salvage.records <= RECORDS, "case {case}: {salvage:?}");
                assert_eq!(
                    salvage.torn.is_some(),
                    salvage.truncated_bytes > 0,
                    "case {case}: {salvage:?}"
                );
                salvaged += usize::from(salvage.truncated_bytes > 0);
                let (wal, state) = Wal::open(&dir).expect("open after salvage");
                assert_eq!(state.salvage, salvage, "case {case}");
                assert_eq!(file_len(&path), salvage.good_bytes, "case {case}");
                drop(wal);
            }
            Err(e) => {
                assert_eq!(e.code(), "corrupt", "case {case}: {e}");
                assert_eq!(
                    Wal::open(&dir).unwrap_err().code(),
                    "corrupt",
                    "case {case}"
                );
            }
        }
    }
    assert!(
        salvaged > CASES / 2,
        "only {salvaged} inputs needed salvage"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzzed_snapshots_load_or_fail_typed() {
    let (_, snapshot) = valid_files("snapshot");
    let dir = scratch_dir("snapshot");
    let path = dir.join(SNAPSHOT_FILE);
    let mut rng = StdRng::seed_from_u64(0x5a4);
    let mut rejected = 0;
    for case in 0..CASES {
        let bytes = input(&mut rng, case, &snapshot);
        std::fs::write(&path, &bytes).expect("write snapshot");
        let read = read_snapshot(&path);
        match &read {
            Ok(loaded) => assert!(loaded.is_some(), "case {case}: file exists"),
            Err(e) => {
                assert_eq!(e.code(), "corrupt", "case {case}: {e}");
                rejected += 1;
            }
        }
        match Wal::open(&dir) {
            Ok((_, state)) => assert_eq!(Some(state.snapshot), read.ok(), "case {case}"),
            Err(e) => assert_eq!(e.code(), "corrupt", "case {case}: {e}"),
        }
    }
    assert!(rejected > CASES / 2, "only {rejected} inputs were rejected");
    let _ = std::fs::remove_dir_all(&dir);
}
