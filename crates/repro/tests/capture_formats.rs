//! End-to-end proof that the chunked `FGBDCAP2` capture path is a pure
//! re-encoding of the batch pipeline: streaming a run's records through
//! [`fgbd_trace::ChunkedWriter`] via the inline record tap and reading the
//! file back yields exactly the log the batch simulator materializes at
//! the same seed and config — same nodes, same records, and an empty
//! in-memory log on the tapped side (nothing was double-buffered). Also
//! checks that `analyze_capture` rejects a damaged `FGBDCAP2` file with
//! exit status 1 and the reader's error instead of a panic.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};

use fgbd_des::SimDuration;
use fgbd_ntier::config::{BurstConfig, Jdk, SystemConfig};
use fgbd_ntier::system::NTierSystem;
use fgbd_trace::{read_capture_file, ChunkedWriter};

fn smoke_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_1l2s1l2s(60, Jdk::Jdk16, false, seed);
    cfg.burst = BurstConfig::disabled();
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(9);
    cfg
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fgbd_{name}_{}.fgbdcap", std::process::id()))
}

#[test]
fn tapped_chunked_capture_equals_batch_log() {
    let seed = 0xC2_2013_0708;
    let batch = NTierSystem::run(smoke_cfg(seed));
    assert!(
        !batch.log.records.is_empty(),
        "the batch run must capture records"
    );

    let path = temp_path("tap_roundtrip");
    // A tiny chunk size forces many chunks (headers, footer index, and the
    // flush path all get exercised), not just one big one.
    let nodes = fgbd_ntier::node_metas(&smoke_cfg(seed));
    let file = File::create(&path).expect("create capture file");
    let writer = ChunkedWriter::with_chunk_records(BufWriter::new(file), &nodes, 512)
        .expect("start capture");
    let writer = Arc::new(Mutex::new(Some(writer)));
    let sink = Arc::clone(&writer);
    let tapped = NTierSystem::run_with_record_tap(smoke_cfg(seed), move |rec| {
        sink.lock()
            .expect("writer lock")
            .as_mut()
            .expect("writer live during the run")
            .push(rec)
            .expect("write record");
    });
    writer
        .lock()
        .expect("writer lock")
        .take()
        .expect("writer still present")
        .finish()
        .expect("seal capture");

    assert!(
        tapped.log.records.is_empty(),
        "the tapped run must not materialize a log"
    );
    // Everything except the capture transport is unchanged.
    assert_eq!(batch.txns, tapped.txns);
    assert_eq!(batch.cpu_busy, tapped.cpu_busy);

    let reread = read_capture_file(&path).expect("read chunked capture");
    std::fs::remove_file(&path).ok();
    assert_eq!(batch.log.nodes, reread.nodes);
    assert_eq!(batch.log.records, reread.records);
}

/// Runs the `analyze_capture` CLI on `path`, returning its exit code and
/// stderr.
fn analyze_capture_cli(path: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze_capture"))
        .arg(path)
        .arg("--quiet")
        .output()
        .expect("run analyze_capture");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_capture_reports_corrupt_captures_without_panicking() {
    let seed = 0xC0_2013_0708;
    let nodes = fgbd_ntier::node_metas(&smoke_cfg(seed));
    let log = NTierSystem::run(smoke_cfg(seed)).log;
    let mut bytes = Vec::new();
    let mut writer = ChunkedWriter::with_chunk_records(&mut bytes, &nodes, 512).expect("start");
    for &rec in &log.records {
        writer.push(rec).expect("push");
    }
    writer.finish().expect("seal");
    let intact = temp_path("corrupt_intact");
    std::fs::write(&intact, &bytes).expect("write capture");
    let (code, stderr) = analyze_capture_cli(&intact);
    std::fs::remove_file(&intact).ok();
    assert_eq!(code, Some(0), "intact capture: {stderr}");

    // One flipped payload byte fails that chunk's checksum. A third of the
    // way in lands inside a chunk payload: headers are 33 of several
    // thousand bytes per chunk.
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 3] ^= 0x40;
    let path = temp_path("corrupt_flipped");
    std::fs::write(&path, &flipped).expect("write capture");
    let (code, stderr) = analyze_capture_cli(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "flipped byte: {stderr}");
    assert!(
        stderr.contains("malformed capture chunk") && stderr.contains("checksum mismatch"),
        "flipped byte must be attributed to its chunk: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A truncated footer loses the index trailer.
    let path = temp_path("corrupt_truncated");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("write capture");
    let (code, stderr) = analyze_capture_cli(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "truncated footer: {stderr}");
    assert!(stderr.contains("malformed capture"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
