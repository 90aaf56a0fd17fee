//! `sno-lab run` must survive a closed stdout (`sno-lab run … | head -1`):
//! the report text ends quietly, the `--json` and `--trace` artifacts are
//! still written, and the exit code is 0.

use std::process::{Command, Stdio};

#[test]
fn run_writes_its_artifacts_when_stdout_is_closed() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed_stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("campaign.json");
    let trace = dir.join("trace.json");
    for f in [&json, &trace] {
        let _ = std::fs::remove_file(f);
    }
    // Close the read end before the child starts, so its very first
    // write to stdout fails with a broken pipe.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_sno-lab"))
        .args([
            "run",
            "--topologies",
            "hubs:3",
            "--sizes",
            "24",
            "--protocols",
            "stno/oracle-tree",
            "--daemons",
            "synchronous",
            "--seeds",
            "0:2",
            "--threads",
            "2",
            "--json",
        ])
        .arg(&json)
        .arg("--trace")
        .arg(&trace)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(json.exists(), "campaign JSON written");
    assert!(trace.exists(), "trace written");
}
