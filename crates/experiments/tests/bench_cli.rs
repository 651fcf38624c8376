//! The `bench` binary labels its output with `--rev` when given one, so
//! a copy of the source without git history can still be told apart in
//! a before/after pair.

use std::process::Command;

#[test]
fn rev_flag_labels_the_output() {
    let out = std::env::temp_dir().join(format!("lsq-bench-rev-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--rev",
            "parent build",
            "--instrs",
            "200",
            "--warmup",
            "200",
        ])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("bench runs");
    assert!(status.success());
    let json = std::fs::read_to_string(&out).expect("bench wrote its output");
    let _ = std::fs::remove_file(&out);
    assert!(
        json.starts_with(r#"{"git_rev":"parent build","#),
        "{}",
        &json[..json.len().min(80)]
    );

    let missing = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("--rev")
        .output()
        .expect("bench runs");
    assert_eq!(missing.status.code(), Some(2));
}
