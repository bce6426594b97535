//! `run_all` names the path an I/O failure happened on, and exits 1.

use std::process::Command;

#[test]
fn an_unwritable_out_dir_is_named_in_the_error() {
    let file = std::env::temp_dir().join(format!("soi-run-all-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let out = file.join("sub");
    let run = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["table2", "--scale", "0.05", "--samples", "8", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    std::fs::remove_file(&file).unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&out.display().to_string()), "{stderr}");
}
