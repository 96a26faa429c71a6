//! Command-line checks for the `tables` binary: arguments it cannot run
//! with are usage errors (exit 2, message on stderr), not guest failures.

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["table4", "--samples", "0"],
            "--samples needs a positive number",
        ),
        (
            &["table4", "--samples", "many"],
            "--samples needs a positive number",
        ),
        (&["table9"], "unknown argument \"table9\""),
    ];
    for (args, message) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .output()
            .expect("tables binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
    }
}
