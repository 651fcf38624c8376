//! `sim --help` (or `-h`) prints the flag list of the module docs and
//! exits 0; an unknown flag or a malformed number is still a usage
//! error.

use std::process::Command;

#[test]
fn help_prints_the_flag_list() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sim"))
            .arg(flag)
            .output()
            .expect("sim runs");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = String::from_utf8(out.stdout).expect("utf-8 help");
        // Every flag `sim` accepts.
        for listed in [
            "--bench <name>",
            "--ports <n>",
            "--predictor <kind>",
            "--load-buffer <n>",
            "--in-order [search]",
            "--segmented <alloc>",
            "--lq <n> --sq <n>",
            "--scaled",
            "--instrs <n>",
            "--warmup <n>",
            "--seed <n>",
            "--csv",
            "--help`, `-h",
        ] {
            assert!(text.contains(listed), "{flag}: {listed} missing");
        }
        assert!(out.stderr.is_empty(), "{flag}: help is not an error");
    }

    for (args, error) in [
        (&["--nonesuch"][..], "unknown flag --nonesuch"),
        (
            &["--bench", "gzip", "--ports", "two"][..],
            "--ports wants a number",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sim"))
            .args(args)
            .output()
            .expect("sim runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(error), "{args:?}: {err}");
    }
}
