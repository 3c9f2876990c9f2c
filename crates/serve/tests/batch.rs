//! `raa-serve batch` end to end: the one command that writes program
//! files. Each `<stem>.isa` it writes must decode, pass the oracle and
//! hold exactly the bytes of a direct compile under the serving flags.

#![cfg(unix)]

use std::path::Path;
use std::process::Command;

use atomique::{AtomiqueConfig, OptLevel};
use raa_benchmarks::{qaoa_regular, qsim_random};
use raa_circuit::qasm;
use raa_isa::{check_legality, codec, replay_verify};

#[test]
fn batch_writes_verified_streams_identical_to_direct_compiles() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("raa-serve-batch");
    let out = dir.join("out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&out).unwrap();
    let inputs = [
        ("qaoa", qasm::to_qasm(&qaoa_regular(10, 3, 7))),
        ("qsim", qasm::to_qasm(&qsim_random(8, 0.5, 5, 3))),
    ];
    let mut files = Vec::new();
    for (stem, text) in &inputs {
        let path = dir.join(format!("{stem}.qasm"));
        std::fs::write(&path, text).unwrap();
        files.push(path);
    }

    let run = Command::new(env!("CARGO_BIN_EXE_raa-serve"))
        .args(["batch", "--opt", "2", "--out"])
        .arg(&out)
        .args(&files)
        .output()
        .expect("spawn raa-serve batch");
    assert!(
        run.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let cfg = AtomiqueConfig {
        opt_level: OptLevel::Aggressive,
        emit_isa: true,
        verify_isa: true,
        trace: true,
        ..AtomiqueConfig::default()
    };
    for (stem, text) in &inputs {
        let bytes = std::fs::read(out.join(format!("{stem}.isa"))).unwrap();
        let program = codec::from_bytes(&bytes).unwrap_or_else(|e| panic!("{stem}: {e}"));
        check_legality(&program).unwrap_or_else(|e| panic!("{stem}: illegal: {e}"));
        replay_verify(&program).unwrap_or_else(|e| panic!("{stem}: unfaithful: {e}"));

        // The batch compiled what it parsed from the file, so parse the
        // same text for the direct compile.
        let circuit = qasm::from_qasm(text).unwrap();
        let direct = atomique::compile(&circuit, &cfg).unwrap();
        let expected = codec::to_bytes(direct.isa.as_ref().expect("isa attached"));
        assert!(
            bytes == expected,
            "{stem}: batch bytes differ from a direct compile"
        );
    }

    let bad = Command::new(env!("CARGO_BIN_EXE_raa-serve"))
        .args(["batch", "--opt", "7", "--out"])
        .arg(&out)
        .args(&files)
        .output()
        .expect("spawn raa-serve batch");
    assert!(!bad.status.success(), "--opt 7 must fail");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("bad --opt 7"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two inputs that map to one output file are refused before anything
/// compiles: the command names both, exits non-zero and writes nothing.
#[test]
fn batch_refuses_inputs_that_would_write_one_file() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("raa-serve-batch-collision");
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("out");
    for sub in ["a", "b", "d", "out"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
    }
    let text = qasm::to_qasm(&qaoa_regular(6, 3, 1));
    for file in ["a/x.qasm", "b/x.qasm", "d/x.qasm", "d/x.txt"] {
        std::fs::write(dir.join(file), &text).unwrap();
    }

    // Same stem under `--out`, and the same stem next to the inputs.
    for (out_args, first, second) in [
        (vec!["--out".into(), out.clone()], "a/x.qasm", "b/x.qasm"),
        (vec![], "d/x.qasm", "d/x.txt"),
    ] {
        let (first, second) = (dir.join(first), dir.join(second));
        let run = Command::new(env!("CARGO_BIN_EXE_raa-serve"))
            .arg("batch")
            .args(&out_args)
            .args([&first, &second])
            .output()
            .expect("spawn raa-serve batch");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "a shared output must fail: {stderr}");
        for input in [&first, &second] {
            assert!(
                stderr.contains(&*input.to_string_lossy()),
                "{stderr} does not name {}",
                input.display()
            );
        }
    }
    assert!(
        std::fs::read_dir(&out).unwrap().next().is_none(),
        "wrote to --out"
    );
    assert!(!dir.join("d/x.isa").exists(), "wrote next to the inputs");

    std::fs::remove_dir_all(&dir).unwrap();
}
