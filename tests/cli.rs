//! Black-box tests of the `snn-mtfc` binary: bad input must produce a
//! one-line `error: …` diagnostic and a nonzero exit code — never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snn-mtfc")).args(args).output().expect("binary runs")
}

/// Asserts a failing run: nonzero exit, a single `error:` line on stderr
/// containing `needle`, and no panic backtrace.
fn assert_clean_failure(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
    assert!(
        stderr.starts_with("error: "),
        "{args:?}: stderr should be a one-line diagnostic, got: {stderr}"
    );
    assert!(stderr.contains(needle), "{args:?}: expected {needle:?} in: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: multi-line: {stderr}");
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("snn-mtfc-cli-{}-{name}", std::process::id()))
}

#[test]
fn help_and_no_args_succeed() {
    assert!(run(&["--help"]).status.success());
    assert!(run(&[]).status.success());
}

/// `snn-mtfc … | head -1`: the reader is gone before the usage text is
/// written. That ends the output, quietly — it is not a panic.
#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_snn-mtfc"))
        .arg("--help")
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "a closed stdout should pass in silence, got: {stderr}");
    assert!(out.status.success(), "exit status {:?}", out.status);
}

#[test]
fn unknown_command_fails_cleanly() {
    assert_clean_failure(&["frobnicate"], "unknown command");
}

#[test]
fn missing_flags_fail_cleanly() {
    assert_clean_failure(&["new"], "missing --input");
    assert_clean_failure(&["new", "--input", "4"], "missing --arch");
    assert_clean_failure(&["info"], "missing model path");
    assert_clean_failure(&["generate"], "missing model path");
    assert_clean_failure(&["verify"], "missing model path");
    assert_clean_failure(&["serve"], "missing --state-dir");
    assert_clean_failure(&["submit"], "--model or --synthetic");
    assert_clean_failure(&["watch"], "missing job id");
    assert_clean_failure(&["cancel"], "missing job id");
}

/// A flag the subcommand does not take, or a value flag with nothing
/// after it, is refused before the subcommand runs — it used to be
/// ignored, or to leave its default in place.
#[test]
fn unknown_flags_and_flags_without_a_value_fail_cleanly() {
    assert_clean_failure(
        &["verify", "m.snn", "t.events", "--engin", "scalar"],
        "verify does not take --engin (try --help)",
    );
    assert_clean_failure(&["generate", "m.snn", "--sed", "3"], "generate does not take --sed");
    assert_clean_failure(&["generate", "m.snn", "--seed"], "--seed needs a value");
    assert_clean_failure(&["verify", "m.snn", "t.events", "--engine"], "--engine needs a value");
    // A reliability campaign scores accuracy, not detection: no engine runs it.
    assert_clean_failure(
        &["reliability", "--synthetic", "6x12x4", "--engine", "packed"],
        "reliability does not take --engine",
    );
    // A cluster runs reliability campaigns as jobs: `submit --reliability`.
    assert_clean_failure(
        &["reliability", "--synthetic", "6x12x4", "--workers", "2"],
        "reliability does not take --workers",
    );
    assert_clean_failure(
        &["reliability", "--synthetic", "6x12x4", "--chunk-size", "4"],
        "reliability does not take --chunk-size",
    );
}

/// Every flag the usage text lists under a subcommand is one that
/// subcommand takes: given with a value (or none, for a flag the text
/// shows as `[--flag]`) and then `--help`, it prints the usage.
#[test]
fn every_flag_the_usage_lists_is_accepted() {
    let usage = String::from_utf8(run(&["--help"]).stdout).unwrap();
    let mut command = "";
    let mut checked = 0;
    for line in usage.lines().take_while(|l| !l.starts_with("ARCH SPEC")) {
        let mut words = line.split_whitespace().peekable();
        if words.next_if_eq(&"snn-mtfc").is_some() {
            command = words.next().unwrap();
        }
        for word in words {
            let Some(at) = word.find("--") else { continue };
            let flag = word[at..].trim_end_matches(['|', ')', ']']);
            let args = if word.ends_with(']') {
                vec![command, flag, "--help"]
            } else {
                vec![command, flag, "value", "--help"]
            };
            let out = run(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?} was refused: {stderr}");
            checked += 1;
        }
    }
    assert!(checked > 50, "only {checked} flags found in the usage text");
}

#[test]
fn malformed_values_fail_cleanly() {
    assert_clean_failure(
        &["new", "--input", "banana", "--arch", "dense:4", "--out", "/dev/null"],
        "bad --input",
    );
    assert_clean_failure(
        &["new", "--input", "4", "--arch", "warp:9", "--out", "/dev/null"],
        "unknown stage kind",
    );
    assert_clean_failure(&["watch", "not-a-number"], "bad job id");
    assert_clean_failure(&["cancel", "-1", "--addr", "127.0.0.1:1"], "bad job id");
}

#[test]
fn missing_and_malformed_files_fail_cleanly() {
    assert_clean_failure(&["info", "/nonexistent/model.snn"], "cannot open");

    // A file that exists but is not a model.
    let bogus = scratch("bogus.snn");
    std::fs::write(&bogus, b"this is not a model file").unwrap();
    assert_clean_failure(&["info", bogus.to_str().unwrap()], "cannot load");
    let _ = std::fs::remove_file(&bogus);
}

/// Model files a loader must not trust: `info` and `generate` reject both
/// with one `error:` line instead of panicking deep inside a kernel.
#[test]
fn model_files_that_would_break_the_kernels_fail_cleanly() {
    // Input 1×3×3, one conv layer with a 7×7 kernel, stride 1, no padding:
    // no output pixel exists (the extent used to wrap around).
    let mut bytes = b"SNNMTFC1".to_vec();
    for v in [3u32, 1, 3, 3, 1] {
        bytes.extend(v.to_le_bytes()); // rank, dims, layer count
    }
    bytes.push(1); // conv
    for v in [1u32, 1, 7, 1, 0, 3, 3] {
        bytes.extend(v.to_le_bytes()); // in_c, out_c, k, stride, padding, h, w
    }
    bytes.extend(1.0f32.to_le_bytes()); // threshold
    bytes.extend(0.9f32.to_le_bytes()); // leak
    bytes.extend(0u32.to_le_bytes()); // refractory steps
    bytes.extend(49u32.to_le_bytes());
    bytes.extend(std::iter::repeat_n(0.5f32.to_le_bytes(), 49).flatten());
    let oversized = scratch("oversized-kernel.snn");
    std::fs::write(&oversized, &bytes).unwrap();

    // A well-formed model whose last weight is NaN.
    let poisoned = scratch("nan-weight.snn");
    let out =
        run(&["new", "--input", "4", "--arch", "dense:3", "--out", poisoned.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = std::fs::read(&poisoned).unwrap();
    let last = bytes.len() - 4;
    bytes[last..].copy_from_slice(&f32::NAN.to_le_bytes());
    std::fs::write(&poisoned, &bytes).unwrap();

    let events = scratch("never-written.events");
    for (model, needle) in [(&oversized, "conv kernel 7 exceeds"), (&poisoned, "non-finite weight")]
    {
        let model = model.to_str().unwrap();
        assert_clean_failure(&["info", model], needle);
        assert_clean_failure(
            &["generate", model, "--preset", "fast", "--out", events.to_str().unwrap()],
            needle,
        );
    }
    for p in [&oversized, &poisoned, &events] {
        let _ = std::fs::remove_file(p);
    }
}

/// A stage with nothing to compute, or an input of no features: `new`
/// refuses to write such a model, and `generate` refuses to load one
/// (it used to panic in the losses or the conv kernel).
#[test]
fn zero_width_layers_and_inputs_fail_cleanly() {
    let model = scratch("zero-width.snn");
    let path = model.to_str().unwrap();
    for (input, arch, needle) in [
        ("4", "dense:0,dense:2", "layer 0 (dense) has no outputs"),
        ("4", "dense:3,dense:0", "layer 1 (dense) has no outputs"),
        ("4", "recurrent:0,dense:2", "layer 0 (recurrent) has no outputs"),
        ("1x4x4", "conv:0:3:1:1,dense:2", "layer 0 (conv) has no outputs"),
        ("0", "dense:3,dense:2", "has no features"),
        ("0x4x4", "pool:2,dense:2", "has no features"),
    ] {
        assert_clean_failure(&["new", "--input", input, "--arch", arch, "--out", path], needle);
        assert!(!model.exists(), "{arch}: a rejected model was written");
    }

    // Input 4, one dense layer of no neurons, then dense 0 → 2.
    let mut bytes = b"SNNMTFC1".to_vec();
    for v in [1u32, 4, 2] {
        bytes.extend(v.to_le_bytes()); // rank, dim, layer count
    }
    for (geometry, len) in [([0u32, 4], 0u32), ([2, 0], 0)] {
        bytes.push(0); // dense
        geometry.iter().for_each(|v| bytes.extend(v.to_le_bytes())); // out, in
        bytes.extend(1.0f32.to_le_bytes()); // threshold
        bytes.extend(0.9f32.to_le_bytes()); // leak
        bytes.extend(0u32.to_le_bytes()); // refractory steps
        bytes.extend(len.to_le_bytes());
    }
    std::fs::write(&model, &bytes).unwrap();
    let events = scratch("zero-width.events");
    assert_clean_failure(
        &["generate", path, "--preset", "fast", "--out", events.to_str().unwrap()],
        "layer 0 (dense) has no outputs",
    );
    for p in [&model, &events] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn garbage_events_fail_cleanly() {
    // A real (tiny) model plus an unparseable events file.
    let model = scratch("model.snn");
    let out = run(&[
        "new",
        "--input",
        "4",
        "--arch",
        "dense:6,dense:2",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let events = scratch("garbage.events");
    std::fs::write(&events, "not events at all\n???\n").unwrap();
    let out = run(&["verify", model.to_str().unwrap(), events.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.starts_with("error: "), "got: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&events);
}

/// Counts an untrusted file states about itself: an event header whose
/// numbers overflow (one used to be dropped, the next read in its place)
/// or whose volume does (`capacity overflow`, exit 101), and a model
/// whose 61 bytes claim a 65535×65535 layer (the loader reserved the
/// claimed 17 GB, exit 134).
#[test]
fn headers_that_claim_too_much_fail_cleanly() {
    let model = scratch("header-model.snn");
    let out = run(&[
        "new",
        "--input",
        "4",
        "--arch",
        "dense:6,dense:2",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let events = scratch("header.events");
    for (header, needle) in [
        ("99999999999999999999999 ticks x 4 features, 2 chunks", "tick count"),
        ("4000000000 ticks x 4000000000 features, 1 chunks", "value limit"),
    ] {
        std::fs::write(&events, format!("# snn-mtfc test: {header}\n0 0\n")).unwrap();
        assert_clean_failure(
            &["verify", model.to_str().unwrap(), events.to_str().unwrap()],
            needle,
        );
    }

    let mut bytes = b"SNNMTFC1".to_vec();
    for v in [1u32, 65_535, 1] {
        bytes.extend(v.to_le_bytes()); // rank, dim, one layer
    }
    bytes.push(0); // dense
    for v in [65_535u32, 65_535] {
        bytes.extend(v.to_le_bytes()); // out, in
    }
    bytes.extend(1.0f32.to_le_bytes()); // threshold
    bytes.extend(0.9f32.to_le_bytes()); // leak
    bytes.extend(0u32.to_le_bytes()); // refractory steps
    bytes.extend((65_535u32 * 65_535).to_le_bytes());
    bytes.extend(std::iter::repeat_n(0.5f32.to_le_bytes(), 4).flatten());
    let huge = scratch("huge-layer.snn");
    std::fs::write(&huge, &bytes).unwrap();
    assert_clean_failure(&["analyze", huge.to_str().unwrap()], "weight blob ends after 4");
    for p in [&model, &events, &huge] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn analyze_reports_on_a_sparse_model() {
    let model = scratch("analyze.snn");
    let out = run(&[
        "new",
        "--input",
        "6",
        "--arch",
        "dense:10,dense:3",
        "--out",
        model.to_str().unwrap(),
        "--sparsity",
        "0.9",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("pruned"), "got: {stdout}");

    // Nine weights in ten are gone: some neuron has lost its whole fan-in.
    let path = model.to_str().unwrap();
    let out = run(&["analyze", path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("neurons: 13 ("), "got: {stdout}");
    assert!(stdout.contains("faults:  296"), "got: {stdout}");
    assert!(stdout.contains("[A-DEAD] neuron"), "got: {stdout}");

    let out = run(&["analyze", path, "--format", "json"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"dead_neurons\":"));

    assert_clean_failure(&["analyze", path, "--format", "yaml"], "unknown format");

    let _ = std::fs::remove_file(&model);
}

#[test]
fn analyze_rejects_bad_arguments() {
    assert_clean_failure(&["analyze"], "missing model path");
    assert_clean_failure(&["analyze", "/nonexistent.snn"], "cannot open");
}

#[test]
fn trace_out_and_profile_render_the_span_tree() {
    let model = scratch("trace-model.snn");
    let out = run(&[
        "new",
        "--input",
        "4",
        "--arch",
        "dense:6,dense:2",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // generate --trace-out: reports the runtime breakdown and writes a
    // JSONL trace whose profile tree shows both optimization stages.
    let events = scratch("trace.events");
    let trace = scratch("trace.jsonl");
    let out = run(&[
        "generate",
        model.to_str().unwrap(),
        "--preset",
        "fast",
        "--out",
        events.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("runtimes: generation"), "got: {stdout}");
    assert!(stdout.contains("wrote trace"), "got: {stdout}");

    let out = run(&["profile", trace.to_str().unwrap()]);
    let tree = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for node in ["TOTAL", "SELF", "generate", "stage1", "stage2"] {
        assert!(tree.contains(node), "profile tree missing {node}: {tree}");
    }

    // verify --trace-out: the fault campaign appears as its own span.
    let vtrace = scratch("verify-trace.jsonl");
    let out = run(&[
        "verify",
        model.to_str().unwrap(),
        events.to_str().unwrap(),
        "--trace-out",
        vtrace.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("runtimes:"), "got: {stdout}");

    let out = run(&["profile", vtrace.to_str().unwrap()]);
    let tree = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(tree.contains("faultsim.campaign"), "got: {tree}");

    for p in [&model, &events, &trace, &vtrace] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn profile_rejects_bad_input() {
    assert_clean_failure(&["profile"], "missing trace path");
    assert_clean_failure(&["profile", "/nonexistent/trace.jsonl"], "cannot open");

    let empty = scratch("empty-trace.jsonl");
    std::fs::write(&empty, "").unwrap();
    assert_clean_failure(&["profile", empty.to_str().unwrap()], "no spans");
    let _ = std::fs::remove_file(&empty);
}

#[test]
fn serve_watch_json_and_metrics_roundtrip() {
    use std::io::BufRead;
    let state = scratch("serve-state");
    let mut child = Command::new(env!("CARGO_BIN_EXE_snn-mtfc"))
        .args(["serve", "--state-dir", state.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let first = lines.next().expect("listen line").expect("utf8");
    let addr = first
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected listen line: {first}"))
        .to_string();

    // Watch in --json mode: every streamed event is the raw wire
    // envelope with a sequence number and emission timestamp.
    let out = run(&[
        "submit",
        "--synthetic",
        "4x6x2",
        "--preset",
        "fast",
        "--coverage",
        "--watch",
        "--json",
        "--addr",
        &addr,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let job_id = stdout
        .lines()
        .find_map(|l| l.strip_prefix("submitted job "))
        .expect("submit echoes the job id")
        .to_string();
    let events: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!events.is_empty(), "no JSON event lines in: {stdout}");
    for line in &events {
        assert!(
            line.contains("\"seq\":")
                && line.contains("\"at_ms\":")
                && line.contains("\"payload\":"),
            "not a sequenced envelope: {line}"
        );
    }

    // Without --json the same stream renders as human one-liners.
    let out = run(&["watch", &job_id, "--addr", &addr]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains(&format!("job {job_id}: done")), "got: {stdout}");
    assert!(stdout.contains("timings:"), "record line reports the phase breakdown: {stdout}");

    // The metrics endpoint serves the registry in Prometheus text format
    // with non-zero job and generator series.
    let out = run(&["metrics", "--addr", &addr]);
    let metrics = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        metrics.contains("# TYPE snn_service_job_wall_seconds histogram"),
        "missing job wall-time histogram: {metrics}"
    );
    assert!(metrics.contains("snn_service_job_wall_seconds_count 1"), "got: {metrics}");
    for counter in ["snn_testgen_iterations_total", "snn_faultsim_faults_simulated_total"] {
        let value = metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{counter} ")))
            .unwrap_or_else(|| panic!("missing {counter}: {metrics}"));
        assert_ne!(value.trim(), "0", "{counter} must be non-zero after a coverage job");
    }
    // The cluster health series are pre-registered by the coordinator so
    // the dump exposes them even before any worker connects.
    assert!(
        metrics.contains("# TYPE snn_cluster_leases_in_flight gauge"),
        "missing in-flight lease gauge: {metrics}"
    );
    assert!(
        metrics.contains("# TYPE snn_cluster_heartbeat_gap_seconds histogram"),
        "missing heartbeat-gap histogram: {metrics}"
    );

    assert!(run(&["shutdown", "--addr", &addr]).status.success());
    child.wait().expect("server exits");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn service_commands_fail_cleanly_without_a_server() {
    // Port 1 on loopback is never listening.
    assert_clean_failure(&["status", "--addr", "127.0.0.1:1"], "cannot connect");
    assert_clean_failure(
        &["submit", "--synthetic", "4x6x2", "--addr", "127.0.0.1:1"],
        "cannot connect",
    );
    assert_clean_failure(&["shutdown", "--addr", "127.0.0.1:1"], "cannot connect");
    assert_clean_failure(&["cluster-status", "--addr", "127.0.0.1:1"], "cannot connect");
    assert_clean_failure(&["worker", "--addr", "127.0.0.1:1"], "worker failed");
}

#[test]
fn cluster_commands_drive_a_distributed_campaign() {
    use std::io::BufRead;
    let state = scratch("cluster-state");
    let mut server = Command::new(env!("CARGO_BIN_EXE_snn-mtfc"))
        .args([
            "serve",
            "--state-dir",
            state.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--expect-workers",
            "1",
            "--chunk-size",
            "128",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut lines = std::io::BufReader::new(server.stdout.take().unwrap()).lines();
    let first = lines.next().expect("listen line").expect("utf8");
    let addr = first
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected listen line: {first}"))
        .to_string();

    // Before any worker arrives the cluster is empty.
    let out = run(&["cluster-status", "--addr", &addr]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("cluster: 0 worker(s)"),
        "got: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let worker = Command::new(env!("CARGO_BIN_EXE_snn-mtfc"))
        .args(["worker", "--addr", &addr, "--name", "cli-w0", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("worker spawns");

    // The coverage job shards onto the worker and completes.
    let out = run(&[
        "submit",
        "--synthetic",
        "8x16x4",
        "--preset",
        "fast",
        "--coverage",
        "--watch",
        "--addr",
        &addr,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("fault coverage"), "coverage missing from: {stdout}");

    // One digest: `verify` on the same network (`--synthetic` and `new`
    // seed the same weights) and the events file the job wrote prints
    // the digest the job recorded, and `status` shows it.
    let digest_after = |text: &str, label: &str| -> String {
        let at = text.find(label).unwrap_or_else(|| panic!("no `{label}` in: {text}"));
        text[at + label.len()..].chars().take_while(char::is_ascii_hexdigit).collect()
    };
    let job_digest = digest_after(&stdout, "verdict digest ");
    assert_eq!(job_digest.len(), 16, "got: {stdout}");
    let model = scratch("cluster-model.snn");
    let model_path = model.to_str().unwrap();
    assert!(run(&["new", "--input", "8", "--arch", "dense:16,dense:4", "--out", model_path])
        .status
        .success());
    let events = state.join("results").join("job-1.events");
    let out = run(&["verify", model_path, events.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let verified = digest_after(&String::from_utf8_lossy(&out.stdout), "verdict digest: ");
    assert_eq!(verified, job_digest, "verify and the 1-worker job disagree");
    let out = run(&["status", "1", "--addr", &addr]);
    assert!(String::from_utf8_lossy(&out.stdout).contains(&format!("verdict digest {job_digest}")));
    let _ = std::fs::remove_file(&model);

    // The status views agree: the worker exists, completed chunks, and
    // the JSON form carries the same accounting fields.
    let out = run(&["cluster-status", "--addr", &addr]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("cluster: 1 worker(s)"), "got: {text}");
    assert!(text.contains("cli-w0"), "worker name missing: {text}");
    let out = run(&["cluster-status", "--addr", &addr, "--json"]);
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(json.contains("\"chunks_completed\":") && json.contains("\"cli-w0\""), "got: {json}");

    // Shutdown reaches the worker via its next lease request; it exits
    // zero with a final report.
    assert!(run(&["shutdown", "--addr", &addr]).status.success());
    server.wait().expect("server exits");
    let worker_out = worker.wait_with_output().expect("worker exits");
    assert!(worker_out.status.success(), "worker exited nonzero");
    let report = String::from_utf8_lossy(&worker_out.stdout);
    assert!(report.contains("worker cli-w0 done:"), "got: {report}");
    let _ = std::fs::remove_dir_all(&state);
}
