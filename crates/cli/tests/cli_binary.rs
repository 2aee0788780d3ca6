//! End-to-end tests of the `anatomy` binary via process spawning: the
//! full publish → verify → query pipeline through argv, stdout and the
//! filesystem.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_anatomy"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anatomy-bin-test-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn demo(dir: &std::path::Path) -> (String, String) {
    let schema = dir.join("schema.txt");
    fs::write(
        &schema,
        "Age:numerical:100\nSex:categorical:2\nDisease:categorical:5\n",
    )
    .unwrap();
    let data = dir.join("data.csv");
    let mut csv = String::from("Age,Sex,Disease\n");
    for i in 0..40u32 {
        csv.push_str(&format!("{},{},{}\n", 20 + i, i % 2, i % 5));
    }
    fs::write(&data, csv).unwrap();
    (
        data.to_string_lossy().into_owned(),
        schema.to_string_lossy().into_owned(),
    )
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = scratch("pipeline");
    let (data, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();

    let out = bin()
        .args([
            "stats",
            "--data",
            &data,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("max feasible l: 5"), "{stdout}");

    let out = bin()
        .args([
            "publish",
            "--data",
            &data,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--qit",
            &qit,
            "--st",
            &st,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(fs::metadata(&qit).unwrap().len() > 0);
    assert!(fs::metadata(&st).unwrap().len() > 0);

    let out = bin()
        .args([
            "verify",
            "--qit",
            &qit,
            "--st",
            &st,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("audit: PASS"), "{stdout}");
    assert!(
        stdout.contains("worst adversary posterior 25.0% vs Corollary 1 bound 25.0%"),
        "{stdout}"
    );

    let out = bin()
        .args([
            "query",
            "--qit",
            &qit,
            "--st",
            &st,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--query",
            "s=0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("estimate: 8.000"));
}

/// `--metrics` makes publish and query drop a valid `RunManifest` JSON
/// next to their outputs — the CI smoke path.
#[test]
fn metrics_flag_emits_valid_manifests() {
    let dir = scratch("metrics");
    let (data, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();
    let pub_metrics = dir.join("publish.json").to_string_lossy().into_owned();
    let query_metrics = dir.join("query.json").to_string_lossy().into_owned();

    let out = bin()
        .args([
            "publish",
            "--data",
            &data,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--qit",
            &qit,
            "--st",
            &st,
            "--metrics",
            &pub_metrics,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("metrics ->"));
    let json = fs::read_to_string(&pub_metrics).unwrap();
    anatomy_obs::validate_manifest_json(&json).unwrap();
    let v = anatomy_obs::Json::parse(&json).unwrap();
    assert_eq!(v.get("name").unwrap().as_str(), Some("cli.publish"));
    assert_eq!(v.get("enabled").unwrap().as_bool(), Some(true));
    // The instrumented anatomize phases are present and counted.
    assert_eq!(
        v.get("counters")
            .unwrap()
            .get("core.anatomize_runs")
            .unwrap()
            .as_u64(),
        Some(1)
    );

    let out = bin()
        .args([
            "query",
            "--qit",
            &qit,
            "--st",
            &st,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--query",
            "s=0\ns=1",
            "--metrics",
            &query_metrics,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = fs::read_to_string(&query_metrics).unwrap();
    anatomy_obs::validate_manifest_json(&json).unwrap();
    let v = anatomy_obs::Json::parse(&json).unwrap();
    assert_eq!(v.get("name").unwrap().as_str(), Some("cli.query"));
    assert_eq!(
        v.get("params").unwrap().get("queries").unwrap().as_u64(),
        Some(2)
    );
}

/// A deep failure (infeasible `l` at publish time) is reported as a full
/// cause chain, one layer per `caused by:` line.
#[test]
fn errors_print_the_cause_chain() {
    let dir = scratch("chain");
    let (data, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "publish",
            "--data",
            &data,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "6", // max feasible l is 5
            "--qit",
            &qit,
            "--st",
            &st,
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("publishing"), "{stderr}");
    assert!(stderr.contains("caused by: core error:"), "{stderr}");
}

/// `anatomy verify` exits 0 on a clean release and 1 on a corrupted one,
/// naming the violated check on stderr — the CI audit-smoke contract.
#[test]
fn verify_exit_codes_follow_release_integrity() {
    let dir = scratch("verify");
    let (data, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();
    assert!(bin()
        .args([
            "publish",
            "--data",
            &data,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--qit",
            &qit,
            "--st",
            &st,
        ])
        .status()
        .unwrap()
        .success());

    let verify_args = |st_path: &str| {
        vec![
            "verify".to_string(),
            "--qit".to_string(),
            qit.clone(),
            "--st".to_string(),
            st_path.to_string(),
            "--schema".to_string(),
            schema.clone(),
            "--sensitive".to_string(),
            "Disease".to_string(),
            "--l".to_string(),
            "4".to_string(),
        ]
    };

    let out = bin().args(verify_args(&st)).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("audit: PASS"), "{stdout}");
    assert!(stdout.contains("[PASS] estimator_consistency"), "{stdout}");

    // Corrupt one ST count (1 -> 2) and verify again: exit 1, violated
    // check named on stderr.
    let text = fs::read_to_string(&st).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let row = lines[1].strip_suffix(",1").unwrap().to_string();
    lines[1] = format!("{row},2");
    let st_bad = dir.join("st_bad.csv").to_string_lossy().into_owned();
    fs::write(&st_bad, lines.join("\n") + "\n").unwrap();

    let out = bin().args(verify_args(&st_bad)).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("[FAIL] qit_st_structure"), "{stderr}");
    assert!(
        stderr.contains("audit error:") || stderr.contains("release audit failed"),
        "{stderr}"
    );
}

#[test]
fn bad_usage_exits_2_with_usage_text() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // There is no `audit` command: `verify` does its job.
    let out = bin().args(["audit", "--l", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command `audit`"));

    // Retired surface: the external engine and the query index flags.
    for argv in [
        "publish --data d --schema s --sensitive X --l 4 --qit q --st t --engine external",
        "query --qit q --st t --schema s --sensitive X --l 4 --query s=0 --indexed",
        "query --qit q --st t --schema s --sensitive X --l 4 --query s=0 --index-v2",
    ] {
        let out = bin().args(argv.split_whitespace()).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage"), "{argv}: {stderr}");
    }
}

#[test]
fn overclaimed_l_fails_verify_with_exit_1() {
    let dir = scratch("audit-fail");
    let (data, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();
    assert!(bin()
        .args([
            "publish",
            "--data",
            &data,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--qit",
            &qit,
            "--st",
            &st,
        ])
        .status()
        .unwrap()
        .success());
    // Claiming l = 5 on a 4-diverse release fails.
    let out = bin()
        .args([
            "verify",
            "--qit",
            &qit,
            "--st",
            &st,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("[FAIL] l_diversity"), "{stderr}");
}

/// A header-only QIT/ST pair parses, so `query` must answer it (with
/// zero) instead of panicking.
#[test]
fn query_on_a_header_only_release_exits_0() {
    let dir = scratch("empty");
    let (_, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();
    fs::write(&qit, "Age,Sex,Group-ID\n").unwrap();
    fs::write(&st, "Group-ID,As,Count\n").unwrap();
    let out = bin()
        .args([
            "query",
            "--qit",
            &qit,
            "--st",
            &st,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--query",
            "s=0",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("estimate: 0.000"));
}

/// Writes a two-attribute schema (`Age` and a 5-value `Disease`) and the
/// given QIT and ST texts into `dir`; returns the three paths.
fn hostile_release(dir: &std::path::Path, qit: &str, st: &str) -> [String; 3] {
    let paths = ["schema.txt", "qit.csv", "st.csv"].map(|f| dir.join(f));
    fs::write(&paths[0], "Age:numerical:100\nDisease:categorical:5\n").unwrap();
    fs::write(&paths[1], qit).unwrap();
    fs::write(&paths[2], st).unwrap();
    paths.map(|p| p.to_string_lossy().into_owned())
}

/// `query` (with `--query s=0`) or `verify` over a release at l = 2.
fn release_command(cmd: &str, [schema, qit, st]: &[String; 3]) -> std::process::Output {
    let mut args = vec![
        cmd,
        "--qit",
        qit,
        "--st",
        st,
        "--schema",
        schema,
        "--sensitive",
        "Disease",
        "--l",
        "2",
    ];
    if cmd == "query" {
        args.extend(["--query", "s=0"]);
    }
    bin().args(args).output().unwrap()
}

/// An ST value at or above the sensitive domain used to panic `query`
/// (an index past the predicate's mask) and pass every `verify` check.
/// Both now refuse it, naming the record and the domain.
#[test]
fn an_st_value_outside_the_sensitive_domain_is_refused() {
    let dir = scratch("st-domain");
    let release = hostile_release(
        &dir,
        "Age,Group-ID\n1,1\n2,1\n3,2\n4,2\n",
        "Group-ID,As,Count\n1,0,1\n1,5,1\n2,1,1\n2,2,1\n",
    );
    for cmd in ["query", "verify"] {
        let out = release_command(cmd, &release);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains("ST record 2 (Group-ID 1, value 5) is outside the sensitive domain"),
            "{cmd}: {stderr}"
        );
        assert!(
            stderr.contains("value code 5 is outside the domain of attribute `Disease` (size 5)"),
            "{cmd}: {stderr}"
        );
    }

    // `serve` loads releases the same way, so it exits before binding.
    let [schema, qit, st] = &release;
    let child = bin()
        .args([
            "serve",
            "--qit",
            qit,
            "--st",
            st,
            "--schema",
            schema,
            "--sensitive",
            "Disease",
            "--l",
            "2",
            "--listen",
            "127.0.0.1:0",
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut guard = ChildGuard(Some(child));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = guard.0.as_mut().unwrap().try_wait().unwrap() {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve kept running on a release outside the sensitive domain"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(1));
}

/// A group id near `u32::MAX` used to size a 16 GiB table in `query`'s
/// release loading; it is now the ordinary not-dense error, exit 1.
#[test]
fn a_huge_group_id_fails_query_with_exit_1() {
    let dir = scratch("huge-gid");
    let release = hostile_release(
        &dir,
        "Age,Group-ID\n1,4294967295\n2,4294967295\n",
        "Group-ID,As,Count\n4294967295,0,1\n4294967295,1,1\n",
    );
    let out = release_command("query", &release);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("group ids are not dense: group 0 has no tuples"),
        "{stderr}"
    );
}

/// Kills a spawned server if a test assertion fails before SHUTDOWN.
struct ChildGuard(Option<std::process::Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The resident server end to end through the binary: publish, serve
/// with `--port-file`, answer a batch bit-for-bit, emit a validating
/// `METRICS` scrape, and exit 0 on SHUTDOWN.
#[test]
fn serve_answers_batches_and_shuts_down_cleanly() {
    use anatomy_query::{evaluate_exact, workload_from_text};
    use anatomy_serve::ServeClient;

    let dir = scratch("serve");
    let (data, schema) = demo(&dir);
    let qit = dir.join("qit.csv").to_string_lossy().into_owned();
    let st = dir.join("st.csv").to_string_lossy().into_owned();
    let publish = [
        "publish",
        "--data",
        &data,
        "--schema",
        &schema,
        "--sensitive",
        "Disease",
        "--l",
        "4",
        "--qit",
        &qit,
        "--st",
        &st,
    ];
    assert!(bin().args(publish).status().unwrap().success());

    let port_file = dir.join("serve.addr").to_string_lossy().into_owned();
    let child = bin()
        .args([
            "serve",
            "--qit",
            &qit,
            "--st",
            &st,
            "--schema",
            &schema,
            "--sensitive",
            "Disease",
            "--l",
            "4",
            "--data",
            &data,
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file,
            "--name",
            "census",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut guard = ChildGuard(Some(child));

    // The binary writes --port-file right after binding; poll for it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let addr = loop {
        if let Ok(a) = fs::read_to_string(&port_file) {
            if !a.is_empty() {
                break a;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never wrote {port_file}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    // The same microdata the binary loaded, rebuilt in-process as the
    // oracle the served answers must match bit for bit.
    let md = {
        let schema_obj = anatomy_tables::Schema::new(vec![
            anatomy_tables::Attribute::numerical("Age", 100),
            anatomy_tables::Attribute::categorical("Sex", 2),
            anatomy_tables::Attribute::categorical("Disease", 5),
        ])
        .unwrap();
        let mut b = anatomy_tables::TableBuilder::new(schema_obj);
        for i in 0..40u32 {
            b.push_row(&[20 + i, i % 2, i % 5]).unwrap();
        }
        anatomy_tables::Microdata::with_leading_qi(b.finish(), 2).unwrap()
    };
    let queries =
        workload_from_text(&md, "s=0\nqi0=25;s=0\nqi1=0;s=1\nqi0=20|21|22;s=0|1\n").unwrap();

    let mut client = ServeClient::connect(addr.trim()).unwrap();
    let got = client.batch_exact("census", &queries).unwrap();
    for (q, &served) in queries.iter().zip(&got) {
        assert_eq!(served, evaluate_exact(&md, q), "mismatch on {q}");
    }

    let scrape = client.metrics().unwrap();
    anatomy_obs::validate_exposition(&scrape).unwrap();
    assert_eq!(
        anatomy_obs::sample_value(&scrape, "anatomy_span_ns_serve_batch_count", &[]),
        Some(1.0),
        "{scrape}"
    );

    client.shutdown().unwrap();
    let out = guard.0.take().unwrap().wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("serving release `census`"), "{stdout}");
    assert!(stdout.contains("served 1 batches (4 queries)"), "{stdout}");
}

/// A value-taking flag dangling at the end of argv, or given an empty
/// value, is a usage error (exit 2 + usage text), not a silent default.
#[test]
fn dangling_and_empty_flag_values_exit_2() {
    let out = bin()
        .args([
            "stats",
            "--data",
            "d.csv",
            "--schema",
            "s.txt",
            "--sensitive",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "dangling --sensitive");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--sensitive"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    let out = bin()
        .args([
            "stats",
            "--data",
            "",
            "--schema",
            "s.txt",
            "--sensitive",
            "X",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "empty --data value");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--data"), "{stderr}");
    assert!(stderr.contains("non-empty"), "{stderr}");

    let out = bin()
        .args([
            "serve",
            "--qit",
            "q",
            "--st",
            "t",
            "--schema",
            "s",
            "--sensitive",
            "X",
            "--l",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "dangling --l on serve");
}
