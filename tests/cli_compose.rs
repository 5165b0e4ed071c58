//! Integration tests for the `sbmlcompose compose` CLI, including the
//! multi-file chain form (>2 inputs through one prepared-model session).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use sbmlcompose::compose::{compose_many, Composer};
use sbmlcompose::model::builder::ModelBuilder;
use sbmlcompose::model::{parse_sbml, write_sbml, Model};

fn chain_model(i: usize) -> Model {
    ModelBuilder::new(format!("part{i}"))
        .compartment("cell", 1.0)
        .species(&format!("S{i}"), i as f64)
        .species(&format!("S{}", i + 1), 0.0)
        .parameter(&format!("k{i}"), 0.1 * (i + 1) as f64)
        .reaction(
            &format!("r{i}"),
            &[format!("S{i}").as_str()],
            &[format!("S{}", i + 1).as_str()],
            &format!("k{i}*S{i}"),
        )
        .build()
}

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sbmlcompose_cli_{tag}_{}_{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").replace("::", "_"),
    ));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_inputs(dir: &std::path::Path, models: &[Model]) -> Vec<String> {
    models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let path = dir.join(format!("in{i}.xml"));
            fs::write(&path, write_sbml(m)).expect("write input model");
            path.to_string_lossy().into_owned()
        })
        .collect()
}

#[test]
fn compose_two_files_matches_library() {
    let dir = scratch("two");
    let models = [chain_model(0), chain_model(1)];
    let inputs = write_inputs(&dir, &models);
    let out = dir.join("merged.xml");
    let log = dir.join("merge.log");

    let status = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .args(&inputs)
        .args(["-o", &out.to_string_lossy(), "--log", &log.to_string_lossy()])
        .status()
        .expect("run sbmlcompose");
    assert!(status.success());

    let merged = parse_sbml(&fs::read_to_string(&out).unwrap()).unwrap();
    let expected = Composer::default().compose(&models[0], &models[1]);
    assert_eq!(merged, expected.model);
    let log_text = fs::read_to_string(&log).unwrap();
    assert_eq!(log_text, expected.log.to_text());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compose_chains_more_than_two_files() {
    let dir = scratch("chain");
    let models: Vec<Model> = (0..4).map(chain_model).collect();
    let inputs = write_inputs(&dir, &models);
    let out = dir.join("merged.xml");

    let status = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .args(&inputs)
        .args(["-o", &out.to_string_lossy(), "--log", &dir.join("m.log").to_string_lossy()])
        .status()
        .expect("run sbmlcompose");
    assert!(status.success());

    let merged = parse_sbml(&fs::read_to_string(&out).unwrap()).unwrap();
    let expected = compose_many(&Composer::default(), &models);
    assert_eq!(merged, expected.model, "CLI chain must equal library compose_many");
    // S0..S4 shared along the chain: 5 species, 4 reactions.
    assert_eq!(merged.species.len(), 5);
    assert_eq!(merged.reactions.len(), 4);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compose_rejects_unknown_flags_as_usage_errors() {
    // A leftover `--` argument is a usage error naming the flag, not an
    // input file to open (which would exit 3). The retired merge-pipeline
    // flags fall under the same rule.
    let dir = scratch("flags");
    let models: Vec<Model> = (0..2).map(chain_model).collect();
    let inputs = write_inputs(&dir, &models);
    for extra in [&["--bogus"][..], &["--pipeline", "off"], &["--pipeline-threads", "4"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
            .arg("compose")
            .args(&inputs)
            .args(extra)
            .output()
            .expect("run sbmlcompose");
        assert_eq!(output.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(extra[0]), "{extra:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{extra:?}: nothing composed");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_input_is_a_one_line_diagnostic_and_exit_3() {
    let dir = scratch("missing");
    let inputs = write_inputs(&dir, &[chain_model(0)]);
    let ghost = dir.join("does_not_exist.xml");
    let output = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .arg(&inputs[0])
        .arg(&ghost)
        .output()
        .expect("run sbmlcompose");
    assert_eq!(output.status.code(), Some(3), "input error exits 3");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    assert!(stderr.starts_with("error:"), "stderr: {stderr}");
    assert!(stderr.contains("does_not_exist.xml"), "names the file: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_input_is_a_one_line_diagnostic_and_exit_3() {
    let dir = scratch("malformed");
    let inputs = write_inputs(&dir, &[chain_model(0)]);
    let bad = dir.join("bad.xml");
    fs::write(&bad, "<sbml><model id='x'").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .arg(&inputs[0])
        .arg(&bad)
        .output()
        .expect("run sbmlcompose");
    assert_eq!(output.status.code(), Some(3), "parse error exits 3");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    assert!(stderr.starts_with("error:"), "stderr: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn generous_budget_flags_do_not_change_output() {
    let dir = scratch("budget_ok");
    let models: Vec<Model> = (0..3).map(chain_model).collect();
    let inputs = write_inputs(&dir, &models);
    let plain = dir.join("plain.xml");
    let guarded = dir.join("guarded.xml");

    let status = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .args(&inputs)
        .args(["-o", &plain.to_string_lossy()])
        .status()
        .expect("run sbmlcompose");
    assert!(status.success());

    let status = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .args(&inputs)
        .args(["-o", &guarded.to_string_lossy()])
        .args(["--max-steps", "1000000", "--deadline-ms", "60000"])
        .status()
        .expect("run sbmlcompose");
    assert!(status.success(), "a budget nobody hits must not change the exit code");
    assert_eq!(
        fs::read_to_string(&plain).unwrap(),
        fs::read_to_string(&guarded).unwrap(),
        "budgets are observability, not semantics"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_budget_writes_partial_output_and_exits_4() {
    let dir = scratch("budget_cut");
    let models: Vec<Model> = (0..2).map(chain_model).collect();
    let inputs = write_inputs(&dir, &models);
    let out = dir.join("partial.xml");

    // Exactly enough steps for the first model: the second push must be
    // refused, the first model still written, and the exit code distinct.
    let allowance = models[0].component_count();
    let output = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .args(&inputs)
        .args(["-o", &out.to_string_lossy()])
        .args(["--max-steps", &allowance.to_string()])
        .output()
        .expect("run sbmlcompose");
    assert_eq!(output.status.code(), Some(4), "partial result exits 4");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("partial"), "stderr: {stderr}");
    assert!(stderr.contains("in1.xml"), "names the model it stopped before: {stderr}");
    let written = parse_sbml(&fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(written, models[0], "everything merged before the cut is kept");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compose_rejects_single_file() {
    let dir = scratch("single");
    let inputs = write_inputs(&dir, &[chain_model(0)]);
    let output = Command::new(env!("CARGO_BIN_EXE_sbmlcompose"))
        .arg("compose")
        .args(&inputs)
        .output()
        .expect("run sbmlcompose");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    assert!(String::from_utf8_lossy(&output.stderr).contains("at least two"));
    let _ = fs::remove_dir_all(&dir);
}
