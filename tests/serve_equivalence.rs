//! The serve correctness story: a graph compiled through `pypmc serve`
//! must produce **byte-identical counters** to `pypmc compile` — same
//! `pypm.pipeline.v1` document after masking the only legitimately
//! volatile fields (wall clocks). Swept over the full model zoo, the
//! sweep policies and the matcher backends.

use pypm::serve::{Client, ServeConfig, Server, STATUS_OK};
use std::process::Command;

/// Masks `wall_ms` and `duration_ms` values in a `pypm.pipeline.v1`
/// document.
fn mask_volatile(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some((field, pos)) = find_volatile(rest) {
        let value_start = pos + field.len();
        out.push_str(&rest[..value_start]);
        out.push('_');
        let tail = &rest[value_start..];
        let value_len = tail.find([',', '}', '\n']).unwrap_or(tail.len());
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

fn find_volatile(s: &str) -> Option<(&'static str, usize)> {
    ["\"wall_ms\": ", "\"duration_ms\": "]
        .into_iter()
        .filter_map(|f| s.find(f).map(|p| (f, p)))
        .min_by_key(|&(_, p)| p)
}

/// An explicit (sweep policy, matcher backend) pair, or `None` for the
/// defaults: no CLI flags and no request keys.
type Knobs = Option<(&'static str, &'static str)>;

/// One `pypmc compile` invocation's `pypm.pipeline.v1` JSON, via
/// `--stats-json` (the CLI is the equivalence reference).
fn cli_compile_json(model: &str, config: &str, knobs: Knobs) -> String {
    let dir = std::env::temp_dir().join(format!(
        "pypmc_serve_eq_{model}_{config}_{knobs:?}_{:?}",
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stats.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pypmc"));
    cmd.args(["compile", model, "--config", config]);
    if let Some((policy, matcher)) = knobs {
        cmd.args(["--sweep-policy", policy, "--matcher", matcher]);
    }
    let out = cmd
        .args(["--stats-json", path.to_str().unwrap()])
        // The default must be the CLI's own, not a CI leg's override.
        .env_remove("PYPM_MATCHER")
        .output()
        .expect("failed to spawn pypmc");
    assert!(out.status.success(), "{model}: {out:?}");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    json
}

/// The same compile through a running server.
fn served_compile_json(client: &mut Client, model: &str, config: &str, knobs: Knobs) -> String {
    let mut request = format!("compile {model} config={config}");
    if let Some((policy, matcher)) = knobs {
        request.push_str(&format!(" policy={policy} matcher={matcher}"));
    }
    let (status, body) = client.request(&request).unwrap();
    assert_eq!(status, STATUS_OK, "{model}: {body}");
    body
}

fn assert_equivalent(client: &mut Client, model: &str, config: &str, knobs: Knobs) {
    let cli = mask_volatile(&cli_compile_json(model, config, knobs));
    let served = mask_volatile(&served_compile_json(client, model, config, knobs));
    assert_eq!(
        served, cli,
        "{model}/{config}/{knobs:?}: served counters diverged from the CLI"
    );
}

/// Every model of both zoos, default policy and matcher on both sides
/// (exactly the requests the repo benchmark sends) — one warm
/// server serving the whole sweep (so the server-side session and
/// ruleset cache are maximally reused while the CLI reference starts
/// cold every time: the counters must not care).
#[test]
fn served_counters_match_the_cli_across_the_zoo() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let names: Vec<String> = pypm::models::hf_zoo()
        .iter()
        .map(|c| c.name.to_owned())
        .chain(pypm::models::tv_zoo().iter().map(|c| c.name.to_owned()))
        .collect();
    for name in &names {
        assert_equivalent(&mut client, name, "both", None);
    }
    server.shutdown();
    server.join();
}

/// The policy × matcher cross-section on representative models from
/// each zoo.
#[test]
fn served_counters_match_the_cli_across_policies_and_matchers() {
    let server = Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for model in ["bert-small", "vgg16"] {
        for policy in ["restart", "incremental"] {
            for matcher in ["per-pattern", "fused"] {
                assert_equivalent(&mut client, model, "all", Some((policy, matcher)));
            }
        }
    }
    // Repeating a request against the (now very warm) server still
    // matches the cold CLI.
    assert_equivalent(
        &mut client,
        "bert-small",
        "all",
        Some(("incremental", "fused")),
    );
    server.shutdown();
    server.join();
}
