//! The result-cache correctness story: a cache hit must be
//! **byte-identical** to the cold compile it replays — for every zoo
//! model, every sweep policy, both matcher backends — the cache must
//! key on everything that shapes the counters (the backend included),
//! must
//! survive a server restart via `--cache-dir`, and must stay invisible
//! when disabled.

use pypm::serve::{Client, ServeConfig, Server, STATUS_OK};
use std::process::Command;

/// Masks `wall_ms` and `duration_ms` values — the same masking as
/// `tests/serve_equivalence.rs`.
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

fn compile_ok(client: &mut Client, model: &str, policy: &str, matcher: &str) -> String {
    let (status, body) = client
        .request(&format!(
            "compile {model} policy={policy} matcher={matcher}"
        ))
        .unwrap();
    assert_eq!(status, STATUS_OK, "{model}/{policy}/{matcher}: {body}");
    body
}

/// The cache `stats` block as served by the `stats` verb.
fn stats_json(client: &mut Client) -> String {
    let (status, body) = client.request("stats").unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    assert!(
        body.contains("\"schema\": \"pypm.serve.stats.v1\""),
        "{body}"
    );
    body
}

/// Pulls one integer counter out of the stats document.
fn counter(stats: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = stats
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {stats}"));
    let tail = &stats[at + key.len()..];
    let end = tail.find([',', '}']).unwrap();
    tail[..end].trim().parse().unwrap()
}

/// Every zoo model × every sweep policy × both matcher backends:
/// the second identical request is a cache hit and its response is
/// **byte-identical** to the cold compile's — not just masked-equal;
/// the cached report is the cold report, verbatim.
#[test]
fn hits_are_byte_identical_across_zoo_policies_and_matchers() {
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
    let mut expected_hits = 0;
    for name in &names {
        for policy in ["restart", "incremental"] {
            for matcher in ["per-pattern", "fused"] {
                let cold = compile_ok(&mut client, name, policy, matcher);
                let hit = compile_ok(&mut client, name, policy, matcher);
                assert_eq!(
                    hit, cold,
                    "{name}/{policy}/{matcher}: cache hit diverged from the cold compile"
                );
                expected_hits += 1;
            }
        }
    }
    let stats = stats_json(&mut client);
    // Every immediate repeat hits; the key is *content*-addressed, so
    // zoo models that build byte-identical graphs share an entry and
    // some cold compiles hit another model's cached report too (the
    // reports are identical by construction — same bytes, same key).
    let hits = counter(&stats, "hits");
    let misses = counter(&stats, "misses");
    assert_eq!(hits + misses, expected_hits * 2, "{stats}");
    assert!(hits >= expected_hits, "{stats}");
    assert_eq!(counter(&stats, "stores"), misses, "{stats}");
    server.shutdown();
    server.join();
}

/// A cache hit also matches a cold `pypmc compile` run byte-for-byte
/// after the standard volatile-field masking — the serve ≡ CLI
/// equivalence contract extends to cached responses.
#[test]
fn cache_hits_match_the_cold_cli_after_masking() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (model, policy, matcher) in [
        ("bert-small", "restart", "fused"),
        ("vgg16", "incremental", "per-pattern"),
    ] {
        compile_ok(&mut client, model, policy, matcher); // prime: miss
        let hit = compile_ok(&mut client, model, policy, matcher);

        let dir = std::env::temp_dir().join(format!(
            "pypmc_cache_eq_{model}_{policy}_{matcher}_{:?}",
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let out = Command::new(env!("CARGO_BIN_EXE_pypmc"))
            .args([
                "compile",
                model,
                "--sweep-policy",
                policy,
                "--matcher",
                matcher,
                "--stats-json",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("failed to spawn pypmc");
        assert!(out.status.success(), "{model}: {out:?}");
        let cli = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(
            mask_volatile(&hit),
            mask_volatile(&cli),
            "{model}/{policy}/{matcher}: cached response diverged from the cold CLI"
        );
    }
    server.shutdown();
    server.join();
}

/// The matcher backend is part of the cache key: the same model and
/// policy under the other backend has different machine-step counters
/// and must *miss*, not replay the wrong report.
#[test]
fn different_matchers_never_share_a_cache_entry() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    compile_ok(&mut client, "bert-tiny", "restart", "per-pattern");
    compile_ok(&mut client, "bert-tiny", "restart", "fused");
    let stats = stats_json(&mut client);
    assert_eq!(counter(&stats, "hits"), 0, "{stats}");
    assert_eq!(counter(&stats, "misses"), 2, "{stats}");
    server.shutdown();
    server.join();
}

/// `--cache-dir` persistence: a second server over the same directory
/// answers the very first repeat request from disk, byte-identical to
/// the first server's cold compile.
#[test]
fn cache_dir_persists_across_server_restart() {
    let dir = std::env::temp_dir().join(format!(
        "pypmc_cache_restart_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();

    let first = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_dir: Some(dir_s.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(first.addr()).unwrap();
    let cold = compile_ok(&mut client, "bert-tiny", "incremental", "fused");
    let stats = stats_json(&mut client);
    assert_eq!(counter(&stats, "stores"), 1, "{stats}");
    drop(client);
    first.shutdown();
    first.join();

    // A restarted server — fresh memory, same directory.
    let second = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_dir: Some(dir_s),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(second.addr()).unwrap();
    let warm = compile_ok(&mut client, "bert-tiny", "incremental", "fused");
    assert_eq!(
        warm, cold,
        "the restarted server's disk hit diverged from the original cold compile"
    );
    let stats = stats_json(&mut client);
    assert_eq!(counter(&stats, "hits"), 1, "{stats}");
    assert_eq!(counter(&stats, "disk_hits"), 1, "{stats}");
    assert_eq!(counter(&stats, "misses"), 0, "{stats}");
    assert!(stats.contains("\"persistent\": true"), "{stats}");
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--cache 0` (no directory) disables the cache: repeats recompile —
/// still masked-equal, but nothing is counted or stored.
#[test]
fn a_disabled_cache_recompiles_and_counts_nothing() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let a = compile_ok(&mut client, "bert-tiny", "restart", "fused");
    let b = compile_ok(&mut client, "bert-tiny", "restart", "fused");
    assert_eq!(mask_volatile(&a), mask_volatile(&b));
    let stats = stats_json(&mut client);
    assert_eq!(counter(&stats, "hits"), 0, "{stats}");
    assert_eq!(counter(&stats, "misses"), 0, "{stats}");
    assert_eq!(counter(&stats, "stores"), 0, "{stats}");
    assert!(stats.contains("\"last_key\": null"), "{stats}");
    server.shutdown();
    server.join();
}
