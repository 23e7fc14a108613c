//! Self-tests of the benchmark's own arithmetic and bookkeeping.

use perfbench::expected::{Expected, Outcome};
use perfbench::inputs::{self, Input};
use perfbench::json;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::report::Report;
use perfbench::stats;
use perfbench::trace::{append, self_times, Span};

#[test]
fn p99_needs_ten_samples_beyond_it() {
    let mut thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let q = stats::tail(&mut thousand, 0.99).expect("1000 samples leave 10 beyond p99");
    assert_eq!(q.value, 990.0);
    assert_eq!(q.samples, 1000);

    let mut short: Vec<f64> = (1..=999).map(f64::from).collect();
    let err = stats::tail(&mut short, 0.99).expect_err("999 samples leave 9 beyond p99");
    assert!(err.contains("999 samples"), "{err}");
    assert!(stats::tail(&mut [], 0.99).is_err());
    assert!(stats::tail(&mut [1.0; 96], 0.99).is_err());
}

#[test]
fn percentiles_use_nearest_rank() {
    let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(stats::median(&mut v).map(|q| q.value), Some(3.0));
    let mut even = vec![4.0, 1.0, 3.0, 2.0];
    assert_eq!(stats::median(&mut even).map(|q| q.value), Some(2.0));
    assert_eq!(stats::median(&mut []), None);
    let mut one = vec![7.0];
    assert_eq!(stats::quantile(&mut one, 0.99).map(|q| q.value), Some(7.0));
}

#[test]
fn geomean_of_ratios() {
    let g = stats::geomean(&[1.0, 4.0]).unwrap();
    assert!((g - 2.0).abs() < 1e-12);
    let g = stats::geomean(&[2.0, 2.0, 2.0]).unwrap();
    assert!((g - 2.0).abs() < 1e-12);
    assert!(stats::geomean(&[]).is_err());
    assert!(stats::geomean(&[1.0, 0.0]).is_err());
    assert!(stats::geomean(&[1.0, f64::NAN]).is_err());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = vec![
        span("root", 0, 100, None),       // 0
        span("a", 10, 40, Some(0)),       // 1
        span("a.inner", 15, 25, Some(1)), // 2
        span("b", 30, 60, Some(0)),       // 3: overlaps a
        span("c", 90, 120, Some(0)),      // 4: overhangs root
        span("unrelated", 0, 50, None),   // 5
    ];
    let selfs = self_times(&spans);
    // root: [10,60) and [90,100) covered -> 100 - 60.
    assert_eq!(selfs, vec![40, 20, 10, 30, 30, 50]);
    // Self times of a span tree add up to its root's duration when the
    // children do not overlap or overhang.
    let tree = vec![
        span("compile", 0, 100, None),
        span("build", 0, 10, Some(0)),
        span("run", 12, 90, Some(0)),
        span("match", 20, 50, Some(2)),
        span("to_json", 90, 99, Some(0)),
    ];
    assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);

    // Appending another tracer's spans keeps their parent links.
    let mut merged = spans.clone();
    append(&mut merged, tree.clone());
    assert_eq!(merged[spans.len() + 3].parent, Some(spans.len() + 2));
    assert_eq!(&self_times(&merged)[spans.len()..], &self_times(&tree)[..]);
}

const REPORT: &str = r#"{
  "schema": "pypm.pipeline.v1",
  "passes": [
    {"name": "rewrite", "changed": true, "wall_ms": 5.925811, "duration_ms": 5.809843, "rewrites_fired": 13, "parallel": {"pool_spawn_reuse": 3, "warm_wall_ms": 0.065572, "probes_executed": 13}}
  ],
  "totals": {"passes": 1, "wall_ms": 5.925811, "duration_ms": 5.809843, "rewrites_fired": 13, "parallel": {"pool_spawn_reuse": 3, "warm_wall_ms": 0.065572, "probes_executed": 13}},
  "diagnostics": [
  ]
}
"#;

#[test]
fn masking_hides_only_volatile_fields() {
    let a = Report::parse(REPORT).unwrap();
    let b = Report::parse(
        &REPORT
            .replace("5.925811", "7.5")
            .replace("5.809843", "7.25")
            .replace("0.065572", "0.1")
            .replace("\"pool_spawn_reuse\": 3", "\"pool_spawn_reuse\": 9"),
    )
    .unwrap();
    assert_eq!(a.masked(), b.masked());
    assert!(!a.masked().contains("5.925811"));
    assert_eq!(a.rewrites_fired(), 13);
    assert_eq!(a.wall_ms(), 5.925811);
    assert_eq!(a.num("totals.parallel.probes_executed"), 13.0);

    let c =
        Report::parse(&REPORT.replace("\"probes_executed\": 13}}", "\"probes_executed\": 14}}"))
            .unwrap();
    assert_ne!(a.masked(), c.masked(), "a semantic counter is not volatile");
    assert!(Report::parse("{\"schema\": \"other\"}").is_err());
}

#[test]
fn json_reader_round_trips() {
    let v = json::parse(r#"{"b": [1, 2.5, -3e2], "a": {"s": "x\"y\n", "t": true, "n": null}}"#)
        .unwrap();
    assert_eq!(v.num("b"), None);
    assert_eq!(v.path("a.t"), Some(&json::Value::Bool(true)));
    assert_eq!(
        v.render(),
        r#"{"a":{"n":null,"s":"x\"y\n","t":true},"b":[1,2.5,-300]}"#
    );
    assert!(json::parse("{\"a\": 1,}").is_err());
    assert!(json::parse("[1 2]").is_err());
    assert!(json::parse(&"[".repeat(100)).is_err());
}

#[test]
fn expected_file_round_trips_and_checks_every_field() {
    let mut e = Expected::default();
    let outcome = Outcome {
        fired: 13,
        digest: 0xc019_80d0_414b_8b6c,
        est_after_us: 8421.096,
    };
    e.insert("bert-tiny@all".to_owned(), outcome.clone());
    let parsed = Expected::parse(&e.render()).unwrap();
    assert_eq!(parsed.check("bert-tiny@all", &outcome), Ok(()));
    assert_eq!(parsed.fired("bert-tiny@all"), Some(13));
    for bad in [
        Outcome {
            fired: 12,
            ..outcome.clone()
        },
        Outcome {
            digest: 1,
            ..outcome.clone()
        },
        Outcome {
            est_after_us: 8421.2,
            ..outcome.clone()
        },
    ] {
        assert!(parsed.check("bert-tiny@all", &bad).is_err());
    }
    assert!(parsed.check("missing", &outcome).is_err());
    assert!(Expected::parse("key fired=x digest=00 est_after_us=1").is_err());
}

#[test]
fn draws_depend_only_on_the_seed() {
    assert_eq!(inputs::serve_miss_inputs(7), inputs::serve_miss_inputs(7));
    assert_ne!(inputs::serve_miss_inputs(7), inputs::serve_miss_inputs(8));
    assert_eq!(inputs::serve_miss_inputs(7).len(), 260);
    let hot = inputs::serve_hot_inputs(7);
    assert_eq!(hot, inputs::serve_hot_inputs(7));
    assert_eq!(hot.len(), inputs::HOT_SET);
    for (i, a) in hot.iter().enumerate() {
        assert!(!hot[i + 1..].contains(a), "hot inputs are distinct");
    }
    let names = |seed| -> Vec<String> {
        inputs::large_inputs(seed)
            .into_iter()
            .map(|i| i.name)
            .collect()
    };
    assert_eq!(names(7), names(7));
    let tiers: Vec<usize> = {
        let mut t: Vec<usize> = inputs::large_inputs(7).iter().map(|i| i.tier).collect();
        t.sort_unstable();
        t
    };
    assert_eq!(
        tiers,
        (0..tiers.len()).collect::<Vec<_>>(),
        "one input per tier"
    );
}

#[test]
fn expected_file_covers_every_drawable_input() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt"))
        .expect("expected.txt next to Cargo.toml");
    let e = Expected::parse(&text).unwrap();
    for inp in inputs::serve_universe() {
        assert!(e.fired(&inp.key()).is_some(), "{}", inp.key());
    }
    for inp in inputs::large_catalogue() {
        assert!(e.fired(&inp.key()).is_some(), "{}", inp.key());
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(json::Value::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k| match m.get(k) {
                        Some(json::Value::String(s)) => s.clone(),
                        _ => panic!("{key} entry without {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}
