//! Library-level checks of the benchmark: every workload runs, the
//! metric names agree with `BENCHMARK.json`, results serialize
//! losslessly, worker count does not change results, and the reference
//! check fires on a corrupted reference.

use lsq_obs::Json;
use lsqbench::batch::{self, BatchReport};
use lsqbench::golden::{self, Op, Reference, FIELDS};
use lsqbench::layers;
use lsqbench::report::{self, MetricDef, END_TO_END, PER_LAYER};
use lsqbench::workload::{Budget, Pass, Workload};

const TINY: Budget = Budget {
    warmup: 500,
    instrs: 1_000,
};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// A tiny untraced batch of `workload` with its set-up and layer passes.
fn tiny_batch(workload: Workload, workers: usize) -> BatchReport {
    let mut b = batch::run_batch(workload, 1, TINY, workers);
    b.setup_ns = Some(batch::setup_pass(workload, 1, TINY).expect("set-up pass"));
    b.spans = layers::run_layers(workload, 1, TINY, b.counted()).expect("layer pass");
    b
}

#[test]
fn every_workload_runs_at_a_tiny_budget() {
    for workload in Workload::ALL {
        let b = tiny_batch(workload, 2);
        let expected_ops = match workload {
            Workload::PaperAll => 14,
            _ => 48,
        };
        assert_eq!(b.ops.len(), expected_ops, "{}", workload.name());
        assert_eq!(b.counted().len(), workload.jobs(1, TINY).len());
        assert!(golden::failures(&b.ops, None, None).is_empty());
        assert!(b.makespan_ns > 0 && b.sim_instrs > 0 && b.setup_ns > Some(0));
        for name in [
            "job",
            "setup",
            "trace.build",
            "pipeline.new",
            "mem.prewarm",
            "trace.generate",
            "run",
            "replay.mem",
            "replay.core",
        ] {
            assert!(
                b.spans.iter().any(|s| s.name == name),
                "{}: no {name} span",
                workload.name()
            );
        }
        // Children share their job's id and close inside their parent.
        for s in b.spans.iter().filter(|s| s.parent.is_some()) {
            let p = &b.spans[s.parent.unwrap() as usize];
            assert_eq!(p.job, s.job);
            assert!(p.start_ns <= s.start_ns && s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns);
        }
    }
}

/// `[name, unit, better]` of every metric in a `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<[String; 3]> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            ["name", "unit", "better"].map(|k| m.get(k).and_then(Json::as_str).unwrap().into())
        })
        .collect()
}

fn declared(defs: &[MetricDef]) -> Vec<[String; 3]> {
    defs.iter()
        .map(|d| [d.name.into(), d.unit.into(), d.better.into()])
        .collect()
}

#[test]
fn metric_names_match_benchmark_json_both_ways() {
    assert_eq!(listed("end_to_end"), declared(END_TO_END));
    assert_eq!(listed("per_layer"), declared(PER_LAYER));
    let workloads: Vec<[String; 2]> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| ["name", "why"].map(|k| w.get(k).and_then(Json::as_str).unwrap().into()))
        .collect();
    let ours: Vec<[String; 2]> = Workload::ALL
        .iter()
        .map(|w| [w.name().into(), w.why().into()])
        .collect();
    assert_eq!(workloads, ours);

    // The metrics actually computed are exactly the declared ones.
    let b = tiny_batch(Workload::SegSearch, 2);
    let names = |m: Vec<(String, f64)>| m.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    let defined = |d: &[MetricDef]| d.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
    assert_eq!(
        names(report::end_to_end(std::slice::from_ref(&b))),
        defined(END_TO_END)
    );
    assert_eq!(
        names(report::per_layer(std::slice::from_ref(&b), &[], 2)),
        defined(PER_LAYER)
    );
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let b = tiny_batch(Workload::StoreSquash, 2);
    for (name, value) in report::end_to_end(&[b]) {
        assert!(value > 0.0, "{name} = {value}");
    }
}

#[test]
fn json_output_round_trips() {
    let b = tiny_batch(Workload::MemBound, 2);
    let back = BatchReport::from_json(&Json::parse(&b.to_json().to_string()).unwrap())
        .expect("report parses back");
    assert_eq!(back.ops.len(), b.ops.len());
    for (x, y) in back.ops.iter().zip(&b.ops) {
        assert_eq!(x.diff(y), None, "{}", x.label);
    }
    assert_eq!(back.spans, b.spans);
    assert_eq!(back.makespan_ns, b.makespan_ns);

    let metrics = report::end_to_end(&[b]);
    let line = report::result_json(48, 0, &metrics).to_string();
    assert!(!line.contains('\n'));
    let parsed = Json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = parsed
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    for (name, value) in &metrics {
        let m = parsed.get("metrics").and_then(|m| m.get(name)).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(*value));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(report::unit(name))
        );
    }
}

#[test]
fn results_are_identical_with_one_and_two_workers() {
    let one = batch::run_batch(Workload::StoreSquash, 3, TINY, 1);
    let two = batch::run_batch(Workload::StoreSquash, 3, TINY, 2);
    assert_eq!(one.ops, two.ops);
    assert!(golden::failures(&two.ops, Some(&one.ops), None).is_empty());
}

#[test]
fn a_corrupted_reference_entry_fails_the_operation() {
    let ops = batch::run_batch(Workload::SegSearch, 2, TINY, 2).ops;
    let reference = Reference {
        seed: 2,
        sections: vec![(
            "seg_search".to_string(),
            Pass::Run.name().to_string(),
            ops.clone(),
        )],
    };
    let parsed = Reference::parse(&reference.render("test", "none")).expect("rendered file parses");
    let recorded = parsed.ops("seg_search", "run").expect("section present");
    assert!(golden::failures(&ops, Some(recorded), None).is_empty());

    // One counter of one job off by one, with its digest recomputed or
    // left stale: exactly that job fails, and the message names the job
    // and the field.
    let cycles = FIELDS.iter().position(|f| *f == "cycles").unwrap();
    for redigest in [true, false] {
        let mut corrupted = recorded.to_vec();
        let victim = &mut corrupted[7];
        victim.values[cycles] = Json::from(victim.values[cycles].as_u64().unwrap() + 1);
        if redigest {
            victim.digest = golden::digest(&Json::Arr(victim.values.clone()).to_string());
        }
        let failures = golden::failures(&ops, Some(&corrupted), None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with(&ops[7].label), "{}", failures[0]);
        assert!(failures[0].contains("field cycles"), "{}", failures[0]);
        let fail_rate = failures.len() as f64 / ops.len() as f64;
        assert!(fail_rate > 0.0);
    }
    // A digest off with every counter equal fails too (an artifact's
    // record is only a digest).
    let mut corrupted = recorded.to_vec();
    corrupted[3].digest = "0".repeat(16);
    assert_eq!(golden::failures(&ops, Some(&corrupted), None).len(), 1);

    // A missing record and a capped job fail too.
    assert_eq!(golden::failures(&ops, Some(&corrupted[1..]), None).len(), 2);
    let mut capped: Vec<Op> = ops.clone();
    capped[0].capped = true;
    assert_eq!(golden::failures(&capped, None, None).len(), 1);
}

#[test]
fn committed_reference_files_cover_every_workload_and_pass() {
    for seed in 1..=3 {
        let r = Reference::load(seed)
            .expect("reference file parses")
            .expect("reference file exists");
        assert_eq!(r.seed, seed);
        for workload in Workload::ALL {
            for pass in Pass::ALL {
                let ops = r.ops(workload.name(), pass.name()).expect("section");
                let expected = match workload {
                    Workload::PaperAll => 14,
                    _ => workload.jobs(seed, workload.budget(pass)).len(),
                };
                assert_eq!(ops.len(), expected, "seed {seed} {}", workload.name());
            }
        }
    }
}
