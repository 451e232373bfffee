//! v3 pass tests: the interprocedural determinism-taint analysis
//! (L-DET-FLOW), the unordered-iteration pass (L-DET-ITER), the widened
//! clock/entropy pass (L-DET-CLOCK), and the retirement of the
//! token-level L-NONDET id it replaces — and of L-FLOATEQ, L-LOCK and
//! L-WIRE, whose properties clippy, L-LOCKGRAPH and the pinned wire
//! encodings now check.

use snn_lint::{lint_source, passes};

/// Findings as `(line, id)` pairs.
fn findings(path: &str, source: &str) -> Vec<(u32, &'static str)> {
    lint_source(path, source, &["cluster.coordinator".to_string()])
        .into_iter()
        .map(|d| (d.line, d.id))
        .collect()
}

/// Full diagnostics (for message assertions).
fn diags(path: &str, source: &str) -> Vec<snn_lint::Diagnostic> {
    lint_source(path, source, &["cluster.coordinator".to_string()])
}

// ------------------------------------------------------------ L-DET-FLOW

#[test]
fn det_flow_reports_the_propagation_path_two_calls_away() {
    // Taint introduced in `entropy`, laundered through `indirection`,
    // bound to `x`, sunk into the digest — the finding must carry the
    // whole interprocedural chain, like an L-LOCKGRAPH cycle report.
    let src = "fn entropy() -> u64 {\n\
               \x20   thread_rng()\n\
               }\n\
               fn indirection() -> u64 {\n\
               \x20   entropy()\n\
               }\n\
               fn run() -> u64 {\n\
               \x20   let x = indirection();\n\
               \x20   verdict_digest(x)\n\
               }\n";
    let out = diags("crates/cluster/src/pipeline.rs", src);
    assert_eq!(
        out.iter().map(|d| (d.line, d.id)).collect::<Vec<_>>(),
        vec![(9, "L-DET-FLOW")],
        "{out:?}"
    );
    let msg = &out[0].message;
    for leg in ["thread_rng", "`entropy()`", "`indirection()`", "`x`", "FNV verdict digest"] {
        assert!(msg.contains(leg), "chain leg {leg:?} missing from {msg:?}");
    }
}

#[test]
fn det_flow_clean_when_the_value_is_deterministic() {
    let src = "fn seed() -> u64 {\n\
               \x20   42\n\
               }\n\
               fn run() -> u64 {\n\
               \x20   let x = seed();\n\
               \x20   verdict_digest(x)\n\
               }\n";
    assert_eq!(findings("crates/cluster/src/pipeline.rs", src), vec![]);
}

#[test]
fn det_flow_catches_a_source_nested_directly_in_the_sink_call() {
    // `verdict_digest(thread_rng())` lexes the sink before the nested
    // source; the statement-chain lookahead must still connect them.
    let src = "fn f() -> u64 {\n\
               \x20   verdict_digest(thread_rng())\n\
               }\n";
    let out = findings("crates/cluster/src/pipeline.rs", src);
    assert_eq!(out, vec![(2, "L-DET-FLOW")]);
}

#[test]
fn det_flow_sort_sanitizes_iteration_order_taint() {
    // Sorting is the documented fix: the sorted binding no longer flows
    // taint into the digest. The raw `.keys()` call on a HashMap field
    // is still an L-DET-ITER finding — order must never *start* from an
    // unordered walk in digest code without being forced deterministic,
    // and here it was, so only the ITER diagnostic remains.
    let sorted = "struct S {\n\
                  \x20   map: HashMap<u64, u64>,\n\
                  }\n\
                  fn f(s: &S) -> u64 {\n\
                  \x20   let mut ks = s.map.keys();\n\
                  \x20   ks.sort_unstable();\n\
                  \x20   verdict_digest(ks)\n\
                  }\n";
    assert_eq!(findings("crates/cluster/src/pipeline.rs", sorted), vec![(5, "L-DET-ITER")]);

    let unsorted = "struct S {\n\
                    \x20   map: HashMap<u64, u64>,\n\
                    }\n\
                    fn f(s: &S) -> u64 {\n\
                    \x20   let ks = s.map.keys();\n\
                    \x20   verdict_digest(ks)\n\
                    }\n";
    assert_eq!(
        findings("crates/cluster/src/pipeline.rs", unsorted),
        vec![(5, "L-DET-ITER"), (6, "L-DET-FLOW")]
    );
}

#[test]
fn det_flow_is_out_of_scope_in_the_service_crate() {
    // Job metadata legitimately carries wall-clock values; the service
    // crate is deliberately outside the digest-equality scope.
    let src = "fn f() -> u64 {\n\
               \x20   verdict_digest(thread_rng())\n\
               }\n";
    assert_eq!(findings("crates/service/src/store.rs", src), vec![]);
}

// ------------------------------------------------------------ L-DET-ITER

#[test]
fn det_iter_flags_hashmap_iteration_and_not_btreemap() {
    let bad = "struct R {\n\
               \x20   regions: HashMap<String, f64>,\n\
               }\n\
               fn render(r: &R) {\n\
               \x20   for kv in r.regions.iter() {\n\
               \x20       emit(kv);\n\
               \x20   }\n\
               }\n";
    let out = diags("crates/reliability/src/report_v3.rs", bad);
    assert_eq!(out.iter().map(|d| (d.line, d.id)).collect::<Vec<_>>(), vec![(5, "L-DET-ITER")]);
    assert!(out[0].message.contains("BTreeMap"), "fix hint missing: {:?}", out[0].message);

    let good = bad.replace("HashMap", "BTreeMap");
    assert_eq!(findings("crates/reliability/src/report_v3.rs", &good), vec![]);
}

#[test]
fn det_iter_ignores_ordered_collections_and_out_of_scope_crates() {
    // Vec iteration is ordered; HashMap iteration outside the digest
    // crates is someone else's problem.
    let vec_src = "fn f(v: &Vec<u64>) {\n\
                   \x20   let total = v.iter();\n\
                   }\n";
    assert_eq!(findings("crates/cluster/src/pipeline.rs", vec_src), vec![]);

    let service_src = "struct S {\n\
                       \x20   jobs: HashMap<u64, u64>,\n\
                       }\n\
                       fn f(s: &S) {\n\
                       \x20   let n = s.jobs.values();\n\
                       }\n";
    assert_eq!(findings("crates/service/src/store.rs", service_src), vec![]);
}

// ----------------------------------------------------------- L-DET-CLOCK

#[test]
fn det_clock_flags_the_widened_source_set_in_scope() {
    let src = "fn f() {\n\
               \x20   let t = SystemTime::now();\n\
               \x20   let v = rand::random();\n\
               }\n";
    assert_eq!(
        findings("crates/faults/src/sim.rs", src),
        vec![(2, "L-DET-CLOCK"), (3, "L-DET-CLOCK")]
    );
    // Same code outside the reproducibility scope: clean.
    assert_eq!(findings("crates/service/src/server.rs", src), vec![]);
}

// --------------------------------------------- retired ids

const RETIRED: [&str; 4] = ["L-NONDET", "L-FLOATEQ", "L-LOCK", "L-WIRE"];

#[test]
fn l_nondet_is_retired_everywhere() {
    for id in RETIRED {
        assert!(passes::registry().iter().all(|p| p.id != id), "{id}");
        assert!(!passes::known_ids().contains(&id), "{id}");
        assert!(passes::explain(id).is_none(), "{id}");
    }
}

#[test]
fn migrated_allow_suppresses_and_stale_l_nondet_allow_is_a_finding() {
    // The migration path: allow(L-NONDET) directives were rewritten to
    // allow(L-DET-CLOCK). The rewritten form suppresses cleanly…
    let migrated = "fn f() {\n\
                    \x20   // snn-lint: allow(L-DET-CLOCK): sanctioned fixture read\n\
                    \x20   Instant::now();\n\
                    }\n";
    assert_eq!(findings("crates/core/src/generator.rs", migrated), vec![]);

    // …while a leftover allow of any retired id is loudly wrong: the
    // finding it would suppress resurfaces and the id is unknown.
    for id in RETIRED {
        let stale = format!(
            "fn f() {{\n\
             \x20   // snn-lint: allow({id}): sanctioned fixture read\n\
             \x20   Instant::now();\n\
             }}\n"
        );
        let out = diags("crates/core/src/generator.rs", &stale);
        let ids: Vec<&str> = out.iter().map(|d| d.id).collect();
        assert!(ids.contains(&"L-DET-CLOCK"), "{id}: {out:?}");
        assert!(
            out.iter().any(|d| d.id == "L-ALLOW" && d.message.contains("unknown lint id")),
            "{id}: {out:?}"
        );
    }
}

// ------------------------------------------------------------- --explain

#[test]
fn every_det_pass_is_listed_and_explained() {
    for id in ["L-DET-FLOW", "L-DET-ITER", "L-DET-CLOCK"] {
        assert!(passes::registry().iter().any(|p| p.id == id), "{id} missing from registry");
        let lint = passes::explain(id).unwrap_or_else(|| panic!("{id}"));
        assert!(!lint.summary.is_empty() && !lint.scope.is_empty());
        assert!(lint.explain.len() > 80, "--explain {id} rationale too thin: {:?}", lint.explain);
    }
}
