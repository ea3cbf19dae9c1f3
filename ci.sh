#!/bin/sh
# Repo CI gate. Run from the repo root; ends with `CI OK`.
set -eu
reproduce=target/release/reproduce

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors: a broken or private intra-doc link fails) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== benchmark/ still compiles against the public API it imports =="
cargo check --offline --manifest-path benchmark/Cargo.toml

echo "== one numbering, one output rule (a node map keyed by *const Pt outside oorq_pt::node_ids, a second format!(\"{var}.{n}\") in pt/cost/analysis, or lint deriving columns itself, fails) =="
nontest() { find "$@" -name '*.rs' ! -name 'tests.rs' ! -name '*_tests.rs'; }
if awk 'FNR == 1 { keep = 0 }
    /^pub fn node_ids\(/ { keep = 1 }
    !keep && /\*const Pt/ { print FILENAME ":" FNR ": " $0; found = 1 }
    keep && /^}/ { keep = 0 }
    END { exit !found }' $(nontest src crates/*/src); then
    echo "pointer-keyed node map: number nodes with Pt::preorder / oorq_pt::resolve" >&2
    exit 1
fi
rules=$(cat $(nontest crates/pt/src crates/cost/src crates/analysis/src) | grep -cF 'format!("{var}.{n}")' || true)
if [ "$rules" -ne 1 ]; then
    echo "the qualified-column rule is stated $rules times; oorq_pt::resolve states it once" >&2
    exit 1
fi
if grep -nF -e 'output_columns(' -e "rsplit('.')" $(nontest crates/lint/src); then
    echo "the plan lint derives columns or a temporary's shape itself: read oorq_pt::resolve_each" >&2
    exit 1
fi

echo "== one engine, and it is serial (a thread in the executor, or an Exchange/Merge operator in pt or exec, fails) =="
if grep -nE 'thread::(scope|spawn)' $(nontest crates/exec/src) ||
    grep -nwE 'Exchange|Merge' $(nontest crates/pt/src crates/exec/src); then
    echo "intra-query parallelism was removed because no workload ran it (DESIGN §12): bring it back" \
        "only with a BENCHMARK.json workload that runs it and a number it improves" >&2
    exit 1
fi

echo "== a row costs its values, not an allocation (a per-row Vec built in crates/exec/src/pipeline.rs fails) =="
if grep -nE '\]\.concat\(\)|vec!\[Value::|\.iter\(\)\.cloned\(\)\.chain\(' crates/exec/src/pipeline.rs; then
    echo "operators write a row's values into the flat chunk buffer their consumer keeps (DESIGN §7," \
        "What a chunk is made of); tests/allocations.rs holds a served hit to its allocation ceiling" >&2
    exit 1
fi

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo build --release =="
cargo build --release --workspace

echo "== benchmark, quick: OQL text in, answer bytes out through oorq-serve (wrong answer, failed request or invalid trace fails) =="
benchmark/run.sh --quick >target/benchmark-quick.txt

echo "== the quick benchmark's exact counts vs crates/bench/benchmark_counts.txt (a plan, counter, page touch, row count or optimizer decision moved) =="
counts='sim_io_pages_per_query|plan_regret|exec\.query\.evals|storage\.page_hits|storage\.page_misses|index\.reads|exec\.fix\.iterations|exec\.fix\.delta_mass|storage\.page_evictions|storage\.page_writes|storage\.spill_evictions|storage\.temp_page_reads|exec\.query\.rows|exec\.op\.scan\.rows|exec\.op\.EJ\.rows|exec\.op\.Proj\.rows|exec\.op\.Fix\.rows|exec\.op\.Sel\.rows|exec\.op\.IJ\.rows|exec\.op\.PIJ\.rows|optimizer\.candidates\.(enumerated|accepted|rejected|pruned|pruned_proven)|optimizer\.push_decisions|optimizer\.plan_nodes|cost\.calls_per_optimize'
grep -E "^(warm-recursive|cold-adhoc|spill-closure) ($counts) " target/benchmark-quick.txt |
    cut -d' ' -f1-4 >target/benchmark-counts.txt
grep -v '^#' crates/bench/benchmark_counts.txt | diff - target/benchmark-counts.txt

echo "== plan quality: every workload's cost-controlled plan executes within 1.10x of the cheapest strategy's (the count diff above pins three workloads' exact value; this also holds concurrent-mixed, and any re-recording, to the bound) =="
if ! awk '$2 == "plan_regret" { seen++; if ($4 > 1.10) { print; bad = 1 } }
    END { exit bad || !seen }' target/benchmark-quick.txt; then
    echo "plan_regret above 1.10 (printed above), or none reported" >&2
    exit 1
fi

echo "== per-operator wall time stays populated: every workload's exec.op.<kind>.rows above 0 has its exec.op.<kind>.wall_ns above 0 (whatever reads Executor::run's report, such as the traced replay, must not be sent through an unprofiled Executor::answer) =="
if ! awk '$2 ~ /^exec\.op\.[^.]+\.rows$/ && $4 > 0 { k = $1 " " $2; sub(/\.rows$/, "", k); rows[k] = 1 }
    $2 ~ /^exec\.op\.[^.]+\.wall_ns$/ && $4 > 0 { k = $1 " " $2; sub(/\.wall_ns$/, "", k); wall[k] = 1 }
    END { for (k in rows) { seen++; if (!(k in wall)) { print k ".wall_ns"; bad = 1 } }
        exit bad || !seen }' target/benchmark-quick.txt; then
    echo "operators with rows but no wall time (printed above), or no operator rows reported" >&2
    exit 1
fi

echo "== reproduce all vs the checked-in golden (every figure and the PASS line of each that checks an invariant, byte for byte) =="
$reproduce all | diff - reproduce_output.txt

echo "== reproduce metrics-gate (recorder overhead caps, wall clock) =="
$reproduce metrics-gate

echo "== low-budget differential re-runs (spilling breakers, byte-identical answers) =="
# Budget 8 spills fixpoint temporaries; budget 1 also spills a held
# nested-loop inner between the passes that re-read it.
for budget in 8 1; do
    OORQ_MEMORY_BUDGET=$budget cargo test -q --release --test differential --test serve_differential
done

echo "CI OK"
