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

echo "== benchmark/ still compiles against the public API it imports (its tests too) =="
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets

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

echo "== what no workload runs stays deleted (a thread or an Exchange/Merge operator in the engine; FragmentSpec, ClassLayout or decompose_vertical/decompose_horizontal; IndexJoin, EjIdx, applicable_join_indexes or EJ^idx, or require_index; CostWeights, FixProfile(s), CostParams::calibrated, parse_snapshot, lint_fix_drift, lint_spill_drift or lint_breaker_budget, in non-test src, crates/*/src or examples, or a crates/cost/*.toml snapshot; equivalent_toggle, proven_worse, PrunedProven or subtree_cost there; CostFeatures there, or deltas or fn mass in non-test crates/cost/src; a walk candidate rejected by the verifier in non-test crates/core/src; delta_active in non-test crates/exec/src, a read of temp_fields in crates/lint/src/phys.rs, or TempFields in non-test crates/bench/src; temp_rows_hint or hint_temp_rows in non-test crates/*/src, or with_temp in non-test crates/{pt,core,lint,bench}/src, src or examples, fails) =="
if grep -nE 'thread::(scope|spawn)' $(nontest crates/exec/src) ||
    grep -nwE 'Exchange|Merge' $(nontest crates/pt/src crates/exec/src); then
    echo "intra-query parallelism was removed because no workload ran it (CHANGES.md, PR 28): bring it back" \
        "only with a BENCHMARK.json workload that runs it and a number it improves" >&2
    exit 1
fi
if grep -nwE 'FragmentSpec|ClassLayout|decompose_(vertical|horizontal)' $(nontest src crates/*/src examples); then
    echo "horizontal and vertical decomposition (§3.2) was removed because no figure, workload or served" \
        "query ran it (DESIGN §2): bring it back only with a BENCHMARK.json workload that runs it" >&2
    exit 1
fi
if grep -nwE 'IndexJoin|EjIdx|applicable_join_indexes' $(nontest src crates/*/src examples) ||
    grep -nF 'EJ^idx' $(nontest src crates/*/src examples); then
    echo "the index-nested-loop join was removed because no figure, workload or corpus plan chose it:" \
        "an explicit join is Figure 5's nested loop (DESIGN §7); join-algorithm choice comes back with" \
        "ROADMAP item 10, together with a BENCHMARK.json workload that runs it" >&2
    exit 1
fi
if grep -nw 'require_index' $(nontest src crates/*/src examples); then
    echo "a Sel^idx is a probe or a PT005 refusal (DESIGN §7): the filter that still demanded its index" \
        "was removed because only hand-built and fuzzed plans reached it" >&2
    exit 1
fi
if grep -nwE 'CostWeights|FixProfiles?|parse_snapshot|lint_(fix|spill)_drift|lint_breaker_budget' \
    $(nontest src crates/*/src examples) ||
    grep -nF 'CostParams::calibrated' $(nontest src crates/*/src examples) ||
    find crates/cost -maxdepth 1 -name '*.toml' ! -name Cargo.toml | grep .; then
    echo "one cost model serves, CostParams::default() (ROADMAP item 11): the fitted weights, fixpoint" \
        "profiles and residency model were removed because no served plan was priced under them" >&2
    exit 1
fi
if grep -nwE 'equivalent_toggle|proven_worse|PrunedProven|subtree_cost' $(nontest src crates/*/src examples); then
    echo "the analyzer bounds what the executor counts and prices nothing: the walk's proof pruning and the" \
        "cost intervals only it read were removed because the cost model turned down every plan they pruned" \
        "(ROADMAP item 2c)" >&2
    exit 1
fi
if grep -nw 'CostFeatures' $(nontest src crates/*/src examples) ||
    grep -nwE 'deltas|fn mass' $(nontest crates/cost/src); then
    echo "a plan node's estimate is one Cost, and a fixpoint's recursive leg is estimated once, under the" \
        "one delta its modeled curve holds, and scaled by the pass count: the feature vector and the per-pass" \
        "re-estimation were removed because nothing read them (ROADMAP item 2d)" >&2
    exit 1
fi
if grep -nw 'delta_active' $(nontest crates/exec/src) ||
    grep -nw 'temp_fields' crates/lint/src/phys.rs ||
    grep -nw 'TempFields' $(nontest crates/bench/src); then
    echo "a temporary is in scope only in its fixpoint's recursive leg, where every scan of it reads the" \
        "last pass's delta (oorq_pt::resolve states it once): the executor's run-time delta binding, the" \
        "environment-seeded PX005 scope and the bench crate's temporary-shape tables were removed because no" \
        "complete plan needs them (ROADMAP item 13a)" >&2
    exit 1
fi
if grep -nwE 'temp_rows_hint|hint_temp_rows' $(nontest crates/*/src) ||
    grep -nw 'with_temp' $(nontest crates/pt/src crates/core/src crates/lint/src crates/bench/src src examples); then
    echo "a recursive leg is planned against its own fixpoint's open temporary (CostModel::open_temp, set by" \
        "plan_fix only while it plans that leg): the optimizer's query-wide temporary registry was removed" \
        "because it let a plan price a scan of a temporary outside its fixpoint (ROADMAP item 19)" >&2
    exit 1
fi

if grep -nE 'verifier rejected the move|rejected by the verifier' $(nontest crates/core/src); then
    echo "the randomized walk judges a move by its cost alone, in every build: tests/plan_closure.rs lints," \
        "executes and compares with the reference every plan neighbours reaches from a corpus plan, so the" \
        "per-candidate lint that only debug builds ran was removed (ROADMAP item 15)" >&2
    exit 1
fi

echo "== release builds are one optimized program (.cargo/config.toml without lto = \"fat\" and codegen-units = 1 under [profile.release], or a Cargo.toml with a [profile.release] of its own, fails) =="
if ! awk '/^[[:space:]]*\[/ { release = /^[[:space:]]*\[profile\.release\][[:space:]]*(#.*)?$/ }
    release && /^[[:space:]]*lto[[:space:]]*=[[:space:]]*"fat"[[:space:]]*(#.*)?$/ { lto = 1 }
    release && /^[[:space:]]*codegen-units[[:space:]]*=[[:space:]]*1[[:space:]]*(#.*)?$/ { cgu = 1 }
    END { exit !(lto && cgu) }' .cargo/config.toml 2>/dev/null ||
    find . \( -name target -o -name '.?*' \) -prune -o -name Cargo.toml -print |
    xargs -r grep -nE '^[[:space:]]*\[profile\.release[].]'; then
    echo "every release binary (server, reproduce, benchmark) is built with fat LTO and one codegen unit," \
        "stated once in .cargo/config.toml, which also reaches benchmark/'s own workspace: without it a" \
        "warm hit's storage calls are not inlined and warm-recursive p50 goes from 0.63 to 0.87 ms (EXPERIMENTS.md," \
        "Release profile)" >&2
    exit 1
fi

echo "== a row costs its values, not an allocation (a per-row Vec built in crates/exec/src/pipeline.rs fails) =="
if grep -nE '\]\.concat\(\)|vec!\[Value::|\.iter\(\)\.cloned\(\)\.chain\(' crates/exec/src/pipeline.rs; then
    echo "operators write a row's values into the flat chunk buffer their consumer keeps (DESIGN §7," \
        "What a chunk is made of); tests/allocations.rs holds a served hit to its allocation ceiling" >&2
    exit 1
fi

echo "== a row is hashed by RowSet (RandomState, DefaultHasher or HashSet<Vec<Value>> in non-test crates/exec/src outside rowset.rs and reference.rs, or impl Hasher, impl std::hash::Hasher or BuildHasherDefault outside rowset.rs, fails) =="
if grep -nE 'RandomState|DefaultHasher|HashSet<Vec<Value>>' \
    $(nontest crates/exec/src | grep -vE '^crates/exec/src/(rowset|reference)\.rs$'); then
    echo "the executor asks \"seen?\" of a row through RowSet (crates/exec/src/rowset.rs, DESIGN §7," \
        "Deduplicated once); only the reference evaluator keeps a set of its own" >&2
    exit 1
fi
if grep -nE 'impl[[:space:]]+(std::hash::)?Hasher([^[:alnum:]_]|$)|BuildHasherDefault' \
    $(nontest crates/exec/src | grep -vE '^crates/exec/src/rowset\.rs$'); then
    echo "the executor hashes a row or a key with RowSet's keyed folded multiply (crates/exec/src/rowset.rs:" \
        "RowSet, and KeyTable for a nested loop's held inner); a second hasher is a second set of" \
        "collisions to reason about" >&2
    exit 1
fi

echo "== a query is written once, as OQL text (a query graph assembled outside the parser and Figure 2 fails) =="
if grep -nF 'SpjNode {' $(nontest src crates/*/src examples | grep -vE '^crates/query/src/(parse|paper)\.rs$') |
    grep -vF 'struct SpjNode {'; then
    echo "write the query as text beside its schema (oorq_query::paper, oorq_datagen) and read it with" \
        "oorq_query::parse_query: only the parser and Figure 2 (whose tree label no text states) build an SpjNode" >&2
    exit 1
fi

echo "== a trace has one export, the Chrome file its readers load (a pub fn to_…( in non-test crates/obs/src other than to_chrome fails) =="
if grep -nE 'pub fn to_[A-Za-z0-9_]*[(<]' $(nontest crates/obs/src) | grep -vF 'pub fn to_chrome('; then
    echo "the benchmark, CI and reproduce trace-check read the Chrome trace (Trace::to_chrome); a second" \
        "export of a Trace needs a reader in the repo first" >&2
    exit 1
fi

echo "== a query graph is admitted by one check in every build (a QueryGraph::validate in crates/query/src/graph.rs, or the optimizer's admission lint behind debug_assertions, fails) =="
if grep -nF 'fn validate(&self, catalog' crates/query/src/graph.rs; then
    echo "oorq_lint::lint_graph is the one check that admits a query graph (DESIGN §6): a second" \
        "checker disagrees with it, as validate did on recursion" >&2
    exit 1
fi
if ! awk '/fn optimize_inner\(/ { inner = 1 }
    inner && /debug_assertions/ { print FILENAME ":" FNR ": " $0; gated = 1 }
    inner && /verify_graph\(&g, "normalize/ { admitted = !gated; inner = 0 }
    /fn verify_graph\(/ { body = 1 }
    body && /debug_assertions/ { print FILENAME ":" FNR ": " $0; gated = 1 }
    body && /oorq_lint::lint_graph\(/ { lints = 1 }
    body && /^    }$/ { body = 0 }
    END { exit !(admitted && lints && !gated) }' crates/core/src/optimizer.rs; then
    echo "Optimizer::optimize must admit the normalized graph with oorq_lint::lint_graph" \
        "(verify_graph) in release builds too: only the post-rewrite re-check is a debug assertion" >&2
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

echo "== release: every plan the walk can reach from every corpus plan answers like the reference (the debug run above took the small entries), the release build announces the debug build's decisions, and a mutated query text is answered or refused as in debug (the optimizer verifies no plan in release, so admission must refuse what it cannot plan) =="
cargo test -q --release --test plan_closure
cargo test -q --release -p oorq-bench --test decision_sink
cargo test -q --release --test query_text_fuzz

echo "== release allocation ceilings (a served hit's heap allocations; the workspace tests above checked the debug profile's) =="
cargo test -q --release --test allocations

echo "CI OK"
