#!/bin/sh
# The tier-1 gate, runnable with no network access and no registry
# cache: hermetic build, warning-free docs, the full test suite (the
# figure goldens and the queue-protocol matrix included), and smoke
# passes of the fuzzer and the repository benchmark. Every step can
# fail.
set -eux

cargo build --release --offline --workspace
# Every intra-doc link resolves to a public item (about 5 s), so a
# deleted or private item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q
# The suite includes the panic-site budget (tests/panic_budget.rs) and
# the full figure set on ref inputs against repro_full.txt plus the
# quick Figure 7, ablation and explain (text and JSON) goldens
# (crates/harness/tests/repro_cli.rs); that the parallel and serial
# paths render the same bytes is held by parallel_determinism.rs, and
# skip ≡ per-cycle ≡ reference by tests/decoded_equivalence.rs. The
# static queue-protocol validator must pass the full kernel × scheduler
# × ±COCO matrix — the partitions the figures measure, GREMIO
# arbitrated — at depth 1 (gmt-harness
# verify::tests::every_matrix_cell_verifies), and still catch every
# planted defect class (crates/core/tests/mtverify_mutations.rs).
cargo test -q --offline --workspace

# Differential-fuzzer smoke: a deterministic-seed run of the pipeline
# fuzzer (corpus replay + 1000 fresh cases — twice the 500 this step ran
# before COCO and verify_mt cost what their inputs require, in the same
# second and a half; offline, well under 60 s). The three timed engines
# (reference, fast-forward, per-cycle) are held to equal cycles and
# also to equal stall tables (every `CoreStats` field) and cache hit
# levels; the first of the five QueueEmpty-vs-SaPort seeds in the corpus
# is one of these 1000 cases, so a fast-forward that credits a stall
# cycle to the wrong reason fails here. On a third of the cases the
# sequential program itself also runs on the three timed engines, which
# holds the fast-forward engine's one-core loop to the same checks. Any
# finding exits nonzero; its seed is printed and persisted, and
# `GMT_TESTKIT_SEED=<seed> cargo run --release -p gmt-fuzz --bin fuzz`
# replays exactly that case (the same replay command works for every
# entry in tests/fuzz_corpus/corpus.txt).
./target/release/fuzz --cases 1000 --quiet

# Repository-benchmark smoke: all six workloads once (P=1, no warm-up,
# no traced run; under 10 s). Exits nonzero on `correct: false`, so a
# change that breaks a name bound in benchmark/src/api.rs, a pinned
# count in benchmark/expected/ or the eval_quick golden fails here
# rather than in the pipeline. Builds into benchmark/target (ignored).
# The benchmark crate is outside the workspace, so its own unit tests
# (statistics, comparison rule, span accounting, and the self-test that
# a flipped pin fails a run) are run here and by nothing else.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke
