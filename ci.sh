#!/usr/bin/env sh
# CI entry point: tier-1 verify in Release and Debug with warnings as errors
# (test suite run twice: forced-scalar and auto SIMD dispatch), a
# reachability audit (every src/ function reaches a bench, example or
# perfbench binary, or is allowlisted with its reason), a bench-smoke stage
# that exercises the JSON/compare pipeline plus the kernel-backend
# determinism gate, an ASan+UBSan pass, chaos, traffic, mesh, scale, resil
# and impair smoke stages driving the fault, net, backhaul, metro,
# control-plane and impairment benches under the sanitizers (plus a
# full-size bench_d1_fleet compare gate for the SoA service rewire, and a
# check that the bench count flags and examples/metro_world reject counts
# below 1, --threshold rejects nan and negative values, and --compare
# rejects an over-deep JSON file, each with exit 2), a TSan pass over the
# test suite for the code that still shares state across threads (the
# GridIndex cost counters, the MetroWorld shards and sim::ThreadPool), and a
# docs stage (skipped with a notice when doxygen is absent).
# Usage: ./ci.sh [extra ctest args...]
set -eu

for config in Release Debug; do
  echo "=== ${config} build (-Wall -Wextra -Werror) ==="
  build_dir="build-ci-$(echo "${config}" | tr '[:upper:]' '[:lower:]')"
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${config}" \
    -DCMAKE_CXX_FLAGS="-Werror"
  cmake --build "${build_dir}" -j
  # Whole suite under both dispatch modes: the scalar run proves the
  # reference implementations, the auto run proves the SIMD backends the
  # host supports (they must be bit-identical — see tests/test_kern.cpp).
  for kern in scalar auto; do
    echo "--- ctest (MMTAG_KERN=${kern}) ---"
    (cd "${build_dir}" && MMTAG_KERN="${kern}" ctest --output-on-failure -j "$@")
  done
done

echo "=== Reachability (gc-sections build, allowlist exact) ==="
tools/reachability.sh build-ci-reach

echo "=== Bench smoke (JSON schema + self-compare + kern determinism) ==="
# Reduced-size runs through the full harness path: write a
# schema-validated BENCH_*.json, then self-compare (exit 1 on
# regression, 2 on schema error). Reports are archived in bench-out/,
# including the per-backend kernel report CI publishes for speedup
# tracking.
bench_dir="build-ci-release/bench"
out_dir="bench-out"
mkdir -p "${out_dir}"
"${bench_dir}/bench_kernels" --csv --warmup 1 --repeat 3 \
  --json "${out_dir}/BENCH_kernels.json" > /dev/null
"${bench_dir}/bench_kernels" --csv --warmup 1 --repeat 3 \
  --compare "${out_dir}/BENCH_kernels.json" --threshold 1.0 > /dev/null
"${bench_dir}/bench_e4_ber" --check-kern
"${bench_dir}/bench_d1_fleet" --csv --readers 4 --tags 100 --epochs 4 \
  --json "${out_dir}/BENCH_d1_fleet.json" > /dev/null
"${bench_dir}/bench_d1_fleet" --csv --readers 4 --tags 100 --epochs 4 \
  --compare "${out_dir}/BENCH_d1_fleet.json" --threshold 1.0 > /dev/null
echo "bench smoke OK: $(ls ${out_dir}/BENCH_*.json | tr '\n' ' ')"

echo "=== ASan+UBSan build (test suite + one instrumented bench) ==="
build_dir="build-ci-asan"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "${build_dir}" -j --target mmtag_tests bench_d1_fleet \
  bench_d2_chaos bench_n1_traffic bench_m1_mesh bench_d3_metro \
  bench_r1_resil bench_i1_impair bench_c4_energy metro_world
# Both dispatch modes under the sanitizers: the SIMD loadu/storeu edge
# handling is exactly where ASan earns its keep.
for kern in scalar auto; do
  echo "--- ctest ASan+UBSan (MMTAG_KERN=${kern}) ---"
  (cd "${build_dir}" && MMTAG_KERN="${kern}" ctest --output-on-failure -j "$@")
done
# Drive the instrumented fleet bench (spans, counters, cache histograms)
# under the sanitizers at reduced size.
"${build_dir}/bench/bench_d1_fleet" --csv --readers 2 --tags 50 --epochs 2 \
  --warmup 0 --repeat 1 > /dev/null

echo "=== Chaos smoke (fault injection under ASan, obs metrics on) ==="
# The chaos bench self-checks determinism across thread counts and the
# recovery-beats-none margin (exit 1 on violation); MMTAG_OBS defaults ON,
# so the JSON report embeds the fault.* metrics. Self-compare closes the
# loop through the mmtag.bench.v1 schema + threshold gate.
"${build_dir}/bench/bench_d2_chaos" --csv --readers 4 --tags 100 \
  --epochs 3 --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_d2_chaos.json" > /dev/null
"${build_dir}/bench/bench_d2_chaos" --csv --readers 4 --tags 100 \
  --epochs 3 --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_d2_chaos.json" --threshold 1.0 > /dev/null
echo "chaos smoke OK: ${out_dir}/BENCH_d2_chaos.json"

echo "=== Traffic smoke (net stack under ASan, JSON self-compare) ==="
# The traffic bench self-checks report-fingerprint determinism across
# thread counts and the SR-beats-stop-and-wait goodput margin under a 10%
# outage schedule (exit 1 on violation). Reduced size: the pool-backed
# SR-ARQ path, rate adaptation and the fleet admission pass all run under
# the sanitizers.
"${build_dir}/bench/bench_n1_traffic" --csv --readers 2 --tags 50 \
  --flows 100 --packets 16 --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_n1_traffic.json" > /dev/null
"${build_dir}/bench/bench_n1_traffic" --csv --readers 2 --tags 50 \
  --flows 100 --packets 16 --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_n1_traffic.json" --threshold 1.0 > /dev/null
echo "traffic smoke OK: ${out_dir}/BENCH_n1_traffic.json"

echo "=== Bench bad inputs (rejected with exit 2, not an abort) ==="
# Counts below 1 once reached the layout, the SR session or the metro grid
# as negative allocation sizes (exit 134), a zero-reader fleet (exit 139),
# a division by zero (exit 136) or silent nan tables (exit 0). Every count
# flag is registered with bench::Parser::add_count, which rejects them
# through the parser's bad-value path. --threads above sim::kMaxThreads
# (1024) once asked the OS for that many threads; it takes the same path.
# Under the sanitizers any crash also surfaces as an exit code other
# than 2.
for bad in n1_traffic:packets:-5 n1_traffic:flows:-3 n1_traffic:tags:-1 \
    e4_ber:threads:1025 d1_fleet:threads:100000 \
    d1_fleet:readers:0 d1_fleet:tags:0 d1_fleet:epochs:0 \
    d2_chaos:readers:0 d2_chaos:tags:0 d2_chaos:epochs:0 \
    d3_metro:tags:0 d3_metro:margin-tags:0 d3_metro:epochs:0 d3_metro:grid:0 \
    m1_mesh:readers:0 m1_mesh:tags:0 m1_mesh:epochs:0 \
    n1_traffic:readers:0 n1_traffic:tags:0 n1_traffic:flows:0 \
    n1_traffic:packets:0 \
    r1_resil:readers:0 r1_resil:tags:0 r1_resil:epochs:0 \
    r1_resil:metro-tags:0 r1_resil:metro-epochs:0 r1_resil:grid:0; do
  bench="${bad%%:*}"
  rest="${bad#*:}"
  flag="--${rest%%:*}"
  value="${rest#*:}"
  rc=0
  "${build_dir}/bench/bench_${bench}" "${flag}" "${value}" \
    > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: bench_${bench} ${flag} ${value} exited ${rc}, expected 2"
    exit 1
  fi
done
# examples/metro_world parses its own flags; --tags -5 once aborted in
# vector::reserve (exit 134).
for bad in tags:0 tags:-5 epochs:0; do
  rc=0
  "${build_dir}/examples/metro_world" "--${bad%%:*}" "${bad#*:}" \
    > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: metro_world --${bad%%:*} ${bad#*:} exited ${rc}, expected 2"
    exit 1
  fi
done
# The examples that parse --threads themselves once let a value above
# sim::kMaxThreads escape main as std::invalid_argument (exit 134); they
# now refuse it with usage before any worker starts.
for example in coverage_map metro_backhaul metro_world warehouse_chaos \
    warehouse_fleet warehouse_inventory; do
  rc=0
  "${build_dir}/examples/${example}" --threads 1025 > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: ${example} --threads 1025 exited ${rc}, expected 2"
    exit 1
  fi
done
# Under --threshold nan no regression test is ever true, so every compare
# passed; a negative threshold was accepted too (both exited 0).
for bad in nan -1; do
  rc=0
  "${build_dir}/bench/bench_c4_energy" --threshold "${bad}" \
    > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: bench_c4_energy --threshold ${bad} exited ${rc}, expected 2"
    exit 1
  fi
done
# A --compare file of 200000 '[' then 200000 ']' overflowed the recursive
# JSON parser's stack (exit 139); the parser now caps the nesting depth.
deep_json=$(mktemp)
head -c 200000 /dev/zero | tr '\0' '[' > "${deep_json}"
head -c 200000 /dev/zero | tr '\0' ']' >> "${deep_json}"
rc=0
"${build_dir}/bench/bench_c4_energy" --csv --warmup 0 --repeat 1 \
  --compare "${deep_json}" > /dev/null 2>&1 || rc=$?
rm -f "${deep_json}"
if [ "${rc}" -ne 2 ]; then
  echo "FAIL: bench_c4_energy --compare <200000-deep JSON> exited ${rc}, expected 2"
  exit 1
fi
echo "bench bad inputs OK"

echo "=== Mesh smoke (reader backhaul under ASan, JSON self-compare) ==="
# The mesh bench self-checks backhaul-fingerprint determinism across
# thread counts and the failover-beats-frozen-tables delivery margin under
# a 10% reader-outage schedule (exit 1 on violation). Reduced size: the
# link-state flood, Yen alternates, the zero-copy forwarding plane and the
# mesh-aware orphan re-handoff all run under the sanitizers.
"${build_dir}/bench/bench_m1_mesh" --csv --readers 16 --tags 200 \
  --epochs 3 --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_m1_mesh.json" > /dev/null
"${build_dir}/bench/bench_m1_mesh" --csv --readers 16 --tags 200 \
  --epochs 3 --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_m1_mesh.json" --threshold 1.0 > /dev/null
echo "mesh smoke OK: ${out_dir}/BENCH_m1_mesh.json"

echo "=== Scale smoke (metro world under ASan, JSON self-compare) ==="
# A 50k-tag slice of the metro bench self-checks the scale layer's two
# hard claims — bit-identical state fingerprints across {1,4,hw}-thread
# epochs, and the >= 10x indexed-vs-linear candidate margin — with the
# SoA gather/slab paths and the grid index running under the sanitizers.
"${build_dir}/bench/bench_d3_metro" --csv --tags 50000 --margin-tags 50000 \
  --epochs 2 --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_d3_metro.json" > /dev/null
"${build_dir}/bench/bench_d3_metro" --csv --tags 50000 --margin-tags 50000 \
  --epochs 2 --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_d3_metro.json" --threshold 1.0 > /dev/null
# The fleet accumulates per-tag service straight into its returned
# vector<TagService>; gate the full 16-reader / 2000-tag baseline through
# the compare pipeline as well.
"${bench_dir}/bench_d1_fleet" --csv --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_d1_fleet_baseline.json" > /dev/null
"${bench_dir}/bench_d1_fleet" --csv --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_d1_fleet_baseline.json" --threshold 1.0 \
  > /dev/null
echo "scale smoke OK: ${out_dir}/BENCH_d3_metro.json"

echo "=== Resil smoke (control plane under ASan, JSON self-compare) ==="
# bench_r1_resil hard-gates the resilience control plane's four claims —
# thread-count-invariant detection fingerprints, <= 2-epoch detection
# lag under chaos(0.5), a strict goodput margin for control-plane-on
# under a correlated-domain incident, and bit-identity with the legacy
# world when the plumbing is dormant — here with the monitor and the
# adoption remap running under the sanitizers.
"${build_dir}/bench/bench_r1_resil" --csv --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_r1_resil.json" > /dev/null
"${build_dir}/bench/bench_r1_resil" --csv --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_r1_resil.json" --threshold 1.0 > /dev/null
echo "resil smoke OK: ${out_dir}/BENCH_r1_resil.json"

echo "=== Impair smoke (impairment pipeline under ASan, JSON self-compare) ==="
# bench_i1_impair front-loads the suite's three hard contracts — bypass
# bit-identical to the legacy chain, and the all-stages-on sweep
# bit-identical across {1,4,hw} threads and across the scalar/auto kern
# backends (exit 1 on violation) — then measures the per-stage
# BER/goodput deltas. Running it under the sanitizers exercises the four
# new SIMD kernels' loadu/storeu edges and the per-stage derived-stream
# draws; the JSON self-compare closes the mmtag.bench.v1 loop.
"${build_dir}/bench/bench_i1_impair" --csv --warmup 0 --repeat 1 \
  --json "${out_dir}/BENCH_i1_impair.json" > /dev/null
"${build_dir}/bench/bench_i1_impair" --csv --warmup 0 --repeat 1 \
  --compare "${out_dir}/BENCH_i1_impair.json" --threshold 1.0 > /dev/null
echo "impair smoke OK: ${out_dir}/BENCH_i1_impair.json"

echo "=== TSan build (GridIndex cost counters, MetroWorld shards, pool) ==="
# The GridIndex query-cost counters are relaxed atomics bumped from the
# MetroWorld epoch shards, which write disjoint store slots from
# sim::ThreadPool workers. ThreadSanitizer over the suite proves both
# contracts and the pool they ride on.
build_dir="build-ci-tsan"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "${build_dir}" -j --target mmtag_tests
(cd "${build_dir}" && ctest --output-on-failure -j "$@")
echo "TSan OK"

echo "=== Docs (Doxygen, warnings fatal for src/kern src/obs src/fault src/impair) ==="
# The Doxyfile sets WARN_AS_ERROR, so undocumented public members in the
# covered directories fail this stage. Containers without doxygen skip it
# with a notice rather than masquerading as a pass elsewhere.
if command -v doxygen > /dev/null 2>&1; then
  cmake --build build-ci-release --target docs
  echo "docs OK: build-ci-release/docs/html"
else
  echo "docs SKIPPED: doxygen not installed on this host"
fi

echo "=== CI OK: Release + Debug (-Werror, scalar+auto), reachability, bench smoke, ASan+UBSan, chaos smoke, traffic smoke, bench bad inputs, mesh smoke, scale smoke, resil smoke, impair smoke, TSan, docs ==="
