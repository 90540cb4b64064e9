#!/usr/bin/env sh
# Reachability audit: every strong (T) mmtag:: function that the src/
# libraries define must survive in at least one product binary (a bench,
# an example or perfbench) of a gc-sections build, or be listed in
# tools/reachability.allow under a comment header that gives the reason it
# is kept. The reason is one of reference, inverse, observer or item 2
# (see the allowlist). The audit fails on
#   - an unreached function that the allowlist does not name (new
#     test-only code must be listed, with its reason, or deleted),
#   - a header that gives any other reason, and
#   - an allowlist entry that is reached again or no longer exists (the
#     list stays exact, so it can only shrink).
# Usage: tools/reachability.sh [build-dir]        (default: build-reach)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-build-reach}
allow="${root}/tools/reachability.allow"

# -O0 -fno-inline keeps every call a call, so a function a product uses is
# never folded away; one section per function lets --gc-sections drop
# exactly the functions nothing reaches. NDEBUG matches the shipped
# Release binaries, so code reached only from assert() counts as unreached.
cxx_flags="-O0 -fno-inline -ffunction-sections -fdata-sections -DNDEBUG"
ld_flags="-Wl,--gc-sections"

configure() {
  cmake -B "$1" -S "$2" -DCMAKE_BUILD_TYPE=Reach \
    -DCMAKE_CXX_FLAGS="${cxx_flags}" -DCMAKE_EXE_LINKER_FLAGS="${ld_flags}" \
    > /dev/null
}
# The audited libraries are the src/<dir> subprojects, each building
# mmtag_<dir>. They are built by name, so a library that only tests link
# is audited too, and a stale archive of a deleted one is never read.
libs=$(cd "${root}/src" && for f in */CMakeLists.txt; do dirname "${f}"; done)
configure "${build_dir}" "${root}"
cmake --build "${build_dir}" -j --target mmtag_benches mmtag_examples \
  $(printf 'mmtag_%s ' ${libs}) > /dev/null
# perfbench is its own CMake project over the same src/.
configure "${build_dir}/perfbench" "${root}/perfbench"
cmake --build "${build_dir}/perfbench" -j --target perfbench > /dev/null

tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT INT TERM
export LC_ALL=C

# "address T name": keep the demangled name of every mmtag:: symbol of the
# given types.
symbols() {
  types=$1
  shift
  nm -C --defined-only "$@" |
    awk -v t="${types}" 'index(t, $2) && $3 ~ /^mmtag::/ {
      sub(/^[^ ]+ [^ ]+ /, ""); print }' |
    sort -u
}

archives=
for lib in ${libs}; do
  archive="${build_dir}/src/${lib}/libmmtag_${lib}.a"
  if [ ! -f "${archive}" ]; then
    echo "FAIL: src/${lib} built no ${archive}"
    exit 1
  fi
  archives="${archives} ${archive}"
done
symbols T ${archives} > "${tmp}/defined"
products=$(find "${build_dir}/bench" "${build_dir}/examples" \
  -maxdepth 1 -type f -perm -u+x)
symbols Tt ${products} "${build_dir}/perfbench/perfbench" > "${tmp}/linked"
comm -23 "${tmp}/defined" "${tmp}/linked" > "${tmp}/unreached"

# Entries are the non-comment, non-blank lines. Each must belong to a
# group opened by a "# <reason>: ..." header line; a blank line closes the
# group. The reason must name one of four kinds of safety code, so
# no catch-all group can collect code that should be deleted instead.
if ! awk '/^# [A-Za-z0-9 ]+: / {
            if ($0 !~ /^# (reference|inverse|observer|item 2): /) {
              print "FAIL: allowlist reason is not reference, inverse, observer or item 2: " $0 > "/dev/stderr"
              bad = 1
            }
            header = 1; next }
          /^#/ { next }
          /^[ \t]*$/ { header = 0; next }
          !header { print "FAIL: allowlist entry outside a reason group: " $0 > "/dev/stderr"; bad = 1; next }
          { print }
          END { exit bad }' "${allow}" > "${tmp}/listed.raw"; then
  exit 1
fi
sort "${tmp}/listed.raw" > "${tmp}/listed"
dups=$(uniq -d "${tmp}/listed")
if [ -n "${dups}" ]; then
  echo "FAIL: duplicate allowlist entries:"
  echo "${dups}"
  exit 1
fi

status=0
comm -23 "${tmp}/unreached" "${tmp}/listed" > "${tmp}/unlisted"
if [ -s "${tmp}/unlisted" ]; then
  echo "FAIL: functions no product binary reaches (delete them, or list them in tools/reachability.allow with a reason):"
  sed 's/^/  /' "${tmp}/unlisted"
  status=1
fi
comm -13 "${tmp}/unreached" "${tmp}/listed" > "${tmp}/stale"
if [ -s "${tmp}/stale" ]; then
  echo "FAIL: allowlist entries that are reached or no longer exist (remove them):"
  sed 's/^/  /' "${tmp}/stale"
  status=1
fi
if [ "${status}" -ne 0 ]; then
  exit "${status}"
fi
echo "reachability OK: $(wc -l < "${tmp}/unreached") of $(wc -l < "${tmp}/defined") mmtag:: functions unreached, all allowlisted"
