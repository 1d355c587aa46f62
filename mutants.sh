#!/usr/bin/env bash
# Re-checks the mutation ledger in mutants.tsv: for each row, the named test
# must pass on the committed tree and fail once the row's snippet is replaced.
#
#   ./mutants.sh           every row, in one reused scratch git worktree
#   ./mutants.sh --check   only that each snippet occurs exactly once in its
#                          file (no build; a step of ci.sh)
#
# The worktree is ${TMPDIR:-/tmp}/hypertp-mutants, checked out at HEAD, so
# commit before running. Each build or test run gets 600 s; a test that times
# out under a mutation counts as failing.
# Exits 1 if a snippet does not match, a test fails unmutated, a mutation does
# not build, or a test passes under its mutation.
set -euo pipefail
cd "$(dirname "$0")"
ledger="$(pwd)/mutants.tsv"

# Prints the rows of the ledger as tab-separated lines, comments dropped.
rows() { grep -v '^#' "${ledger}" | grep -v '^[[:space:]]*$'; }

# Occurrences of the literal $2 in file $1.
occurrences() { { grep -F -o -- "$2" "$1" 2>/dev/null || true; } | wc -l; }

bad=0
while IFS=$'\t' read -r file snippet _ _; do
  n=$(occurrences "${file}" "${snippet}")
  if [ "${n}" -ne 1 ]; then
    echo "stale row: ${file}: snippet occurs ${n} times: ${snippet}" >&2
    bad=1
  fi
done < <(rows)
if [ "${1:-}" = "--check" ]; then
  [ "${bad}" -eq 0 ] && echo "mutants.tsv: $(rows | wc -l) rows, every snippet matches once"
  exit "${bad}"
fi
[ "${bad}" -eq 0 ] || exit 1

wt="${TMPDIR:-/tmp}/hypertp-mutants"
limit=600
if [ ! -e "${wt}/.git" ]; then
  git worktree add -q --detach "${wt}" HEAD
fi
git -C "${wt}" reset -q --hard "$(git rev-parse HEAD)"
export CARGO_TARGET_DIR="${wt}/target"

# Runs `cargo test` with the row's arguments in the worktree, under the
# timeout; its exit status is the test's (124 on a timeout).
run_test() {
  # shellcheck disable=SC2086 # the ledger's test column is word-split on purpose
  (cd "${wt}" && timeout -k 10 "${limit}" cargo test -q --offline $1 >/dev/null 2>&1)
}

build_test() {
  # shellcheck disable=SC2086
  (cd "${wt}" && timeout -k 10 "${limit}" cargo test -q --offline --no-run $1 >/dev/null 2>&1)
}

start=${SECONDS}
echo "== baseline: every row's test passes on $(git rev-parse --short HEAD) =="
while IFS= read -r test; do
  if build_test "${test}" && run_test "${test}"; then
    echo "pass      ${test}"
  else
    echo "FAILS     ${test} (unmutated)"
    bad=1
  fi
done < <(rows | cut -f4 | sort -u)

echo "== mutations =="
row=0
while IFS=$'\t' read -r file snippet replacement test; do
  row=$((row + 1))
  t0=${SECONDS}
  git -C "${wt}" checkout -q -- .
  S="${snippet}" R="${replacement}" awk '{
      i = index($0, ENVIRON["S"])
      if (i) $0 = substr($0, 1, i - 1) ENVIRON["R"] substr($0, i + length(ENVIRON["S"]))
      print
    }' "${wt}/${file}" > "${wt}/${file}.mutant"
  mv "${wt}/${file}.mutant" "${wt}/${file}"
  if ! build_test "${test}"; then
    verdict="NO BUILD"
    bad=1
  else
    status=0
    run_test "${test}" || status=$?
    case ${status} in
      0) verdict="SURVIVED" bad=1 ;;
      124) verdict="caught (timeout)" ;;
      *) verdict="caught" ;;
    esac
  fi
  printf 'row %d  %-16s %4ds  %s: %s\n' "${row}" "${verdict}" $((SECONDS - t0)) "${file}" "${snippet}"
done < <(rows)
git -C "${wt}" checkout -q -- .
echo "total $((SECONDS - start)) s"
exit "${bad}"
