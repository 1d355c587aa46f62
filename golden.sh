#!/usr/bin/env bash
# Golden outputs: the stdout, stderr and exit status of `exp all`, of the
# hypertpctl command lines below and of the four examples, one file per line
# under golden/.
#
#   ./golden.sh            runs every line twice, under HYPERTP_WORKERS=1 and
#                          under the default pool, and compares each output
#                          with its golden file (a step of ci.sh)
#   ./golden.sh --record   re-records every golden file (default pool)
#
# Every line runs in a scratch directory, under a timeout, so a line that
# should be refused cannot leave a file in the tree or block. Exits 1 naming
# each line whose output differs, with its diff.
set -euo pipefail
cd "$(dirname "$0")"
root=$(pwd)
record=0
case "${1:-}" in
  "") ;;
  --record) record=1 ;;
  *) echo "usage: $0 [--record]" >&2; exit 2 ;;
esac

cargo build -q --release --offline --workspace --bins --examples
bin="${CARGO_TARGET_DIR:-${root}/target}/release"
work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT

# Appends one run's block to golden file $1: the command line, the exit
# status, stdout and stderr (read from $2.out and $2.err).
block() {
  local file=$1 run=$2 status=$3
  shift 3
  {
    echo "\$ $*"
    echo "exit ${status}"
    echo "--- stdout"
    cat "${run}.out"
    echo "--- stderr"
    cat "${run}.err"
  } >>"${file}"
}

# Runs one line, `name program args...`, into $out/name.txt.
line() {
  local name=$1 prog=$2
  shift 2
  local status=0
  (cd "${work}/cwd" && timeout 300 "${bin}/${prog}" "$@") \
    >"${work}/run.out" 2>"${work}/run.err" || status=$?
  block "${out}/${name}.txt" "${work}/run" "${status}" "${prog}" "$@"
}

# Runs the two-process proxy pair, `name source-args...`: the destination
# in the background on a fresh socket, then the source. Both blocks go to
# $out/name.txt, the destination's first; neither output names the socket.
pair() {
  local name=$1
  shift
  local sock="${work}/cwd/proxy.sock" dst_status=0 src_status=0
  (cd "${work}/cwd" && timeout 300 "${bin}/hypertpctl" proxy dest --socket "${sock}") \
    >"${work}/dst.out" 2>"${work}/dst.err" &
  local dst_pid=$!
  (cd "${work}/cwd" && timeout 300 "${bin}/hypertpctl" proxy source --socket "${sock}" "$@") \
    >"${work}/src.out" 2>"${work}/src.err" || src_status=$?
  wait "${dst_pid}" || dst_status=$?
  rm -f "${sock}"
  block "${out}/${name}.txt" "${work}/dst" "${dst_status}" hypertpctl proxy dest --socket SOCKET
  block "${out}/${name}.txt" "${work}/src" "${src_status}" hypertpctl proxy source --socket SOCKET "$@"
}

# Every golden line, each checked more strictly than a grep for one of its
# lines: exact stdout, stderr and exit status, in a scratch cwd that must stay
# empty, under both worker counts.
all_lines() {
  line exp_all exp all
  # The §4.2 proxy pair over a real Unix-domain socket: the source exits 0
  # only after verifying the destination's echoed RAM checksum.
  pair proxy_pair
  # A 4 GiB guest: its round 0 is more frame bytes than the 16 MiB cap on
  # one message (MAX_FRAME_BYTES), so only the part stream can carry it.
  pair proxy_pair_mem4 --mem 4
  # The same 4 GiB guest in process: round 0 is 512 parts, through the one
  # part loop both destinations share.
  line migrate_mem4 hypertpctl migrate --mem 4
  # Onto Xen: round 0 reads the destination's current words by walking its
  # P2M's memory map, and the Xen source logs dirty pages in a bitmap over
  # the 4 GiB span.
  line migrate_to_xen_mem4 hypertpctl migrate --to xen --mem 4
  # inplace_dense's maximum-density shape, both directions: the post-kexec
  # tail reserves, adopts, checks and releases the frame runs of twelve
  # guests, and the command fails if any guest's memory changed or was left
  # unowned.
  line transplant_xen_kvm hypertpctl transplant --machine m1 --vms 12 --mem 1 --from xen --to kvm
  line transplant_kvm_xen hypertpctl transplant --machine m1 --vms 12 --mem 1 --from kvm --to xen
  # The feed replay: --blind switches the planning mode shown, and both runs
  # print the integrated-exposure footer.
  line feed hypertpctl feed --hosts 30 --days 90
  line feed_blind hypertpctl feed --hosts 30 --days 90 --blind
  # The path to SLO-aware admission: --slo-aware switches the admission
  # policy shown.
  line fleet hypertpctl fleet --vms 3
  line fleet_slo_aware hypertpctl fleet --vms 3 --slo-aware
  # Malformed command lines, each must exit 1 and create no file. A flag
  # takes no value and a valued option needs one: `--blind false` must not
  # plan blind, and a bare `--socket` must not bind a socket file named after
  # a placeholder. A zero count runs nothing, so it must be refused rather
  # than report a transplant of no VM or a plan of no host, and so must a
  # guest of no memory.
  line reject_blind_false hypertpctl feed --hosts 30 --days 30 --blind false
  line reject_bare_socket hypertpctl proxy dest --socket
  line reject_transplant_vms0 hypertpctl transplant --vms 0
  line reject_cluster_hosts0 hypertpctl cluster --hosts 0
  line reject_transplant_mem0 hypertpctl transplant --mem 0
  line reject_migrate_mem0 hypertpctl migrate --mem 0
  # The examples: they keep compiling and running, and print what they did.
  line example_quickstart examples/quickstart
  line example_migration_vs_inplace examples/migration_vs_inplace
  line example_datacenter_upgrade examples/datacenter_upgrade
  line example_vulnerability_response examples/vulnerability_response
}

# Runs every line into a fresh directory $out.
run_all() {
  out=$1
  rm -rf "${out}" "${work}/cwd"
  mkdir -p "${out}" "${work}/cwd"
  all_lines
  if [ -n "$(ls -A "${work}/cwd")" ]; then
    echo "error: a golden line left a file behind: $(ls -A "${work}/cwd")" >&2
    exit 1
  fi
}

if [ "${record}" -eq 1 ]; then
  (unset HYPERTP_WORKERS && run_all "${root}/golden")
  echo "golden/: $(ls golden | wc -l) files recorded"
  exit 0
fi

bad=0
for workers in 1 default; do
  if [ "${workers}" = default ]; then
    (unset HYPERTP_WORKERS && run_all "${work}/${workers}")
  else
    (export HYPERTP_WORKERS="${workers}" && run_all "${work}/${workers}")
  fi
  for want in golden/*.txt; do
    got="${work}/${workers}/$(basename "${want}")"
    if ! diff -u "${want}" "${got}"; then
      echo "golden: ${want} differs (HYPERTP_WORKERS=${workers})" >&2
      bad=1
    fi
  done
  if [ "$(ls "${work}/${workers}" | wc -l)" -ne "$(ls golden/*.txt | wc -l)" ]; then
    echo "golden: the line list and golden/ disagree; re-record" >&2
    bad=1
  fi
done
[ "${bad}" -eq 0 ] && echo "golden: $(ls golden/*.txt | wc -l) lines match under HYPERTP_WORKERS=1 and the default"
exit "${bad}"
