#!/bin/sh
# sweepd_smoke.sh is the end-to-end acceptance check for the sweep
# service: start sweepd over a fresh store, submit a Figure 1 class S
# job over HTTP, tail its NDJSON event stream to completion, poll it to
# done, fetch one cell record, assert the telemetry histograms on
# /metrics, and require the daemon's store to be byte-identical
# (diff -r) to one written by the sweep CLI running the same cells in
# another process. Record encoding is deterministic (no timestamps),
# and so is every simulation at full team width, however far behind its
# recording a cell replays, which is what makes a literal directory
# diff a valid oracle. A final section runs the host-telemetry flow of
# EXPERIMENTS.md's "explaining a slow sweep" recipe and gates the
# report's stage-attribution contract (>= 90%).
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d)
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

go build -o "$work/sweep" ./cmd/sweep
go build -o "$work/sweepd" ./cmd/sweepd
go build -o "$work/traceview" ./cmd/traceview

"$work/sweepd" -addr 127.0.0.1:18080 -store "$work/daemon-store" -jobs 2 2>"$work/sweepd.log" &
daemon_pid=$!

# Wait for the listener.
for i in $(seq 1 50); do
	if curl -sf http://127.0.0.1:18080/metrics >/dev/null 2>&1; then
		break
	fi
	[ "$i" = 50 ] && { echo "sweepd did not start"; cat "$work/sweepd.log"; exit 1; }
	sleep 0.2
done

# Submit the job and poll until done.
job=$(curl -sf -d '{"kind":"figure1","options":{"class":"S","benches":["BT"],"seed":42}}' \
	http://127.0.0.1:18080/v1/jobs)
id=$(printf '%s' "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "no job id in response: $job"; exit 1; }

# Tail the live event stream in the background; it ends by itself when
# the job reaches a terminal state.
curl -sN "http://127.0.0.1:18080/v1/jobs/$id/events" >"$work/events.ndjson" &
tail_pid=$!

state=""
for i in $(seq 1 150); do
	status=$(curl -sf "http://127.0.0.1:18080/v1/jobs/$id")
	state=$(printf '%s' "$status" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
	case "$state" in
	done) break ;;
	failed) echo "job failed: $status"; exit 1 ;;
	esac
	sleep 0.2
done
[ "$state" = "done" ] || { echo "job stuck in state '$state'"; exit 1; }

# The event tail must have closed itself and carry the full lifecycle,
# including per-cell outcomes with a fast-path kind.
wait "$tail_pid" || { echo "event stream tail failed"; exit 1; }
for ev in job_queued job_started cell_started cell_done job_done; do
	grep -q "\"type\":\"$ev\"" "$work/events.ndjson" ||
		{ echo "event stream lacks $ev"; cat "$work/events.ndjson"; exit 1; }
done
grep -q '"kind":' "$work/events.ndjson" ||
	{ echo "cell_done events lack fast-path kinds"; cat "$work/events.ndjson"; exit 1; }

# /metrics must expose the telemetry histograms and the build-info gauge.
curl -sf http://127.0.0.1:18080/metrics >"$work/metrics.txt"
for want in \
	'# TYPE upmgo_sweepd_job_queue_seconds histogram' \
	'upmgo_sweepd_job_run_seconds_count{state="done"} 1' \
	'# TYPE upmgo_sweepd_http_request_seconds histogram' \
	'# TYPE upmgo_sweep_cell_host_seconds histogram' \
	'upmgo_build_info{'; do
	grep -qF "$want" "$work/metrics.txt" ||
		{ echo "/metrics lacks: $want"; cat "$work/metrics.txt"; exit 1; }
done

# One cell must be fetchable and non-empty.
addr=$(printf '%s' "$status" | sed -n 's/.*"address": "\([a-f0-9]*\)".*/\1/p' | head -1)
[ -n "$addr" ] || { echo "no cell address in status"; exit 1; }
curl -sf "http://127.0.0.1:18080/v1/cells/$addr" | grep -q '"payload_sha256"' ||
	{ echo "cell record missing integrity envelope"; exit 1; }

# The CLI, in a separate process and store, must write the identical
# records for the same cells.
"$work/sweep" -fig 1 -class S -benches BT -quiet -store "$work/cli-store" >/dev/null
diff -r "$work/daemon-store" "$work/cli-store" ||
	{ echo "daemon and CLI stores differ"; exit 1; }

# Graceful drain: SIGTERM must stop the daemon cleanly.
kill -TERM "$daemon_pid"
for i in $(seq 1 50); do
	kill -0 "$daemon_pid" 2>/dev/null || break
	sleep 0.2
done
if kill -0 "$daemon_pid" 2>/dev/null; then
	echo "sweepd did not exit on SIGTERM"
	exit 1
fi
daemon_pid=""
grep -q "drained" "$work/sweepd.log" || { echo "no drain notice in log"; cat "$work/sweepd.log"; exit 1; }

# Host telemetry: the EXPERIMENTS.md "explaining a slow sweep" flow.
# The Class W -all -steady report must attribute >= 90% of host time to
# named stages, and its why-not histogram must name the incompressible
# kernel-migration cells.
"$work/sweep" -all -class W -steady -quiet -report "$work/report.json" >/dev/null
"$work/traceview" report -in "$work/report.json" >"$work/report.txt"
attr=$(sed -n 's/.*(\([0-9.]*\)% of host time attributed).*/\1/p' "$work/report.txt")
[ -n "$attr" ] || { echo "report lacks the attribution ratio"; cat "$work/report.txt"; exit 1; }
awk "BEGIN{exit !($attr >= 90)}" ||
	{ echo "stage attribution $attr% below the 90% contract"; cat "$work/report.txt"; exit 1; }
grep -qE 'homes_moving.*(BT|CG|SP) (rand|rr|wc)-IRIXmig classW' "$work/report.txt" ||
	{ echo "why-not histogram does not name the kmig cells"; cat "$work/report.txt"; exit 1; }

echo "sweepd smoke OK: job $id done, events streamed, histograms live, cell $addr served, stores byte-identical, drain clean, report attribution ${attr}%"
