#!/usr/bin/env bash
# CI gate: build, test, lint. Run from the repo root.
#
# Note the two test invocations: the root package is both a [workspace]
# and a [package], so a bare `cargo test` covers only the root crate's
# integration tests (the tier-1 gate); `--workspace` adds every member
# crate's unit and integration tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== test (root package / tier-1) =="
cargo test -q

echo "== test (workspace) =="
cargo test --workspace -q

echo "== srm-node (wall-clock transport binary builds) =="
cargo build --release -p srm-transport --bin srm-node

echo "== transport loopback (live-UDP loss recovery) =="
cargo test -q --test transport_loopback

echo "== transport chaos (seeded determinism, wheel churn, blackhole heal) =="
cargo test -q --test transport_chaos

echo "== transport batch equivalence (batched vs portable backends, byte-identical) =="
cargo test -q --test transport_batch

echo "== soak smoke (bounded chaos run, invariant gate; DESIGN.md §9) =="
timeout 60 ./target/release/srm-node soak --nodes 3 --secs 3 --adus 2 --seed 7 \
    --chaos "loss=0.1,dup=0.05,reorder=0.15:30ms,jitter=20ms,burst=0.9@1s+1.5s,blackhole=2@1s+1.5s"

echo "== metrics + monitor loopback (registry snapshots, passive group health) =="
cargo test -q -p srm-transport --test metrics_monitor

echo "== monitor smoke (stats + monitor JSONL end-to-end, schema-validated) =="
cargo build --release -p srm-experiments
./target/release/srm-node send --id 1 --bind 127.0.0.1:7611 \
    --peers 127.0.0.1:7612,127.0.0.1:7619 --members 2 --duration 4 \
    --text ci-smoke --quiet \
    --stats-file target/ci_stats.jsonl --stats-interval 0.5 &
SEND_PID=$!
./target/release/srm-node join --id 2 --bind 127.0.0.1:7612 \
    --peers 127.0.0.1:7611,127.0.0.1:7619 --members 2 --duration 4 --quiet &
JOIN_PID=$!
timeout 30 ./target/release/srm-node monitor --bind 127.0.0.1:7619 \
    --duration 5 --refresh 0.5 --quiet --out target/ci_monitor.jsonl
wait $SEND_PID $JOIN_PID
./target/release/srm-experiments monitor \
    --monitor target/ci_monitor.jsonl --stats target/ci_stats.jsonl --validate

echo "== durable store (WAL unit + property tests) =="
cargo test -q -p srm-store

echo "== durable rejoin smoke (kill -9 -> restart -> repair-from-disk, live UDP) =="
STORE_DIR=$(mktemp -d target/ci_store.XXXXXX)
# Phase 1: a durable sender logs one ADU, then dies hard mid-session.
./target/release/srm-node send --id 1 --bind 127.0.0.1:7621 \
    --peers 127.0.0.1:7622 --members 2 --duration 30 --quiet \
    --text durable-smoke --store "$STORE_DIR" --fsync always &
DUR_PID=$!
sleep 2
kill -9 $DUR_PID
wait $DUR_PID 2>/dev/null || true
# Phase 2: it restarts from the log; a fresh late joiner must recover the
# pre-crash ADU via a repair only the rehydrated store can serve.
timeout 30 ./target/release/srm-node join --id 1 --bind 127.0.0.1:7621 \
    --peers 127.0.0.1:7622 --members 2 --duration 8 --quiet \
    --store "$STORE_DIR" &
REJOIN_PID=$!
timeout 30 ./target/release/srm-node join --id 2 --bind 127.0.0.1:7622 \
    --peers 127.0.0.1:7621 --members 2 --duration 8 > target/ci_durable.out &
LATE_PID=$!
wait $REJOIN_PID $LATE_PID
grep -q "durable-smoke" target/ci_durable.out \
    || { echo "durable rejoin smoke: late joiner never recovered the pre-crash ADU" >&2; exit 1; }
grep -q "repair" target/ci_durable.out \
    || { echo "durable rejoin smoke: ADU arrived but not via repair" >&2; exit 1; }
rm -rf "$STORE_DIR"

echo "== ADU store vs its tree-based reference model (in memory, fake log; the real WAL ran above) =="
cargo test -q -p srm --test store_equivalence

echo "== recovery state ends (500 loss rounds x 4 configs in the simulator; fuzzed frames; 10 000 lossy ADUs live) =="
cargo test -q -p srm --test state_ends
cargo test -q --test agent_fuzz
cargo test -q --test transport_loopback ten_thousand_lossy_adus_leave_no_recovery_state_behind

echo "== simulator timers and dispatch (a late cancel leaves nothing; a panicking handler keeps its app) =="
cargo test -q -p netsim --lib -- cancel_after_fire_leaves_nothing_behind \
    a_panicking_handler_leaves_its_app_installed timers_fire_and_cancel \
    crash_silences_node_and_invalidates_timers

echo "== one decode per simulated transmission (shared slot in netsim::Packet; memo path = decode-per-receiver path) =="
cargo test -q -p netsim --lib -- a_transmission_is_decoded_once_however_many_receive_it \
    copies_share_one_decode_slot the_first_type_to_fill_the_slot_wins
cargo test -q --test decode_once

echo "== simulator queue order and fan-out (the FIFO lane, where a flood's arrival batches go, pops in one heap's order; the fan table is the pruned SPT children; a leave mid-flood prunes the flood's later copies) =="
cargo test -q -p netsim --lib -- lane_and_heap_pop_in_single_heap_order \
    monotone_hops_take_the_lane_and_the_rest_the_heap fan_table_is_the_pruned_spt_children \
    a_leave_inside_on_packet_prunes_the_rest_of_a_flood_in_flight run_until_advances_clock

echo "== floods move one instant at a time (one queue entry carries a transmission's copies for one arrival instant, and handlers run in the order one entry per copy gave them: the same-instant tie sweep and the Fig. 4 round keep their pinned hashes, decoding once keeps the event log, netsim's unit tests pass) =="
cargo test -q --test flood_order
cargo test -q --test perf_invariants
cargo test -q --test decode_once
cargo test -q -p netsim --lib

echo "== one deadline queue (netsim's DeadlineQueue pops in one heap's (at, seq) order under push, push_fifo and retain; the live timer wheel and the chaos hold-back queue are instances of it, the wheel with the simulator's live-timer-map cancellation and a bounded dead-entry count; a chaos duration or hold-back past the clock is refused) =="
cargo test -q -p netsim --lib event::
cargo test -q -p srm-transport --lib -- wheel:: chaos::
cargo test -q --test transport_chaos wheel_churn

echo "== one shortest-path tree per root per session (the lazy-deletion Dijkstra equals the heap-tuple reference; a Fig. 4 session and an srm-sim scenario compute each root's tree once) =="
cargo test -q -p netsim --lib lazy_kernel_matches_the_heap_tuple_reference
cargo test -q -p srm-experiments --lib a_session_computes_each_roots_tree_once
cargo test -q -p srm-sim --lib a_scenario_computes_each_members_tree_once

echo "== allocation budget (exact heap allocations per sent and per received ADU, live pair and hub-hosted group) =="
cargo test -q --test alloc_budget

echo "== receiving a frame for less (one clock reading per live handler, node and hub shard; the slice decoder equals the Buf-cursor reference; integer-nanosecond timestamps; an arrival's gap list leaves the arriving name out) =="
cargo test -q --test live_clock
cargo test -q --test wire_properties
cargo test -q -p srm --lib -- nanosecond_timestamps_roundtrip_exactly_at_2_pow_60 \
    an_arrival_reports_only_the_names_before_it

echo "== golden trace (observability JSONL pins; the rate-limited one is the only pin on the token bucket and send priorities) =="
cargo test -q --test golden_trace
cargo test -q --test golden_trace rate_limited_recovery_matches_golden

echo "== srm-hub smoke (4 groups via control TCP, delivery + clean drain) =="
cargo build --release -p srm-transport --bin srm-hub
# One hub process hosts four groups; each group has a standalone srm-node
# receiver that prints whatever it delivers. The whole drive — create,
# publish, drain, stop — goes through the line-JSON control TCP port.
timeout 60 ./target/release/srm-hub --bind 127.0.0.1:7641 \
    --control 127.0.0.1:7642 --shards 2 --quiet &
HUB_PID=$!
HUBRX_PIDS=()
for g in 1 2 3 4; do
    timeout 60 ./target/release/srm-node join --id 2 --bind 127.0.0.1:$((7650+g)) \
        --peers 127.0.0.1:7641 --group "$g" --members 2 --duration 12 \
        > "target/ci_hub_g$g.out" &
    HUBRX_PIDS+=($!)
done
sleep 1
exec 9<>/dev/tcp/127.0.0.1/7642
for g in 1 2 3 4; do
    printf '{"cmd":"create","group":%d,"peers":["127.0.0.1:%d"],"members":2}\n' \
        "$g" $((7650+g)) >&9
done
for g in 1 2 3 4; do
    printf '{"cmd":"send","group":%d,"text":"hub-smoke-g%d","count":3}\n' "$g" "$g" >&9
done
sleep 3
for g in 1 2 3 4; do printf '{"cmd":"drain","group":%d}\n' "$g" >&9; done
printf '{"cmd":"stop"}\n' >&9
timeout 30 cat <&9 > target/ci_hub_ctrl.out || true
exec 9<&- 9>&-
wait $HUB_PID
wait "${HUBRX_PIDS[@]}"
for g in 1 2 3 4; do
    grep -q "hub-smoke-g$g" "target/ci_hub_g$g.out" \
        || { echo "srm-hub smoke: group $g receiver never delivered its ADUs" >&2; exit 1; }
done
[ "$(grep -c '"ok":true,"cmd":"create"' target/ci_hub_ctrl.out)" -eq 4 ] \
    || { echo "srm-hub smoke: control plane did not ack 4 creates" >&2; exit 1; }
[ "$(grep -c '"ok":true,"cmd":"drain"' target/ci_hub_ctrl.out)" -eq 4 ] \
    || { echo "srm-hub smoke: control plane did not ack 4 clean drains" >&2; exit 1; }
grep -q '"ok":true,"cmd":"stop"' target/ci_hub_ctrl.out \
    || { echo "srm-hub smoke: hub never acked stop" >&2; exit 1; }

echo "== srmbench (own workspace: compiles against the transport API, unit tests, smoke) =="
# The benchmark driver builds srmbench/ from its own manifest, so nothing
# above compiles it; a break in the API it imports must show up here.
# One test is skipped, for now: it checks CPU shares inside a 130 ms
# wall-clock window and fails about one run in ten on a 2-core box, with
# or without any change here. srmbench/ is frozen (BENCHMARK.json
# `paths`), so the fix is a benchmark PR of its own — ROADMAP, open item
# "srmbench: de-flake cpu::tests::own_threads…"; drop the skip with it.
cargo test --offline --manifest-path srmbench/Cargo.toml -q -- \
    --skip own_threads_are_subtracted_and_foreign_ones_are_not
cargo run --quiet --release --offline --manifest-path srmbench/Cargo.toml -- --smoke

echo "== control plane bounds (a 100 000-byte line, 20 000 nested arrays and a non-UTF-8 line cost one error reply each, not the process or the connection) =="
cargo test -q --test hub oversized_and_deeply_nested_control_lines_get_one_error_reply_each
# obs::json is the workspace's one JSON parser (control lines, scenario
# files, monitor digests): depth cap, surrogate pairs, strict \u digits,
# finite numbers, and the never-panic / round-trip properties.
cargo test -q -p obs --lib json::

echo "== distance estimation across a live restart (an echo of a future timestamp is ignored) =="
cargo test -q -p srm --lib an_echo_from_the_future_leaves_the_estimate_alone
cargo test -q --test agent_fuzz an_echo_of_a_future_timestamp_leaves_the_distance_estimate_alone

echo "== a clock stepped backwards (receive times in the local future echo a zero delay; sessions keep running) =="
cargo test -q -p srm --lib a_clock_stepped_backwards_echoes_zero_delay
cargo test -q -p srm --test fault_recovery a_clock_stepped_backwards_keeps_sessions_running

echo "== inbound bound (a stalled reactor's socket buffer overflows; the kernel's drops are counted via SO_RXQ_OVFL; SRM repairs them) =="
cargo test -q --test transport_loopback a_stalled_reactor_sheds_inbound_frames_and_srm_repairs_them

echo "== reactor reads its own socket (no receive or demux thread; ppoll timeout arithmetic; recv supervision on a failing backend) =="
cargo test -q --test transport_loopback a_node_reads_its_socket_on_its_one_thread
cargo test -q --test hub a_two_shard_hub_runs_two_shard_threads_and_no_demux_thread
cargo test -q -p srm-transport --lib -- reactor::tests supervise::tests

echo "== one tally per transport event (registry handles are the host counters; the hub's stats carry chaos counts; the soak report shows the agents' liveness and store counts) =="
cargo test -q --test transport_loopback registry_reads_equal_node_stats_right_after_exec
cargo test -q --test hub -- hub_stats_carry_the_groups_chaos_counts \
    eight_concurrent_groups_deliver_independently_under_one_hub
cargo test -q -p srm-transport --lib soak::tests

echo "== one counter vocabulary per member (AgentMetrics::counters names the sim report's rows, a node's agent.* and a hub group's hub.g{G}.agent.* registry entries and stats row; a crash keeps every counter) =="
cargo test -q --test golden_trace every_scenario_report_matches_its_golden
cargo test -q --test transport_loopback a_node_registry_carries_its_agents_counters
cargo test -q --test hub a_hub_group_shows_its_agents_counters_under_one_set_of_names
cargo test -q -p srm --lib a_crash_keeps_the_parity_reconstructions_and_relays_counted

echo "== one live fault injector, one stats sink, one store bound (chaos drop rules replace the loss policy; a chaos window past the clock's range is an error; an unwritable stats file fails at start; srm-sim parses, never writes, scenarios) =="
cargo test -q -p srm-transport --lib -- chaos::tests sink::tests
cargo test -q --test transport_loopback -- two_node_loopback_drop_is_recovered \
    three_node_loss_repaired_by_non_source
cargo test -q --test hub hub_group_is_payload_equivalent_to_a_single_group_node
cargo test -q -p srm-transport --test metrics_monitor
cargo test -q -p srm --lib store::tests
cargo test -q -p srm-sim --lib spec::tests

echo "== one host vocabulary (TransportStats::counters names a node's and a hub's transport counters in the registry, stats(), the stats reply and the monitor's headline rows; srm-hub's exit line counts the groups stop drained; a member id past 32 bits and a send count outside 1..=100000 are refused, not cut or clamped) =="
cargo test -q --test hub a_node_and_a_hub_report_their_transport_counters_from_one_table
cargo test -q --test transport_loopback registry_reads_equal_node_stats_right_after_exec
cargo test -q -p srm-transport --test cli_flags
cargo test -q -p srm-transport --lib -- control::tests runtime::tests hub::tests

echo "== one event log and one chaos step (netsim's EventLog is the simulator's trace and obs's member logs, and every call order keeps a ring within its bound; a disabled trace allocates nothing; a hosted member's send applies its chaos plan, replaying the parent's action sequence and counts from its seed on a node and a hub, with every frame accounted; a node's group row counts its deliveries) =="
cargo test -q -p netsim --lib log::
cargo test -q -p obs --lib log::
cargo test -q --test perf_invariants
cargo test -q --test transport_chaos chaos_transport_output_replays_from_seed
cargo test -q --test hub a_node_and_a_hub_report_their_transport_counters_from_one_table

echo "== one scenario vocabulary (srm-sim's JSON, the figures and the fault chains build through ScenarioSpec::try_build; impossible topologies, out-of-range integers and a source outside the membership are refused, not panics) =="
cargo test -q -p srm-sim --lib -- scenario::tests impossible_topologies_are_refused \
    bad_references_are_reported out_of_range_integers_are_schema_errors
cargo test -q --test scenario_goldens

echo "== one command line (obs::flags: every malformed flag of srm-node, srm-hub, srm-sim and srm-experiments exits 2 at parse time and names itself; --help exits 0; an unwritable --out exits 1) =="
cargo test -q -p obs --lib flags::
cargo test -q -p srm-transport --test cli_flags
cargo test -q -p srm-sim --test cli_flags
cargo test -q -p srm-experiments --test cli_flags

echo "== stale references (the benchmark stack srmbench replaced, the second JSON parser, the multicast-join fallback, the single-file agent, the receive/demux threads, the second and third transport tallies, the single-valued options turned constants, obs's copy of the member counters, and the live host's loss policy, trace-ring, batch and pool settings and Prometheus push, a second tree per member beside the simulator's route cache, and the wire decoder's Buf getters, and srm-sim's second topology enum, topology builder and membership tag and the hand-built fault chain, and the binaries' hand-rolled flag parsers and usage functions, and the timer wheel's tombstone set and the chaos queue's side table, and the hub's second set of transport counter names and its own stats struct, and the simulator's second event log and the chaos driver decorator with its tally and its log must stay gone) =="
# ROADMAP keeps struck-through history (~~...~~ spans, also across lines);
# it is checked with those spans removed. The bracketed letters keep this
# file from matching itself.
stale='BENCH_[49]\.json|srm-b[e]nch|srm-liv[e]bench|scripts/b[e]nch\.sh|LIVE_D[E]BUG|cargo b[e]nch'
stale+='|enum J[v]\b|srm_sim::j[s]on|cli::j[s]on|fallback_p[e]ers|ModeF[a]llback|core/src/agent\.[r]s'
stale+='|run_recv_sup[e]rvised|RECV_P[O]LL|srm-hub-d[e]mux|srm-r[e]cv-|Event::D[a]tagram'
stale+='|TransportSumm[a]ry|HOST_MIRR[O]RS|render_transp[o]rt'
stale+='|AdaptiveConf[i]g|FixedInterva[l]s|DurableRejoinPara[m]s|from_scenario_fil[e]|session_fract[i]on'
stale+='|fingerprint_l[e]n|rep_timeou[t]|min_losse[s]'
stale+='|MemberSumm[a]ry|observe_ag[e]nt|obs::RunSumm[a]ry'
stale+='|LossPol[i]cy|trace_capa[c]ity|render_promet[h]eus|--stats-add[r]|--trace-ca[p]|--drop-dat[a]|pool_sla[b]s'
stale+='|retention_per_str[e]am|active_pe[e]rs|delta_si[n]ce|elapsed_si[n]ce'
stale+='|SpTree::compute\(sim\.topolog[y]\(\)'
stale+='|fn get_u6[4]\(buf: &mut Bytes\)|macro_rules! gett[e]r'
stale+='|TopologyS[p]ec|fn build_topol[o]gy|fn fault_ch[a]in|AllT[a]g'
stale+='|fn parse_ar[g]s|fn trace_us[a]ge|fn monitor_us[a]ge'
stale+='|cancelled: HashS[e]t<u64>|BTreeMap<u64, DelayedS[e]nd>'
stale+='|rx_undeco[d]able|"hub\.frames_se[n]t"|pub struct HubSt[a]ts'
stale+='|ChaosTra[n]sport|ChaosTa[l]ly|chaos_l[o]g|netsim::Tr[a]ce\b'
if grep -rnE "$stale" --include='*.md' --include='*.sh' --include='*.toml' --include='*.rs' \
        --exclude=CHANGES.md --exclude=ISSUE.md --exclude=ROADMAP.md \
        --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=.git . \
    || perl -0pe 's/~~.*?~~//gs' ROADMAP.md | grep -nE "$stale"; then
    echo "stale reference to deleted code (listed above)" >&2
    exit 1
fi

echo "== transport crate size (code lines = not blank, not a // line; then raw lines; then non-test code lines, before each file's #[cfg(test)]; then crates/obs non-test code lines; then crates/core/src/observe.rs + metrics.rs non-test code lines; then crates/cli non-test code lines, then crates/experiments/src/{faults,trace_cmd}.rs non-test code lines, then the four binaries' entry files and obs/src/flags.rs non-test code lines, each and in total) =="
cat crates/transport/src/*.rs crates/transport/src/bin/*.rs | grep -cvE '^\s*(//|$)'
cat crates/transport/src/*.rs crates/transport/src/bin/*.rs | wc -l
for f in crates/transport/src/*.rs crates/transport/src/bin/*.rs; do
    awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f"
done | grep -cvE '^\s*(//|$)'
for f in crates/obs/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f"
done | grep -cvE '^\s*(//|$)'
for f in crates/core/src/observe.rs crates/core/src/metrics.rs; do
    awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f"
done | grep -cvE '^\s*(//|$)'
for f in crates/cli/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f"
done | grep -cvE '^\s*(//|$)'
for f in crates/experiments/src/faults.rs crates/experiments/src/trace_cmd.rs; do
    awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f"
done | grep -cvE '^\s*(//|$)'
cli_code=0
for f in crates/transport/src/bin/srm-node.rs crates/transport/src/bin/srm-hub.rs \
        crates/cli/src/main.rs crates/experiments/src/main.rs crates/obs/src/flags.rs; do
    code=$(awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f" | grep -cvE '^\s*(//|$)')
    echo "$f: $code code"
    cli_code=$((cli_code + code))
done
echo "command-line entry files + obs::flags non-test code lines: $cli_code"

echo "== host vocabulary size (non-test code lines of transport's runtime.rs, hub.rs and reactor.rs, each and in total) =="
host=0
for f in crates/transport/src/runtime.rs crates/transport/src/hub.rs crates/transport/src/reactor.rs; do
    code=$(awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f" | grep -cvE '^\s*(//|$)')
    echo "$f: $code code"
    host=$((host + code))
done
echo "runtime.rs + hub.rs + reactor.rs non-test code lines: $host"

echo "== event log and chaos step size (non-test code lines of crates/netsim plus crates/obs, and of transport's chaos.rs plus reactor.rs, each and in total) =="
netsim=0
for f in crates/netsim/src/*.rs; do
    netsim=$((netsim + $(awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f" | grep -cvE '^\s*(//|$)')))
done
obs=0
for f in crates/obs/src/*.rs; do
    obs=$((obs + $(awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f" | grep -cvE '^\s*(//|$)')))
done
echo "netsim $netsim, obs $obs, total $((netsim + obs))"
chaos=$(awk '/^#\[cfg\(test\)\]/ {exit} {print}' crates/transport/src/chaos.rs | grep -cvE '^\s*(//|$)')
reactor=$(awk '/^#\[cfg\(test\)\]/ {exit} {print}' crates/transport/src/reactor.rs | grep -cvE '^\s*(//|$)')
echo "chaos.rs $chaos, reactor.rs $reactor, total $((chaos + reactor))"

echo "== deadline queue size (non-test code lines of netsim's event.rs, transport's wheel.rs and chaos.rs's DelayedSend + DelayQueue, each and in total) =="
event=$(awk '/^#\[cfg\(test\)\]/ {exit} {print}' crates/netsim/src/event.rs | grep -cvE '^\s*(//|$)')
wheel=$(awk '/^#\[cfg\(test\)\]/ {exit} {print}' crates/transport/src/wheel.rs | grep -cvE '^\s*(//|$)')
delayq=$(awk '/^\/\/\/ A frame held back/ {on=1} /^\/\/\/ Damage a frame/ {exit} on' \
    crates/transport/src/chaos.rs | grep -cvE '^\s*(//|$)')
echo "event.rs $event, wheel.rs $wheel, DelayedSend + DelayQueue $delayq, total $((event + wheel + delayq))"

echo "== ADU fast path size: store.rs + reactor.rs (code lines, then raw) =="
cat crates/core/src/store.rs crates/transport/src/reactor.rs | grep -cvE '^\s*(//|$)'
cat crates/core/src/store.rs crates/transport/src/reactor.rs | wc -l

echo "== recovery path size: agent/*.rs (code lines before #[cfg(test)], raw lines; a non-test file over 600 raw lines fails), netsim's sim.rs and event.rs, size_of::<SrmAgent>() =="
agent_code=0
for f in crates/core/src/agent/*.rs; do
    code=$(awk '/#\[cfg\(test\)\]/ {exit} {print}' "$f" | grep -cvE '^\s*(//|$)')
    raw=$(wc -l < "$f")
    echo "$f: $code code, $raw raw"
    [ "$(basename "$f")" = tests.rs ] && continue
    agent_code=$((agent_code + code))
    [ "$raw" -le 600 ] || { echo "$f has $raw raw lines (limit 600)" >&2; exit 1; }
done
echo "agent/ non-test code lines: $agent_code"
for f in crates/netsim/src/sim.rs crates/netsim/src/event.rs; do
    echo "$f: $(grep -cvE '^\s*(//|$)' "$f") code, $(wc -l < "$f") raw"
done
# agent_size_is_reported fails if the agent grows past its pinned size.
cargo test -q -p srm --lib agent_size_is_reported -- --nocapture | grep 'size_of::<SrmAgent>'

echo "== public option fields (BatchOptions, NodeOptions, HubOptions, ChaosPlan, SrmConfig and the config structs nested in it; a new knob shows up here) =="
for s in BatchOptions:transport/src/batch NodeOptions:transport/src/runtime HubOptions:transport/src/hub \
        ChaosPlan:transport/src/chaos \
        SrmConfig:core/src/config TimerParams:core/src/config RecoveryGroupConfig:core/src/config \
        RateLimit:core/src/config HierarchyConfig:core/src/hierarchy FecConfig:core/src/fec; do
    awk -v s="${s%%:*}" '$0 ~ "^pub struct " s " " {on=1} on && /^    pub [a-z_0-9]+:/ {n++} on && /^}/ {print s, n; exit}' \
        "crates/${s##*:}.rs"
done

echo "== clippy (workspace, every target, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (no warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "CI OK"
