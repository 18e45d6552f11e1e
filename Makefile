# dnsguard build/verify entry points. `make check` is the full local gate:
# vet, the race-enabled suite, and a short fuzz smoke on every fuzz target.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test check vet race api-check fuzz-smoke metrics-smoke bench-smoke crash-restart-smoke campaign-smoke fleet-smoke upgrade-smoke testdata

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...

# Short deterministic-ish smoke on each fuzz target; regressions in the
# checked-in corpus (testdata/fuzz/...) fail `make test` already, this adds
# fresh mutation coverage. The decoders, the zero-copy view and record
# walker against Unpack, and the guard's wire referral arm against its
# materializing arm.
fuzz-smoke:
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzNameRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzViewAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzRecordWalk$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/guard -run='^$$' -fuzz='^FuzzReferralDifferential$$' -fuzztime=$(FUZZTIME)

# Boot a guarded ANS with -metrics-addr, scrape /metrics once, and check the
# guard's series are present. End-to-end proof the observability layer serves.
metrics-smoke:
	@set -e; \
	$(GO) build -o /tmp/dnsguard-smoke-ansd ./cmd/ansd; \
	$(GO) build -o /tmp/dnsguard-smoke-guardd ./cmd/dnsguardd; \
	/tmp/dnsguard-smoke-ansd -zone testdata/foo.com.zone -listen 127.0.0.1:15353 & ANS=$$!; \
	/tmp/dnsguard-smoke-guardd -listen 127.0.0.1:15355 -ans 127.0.0.1:15353 -zone foo.com \
		-shards 2 -mitigate -metrics-addr 127.0.0.1:19090 -stats 0 & GUARD=$$!; \
	trap 'kill $$ANS $$GUARD 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:19090/metrics >/tmp/dnsguard-smoke-metrics.txt 2>/dev/null && break; \
		sleep 0.1; \
	done; \
	curl -sf http://127.0.0.1:19090/debug/vars >/dev/null; \
	for series in guard_remote_received guard_remote_cookie_valid guard_remote_upstream_spoofed \
		guard_rl1_allowed tcpproxy_accepted guard_remote_pending \
		guard_engine_shards guard_engine_handled guard_engine_shed_new \
		guard_engine_queue_depth guard_engine_shard1_handled \
		guard_mitigation_layer guard_mitigation_escalations; do \
		grep -q "^$$series " /tmp/dnsguard-smoke-metrics.txt || { echo "missing $$series"; exit 1; }; \
	done; \
	grep -q "^guard_engine_shards 2$$" /tmp/dnsguard-smoke-metrics.txt \
		|| { echo "guard_engine_shards != 2"; exit 1; }; \
	grep -q "^guard_mitigation_enabled 1$$" /tmp/dnsguard-smoke-metrics.txt \
		|| { echo "guard_mitigation_enabled != 1 under -mitigate"; exit 1; }; \
	echo "metrics-smoke: ok ($$(wc -l < /tmp/dnsguard-smoke-metrics.txt) series)"

# Run every shipped campaign pack in the deterministic lab (2 shards, fixed
# seed) plus the mitigation-selector transition table: the adversarial gate
# behind DESIGN.md §13. Same-seed runs must match the checked-in goldens.
campaign-smoke:
	$(GO) test ./internal/workload -run='^TestCampaign' -count=1
	$(GO) test ./internal/guard -run='^TestMitigator' -count=1

# Boot the 3-guard netsim fleet and run the shipped fleet packs: the
# catchment-shift acceptance gate (flap moves ≥30% of a 120k-source verified
# population to a cold site mid-attack; the cold site re-admits via the
# fleet-shared keyring; zero verified-traffic drops during the scripted
# drain; bit-identical golden replay) plus site failure and mid-run key
# rotation. The gate behind DESIGN.md §15.
fleet-smoke:
	$(GO) test ./internal/fleet -run='^TestFleet' -count=1

# The zero-downtime acceptance gate behind DESIGN.md §16: every site of the
# rolling-upgrade pack restarted one at a time under live load and a mid-roll
# spoof flood; a keyring rotation seeded through a controller outage and a
# site-pair partition converges by gossip anti-entropy within bounded rounds;
# catchment-moved verified sources re-admit with zero extra cookie exchanges;
# goodput stays ≥ 0.99; the metrics export replays bit-identically against
# the checked-in golden — all under the race detector.
upgrade-smoke:
	$(GO) test -race ./internal/fleet -run='^(TestRollingUpgrade|TestGossip)' -count=1

# The public-API freeze: any change to the exported dnsguard surface fails
# here until testdata/api.txt is deliberately regenerated with
# `go test -run TestAPI -update`.
api-check:
	$(GO) test -run='^TestAPI$$' .

# One short pass over the real-time engine benchmark (1 shard, clean load,
# per-packet and batched I/O), one scaled-down Table III regeneration, and
# the DESIGN §17 allocation/cost gates: the wire-to-wire fast path must stay
# at 0 allocs per verified packet cycle, referral included
# (TestFastPathWireAllocs), a warm loopback batch write+read must not
# allocate (TestBatchIOAllocs), both cookie MAC schemes must verify
# allocation-free (BenchmarkCookieVerifyMAC), and one verification under
# either scheme must cost less than the host's measured per-datagram send
# syscall (TestMACCostBelowSyscall).
bench-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkEngineThroughput$$/shards=1/spoof=0$$/batch=1$$' -benchtime=1x -short .
	$(GO) test -run='^$$' -bench='^BenchmarkEngineThroughput$$/shards=1/spoof=0$$/batch=32$$' -benchtime=1x -short .
	$(GO) test -run='^$$' -bench='^BenchmarkTableIII_NSName$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkCookieVerifyMAC$$' -benchtime=1000x .
	$(GO) test -run='^TestFastPathWireAllocs$$' -count=1 ./internal/guard
	$(GO) test -run='^TestBatchIOAllocs$$' -count=1 ./internal/realnet
	$(GO) test -run='^TestMACCostBelowSyscall$$' -count=1 -v ./internal/experiments
	DNSGUARD_SCALING_SMOKE=1 $(GO) test -run='^TestShardScalingSmoke$$' -count=1 -v ./internal/experiments

# Crash-restart smoke: boot a guarded ANS with a persisted keyring, obtain a
# cookie, SIGKILL the guard, restart it on the same -state-file, and prove
# the pre-crash cookie still verifies (guard_remote_cookie_valid = 1 on the
# restarted process). The end-to-end check behind DESIGN.md Â§11.
crash-restart-smoke:
	@set -e; \
	rm -f /tmp/dnsguard-smoke-keyring /tmp/dnsguard-smoke-cookie; \
	$(GO) build -o /tmp/dnsguard-smoke-ansd ./cmd/ansd; \
	$(GO) build -o /tmp/dnsguard-smoke-guardd ./cmd/dnsguardd; \
	$(GO) build -o /tmp/dnsguard-smoke-dnsq ./cmd/dnsq; \
	/tmp/dnsguard-smoke-ansd -zone testdata/foo.com.zone -listen 127.0.0.1:16353 & ANS=$$!; \
	trap 'kill $$ANS $$GUARD 2>/dev/null' EXIT; \
	/tmp/dnsguard-smoke-guardd -listen 127.0.0.1:16355 -ans 127.0.0.1:16353 -zone foo.com \
		-state-file /tmp/dnsguard-smoke-keyring -stats 0 & GUARD=$$!; \
	ok=; for i in $$(seq 1 50); do \
		/tmp/dnsguard-smoke-dnsq -server 127.0.0.1:16355 -timeout 200ms \
			-cookie-file /tmp/dnsguard-smoke-cookie www.foo.com A >/dev/null 2>&1 \
			&& { ok=1; break; }; sleep 0.1; \
	done; test -n "$$ok" || { echo "pre-crash query never succeeded"; exit 1; }; \
	test -s /tmp/dnsguard-smoke-cookie || { echo "no cookie cached"; exit 1; }; \
	kill -9 $$GUARD; wait $$GUARD 2>/dev/null || true; \
	/tmp/dnsguard-smoke-guardd -listen 127.0.0.1:16355 -ans 127.0.0.1:16353 -zone foo.com \
		-state-file /tmp/dnsguard-smoke-keyring -metrics-addr 127.0.0.1:19091 -stats 0 & GUARD=$$!; \
	ok=; for i in $$(seq 1 50); do \
		/tmp/dnsguard-smoke-dnsq -server 127.0.0.1:16355 -timeout 200ms \
			-cookie-file /tmp/dnsguard-smoke-cookie www.foo.com A >/dev/null 2>&1 \
			&& { ok=1; break; }; sleep 0.1; \
	done; test -n "$$ok" || { echo "post-restart query never succeeded"; exit 1; }; \
	curl -sf http://127.0.0.1:19091/metrics | grep -q "^guard_remote_cookie_valid [1-9]" \
		|| { echo "pre-crash cookie did not verify after restart"; exit 1; }; \
	echo "crash-restart-smoke: ok"

check: vet race api-check campaign-smoke fleet-smoke upgrade-smoke fuzz-smoke metrics-smoke bench-smoke crash-restart-smoke

# Regenerate the wire-capture fuzz seeds under internal/dnswire/testdata/.
testdata:
	$(GO) run internal/dnswire/testdata/gen.go
