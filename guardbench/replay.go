package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
)

// The layer replay feeds the traced run's captured datagrams and source
// sequence through the public functions each layer is made of, one layer
// at a time, and reports ns and allocations per call, plus the memory
// ledger: heap bytes per verified-cache entry and per rate-limited source.
// Times are raw: the replay runs alone on the pinned vCPU.

const replayBudget = 100 * time.Millisecond

// timeCalls runs f(i) for i = 0, 1, ... over at least replayBudget and
// returns ns and heap allocations per call.
func timeCalls(f func(i int)) (ns, allocs float64) {
	f(0) // warm lazily built state
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	calls := 0
	for time.Since(start) < replayBudget {
		for k := 0; k < 256; k++ {
			f(calls)
			calls++
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// heapPer reports retained heap bytes per item after build(n) fills a
// structure with n items.
func heapPer(n int, build func(n int) any) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := build(n)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(n)
}

// nopIO is the capture interface of a guard that is built but never
// started: the replay uses only its engine's verified cache.
type nopIO struct{}

func (nopIO) Read(time.Duration) (guard.Packet, error) {
	return guard.Packet{}, fmt.Errorf("not started")
}
func (nopIO) WriteFromTo(_, _ netip.AddrPort, _ []byte) error { return nil }
func (nopIO) Close() error                                    { return nil }

func newCacheGuard(auth *cookie.Authenticator) (*guard.Remote, error) {
	return guard.NewRemote(guard.RemoteConfig{
		Env: realnet.New(), IO: nopIO{}, Auth: auth, FastPathTTL: time.Minute,
		PublicAddr: netip.MustParseAddrPort("127.0.0.1:53"), ANSAddr: netip.MustParseAddrPort("127.0.0.1:54"),
	})
}

// distinct returns the i-th address of an endless sequence built from
// distinct captured sources: the list repeated with the round number folded
// into the second and third octets, so the sequence never repeats within a
// replay.
func distinct(srcs []netip.Addr, i int) netip.Addr {
	b := srcs[i%len(srcs)].As4()
	b[1] ^= byte(i / len(srcs))
	b[2] ^= byte(i / len(srcs) >> 8)
	return netip.AddrFrom4(b)
}

func replay(cp *capture, wl string) (map[string]metric, error) {
	if len(cp.queries) == 0 || len(cp.answers) == 0 || len(cp.replies) == 0 {
		return nil, fmt.Errorf("replay: the traced run captured no traffic")
	}
	srcs := make([]netip.Addr, len(cp.querySrcs))
	var uniq []netip.Addr // distinct sources in capture order, for inserts
	seen := map[netip.Addr]bool{}
	for i, s := range cp.querySrcs {
		srcs[i] = netip.AddrFrom4(s)
		if !seen[srcs[i]] {
			seen[srcs[i]] = true
			uniq = append(uniq, srcs[i])
		}
	}
	auth, err := cookie.NewAuthenticator()
	if err != nil {
		return nil, err
	}
	nsc := cookie.NSCodec{}
	labels := make([]string, len(cp.queries))
	for i, q := range cp.queries {
		if v, ok := dnswire.ParseView(q); ok && len(v.FirstLabel()) > labelLen && string(v.FirstLabel()[:2]) == cookie.DefaultNSPrefix {
			labels[i] = string(v.FirstLabel()[:labelLen])
		} else {
			labels[i] = nsc.EncodeLabel(auth.Mint(srcs[i]))
		}
	}
	// The guard unpacks every ANS answer; in the two workloads with
	// unverified traffic it also unpacks the queries that miss the fast path.
	unpacked := cp.answers
	if wl != "verified-referrals" {
		unpacked = append(append([][]byte(nil), cp.answers...), cp.queries...)
	}
	replies := make([]*dnswire.Message, 0, len(cp.replies))
	for _, r := range cp.replies {
		m, err := dnswire.Unpack(r)
		if err != nil {
			return nil, fmt.Errorf("replay: a captured reply does not unpack: %w", err)
		}
		replies = append(replies, m)
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	var sink bool
	ns, _ := timeCalls(func(i int) { _, sink = dnswire.ParseView(cp.queries[i%len(cp.queries)]) })
	put("dnswire.view_ns", ns, "ns")
	ns, al := timeCalls(func(i int) { _, err := dnswire.Unpack(unpacked[i%len(unpacked)]); sink = err == nil })
	put("dnswire.unpack_ns", ns, "ns")
	put("dnswire.unpack_allocs", al, "count")
	ns, al = timeCalls(func(i int) { _, err := replies[i%len(replies)].PackUDP(dnswire.MaxUDPSize); sink = err == nil })
	put("dnswire.pack_ns", ns, "ns")
	put("dnswire.pack_allocs", al, "count")

	ns, _ = timeCalls(func(i int) { sink = auth.Mint(srcs[i%len(srcs)]).IsZero() })
	put("cookie.mint_ns", ns, "ns")
	ns, _ = timeCalls(func(i int) { k := i % len(srcs); sink = nsc.VerifyLabel(auth, srcs[k], labels[k]) })
	put("cookie.verify_label_ns", ns, "ns")

	rl1 := ratelimit.NewLimiter1(ratelimit.DefaultLimiter1Config(), 0)
	ns, _ = timeCalls(func(i int) { sink = rl1.AllowResponse(srcs[i%len(srcs)], time.Duration(i)*50*time.Microsecond) })
	put("ratelimit.rl1_allow_ns", ns, "ns")
	rl2 := ratelimit.NewLimiter2(ratelimit.DefaultLimiter2Config(), 0)
	ns, _ = timeCalls(func(i int) { sink = rl2.AllowRequest(srcs[i%len(srcs)], time.Duration(i)*50*time.Microsecond) })
	put("ratelimit.rl2_allow_ns", ns, "ns")
	put("ratelimit.bytes_per_source", heapPer(4096, func(n int) any {
		l := ratelimit.NewLimiter1(ratelimit.Limiter1Config{PerSourceRate: 100, PerSourceBurst: 20,
			GlobalRate: 1e9, GlobalBurst: 1e9, TrackedSources: n}, 0)
		for i := 0; i < n; i++ {
			l.AllowResponse(distinct(uniq, i), 0)
		}
		return l
	}), "B")

	g, err := newCacheGuard(auth)
	if err != nil {
		return nil, err
	}
	creds := make([]string, len(labels))
	credBytes := make([][]byte, len(labels))
	for i, l := range labels {
		creds[i] = "ns:" + l
		credBytes[i] = []byte(creds[i])
	}
	eng := g.Engine()
	ns, _ = timeCalls(func(i int) { eng.MarkVerifiedOn(0, distinct(uniq, i), creds[i%len(creds)]) })
	put("engine.verified_insert_ns", ns, "ns")
	for i := range srcs {
		eng.MarkVerifiedOn(0, srcs[i], creds[i])
	}
	ns, _ = timeCalls(func(i int) { k := i % len(srcs); sink = eng.VerifiedCredMatchOn(0, srcs[k], credBytes[k]) })
	put("engine.verified_lookup_ns", ns, "ns")
	perEntry := heapPer(4096, func(n int) any {
		g, err := newCacheGuard(auth)
		if err != nil {
			return nil
		}
		for i := 0; i < n; i++ {
			g.Engine().MarkVerifiedOn(0, distinct(uniq, i), "ns:"+labels[i%len(labels)])
		}
		return g
	})
	base := heapPer(1, func(int) any { g, _ := newCacheGuard(auth); return g })
	put("engine.bytes_per_verified_entry", perEntry-base/4096, "B")
	_ = sink
	return out, nil
}
