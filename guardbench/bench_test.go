package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/realnet"
	"dnsguard/internal/zone"
)

// TestMain lets the test binary stand in for guardbench when the traced
// run re-executes "itself" as the guard.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve-traced" {
		if err := serveTraced(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// planBytes renders the first n draws of every sequence of p.
func planBytes(p plan, n int) []byte {
	out := make([]byte, 0, n*12)
	for i := 0; i < n; i++ {
		out = binary.BigEndian.AppendUint16(out, p.children[i])
		out = binary.BigEndian.AppendUint16(out, p.forgedIDs[i])
		out = binary.BigEndian.AppendUint32(out, p.newcomer(uint64(i)))
		out = binary.BigEndian.AppendUint32(out, p.spoofed(uint64(i)))
	}
	return out
}

func TestSeedFixesZoneAndTraffic(t *testing.T) {
	a, b, c := genZone(1), genZone(1), genZone(2)
	if a.text != b.text {
		t.Fatal("the same seed gave two different zones")
	}
	if a.text == c.text {
		t.Fatal("different seeds gave the same zone")
	}
	pa, pb, pc := newPlan(1, zoneChildren), newPlan(1, zoneChildren), newPlan(2, zoneChildren)
	if !bytes.Equal(planBytes(pa, planDraws), planBytes(pb, planDraws)) {
		t.Fatal("the same seed gave two different traffic plans")
	}
	if bytes.Equal(planBytes(pa, planDraws), planBytes(pc, planDraws)) {
		t.Fatal("different seeds gave the same traffic plan")
	}
}

// TestZipfShape checks the child draws are Zipf-like: the most drawn child
// gets about 1/H(10000) ≈ 10% of the draws and many children are drawn.
func TestZipfShape(t *testing.T) {
	p := newPlan(5, zoneChildren)
	counts := map[uint16]int{}
	for _, c := range p.children {
		counts[c]++
	}
	top := make([]int, 0, len(counts))
	for _, n := range counts {
		top = append(top, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(top)))
	if share := float64(top[0]) / planDraws; share < 0.08 || share > 0.13 {
		t.Errorf("top child share %.3f, want about 0.102", share)
	}
	if len(counts) < 3000 {
		t.Errorf("only %d distinct children drawn", len(counts))
	}
}

func TestGeneratedZoneParses(t *testing.T) {
	zd := genZone(3)
	z, err := zone.Parse(zd.text, dnswire.MustName("com"))
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(zd.children) != zoneChildren {
		t.Fatalf("%d children, want %d", len(zd.children), zoneChildren)
	}
	for i := 0; i < zoneChildren; i += 101 {
		c := zd.children[i]
		a := z.Lookup(dnswire.MustName(c.label+".com"), dnswire.TypeA)
		if a.Kind != zone.KindReferral || len(a.Authority) != 1 || len(a.Additional) != 1 {
			t.Fatalf("%s: %v, want a referral with one NS and one glue record", c.label, a.Kind)
		}
		if got := a.Additional[0].Data.(*dnswire.AData).Addr.As4(); got != c.glue {
			t.Fatalf("%s: glue %v, want %v", c.label, got, c.glue)
		}
	}
}

// TestFixtureTableMatchesANS compares the fixture's precomputed answers with
// a separately built ans.Server for sampled children, and checks each is
// the referral the load generator expects the guard to turn into glue.
func TestFixtureTableMatchesANS(t *testing.T) {
	zd := genZone(4)
	table, err := fixtureTable(zd)
	if err != nil {
		t.Fatal(err)
	}
	z := zone.MustParse(zd.text, dnswire.MustName("com"))
	srv, err := ans.New(ans.Config{Env: realnet.New(), Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < zoneChildren; i += 97 {
		c := zd.children[i]
		q, err := forwardedQuery(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := srv.HandleQuery(q).PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			t.Fatal(err)
		}
		got := table[string(q[12:])]
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: fixture answer differs from ans.Server's", c.label)
		}
		m, err := dnswire.Unpack(got)
		if err != nil || len(m.Authority) != 1 || len(m.Additional) != 1 ||
			m.Additional[0].Data.(*dnswire.AData).Addr.As4() != c.glue {
			t.Fatalf("%s: fixture answer is not the child's referral: %v", c.label, err)
		}
	}
}

// TestTracedMACAllocs pins the correction guard.allocs_per_op applies: the
// decorated MAC costs the keyring exactly one allocation per call more than
// the built-in scheme it wraps, on minting and on verifying alike.
func TestTracedMACAllocs(t *testing.T) {
	tr := newTracer()
	plain, err := cookie.Open(cookie.Options{MAC: cookie.MD5})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := cookie.Open(cookie.Options{MAC: tracedMAC{inner: cookie.MD5, t: tr}})
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("127.128.0.1")
	var forged cookie.Cookie
	for name, op := range map[string]func(*cookie.Authenticator){
		"mint":   func(a *cookie.Authenticator) { a.Mint(src) },
		"verify": func(a *cookie.Authenticator) { a.Verify(src, forged) },
	} {
		const runs = 100
		base := testing.AllocsPerRun(runs, func() { op(plain) })
		calls := tr.c.MACCalls
		got := testing.AllocsPerRun(runs, func() { op(traced) })
		// AllocsPerRun calls the function once more to warm up.
		perRun := float64(tr.c.MACCalls-calls) / (runs + 1)
		if perRun < 1 || got-base != perRun {
			t.Errorf("%s: %.0f allocs traced, %.0f plain, %.2f MAC calls per run", name, got, base, perRun)
		}
	}
}

// buildGuard builds the shipped dnsguardd once per test binary.
func buildGuard(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dnsguardd")
	out, err := exec.Command("go", "build", "-o", bin, "dnsguard/cmd/dnsguardd").CombinedOutput()
	if err != nil {
		t.Fatalf("building dnsguardd: %v\n%s", err, out)
	}
	return bin
}

// TestShortRuns runs every workload end to end, untraced and traced, and
// checks each reports its full metric set.
func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := buildGuard(t)
	out := t.TempDir()
	for _, wl := range []string{"verified-referrals", "spoof-flood", "newcomer-churn"} {
		for _, trace := range []bool{false, true} {
			res, rec, err := runBench(options{workload: wl, seed: 11, seconds: 1, trace: trace, guardBin: bin, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: %+v", wl, trace, res)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s is %+v, want unit %s", wl, trace, m.Name, got, m.Unit)
				}
			}
			if rec.Metrics["realnet.kernel_drops"].Value != 0 {
				t.Errorf("%s: %v kernel drops", wl, rec.Metrics["realnet.kernel_drops"].Value)
			}
			if trace {
				if _, err := os.Stat(rec.SpansFile); err != nil {
					t.Errorf("%s: spans: %v", wl, err)
				}
			}
		}
	}
}

// TestSensitivityProbe shows normalization keeps real cost changes: two
// flag-only deployments that do more work per op — per-packet I/O and the
// verified cache off — must read higher guard_us_per_op than the default on
// every run, and by more than the default's own run-to-run spread.
func TestSensitivityProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("measures for about a minute")
	}
	bin := buildGuard(t)
	out := t.TempDir()
	measureRuns := func(flags ...string) []float64 {
		var v []float64
		for seed := int64(1); seed <= 3; seed++ {
			res, _, err := runBench(options{workload: "verified-referrals", seed: seed, seconds: 3,
				guardBin: bin, outDir: out, guardFlags: flags})
			if err != nil {
				t.Fatal(err)
			}
			v = append(v, res.Metrics["guard_us_per_op"].Value)
		}
		sort.Float64s(v)
		return v
	}
	base := measureRuns()
	spread := base[len(base)-1] - base[0]
	for _, flags := range [][]string{{"-batch=1"}, {"-fastpath-ttl=-1s"}} {
		v := measureRuns(flags...)
		t.Logf("%v: %.3f vs default %.3f µs/op", flags, v, base)
		if v[0] <= base[len(base)-1] {
			t.Errorf("%v: runs overlap the default's (%v vs %v)", flags, v, base)
		}
		if median(v)-median(base) <= spread {
			t.Errorf("%v: median rise %.3f is within the default's spread %.3f", flags, median(v)-median(base), spread)
		}
	}
}
