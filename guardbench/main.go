// Command guardbench is the repository's end-to-end benchmark: it runs the
// shipped dnsguardd on loopback against a load generator that is also the
// protected ANS, both pinned to one vCPU, and reports the guard's cost per
// answered query normalized by the host's speed over the same interval.
//
// Usage (from the repository root, after building dnsguardd):
//
//	guardbench -guard .bench_build/dnsguardd -workload verified-referrals \
//	           -seed 1 -seconds 10 -trace 0
//
// guardbench/run.sh builds both binaries and runs this. The last line of
// standard output is the result as one JSON object; README.md explains every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workload fixes one traffic mix. r0 is the load generator's CPU per legit
// op (ns) in the measured phase on the reference host; dividing the
// measured value by it gives the host factor. It is a constant of the
// benchmark and changes only with it.
type workload struct {
	// window is the number of legit ops in flight. With the forged
	// queries that ride along, at most 128 datagrams are in flight. The
	// guard's socket holds 256 small datagrams at the default receive
	// buffer (about 200 KiB), but the kernel returns the space of read
	// datagrams to a UDP socket only in quarters of its buffer, so a
	// socket part-way through a burst may hold only about 192 in all. 128
	// stays below that with a wide margin, so a busy guard never loses one
	// to the kernel.
	window int
	r0     float64
	why    string
}

var workloads = map[string]workload{
	"verified-referrals": {window: 128, r0: 9000,
		why: "returning resolvers hit the verified cache; every answer takes the materializing referral path"},
	"spoof-flood": {window: 24, r0: 30000,
		why: "4 forged queries per legit op: every forged one misses the cache, pays a full MAC and is dropped"},
	"newcomer-churn": {window: 128, r0: 14500,
		why: "every op is a never-seen source doing the full two-round-trip cookie exchange"},
}

const (
	setupsPerRun = 3
	// r0Setup is the load generator's CPU per cookie exchange (ns) in
	// set-up on the reference host, the same in every workload: set-up
	// runs the same exchanges whatever the traffic mix.
	r0Setup         = 20000
	guardZone       = "com"
	guardBatch      = 32
	windowsPerPhase = 10
	probeAddr       = 0x7f030001 // 127.3.0.1: the readiness probe's source
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	guardBin string
	outDir   string
	// guardFlags are appended to the untraced guards' command line; only
	// the sensitivity probe sets them.
	guardFlags []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-serve-traced" {
		if err := serveTraced(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "guardbench traced guard: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "verified-referrals, spoof-flood or newcomer-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the zone and the traffic")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceN, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.StringVar(&o.guardBin, "guard", ".bench_build/dnsguardd", "dnsguardd binary under test")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the run record and the spans")
	flag.Parse()
	o.trace = traceN == 1
	res, rec, err := runBench(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "guardbench: %v\n", err)
		os.Exit(1)
	}
	printMetrics(os.Stderr, rec.Metrics)
	recJSON, _ := json.Marshal(rec)
	fmt.Printf("run record: %s\n", recJSON)
	if err := os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("record-%s-%d-trace%d.json", o.workload, o.seed, traceN)), recJSON, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "guardbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// record is everything a run measured, raw and normalized, with the host
// fingerprint; it goes to standard output and to a file beside the spans.
type record struct {
	Workload    string           `json:"workload"`
	Why         string           `json:"why"`
	Seed        int64            `json:"seed"`
	Seconds     int              `json:"seconds"`
	Host        fingerprint      `json:"host"`
	GuardArgv   []string         `json:"guard_argv"`
	GuardBanner []string         `json:"guard_banner"`
	R0NS        float64          `json:"r0_ns_per_op"`
	R0SetupNS   float64          `json:"r0_setup_ns_per_exchange"`
	Setups      []setupStats     `json:"setups"`
	Windows     []windowStats    `json:"windows"`
	Traced      []windowStats    `json:"traced_windows,omitempty"`
	Counters    map[string]int64 `json:"loadgen_counters"`
	// LoadgenAllocs is this process's heap allocations per legit op over
	// the measured phases, the /proc reads at window boundaries included:
	// the generator itself allocates nothing per datagram.
	LoadgenAllocs float64            `json:"loadgen_allocs_per_op"`
	Metrics       map[string]metric  `json:"metrics"`
	Layers        map[string]float64 `json:"traced_ledger_ns,omitempty"`
	SpansFile     string             `json:"spans_file,omitempty"`
}

// runBench runs one benchmark invocation on a thread of its own, which it
// leaves with the lowest CPU priority: the load generator then runs only
// while the guard is idle, so it always finds the guard's whole output
// waiting and its CPU per op stays a property of its own code, not of how
// the guard happens to batch. Guards it starts get the normal policy back.
func runBench(o options) (res result, rec record, err error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The thread stays locked: it is discarded when the goroutine ends
		// rather than returned to the runtime with its low priority.
		runtime.LockOSThread()
		if err = setIdlePriority(); err == nil {
			res, rec, err = runPinned(o)
		}
	}()
	<-done
	return res, rec, err
}

func runPinned(o options) (result, record, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return result{}, record{}, fmt.Errorf("unknown -workload %q", o.workload)
	}
	if o.seconds < 1 {
		return result{}, record{}, fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := os.Stat(o.guardBin); err != nil {
		return result{}, record{}, fmt.Errorf("guard binary: %w", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, record{}, err
	}
	cpu, allowed, err := pickCPU()
	if err != nil {
		return result{}, record{}, err
	}
	if err := pinSelf(cpu); err != nil {
		return result{}, record{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	zd := genZone(o.seed)
	table, err := fixtureTable(zd)
	if err != nil {
		return result{}, record{}, err
	}
	lg, err := newLoadgen(o.workload, zd, newPlan(o.seed, len(zd.children)), table, wl.window)
	if err != nil {
		return result{}, record{}, err
	}
	defer lg.close()

	ansAddr := fmt.Sprintf("127.0.0.1:%d", lg.aport)
	argv := append([]string{o.guardBin, "-zone", guardZone, "-scheme", "dns", "-batch", strconv.Itoa(guardBatch), "-stats", "0",
		"-metrics-addr", "127.0.0.1:0", "-listen", "127.0.0.1:0", "-ans", ansAddr}, o.guardFlags...)
	rec := record{Workload: o.workload, Why: wl.why, Seed: o.seed, Seconds: o.seconds,
		Host: hostFingerprint(cpu, allowed), GuardArgv: argv, R0NS: wl.r0, R0SetupNS: r0Setup}

	// Each run starts setupsPerRun guards and measures each for an equal
	// share of the run: a guard process's cost differs by a few percent
	// from one process to the next, and the mean over several processes
	// is steadier than any one of them.
	var (
		phases []phase
		perOp  []float64
		hwms   []float64
		banner []string
	)
	share := time.Duration(o.seconds) * time.Second / setupsPerRun
	for k := 0; k < setupsPerRun; k++ {
		g, st, err := setup(lg, argv)
		if err != nil {
			return result{}, record{}, err
		}
		st.Normalized = st.WallS / (st.LoadNSPerExchange / r0Setup)
		rec.Setups = append(rec.Setups, st)
		banner = g.banner
		if n, err := allowedCPUs(g.pid()); err == nil {
			rec.Host.GuardGOMAXPROCS = n
		}
		ph, err := measure(lg, g, cpu, share, nil)
		if err != nil {
			g.stop()
			return result{}, record{}, err
		}
		hwm, err := statusKB(g.pid(), "VmHWM")
		g.stop()
		if err != nil {
			return result{}, record{}, err
		}
		if err := ph.check(); err != nil {
			return result{}, record{}, err
		}
		phases = append(phases, ph)
		perOp = append(perOp, ph.guardNSPerOp(wl.r0)/1e3)
		hwms = append(hwms, float64(hwm)/1024)
	}
	rec.GuardBanner = banner
	ph := mergePhases(phases)
	rec.Windows = ph.windows
	rec.Counters = ph.c.asMap()
	rec.LoadgenAllocs = ratio(float64(ph.mallocs), float64(ph.c.ops))
	setupVals := make([]float64, len(rec.Setups))
	for i, s := range rec.Setups {
		setupVals[i] = s.Normalized
	}
	var us float64
	for _, v := range perOp {
		us += v / float64(len(perOp))
	}
	res := result{Correct: true, Attempted: ph.c.attempted, Failed: ph.c.failed, Metrics: map[string]metric{}}
	e2e := map[string]metric{
		"setup_s":         {median(setupVals), "s"},
		"guard_us_per_op": {us, "us"},
		"guard_rss_mb":    {median(hwms), "MiB"},
	}
	rec.Metrics = map[string]metric{}
	for k, v := range e2e {
		rec.Metrics[k] = v
	}
	layer := ph.layerMetrics()
	if o.trace {
		tr, err := tracedRun(o, lg, ansAddr, cpu, banner, metricNames(phases[0].metrics), wl, us)
		if err != nil {
			return result{}, record{}, err
		}
		for k, v := range tr.metrics {
			layer[k] = v
		}
		rec.Traced, rec.Layers, rec.SpansFile = tr.windows, tr.ledger, tr.spans
	}
	for k, v := range layer {
		rec.Metrics[k] = v
	}
	if o.trace {
		res.Metrics = layer
	} else {
		res.Metrics = e2e
	}
	return res, rec, nil
}

type setupStats struct {
	WallS             float64 `json:"wall_s"`
	LoadNSPerExchange float64 `json:"loadgen_ns_per_exchange"`
	Exchanges         int     `json:"exchanges"`
	Normalized        float64 `json:"normalized_s"`
}

// setup starts a guard and brings it to its first measured packet: exec,
// banner, the first answered probe, then one cookie exchange per returning
// resolver (and the attacker's one genuine exchange).
func setup(lg *loadgen, argv []string) (*guardProc, setupStats, error) {
	t0, c0 := time.Now(), cpuNow()
	g, err := startGuard(argv)
	if err != nil {
		return nil, setupStats{}, err
	}
	lg.target(g.listen.Addr().As4(), g.listen.Port())
	probe := []warmItem{{src: addr4(probeAddr), who: -1}}
	exchanges := 0
	for try := 0; ; try++ {
		failed, err := lg.warm(probe)
		exchanges++
		if err != nil {
			g.stop()
			return nil, setupStats{}, err
		}
		if failed == 0 {
			break
		}
		if try == 4 {
			g.stop()
			return nil, setupStats{}, fmt.Errorf("guard answered none of 5 probes")
		}
	}
	items := make([]warmItem, 0, population+1)
	for i := 0; i < population; i++ {
		items = append(items, warmItem{src: addr4(resolverBase + uint32(i)), who: i})
	}
	if lg.forgedPer > 0 {
		items = append(items, warmItem{src: addr4(attackerAddr), who: -2})
	}
	failed, err := lg.warm(items)
	if err == nil && failed > 0 {
		err = fmt.Errorf("set-up lost %d of %d cookie exchanges", failed, len(items))
	}
	if err != nil {
		g.stop()
		return nil, setupStats{}, err
	}
	exchanges += len(items)
	st := setupStats{WallS: time.Since(t0).Seconds(), Exchanges: exchanges,
		LoadNSPerExchange: float64(cpuNow()-c0) / float64(exchanges)}
	return g, st, nil
}

// metricNames is the sorted set of names in a /metrics delta.
func metricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (c counters) asMap() map[string]int64 {
	return map[string]int64{
		"attempted": c.attempted, "ops": c.ops, "failed": c.failed,
		"sent": c.sent, "forged": c.forged, "grants": c.grants, "answers": c.answers,
		"new_sources": c.newSources, "fixture_queries": c.fixtureQueries, "fixture_missing": c.missing,
		"bad_replies": c.badReplies, "spoofed_deliveries": c.spoofed, "stale_replies": c.stale,
		"wakeups": c.wakeups,
	}
}

func printMetrics(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
