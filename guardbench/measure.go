package main

import (
	"fmt"
	"runtime"
	"time"
)

// windowStats is one measurement window: raw CPU of both processes, the
// legit ops answered, and the host's steal over the same interval.
type windowStats struct {
	GuardNS     int64   `json:"guard_cpu_ns"`
	LoadNS      int64   `json:"loadgen_cpu_ns"`
	Ops         int64   `json:"ops"`
	Wakeups     int64   `json:"loadgen_wakeups"`
	WallNS      int64   `json:"wall_ns"`
	StealRatio  float64 `json:"steal_ratio"`
	HostFactor  float64 `json:"host_factor"`
	RawGuardUS  float64 `json:"raw_guard_us_per_op"`
	NormGuardUS float64 `json:"guard_us_per_op"`
}

type sample struct {
	guardNS, loadNS, ops, wall int64
	wakeups                    int64
	total, steal               int64
}

// phase is one saturated measured phase against one guard.
type phase struct {
	windows []windowStats
	c       counters
	metrics map[string]float64 // /metrics deltas over the phase
	drops   int64
	wall    time.Duration
	stealR  float64
	mallocs uint64 // this process's heap allocations during the phase
}

func takeSample(g *guardProc, lg *loadgen, cpu int) (sample, error) {
	gns, err := procCPU(g.pid())
	if err != nil {
		return sample{}, err
	}
	total, steal, err := cpuTimes(cpu)
	if err != nil {
		return sample{}, err
	}
	return sample{guardNS: gns, loadNS: cpuNow(), ops: lg.c.ops, wakeups: lg.c.wakeups, wall: int64(lg.now()), total: total, steal: steal}, nil
}

// measure runs the workload for span against g, sampling both processes'
// CPU at windowsPerPhase boundaries. Scrapes and drop counters are read only
// before and after, while nothing is in flight. atMark, when set, is called
// right before the first sample and right after the last one.
func measure(lg *loadgen, g *guardProc, cpu int, span time.Duration, atMark func()) (phase, error) {
	var ph phase
	ports := []uint16{g.listen.Port(), lg.upPort}
	drops0, err := kernelDrops(ports...)
	if err != nil {
		return ph, err
	}
	m0, err := g.scrape()
	if err != nil {
		return ph, err
	}
	c0 := lg.c
	samples := make([]sample, 0, windowsPerPhase+2)
	var sampleErr error
	tick := func(final bool) {
		s, err := takeSample(g, lg, cpu)
		if err != nil && sampleErr == nil {
			sampleErr = err
		}
		samples = append(samples, s)
		if atMark != nil && final {
			atMark()
		}
	}
	if atMark != nil {
		atMark()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tick(false)
	start := lg.now()
	if err := lg.run(false, start+span, span/windowsPerPhase, tick); err != nil {
		return ph, err
	}
	if sampleErr != nil {
		return ph, sampleErr
	}
	ph.wall = lg.now() - start
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.c = lg.c.sub(c0)
	m1, err := g.scrape()
	if err != nil {
		return ph, err
	}
	drops1, err := kernelDrops(ports...)
	if err != nil {
		return ph, err
	}
	ph.drops = drops1 - drops0
	ph.metrics = make(map[string]float64, len(m1))
	for k, v := range m1 {
		ph.metrics[k] = v - m0[k]
	}
	var stealD, totalD int64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		w := windowStats{GuardNS: b.guardNS - a.guardNS, LoadNS: b.loadNS - a.loadNS, Ops: b.ops - a.ops, Wakeups: b.wakeups - a.wakeups, WallNS: b.wall - a.wall}
		if d := b.total - a.total; d > 0 {
			w.StealRatio = float64(b.steal-a.steal) / float64(d)
		}
		stealD += b.steal - a.steal
		totalD += b.total - a.total
		ph.windows = append(ph.windows, w)
	}
	if totalD > 0 {
		ph.stealR = float64(stealD) / float64(totalD)
	}
	return ph, nil
}

// mergePhases pools the windows, counters, metric deltas and drops of
// several phases.
func mergePhases(phs []phase) phase {
	var m phase
	m.metrics = map[string]float64{}
	var steal float64
	for _, ph := range phs {
		m.windows = append(m.windows, ph.windows...)
		m.c = m.c.add(ph.c)
		for k, v := range ph.metrics {
			m.metrics[k] += v
		}
		m.drops += ph.drops
		m.mallocs += ph.mallocs
		m.wall += ph.wall
		steal += ph.stealR * ph.wall.Seconds()
	}
	if m.wall > 0 {
		m.stealR = steal / m.wall.Seconds()
	}
	return m
}

// normalize fills each window's host factor and guard cost for r0.
func (ph *phase) normalize(r0 float64) {
	for i := range ph.windows {
		w := &ph.windows[i]
		if w.Ops == 0 || w.LoadNS == 0 {
			continue
		}
		w.HostFactor = float64(w.LoadNS) / float64(w.Ops) / r0
		w.RawGuardUS = float64(w.GuardNS) / float64(w.Ops) / 1e3
		w.NormGuardUS = w.RawGuardUS / w.HostFactor
	}
}

// guardNSPerOp is the median over windows of the guard's CPU per answered
// legit op divided by the host factor: the guard-to-generator CPU ratio
// times r0.
func (ph *phase) guardNSPerOp(r0 float64) float64 {
	ph.normalize(r0)
	return ph.medianOf(func(w windowStats) float64 { return w.NormGuardUS * 1e3 })
}

func (ph *phase) medianOf(f func(windowStats) float64) float64 {
	v := make([]float64, 0, len(ph.windows))
	for _, w := range ph.windows {
		if w.Ops > 0 {
			v = append(v, f(w))
		}
	}
	return median(v)
}

// check applies the end-to-end correctness checks that need the guard's
// counters: packet conservation and the ANS-side accounting.
func (ph *phase) check() error {
	m := ph.metrics
	if got := int64(m["guard_remote_received"]) + ph.drops; got != ph.c.sent {
		return fmt.Errorf("conservation: sent %d datagrams, guard received %.0f + kernel drops %d",
			ph.c.sent, m["guard_remote_received"], ph.drops)
	}
	if fwd := int64(m["guard_remote_forwarded_to_ans"]); fwd != ph.c.fixtureQueries {
		return fmt.Errorf("guard forwarded %d queries, the ANS fixture received %d", fwd, ph.c.fixtureQueries)
	}
	if ph.c.ops == 0 {
		return fmt.Errorf("no legit op was answered")
	}
	return nil
}

// ratio is a/b, or 0 where nothing was counted to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics are the per-layer metrics read from /metrics and /proc
// deltas of the untraced phase, plus the bench's own host figures.
func (ph *phase) layerMetrics() map[string]metric {
	m := ph.metrics
	ops := float64(ph.c.ops)
	checked := m["guard_remote_cookie_valid"] + m["guard_remote_cookie_invalid"]
	return map[string]metric{
		"realnet.kernel_drops":              {float64(ph.drops), "count"},
		"engine.fastpath_hit_ratio":         {ratio(m["guard_engine_fast_path_hits"], checked), "ratio"},
		"engine.verified_evictions_per_kop": {1e3 * ratio(m["guard_engine_fast_path_evictions"], ops), "1/kop"},
		"engine.shed_ratio":                 {ratio(m["guard_engine_shed_new"]+m["guard_engine_shed_old"], m["guard_remote_received"]), "ratio"},
		"guard.forwarded_per_op":            {ratio(m["guard_remote_forwarded_to_ans"], ops), "1/op"},
		"guard.invalid_per_forged":          {ratio(m["guard_remote_cookie_invalid"], float64(ph.c.forged)), "ratio"},
		"guard.grants_per_new_source":       {ratio(m["guard_remote_newcomer_grants"], float64(ph.c.newSources)), "ratio"},
		"ratelimit.denied":                  {m["guard_rl1_denied"] + m["guard_rl2_denied"], "count"},
		"loadgen.us_per_op":                 {ph.medianOf(func(w windowStats) float64 { return float64(w.LoadNS) / float64(w.Ops) / 1e3 }), "us"},
		"host.factor":                       {ph.medianOf(func(w windowStats) float64 { return w.HostFactor }), "ratio"},
		"host.raw_guard_us_per_op":          {ph.medianOf(func(w windowStats) float64 { return w.RawGuardUS }), "us"},
		"host.raw_qps":                      {ops / ph.wall.Seconds(), "1/s"},
		"host.steal_ratio":                  {ph.stealR, "ratio"},
	}
}
